//! Fault-injection suite (satellite 2): hostile and broken connections —
//! half-open peers, mid-frame disconnects, garbage preambles, one-byte
//! dribblers — must each affect only themselves. Throughout, a well-behaved
//! client keeps getting answers that are bitwise equal to direct in-process
//! `locate` calls, and the wire counters account for every event exactly.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use stone_dataset::Localizer;
use stone_net::codec::{decode_response, encode_request, FrameBuffer};
use stone_net::{NetClient, NetServer, ScanRequest, WireStatus};
use stone_serve::ServerConfig;

const TIMEOUT: Duration = Duration::from_secs(20);

fn poll_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + TIMEOUT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn faulty_connections_only_hurt_themselves() {
    let (registry, suite) = common::office_registry(7);
    let snapshot = registry.snapshot("office").expect("published");
    let scans: Vec<Vec<f32>> = suite
        .buckets
        .iter()
        .flat_map(|b| b.trajectories.iter().flat_map(|t| &t.fingerprints))
        .map(|f| f.rssi.clone())
        .take(8)
        .collect();
    assert_eq!(scans.len(), 8, "suite too small for the scenario");

    let mut server = NetServer::start(
        registry,
        "127.0.0.1:0",
        ServerConfig { queue_capacity: 64, workers: 1, ..ServerConfig::default() },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Fault 1: a half-open peer — connects, sends nothing, just sits there.
    // It must not occupy anything the other connections need.
    let half_open = TcpStream::connect(addr).expect("half-open connect");

    // Fault 2: a mid-frame disconnect — declares a 64-byte payload,
    // delivers 10 bytes, vanishes. Not a protocol violation the server can
    // even prove (the rest could have been in flight), so it is *not*
    // counted malformed; the reader just unwinds.
    {
        let mut s = TcpStream::connect(addr).expect("mid-frame connect");
        s.write_all(&64u32.to_le_bytes()).expect("length prefix");
        s.write_all(&[0u8; 10]).expect("partial payload");
    } // dropped here: RST/FIN mid-frame

    // Fault 3: a garbage preamble — an HTTP request, say. The first four
    // bytes read as a ~540 MB declared length, so the server answers with
    // the request-id-0 Malformed goodbye and closes without allocating.
    let mut garbage = TcpStream::connect(addr).expect("garbage connect");
    garbage.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    garbage.write_all(b"GET /locate HTTP/1.1\r\n\r\n").expect("garbage bytes");
    {
        let mut frames = FrameBuffer::new();
        let mut buf = [0u8; 256];
        let goodbye = loop {
            if let Some(payload) = frames.next_payload().expect("well-formed goodbye") {
                break decode_response(&payload).expect("goodbye decodes");
            }
            let n = garbage.read(&mut buf).expect("read goodbye");
            assert!(n > 0, "EOF before the Malformed goodbye");
            frames.push_bytes(&buf[..n]);
        };
        assert_eq!(goodbye.request_id, 0);
        assert_eq!(goodbye.result, Err(WireStatus::Malformed));
        // After the goodbye the server closes the connection.
        poll_until(|| garbage.read(&mut buf).map(|n| n == 0).unwrap_or(true), "garbage conn EOF");
    }

    // Fault 4: a dribbler — a perfectly valid frame delivered one byte at a
    // time. Slow is not wrong: it must get a real answer.
    {
        let frame = encode_request(&ScanRequest {
            request_id: 99,
            deadline_us: 0,
            trace_id: 0,
            venue: "office".into(),
            rssi: scans[0].clone(),
        })
        .expect("within caps");
        let mut s = TcpStream::connect(addr).expect("dribble connect");
        s.set_nodelay(true).expect("nodelay");
        s.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
        for &b in &frame {
            s.write_all(&[b]).expect("dribble byte");
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut frames = FrameBuffer::new();
        let mut buf = [0u8; 256];
        let resp = loop {
            if let Some(payload) = frames.next_payload().expect("well-formed response") {
                break decode_response(&payload).expect("response decodes");
            }
            let n = s.read(&mut buf).expect("read response");
            assert!(n > 0, "EOF before the dribbler's answer");
            frames.push_bytes(&buf[..n]);
        };
        assert_eq!(resp.request_id, 99);
        let pos = resp.result.expect("dribbled request is answered");
        let direct = snapshot.model().locate(&scans[0]);
        assert_eq!((pos.x, pos.y), (direct.x, direct.y), "dribbled answer differs from direct");
        assert_eq!(pos.model_version, snapshot.version());
    }

    // Meanwhile, a well-behaved client gets every answer, each bitwise
    // equal to a direct in-process locate on the same snapshot.
    let mut client = NetClient::connect(addr).expect("good client connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");
    for scan in &scans {
        let pos = client.locate("office", scan).expect("good client is served");
        let direct = snapshot.model().locate(scan);
        assert_eq!((pos.x, pos.y), (direct.x, direct.y), "served answer differs from direct");
        assert_eq!(pos.model_version, snapshot.version());
    }

    // Unknown venues and dimension mismatches come back as status codes on
    // a healthy connection — not as closes.
    let err = client.locate("atlantis", &scans[0]).expect_err("unknown venue");
    assert!(
        matches!(err, stone_net::ClientError::Status(WireStatus::UnknownVenue)),
        "unexpected error: {err}"
    );
    let err = client.locate("office", &[0.0_f32; 3]).expect_err("dimension mismatch");
    assert!(
        matches!(err, stone_net::ClientError::Status(WireStatus::DimensionMismatch)),
        "unexpected error: {err}"
    );
    let pos = client.locate("office", &scans[0]).expect("still serving after status errors");
    assert_eq!(pos.model_version, snapshot.version());

    // The two broken connections (mid-frame, garbage) have fully closed by
    // now; the half-open one and the good client are still up.
    poll_until(|| server.stats().connections_closed >= 3, "faulty conns torn down");

    let live = server.stats();
    assert_eq!(live.connections_accepted, 5, "half-open + mid-frame + garbage + dribble + good");
    assert_eq!(live.malformed_frames, 1, "only the garbage preamble is provably malformed");
    // 8 good locates + unknown-venue + mismatch + 1 retry + 1 dribble.
    assert_eq!(live.requests_decoded, 12);
    assert_eq!(live.shed, 0, "nothing overflowed the queue in this scenario");

    let final_stats = server.shutdown();
    drop(half_open);
    assert_eq!(final_stats.connections_closed, 5, "every connection torn down on drain");
    assert_eq!(final_stats.responses_written, 13, "12 answers + 1 malformed goodbye");
}

/// Venue names are client input: a client cycling through names nobody
/// published must get `UnknownVenue` for each one without the server
/// growing per-venue state for any of them — only published venues ever
/// get a queue shard and a counter block.
#[test]
fn unpublished_venue_names_allocate_no_server_state() {
    const NAMES: usize = 500;
    let (registry, suite) = common::office_registry(8);
    let scan = suite.train.records()[0].rssi.clone();
    let mut server = NetServer::start(registry, "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.set_read_timeout(Some(TIMEOUT)).expect("read timeout");

    client.locate("office", &scan).expect("published venue serves");
    for i in 0..NAMES {
        client.send(&format!("ghost-{i:03}"), &scan).expect("send");
    }
    for _ in 0..NAMES {
        let resp = client.recv().expect("every unknown venue is answered");
        assert_eq!(resp.result, Err(WireStatus::UnknownVenue), "id {}", resp.request_id);
    }

    let stats = server.serve_stats();
    let venues: Vec<&str> = stats.venues.iter().map(|v| v.venue.as_str()).collect();
    assert_eq!(venues, ["office"], "only the published venue holds server state");
    assert_eq!(stats.completed, 1);
    let wire = server.shutdown();
    assert_eq!(wire.requests_decoded, NAMES as u64 + 1);
    assert_eq!(wire.responses_written, NAMES as u64 + 1);
}
