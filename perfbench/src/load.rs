//! The three workload passes and the request ledger they fill.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use stone::StoneLocalizer;
use stone_dataset::Localizer;
use stone_net::codec::{decode_response, encode_request, FrameBuffer};
use stone_net::{ClientError, NetClient, ScanRequest, ScanResponse, WirePosition, WireStatus};
use stone_radio::Point2;
use stone_serve::ModelRegistry;

use crate::deploy::{same_bits, ErrorTally, Scan};
use crate::probes::BATCH;
use crate::report::Outcome;
use crate::schedule::{poisson, Arrival, Shape};
use crate::stats::Sample;

/// The latency limit of the served workloads. An answer slower than this
/// counts as failed, and `tcp-open-16v` sends it as the wire deadline.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(50);

/// Offered rate of `tcp-open-16v`, requests per second.
pub const OPEN_RATE_HZ: f64 = 600.0;

/// Share of `tcp-open-16v` traffic sent to the hot venue.
pub const HOT_SHARE: f64 = 0.5;

/// Connections `tcp-open-16v` spreads its requests over.
pub const CONNECTIONS: usize = 2;

/// The generator's own bound, the latency limit: a `tcp-open-16v` run in
/// which more than 1% of requests left so late that the generator alone
/// made them miss the limit did not offer the scheduled rate, and is
/// invalid.
pub const LAG_BOUND_MS: f64 = 50.0;

/// How long a client waits for an answer before counting a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-request outcomes of one pass. On the wire, `ok + shed + expired +
/// errors + timeouts == sent`; `good` are the `ok` answers that arrived
/// within the latency limit and equal the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Requests (or scans, on replay) sent.
    pub sent: u64,
    /// Answered with a position.
    pub ok: u64,
    /// Answered with a position, in time and bitwise equal to the reference.
    pub good: u64,
    /// Answered with a position that differs from the reference.
    pub mismatched: u64,
    /// Refused with `Shed`.
    pub shed: u64,
    /// Refused with `DeadlineExceeded`.
    pub expired: u64,
    /// Any other error.
    pub errors: u64,
    /// Never answered.
    pub timeouts: u64,
    /// Answers that match no request sent (or a request answered twice).
    pub stray: u64,
}

impl Ledger {
    /// Requests that did not get a good answer.
    pub fn failed(&self) -> u64 {
        self.sent - self.good
    }

    /// Checks the ledger balances and every answer was right.
    pub fn verify(&self, what: &str, out: &mut Outcome) {
        let settled = self.ok + self.shed + self.expired + self.errors + self.timeouts;
        out.check(settled == self.sent, || {
            format!("{what}: ledger does not balance: {self:?} settles {settled} of {}", self.sent)
        });
        out.check(self.stray == 0, || format!("{what}: {} answers match no request", self.stray));
        out.check(self.mismatched == 0, || {
            format!("{what}: {} answers differ from StoneLocalizer::locate_batch", self.mismatched)
        });
    }

    /// Files one wire answer.
    fn file(&mut self, result: Result<(f64, f64), WireStatus>, reference: Point2, on_time: bool) {
        match result {
            Ok((x, y)) => {
                self.ok += 1;
                if !same_bits(reference, x, y) {
                    self.mismatched += 1;
                } else if on_time {
                    self.good += 1;
                }
            }
            Err(WireStatus::Shed) => self.shed += 1,
            Err(WireStatus::DeadlineExceeded) => self.expired += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// What one measured pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Request outcomes.
    pub ledger: Ledger,
    /// Every good answer (every 64-scan call, on replay).
    pub samples: Vec<Sample>,
    /// Measured span, seconds.
    pub span_s: f64,
    /// Error against ground truth.
    pub error: ErrorTally,
    /// How late each request left after it was due, ms: after its
    /// scheduled time in the open loop, after the previous answer in a
    /// closed loop.
    pub lag_ms: Vec<f64>,
    /// Wire frames the client sent.
    pub frames: u64,
}

// ------------------------------------------------------------ replay --

/// The replay order for `seed`: bucket by bucket, as deployed months pass,
/// with the scans inside each bucket shuffled.
pub fn replay_order(scans: &[Scan], seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_91A7);
    let mut order: Vec<usize> = (0..scans.len()).collect();
    order.sort_by_key(|&i| scans[i].bucket);
    for chunk in order.chunk_by_mut(|&a, &b| scans[a].bucket == scans[b].bucket) {
        chunk.shuffle(&mut rng);
    }
    order
}

/// Replays `raws` through `locate_batch` in 64-scan calls, wrapping around,
/// for `seconds`; every answer must equal `reference` bit for bit.
pub fn replay_pass(
    model: &StoneLocalizer,
    raws: &[&[f32]],
    reference: &[Point2],
    seconds: f64,
) -> Pass {
    let mut pass = Pass::default();
    let mut next = 0usize;
    let mut chunk: Vec<&[f32]> = Vec::with_capacity(BATCH);
    let mut idx: Vec<usize> = Vec::with_capacity(BATCH);
    let start = Instant::now();
    let mut answered: Option<Instant> = None;
    while start.elapsed().as_secs_f64() < seconds {
        chunk.clear();
        idx.clear();
        for k in 0..BATCH {
            let i = (next + k) % raws.len();
            chunk.push(raws[i]);
            idx.push(i);
        }
        next = (next + BATCH) % raws.len();
        let t = Instant::now();
        let answers = model.locate_batch(&chunk);
        let dt = t.elapsed();
        if let Some(prev) = answered.replace(t + dt) {
            pass.lag_ms.push(t.duration_since(prev).as_secs_f64() * 1e3);
        }
        pass.ledger.sent += BATCH as u64;
        pass.ledger.ok += answers.len() as u64;
        let wrong = answers.iter().zip(&idx).filter(|(a, &i)| !same_bits(reference[i], a.x, a.y));
        let wrong = wrong.count() as u64;
        pass.ledger.mismatched += wrong;
        pass.ledger.good += answers.len() as u64 - wrong;
        pass.samples.push(Sample {
            at_s: start.elapsed().as_secs_f64(),
            latency_ms: dt.as_secs_f64() * 1e3,
            units: answers.len() as u64 - wrong,
        });
    }
    pass.span_s = start.elapsed().as_secs_f64();
    pass
}

/// Checks a fixed sample of replay answers against scan-by-scan
/// `Localizer::locate`.
pub fn verify_scan_by_scan(
    model: &StoneLocalizer,
    raws: &[&[f32]],
    reference: &[Point2],
    out: &mut Outcome,
) {
    let sample: Vec<usize> = (0..raws.len()).step_by(23).collect();
    let wrong = sample
        .iter()
        .filter(|&&i| {
            let p = model.locate(raws[i]);
            !same_bits(reference[i], p.x, p.y)
        })
        .count();
    out.check(wrong == 0, || {
        format!("{wrong} of {} sampled replay answers differ from Localizer::locate", sample.len())
    });
}

// ------------------------------------------------------ closed loop --

/// Sends `count` requests closed-loop to each venue, checking every answer:
/// caches and lazy state fill before anything is timed. Returns the frames
/// sent.
pub fn warm_up(
    addr: SocketAddr,
    venues: &[String],
    pool: &[Scan],
    expected: &[Point2],
    count: usize,
    out: &mut Outcome,
) -> u64 {
    let mut client = NetClient::connect(addr).expect("connect to the benchmark server");
    client.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set a read timeout");
    let mut wrong = 0;
    for venue in venues {
        for k in 0..count {
            let i = (k * 97) % pool.len();
            match client.locate(venue, &pool[i].rssi) {
                Ok(p) if same_bits(expected[i], p.x, p.y) => {}
                _ => wrong += 1,
            }
        }
    }
    out.check(wrong == 0, || format!("{wrong} warm-up answers were missing or wrong"));
    (venues.len() * count) as u64
}

/// One connection, one request in flight, for `seconds`.
pub fn closed_pass(
    addr: SocketAddr,
    venue: &str,
    pool: &[Scan],
    expected: &[Point2],
    seed: u64,
    seconds: f64,
    last_bucket: usize,
) -> Pass {
    let mut client = NetClient::connect(addr).expect("connect to the benchmark server");
    client.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set a read timeout");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1_05ED);
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut answered: Option<Instant> = None;
    while start.elapsed().as_secs_f64() < seconds {
        let i = rng.gen_range(0..pool.len());
        let t = Instant::now();
        let result = client.locate(venue, &pool[i].rssi);
        let dt = t.elapsed();
        if let Some(prev) = answered.replace(t + dt) {
            pass.lag_ms.push(t.duration_since(prev).as_secs_f64() * 1e3);
        }
        pass.ledger.sent += 1;
        let on_time = dt <= LATENCY_LIMIT;
        let filed = match result {
            Ok(p) => Ok((p.x, p.y)),
            Err(ClientError::Status(s)) => Err(s),
            Err(ClientError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                pass.ledger.timeouts += 1;
                continue;
            }
            Err(_) => Err(WireStatus::Internal),
        };
        let good_before = pass.ledger.good;
        pass.ledger.file(filed, expected[i], on_time);
        if pass.ledger.good > good_before {
            let at_s = start.elapsed().as_secs_f64();
            pass.samples.push(Sample { at_s, latency_ms: dt.as_secs_f64() * 1e3, units: 1 });
            pass.error.add(&pool[i], expected[i], last_bucket);
        }
    }
    pass.span_s = start.elapsed().as_secs_f64();
    pass.frames = pass.ledger.sent;
    pass
}

// -------------------------------------------------------- open loop --

/// Everything an open-loop pass needs to know about the deployment.
pub struct OpenTarget<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Venue names, hot venue first.
    pub venues: &'a [String],
    /// Registry the hot venue is republished into.
    pub registry: &'a ModelRegistry,
    /// The serialized model every venue serves.
    pub blob: &'a [u8],
    /// Scan pool.
    pub pool: &'a [Scan],
    /// Reference answers of the pool.
    pub expected: &'a [Point2],
    /// The suite's last bucket.
    pub last_bucket: usize,
}

/// Reads response frames until the server closes the connection, stamping
/// each with its arrival time.
fn read_responses(mut stream: TcpStream) -> Vec<(Instant, ScanResponse)> {
    let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));
    let mut frames = FrameBuffer::new();
    let mut out = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return out,
            Ok(n) => n,
        };
        let now = Instant::now();
        frames.push_bytes(&buf[..n]);
        while let Ok(Some(payload)) = frames.next_payload() {
            match decode_response(&payload) {
                Ok(resp) => out.push((now, resp)),
                Err(_) => return out,
            }
        }
    }
}

/// Poisson arrivals at [`OPEN_RATE_HZ`] from one generator thread over
/// [`CONNECTIONS`] connections for `seconds`, while the hot venue is
/// republished once a second. Latency counts from each request's scheduled
/// send.
pub fn open_pass(target: &OpenTarget<'_>, seed: u64, seconds: f64) -> (Pass, Vec<f64>) {
    let shape = Shape {
        rate_hz: OPEN_RATE_HZ,
        span: Duration::from_secs_f64(seconds),
        venues: target.venues.len(),
        hot_share: HOT_SHARE,
        pool: target.pool.len(),
    };
    let schedule: Vec<Arrival> = poisson(seed, &shape);
    let deadline_us = LATENCY_LIMIT.as_micros() as u32;
    let mut writers: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(target.addr).expect("connect to the benchmark server");
            s.set_nodelay(true).expect("disable Nagle");
            s
        })
        .collect();
    let mut pass = Pass { lag_ms: Vec::with_capacity(schedule.len()), ..Pass::default() };
    let mut publish_ms = Vec::new();
    let (start, replies) = std::thread::scope(|s| {
        let readers: Vec<_> = writers
            .iter()
            .map(|w| {
                let r = w.try_clone().expect("clone the connection for reading");
                s.spawn(move || read_responses(r))
            })
            .collect();
        let (stop, ticks) = mpsc::channel::<()>();
        let republisher = s.spawn(move || {
            let mut times = Vec::new();
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                ticks.recv_timeout(Duration::from_secs(1))
            {
                let t = Instant::now();
                target
                    .registry
                    .publish_bytes(&target.venues[0], target.blob)
                    .expect("the trained model loads from its own bytes");
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            times
        });
        let start = Instant::now() + Duration::from_millis(5);
        for (i, a) in schedule.iter().enumerate() {
            let due = start + a.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let frame = encode_request(&ScanRequest {
                request_id: (i / CONNECTIONS + 1) as u64,
                venue: target.venues[a.venue].clone(),
                rssi: target.pool[a.scan].rssi.clone(),
                deadline_us,
                trace_id: if stone_obs::tracing_enabled() { stone_obs::mint_trace_id() } else { 0 },
            })
            .expect("benchmark requests fit the wire caps");
            let sent = Instant::now();
            if writers[i % CONNECTIONS].write_all(&frame).is_err() {
                break;
            }
            pass.frames += 1;
            pass.lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        drop(stop);
        for w in &writers {
            let _ = w.shutdown(Shutdown::Write);
        }
        publish_ms = republisher.join().expect("republisher thread");
        let replies: Vec<_> =
            readers.into_iter().map(|r| r.join().expect("reader thread")).collect();
        (start, replies)
    });
    writers.clear();

    // Arrivals `0..sent` left the generator; any after a broken connection
    // never did and count as errors.
    let sent = pass.frames as usize;
    pass.ledger.sent = schedule.len() as u64;
    pass.ledger.errors = (schedule.len() - sent) as u64;
    let mut answered = vec![false; sent];
    for (c, conn) in replies.iter().enumerate() {
        for (at, resp) in conn {
            // Request ids count from 1 per connection, in arrival order.
            let slot = usize::try_from(resp.request_id)
                .ok()
                .and_then(|id| id.checked_sub(1))
                .map(|k| k * CONNECTIONS + c)
                .filter(|&i| i < sent && !answered[i]);
            let Some(i) = slot else {
                pass.ledger.stray += 1;
                continue;
            };
            answered[i] = true;
            let a = schedule[i];
            let latency = at.saturating_duration_since(start + a.at);
            let good_before = pass.ledger.good;
            let result = resp.result.map(|p: WirePosition| (p.x, p.y));
            pass.ledger.file(result, target.expected[a.scan], latency <= LATENCY_LIMIT);
            if pass.ledger.good > good_before {
                let latency_ms = latency.as_secs_f64() * 1e3;
                pass.samples.push(Sample { at_s: a.at.as_secs_f64(), latency_ms, units: 1 });
                pass.error.add(&target.pool[a.scan], target.expected[a.scan], target.last_bucket);
            }
        }
    }
    pass.ledger.timeouts = answered.iter().filter(|a| !**a).count() as u64;
    pass.span_s = seconds;
    (pass, publish_ms)
}
