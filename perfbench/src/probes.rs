//! Outside-in per-layer probes of the traced run: each times calls into
//! one layer's public functions from the benchmark's own code.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stone::StoneLocalizer;
use stone_dataset::Localizer;
use stone_net::{NetClient, NetServer, NetStatsSnapshot};
use stone_nn::{Mode, Sequential};
use stone_radio::Point2;
use stone_serve::{LocalizationServer, ModelRegistry, ServerConfig, StatsSnapshot};
use stone_tensor::Tensor;

use crate::deploy::{same_bits, Scan};
use crate::report::{is_kernel_layer, layer_key, Outcome, ENCODER_LAYERS};
use crate::spans::Breakdown;
use crate::stats::median;

/// Scans per batched probe call, the batch `StoneLocalizer::locate_batch`
/// runs its encoder at.
pub const BATCH: usize = 64;

/// Median wall time of `reps` calls of `f(i)`, µs.
fn median_us<R>(reps: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            black_box(f(i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Per-layer medians of an encoder forward pass, one `Layer::forward` at a
/// time, plus each layer's input and output tensors of the last pass.
struct LayerRun {
    us: Vec<f64>,
    shapes: Vec<(usize, Vec<usize>)>,
    output: Tensor,
}

fn layer_run(net: &Sequential, x: &Tensor, reps: usize) -> LayerRun {
    let layers = net.layers();
    let mut samples = vec![Vec::with_capacity(reps); layers.len()];
    let mut shapes = Vec::new();
    let mut output = x.clone();
    let mut rng = StdRng::seed_from_u64(0);
    for rep in 0..reps {
        let mut cur = x.clone();
        for (i, layer) in layers.iter().enumerate() {
            let t = Instant::now();
            let (y, _) = layer.forward(black_box(&cur), Mode::Infer, &mut rng);
            samples[i].push(t.elapsed().as_secs_f64() * 1e6);
            if rep == 0 {
                shapes.push((cur.len(), y.shape().to_vec()));
            }
            cur = y;
        }
        output = cur;
    }
    LayerRun { us: samples.iter().map(|s| median(s)).collect(), shapes, output }
}

/// The core-layer timings the accounting checks reuse.
pub struct CoreTimes {
    /// `StoneLocalizer::embed`, batch 1, µs.
    pub embed_b1_us: f64,
    /// `EmbeddingKnn::locate`, batch 1, µs.
    pub knn_b1_us: f64,
}

/// Times preprocessing, embedding, KNN, every encoder layer, the kernel
/// layers against the matmul peak, and an empty parallel region.
pub fn core(model: &StoneLocalizer, scans: &[Scan], out: &mut Outcome) -> CoreTimes {
    let raws: Vec<&[f32]> = scans.iter().take(BATCH).map(|s| s.rssi.as_slice()).collect();
    assert_eq!(raws.len(), BATCH, "the probe needs a full batch of scans");
    let codec = model.encoder().codec();
    let knn = model.knn();
    let net = model.encoder().net();
    let b1 = |i: usize| raws[i % BATCH];
    // Warm caches and the worker pool before anything is timed.
    black_box(model.locate_batch(&raws));

    let pre_b1 = median_us(400, |i| codec.encode_batch(&[b1(i)]));
    let pre_b64 = median_us(60, |_| codec.encode_batch(&raws));
    let embed_b1 = median_us(400, |i| model.embed(b1(i)));
    let embed_b64 = median_us(40, |_| model.embed_batch(&raws)) / BATCH as f64;
    let embs: Vec<Vec<f32>> = raws.iter().map(|r| model.embed(r)).collect();
    let knn_b1 = median_us(400, |i| knn.locate(&embs[i % BATCH]));
    let knn_b64 = median_us(100, |_| knn.locate_batch(&embs)) / BATCH as f64;
    let embed_t1 = stone_par::with_threads(1, || median_us(400, |i| model.embed(b1(i))));
    let region = median_us(2000, |_| stone_par::par_join(|| (), || ()));
    out.metric("core.preprocess_us.b1", pre_b1, "us");
    out.metric("core.preprocess_us.b64", pre_b64, "us");
    out.metric("core.embed_us.b1", embed_b1, "us");
    out.metric("core.embed_us_per_scan.b64", embed_b64, "us");
    out.metric("core.knn_us.b1", knn_b1, "us");
    out.metric("core.knn_us_per_scan.b64", knn_b64, "us");
    out.metric("core.embed_us.b1.threads1", embed_t1, "us");
    out.metric("par.region_us", region, "us");
    println!(
        "core: preprocess {pre_b1:.1} us (b1) {pre_b64:.1} us (b64); embed {embed_b1:.1} us (b1, \
         {embed_t1:.1} us at 1 thread) {embed_b64:.2} us/scan (b64); knn {knn_b1:.2} us (b1) \
         {knn_b64:.2} us/scan (b64) over {} refs; knn share of b64 locate {:.1}%; empty \
         par_join {region:.2} us",
        knn.len(),
        100.0 * knn_b64 / (embed_b64 + knn_b64),
    );

    let names: Vec<&str> = net.layers().iter().map(|l| l.name()).collect();
    out.check(names == ENCODER_LAYERS, || format!("encoder layers {names:?} left the catalogue"));
    let x1 = codec.encode_batch(&raws[..1]);
    let x64 = codec.encode_batch(&raws);
    let run1 = layer_run(net, &x1, 300);
    let run64 = layer_run(net, &x64, 30);
    for (run, x, b) in [(&run1, &x1, "b1"), (&run64, &x64, "b64")] {
        let reference = net.predict(x);
        out.check(run.output.as_slice() == reference.as_slice(), || {
            format!("layer-by-layer {b} forward differs from Sequential::predict")
        });
        for (i, us) in run.us.iter().enumerate() {
            out.metric(format!("nn.{}_us.{b}", layer_key(i, names[i])), *us, "us");
        }
    }
    // Probe sanity: the layers account for the embed call minus its
    // preprocessing, at both batch sizes.
    for (run, whole, b) in
        [(&run1, embed_b1 - pre_b1, "b1"), (&run64, embed_b64 * BATCH as f64 - pre_b64, "b64")]
    {
        let sum: f64 = run.us.iter().sum();
        println!("nn {b}: layers sum to {sum:.1} us against {whole:.1} us of embed forward");
        out.check((0.67..=1.5).contains(&(sum / whole)), || {
            format!("nn {b} layers sum to {sum:.1} us, embed forward is {whole:.1} us")
        });
    }

    let a = Tensor::from_fn(vec![256, 256], |i| ((i * 7919) % 1000) as f32 / 1000.0 - 0.5);
    let peak = 2.0 * 256f64.powi(3) / (median_us(20, |_| stone_tensor::matmul(&a, &a)) * 1e3);
    out.metric("tensor.matmul_peak_gflops", peak, "GFLOP/s");
    for (i, layer) in net.layers().iter().enumerate().filter(|(_, l)| is_kernel_layer(l.name())) {
        let (in_len, out_shape) = &run64.shapes[i];
        let out_len: usize = out_shape.iter().product();
        let params = layer.params();
        let weights = params[0].len();
        let macs = (out_len * weights / out_shape[1]) as f64;
        let bytes = 4.0 * (in_len + params.iter().map(|p| p.len()).sum::<usize>() + out_len) as f64;
        let us = run64.us[i];
        let gflops = 2.0 * macs / (us * 1e3);
        let key = layer_key(i, names[i]);
        out.metric(format!("tensor.{key}_gflops.b64"), gflops, "GFLOP/s");
        out.metric(format!("tensor.{key}_gbps.b64"), bytes / (us * 1e3), "GB/s");
        println!(
            "tensor {key} b64: {macs:.3e} MACs, {bytes:.3e} B compulsory traffic (computed from \
             tensor shapes), {gflops:.2} GFLOP/s = {:.0}% of the {peak:.2} GFLOP/s 256^3 matmul",
            100.0 * gflops / peak,
        );
    }
    CoreTimes { embed_b1_us: embed_b1, knn_b1_us: knn_b1 }
}

/// What the serve/net probe measured.
pub struct ServeProbe {
    /// Batch-1 `Localizer::locate` p50, µs.
    pub direct_us: f64,
    /// `ServerHandle::locate` p50, µs.
    pub serve_us: f64,
    /// `NetClient::locate` p50, µs.
    pub net_us: f64,
    /// `publish_bytes` of the probe venue, ms.
    pub publish_ms: f64,
    /// Stage spans of the traced in-process block.
    pub traced: Breakdown,
    /// `ServerHandle::locate` p50 of the traced block, µs.
    pub traced_serve_us: f64,
    /// The in-process server's counters after the traced block.
    pub serve_stats: StatsSnapshot,
    /// The probe wire's settled counters.
    pub net_stats: NetStatsSnapshot,
}

/// Interleaves batch-1 calls to `Localizer::locate`, `ServerHandle::locate`
/// and `NetClient::locate` on one venue, so the three medians share the
/// host's conditions; then runs a traced block of `ServerHandle::locate`.
pub fn serve_and_net(
    blob: &[u8],
    pool: &[Scan],
    expected: &[Point2],
    seed: u64,
    out: &mut Outcome,
) -> ServeProbe {
    const VENUE: &str = "probe";
    const ROUNDS: usize = 1500;
    const WARM: usize = 100;
    const TRACED: usize = 1200;
    let registry = Arc::new(ModelRegistry::new());
    let t = Instant::now();
    registry.publish_bytes(VENUE, blob).expect("the trained model loads from its own bytes");
    let publish_ms = t.elapsed().as_secs_f64() * 1e3;
    let entry = registry.snapshot(VENUE).expect("just published");
    let model = entry.model();
    let mut inproc = LocalizationServer::start(Arc::clone(&registry), ServerConfig::default());
    let handle = inproc.handle();
    let mut wire = NetServer::start(Arc::clone(&registry), "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral loopback port");
    let mut client = NetClient::connect(wire.local_addr()).expect("connect to the probe server");
    client.set_read_timeout(Some(Duration::from_secs(5))).expect("set a read timeout");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9_0B_E5);
    let (mut direct, mut served, mut netted) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0usize;
    for round in 0..WARM + ROUNDS {
        let i = rng.gen_range(0..pool.len());
        let scan = pool[i].rssi.as_slice();
        let t = Instant::now();
        let d = model.locate(scan);
        let t_direct = t.elapsed();
        let t = Instant::now();
        let s = handle.locate(VENUE, scan).expect("the probe server answers");
        let t_serve = t.elapsed();
        let t = Instant::now();
        let n = client.locate(VENUE, scan).expect("the probe wire answers");
        let t_net = t.elapsed();
        let e = expected[i];
        if !(same_bits(e, d.x, d.y)
            && same_bits(e, s.position.x, s.position.y)
            && same_bits(e, n.x, n.y))
        {
            mismatches += 1;
        }
        if round >= WARM {
            direct.push(t_direct.as_secs_f64() * 1e6);
            served.push(t_serve.as_secs_f64() * 1e6);
            netted.push(t_net.as_secs_f64() * 1e6);
        }
    }
    out.check(mismatches == 0, || {
        format!("{mismatches} probe answers differ from StoneLocalizer::locate_batch")
    });

    stone_obs::set_tracing(true);
    let low = stone_obs::mint_trace_id();
    let mut traced = Vec::with_capacity(TRACED);
    for _ in 0..TRACED {
        let scan = pool[rng.gen_range(0..pool.len())].rssi.as_slice();
        let t = Instant::now();
        handle.locate(VENUE, scan).expect("the probe server answers");
        traced.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let high = stone_obs::mint_trace_id();
    stone_obs::set_tracing(false);

    let serve_stats = inproc.stats();
    inproc.shutdown();
    drop(client);
    let net_stats = wire.shutdown();
    out.check(net_stats.requests_decoded == (WARM + ROUNDS) as u64, || {
        format!(
            "probe wire decoded {} frames, the client sent {}",
            net_stats.requests_decoded,
            WARM + ROUNDS
        )
    });
    let probe = ServeProbe {
        direct_us: median(&direct),
        serve_us: median(&served),
        net_us: median(&netted),
        publish_ms,
        traced: Breakdown::collect(low, high),
        traced_serve_us: median(&traced),
        serve_stats,
        net_stats,
    };
    out.metric("serve.overhead_us", probe.serve_us - probe.direct_us, "us");
    out.metric("net.overhead_us", probe.net_us - probe.serve_us, "us");
    println!(
        "batch-1 p50: direct locate {:.1} us, ServerHandle::locate {:.1} us, NetClient::locate \
         {:.1} us ({} interleaved rounds)",
        probe.direct_us, probe.serve_us, probe.net_us, ROUNDS
    );
    probe
}
