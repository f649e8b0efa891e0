//! The deployment every workload serves, and the scans it is sent.
//!
//! One UJI-trained STONE model, built from fixed seeds so that every run
//! serves the same model: the workload seed only shapes the traffic. The
//! training schedule is short because serving cost depends on the
//! encoder's architecture and the enrolled reference set, not on how long
//! it trained; set-up is timed and repeated in every run, so it is kept
//! small.

use std::sync::Arc;
use std::time::Instant;

use stone::{StoneBuilder, StoneConfig, StoneLocalizer, TrainerConfig};
use stone_dataset::{uji_suite, LongTermSuite, SuiteConfig, MISSING_RSSI_DBM};
use stone_net::NetServer;
use stone_radio::{DeviceModel, Point2};
use stone_serve::{ModelRegistry, ServerConfig};

use crate::stats::median;

/// Seed of the UJI suite the model is trained and evaluated on.
pub const SUITE_SEED: u64 = 7;
/// Seed of `StoneBuilder::fit`.
pub const FIT_SEED: u64 = 7;

/// The trainer schedule of the deployment.
pub fn stone_config() -> StoneConfig {
    StoneConfig {
        trainer: TrainerConfig {
            epochs: 2,
            triplets_per_epoch: 64,
            batch_size: 32,
            ..TrainerConfig::quick()
        },
        ..StoneConfig::quick()
    }
}

/// Venue names of a served deployment.
pub fn venue_names(n: usize) -> Vec<String> {
    (0..n).map(|v| format!("venue-{v:02}")).collect()
}

/// A trained model and the suite it came from.
pub struct Trained {
    /// The UJI long-term suite (training set and 15 monthly buckets).
    pub suite: LongTermSuite,
    /// The trained model.
    pub model: StoneLocalizer,
    /// Its serialized form, which every venue loads.
    pub blob: Vec<u8>,
    /// Suite generation time, seconds.
    pub suite_gen_s: f64,
    /// `StoneBuilder::fit` time, seconds.
    pub fit_s: f64,
}

/// Generates the suite and trains the model, timing both.
pub fn train() -> Trained {
    let t = Instant::now();
    let suite = uji_suite(&SuiteConfig::new(SUITE_SEED));
    let suite_gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = StoneBuilder::from_config(stone_config()).fit(&suite.train, FIT_SEED);
    let fit_s = t.elapsed().as_secs_f64();
    let blob = model.save();
    Trained { suite, model, blob, suite_gen_s, fit_s }
}

/// A running TCP front end over a registry of venues.
pub struct Served {
    /// The registry every venue was published to.
    pub registry: Arc<ModelRegistry>,
    /// The server.
    pub server: NetServer,
    /// Venue names, hot venue first.
    pub venues: Vec<String>,
    /// Per-venue `publish_bytes` times, milliseconds.
    pub publish_ms: Vec<f64>,
}

/// Publishes `blob` to `venues` separately loaded models and starts a
/// default-configured server on an ephemeral loopback port.
pub fn serve(blob: &[u8], venues: usize) -> Served {
    let registry = Arc::new(ModelRegistry::new());
    let venues = venue_names(venues);
    let publish_ms = venues
        .iter()
        .map(|v| {
            let t = Instant::now();
            registry.publish_bytes(v, blob).expect("the trained model loads from its own bytes");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let server = NetServer::start(Arc::clone(&registry), "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral loopback port");
    Served { registry, server, venues, publish_ms }
}

/// What set-up produced, and how long each attempt took.
pub struct Setup {
    /// The last attempt's model and suite.
    pub trained: Trained,
    /// The last attempt's server (`None` for in-process workloads).
    pub served: Option<Served>,
    /// Total set-up time of each attempt, seconds.
    pub totals_s: Vec<f64>,
    /// Whether every attempt produced a byte-identical model.
    pub deterministic: bool,
}

impl Setup {
    /// Median set-up time over the attempts.
    pub fn median_s(&self) -> f64 {
        median(&self.totals_s)
    }
}

/// Sets the deployment up `repeats` times — suite generation, fit, and
/// for served workloads publishing to every venue plus server start —
/// keeping the last attempt running.
pub fn setup(repeats: usize, venues: Option<usize>) -> Setup {
    let mut totals_s = Vec::with_capacity(repeats);
    let mut deterministic = true;
    let mut last: Option<(Trained, Option<Served>)> = None;
    for _ in 0..repeats.max(1) {
        if let Some((_, Some(mut old))) = last.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        let trained = train();
        let served = venues.map(|n| serve(&trained.blob, n));
        totals_s.push(t.elapsed().as_secs_f64());
        if let Some((prev, _)) = &last {
            deterministic &= prev.blob == trained.blob;
        }
        last = Some((trained, served));
    }
    let (trained, served) = last.expect("at least one attempt");
    Setup { trained, served, totals_s, deterministic }
}

/// One scan sent to the system, with what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Raw RSSI vector, dBm.
    pub rssi: Vec<f32>,
    /// Ground-truth position.
    pub truth: Point2,
    /// Monthly bucket it was collected in.
    pub bucket: usize,
}

/// Every evaluation scan of the suite, bucket by bucket.
pub fn eval_scans(suite: &LongTermSuite) -> Vec<Scan> {
    suite
        .buckets
        .iter()
        .enumerate()
        .flat_map(|(b, bucket)| {
            bucket.fingerprints().into_iter().map(move |f| Scan {
                rssi: f.rssi.clone(),
                truth: f.pos,
                bucket: b,
            })
        })
        .collect()
}

/// The device-heterogeneity mix of the fleet: ideal captures blended with
/// offset, thresholded and quantized chipsets.
pub fn device_mix() -> [DeviceModel; 4] {
    [
        DeviceModel::lg_v20(),
        DeviceModel::ideal(),
        DeviceModel { offset_db: -6.0, ..DeviceModel::lg_v20() },
        DeviceModel { offset_db: 3.0, ..DeviceModel::lg_v20() },
    ]
}

/// Re-measures a scan through a device: visible APs pass through
/// `observe`, missing APs stay missing.
fn through_device(rssi: &[f32], dev: &DeviceModel) -> Vec<f32> {
    rssi.iter()
        .map(|&v| {
            if v > MISSING_RSSI_DBM {
                dev.observe(f64::from(v)).map_or(MISSING_RSSI_DBM, |o| o as f32)
            } else {
                v
            }
        })
        .collect()
}

/// The served workloads' scan pool: every evaluation scan as seen by each
/// device of the mix.
pub fn device_pool(suite: &LongTermSuite) -> Vec<Scan> {
    let scans = eval_scans(suite);
    device_mix()
        .iter()
        .flat_map(|dev| {
            scans.iter().map(move |s| Scan { rssi: through_device(&s.rssi, dev), ..s.clone() })
        })
        .collect()
}

/// The answer `StoneLocalizer::locate_batch` gives for every pool scan:
/// the reference every served answer must equal bit for bit.
pub fn expected(model: &StoneLocalizer, pool: &[Scan]) -> Vec<Point2> {
    let raws: Vec<&[f32]> = pool.iter().map(|s| s.rssi.as_slice()).collect();
    model.locate_batch(&raws)
}

/// Whether two positions are bitwise equal.
pub fn same_bits(a: Point2, x: f64, y: f64) -> bool {
    a.x.to_bits() == x.to_bits() && a.y.to_bits() == y.to_bits()
}

/// Localization error against ground truth, overall and in the last
/// bucket.
#[derive(Debug, Default, Clone, Copy)]
pub struct ErrorTally {
    sum: f64,
    n: u64,
    last_sum: f64,
    last_n: u64,
}

impl ErrorTally {
    /// Adds one answer for `scan`; `last_bucket` is the suite's final one.
    pub fn add(&mut self, scan: &Scan, answer: Point2, last_bucket: usize) {
        let e = answer.distance(scan.truth);
        self.sum += e;
        self.n += 1;
        if scan.bucket == last_bucket {
            self.last_sum += e;
            self.last_n += 1;
        }
    }

    /// Mean error over every answer, meters (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }

    /// Mean error over the last bucket's answers, meters (NaN when empty).
    pub fn final_mean(&self) -> f64 {
        self.last_sum / self.last_n as f64
    }
}
