//! The serving benchmark of the STONE reproduction.
//!
//! One command trains the deployment, drives one named workload against the
//! public APIs of `stone`, `stone-serve` and `stone-net`, checks every
//! answer, and prints each metric by name and unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-uji|tcp-closed-1|tcp-open-16v|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! is the separate traced run: it times each layer's public functions from
//! this benchmark's own code and reads the server's stage spans, giving the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; any broken
//! correctness or ledger check makes `correct` false and the exit code 1.
//! See `perfbench/README.md` for the workloads and how the metrics interact.

mod deploy;
mod load;
mod probes;
mod report;
mod schedule;
mod spans;
mod stats;

use std::process::ExitCode;

use stone_net::NetStatsSnapshot;
use stone_obs::Stage;
use stone_serve::StatsSnapshot;

use crate::deploy::{device_pool, eval_scans, expected, Scan, Setup};
use crate::load::{
    closed_pass, open_pass, replay_order, replay_pass, verify_scan_by_scan, warm_up, OpenTarget,
    Pass, LAG_BOUND_MS, LATENCY_LIMIT, OPEN_RATE_HZ,
};
use crate::probes::{CoreTimes, ServeProbe};
use crate::report::{fingerprint, per_layer, Outcome, END_TO_END, STAGES};
use crate::spans::Breakdown;
use crate::stats::{median, windowed, Summary, Windowed};

/// The workloads, the ones `BENCHMARK.json` gates first and in its order.
pub const WORKLOADS: [&str; 3] = ["replay-uji", "tcp-closed-1", "tcp-open-16v"];

/// How many of [`WORKLOADS`] `BENCHMARK.json` gates. `tcp-open-16v` stays
/// runnable but ungated: on a 2-vCPU host with hypervisor steal its p50
/// spread across seeds exceeds any bound an end-to-end metric may have (see
/// `README.md`).
pub const GATED_WORKLOADS: usize = 2;

/// Set-up attempts per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Venues of `tcp-open-16v`.
const OPEN_VENUES: usize = 16;

/// Equal time windows a measured pass is cut into; its latency and
/// throughput figures are medians over them.
const WINDOWS: usize = 8;

/// Closed-loop warm-up requests per venue before anything is timed.
const WARM_REQUESTS: usize = 32;

const USAGE: &str = "usage: stone-perfbench --workload <replay-uji|tcp-closed-1|tcp-open-16v|all> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut combined = Outcome::default();
    for name in &names {
        println!("{}", fingerprint(name, args.seed, args.seconds, args.trace));
        let before = report::cpu_ticks();
        let outcome = run(name, args.seed, args.seconds as f64, args.trace);
        // Hypervisor steal slows every figure on a shared host; printing it
        // lets runs be compared knowing what the host did to them.
        if let (Some((s0, t0)), Some((s1, t1))) = (before, report::cpu_ticks()) {
            let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
            println!("host: hypervisor steal was {share:.1}% of CPU time during the run");
        }
        for failure in &outcome.failures {
            println!("FAILED {name}: {failure}");
        }
        println!("{}", outcome.json_line());
        combined.attempted += outcome.attempted;
        combined.failed += outcome.failed;
        combined.failures.extend(outcome.failures.iter().map(|f| format!("{name}: {f}")));
        for m in outcome.metrics {
            combined.metric(format!("{name}.{}", m.name), m.value, m.unit);
        }
    }
    if names.len() > 1 {
        println!("{}", combined.json_line());
    }
    if combined.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Sets the deployment up, runs one workload, and returns its checked
/// outcome holding exactly the end-to-end (untraced) or per-layer (traced)
/// catalogue.
fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let venues = match workload {
        "replay-uji" => None,
        "tcp-closed-1" => Some(1),
        _ => Some(OPEN_VENUES),
    };
    let mut setup = deploy::setup(if trace { 1 } else { SETUP_REPEATS }, venues);
    out.check(setup.deterministic, || "set-up attempts trained different models".into());
    println!(
        "set-up: {:?} s per attempt (suite {:.3} s, fit {:.3} s); model {} B, {} refs",
        setup.totals_s,
        setup.trained.suite_gen_s,
        setup.trained.fit_s,
        setup.trained.blob.len(),
        setup.trained.model.knn().len(),
    );
    if trace {
        out.metric("dataset.suite_gen_s", setup.trained.suite_gen_s, "s");
        out.metric("core.fit_s", setup.trained.fit_s, "s");
    }
    let wire = match workload {
        "replay-uji" => {
            replay(&setup, seed, seconds, trace, &mut out);
            None
        }
        _ => Some(served(workload, &setup, seed, seconds, trace, &mut out)),
    };
    if let (Some(wire), Some(served)) = (wire, setup.served.as_mut()) {
        let ledger = served.server.shutdown();
        out.check(ledger.requests_decoded == wire, || {
            format!(
                "the server decoded {} frames, the clients sent {wire}",
                ledger.requests_decoded
            )
        });
        if trace {
            out.metric("net.frames_decoded", ledger.requests_decoded as f64, "count");
            out.metric("net.malformed", ledger.malformed_frames as f64, "count");
        }
    }
    if trace {
        let (opened, closed) = stone_obs::span_ledger();
        out.check(opened == closed, || format!("span ledger: {opened} opened, {closed} closed"));
        out.conform(&per_layer());
    } else {
        out.metric("setup_s", setup.median_s(), "s");
        match report::peak_rss_mb() {
            Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
            None => out.check(false, || "VmHWM is unreadable".into()),
        }
        let catalogue: Vec<(String, &str)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        out.conform(&catalogue);
    }
    out
}

/// Records a pass's attempts and failures, checks its ledger, and
/// summarises it over [`WINDOWS`] equal time windows.
fn account(out: &mut Outcome, what: &str, pass: &Pass) -> Option<Windowed> {
    pass.ledger.verify(what, out);
    out.attempted += pass.ledger.sent;
    out.failed += pass.ledger.failed();
    let w = windowed(&pass.samples, pass.span_s, WINDOWS);
    out.check(w.is_some(), || format!("{what}: a window has fewer than 10 answers"));
    let l = pass.ledger;
    let all: Vec<f64> = pass.samples.iter().map(|s| s.latency_ms).collect();
    println!(
        "{what}: sent {} ok {} good {} shed {} expired {} errors {} timeouts {} in {:.3} s{}{}",
        l.sent,
        l.ok,
        l.good,
        l.shed,
        l.expired,
        l.errors,
        l.timeouts,
        pass.span_s,
        Summary::of(&all).map_or(String::new(), |s| format!(
            "; whole pass: p50 {:.4} ms, {} {:.4} ms over n = {}",
            s.p50,
            s.tail_label(),
            s.tail,
            s.n
        )),
        w.map_or(String::new(), |w| format!(
            "; median of {WINDOWS} windows: {:.1}/s, p50 {:.4} ms, n >= {} per window",
            w.throughput, w.p50, w.min_n
        )),
    );
    w
}

/// The end-to-end metrics of the measured pass (`setup_s` and
/// `peak_rss_mb` are added by [`run`]).
fn end_to_end(out: &mut Outcome, pass: &Pass) {
    let Some(w) = account(out, "measured pass", pass) else { return };
    out.metric("latency_p50_ms", w.p50, "ms");
    out.metric("ok_ratio", pass.ledger.good as f64 / pass.ledger.sent as f64, "ratio");
    out.metric("loc_error_m_mean", pass.error.mean(), "m");
    out.metric("loc_error_m_final", pass.error.final_mean(), "m");
    println!(
        "accuracy: mean error {:.4} m, last bucket {:.4} m",
        pass.error.mean(),
        pass.error.final_mean()
    );
}

/// The traced run's comparison of an untraced and a traced pass of the
/// same workload: tracing overhead as the change of p50 latency. Returns
/// both passes' p50s, ms.
fn tracing_overhead(out: &mut Outcome, untraced: &Pass, traced: &Pass) -> Option<(f64, f64)> {
    let u = account(out, "untraced pass", untraced)?;
    let t = account(out, "traced pass", traced)?;
    out.metric("loadgen.throughput_per_s", u.throughput, "1/s");
    let all: Vec<f64> = untraced.samples.iter().map(|s| s.latency_ms).collect();
    if let Some(tail) = Summary::of(&all) {
        out.metric("loadgen.latency_tail_ms", tail.tail, "ms");
    }
    out.metric("obs.tracing_overhead_pct", 100.0 * (t.p50 / u.p50 - 1.0), "%");
    Some((u.p50, t.p50))
}

/// Stage-span metrics, checked against the client-observed p50 the way the
/// loadgen checks them: each within twice the other plus 200 µs. Spans are
/// recorded in whole microseconds, so the metrics are means, which keep
/// their resolution on the 0–2 µs stages where order statistics would read
/// the same integer on every run.
fn stage_metrics(out: &mut Outcome, b: &Breakdown, client_p50_us: f64, source: &str) {
    for (stage, name) in Stage::ALL.into_iter().zip(STAGES) {
        let Some((mean, tail)) = b.stage_means(stage) else {
            out.check(false, || format!("{source}: too few complete traces for stage {name}"));
            continue;
        };
        out.metric(format!("serve.stage.{name}_us.mean"), mean, "us");
        out.metric(format!("serve.stage.{name}_us.tail_mean"), tail, "us");
    }
    if b.e2e.is_empty() {
        return;
    }
    let span_p50 = median(&b.e2e);
    println!(
        "stage spans ({source}, {} complete traces): p50 {} sum to {span_p50:.0} us against a \
         client-observed p50 of {client_p50_us:.0} us",
        b.e2e.len(),
        Stage::ALL
            .iter()
            .map(|s| format!("{} {:.0}", s.name(), b.stage(*s).map_or(f64::NAN, |x| x.p50)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.check(
        span_p50 <= 2.0 * client_p50_us + 200.0 && client_p50_us <= 2.0 * span_p50 + 200.0,
        || format!("{source}: stage-sum p50 {span_p50} us disagrees with client p50 {client_p50_us} us"),
    );
}

/// Batch and shed metrics of a server's counters.
fn serve_metrics(out: &mut Outcome, stats: &StatsSnapshot) {
    out.metric("serve.mean_batch", stats.mean_batch_size(), "count");
    let offered = (stats.enqueued + stats.rejected).max(1);
    out.metric("serve.shed_ratio", stats.rejected as f64 / offered as f64, "ratio");
}

/// The probes every traced run makes on the deployed model.
fn layer_probes(
    out: &mut Outcome,
    setup: &Setup,
    pool: &[Scan],
    expected: &[stone_radio::Point2],
    seed: u64,
) -> (CoreTimes, ServeProbe) {
    let core = probes::core(&setup.trained.model, pool, out);
    let probe = probes::serve_and_net(&setup.trained.blob, pool, expected, seed, out);
    let publish_ms = setup.served.as_ref().map_or(probe.publish_ms, |s| median(&s.publish_ms));
    out.metric("serve.publish_ms", publish_ms, "ms");
    (core, probe)
}

/// `replay-uji`: the UJI suite's 15 monthly buckets through
/// `StoneLocalizer::locate_batch`, 64 scans a call, one closed-loop thread.
fn replay(setup: &Setup, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let model = &setup.trained.model;
    let scans = eval_scans(&setup.trained.suite);
    let last_bucket = setup.trained.suite.buckets.len() - 1;
    let ordered: Vec<Scan> =
        replay_order(&scans, seed).into_iter().map(|i| scans[i].clone()).collect();
    let raws: Vec<&[f32]> = ordered.iter().map(|s| s.rssi.as_slice()).collect();
    // The untimed warm-up pass is also the reference every timed answer
    // must equal, and gives the (deterministic) accuracy.
    let reference = model.locate_batch(&raws);
    if trace {
        let (_, probe) = layer_probes(out, setup, &ordered, &reference, seed);
        let untraced = replay_pass(model, &raws, &reference, seconds / 2.0);
        stone_obs::set_tracing(true);
        let traced = replay_pass(model, &raws, &reference, seconds / 2.0);
        stone_obs::set_tracing(false);
        tracing_overhead(out, &untraced, &traced);
        // No server on this path: stage and wire figures come from the
        // serve/net probe's batch-1 traffic.
        stage_metrics(out, &probe.traced, probe.traced_serve_us, "batch-1 serve probe");
        serve_metrics(out, &probe.serve_stats);
        wire_metrics(out, &probe.net_stats);
        out.metric("loadgen.lag_ms.p99", lag_p99(&untraced), "ms");
    } else {
        let mut pass = replay_pass(model, &raws, &reference, seconds);
        for (scan, &p) in ordered.iter().zip(&reference) {
            pass.error.add(scan, p, last_bucket);
        }
        end_to_end(out, &pass);
    }
    verify_scan_by_scan(model, &raws, &reference, out);
}

fn wire_metrics(out: &mut Outcome, net: &NetStatsSnapshot) {
    out.metric("net.frames_decoded", net.requests_decoded as f64, "count");
    out.metric("net.malformed", net.malformed_frames as f64, "count");
}

/// `tcp-closed-1` and `tcp-open-16v`. Returns the wire frames sent, for
/// the server-side ledger check.
fn served(
    workload: &str,
    setup: &Setup,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> u64 {
    let served = setup.served.as_ref().expect("served workloads start a server");
    let model = &setup.trained.model;
    let pool = device_pool(&setup.trained.suite);
    let expected = expected(model, &pool);
    let last_bucket = setup.trained.suite.buckets.len() - 1;
    let addr = served.server.local_addr();
    let open = workload == "tcp-open-16v";
    let target = OpenTarget {
        addr,
        venues: &served.venues,
        registry: &served.registry,
        blob: &setup.trained.blob,
        pool: &pool,
        expected: &expected,
        last_bucket,
    };
    let pass = |secs: f64| {
        if open {
            let (pass, publishes) = open_pass(&target, seed, secs);
            println!(
                "open loop at {OPEN_RATE_HZ} req/s, limit {LATENCY_LIMIT:?}: hot venue \
                 republished {} times ({:.2} ms median publish)",
                publishes.len(),
                if publishes.is_empty() { f64::NAN } else { median(&publishes) },
            );
            pass
        } else {
            closed_pass(addr, &served.venues[0], &pool, &expected, seed, secs, last_bucket)
        }
    };
    let mut frames = warm_up(addr, &served.venues, &pool, &expected, WARM_REQUESTS, out);
    if !trace {
        let measured = pass(seconds);
        if open {
            report_lag(out, &measured);
        }
        end_to_end(out, &measured);
        return frames + measured.frames;
    }
    let (core, probe) = layer_probes(out, setup, &pool, &expected, seed);
    let untraced = pass(seconds / 2.0);
    stone_obs::set_tracing(true);
    let low = stone_obs::mint_trace_id();
    let traced = pass(seconds / 2.0);
    let high = stone_obs::mint_trace_id();
    stone_obs::set_tracing(false);
    frames += untraced.frames + traced.frames;
    if open {
        report_lag(out, &untraced);
        report_lag(out, &traced);
    }
    out.metric("loadgen.lag_ms.p99", lag_p99(&untraced), "ms");
    let Some((untraced_p50_ms, traced_p50_ms)) = tracing_overhead(out, &untraced, &traced) else {
        return frames;
    };
    stage_metrics(out, &Breakdown::collect(low, high), traced_p50_ms * 1e3, "traced pass");
    serve_metrics(out, &served.server.serve_stats());
    if !open {
        // Accounting: a batch-1 request is the direct locate plus the serve
        // and net overheads, so the probes should account for the
        // untraced pass's p50.
        let measured_us = untraced_p50_ms * 1e3;
        let serve = probe.serve_us - probe.direct_us;
        let net = probe.net_us - probe.serve_us;
        let sum = core.embed_b1_us + core.knn_b1_us + serve + net;
        println!(
            "accounting: embed {:.1} + knn {:.1} + serve {serve:.1} + net {net:.1} = {sum:.1} us \
             against a measured p50 of {measured_us:.1} us ({:.0}%)",
            core.embed_b1_us,
            core.knn_b1_us,
            100.0 * sum / measured_us,
        );
        out.check((0.67..=1.5).contains(&(sum / measured_us)), || {
            format!("probes account for {sum:.1} us of a {measured_us:.1} us p50")
        });
    }
    frames
}

/// The tail of a pass's generator lateness, ms.
fn lag_p99(pass: &Pass) -> f64 {
    Summary::of(&pass.lag_ms).map_or(f64::NAN, |s| s.tail)
}

/// Prints open-loop generator lateness and checks it against the
/// generator's bound.
fn report_lag(out: &mut Outcome, pass: &Pass) {
    let lag = Summary::of(&pass.lag_ms);
    if let Some(s) = lag {
        println!(
            "generator lateness: p50 {:.4} ms, {} {:.4} ms, max {:.3} ms over {} sends",
            s.p50,
            s.tail_label(),
            s.tail,
            pass.lag_ms.iter().copied().fold(0.0, f64::max),
            s.n
        );
    }
    let tail = lag.map_or(f64::INFINITY, |s| s.tail);
    out.check(tail <= LAG_BOUND_MS, || {
        format!(
            "invalid open-loop run: the generator's p99 send lateness {tail:.3} ms exceeds its \
             {LAG_BOUND_MS} ms bound, so the scheduled rate was not offered"
        )
    });
}
