//! Per-stage attribution read from the `stone-obs` span ring.

use std::collections::HashMap;

use stone_obs::{span_snapshot, SpanRecord, Stage};

use crate::stats::{tail_mean, Summary};

/// Stage durations of the complete (all-five-stage) traces whose ids lie
/// strictly inside a minted-id bracket.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Per-stage µs samples, indexed by `Stage as usize`.
    pub by_stage: [Vec<f64>; 5],
    /// Five-stage sums, µs: the latency each trace attributes.
    pub e2e: Vec<f64>,
}

impl Breakdown {
    /// Collects the traces with `low < trace_id < high`. A trace whose
    /// spans were partly overwritten by the ring wrap is left out.
    pub fn collect(low: u64, high: u64) -> Breakdown {
        let mut traces: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
        for rec in span_snapshot() {
            if rec.trace_id > low && rec.trace_id < high {
                traces.entry(rec.trace_id).or_default().push(rec);
            }
        }
        let mut out = Breakdown::default();
        for spans in traces.values() {
            let mut durs = [0u64; 5];
            let mut seen = [false; 5];
            for s in spans {
                seen[s.stage as usize] = true;
                durs[s.stage as usize] = s.dur_us;
            }
            if spans.len() != 5 || seen != [true; 5] {
                continue;
            }
            for (samples, dur) in out.by_stage.iter_mut().zip(durs) {
                samples.push(dur as f64);
            }
            out.e2e.push(durs.iter().sum::<u64>() as f64);
        }
        out
    }

    /// Summary of one stage's durations.
    pub fn stage(&self, stage: Stage) -> Option<Summary> {
        Summary::of(&self.by_stage[stage as usize])
    }

    /// Mean and slowest-1 % mean of one stage's durations, µs.
    pub fn stage_means(&self, stage: Stage) -> Option<(f64, f64)> {
        let samples = &self.by_stage[stage as usize];
        let tail = tail_mean(samples)?;
        Some((samples.iter().sum::<f64>() / samples.len() as f64, tail))
    }
}
