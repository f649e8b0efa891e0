//! Order statistics under the benchmark's percentile rule.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it (capped at p99),
//! together with the sample count. Percentiles use the nearest-rank
//! definition: the `q`-quantile of `n` sorted samples is the value at index
//! `ceil(q·n) − 1`.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest tail quantile reported.
pub const TAIL_CAP: f64 = 0.99;

/// Median, p-tail and count of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank value at [`Summary::tail_q`].
    pub tail: f64,
    /// The tail quantile the sample supports (at most [`TAIL_CAP`]).
    pub tail_q: f64,
}

impl Summary {
    /// Summarises a sample; `None` when it is too small for a tail at or
    /// above the median (fewer than `2 × TAIL_SAMPLES` values).
    pub fn of(values: &[f64]) -> Option<Summary> {
        let tail_q = tail_quantile(values.len())?;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 0.5),
            tail: nearest_rank(&sorted, tail_q),
            tail_q,
        })
    }

    /// The tail quantile as a percentile label, e.g. `p99` or `p98.7`.
    pub fn tail_label(&self) -> String {
        let pct = self.tail_q * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{pct:.0}")
        } else {
            format!("p{pct:.1}")
        }
    }
}

/// The highest quantile with at least [`TAIL_SAMPLES`] of `n` samples
/// beyond it, capped at [`TAIL_CAP`]; `None` below `2 × TAIL_SAMPLES`.
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    Some((1.0 - TAIL_SAMPLES as f64 / n as f64).min(TAIL_CAP))
}

/// Nearest-rank `q`-quantile of an ascending, non-empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    // The epsilon keeps an exact product such as 0.99 × 4000 from rounding
    // up to the next rank.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the slowest 1 % of a sample, and of at least its slowest
/// [`TAIL_SAMPLES`]; `None` below `2 × TAIL_SAMPLES` samples. Unlike an
/// order statistic it keeps its resolution on data recorded in whole units.
pub fn tail_mean(values: &[f64]) -> Option<f64> {
    tail_quantile(values.len())?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = (sorted.len() / 100).max(TAIL_SAMPLES);
    Some(sorted[sorted.len() - k..].iter().sum::<f64>() / k as f64)
}

/// Median of a non-empty sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// One timed answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it completed (when it was due, in an open loop), seconds from
    /// the start of the pass.
    pub at_s: f64,
    /// How long it took, ms.
    pub latency_ms: f64,
    /// Units of work it answered (scans).
    pub units: u64,
}

/// A pass cut into equal time windows, summarised by the median window: a
/// host hiccup that spoils one window moves neither figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over windows of units answered per second.
    pub throughput: f64,
    /// Median over windows of the window's median latency, ms.
    pub p50: f64,
    /// Samples in the smallest window.
    pub min_n: usize,
}

/// Cuts `samples` over `[0, span_s)` into `windows` equal windows; `None`
/// when a window holds fewer than [`TAIL_SAMPLES`] samples.
pub fn windowed(samples: &[Sample], span_s: f64, windows: usize) -> Option<Windowed> {
    let width = span_s / windows as f64;
    let mut cut: Vec<(u64, Vec<f64>)> = vec![(0, Vec::new()); windows];
    for s in samples {
        let w = ((s.at_s / width) as usize).min(windows - 1);
        cut[w].0 += s.units;
        cut[w].1.push(s.latency_ms);
    }
    let min_n = cut.iter().map(|(_, l)| l.len()).min().unwrap_or(0);
    if min_n < TAIL_SAMPLES {
        return None;
    }
    let rates: Vec<f64> = cut.iter().map(|(units, _)| *units as f64 / width).collect();
    let p50s: Vec<f64> = cut.iter().map(|(_, lat)| median_rank(lat)).collect();
    Some(Windowed { throughput: median(&rates), p50: median(&p50s), min_n })
}

/// Nearest-rank median of an unsorted, non-empty sample.
fn median_rank(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_medians_ignore_one_spoiled_window() {
        // Five 1 s windows of 100 answers each, except window 2: ten times
        // slower, with `spoiled_n` answers.
        let cut = |spoiled_n: usize| -> Vec<Sample> {
            let mut samples = Vec::new();
            for w in 0..5 {
                let (n, slow) = if w == 2 { (spoiled_n, 10.0) } else { (100, 1.0) };
                for i in 0..n {
                    let at_s = w as f64 + i as f64 / n as f64;
                    let latency_ms = slow * (1.0 + i as f64 / 100.0);
                    samples.push(Sample { at_s, latency_ms, units: 1 });
                }
            }
            samples
        };
        let w = windowed(&cut(10), 5.0, 5).expect("every window holds 10 answers");
        assert_eq!(w.throughput, 100.0);
        assert!((w.p50 - 1.49).abs() < 1e-9, "{w:?}");
        assert_eq!(w.min_n, 10);
        assert!(windowed(&cut(9), 5.0, 5).is_none());
    }

    /// Samples strictly greater than the reported tail value.
    fn beyond(values: &[f64], s: &Summary) -> usize {
        values.iter().filter(|&&v| v > s.tail).count()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [20, 21, 57, 100, 333, 999, 1000, 1001, 5000] {
            let values: Vec<f64> = (0..n).map(f64::from).collect();
            let s = Summary::of(&values).expect("large enough");
            assert_eq!(s.n, n as usize);
            assert!(beyond(&values, &s) >= TAIL_SAMPLES, "n={n}: {s:?}");
            assert!(s.tail_q <= TAIL_CAP);
        }
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        // Below 1000 samples p99 has fewer than ten beyond it, so the rule
        // falls back to exactly ten beyond; from 1000 on it is p99.
        let values: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(beyond(&values, &s), TAIL_SAMPLES);
        assert_eq!(s.tail_label(), "p98");
        let values: Vec<f64> = (1..=4000).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 3960.0);
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert!(tail_quantile(999).unwrap() < 0.99);
    }

    #[test]
    fn small_samples_have_no_tail() {
        assert_eq!(tail_quantile(19), None);
        assert!(Summary::of(&[1.0; 19]).is_none());
        assert!(Summary::of(&[1.0; 20]).is_some());
    }

    #[test]
    fn tail_mean_averages_the_slowest_share() {
        let values: Vec<f64> = (1..=4000).map(f64::from).collect();
        // The slowest 1 %: 3961..=4000.
        assert_eq!(tail_mean(&values), Some(3980.5));
        // Below 1000 samples, the slowest ten.
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_mean(&values), Some(45.5));
        assert_eq!(tail_mean(&[1.0; 19]), None);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&sorted, 0.5), 2.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 4.0);
    }
}
