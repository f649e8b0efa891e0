//! The seeded open-loop arrival schedule of `tcp-open-16v`.
//!
//! Arrivals form a Poisson process at a fixed absolute rate: exponential
//! gaps, drawn once up front from the workload seed, so the same seed
//! replays the same schedule and a slow server cannot lower the offered
//! rate. Each arrival names its venue (a hot share on venue 0, the rest
//! spread uniformly over the others) and the scan-pool entry it sends.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When it is due, from the start of the run.
    pub at: Duration,
    /// Venue index; 0 is the hot venue.
    pub venue: usize,
    /// Index into the scan pool.
    pub scan: usize,
}

/// Traffic shape of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Mean arrival rate, requests per second.
    pub rate_hz: f64,
    /// Schedule length.
    pub span: Duration,
    /// Venue count (at least 2).
    pub venues: usize,
    /// Share of arrivals sent to venue 0.
    pub hot_share: f64,
    /// Scan-pool size.
    pub pool: usize,
}

/// Draws the schedule for `seed`: every arrival due before `shape.span`,
/// in due order.
pub fn poisson(seed: u64, shape: &Shape) -> Vec<Arrival> {
    assert!(shape.rate_hz > 0.0 && shape.venues >= 2 && shape.pool > 0, "degenerate shape");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE1_0A05);
    let mut out = Vec::with_capacity((shape.rate_hz * shape.span.as_secs_f64() * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / shape.rate_hz;
        let at = Duration::from_secs_f64(t);
        if at >= shape.span {
            return out;
        }
        let venue = if rng.gen_bool(shape.hot_share) { 0 } else { rng.gen_range(1..shape.venues) };
        out.push(Arrival { at, venue, scan: rng.gen_range(0..shape.pool) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            rate_hz: 3000.0,
            span: Duration::from_secs(4),
            venues: 16,
            hot_share: 0.5,
            pool: 5000,
        }
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        assert_eq!(poisson(11, &shape()), poisson(11, &shape()));
        assert_ne!(poisson(11, &shape()), poisson(12, &shape()));
    }

    #[test]
    fn schedule_is_ordered_and_inside_the_span() {
        let s = poisson(3, &shape());
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(s.iter().all(|a| a.at < shape().span && a.venue < 16 && a.scan < 5000));
    }

    #[test]
    fn rate_and_hot_share_match_the_shape() {
        for seed in 0..4 {
            let s = poisson(seed, &shape());
            // 12 000 expected arrivals; a Poisson count's σ is ≈ 110.
            let n = s.len() as f64;
            assert!((n - 12_000.0).abs() < 600.0, "seed {seed}: {n} arrivals");
            let hot = s.iter().filter(|a| a.venue == 0).count() as f64 / n;
            assert!((hot - 0.5).abs() < 0.03, "seed {seed}: hot share {hot}");
            // Every cold venue gets traffic.
            assert!((1..16).all(|v| s.iter().any(|a| a.venue == v)));
        }
    }
}
