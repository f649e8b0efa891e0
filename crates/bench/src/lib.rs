//! Shared helpers for the figure-regeneration benches.
//!
//! Every bench honours two environment variables:
//!
//! * `STONE_SEED` — experiment seed (default 42);
//! * `STONE_FULL=1` — paper-scale sweeps/repeats instead of the quick
//!   defaults sized for single-core CI machines.

use stone::{StoneBuilder, StoneConfig, TrainerConfig};
use stone_baselines::{GiftBuilder, KnnBuilder, LtKnnBuilder, ScnnBuilder};
use stone_dataset::{Framework, LongTermSuite, SuiteConfig, SuiteKind};
use stone_eval::{Experiment, ExperimentReport};

/// Returns `true` when `STONE_FULL` requests paper-scale runs.
#[must_use]
pub fn is_full() -> bool {
    std::env::var("STONE_FULL").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The experiment seed (`STONE_SEED`, default 42).
#[must_use]
pub fn seed() -> u64 {
    std::env::var("STONE_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Suite configuration for figure benches: paper-scale paths, two walks per
/// bucket.
#[must_use]
pub fn suite_config() -> SuiteConfig {
    SuiteConfig::new(seed())
}

/// The STONE configuration used by the figure benches.
#[must_use]
pub fn stone_config() -> StoneConfig {
    let trainer = if is_full() { TrainerConfig::paper() } else { TrainerConfig::standard() };
    StoneConfig { trainer, ..StoneConfig::quick() }
}

/// A faster STONE configuration for high-repeat sweeps (Fig. 7).
#[must_use]
pub fn stone_config_sweep() -> StoneConfig {
    let trainer = if is_full() { TrainerConfig::standard() } else { TrainerConfig::quick() };
    StoneConfig { trainer, ..StoneConfig::quick() }
}

/// Per-floorplan STONE tuning, mirroring the paper's statement that the
/// embedding length "was empirically evaluated for each floorplan
/// independently" (Sec. IV.D). The UJI grid (4 m pitch, 2-D adjacency)
/// wants a wider embedding and selector σ than the 1-m corridors.
#[must_use]
pub fn stone_config_for(kind: SuiteKind) -> StoneConfig {
    let mut cfg = stone_config();
    if kind == SuiteKind::Uji {
        cfg.trainer.embed_dim = 10;
        cfg.trainer.selector_sigma_m = 6.0;
        cfg.trainer.enroll_augment = 3;
    }
    cfg
}

/// The five frameworks of the paper's comparison (Sec. V.A.3), in plot
/// order, with STONE tuned for the suite.
#[must_use]
pub fn roster(kind: SuiteKind) -> Vec<Box<dyn Framework>> {
    vec![
        Box::new(StoneBuilder::from_config(stone_config_for(kind))),
        Box::new(KnnBuilder::default()),
        Box::new(LtKnnBuilder::default()),
        Box::new(GiftBuilder::default()),
        Box::new(if is_full() { ScnnBuilder::default() } else { ScnnBuilder::quick() }),
    ]
}

/// Runs the five-framework comparison on a suite.
#[must_use]
pub fn run_comparison(suite: &LongTermSuite) -> ExperimentReport {
    let frameworks = roster(suite.kind);
    let refs: Vec<&dyn Framework> = frameworks.iter().map(AsRef::as_ref).collect();
    Experiment::new(seed()).run(suite, &refs)
}

/// Prints the standard bench header.
pub fn banner(fig: &str, what: &str) {
    println!("==============================================================");
    println!("{fig}: {what}");
    println!(
        "seed={} mode={}",
        seed(),
        if is_full() { "FULL (paper-scale)" } else { "quick (set STONE_FULL=1 for paper-scale)" }
    );
    println!("==============================================================");
}

/// Writes a CSV artifact next to the bench output and reports the path.
pub fn write_artifact(name: &str, contents: &str) {
    let dir = std::path::Path::new("target").join("stone-figures");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, contents).is_ok() {
            println!("[artifact] {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_stable() {
        // Avoid mutating the environment: only assert the default path.
        if std::env::var("STONE_SEED").is_err() {
            assert_eq!(seed(), 42);
        }
    }

    #[test]
    fn roster_has_five_frameworks() {
        let r = roster(SuiteKind::Office);
        let names: Vec<&str> = r.iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["STONE", "KNN", "LT-KNN", "GIFT", "SCNN"]);
    }

    #[test]
    fn uji_config_is_tuned_per_floorplan() {
        let uji = stone_config_for(SuiteKind::Uji);
        let office = stone_config_for(SuiteKind::Office);
        assert_eq!(uji.trainer.embed_dim, 10);
        assert_eq!(office.trainer.embed_dim, 8);
        assert!(uji.trainer.selector_sigma_m > office.trainer.selector_sigma_m);
    }
}
