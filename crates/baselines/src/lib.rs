//! # stone-baselines
//!
//! From-scratch implementations of the four prior frameworks the STONE paper
//! compares against (Sec. V.A.3):
//!
//! * [`KnnBuilder`] — **KNN / LearnLoc** \[11\]: lightweight non-parametric
//!   Euclidean matching of raw fingerprints; temporal-variation agnostic.
//! * [`LtKnnBuilder`] — **LT-KNN** \[21\]: KNN plus ridge-regression
//!   imputation of removed APs and per-collection-instance radio-map
//!   refitting (the strongest prior work in the paper's evaluation — but it
//!   must re-train every bucket).
//! * [`GiftBuilder`] — **GIFT** \[9\]: quantized RSSI-gradient fingerprints
//!   matched to movement vectors; a tracking approach evaluated on
//!   trajectories.
//! * [`ScnnBuilder`] — **SCNN** \[6\]: a convolutional RP classifier trained
//!   with cross-entropy; accurate on day 0, prone to overfitting the
//!   training instance.
//!
//! All implement [`stone_dataset::Framework`], so the experiment runner in
//! `stone-eval` treats them interchangeably with STONE.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gift;
mod knn;
mod ltknn;
mod scnn;

pub use gift::{GiftBuilder, GiftLocalizer};
pub use knn::{KnnBuilder, KnnLocalizer};
pub use ltknn::{LtKnnBuilder, LtKnnLocalizer};
pub use scnn::{ScnnBuilder, ScnnLocalizer};
