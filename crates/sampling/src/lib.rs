//! Sampling substrate for the experimental framework (§2.1.1).
//!
//! The framework "consists of repeated evaluations of strategies on small
//! samples of data": `R` replications, each a test pair `{D^i, D^i_I}` of
//! `B` series sampled **with replacement** — entire time series, never
//! individual points, to preserve temporal structure (§4.2).

#![forbid(unsafe_code)]
mod replicate;

pub use replicate::{ReplicationSampler, TestPair};
