//! Service configuration: the windowed-pipeline geometry plus the
//! sharding/backpressure knobs that only exist in the streaming layer.

use sd_core::{DistortionMetric, FrameworkError, Result, WindowedConfig};
use sd_data::NodeId;

/// Configuration of a [`crate::StreamingService`].
///
/// Wraps the batch [`WindowedConfig`] — window geometry, screen, pooling,
/// metrics, seed — so a stream and its batch replay are parameterized
/// identically, and adds the serving knobs: shard count and per-channel
/// capacity (the backpressure bound).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The windowed-pipeline parameters shared with
    /// [`sd_core::WindowedExperiment`].
    pub windowed: WindowedConfig,
    /// Number of ingestion shards (threads). Rows route to shards by a
    /// hash of their node's `(rnc, tower)`, so all sectors of a tower
    /// land on one shard.
    pub shards: usize,
    /// Bounded capacity of every ingestion and shard→collector channel,
    /// in messages. A full channel blocks the sender — the service never
    /// drops rows or buffers without bound.
    pub channel_capacity: usize,
    /// Attribute names of the arriving rows, in row order.
    pub attributes: Vec<String>,
    /// Size of the evaluator-worker pool: how many
    /// sealed windows may be calibrated and scored concurrently. The
    /// reorder stage publishes strictly in window order, so every pool
    /// size produces a bit-identical [`crate::StreamReport`]; larger
    /// pools only overlap more evaluation with ingestion.
    pub evaluators: usize,
    /// Test hook: `(seed, max_us)` deterministic per-window sleep before
    /// evaluating, to scramble completion order in pipelining tests.
    pub(crate) eval_jitter: Option<(u64, u64)>,
    /// Test hook: induce a panic in whichever worker picks up this
    /// window, to exercise the fault path.
    pub(crate) eval_panic_at: Option<usize>,
}

impl ServeConfig {
    /// Creates a service configuration with 4 shards and channel capacity
    /// 256.
    pub fn new(windowed: WindowedConfig, attributes: Vec<String>) -> Self {
        ServeConfig {
            windowed,
            shards: 4,
            channel_capacity: 256,
            attributes,
            evaluators: 1,
            eval_jitter: None,
            eval_panic_at: None,
        }
    }

    /// Sets the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the bounded channel capacity.
    #[must_use]
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity;
        self
    }

    /// Sets the evaluator-pool size.
    #[must_use]
    pub fn with_evaluators(mut self, evaluators: usize) -> Self {
        self.evaluators = evaluators;
        self
    }

    /// Test hook: sleep each worker a deterministic, per-window number of
    /// microseconds (at most `max_us`, derived from `seed ^ window`)
    /// before evaluating, so pipelining tests can scramble completion
    /// order without touching results.
    #[must_use]
    pub fn with_evaluation_jitter(mut self, seed: u64, max_us: u64) -> Self {
        self.eval_jitter = Some((seed, max_us));
        self
    }

    /// Test hook: panic the worker that picks up window `window`, so
    /// fault tests can prove a dead evaluator surfaces as
    /// [`sd_core::FrameworkError::EvaluatorFailed`] instead of a hang.
    #[must_use]
    pub fn with_evaluator_panic_at(mut self, window: usize) -> Self {
        self.eval_panic_at = Some(window);
        self
    }

    /// Ring capacity per node implied by the window geometry: the screen
    /// reaches one window length behind the window start, so `2 · window`
    /// rows always suffice (see [`sd_data::NodeState`]'s retention
    /// contract).
    pub fn ring_capacity(&self) -> usize {
        2 * self.windowed.window
    }

    pub(crate) fn validate(&self, nodes: &[NodeId]) -> Result<()> {
        if self.windowed.window == 0 || self.windowed.stride == 0 {
            return Err(FrameworkError::InvalidConfig(
                "window and stride must be positive".into(),
            ));
        }
        DistortionMetric::check_list(&self.windowed.metrics)?;
        if self.shards == 0 {
            return Err(FrameworkError::InvalidConfig(
                "a streaming service needs at least one shard".into(),
            ));
        }
        if self.channel_capacity == 0 {
            return Err(FrameworkError::InvalidConfig(
                "bounded channels need a positive capacity".into(),
            ));
        }
        if self.evaluators == 0 {
            return Err(FrameworkError::InvalidConfig(
                "the evaluator pool needs at least one worker".into(),
            ));
        }
        if self.attributes.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "rows must carry at least one attribute".into(),
            ));
        }
        self.windowed.check_detection(self.attributes.len())?;
        if nodes.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "a streaming service needs at least one node".into(),
            ));
        }
        for (i, node) in nodes.iter().enumerate() {
            if nodes[..i].contains(node) {
                return Err(FrameworkError::InvalidConfig(format!(
                    "node {node} is declared twice; one series per sector"
                )));
            }
        }
        Ok(())
    }
}

/// Routes a node to its shard: a splitmix64 finalizer over the node's
/// `(rnc, tower)`, so collocated sectors (one tower) always share a shard
/// and the assignment is a pure function of the address — independent of
/// arrival order, channel capacity, and shard-thread scheduling.
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    let mut x = (u64::from(node.rnc) << 32) | u64::from(node.tower);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_tower_granular() {
        for rnc in 0..8 {
            for tower in 0..8 {
                let home = shard_of(NodeId::new(rnc, tower, 0), 4);
                for sector in 1..3 {
                    assert_eq!(shard_of(NodeId::new(rnc, tower, sector), 4), home);
                }
            }
        }
    }

    #[test]
    fn shard_routing_spreads_towers() {
        let mut hit = [false; 8];
        for rnc in 0..16 {
            for tower in 0..16 {
                hit[shard_of(NodeId::new(rnc, tower, 0), 8)] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "256 towers must reach all 8 shards");
    }

    #[test]
    fn one_shard_maps_everything_to_zero() {
        assert_eq!(shard_of(NodeId::new(7, 3, 1), 1), 0);
    }
}
