//! IDEA middleware configuration.

use crate::quantify::{MaxBounds, Weights};
use crate::resolution::ResolutionPolicy;
use idea_overlay::{GossipConfig, TopLayerConfig};
use idea_types::{IdeaError, Result, SimDuration};
use idea_wal::DurabilityConfig;

/// Full configuration of one IDEA node.
#[derive(Debug, Clone, PartialEq)]
pub struct IdeaConfig {
    /// Formula-1 weights (the `set_weight` API).
    pub weights: Weights,
    /// Formula-1 saturation bounds (the `set_consistency_metric` API).
    pub bounds: MaxBounds,
    /// Conflict resolution policy (the `set_resolution` API).
    pub policy: ResolutionPolicy,
    /// Hint level in `[0, 1]`; `0.0` disables hint-based control
    /// (the `set_hint` API: "by setting this value to 0, the administrator
    /// indicates that this is not a hint-based system").
    pub hint: f64,
    /// How much a user dissatisfaction event raises the learned floor
    /// (the paper's `Δ`: the new desired level becomes `L1 + Δ`).
    pub hint_delta: f64,
    /// Background resolution period (the `set_background_freq` API); `None`
    /// disables background resolution on this node.
    pub background_period: Option<SimDuration>,
    /// How many per-writer timestamps a detection probe's [`idea_vv::VvSummary`]
    /// carries. The triple a peer computes is exact while per-writer
    /// divergence fits this tail; beyond it staleness saturates
    /// conservatively (the level can only drop, never inflate).
    pub summary_tail: usize,
    /// Top-layer membership parameters (§4.1).
    pub top_layer: TopLayerConfig,
    /// Bottom-layer gossip parameters (§4.3).
    pub gossip: GossipConfig,
    /// Start a bottom-layer sweep every `n`-th detection round; `None`
    /// disables sweeping. The paper's evaluation disables rollback (§6),
    /// so the default is `None`; the rollback ablation turns it on.
    pub sweep_every: Option<u64>,
    /// Sweep collection deadline (bounds rollback exposure, §4.4.2).
    pub sweep_deadline: SimDuration,
    /// After a confirmed discrepancy, trigger an active resolution.
    pub rollback_resolve: bool,
    /// Resolve in phase 2 sequentially (the paper's design) or in parallel
    /// (the paper's suggested optimisation; exercised by ablation A3).
    pub parallel_phase2: bool,
    /// Store/protocol shards per node: replicas and all per-object protocol
    /// state are partitioned by `ObjectId` hash into this many independent
    /// shards. `1` (the default) reproduces the historical single-map
    /// behaviour; higher values let the threaded engine process disjoint
    /// objects concurrently (`ShardedEngine`). Semantics are
    /// shard-count-independent — pinned bit-for-bit by the
    /// shard-equivalence tests.
    pub store_shards: usize,
    /// Upper bound on the updates carried by a single `FetchReply` frame.
    /// A far-behind replica streams its backlog in chunks of this size
    /// (each reply's `done` flag drives a continuation `FetchRequest`
    /// cursor) instead of one unbounded burst. `None` (the default)
    /// preserves the historical single-reply behaviour; `Some(0)` is
    /// rejected by [`IdeaConfig::validate`].
    pub max_fetch_updates: Option<usize>,
    /// Durability plane: per-shard write-ahead logging, periodic durable
    /// snapshots with log truncation, and the fsync policy
    /// ([`idea_wal::DurabilityMode`]). The default is
    /// [`DurabilityMode::Off`](idea_wal::DurabilityMode::Off) — nothing is
    /// written and every pinned fixed-seed trace runs exactly as before.
    /// Restarting an existing identity goes through
    /// [`crate::protocol::IdeaNode::recover`].
    pub durability: DurabilityConfig,
}

impl Default for IdeaConfig {
    fn default() -> Self {
        IdeaConfig {
            weights: Weights::default(),
            bounds: MaxBounds::default(),
            policy: ResolutionPolicy::HighestIdWins,
            hint: 0.0,
            hint_delta: 0.02,
            background_period: None,
            summary_tail: 8,
            top_layer: TopLayerConfig::default(),
            gossip: GossipConfig::default(),
            sweep_every: None,
            sweep_deadline: SimDuration::from_secs(5),
            rollback_resolve: true,
            parallel_phase2: false,
            store_shards: 1,
            max_fetch_updates: None,
            durability: DurabilityConfig::off(),
        }
    }
}

impl IdeaConfig {
    /// Checks every field against its documented domain, returning the
    /// first violation as a typed [`IdeaError::InvalidConfig`].
    ///
    /// [`crate::protocol::IdeaNode::new`] calls this before building a
    /// node (and panics on violation); fallible callers use
    /// [`crate::protocol::IdeaNode::try_new`] instead.
    ///
    /// # Errors
    /// Fails when `store_shards` is outside `1..=256`, a configured
    /// `background_period` or `max_fetch_updates` is zero, the hint floor
    /// is outside `[0, 1]`, `hint_delta` is negative or not finite, or an
    /// enabled durability plane has no directory or a zero
    /// `snapshot_every` or `group_commit`.
    pub fn validate(&self) -> Result<()> {
        if self.store_shards == 0 || self.store_shards > 256 {
            return Err(IdeaError::InvalidConfig {
                field: "store_shards",
                reason: "must be in 1..=256 (the timer encoding carries the shard in one byte)",
            });
        }
        if self.background_period.is_some_and(|p| p.is_zero()) {
            return Err(IdeaError::InvalidConfig {
                field: "background_period",
                reason: "must be positive when set (None disables background resolution)",
            });
        }
        if self.max_fetch_updates == Some(0) {
            return Err(IdeaError::InvalidConfig {
                field: "max_fetch_updates",
                reason: "must be positive when set (None disables fetch chunking)",
            });
        }
        if !(0.0..=1.0).contains(&self.hint) || !self.hint.is_finite() {
            return Err(IdeaError::InvalidConfig {
                field: "hint",
                reason: "floor must be within [0, 1] (0 disables hint-based control)",
            });
        }
        if self.hint_delta < 0.0 || !self.hint_delta.is_finite() {
            return Err(IdeaError::InvalidConfig {
                field: "hint_delta",
                reason: "learning step must be non-negative and finite",
            });
        }
        if self.durability.enabled() {
            if self.durability.dir.as_os_str().is_empty() {
                return Err(IdeaError::InvalidConfig {
                    field: "durability.dir",
                    reason: "an enabled durability plane needs a root directory",
                });
            }
            if self.durability.snapshot_every == 0 {
                return Err(IdeaError::InvalidConfig {
                    field: "durability.snapshot_every",
                    reason: "must be positive when durability is on",
                });
            }
            if self.durability.group_commit == 0 {
                return Err(IdeaError::InvalidConfig {
                    field: "durability.group_commit",
                    reason: "the group-commit window must be positive when durability is on",
                });
            }
        }
        Ok(())
    }

    /// Preset for the paper's hint-based white-board experiments (§6.1):
    /// hint-driven active resolution, no background rounds, no sweeps.
    pub fn whiteboard(hint: f64) -> Self {
        IdeaConfig {
            hint,
            policy: ResolutionPolicy::HighestIdWins,
            background_period: None,
            ..Default::default()
        }
    }

    /// Preset for the paper's automatic booking experiments (§6.3):
    /// background resolution at `period`, no hints.
    pub fn booking(period: SimDuration) -> Self {
        IdeaConfig {
            hint: 0.0,
            policy: ResolutionPolicy::HighestIdWins,
            background_period: Some(period),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = IdeaConfig::default();
        assert_eq!(c.hint, 0.0, "hint-based control disabled by default");
        assert!(c.background_period.is_none());
        assert!(c.sweep_every.is_none(), "paper's evaluation runs without rollback");
        assert!(c.summary_tail > 0, "probes must carry some timestamp tail");
        assert_eq!(c.store_shards, 1, "default is the paper's unsharded store");
        assert!(c.max_fetch_updates.is_none(), "fetch chunking is opt-in");
        assert!(!c.durability.enabled(), "durability is opt-in (pinned traces unchanged)");
    }

    fn rejected_field(cfg: &IdeaConfig) -> &'static str {
        match cfg.validate() {
            Err(IdeaError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_every_preset() {
        IdeaConfig::default().validate().unwrap();
        IdeaConfig::whiteboard(0.95).validate().unwrap();
        IdeaConfig::booking(SimDuration::from_secs(20)).validate().unwrap();
        IdeaConfig { store_shards: 256, ..Default::default() }.validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_shards() {
        let cfg = IdeaConfig { store_shards: 0, ..Default::default() };
        assert_eq!(rejected_field(&cfg), "store_shards");
    }

    #[test]
    fn validate_rejects_excess_shards() {
        let cfg = IdeaConfig { store_shards: 257, ..Default::default() };
        assert_eq!(rejected_field(&cfg), "store_shards");
    }

    #[test]
    fn validate_rejects_zero_background_period() {
        let cfg = IdeaConfig { background_period: Some(SimDuration::ZERO), ..Default::default() };
        assert_eq!(rejected_field(&cfg), "background_period");
    }

    #[test]
    fn validate_rejects_zero_fetch_chunk() {
        let cfg = IdeaConfig { max_fetch_updates: Some(0), ..Default::default() };
        assert_eq!(rejected_field(&cfg), "max_fetch_updates");
        IdeaConfig { max_fetch_updates: Some(1), ..Default::default() }.validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range_hint_floor() {
        assert_eq!(rejected_field(&IdeaConfig { hint: 1.2, ..Default::default() }), "hint");
        assert_eq!(rejected_field(&IdeaConfig { hint: -0.1, ..Default::default() }), "hint");
        assert_eq!(rejected_field(&IdeaConfig { hint: f64::NAN, ..Default::default() }), "hint");
        assert_eq!(
            rejected_field(&IdeaConfig { hint_delta: -0.5, ..Default::default() }),
            "hint_delta"
        );
    }

    #[test]
    fn validate_rejects_misconfigured_durability() {
        use idea_wal::DurabilityMode;
        // Enabled without a directory.
        let cfg = IdeaConfig {
            durability: DurabilityConfig { mode: DurabilityMode::Sync, ..Default::default() },
            ..Default::default()
        };
        assert_eq!(rejected_field(&cfg), "durability.dir");
        // Enabled with a zero snapshot threshold.
        let cfg = IdeaConfig {
            durability: DurabilityConfig {
                snapshot_every: 0,
                ..DurabilityConfig::sync("/tmp/idea-wal")
            },
            ..Default::default()
        };
        assert_eq!(rejected_field(&cfg), "durability.snapshot_every");
        // Enabled with a zero group-commit window.
        let cfg = IdeaConfig {
            durability: DurabilityConfig {
                group_commit: 0,
                ..DurabilityConfig::sync("/tmp/idea-wal")
            },
            ..Default::default()
        };
        assert_eq!(rejected_field(&cfg), "durability.group_commit");
        // Off tolerates all of it (nothing is written).
        let cfg = IdeaConfig {
            durability: DurabilityConfig {
                snapshot_every: 0,
                group_commit: 0,
                ..DurabilityConfig::off()
            },
            ..Default::default()
        };
        cfg.validate().unwrap();
        IdeaConfig { durability: DurabilityConfig::sync("/tmp/idea-wal"), ..Default::default() }
            .validate()
            .unwrap();
    }

    #[test]
    fn whiteboard_preset_sets_hint() {
        let c = IdeaConfig::whiteboard(0.95);
        assert_eq!(c.hint, 0.95);
        assert!(c.background_period.is_none());
    }

    #[test]
    fn booking_preset_sets_period() {
        let c = IdeaConfig::booking(SimDuration::from_secs(20));
        assert_eq!(c.background_period, Some(SimDuration::from_secs(20)));
        assert_eq!(c.hint, 0.0);
    }
}
