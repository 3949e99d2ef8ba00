//! IDEA middleware configuration.

use crate::quantify::{MaxBounds, Weights};
use crate::resolution::ResolutionPolicy;
use idea_overlay::{GossipConfig, TopLayerConfig};
use idea_types::{IdeaError, Result, SimDuration};
use idea_wal::DurabilityConfig;
use serde::{Deserialize, Serialize};

/// When does a *read* trigger the IDEA protocol (§4.2)?
///
/// "For read operations, IDEA is triggered when a reader tries to retrieve a
/// new file … For other reads, IDEA is triggered according to the context:
/// if the file is locally updated frequently, the read will not trigger
/// IDEA; if the file hasn't been locally updated for a long time … IDEA can
/// be triggered."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadPolicy {
    /// Trigger detection on the first read of an object this node has never
    /// examined before ("a new snapshot").
    pub fresh_read_triggers: bool,
    /// Trigger detection when the replica's newest local update is older
    /// than this (the "hasn't been locally updated for a long time" case).
    pub stale_after: SimDuration,
}

impl Default for ReadPolicy {
    fn default() -> Self {
        ReadPolicy { fresh_read_triggers: true, stale_after: SimDuration::from_secs(30) }
    }
}

/// Full configuration of one IDEA node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Deadline for a detection round before it completes with whoever
    /// answered (covers WAN RTT plus slack).
    pub detect_deadline: SimDuration,
    /// Detection batching window: probe starts requested within this window
    /// coalesce into one round per dirty object (one timer, one fan-out per
    /// peer), dropping steady-state probe traffic from O(writes × peers)
    /// towards O(peers) per window. `None` starts a round per trigger (the
    /// paper's behaviour).
    pub detect_batch_window: Option<SimDuration>,
    /// How many per-writer timestamps a detection probe's [`idea_vv::VvSummary`]
    /// carries. The triple a peer computes is exact while per-writer
    /// divergence fits this tail; beyond it staleness saturates
    /// conservatively (the level can only drop, never inflate).
    pub summary_tail: usize,
    /// Per-message dispatch cost charged to the initiator when fanning out
    /// call-for-attention / inform messages. Models the paper's measured
    /// 0.468 ms phase-1 cost (≈0.156 ms per member at top-layer size 4).
    pub dispatch_cost: SimDuration,
    /// Back-off window for contended active resolution: retry after a
    /// uniform delay in `[backoff_min, backoff_max]` (§4.5.2).
    pub backoff_min: SimDuration,
    /// Upper edge of the back-off window.
    pub backoff_max: SimDuration,
    /// How long a granted call-for-attention lock is honoured before it is
    /// considered stale (initiator crashed mid-resolution).
    pub attention_lease: SimDuration,
    /// Read-trigger policy (§4.2).
    pub read_policy: ReadPolicy,
    /// Top-layer membership parameters (§4.1).
    pub top_layer: TopLayerConfig,
    /// Bottom-layer gossip parameters (§4.3).
    pub gossip: GossipConfig,
    /// How long a node waits for a pulled rumor body before retrying
    /// against a backup advertiser. Should comfortably exceed one WAN
    /// round-trip.
    pub gossip_pull_timeout: SimDuration,
    /// Digest flush window: pending rumor advertisements
    /// piggyback on outgoing detect traffic, and any still queued when
    /// this window elapses go out in a dedicated
    /// [`crate::messages::IdeaMsg::GossipDigest`].
    pub gossip_digest_flush: SimDuration,
    /// Start a bottom-layer sweep every `n`-th detection round; `None`
    /// disables sweeping. The paper's evaluation disables rollback (§6),
    /// so the default is `None`; the rollback ablation turns it on.
    pub sweep_every: Option<u64>,
    /// Sweep collection deadline (bounds rollback exposure, §4.4.2).
    pub sweep_deadline: SimDuration,
    /// "Sufficiently close" tolerance between top- and bottom-layer levels
    /// (paper example: 78 % vs 80 % stays silent).
    pub sweep_epsilon: f64,
    /// After a confirmed discrepancy, trigger an active resolution.
    pub rollback_resolve: bool,
    /// Resolve in phase 2 sequentially (the paper's design) or in parallel
    /// (the paper's suggested optimisation; exercised by ablation A3).
    pub parallel_phase2: bool,
    /// Store/protocol shards per node: replicas and all per-object protocol
    /// state are partitioned by `ObjectId` hash into this many independent
    /// shards. `1` (the default) reproduces the historical single-map
    /// behaviour; higher values let the threaded engine process disjoint
    /// objects concurrently (`ShardedEngine`). With per-trigger probing
    /// (`detect_batch_window = None`) semantics are shard-count-independent
    /// — pinned bit-for-bit by the shard-equivalence tests. With batching
    /// enabled the coalescing window is **per shard** (each shard arms its
    /// own timer over its own dirty objects), so probe *timing* can differ
    /// across shard counts while convergence is unaffected.
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
            detect_deadline: SimDuration::from_millis(400),
            detect_batch_window: None,
            summary_tail: 8,
            dispatch_cost: SimDuration::from_micros(156),
            backoff_min: SimDuration::from_millis(50),
            backoff_max: SimDuration::from_millis(400),
            attention_lease: SimDuration::from_secs(5),
            read_policy: ReadPolicy::default(),
            top_layer: TopLayerConfig::default(),
            gossip: GossipConfig::default(),
            gossip_pull_timeout: SimDuration::from_millis(500),
            gossip_digest_flush: SimDuration::from_millis(200),
            sweep_every: None,
            sweep_deadline: SimDuration::from_secs(5),
            sweep_epsilon: 0.03,
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
    /// `detect_batch_window` or `background_period` is zero, the hint floor
    /// is outside `[0, 1]`, `hint_delta` is negative, the back-off window
    /// is inverted (`backoff_min > backoff_max`), a configured
    /// `max_fetch_updates` is zero, or `gossip_pull_timeout` or
    /// `gossip_digest_flush` is zero.
    pub fn validate(&self) -> Result<()> {
        if self.store_shards == 0 || self.store_shards > 256 {
            return Err(IdeaError::InvalidConfig {
                field: "store_shards",
                reason: "must be in 1..=256 (the timer encoding carries the shard in one byte)",
            });
        }
        if self.detect_batch_window.is_some_and(|w| w.is_zero()) {
            return Err(IdeaError::InvalidConfig {
                field: "detect_batch_window",
                reason: "must be positive when set (None disables batching)",
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
        if self.backoff_min > self.backoff_max {
            return Err(IdeaError::InvalidConfig {
                field: "backoff_min",
                reason: "back-off window is inverted (backoff_min > backoff_max)",
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
        if self.gossip_pull_timeout.is_zero() {
            return Err(IdeaError::InvalidConfig {
                field: "gossip_pull_timeout",
                reason: "gossip needs a positive pull retry timeout",
            });
        }
        if self.gossip_digest_flush.is_zero() {
            return Err(IdeaError::InvalidConfig {
                field: "gossip_digest_flush",
                reason: "gossip needs a positive digest flush window",
            });
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
        assert!(c.backoff_min <= c.backoff_max);
        assert!(c.detect_batch_window.is_none(), "paper probes per trigger by default");
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
    fn validate_rejects_zero_batch_window() {
        let cfg = IdeaConfig { detect_batch_window: Some(SimDuration::ZERO), ..Default::default() };
        assert_eq!(rejected_field(&cfg), "detect_batch_window");
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

    /// The lazy plane is the only gossip mode, so its knobs are always
    /// checked.
    #[test]
    fn validate_rejects_zero_lazy_knobs_only_in_lazy_mode() {
        let cfg = IdeaConfig { gossip_pull_timeout: SimDuration::ZERO, ..Default::default() };
        assert_eq!(rejected_field(&cfg), "gossip_pull_timeout");
        let cfg = IdeaConfig { gossip_digest_flush: SimDuration::ZERO, ..Default::default() };
        assert_eq!(rejected_field(&cfg), "gossip_digest_flush");
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
    fn validate_rejects_inverted_backoff_window() {
        let cfg = IdeaConfig {
            backoff_min: SimDuration::from_millis(500),
            backoff_max: SimDuration::from_millis(100),
            ..Default::default()
        };
        assert_eq!(rejected_field(&cfg), "backoff_min");
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

    #[test]
    fn dispatch_cost_matches_table2_phase1() {
        // 3 members × 0.156 ms ≈ the paper's 0.468 ms phase-1 delay.
        let c = IdeaConfig::default();
        let phase1 = c.dispatch_cost.saturating_mul(3);
        assert!((phase1.as_millis_f64() - 0.468).abs() < 0.01);
    }
}
