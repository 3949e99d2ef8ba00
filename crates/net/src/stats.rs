//! Per-protocol message and byte accounting.
//!
//! Table 3 of the paper reports "Overhead (# of exchanged messages)" for the
//! background-resolution scheme, and §6.3.1 converts it to bandwidth under a
//! 1 KB-per-packet assumption. [`NetStats`] tracks both quantities per
//! [`MsgClass`] so the harness can report resolution traffic (the paper's
//! number) and total traffic (for the trade-off ablation) separately.

use std::fmt;

/// Protocol class of a message, used to bucket accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgClass {
    /// Version-vector exchange triggered by updates (§4.3).
    Detect,
    /// Resolution control traffic: call-for-attention, acks, collect
    /// requests/replies, inform messages (§4.5).
    ResolutionCtl,
    /// Update transfer batches shipped during resolution.
    Transfer,
    /// Bottom-layer gossip (lpbcast digests, §4.3).
    Gossip,
    /// Overlay maintenance (§4.1). Nothing sends it: the protocol builds
    /// its overlay from write-path announces and digest piggybacking
    /// instead of RanSub rounds. Kept because the benchmark's overlay
    /// tally still sums it.
    Overlay,
    /// Application-level traffic (writes themselves).
    App,
    /// Anything else.
    Other,
}

impl MsgClass {
    /// All classes, in reporting order.
    pub const ALL: [MsgClass; 7] = [
        MsgClass::Detect,
        MsgClass::ResolutionCtl,
        MsgClass::Transfer,
        MsgClass::Gossip,
        MsgClass::Overlay,
        MsgClass::App,
        MsgClass::Other,
    ];

    /// Stable display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MsgClass::Detect => "detect",
            MsgClass::ResolutionCtl => "resolution-ctl",
            MsgClass::Transfer => "transfer",
            MsgClass::Gossip => "gossip",
            MsgClass::Overlay => "overlay",
            MsgClass::App => "app",
            MsgClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            MsgClass::Detect => 0,
            MsgClass::ResolutionCtl => 1,
            MsgClass::Transfer => 2,
            MsgClass::Gossip => 3,
            MsgClass::Overlay => 4,
            MsgClass::App => 5,
            MsgClass::Other => 6,
        }
    }
}

impl fmt::Display for MsgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Running message/byte counters per class.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    messages: [u64; 7],
    payload_bytes: [u64; 7],
    dropped: u64,
}

impl NetStats {
    /// Fresh, zeroed counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one sent message of `class` with `payload` bytes.
    #[inline]
    pub(crate) fn record(&mut self, class: MsgClass, payload: u64) {
        let i = class.index();
        self.messages[i] += 1;
        self.payload_bytes[i] += payload;
    }

    /// Records a message dropped by loss/partition injection.
    #[inline]
    pub(crate) fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Messages sent in `class`.
    pub fn messages(&self, class: MsgClass) -> u64 {
        self.messages[class.index()]
    }

    /// Payload bytes sent in `class`.
    pub fn payload_bytes(&self, class: MsgClass) -> u64 {
        self.payload_bytes[class.index()]
    }

    /// Total messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Messages counted as *resolution overhead* in the paper's Table-3
    /// sense: control plus transfer traffic.
    pub fn resolution_messages(&self) -> u64 {
        self.messages(MsgClass::ResolutionCtl) + self.messages(MsgClass::Transfer)
    }

    /// Messages dropped by failure injection.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Immutable snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            per_class: MsgClass::ALL
                .iter()
                .map(|c| (*c, self.messages(*c), self.payload_bytes(*c)))
                .collect(),
            dropped: self.dropped,
        }
    }

    /// Difference `self - earlier`, class-wise (for windowed measurements).
    pub fn since(&self, earlier: &NetStats) -> NetStats {
        let mut out = NetStats::new();
        for i in 0..7 {
            out.messages[i] = self.messages[i].saturating_sub(earlier.messages[i]);
            out.payload_bytes[i] = self.payload_bytes[i].saturating_sub(earlier.payload_bytes[i]);
        }
        out.dropped = self.dropped.saturating_sub(earlier.dropped);
        out
    }
}

/// A frozen view of [`NetStats`] suitable for tables.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// `(class, messages, payload_bytes)` per class in reporting order.
    pub per_class: Vec<(MsgClass, u64, u64)>,
    /// Messages dropped by failure injection.
    pub dropped: u64,
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (c, m, b) in &self.per_class {
            if *m > 0 {
                writeln!(f, "{c:>16}: {m:>8} msgs {b:>12} B")?;
            }
        }
        if self.dropped > 0 {
            writeln!(f, "{:>16}: {:>8}", "dropped", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::MessageSizeModel;

    #[test]
    fn record_accumulates_per_class() {
        let mut s = NetStats::new();
        s.record(MsgClass::Detect, 100);
        s.record(MsgClass::Detect, 50);
        s.record(MsgClass::Transfer, 1000);
        assert_eq!(s.messages(MsgClass::Detect), 2);
        assert_eq!(s.payload_bytes(MsgClass::Detect), 150);
        assert_eq!(s.messages(MsgClass::Transfer), 1);
        assert_eq!(s.total_messages(), 3);
    }

    #[test]
    fn resolution_messages_combine_ctl_and_transfer() {
        let mut s = NetStats::new();
        s.record(MsgClass::ResolutionCtl, 10);
        s.record(MsgClass::ResolutionCtl, 10);
        s.record(MsgClass::Transfer, 10);
        s.record(MsgClass::Gossip, 10); // not counted
        assert_eq!(s.resolution_messages(), 3);
    }

    #[test]
    fn since_computes_window() {
        let mut s = NetStats::new();
        s.record(MsgClass::App, 10);
        let mark = s.clone();
        s.record(MsgClass::App, 10);
        s.record(MsgClass::App, 10);
        let win = s.since(&mark);
        assert_eq!(win.messages(MsgClass::App), 2);
        assert_eq!(mark.messages(MsgClass::App), 1);
    }

    #[test]
    fn bandwidth_uses_model() {
        let mut s = NetStats::new();
        for _ in 0..168 {
            s.record(MsgClass::ResolutionCtl, 0);
        }
        let class = MsgClass::ResolutionCtl;
        let bps = MessageSizeModel::PAPER_1KB.bandwidth_bps(
            s.messages(class),
            s.payload_bytes(class),
            100.0,
        );
        // Paper: 168 KB over 100 s — trivially small.
        assert!(bps < 56_000.0);
        assert!(bps > 10_000.0);
    }

    #[test]
    fn snapshot_display_elides_empty_classes() {
        let mut s = NetStats::new();
        s.record(MsgClass::Gossip, 5);
        let text = s.snapshot().to_string();
        assert!(text.contains("gossip"));
        assert!(!text.contains("app"));
    }

    #[test]
    fn drop_accounting() {
        let mut s = NetStats::new();
        s.record_drop();
        s.record_drop();
        assert_eq!(s.dropped(), 2);
        assert!(s.snapshot().to_string().contains("dropped"));
    }
}
