//! The durability policy knobs a node is built with.

use std::path::PathBuf;

/// When (if ever) WAL appends reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No durability: no files are created, no records are written. The
    /// default — every pinned fixed-seed trace runs exactly as before.
    #[default]
    Off,
    /// Records are appended through the OS page cache without fsync; the
    /// log survives a process crash but not a host crash. Snapshots are
    /// still written durably (tmp + fsync + rename).
    Async,
    /// Appends reach the platter via `fdatasync` before being
    /// acknowledged — survives host crashes. With
    /// [`DurabilityConfig::group_commit`] `== 1` (the default) every
    /// append syncs individually; a wider window coalesces syncs to one
    /// per `group_commit` appends, bounding host-crash loss to the last
    /// `group_commit - 1` records in exchange for write throughput.
    Sync,
}

/// Durability configuration of one node (carried in `IdeaConfig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Fsync policy; [`DurabilityMode::Off`] disables the plane entirely.
    pub mode: DurabilityMode,
    /// The minimum log tail: a shard writes a durable snapshot and
    /// truncates its log once the tail holds this many records *and* at
    /// least as many as the previous snapshot held updates (see
    /// [`crate::ShardWal::should_snapshot`]). Must be positive when the
    /// plane is on.
    pub snapshot_every: u64,
    /// Root directory for WAL and snapshot files (one subdirectory per
    /// node). Must be non-empty when the plane is on.
    pub dir: PathBuf,
    /// Group-commit window under [`DurabilityMode::Sync`]: one `fdatasync`
    /// per this many appends. `1` (the default) is classic per-append
    /// fsync; wider windows coalesce the sync cost across a drain while
    /// explicit flushes (clean shutdown, snapshot installation) still
    /// sync whatever the window is holding. Ignored by other modes. Must
    /// be positive when the plane is on.
    pub group_commit: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            mode: DurabilityMode::Off,
            snapshot_every: 1024,
            dir: PathBuf::new(),
            group_commit: 1,
        }
    }
}

impl DurabilityConfig {
    /// Durability disabled (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Per-append fsync durability rooted at `dir`.
    pub fn sync(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig { mode: DurabilityMode::Sync, dir: dir.into(), ..Self::default() }
    }

    /// Page-cache (no fsync) durability rooted at `dir`.
    pub fn buffered(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig { mode: DurabilityMode::Async, dir: dir.into(), ..Self::default() }
    }

    /// Group-committed fsync durability rooted at `dir`: one `fdatasync`
    /// per `window` appends instead of one per append. `window` is clamped
    /// to at least 1 (which is exactly [`DurabilityConfig::sync`]).
    pub fn sync_grouped(dir: impl Into<PathBuf>, window: u64) -> Self {
        DurabilityConfig {
            mode: DurabilityMode::Sync,
            dir: dir.into(),
            group_commit: window.max(1),
            ..Self::default()
        }
    }

    /// True when the plane writes anything at all.
    pub fn enabled(&self) -> bool {
        self.mode != DurabilityMode::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let c = DurabilityConfig::default();
        assert_eq!(c.mode, DurabilityMode::Off);
        assert!(!c.enabled());
        assert!(c.snapshot_every > 0);
    }

    #[test]
    fn constructors_set_mode_and_dir() {
        let s = DurabilityConfig::sync("/tmp/x");
        assert_eq!(s.mode, DurabilityMode::Sync);
        assert!(s.enabled());
        assert_eq!(s.dir, PathBuf::from("/tmp/x"));
        assert_eq!(s.group_commit, 1, "plain sync is per-append fsync");
        let a = DurabilityConfig::buffered("/tmp/y");
        assert_eq!(a.mode, DurabilityMode::Async);
        assert!(a.enabled());
    }

    #[test]
    fn sync_grouped_sets_and_clamps_the_window() {
        let g = DurabilityConfig::sync_grouped("/tmp/z", 32);
        assert_eq!(g.mode, DurabilityMode::Sync);
        assert_eq!(g.group_commit, 32);
        assert_eq!(DurabilityConfig::sync_grouped("/tmp/z", 0).group_commit, 1);
    }
}
