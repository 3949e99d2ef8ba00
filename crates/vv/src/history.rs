//! One writer's timestamp history: frozen chunks shared behind [`Arc`] plus
//! a small mutable tail.
//!
//! A history only ever grows at its end or is cut back to a prefix, so two
//! vectors that descend from the same replica (a probe baseline and the
//! replica a round later, a peer's vector reconstructed over that
//! baseline) agree on everything below their divergence point. Storing
//! that shared part as immutable fixed-size chunks makes `clone`, prefix
//! extraction and truncation cost `O(chunks)` pointer copies instead of
//! `O(history)` timestamp copies, and lets the triple walk skip a shared
//! chunk by pointer identity. Each frozen chunk caches its smallest and
//! largest `(time, seq)` key: a chunk lying wholly at or past the
//! divergence point can neither move it earlier nor hold a common event
//! before it, and one lying wholly below it contributes its largest key —
//! so for histories whose times mostly grow, both passes of the walk read
//! two keys per chunk and scan only the chunk the divergence falls in,
//! however deep that is.
//!
//! The representation is canonical — every frozen chunk is full and the
//! tail holds fewer than [`CHUNK`] entries — so the derived structural
//! equality is content equality.

use crate::extended::{note_divergence, Divergence};
use idea_types::{SimTime, UpdateId, WriterId};
use std::sync::Arc;

/// Timestamps per frozen chunk. Large enough that a deep history is a few
/// dozen pointers, small enough that the one partially shared chunk a
/// truncation or a comparison has to touch stays inside L1.
pub(crate) const CHUNK: usize = 256;

/// `CHUNK` consecutive timestamps of one writer, immutable once built.
#[derive(Debug, PartialEq, Eq)]
struct Chunk {
    times: [SimTime; CHUNK],
    /// Smallest `(time, seq)` among the chunk's entries (`seq` 1-based).
    min: (SimTime, u64),
    /// Largest `(time, seq)` among the chunk's entries.
    max: (SimTime, u64),
}

/// Timestamps of one writer's updates `1..=len`, oldest first.
///
/// Not serde-annotated: vectors cross the wire as [`crate::VvSummary`] and
/// [`crate::VvDelta`], never as their in-memory chunks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct WriterHistory {
    frozen: Vec<Arc<Chunk>>,
    /// The newest `len % CHUNK` timestamps (always fewer than `CHUNK`).
    tail: Vec<SimTime>,
}

/// Content equality of two timestamp runs, written without an early exit
/// so it compiles to a vector compare (the derived slice `==` stops at the
/// first mismatch and stays scalar).
fn same(a: &[SimTime], b: &[SimTime]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x.0 ^ y.0)) == 0
}

fn key(t: SimTime, writer: WriterId, seq: u64) -> (SimTime, UpdateId) {
    (t, UpdateId { writer, seq })
}

impl WriterHistory {
    /// Number of recorded updates.
    pub(crate) fn len(&self) -> usize {
        self.frozen.len() * CHUNK + self.tail.len()
    }

    /// True when no update is recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.frozen.is_empty() && self.tail.is_empty()
    }

    /// Appends the timestamp of the writer's next update.
    pub(crate) fn push(&mut self, t: SimTime) {
        self.tail.push(t);
        if self.tail.len() == CHUNK {
            let base = (self.frozen.len() * CHUNK) as u64;
            let times: [SimTime; CHUNK] = self.tail[..].try_into().expect("tail is CHUNK long");
            let keys = || times.iter().enumerate().map(|(i, t)| (*t, base + i as u64 + 1));
            let (min, max) = (keys().min().expect("non-empty"), keys().max().expect("non-empty"));
            self.frozen.push(Arc::new(Chunk { times, min, max }));
            self.tail.clear();
        }
    }

    /// Timestamp at 0-based position `i`.
    pub(crate) fn get(&self, i: usize) -> Option<SimTime> {
        match self.frozen.get(i / CHUNK) {
            Some(c) => Some(c.times[i % CHUNK]),
            None => self.tail.get(i - self.frozen.len() * CHUNK).copied(),
        }
    }

    /// Timestamp of the newest recorded update.
    pub(crate) fn last(&self) -> Option<SimTime> {
        self.tail.last().copied().or_else(|| self.frozen.last().map(|c| c.times[CHUNK - 1]))
    }

    /// Chronologically largest recorded timestamp.
    pub(crate) fn max_time(&self) -> Option<SimTime> {
        self.frozen.iter().map(|c| c.max.0).chain(self.tail.iter().copied()).max()
    }

    /// The `k`-th run of at most `CHUNK` timestamps: a frozen chunk, the
    /// tail, or empty beyond both.
    fn block(&self, k: usize) -> &[SimTime] {
        match self.frozen.get(k) {
            Some(c) => &c.times,
            None if k == self.frozen.len() => &self.tail,
            None => &[],
        }
    }

    /// `(0-based position, timestamp)` of every entry from `start` on.
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        (start / CHUNK..=self.frozen.len()).flat_map(move |k| {
            let base = k * CHUNK;
            let skip = start.saturating_sub(base);
            self.block(k).iter().enumerate().skip(skip).map(move |(i, t)| (base + i, *t))
        })
    }

    /// The timestamps from position `start` on, copied out (wire forms).
    pub(crate) fn copy_from(&self, start: usize) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(self.len().saturating_sub(start));
        out.extend(self.iter_from(start).map(|(_, t)| t));
        out
    }

    /// Cuts the history back to its first `n` entries (no-op when it is
    /// not longer). Whole chunks below the cut stay shared; at most one
    /// partial chunk is copied into the tail.
    pub(crate) fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        let (whole, rest) = (n / CHUNK, n % CHUNK);
        if whole < self.frozen.len() {
            self.tail.clear();
            self.tail.extend_from_slice(&self.frozen[whole].times[..rest]);
            self.frozen.truncate(whole);
        } else {
            self.tail.truncate(rest);
        }
    }

    /// The first `min(n, len)` entries as a history of their own, sharing
    /// every whole chunk with `self`.
    pub(crate) fn prefix(&self, n: usize) -> WriterHistory {
        let n = n.min(self.len());
        let whole = n / CHUNK;
        WriterHistory {
            frozen: self.frozen[..whole].to_vec(),
            tail: self.block(whole)[..n % CHUNK].to_vec(),
        }
    }

    /// How many leading frozen chunks `self` and `other` hold by the same
    /// pointer (test introspection for the sharing guarantees).
    #[cfg(test)]
    pub(crate) fn shared_chunks(&self, other: &WriterHistory) -> usize {
        self.frozen.iter().zip(&other.frozen).take_while(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Number of frozen chunks (test introspection).
    #[cfg(test)]
    pub(crate) fn frozen_chunks(&self) -> usize {
        self.frozen.len()
    }

    /// True when block `k` holds no event of `writer` sorting before `d`,
    /// as far as can be told without reading it: it is empty, or frozen
    /// with its smallest key at or past `d`.
    fn nothing_before(&self, k: usize, writer: WriterId, d: (SimTime, UpdateId)) -> bool {
        match self.frozen.get(k) {
            Some(c) => key(c.min.0, writer, c.min.1) >= d,
            None => self.block(k).is_empty(),
        }
    }

    /// Divergence pass of the triple walk: lowers `d` to the earliest event
    /// of `writer` held by only one of the two histories, or by both under
    /// different timestamps. Chunks shared by pointer are skipped outright,
    /// chunks that cannot hold anything earlier than the `d` found so far
    /// after reading their cached keys, chunks equal by content after one
    /// vector compare.
    pub(crate) fn note_divergence(
        &self,
        other: &WriterHistory,
        writer: WriterId,
        d: &mut Divergence,
    ) {
        let blocks = self.len().max(other.len()).div_ceil(CHUNK);
        for k in 0..blocks {
            if let (Some(a), Some(b)) = (self.frozen.get(k), other.frozen.get(k)) {
                if Arc::ptr_eq(a, b) {
                    continue;
                }
            }
            if let Some(cur) = *d {
                if self.nothing_before(k, writer, cur) && other.nothing_before(k, writer, cur) {
                    continue;
                }
            }
            let (ta, tb) = (self.block(k), other.block(k));
            if same(ta, tb) {
                continue;
            }
            let seq = |s: usize| (k * CHUNK + s) as u64 + 1;
            let m = ta.len().min(tb.len());
            for s in 0..m {
                if ta[s] != tb[s] {
                    note_divergence(d, ta[s], writer, seq(s));
                    note_divergence(d, tb[s], writer, seq(s));
                }
            }
            for (s, t) in ta.iter().enumerate().skip(m) {
                note_divergence(d, *t, writer, seq(s));
            }
            for (s, t) in tb.iter().enumerate().skip(m) {
                note_divergence(d, *t, writer, seq(s));
            }
        }
    }

    /// Second pass of the triple walk: raises `last` to the newest event
    /// both histories hold under the same timestamp and whose key sorts
    /// before the divergence `d` found by
    /// [`WriterHistory::note_divergence`] over the same vectors.
    pub(crate) fn newest_common_before(
        &self,
        other: &WriterHistory,
        writer: WriterId,
        d: (SimTime, UpdateId),
        last: &mut SimTime,
    ) {
        let common = self.len().min(other.len());
        for k in 0..common.div_ceil(CHUNK) {
            if self.nothing_before(k, writer, d) {
                continue;
            }
            if let (Some(a), Some(_)) = (self.frozen.get(k), other.frozen.get(k)) {
                // Two full chunks that differed anywhere put a key no
                // larger than `a.max` into `d`; with `a.max` below `d` they
                // are therefore identical and every entry qualifies.
                if key(a.max.0, writer, a.max.1) < d {
                    *last = (*last).max(a.max.0);
                    continue;
                }
            }
            let base = k * CHUNK;
            for (s, (ta, tb)) in self.block(k).iter().zip(other.block(k)).enumerate() {
                if *ta > *last && ta == tb && key(*ta, writer, (base + s) as u64 + 1) < d {
                    *last = *ta;
                }
            }
        }
    }

    /// Raises `last` to the newest timestamp among positions `from..to`
    /// whose key sorts before `d` — the second pass over a range the
    /// remote side is assumed to agree on (below a summary's tail).
    pub(crate) fn newest_before(
        &self,
        from: usize,
        to: usize,
        writer: WriterId,
        d: (SimTime, UpdateId),
        last: &mut SimTime,
    ) {
        let to = to.min(self.len());
        if from >= to {
            return;
        }
        for k in from / CHUNK..to.div_ceil(CHUNK) {
            let base = k * CHUNK;
            let (lo, hi) = (from.saturating_sub(base), (to - base).min(CHUNK));
            if self.nothing_before(k, writer, d) {
                continue;
            }
            if let Some(c) = self.frozen.get(k) {
                if lo == 0 && hi == CHUNK && key(c.max.0, writer, c.max.1) < d {
                    *last = (*last).max(c.max.0);
                    continue;
                }
            }
            for (s, t) in self.block(k)[lo..hi].iter().enumerate() {
                if *t > *last && key(*t, writer, (base + lo + s) as u64 + 1) < d {
                    *last = *t;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(n: usize) -> WriterHistory {
        let mut h = WriterHistory::default();
        for i in 0..n {
            h.push(SimTime(i as u64 * 3));
        }
        h
    }

    #[test]
    fn push_freezes_exactly_at_the_chunk_boundary() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK] {
            let h = hist(n);
            assert_eq!(h.len(), n);
            assert_eq!(h.frozen_chunks(), n / CHUNK, "n={n}");
            assert!(h.tail.len() < CHUNK);
            assert_eq!(h.copy_from(0), (0..n).map(|i| SimTime(i as u64 * 3)).collect::<Vec<_>>());
            assert_eq!(h.last(), n.checked_sub(1).map(|i| SimTime(i as u64 * 3)));
            assert_eq!(h.max_time(), h.last());
            assert_eq!(h.get(n), None);
        }
    }

    #[test]
    fn cached_max_tracks_non_monotone_times() {
        let mut h = WriterHistory::default();
        for i in 0..CHUNK as u64 {
            // A peak in the middle; two entries tie on the peak time, the
            // later sequence number wins the key.
            h.push(SimTime(if i == 10 || i == 20 { 9_999 } else { i }));
        }
        assert_eq!(h.frozen[0].max, (SimTime(9_999), 21));
        assert_eq!(h.frozen[0].min, (SimTime(0), 1));
        assert_eq!(h.max_time(), Some(SimTime(9_999)));
        assert_eq!(h.last(), Some(SimTime(CHUNK as u64 - 1)));
    }

    #[test]
    fn truncate_and_prefix_are_canonical_and_share_whole_chunks() {
        let full = hist(3 * CHUNK + 7);
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5, 3 * CHUNK, 3 * CHUNK + 7, 9_999]
        {
            let want = hist(n.min(full.len()));
            let mut cut = full.clone();
            cut.truncate(n);
            assert_eq!(cut, want, "truncate({n}) must equal the history built to that length");
            assert_eq!(cut.shared_chunks(&full), want.frozen_chunks());
            let pre = full.prefix(n);
            assert_eq!(pre, want, "prefix({n})");
            assert_eq!(pre.shared_chunks(&full), want.frozen_chunks());
        }
    }

    #[test]
    fn iter_from_crosses_chunk_boundaries() {
        let h = hist(2 * CHUNK + 3);
        for start in [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2, 2 * CHUNK + 3, 5 * CHUNK] {
            let got: Vec<_> = h.iter_from(start).collect();
            let want: Vec<_> = (start..h.len()).map(|i| (i, SimTime(i as u64 * 3))).collect();
            assert_eq!(got, want, "start={start}");
        }
    }
}
