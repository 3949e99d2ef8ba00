//! Per-writer timestamp histories: frozen chunks shared behind [`Arc`] plus
//! a small mutable tail per writer, with every writer of one vector held in
//! three flat buffers.
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
//! ## Layout
//!
//! [`Histories`] keeps the writers of one vector side by side, in the order
//! of the vector's counters: one buffer of chunk pointers and one of tail
//! timestamps. A writer of length `n` holds `n / CHUNK` chunks and
//! `n % CHUNK` tail entries, so where each writer's slices start follows
//! from the counters alone ([`Start`]), and the borrowed [`History`] view
//! reads them. Cloning a vector, cutting it and rebuilding a peer's
//! therefore allocate two buffers whatever the number of writers, and none
//! for the chunks while every history is shorter than one. Each tail sits
//! in a run of slots sized to the next power of two, the spare ones zero,
//! so an append writes in place and the writers after it shift only when
//! the tail outgrows its run — as often as a `Vec` of its own would
//! reallocate.
//!
//! The representation is canonical — every frozen chunk is full, every
//! tail holds fewer than [`CHUNK`] entries, and no writer is empty — so the
//! derived structural equality is content equality.

use crate::extended::{note_divergence, Divergence};
use idea_types::{SimTime, UpdateId, WriterId};
use std::sync::Arc;

/// Timestamps per frozen chunk. Large enough that a deep history is a few
/// dozen pointers, small enough that the one partially shared chunk a
/// truncation or a comparison has to touch stays inside L1.
pub(crate) const CHUNK: usize = 256;

/// `CHUNK` consecutive timestamps of one writer, immutable once built.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Chunk {
    times: [SimTime; CHUNK],
    /// Smallest `(time, seq)` among the chunk's entries (`seq` 1-based).
    min: (SimTime, u64),
    /// Largest `(time, seq)` among the chunk's entries.
    max: (SimTime, u64),
}

impl Chunk {
    /// Freezes `times`, a writer's entries from 0-based position `base` on.
    fn freeze(times: [SimTime; CHUNK], base: usize) -> Arc<Chunk> {
        let keys = || times.iter().enumerate().map(|(i, t)| (*t, (base + i) as u64 + 1));
        let (min, max) = (keys().min().expect("non-empty"), keys().max().expect("non-empty"));
        Arc::new(Chunk { times, min, max })
    }
}

/// Timestamps of one writer's updates `1..=len`, oldest first, borrowed
/// from a vector's buffers. An absent writer is the empty view.
///
/// Has no codec: vectors cross the wire as [`crate::VvSummary`] and
/// [`crate::VvDelta`], never as their in-memory chunks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct History<'a> {
    frozen: &'a [Arc<Chunk>],
    /// The newest `len % CHUNK` timestamps (always fewer than `CHUNK`).
    tail: &'a [SimTime],
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

impl<'a> History<'a> {
    /// Number of recorded updates.
    pub(crate) fn len(&self) -> usize {
        self.frozen.len() * CHUNK + self.tail.len()
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
    fn block(&self, k: usize) -> &'a [SimTime] {
        match self.frozen.get(k) {
            Some(c) => &c.times,
            None if k == self.frozen.len() => self.tail,
            None => &[],
        }
    }

    /// `(0-based position, timestamp)` of every entry from `start` on.
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = (usize, SimTime)> + 'a {
        self.runs_from(start)
            .flat_map(|run| run.iter().copied())
            .enumerate()
            .map(move |(i, t)| (start + i, t))
    }

    /// The entries from position `start` on, as at most one slice per
    /// block (for copying them out a slice at a time).
    pub(crate) fn runs_from(&self, start: usize) -> impl Iterator<Item = &'a [SimTime]> + 'a {
        let h = *self;
        (start / CHUNK..=h.frozen.len())
            .map(move |k| h.block(k).get(start.saturating_sub(k * CHUNK)..).unwrap_or(&[]))
    }

    /// The timestamps from position `start` on, copied out.
    #[cfg(test)]
    pub(crate) fn copy_from(&self, start: usize) -> Vec<SimTime> {
        self.iter_from(start).map(|(_, t)| t).collect()
    }

    /// How many leading frozen chunks `self` and `other` hold by the same
    /// pointer (test introspection for the sharing guarantees).
    #[cfg(test)]
    pub(crate) fn shared_chunks(&self, other: &History<'_>) -> usize {
        self.frozen.iter().zip(other.frozen).take_while(|(a, b)| Arc::ptr_eq(a, b)).count()
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
        other: &History<'_>,
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
            let m = ta.len().min(tb.len());
            let seq = |s: usize| (k * CHUNK + s) as u64 + 1;
            // One vector compare settles the common part in the usual case
            // (one side a few entries ahead, nothing rewritten).
            if !same(&ta[..m], &tb[..m]) {
                for s in 0..m {
                    if ta[s] != tb[s] {
                        note_divergence(d, ta[s], writer, seq(s));
                        note_divergence(d, tb[s], writer, seq(s));
                    }
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
    /// [`History::note_divergence`] over the same vectors.
    pub(crate) fn newest_common_before(
        &self,
        other: &History<'_>,
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
            let (ta, tb) = (self.block(k), other.block(k));
            let m = ta.len().min(tb.len());
            if same(&ta[..m], &tb[..m]) {
                // Identical over the common part: every entry is common.
                *last = (*last).max(newest_below(&ta[..m], k * CHUNK, writer, d));
                continue;
            }
            let (base, mut newest) = (k * CHUNK, *last);
            for (s, (ta, tb)) in ta.iter().zip(tb).enumerate() {
                if *ta > newest && ta == tb && key(*ta, writer, (base + s) as u64 + 1) < d {
                    newest = *ta;
                }
            }
            *last = newest;
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
            let newest = newest_below(&self.block(k)[lo..hi], base + lo, writer, d);
            *last = (*last).max(newest);
        }
    }
}

/// The newest of `times` — `writer`'s entries from 0-based position `base`
/// on — whose key sorts before `d` (`ZERO` when none does). Below `d` means
/// an earlier time, or `d`'s time and an id before `d`'s: for one writer,
/// a position below `tied`.
fn newest_below(
    times: &[SimTime],
    base: usize,
    writer: WriterId,
    d: (SimTime, UpdateId),
) -> SimTime {
    let tied = match writer.cmp(&d.1.writer) {
        std::cmp::Ordering::Less => usize::MAX,
        std::cmp::Ordering::Equal => (d.1.seq as usize).saturating_sub(1),
        std::cmp::Ordering::Greater => 0,
    };
    let split = tied.clamp(base, base + times.len()) - base;
    let bound = d.0 .0;
    let at_most = newest_at_most(&times[..split], bound);
    let below = bound.checked_sub(1).map_or(0, |b| newest_at_most(&times[split..], b));
    SimTime(at_most.max(below))
}

/// The largest of `times` no later than `bound` (0 when none is), without
/// a branch per entry.
fn newest_at_most(times: &[SimTime], bound: u64) -> u64 {
    times.iter().map(|t| if t.0 <= bound { t.0 } else { 0 }).fold(0, u64::max)
}

/// Where a writer's data starts in [`Histories`]' two buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Start {
    chunks: usize,
    tail: usize,
}

/// Tail slots a writer whose tail holds `n` entries occupies: `n` rounded
/// up to a power of two (zero for none), the spare slots zero. Appending
/// within the slots moves nothing; only when a tail outgrows them, eight
/// times on its way to [`CHUNK`], do the writers after it shift.
fn tail_slots(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.next_power_of_two()
    }
}

impl Start {
    /// Where the writer after the first `lens.len()` writers starts: each
    /// writer of length `n` holds `n / CHUNK` chunks and the tail slots of
    /// its `n % CHUNK` tail entries, so the offsets follow from the lengths
    /// alone.
    pub(crate) fn after(lens: &[(WriterId, u64)]) -> Start {
        lens.iter().fold(Start::default(), |s, &(_, n)| s.skip(n as usize))
    }

    /// Where the writer after one of length `len` starting here starts.
    pub(crate) fn skip(self, len: usize) -> Start {
        Start { chunks: self.chunks + len / CHUNK, tail: self.tail + tail_slots(len % CHUNK) }
    }
}

/// Every writer's history of one vector, writer by writer in two flat
/// buffers (see the module docs). The buffers hold no lengths: the owning
/// vector's counters do, and a writer is addressed by its [`Start`] and
/// length, both derived from them.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Histories {
    chunks: Vec<Arc<Chunk>>,
    tails: Vec<SimTime>,
}

impl Clone for Histories {
    fn clone(&self) -> Self {
        Histories { chunks: self.chunks.clone(), tails: self.tails.clone() }
    }

    /// Reuses `self`'s buffers when they are large enough.
    fn clone_from(&mut self, source: &Self) {
        self.chunks.clone_from(&source.chunks);
        self.tails.clone_from(&source.tails);
    }
}

impl Histories {
    /// No writer's history; allocates nothing.
    pub(crate) const fn new() -> Self {
        Histories { chunks: Vec::new(), tails: Vec::new() }
    }

    /// Empties the buffers and makes room for writers of lengths `lens`
    /// (the exact size of a rebuilt vector, so rebuilding one allocates
    /// each buffer at most once, and not at all into buffers that already
    /// held one as large).
    pub(crate) fn reset(&mut self, lens: &[(WriterId, u64)]) {
        let size = Start::after(lens);
        self.chunks.clear();
        self.tails.clear();
        self.chunks.reserve_exact(size.chunks);
        self.tails.reserve_exact(size.tail);
    }

    /// The history of the writer of length `len` starting at `at`.
    pub(crate) fn get(&self, at: Start, len: usize) -> History<'_> {
        History {
            frozen: &self.chunks[at.chunks..at.chunks + len / CHUNK],
            tail: &self.tails[at.tail..at.tail + len % CHUNK],
        }
    }

    /// Every writer's history, for writers of lengths `lens` in order.
    pub(crate) fn iter<'a>(
        &'a self,
        lens: &'a [(WriterId, u64)],
    ) -> impl Iterator<Item = History<'a>> + 'a {
        lens.iter().scan(Start::default(), move |at, &(_, n)| {
            let h = self.get(*at, n as usize);
            *at = at.skip(n as usize);
            Some(h)
        })
    }

    /// Appends the timestamp of the next update of the writer of length
    /// `len` starting at `at` (a writer new to the vector has length 0 and
    /// starts where its successor does), freezing its tail into a chunk
    /// when it fills. Shifts the tails of the writers after it only when
    /// its tail outgrows its slots.
    pub(crate) fn push(&mut self, at: Start, len: usize, t: SimTime) {
        let held = len % CHUNK;
        let (slots, grown) = (tail_slots(held), tail_slots(held + 1));
        if grown > slots {
            // Outgrown: open `grown - slots` zero slots after this tail.
            let (spare, old_end) = (at.tail + slots, self.tails.len());
            self.tails.resize(old_end + grown - slots, SimTime::ZERO);
            self.tails.copy_within(spare..old_end, at.tail + grown);
            self.tails[spare..at.tail + grown].fill(SimTime::ZERO);
        }
        self.tails[at.tail + held] = t;
        if held + 1 == CHUNK {
            let times: [SimTime; CHUNK] =
                self.tails[at.tail..at.tail + CHUNK].try_into().expect("tail is CHUNK long");
            self.tails.drain(at.tail..at.tail + CHUNK);
            let end = at.chunks + len / CHUNK;
            self.chunks.insert(end, Chunk::freeze(times, len + 1 - CHUNK));
        }
    }

    /// Cuts the writer of length `len` starting at `at` back to its first
    /// `n` entries (no-op when it is not longer; zero removes every entry).
    /// Whole chunks below the cut stay shared; at most one partial chunk
    /// is copied into the tail.
    pub(crate) fn truncate(&mut self, at: Start, len: usize, n: usize) {
        if n >= len {
            return;
        }
        let (held, whole, rest) = (len / CHUNK, n / CHUNK, n % CHUNK);
        let slots = at.tail..at.tail + tail_slots(len % CHUNK);
        let zeros = tail_slots(rest) - rest;
        if whole < held {
            // The new tail comes out of the first chunk cut away.
            let cut = at.chunks + whole;
            let chunk = Arc::clone(&self.chunks[cut]);
            let tail = chunk.times[..rest].iter().copied();
            self.tails.splice(slots, tail.chain(std::iter::repeat_n(SimTime::ZERO, zeros)));
            self.chunks.drain(cut..at.chunks + held);
        } else {
            self.tails.drain(at.tail + tail_slots(rest)..slots.end);
            self.tails[at.tail + rest..at.tail + rest + zeros].fill(SimTime::ZERO);
        }
    }

    /// Appends a writer after the last one holding `len` entries: the first
    /// `min(end, len)` are `shared`'s (a missing one reads as
    /// [`SimTime::ZERO`]), the rest are `suffix` padded with zeros. Whole
    /// chunks of `shared` lying below `end` are shared, not copied.
    pub(crate) fn push_writer(
        &mut self,
        len: usize,
        shared: History<'_>,
        end: usize,
        suffix: &[SimTime],
    ) {
        let value = |p: usize| match p.checked_sub(end) {
            None => shared.get(p).unwrap_or(SimTime::ZERO),
            Some(i) => suffix.get(i).copied().unwrap_or(SimTime::ZERO),
        };
        let reuse = (end.min(shared.len()) / CHUNK).min(len / CHUNK);
        self.chunks.extend_from_slice(&shared.frozen[..reuse]);
        for k in reuse..len / CHUNK {
            let times = std::array::from_fn(|s| value(k * CHUNK + s));
            self.chunks.push(Chunk::freeze(times, k * CHUNK));
        }
        // The tail in up to four runs: `shared`'s entries, zeros up to
        // `end`, the suffix, zeros up to `len`.
        let from = len / CHUNK * CHUNK;
        let mine = end.min(len).min(shared.len()).max(from);
        self.tails.extend_from_slice(&shared.block(from / CHUNK)[..mine - from]);
        let zeros = end.min(len).max(mine) - mine;
        self.tails.extend(std::iter::repeat_n(SimTime::ZERO, zeros));
        let past = end.max(from);
        let sfx = suffix.get(past - end..).unwrap_or(&[]);
        let copied = sfx.len().min(len.saturating_sub(past));
        self.tails.extend_from_slice(&sfx[..copied]);
        let filled = past + copied;
        self.tails.extend(std::iter::repeat_n(SimTime::ZERO, len.saturating_sub(filled)));
        let held = len % CHUNK;
        self.tails.extend(std::iter::repeat_n(SimTime::ZERO, tail_slots(held) - held));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: WriterId = WriterId(0);

    /// One writer with `n` entries at times `0, 3, 6, …`.
    fn hist(n: usize) -> Histories {
        let mut h = Histories::default();
        for i in 0..n {
            h.push(Start::default(), i, SimTime(i as u64 * 3));
        }
        h
    }

    #[test]
    fn push_freezes_exactly_at_the_chunk_boundary() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK] {
            let h = hist(n);
            let v = h.get(Start::default(), n);
            assert_eq!(v.len(), n);
            assert_eq!(v.frozen_chunks(), n / CHUNK, "n={n}");
            assert!(v.tail.len() < CHUNK);
            assert_eq!(v.copy_from(0), (0..n).map(|i| SimTime(i as u64 * 3)).collect::<Vec<_>>());
            assert_eq!(v.last(), n.checked_sub(1).map(|i| SimTime(i as u64 * 3)));
            assert_eq!(v.max_time(), v.last());
            assert_eq!(v.get(n), None);
        }
        // Pushing to a writer before the last shifts only the later ones.
        let mut h = hist(CHUNK - 1);
        let second = Start::after(&[(W, CHUNK as u64 - 1)]);
        h.push(second, 0, SimTime(7));
        h.push(Start::default(), CHUNK - 1, SimTime(9_000));
        let lens = [(W, CHUNK as u64), (WriterId(1), 1)];
        let got: Vec<_> = h.iter(&lens).collect();
        assert_eq!(got[0].frozen_chunks(), 1);
        assert_eq!(got[0].last(), Some(SimTime(9_000)));
        assert_eq!(got[1].copy_from(0), [SimTime(7)]);
    }

    #[test]
    fn cached_max_tracks_non_monotone_times() {
        let mut h = Histories::default();
        for i in 0..CHUNK as u64 {
            // A peak in the middle; two entries tie on the peak time, the
            // later sequence number wins the key.
            h.push(
                Start::default(),
                i as usize,
                SimTime(if i == 10 || i == 20 { 9_999 } else { i }),
            );
        }
        let v = h.get(Start::default(), CHUNK);
        assert_eq!(v.frozen[0].max, (SimTime(9_999), 21));
        assert_eq!(v.frozen[0].min, (SimTime(0), 1));
        assert_eq!(v.max_time(), Some(SimTime(9_999)));
        assert_eq!(v.last(), Some(SimTime(CHUNK as u64 - 1)));
    }

    #[test]
    fn truncate_and_prefix_are_canonical_and_share_whole_chunks() {
        let len = 3 * CHUNK + 7;
        let full = hist(len);
        let src = full.get(Start::default(), len);
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5, 3 * CHUNK, len, 9_999] {
            let m = n.min(len);
            let want = hist(m);
            let mut cut = full.clone();
            cut.truncate(Start::default(), len, n);
            assert_eq!(cut, want, "truncate({n}) must equal the history built to that length");
            let frozen = want.get(Start::default(), m).frozen_chunks();
            assert_eq!(cut.get(Start::default(), m).shared_chunks(&src), frozen);
            let mut pre = Histories::default();
            pre.push_writer(m, src, m, &[]);
            assert_eq!(pre, want, "prefix({n})");
            assert_eq!(pre.get(Start::default(), m).shared_chunks(&src), frozen);
        }
    }

    /// `push_writer` against the position-by-position definition, across
    /// every way the shared part, the zero padding and the suffix can fall
    /// around chunk boundaries.
    #[test]
    fn push_writer_matches_the_positional_definition() {
        let base = hist(2 * CHUNK + 3);
        let src = base.get(Start::default(), 2 * CHUNK + 3);
        let suffix: Vec<SimTime> = (0..CHUNK as u64 + 9).map(|i| SimTime(100_000 + i)).collect();
        let points =
            [0, 1, CHUNK - 1, CHUNK, CHUNK + 2, 2 * CHUNK + 3, 2 * CHUNK + 9, 3 * CHUNK + 1];
        for len in points {
            for end in points {
                for sfx in [0, 3, suffix.len()] {
                    let mut got = Histories::default();
                    got.push_writer(len, src, end, &suffix[..sfx]);
                    let mut want = Histories::default();
                    for p in 0..len {
                        let t = if p < end {
                            src.get(p).unwrap_or(SimTime::ZERO)
                        } else {
                            suffix[..sfx].get(p - end).copied().unwrap_or(SimTime::ZERO)
                        };
                        want.push(Start::default(), p, t);
                    }
                    assert_eq!(got, want, "len {len} end {end} suffix {sfx}");
                }
            }
        }
    }

    #[test]
    fn iter_from_crosses_chunk_boundaries() {
        let n = 2 * CHUNK + 3;
        let h = hist(n);
        let v = h.get(Start::default(), n);
        for start in [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2, 2 * CHUNK + 3, 5 * CHUNK] {
            let got: Vec<_> = v.iter_from(start).collect();
            let want: Vec<_> = (start..v.len()).map(|i| (i, SimTime(i as u64 * 3))).collect();
            assert_eq!(got, want, "start={start}");
        }
    }
}
