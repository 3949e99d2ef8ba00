//! Hierarchical timer wheel backing the discrete-event queue.
//!
//! Profiling the fig9 sweep showed `BinaryHeap` sift-up/sift-down on the
//! event queue as a top cost at N ≥ 80: every push and pop is `O(log m)`
//! with a cache-hostile access pattern, and a gossip burst queues tens of
//! thousands of deliveries at once. [`TimerWheel`] replaces the heap with
//! the classic hashed hierarchical wheel (Varghese & Lauck, SOSP '87):
//! eleven levels of 64 slots cover the full `u64` microsecond range, a
//! per-level occupancy bitmap finds the next slot in a handful of
//! instructions, and pushes/pops are amortised `O(1)`.
//!
//! Determinism is the hard requirement here, not speed: the engine pins
//! bit-identical runs per seed, so the wheel must pop events in exactly the
//! heap's `(at, seq)` order. Two structural facts make that cheap:
//!
//! * an entry is placed by the **highest bit where its deadline differs
//!   from the cursor**, so a level-0 slot only ever holds entries of a
//!   single microsecond tick, and
//! * `seq` is globally monotonic, so entries arrive at any slot in
//!   ascending `seq` order and within-slot FIFO *is* `(at, seq)` order.
//!
//! The equivalence is proven by a proptest against the heap implementation
//! over random schedule sequences (see the tests below) and by the engine's
//! pinned traces, which did not move when the heap was swapped out.

use std::collections::VecDeque;

/// One queued entry.
#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

const BITS: u32 = 6;
const SLOTS: usize = 1 << BITS; // 64
const LEVELS: usize = 11; // 11 × 6 = 66 bits ≥ u64

/// Deterministic hierarchical timer wheel keyed by `(at, seq)`.
///
/// `pop` returns entries in strictly ascending `(at, seq)` order, exactly
/// matching a min-`BinaryHeap` over the same keys. Deadlines must never be
/// scheduled in the past (`at ≥` the last popped deadline) — the engine
/// guarantees this because timers and deliveries are always armed relative
/// to the current virtual time.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `LEVELS × SLOTS` slots, flattened. Each slot is a FIFO; because
    /// `seq` is monotonic and cascades preserve stored order, every slot
    /// stays sorted by `seq` without ever sorting.
    slots: Vec<VecDeque<Entry<T>>>,
    /// One occupancy bitmap per level; bit `s` set ⇔ slot `s` non-empty.
    occupancy: [u64; LEVELS],
    /// Current position: no queued entry has `at < cursor`.
    cursor: u64,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occupancy: [0; LEVELS],
            cursor: 0,
            len: 0,
        }
    }

    /// Number of queued entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Level an entry for `at` belongs to, relative to the current cursor:
    /// the level containing the highest bit where `at` and the cursor
    /// differ. This keeps every level-0 slot single-tick, which is what
    /// makes within-slot FIFO equal `(at, seq)` order.
    #[inline]
    fn level_for(&self, at: u64) -> usize {
        let diff = at ^ self.cursor;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / BITS) as usize
        }
    }

    #[inline]
    fn slot_of(level: usize, at: u64) -> usize {
        ((at >> (BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
    }

    /// Queues `item` at deadline `at` with tiebreak `seq`.
    ///
    /// `seq` must be strictly greater than every previously pushed `seq`
    /// (a global monotonic counter), and `at` must not lie before the last
    /// popped deadline.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at >= self.cursor, "wheel deadlines must not be in the past");
        let level = self.level_for(at);
        let s = Self::slot_of(level, at);
        let slot = &mut self.slots[level * SLOTS + s];
        debug_assert!(slot.back().is_none_or(|e| e.seq < seq), "seq must be globally monotonic");
        slot.push_back(Entry { at, seq, item });
        self.occupancy[level] |= 1 << s;
        self.len += 1;
    }

    /// Cascades until level 0 holds the minimum entry; returns its slot.
    /// Advances the cursor (never past the minimum deadline).
    fn prepare(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        loop {
            // By construction no occupied slot lies below the cursor's
            // digit at any level, so a shifted bitmap scan finds the
            // earliest occupied slot directly.
            let c0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let bits = self.occupancy[0] >> c0;
            if bits != 0 {
                let s = c0 + bits.trailing_zeros();
                self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | s as u64;
                return Some(s as usize);
            }
            let level = (1..LEVELS)
                .find(|&l| self.occupancy[l] != 0)
                .expect("len > 0 but every level empty");
            let shift = BITS as usize * level;
            let cl = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
            let bits = self.occupancy[level] >> cl;
            debug_assert!(bits != 0, "occupied slot below cursor digit");
            let s = cl + bits.trailing_zeros();
            // Jump to the start of that slot's block (zeroing lower
            // digits), then redistribute its entries into lower levels.
            let high_shift = shift + BITS as usize;
            let high_mask = if high_shift >= 64 { 0 } else { !0u64 << high_shift };
            self.cursor = (self.cursor & high_mask) | ((s as u64) << shift);
            self.occupancy[level] &= !(1 << s);
            let mut cascading = std::mem::take(&mut self.slots[level * SLOTS + s as usize]);
            // Re-insert in stored (ascending seq) order; all lower levels
            // are empty, so per-slot seq order is preserved.
            for e in cascading.drain(..) {
                let lvl = self.level_for(e.at);
                debug_assert!(lvl < level, "cascade must descend");
                let s = Self::slot_of(lvl, e.at);
                self.slots[lvl * SLOTS + s].push_back(e);
                self.occupancy[lvl] |= 1 << s;
            }
            // Hand the buffer back so its capacity is reused.
            self.slots[level * SLOTS + s as usize] = cascading;
        }
    }

    /// Deadline of the next entry, without removing it.
    ///
    /// Read-only on purpose: it must not advance the cursor, because the
    /// engine may peek past a boundary and then inject *earlier* events
    /// (`run_until(t)` followed by a harness send at `t + ε`). The global
    /// minimum always sits in the earliest occupied slot of the lowest
    /// non-empty level, so no cascading is needed to find it.
    pub(crate) fn next_at(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let level =
            (0..LEVELS).find(|&l| self.occupancy[l] != 0).expect("len > 0 but every level empty");
        let shift = BITS as usize * level;
        let cl = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
        let bits = self.occupancy[level] >> cl;
        debug_assert!(bits != 0, "occupied slot below cursor digit");
        let s = cl + bits.trailing_zeros();
        let slot = &self.slots[level * SLOTS + s as usize];
        if level == 0 {
            // Level-0 slots are single-tick: the front entry is minimal.
            slot.front().map(|e| e.at)
        } else {
            // Higher-level slots mix ticks (FIFO is by seq); scan for the
            // earliest deadline. Only hit when level 0 has drained.
            slot.iter().map(|e| e.at).min()
        }
    }

    /// Removes and returns the minimum `(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let s = self.prepare()?;
        let e = self.slots[s].pop_front().expect("prepared slot non-empty");
        if self.slots[s].is_empty() {
            self.occupancy[0] &= !(1 << s);
        }
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(50, 0, "a");
        w.push(10, 1, "b");
        w.push(10, 2, "c");
        w.push(700, 3, "d");
        w.push(50, 4, "e");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, _, x)| x).collect();
        assert_eq!(order, vec!["b", "c", "a", "e", "d"]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_push_during_drain_keeps_order() {
        let mut w = TimerWheel::new();
        w.push(10, 0, 0);
        w.push(10, 1, 1);
        assert_eq!(w.pop().map(|(_, _, x)| x), Some(0));
        // New entry lands at the tick currently being drained.
        w.push(10, 2, 2);
        assert_eq!(w.pop().map(|(_, _, x)| x), Some(1));
        assert_eq!(w.pop().map(|(_, _, x)| x), Some(2));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn far_deadlines_cascade_correctly() {
        let mut w = TimerWheel::new();
        // Deadlines spanning several levels, including block boundaries.
        let ats = [0u64, 63, 64, 65, 4095, 4096, 1 << 30, (1 << 30) + 1, u64::MAX / 2];
        for (i, &at) in ats.iter().enumerate() {
            w.push(at, i as u64, at);
        }
        let mut popped = Vec::new();
        while let Some((at, _, item)) = w.pop() {
            assert_eq!(at, item);
            popped.push(at);
        }
        let mut expect = ats.to_vec();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn next_at_peeks_without_removing() {
        let mut w = TimerWheel::new();
        w.push(500, 0, ());
        w.push(20, 1, ());
        assert_eq!(w.next_at(), Some(20));
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop().map(|(at, _, _)| at), Some(20));
        assert_eq!(w.next_at(), Some(500));
    }

    #[test]
    fn interleaved_push_pop_across_blocks() {
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        let mut push = |w: &mut TimerWheel<u64>, at: u64| {
            w.push(at, seq, at);
            seq += 1;
        };
        push(&mut w, 100);
        push(&mut w, 10_000);
        assert_eq!(w.pop().map(|(at, _, _)| at), Some(100));
        // Cursor sits at 100; push between the cursor and the far entry.
        push(&mut w, 5_000);
        push(&mut w, 101);
        assert_eq!(w.pop().map(|(at, _, _)| at), Some(101));
        assert_eq!(w.pop().map(|(at, _, _)| at), Some(5_000));
        assert_eq!(w.pop().map(|(at, _, _)| at), Some(10_000));
    }

    /// The tentpole proof: over random schedule sequences (pushes at random
    /// future offsets interleaved with pops), the wheel pops exactly the
    /// same `(at, seq)` stream as a `BinaryHeap` — the engine's previous
    /// queue — so swapping it into `SimEngine` is behaviour-preserving
    /// bit for bit.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push `count` entries at `now + offset`.
        Push { offset: u64, count: u8 },
        /// Pop up to `count` entries.
        Pop { count: u8 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u32..8, 0u64..u64::MAX / 4, 1u8..6).prop_map(|(tag, raw, count)| match tag {
            // Mostly near-future pushes…
            0..=3 => Op::Push { offset: raw % 200_000, count: 1 + count % 3 },
            // …some far-future ones to force multi-level cascades…
            4 => Op::Push { offset: raw, count: 1 },
            // …and pops.
            _ => Op::Pop { count },
        })
    }

    proptest! {
        #[test]
        fn matches_binary_heap_exactly(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut wheel = TimerWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64; // last popped deadline: pushes are at ≥ now
            for op in ops {
                match op {
                    Op::Push { offset, count } => {
                        for _ in 0..count {
                            let at = now.saturating_add(offset);
                            wheel.push(at, seq, (at, seq));
                            heap.push(Reverse((at, seq)));
                            seq += 1;
                        }
                    }
                    Op::Pop { count } => {
                        for _ in 0..count {
                            let expect = heap.pop().map(|Reverse(k)| k);
                            let peek = wheel.next_at();
                            prop_assert_eq!(peek, expect.map(|(at, _)| at), "peek diverged");
                            let got = wheel.pop().map(|(at, s, item)| {
                                assert_eq!(item, (at, s), "payload corrupted");
                                (at, s)
                            });
                            prop_assert_eq!(got, expect, "wheel and heap diverged");
                            if let Some((at, _)) = got {
                                now = at;
                            }
                        }
                    }
                }
            }
            // Drain both fully: tails must agree too.
            loop {
                let expect = heap.pop().map(|Reverse(k)| k);
                let got = wheel.pop().map(|(at, s, _)| (at, s));
                prop_assert_eq!(got, expect);
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty());
        }
    }
}
