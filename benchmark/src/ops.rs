//! Seeded input generators. The program under test only ever sees the
//! generated operations — never the seed or the workload's name.

use idea::prelude::{Command, ConsistencyLevel, NodeId, ObjectId, ReadConsistency, UpdatePayload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Nodes of the served deployment.
pub const SERVED_NODES: u32 = 4;
/// Objects of the served deployment (ids `1..=64`).
pub const SERVED_OBJECTS: u64 = 64;
/// Hot objects of `served_read` and the share of operations hitting them.
pub const HOT_OBJECTS: u64 = 8;
const HOT_PERCENT: u32 = 80;
/// Hint floor every node of every workload runs under.
pub const HINT: f64 = 0.95;
/// The floor of the on-demand probing reads of `served_read`.
pub const AT_LEAST_FLOOR: f64 = 0.9;
/// Critical-metadata change of every generated write. The quantifier's
/// default bounds saturate at a numerical error of 40, calibrated for unit
/// deltas; a stroke's ASCII sum (~1,700) would pin every level to its floor
/// after one missed update and leave the level metrics nothing to show.
pub const META_DELTA: i64 = 1;
/// Virtual milliseconds between level polls of a simulated schedule: fine
/// enough that the share of polls within the hint estimates the share of
/// *time* within it, whatever the writers' phases.
pub const POLL_MS: u64 = 250;
/// Mix granularity: every block of this many ops holds the exact mix.
const BLOCK: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Write,
    ReadAny,
    ReadAtLeast,
}

impl OpKind {
    pub fn is_write(self) -> bool {
        self == OpKind::Write
    }
}

/// A whiteboard stroke: position and 16 lower-case letters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stroke {
    pub x: u16,
    pub y: u16,
    pub text: [u8; 16],
}

/// One generated client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub node: NodeId,
    pub object: ObjectId,
    pub kind: OpKind,
    /// Only writes carry a stroke.
    pub stroke: Option<Stroke>,
}

impl Op {
    /// The command the served system receives for this operation.
    pub fn command(&self) -> Command {
        match self.kind {
            OpKind::Write => {
                let Stroke { x, y, text } = self.stroke.expect("writes carry a stroke");
                let text = String::from_utf8(text.to_vec()).expect("strokes are ASCII");
                Command::Write {
                    object: self.object,
                    meta_delta: META_DELTA,
                    payload: UpdatePayload::Stroke { x, y, text },
                }
            }
            OpKind::ReadAny => {
                Command::Read { object: self.object, consistency: ReadConsistency::Any }
            }
            OpKind::ReadAtLeast => Command::Read {
                object: self.object,
                consistency: ReadConsistency::AtLeast(ConsistencyLevel::new(AT_LEAST_FLOOR)),
            },
        }
    }
}

fn stroke(rng: &mut StdRng) -> Stroke {
    let text = std::array::from_fn(|_| b'a' + rng.gen_range(0..26u8));
    Stroke { x: rng.gen_range(0..1024u16), y: rng.gen_range(0..768u16), text }
}

/// A seeded operation stream, generated as it is consumed: a pass of two
/// million operations keeps none of them, so the process's peak memory is
/// the served system's and not the harness's. Every block of [`BLOCK`]
/// operations holds exactly the stream's mix, shuffled.
pub struct OpStream {
    rng: StdRng,
    kinds: Vec<OpKind>,
    /// Position inside the current block; a new block reshuffles.
    at: usize,
    left: usize,
    object: fn(&mut StdRng) -> u64,
}

impl OpStream {
    /// `n` operations (rounded up to whole blocks) of `mix`; `object`
    /// draws each operation's target.
    fn new(seed: u64, n: usize, mix: &[(OpKind, usize)], object: fn(&mut StdRng) -> u64) -> Self {
        assert_eq!(mix.iter().map(|&(_, k)| k).sum::<usize>(), BLOCK, "mix fills one block");
        OpStream {
            rng: StdRng::seed_from_u64(seed),
            kinds: mix.iter().flat_map(|&(kind, k)| std::iter::repeat_n(kind, k)).collect(),
            at: 0,
            left: n.div_ceil(BLOCK) * BLOCK,
            object,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.left == 0 {
            return None;
        }
        if self.at == 0 {
            self.kinds.shuffle(&mut self.rng);
        }
        let kind = self.kinds[self.at];
        self.at = (self.at + 1) % BLOCK;
        self.left -= 1;
        let node = NodeId(self.rng.gen_range(0..SERVED_NODES));
        let object = ObjectId((self.object)(&mut self.rng));
        let stroke = kind.is_write().then(|| stroke(&mut self.rng));
        Some(Op { node, object, kind, stroke })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for OpStream {}

/// `served_write`: 90 % writes, 10 % plain reads; node and object uniform.
pub fn served_write(seed: u64, n: usize) -> OpStream {
    OpStream::new(seed, n, &[(OpKind::Write, 18), (OpKind::ReadAny, 2)], |rng| {
        rng.gen_range(1..=SERVED_OBJECTS)
    })
}

/// `served_read`: 90 % plain reads, 5 % floor reads (the on-demand probe
/// path), 5 % writes; 80 % of operations hit the 8 hot objects.
pub fn served_read(seed: u64, n: usize) -> OpStream {
    let mix = [(OpKind::ReadAny, 18), (OpKind::ReadAtLeast, 1), (OpKind::Write, 1)];
    OpStream::new(seed, n, &mix, |rng| {
        if rng.gen_range(0..100u32) < HOT_PERCENT {
            rng.gen_range(1..=HOT_OBJECTS)
        } else {
            rng.gen_range(HOT_OBJECTS + 1..=SERVED_OBJECTS)
        }
    })
}

/// What a simulated schedule does at one instant.
#[derive(Debug, Clone, PartialEq)]
pub enum SimAction {
    /// `writer` writes `object` (metadata-only, as in the paper's §6 runs).
    Write { writer: NodeId, object: ObjectId },
    /// The harness samples every writer's level estimate.
    Poll,
}

/// One entry of a simulated schedule, at virtual microsecond `at_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent {
    pub at_us: u64,
    pub action: SimAction,
}

/// Shape of a simulated write schedule.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    pub writers: u32,
    pub objects: u64,
    /// Writes per burst, 50 ms apart.
    pub burst: u32,
    /// Mean virtual seconds between the starts of a writer's bursts.
    pub period_s: u64,
    /// Virtual seconds the writers are driven for.
    pub window_s: u64,
}

/// The write schedule of a simulated workload merged with the polling
/// grid, in time order. The gap between a writer's bursts is drawn
/// uniformly from half to one and a half periods: with a fixed period the
/// writers' relative phases — and so how much their bursts overlap — would
/// be frozen for the whole run and differ from seed to seed; drawn gaps
/// let every run visit every overlap, so the metrics describe the protocol
/// rather than the seed.
pub fn sim_schedule(seed: u64, shape: SimShape) -> Vec<SimEvent> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05ee_d0b5);
    let mut events = Vec::new();
    for w in 0..shape.writers {
        let period_ms = shape.period_s * 1_000;
        let mut at_us = rng.gen_range(0..period_ms) * 1_000;
        while at_us < shape.window_s * 1_000_000 {
            for b in 0..u64::from(shape.burst) {
                events.push(SimEvent {
                    at_us: at_us + b * 50_000,
                    action: SimAction::Write {
                        writer: NodeId(w),
                        object: ObjectId(rng.gen_range(1..=shape.objects)),
                    },
                });
            }
            at_us += rng.gen_range(period_ms / 2..period_ms * 3 / 2) * 1_000;
        }
    }
    for tick in 1..=shape.window_s * 1_000 / POLL_MS {
        events.push(SimEvent { at_us: tick * POLL_MS * 1_000, action: SimAction::Poll });
    }
    // Stable: simultaneous events keep generation order (writers, then poll).
    events.sort_by_key(|e| e.at_us);
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(ops: &[Op], kind: OpKind) -> f64 {
        ops.iter().filter(|o| o.kind == kind).count() as f64 / ops.len() as f64
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let all = |stream: OpStream| stream.collect::<Vec<Op>>();
        assert_eq!(all(served_write(7, 2_000)), all(served_write(7, 2_000)));
        assert_eq!(all(served_read(7, 2_000)), all(served_read(7, 2_000)));
        assert_ne!(all(served_write(7, 2_000)), all(served_write(8, 2_000)));
        assert_ne!(all(served_read(7, 2_000)), all(served_read(8, 2_000)));
        assert_eq!(served_write(7, 1_990).len(), 2_000, "rounded up to whole blocks");
        let shape = SimShape { writers: 4, objects: 1, burst: 8, period_s: 2, window_s: 20 };
        assert_eq!(sim_schedule(7, shape), sim_schedule(7, shape));
        assert_ne!(sim_schedule(7, shape), sim_schedule(8, shape));
    }

    #[test]
    fn mixes_are_exact_within_half_a_percent() {
        let w: Vec<Op> = served_write(3, 10_000).collect();
        assert!((share(&w, OpKind::Write) - 0.90).abs() < 0.005);
        assert!((share(&w, OpKind::ReadAny) - 0.10).abs() < 0.005);
        let r: Vec<Op> = served_read(3, 10_000).collect();
        assert!((share(&r, OpKind::ReadAny) - 0.90).abs() < 0.005);
        assert!((share(&r, OpKind::ReadAtLeast) - 0.05).abs() < 0.005);
        assert!((share(&r, OpKind::Write) - 0.05).abs() < 0.005);
    }

    #[test]
    fn served_read_concentrates_on_the_hot_objects() {
        let r: Vec<Op> = served_read(3, 20_000).collect();
        let hot = r.iter().filter(|o| o.object.0 <= HOT_OBJECTS).count() as f64 / r.len() as f64;
        assert!((hot - 0.80).abs() < 0.02, "hot share {hot}");
        assert!(r.iter().all(|o| (1..=SERVED_OBJECTS).contains(&o.object.0)));
    }

    #[test]
    fn writes_carry_a_sixteen_char_stroke_and_reads_nothing() {
        for op in served_write(1, 200) {
            match (&op.kind, &op.stroke) {
                (OpKind::Write, Some(stroke)) => {
                    assert!(stroke.text.iter().all(u8::is_ascii_lowercase));
                    assert!(matches!(
                        op.command(),
                        Command::Write { payload: UpdatePayload::Stroke { text, .. }, .. }
                            if text.len() == 16
                    ));
                }
                (OpKind::ReadAny, None) => {}
                other => panic!("unexpected op shape {other:?}"),
            }
            assert!(op.node.0 < SERVED_NODES);
        }
    }

    #[test]
    fn sim_schedule_is_time_ordered_and_sized_by_its_shape() {
        let shape = SimShape { writers: 4, objects: 1, burst: 8, period_s: 2, window_s: 20 };
        let events = sim_schedule(5, shape);
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        let writes = events.iter().filter(|e| matches!(e.action, SimAction::Write { .. })).count();
        // 10 bursts per writer on average; gaps are drawn, so allow slack.
        assert!((4 * 8 * 7..=4 * 8 * 14).contains(&writes), "{writes} writes");
        assert_eq!(writes % 8, 0, "bursts are whole");
        let polls = events.iter().filter(|e| e.action == SimAction::Poll).count();
        assert_eq!(polls, 20 * 1_000 / POLL_MS as usize);
    }
}
