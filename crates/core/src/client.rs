//! The typed client layer: Figure 6's application-facing interface as
//! plain-data commands over engine-agnostic sessions.
//!
//! The paper splits IDEA's surface into a *developer* interface (Table 1)
//! and an *end-user* interface (resolution demands, satisfaction feedback).
//! Historically both were raw methods on [`IdeaNode`] that callers could
//! only reach from inside an engine callback. This module lifts them into a
//! serializable [`Command`]/[`Response`] pair — the exact unit a network
//! frontend can carry — executed through the [`EngineHandle`] trait, which
//! both engines implement:
//!
//! * [`idea_net::SimEngine`] — commands run deterministically in virtual
//!   time via `with_node`;
//! * [`idea_net::ShardedEngine`] — commands route to the shard worker
//!   owning the object (`ShardId::of`, the same hash the message mailboxes
//!   use); node-wide commands fan out to every shard worker.
//!
//! Both engines split a node's command over its shards with one function,
//! `route`: the deterministic engine hands it the node's shards
//! directly, the threaded one its shard workers' mailboxes.
//!
//! On top of the command layer sit [`Session`] and [`ObjectHandle`] — the
//! ergonomic application API with per-session defaults (read consistency,
//! hint, priority). The same session code compiles once and runs unchanged
//! on any engine.
//!
//! Reads are consistency-aware ([`ReadConsistency`]): `Any` serves the
//! local replica and probes only when §4.2's read trigger fires (the
//! object's first read at this node, or a replica not locally updated for
//! a while), `AtLeast(level)` additionally starts an on-demand detection
//! probe when the current estimate sits below the requested floor, and
//! `Fresh` always probes. The probe is asynchronous (§4.2's trigger semantics): the
//! response reports the level at read time plus whether a probe was
//! launched, so a client can poll until its floor is met.
//!
//! The paper's integer-coded Table-1 setters are [`ConsistencySpecBuilder`]
//! calls, validated when the [`ConsistencySpec`] is built; each one also
//! travels alone as a `Command::Set*`, which goes through the same builder.

use crate::messages::IdeaMsg;
use crate::protocol::{IdeaNode, NodeReport, ProtocolShard};
use crate::quantify::{MaxBounds, Weights};
use crate::resolution::ResolutionPolicy;
use idea_net::{Context, Proto, ShardedEngine, ShardedProto, SimEngine};
use idea_types::{
    lock, ConsistencyLevel, IdeaError, NodeId, ObjectId, Result, ShardId, SimDuration, SimTime,
    Update, UpdatePayload, WireError,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

// ====================================================================
// Read consistency
// ====================================================================

/// How consistent a session read must be (per-operation choice, as in
/// adaptive-consistency stores that let every read pick its level).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReadConsistency {
    /// Serve the local replica; probe only when §4.2's read trigger fires
    /// (the paper's default).
    #[default]
    Any,
    /// Serve the local replica, and start an on-demand detection probe when
    /// the current level estimate is below this floor, so subsequent reads
    /// see a fresher estimate (and the adaptive layer can resolve).
    AtLeast(ConsistencyLevel),
    /// Always start a detection probe alongside the read — the "retrieve a
    /// new file" trigger of §4.2, applied unconditionally.
    Fresh,
}

// ====================================================================
// ConsistencySpec: the typed replacement for the Table-1 integer surface
// ====================================================================

/// Background-resolution choice inside a [`ConsistencySpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackgroundFreq {
    /// Disable background resolution.
    Disabled,
    /// Run a background round every `period`.
    Every(SimDuration),
}

/// A validated bundle of consistency configuration — the typed form of the
/// Table-1 surface (`set_consistency_metric`, `set_weight`,
/// `set_resolution`, `set_hint`, `set_background_freq`).
///
/// Build one with [`ConsistencySpec::builder`]; every field is optional
/// ("leave unchanged"), and domains are checked at
/// [`ConsistencySpecBuilder::build`] time, so an applied spec can no longer
/// fail. Specs are plain serializable data and travel inside
/// [`Command::Configure`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConsistencySpec {
    // Crate-visible for the codec, whose decode re-validates; everything
    // else builds specs through the builder.
    pub(crate) bounds: Option<MaxBounds>,
    pub(crate) weights: Option<Weights>,
    pub(crate) policy: Option<ResolutionPolicy>,
    pub(crate) hint: Option<f64>,
    pub(crate) background: Option<BackgroundFreq>,
}

impl ConsistencySpec {
    /// Starts an empty builder (all fields "leave unchanged").
    pub fn builder() -> ConsistencySpecBuilder {
        ConsistencySpecBuilder::default()
    }

    /// True when the spec changes nothing.
    pub fn is_empty(&self) -> bool {
        *self == ConsistencySpec::default()
    }

    /// Re-checks every field's domain — used on deserialized specs, whose
    /// fields never went through the builder.
    ///
    /// # Errors
    /// Returns the same [`IdeaError::InvalidParameter`] the builder would.
    pub fn validate(&self) -> Result<()> {
        if let Some(b) = &self.bounds {
            let positive = b.numerical > 0.0 && b.order > 0.0;
            if !positive || b.staleness.is_zero() {
                return Err(IdeaError::InvalidParameter(
                    "consistency metric maxima must be positive",
                ));
            }
        }
        if let Some(w) = &self.weights {
            let non_negative = w.numerical >= 0.0 && w.order >= 0.0 && w.staleness >= 0.0;
            let positive_sum = w.numerical + w.order + w.staleness > 0.0;
            if !non_negative || !positive_sum {
                return Err(IdeaError::InvalidParameter(
                    "weights must be non-negative with a positive sum",
                ));
            }
        }
        if let Some(h) = self.hint {
            if !(0.0..=1.0).contains(&h) {
                return Err(IdeaError::InvalidParameter("hint must be within [0, 1]"));
            }
        }
        if let Some(BackgroundFreq::Every(p)) = self.background {
            if p.is_zero() {
                return Err(IdeaError::InvalidParameter("background period must be positive"));
            }
        }
        Ok(())
    }

    /// Applies the spec to a whole node: [`ConsistencySpec::apply_to_shard`]
    /// on every shard.
    ///
    /// # Errors
    /// Fails only when a deserialized spec carries out-of-domain fields
    /// (see [`ConsistencySpec::validate`]); the first shard rejects before
    /// any shard changed.
    pub fn apply_to(&self, node: &mut IdeaNode) -> Result<()> {
        node.shards_mut().iter_mut().try_for_each(|s| self.apply_to_shard(s))
    }

    /// Applies the spec to one shard (the sharded engine fans the same spec
    /// out to every worker; the hint floor is node-wide behind the shared
    /// core, so repeated application is idempotent).
    ///
    /// # Errors
    /// Fails only when a deserialized spec carries out-of-domain fields.
    pub fn apply_to_shard(&self, shard: &mut ProtocolShard) -> Result<()> {
        self.validate()?;
        if let Some(b) = self.bounds {
            shard.set_bounds(b);
        }
        if let Some(w) = self.weights {
            shard.set_weights(w);
        }
        if let Some(p) = self.policy {
            shard.set_policy(p);
        }
        if let Some(h) = self.hint {
            shard.set_hint_floor(h);
        }
        match self.background {
            Some(BackgroundFreq::Disabled) => shard.set_background_period(None),
            Some(BackgroundFreq::Every(p)) => shard.set_background_period(Some(p)),
            None => {}
        }
        Ok(())
    }
}

/// Builder for [`ConsistencySpec`]; domains are verified in
/// [`ConsistencySpecBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct ConsistencySpecBuilder {
    spec: ConsistencySpec,
    policy_code: Option<u8>,
}

impl ConsistencySpecBuilder {
    /// Casts the application onto IDEA's metric: saturation maxima for the
    /// numerical, order and staleness members (Table-1
    /// `set_consistency_metric(a, b, c)`).
    pub fn metric(mut self, numerical: f64, order: f64, staleness: SimDuration) -> Self {
        self.spec.bounds = Some(MaxBounds { numerical, order, staleness });
        self
    }

    /// Sets the Formula-1 weights (Table-1 `set_weight(a, b, c)`). A member
    /// is disabled by weight 0.
    pub fn weights(mut self, numerical: f64, order: f64, staleness: f64) -> Self {
        self.spec.weights = Some(Weights { numerical, order, staleness });
        self
    }

    /// Selects the resolution strategy by its typed name.
    pub fn resolution(mut self, policy: ResolutionPolicy) -> Self {
        self.spec.policy = Some(policy);
        self.policy_code = None;
        self
    }

    /// Selects the resolution strategy by its Table-1 integer code
    /// (1 = invalidate both, 2 = highest id wins, 3 = priority wins) —
    /// the compatibility path; prefer [`ConsistencySpecBuilder::resolution`].
    pub fn resolution_code(mut self, code: u8) -> Self {
        self.policy_code = Some(code);
        self.spec.policy = None;
        self
    }

    /// Sets the hint floor in `[0, 1]` (Table-1 `set_hint(h)`); 0 marks the
    /// system as not hint-based, 1 tolerates no inconsistency.
    pub fn hint(mut self, hint: f64) -> Self {
        self.spec.hint = Some(hint);
        self
    }

    /// Runs background resolution every `period` (Table-1
    /// `set_background_freq(f)`, as a period).
    pub fn background_every(mut self, period: SimDuration) -> Self {
        self.spec.background = Some(BackgroundFreq::Every(period));
        self
    }

    /// Disables background resolution.
    pub fn no_background(mut self) -> Self {
        self.spec.background = Some(BackgroundFreq::Disabled);
        self
    }

    /// Validates every provided field and returns the immutable spec.
    ///
    /// # Errors
    /// Fails with [`IdeaError::InvalidParameter`] on non-positive metric
    /// maxima, negative or all-zero weights, an unknown resolution code, a
    /// hint outside `[0, 1]`, or a zero background period.
    pub fn build(mut self) -> Result<ConsistencySpec> {
        if let Some(code) = self.policy_code {
            self.spec.policy = Some(
                ResolutionPolicy::from_code(code)
                    .ok_or(IdeaError::InvalidParameter("unknown resolution policy code"))?,
            );
        }
        self.spec.validate()?;
        Ok(self.spec)
    }
}

// ====================================================================
// Command / Response: the serializable operation surface
// ====================================================================

/// One client operation against a node — plain serializable data, the wire
/// unit `idea-transport`'s TCP frontend carries. Covers the end-user
/// interface (write, read, peek, level, report, demand-resolution,
/// dissatisfaction) and every Table-1 setter.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Issue a local write (§4.2 trigger).
    Write {
        /// Object to write.
        object: ObjectId,
        /// Critical-metadata delta the write contributes.
        meta_delta: i64,
        /// Application payload.
        payload: UpdatePayload,
    },
    /// Read the object at the requested consistency.
    Read {
        /// Object to read.
        object: ObjectId,
        /// Per-operation consistency requirement.
        consistency: ReadConsistency,
    },
    /// Cheap poll of the value view — never triggers detection.
    Peek {
        /// Object to peek at.
        object: ObjectId,
    },
    /// The node's current consistency-level estimate.
    Level {
        /// Object queried.
        object: ObjectId,
    },
    /// Full node report for the object.
    Report {
        /// Object reported on.
        object: ObjectId,
    },
    /// End-user demand for an active resolution (§5.1 on-demand mode).
    DemandResolution {
        /// Object to resolve.
        object: ObjectId,
    },
    /// End-user dissatisfaction feedback (§5.1): raise the hint floor by Δ
    /// and resolve, optionally re-weighting the metrics first.
    Dissatisfied {
        /// Object the user is unhappy about.
        object: ObjectId,
        /// Optional re-weighting of the three metrics.
        new_weights: Option<Weights>,
    },
    /// Table-1 `set_consistency_metric(a, b, c)`.
    SetConsistencyMetric {
        /// Numerical-error saturation maximum.
        numerical_max: f64,
        /// Order-error saturation maximum.
        order_max: f64,
        /// Staleness saturation maximum.
        staleness_max: SimDuration,
    },
    /// Table-1 `set_weight(a, b, c)`.
    SetWeight {
        /// Numerical-error weight.
        numerical: f64,
        /// Order-error weight.
        order: f64,
        /// Staleness weight.
        staleness: f64,
    },
    /// Table-1 `set_resolution(r)` by integer code.
    SetResolution {
        /// Policy code (1 = invalidate both, 2 = highest id, 3 = priority).
        code: u8,
    },
    /// Table-1 `set_hint(h)`.
    SetHint {
        /// Hint floor in `[0, 1]`.
        hint: f64,
    },
    /// Table-1 `set_background_freq(f)` (as a period; `None` disables).
    SetBackgroundFreq {
        /// Background-resolution period.
        period: Option<SimDuration>,
    },
    /// Assigns a priority rank to a node (for
    /// [`ResolutionPolicy::PriorityWins`]).
    SetPriority {
        /// Node whose rank is being set.
        node: NodeId,
        /// Priority rank (higher wins).
        priority: u8,
    },
    /// Applies a whole [`ConsistencySpec`] atomically.
    Configure {
        /// The validated spec to apply.
        spec: ConsistencySpec,
    },
}

impl Command {
    /// The object a command addresses, when it is object-addressed — the
    /// routing key the sharded engine hashes (`ShardId::of`). Node-wide
    /// commands (the Table-1 setters) return `None` and fan out to every
    /// shard instead.
    pub fn object(&self) -> Option<ObjectId> {
        match self {
            Command::Write { object, .. }
            | Command::Read { object, .. }
            | Command::Peek { object }
            | Command::Level { object }
            | Command::Report { object }
            | Command::DemandResolution { object }
            | Command::Dissatisfied { object, .. } => Some(*object),
            Command::SetConsistencyMetric { .. }
            | Command::SetWeight { .. }
            | Command::SetResolution { .. }
            | Command::SetHint { .. }
            | Command::SetBackgroundFreq { .. }
            | Command::SetPriority { .. }
            | Command::Configure { .. } => None,
        }
    }
}

/// What a read or peek returns over the command layer: the replica's value
/// view plus the node's level estimate — serializable, unlike the borrowing
/// store snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadResult {
    /// The object read.
    pub object: ObjectId,
    /// Critical metadata value at read time.
    pub meta: i64,
    /// Updates reflected in the replica.
    pub updates: usize,
    /// Issue time of the newest applied update, if any.
    pub latest_update: Option<SimTime>,
    /// The node's consistency-level estimate at read time.
    pub level: ConsistencyLevel,
    /// Whether this read launched a detection probe (read-policy or
    /// consistency-floor triggered).
    pub probed: bool,
}

impl ReadResult {
    /// Copies the scalar fields straight off the borrowing view — a served
    /// `Read` or `Peek` never clones the version vector.
    fn from_view(
        view: &idea_store::SnapshotView<'_>,
        level: ConsistencyLevel,
        probed: bool,
    ) -> Self {
        ReadResult {
            object: view.object,
            meta: view.meta,
            updates: view.updates,
            latest_update: view.latest_update,
            level,
            probed,
        }
    }
}

/// The outcome of one [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The command succeeded and has no payload.
    Done,
    /// A write was applied; the sanctioned update is returned.
    Written {
        /// The update as recorded by the local replica.
        update: Update,
    },
    /// A read or peek succeeded.
    Value {
        /// The replica's value view.
        read: ReadResult,
    },
    /// A level query succeeded.
    Level {
        /// The node's current estimate.
        level: ConsistencyLevel,
    },
    /// A report query succeeded.
    Report {
        /// The full per-object node report.
        report: NodeReport,
    },
    /// The command was rejected (unknown object, out-of-domain parameter,
    /// unavailable engine) — the typed error is serializable, so rejection
    /// behaviour is identical in-process and across a transport.
    Rejected {
        /// Why the command was rejected.
        error: WireError,
    },
}

impl Response {
    fn err(e: impl Into<WireError>) -> Response {
        Response::Rejected { error: e.into() }
    }
}

/// A rejected command, surfaced by the [`Session`] API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandError {
    /// Why the command was rejected.
    pub error: WireError,
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "command rejected: {}", self.error)
    }
}

impl std::error::Error for CommandError {}

impl From<IdeaError> for CommandError {
    fn from(e: IdeaError) -> Self {
        CommandError { error: e.into() }
    }
}

impl From<WireError> for CommandError {
    fn from(error: WireError) -> Self {
        CommandError { error }
    }
}

/// Maps an unexpected response shape to a [`CommandError`].
fn unexpected(what: &'static str, got: Response) -> CommandError {
    match got {
        Response::Rejected { error } => CommandError { error },
        other => {
            CommandError { error: WireError::Protocol(format!("expected {what}, got {other:?}")) }
        }
    }
}

// ====================================================================
// Command execution
// ====================================================================

/// Executes one command against a whole node (the deterministic engine;
/// also the path the applications use from inside protocol callbacks).
/// Splits it over the node's shards exactly as the sharded engine does
/// (the private `route`), with direct access to the shards.
pub fn apply_to_node(
    node: &mut IdeaNode,
    cmd: Command,
    ctx: &mut dyn Context<IdeaMsg>,
) -> Response {
    let mut shards = Direct { shards: node.shards_mut(), ctx };
    route(&mut shards, cmd).unwrap_or_else(Response::err)
}

/// A node's shards as [`route`] reaches them: by index, running a closure
/// on one shard and returning its result. Direct access inside an engine
/// callback ([`apply_to_node`]) cannot fail; a shard worker behind a
/// closed mailbox answers [`WireError::EngineUnavailable`].
trait ShardAccess {
    /// Shards of the node.
    fn count(&self) -> usize;

    /// Runs `f` on shard `shard` and returns what it returned.
    fn query<R: Send + 'static>(
        &mut self,
        shard: usize,
        f: impl FnOnce(&mut ProtocolShard, &mut dyn Context<IdeaMsg>) -> R + Send + 'static,
    ) -> std::result::Result<R, WireError>;
}

/// The shards of a node held in the calling thread.
struct Direct<'a> {
    shards: &'a mut [ProtocolShard],
    ctx: &'a mut dyn Context<IdeaMsg>,
}

impl ShardAccess for Direct<'_> {
    fn count(&self) -> usize {
        self.shards.len()
    }

    fn query<R: Send + 'static>(
        &mut self,
        shard: usize,
        f: impl FnOnce(&mut ProtocolShard, &mut dyn Context<IdeaMsg>) -> R + Send + 'static,
    ) -> std::result::Result<R, WireError> {
        Ok(f(&mut self.shards[shard], &mut *self.ctx))
    }
}

/// The shard workers of one node of a [`ShardedEngine`].
struct Workers<'a, P: ShardedProto + 'static> {
    engine: &'a ShardedEngine<P>,
    node: NodeId,
}

impl<P> ShardAccess for Workers<'_, P>
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    fn count(&self) -> usize {
        self.engine.shards()
    }

    fn query<R: Send + 'static>(
        &mut self,
        shard: usize,
        f: impl FnOnce(&mut ProtocolShard, &mut dyn Context<IdeaMsg>) -> R + Send + 'static,
    ) -> std::result::Result<R, WireError> {
        self.engine.try_query(self.node, shard, f).ok_or_else(engine_unavailable)
    }
}

/// The shard that runs `cmd` on its own: the owner of the object it
/// addresses (`ShardId::of`, the same hash the message mailboxes use).
/// `None` for the commands that span shards — the report (its resolution
/// count is node-wide), the re-weighting dissatisfaction and the node-wide
/// setters; [`route`] splits those.
fn sole_shard(cmd: &Command, shards: usize) -> Option<usize> {
    match cmd {
        Command::Report { .. } | Command::Dissatisfied { new_weights: Some(_), .. } => None,
        cmd => cmd.object().map(|object| ShardId::of(object, shards).index()),
    }
}

/// How a node's command maps onto its shards — the one split both engines
/// use. A command with a [`sole_shard`] runs there. The report is the
/// owner's, with the resolutions of every shard summed. A re-weighting
/// dissatisfaction checks object and weights on the owner first, so a
/// rejected command mutates nothing, then sets the weights on every shard
/// and resolves on the owner. A node-wide setter runs on every shard:
/// shards validate identically, so either all accept or the first rejects
/// before any shard changed.
///
/// # Errors
/// Only what `shards` returns: an engine whose workers are gone.
fn route(shards: &mut impl ShardAccess, cmd: Command) -> std::result::Result<Response, WireError> {
    let n = shards.count();
    if let Some(owner) = sole_shard(&cmd, n) {
        return shards.query(owner, move |s, ctx| apply_to_shard(s, cmd, ctx));
    }
    match cmd {
        Command::Report { object } => {
            let owner = ShardId::of(object, n).index();
            let response = shards.query(owner, move |s, ctx| apply_to_shard(s, cmd, ctx))?;
            let Response::Report { mut report } = response else {
                return Ok(response); // rejected: unknown object
            };
            for shard in (0..n).filter(|&s| s != owner) {
                report.resolutions_initiated +=
                    shards.query(shard, |s, _| s.resolutions_completed())?;
            }
            Ok(Response::Report { report })
        }
        Command::Dissatisfied { object, new_weights: Some(w) } => {
            let owner = ShardId::of(object, n).index();
            let checked = shards.query(owner, move |s, _| {
                s.store().replica(object).map(drop).and_then(|()| validate_weights(&Some(w)))
            })?;
            if let Err(e) = checked {
                return Ok(Response::err(e));
            }
            for shard in 0..n {
                shards.query(shard, move |s, _| s.set_weights(w))?;
            }
            let cmd = Command::Dissatisfied { object, new_weights: None };
            shards.query(owner, move |s, ctx| apply_to_shard(s, cmd, ctx))
        }
        cmd => {
            let mut out = Response::Done;
            for shard in 0..n {
                let cmd = cmd.clone();
                out = shards.query(shard, move |s, ctx| apply_to_shard(s, cmd, ctx))?;
                if matches!(out, Response::Rejected { .. }) {
                    break;
                }
            }
            Ok(out)
        }
    }
}

/// Executes one command against a single shard — the sharded engine's unit
/// of dispatch. Object-addressed commands must be routed to the owning
/// shard (`ShardId::of`, the same hash the message mailboxes use);
/// node-wide setters are applied to this shard only, the engine fans them
/// out.
pub fn apply_to_shard(
    shard: &mut ProtocolShard,
    cmd: Command,
    ctx: &mut dyn Context<IdeaMsg>,
) -> Response {
    match cmd {
        Command::Write { object, meta_delta, payload } => {
            if let Err(e) = shard.store().replica(object) {
                return Response::err(e);
            }
            Response::Written { update: shard.local_write(object, meta_delta, payload, ctx) }
        }
        Command::Read { object, consistency } => {
            match shard
                .probe_for_read(object, consistency, ctx)
                .and_then(|p| Ok((shard.peek(object)?, p)))
            {
                Ok((view, probed)) => Response::Value {
                    read: ReadResult::from_view(&view, shard.level(object), probed),
                },
                Err(e) => Response::err(e),
            }
        }
        Command::Peek { object } => match shard.peek(object) {
            Ok(view) => {
                let read = ReadResult::from_view(&view, shard.level(object), false);
                Response::Value { read }
            }
            Err(e) => Response::err(e),
        },
        Command::Level { object } => match shard.store().replica(object) {
            Ok(_) => Response::Level { level: shard.level(object) },
            Err(e) => Response::err(e),
        },
        Command::Report { object } => match shard.store().replica(object) {
            Ok(_) => Response::Report { report: shard.report(object) },
            Err(e) => Response::err(e),
        },
        Command::DemandResolution { object } => {
            if let Err(e) = shard.store().replica(object) {
                return Response::err(e);
            }
            shard.demand_active_resolution(object, ctx);
            Response::Done
        }
        Command::Dissatisfied { object, new_weights } => {
            if let Err(e) = shard.store().replica(object) {
                return Response::err(e);
            }
            if let Err(e) = validate_weights(&new_weights) {
                return Response::err(e);
            }
            shard.user_dissatisfied(object, new_weights, ctx);
            Response::Done
        }
        Command::SetPriority { node: target, priority } => {
            shard.set_priority(target, priority);
            Response::Done
        }
        other => match setter_spec(other) {
            Ok(spec) => match spec.apply_to_shard(shard) {
                Ok(()) => Response::Done,
                Err(e) => Response::err(e),
            },
            Err(e) => Response::err(e),
        },
    }
}

fn validate_weights(w: &Option<Weights>) -> Result<()> {
    if let Some(w) = w {
        ConsistencySpec::builder().weights(w.numerical, w.order, w.staleness).build()?;
    }
    Ok(())
}

/// Lowers a Table-1 setter command to a validated one-field spec.
fn setter_spec(cmd: Command) -> Result<ConsistencySpec> {
    let b = ConsistencySpec::builder();
    match cmd {
        Command::SetConsistencyMetric { numerical_max, order_max, staleness_max } => {
            b.metric(numerical_max, order_max, staleness_max).build()
        }
        Command::SetWeight { numerical, order, staleness } => {
            b.weights(numerical, order, staleness).build()
        }
        Command::SetResolution { code } => b.resolution_code(code).build(),
        Command::SetHint { hint } => b.hint(hint).build(),
        Command::SetBackgroundFreq { period: Some(p) } => b.background_every(p).build(),
        Command::SetBackgroundFreq { period: None } => b.no_background().build(),
        Command::Configure { spec } => {
            spec.validate()?;
            Ok(spec)
        }
        other => unreachable!("not a setter command: {other:?}"),
    }
}

// ====================================================================
// EngineHandle / CommandExecutor: the execution surface over every engine
// ====================================================================

/// A running deployment that can execute client [`Command`]s against its
/// nodes — the surface [`Session`]s are written against. Implemented by
/// both in-process engines and by the TCP client stub in
/// `idea-transport`, so session-based application code compiles once and
/// runs unchanged locally or against a remote cluster.
///
/// `EngineHandle` is the *exclusive-access* trait (`&mut self`, works for
/// the single-threaded [`SimEngine`]). Engines that can take commands from
/// many threads at once additionally implement the object-safe
/// [`CommandExecutor`] split, which is what a network server fronts; any
/// `Arc<impl CommandExecutor>` is an `EngineHandle` again, so sessions run
/// against shared engines too.
pub trait EngineHandle {
    /// Number of nodes in the deployment.
    fn nodes(&self) -> usize;

    /// Executes `cmd` on `node` and waits for the response. On the
    /// deterministic engine this runs inline in virtual time; on the
    /// threaded engine it posts to the owning worker's mailbox and blocks
    /// for the reply. Engine-level failures (dead worker, lost connection)
    /// surface as [`Response::Rejected`] with the typed [`WireError`] — no
    /// engine panics across this boundary.
    fn execute(&mut self, node: NodeId, cmd: Command) -> Response;

    /// Fire-and-forget variant: posts the command without waiting for its
    /// response. On the threaded engine and the remote stub this is the
    /// genuinely pipelined write-drain fast path — the call returns once
    /// the command is enqueued (or written to the socket), never blocking
    /// on the reply; the deterministic engine executes inline and discards
    /// the response.
    fn submit(&mut self, node: NodeId, cmd: Command) {
        let _ = self.execute(node, cmd);
    }
}

/// A reply callback handed to [`CommandExecutor::dispatch`]; invoked
/// exactly once with the command's outcome, possibly from a worker thread.
pub type ReplyFn = Box<dyn FnOnce(Response) + Send + 'static>;

/// Commands handed to [`CommandExecutor::dispatch_batch`], in arrival
/// order, each with the node it addresses and its reply.
pub type DispatchBatch = Vec<(NodeId, Command, ReplyFn)>;

/// The object-safe, shared-access half of the engine surface: what a
/// network server boxes and fronts. Everything is `&self` (connection
/// handler threads share one executor) and fallible — an engine whose
/// workers are gone returns [`WireError::EngineUnavailable`] instead of
/// panicking, so the same typed error crosses the wire that local callers
/// see.
///
/// Implementors: [`ShardedEngine`] (commands go straight into the
/// existing per-shard mailboxes),
/// [`LockedEngine`] (any `EngineHandle` behind a mutex — how the
/// deterministic engine is served), and the `RemoteEngine` client stub in
/// `idea-transport` (proxying makes a server chainable).
///
/// Ordering: commands dispatched from one thread apply in the order they
/// were handed over *per (node, shard)* — the sharded engine runs each
/// shard worker's mailbox in FIFO order, and commands on different shards
/// run concurrently. A node-wide command (one without a sole owning shard:
/// the report, a re-weighting dissatisfaction, the Table-1 setters) is a
/// barrier: it sees every command handed over before it and none after.
pub trait CommandExecutor: Send + Sync {
    /// Number of nodes in the deployment.
    fn node_count(&self) -> usize;

    /// Executes `cmd` on `node`, blocking for the outcome.
    ///
    /// # Errors
    /// `Err` is reserved for *engine/transport* failures (dead worker,
    /// closed connection); command-level rejections (unknown object,
    /// out-of-domain parameter) arrive as `Ok(Response::Rejected { .. })`.
    fn try_execute(&self, node: NodeId, cmd: Command) -> std::result::Result<Response, WireError>;

    /// Non-blocking dispatch: hands the command to the owning worker's
    /// mailbox where the engine supports it and returns immediately;
    /// `reply` is invoked with the outcome once the worker processed it.
    /// This is what lets one server connection pipeline many in-flight
    /// requests. The default implementation (and node-wide commands on the
    /// sharded engine) executes inline — correct, just not pipelined.
    fn dispatch(&self, node: NodeId, cmd: Command, reply: ReplyFn) {
        let outcome = self.try_execute(node, cmd).unwrap_or_else(Response::err);
        reply(outcome);
    }

    /// Dispatches every command of `batch` as [`CommandExecutor::dispatch`]
    /// would, in order, and leaves `batch` empty (its buffer is the
    /// caller's to reuse). The default hands the commands to `dispatch` one
    /// by one; the sharded engine sends each shard worker one envelope for
    /// all of the batch's commands it owns.
    fn dispatch_batch(&self, batch: &mut DispatchBatch) {
        for (node, cmd, reply) in batch.drain(..) {
            self.dispatch(node, cmd, reply);
        }
    }

    /// Fire-and-forget submission: enqueues the command without any reply
    /// path at all. Command-level rejections (unknown node or object,
    /// out-of-domain parameter) are silently dropped — there is nowhere to
    /// report them, matching [`EngineHandle::submit`].
    ///
    /// # Errors
    /// `Err` is reserved for the engine (or the connection to it) no
    /// longer accepting commands — a consumer may treat it as fatal for
    /// the whole executor, never as a per-command rejection.
    fn try_submit(&self, node: NodeId, cmd: Command) -> std::result::Result<(), WireError> {
        self.try_execute(node, cmd).map(|_| ())
    }
}

/// The typed error for an engine whose worker threads are gone.
fn engine_unavailable() -> WireError {
    WireError::EngineUnavailable("engine worker stopped".into())
}

/// The commands of one [`CommandExecutor::dispatch_batch`] bound for one
/// shard worker, in arrival order — what travels in that worker's
/// envelope. It is also the batch's reply guard: every command it still
/// holds when it drops (the mailbox refused the envelope, the engine
/// stopped with it queued and dropped it unrun, or a command panicked
/// mid-run) is answered with [`WireError::EngineUnavailable`], so a caller
/// blocked on the reply fails fast instead of waiting out a timeout.
struct ShardGroup {
    /// Commands not yet run, in arrival order.
    queued: VecDeque<(Command, ReplyFn)>,
    /// The reply of the command running now.
    running: Option<ReplyFn>,
}

impl ShardGroup {
    fn new(cmd: Command, reply: ReplyFn) -> Self {
        ShardGroup { queued: VecDeque::from([(cmd, reply)]), running: None }
    }

    /// Applies the commands in arrival order, answering each as it runs.
    fn run(mut self, shard: &mut ProtocolShard, ctx: &mut dyn Context<IdeaMsg>) {
        while let Some((cmd, reply)) = self.queued.pop_front() {
            self.running = Some(reply);
            let response = apply_to_shard(shard, cmd, ctx);
            if let Some(reply) = self.running.take() {
                reply(response);
            }
        }
    }
}

impl Drop for ShardGroup {
    fn drop(&mut self) {
        let queued = self.queued.drain(..).map(|(_, reply)| reply);
        for reply in self.running.take().into_iter().chain(queued) {
            reply(Response::err(engine_unavailable()));
        }
    }
}

/// Any [`EngineHandle`] behind a mutex is a shareable [`CommandExecutor`]:
/// commands serialize through the lock. This is how the deterministic
/// [`SimEngine`] — whose command execution is inline and `&mut` — is
/// served over a transport, and it doubles as a correctness reference for
/// the lock-free engine executors.
pub struct LockedEngine<E> {
    inner: Mutex<E>,
}

impl<E> LockedEngine<E> {
    /// Wraps an engine for shared access.
    pub fn new(engine: E) -> Self {
        LockedEngine { inner: Mutex::new(engine) }
    }

    /// Unwraps the engine again (e.g. to stop it after serving).
    pub fn into_inner(self) -> E {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with exclusive access to the wrapped engine — the escape
    /// hatch for engine-specific driving (e.g. `SimEngine::run_for`)
    /// between served commands.
    pub fn with<R>(&self, f: impl FnOnce(&mut E) -> R) -> R {
        f(&mut lock(&self.inner))
    }
}

impl<E: EngineHandle + Send> CommandExecutor for LockedEngine<E> {
    fn node_count(&self) -> usize {
        lock(&self.inner).nodes()
    }

    fn try_execute(&self, node: NodeId, cmd: Command) -> std::result::Result<Response, WireError> {
        Ok(lock(&self.inner).execute(node, cmd))
    }

    fn try_submit(&self, node: NodeId, cmd: Command) -> std::result::Result<(), WireError> {
        lock(&self.inner).submit(node, cmd);
        Ok(())
    }
}

/// A shared executor is itself an [`EngineHandle`], so `Session`s run
/// unchanged against an engine that is concurrently being served (or
/// against any boxed `Arc<dyn CommandExecutor>`).
impl<E: CommandExecutor + ?Sized> EngineHandle for Arc<E> {
    fn nodes(&self) -> usize {
        self.as_ref().node_count()
    }

    fn execute(&mut self, node: NodeId, cmd: Command) -> Response {
        self.as_ref().try_execute(node, cmd).unwrap_or_else(Response::err)
    }

    fn submit(&mut self, node: NodeId, cmd: Command) {
        let _ = self.as_ref().try_submit(node, cmd);
    }
}

/// Anything that embeds an [`IdeaNode`] — the identity for `IdeaNode`
/// itself, and the applications' client types (white board, booking) in
/// `idea-apps`. This is what lets the engine handles drive application
/// protocols through the same command layer.
pub trait IdeaHost {
    /// The embedded IDEA node.
    fn idea(&self) -> &IdeaNode;
    /// Mutable access to the embedded IDEA node.
    fn idea_mut(&mut self) -> &mut IdeaNode;
}

impl IdeaHost for IdeaNode {
    fn idea(&self) -> &IdeaNode {
        self
    }
    fn idea_mut(&mut self) -> &mut IdeaNode {
        self
    }
}

impl<P> EngineHandle for SimEngine<P>
where
    P: Proto<Msg = IdeaMsg> + IdeaHost,
{
    fn nodes(&self) -> usize {
        self.len()
    }

    fn execute(&mut self, node: NodeId, cmd: Command) -> Response {
        if node.index() >= self.len() {
            return Response::err(IdeaError::UnknownNode(node));
        }
        self.with_node(node, |p, ctx| apply_to_node(p.idea_mut(), cmd, ctx))
    }
}

impl<P> CommandExecutor for ShardedEngine<P>
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    fn node_count(&self) -> usize {
        self.len()
    }

    fn try_execute(&self, node: NodeId, cmd: Command) -> std::result::Result<Response, WireError> {
        if node.index() >= self.len() {
            return Ok(Response::err(IdeaError::UnknownNode(node)));
        }
        route(&mut Workers { engine: self, node }, cmd)
    }

    fn dispatch(&self, node: NodeId, cmd: Command, reply: ReplyFn) {
        dispatch_in_groups(self, [(node, cmd, reply)]);
    }

    fn dispatch_batch(&self, batch: &mut DispatchBatch) {
        dispatch_in_groups(self, batch.drain(..));
    }

    fn try_submit(&self, node: NodeId, cmd: Command) -> std::result::Result<(), WireError> {
        if node.index() >= self.len() {
            return Ok(()); // dropped rejection, per the trait contract
        }
        let Some(owner) = sole_shard(&cmd, self.shards()) else {
            return self.try_execute(node, cmd).map(drop);
        };
        if self.try_invoke(node, owner, move |s, ctx| drop(apply_to_shard(s, cmd, ctx))) {
            Ok(())
        } else {
            Err(engine_unavailable())
        }
    }
}

/// The sharded engine's [`CommandExecutor::dispatch_batch`] (and, for a
/// batch of one, its `dispatch`). Commands with a sole shard pipeline
/// through that shard's mailbox, one envelope per (node, shard) group; the
/// rest (the report, re-weighting, the node-wide setters) are
/// control-plane traffic and execute inline on the calling thread, after
/// the groups gathered before them are sent, so they see those commands
/// applied.
fn dispatch_in_groups<P>(
    engine: &ShardedEngine<P>,
    commands: impl IntoIterator<Item = (NodeId, Command, ReplyFn)>,
) where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    let mut groups: Vec<(NodeId, usize, ShardGroup)> = Vec::new();
    for (node, cmd, reply) in commands {
        if node.index() >= engine.len() {
            reply(Response::err(IdeaError::UnknownNode(node)));
            continue;
        }
        let Some(owner) = sole_shard(&cmd, engine.shards()) else {
            send_groups(engine, &mut groups);
            reply(engine.try_execute(node, cmd).unwrap_or_else(Response::err));
            continue;
        };
        match groups.iter_mut().find(|(n, s, _)| (*n, *s) == (node, owner)) {
            Some((_, _, group)) => group.queued.push_back((cmd, reply)),
            None => groups.push((node, owner, ShardGroup::new(cmd, reply))),
        }
    }
    send_groups(engine, &mut groups);
}

/// Sends each of a batch's shard groups to its worker as one envelope, in
/// order.
fn send_groups<P>(engine: &ShardedEngine<P>, groups: &mut Vec<(NodeId, usize, ShardGroup)>)
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    for (node, shard, group) in groups.drain(..) {
        // A refused envelope is dropped with the group in it, and the
        // group's guard answers every command.
        let _sent = engine.try_invoke(node, shard, move |s, ctx| group.run(s, ctx));
    }
}

impl<P> EngineHandle for ShardedEngine<P>
where
    P: ShardedProto<Msg = IdeaMsg, Shard = ProtocolShard> + 'static,
{
    fn nodes(&self) -> usize {
        self.len()
    }

    fn execute(&mut self, node: NodeId, cmd: Command) -> Response {
        CommandExecutor::try_execute(self, node, cmd).unwrap_or_else(Response::err)
    }

    fn submit(&mut self, node: NodeId, cmd: Command) {
        let _ = CommandExecutor::try_submit(self, node, cmd);
    }
}

// ====================================================================
// Session / ObjectHandle: the ergonomic application API
// ====================================================================

/// A client session bound to one node of a running deployment. Carries the
/// session defaults (read consistency; hint and priority are set through
/// the session-level setters) and hands out per-object [`ObjectHandle`]s.
///
/// ```
/// use idea_core::client::{ReadConsistency, Session};
/// use idea_core::{IdeaConfig, IdeaNode};
/// use idea_net::{SimConfig, SimEngine, Topology};
/// use idea_types::{ConsistencyLevel, NodeId, ObjectId, UpdatePayload};
///
/// let object = ObjectId(1);
/// let nodes: Vec<IdeaNode> =
///     (0..2).map(|i| IdeaNode::new(NodeId(i), IdeaConfig::default(), &[object])).collect();
/// let mut net = SimEngine::new(Topology::lan(2), SimConfig::default(), nodes);
///
/// let mut session = Session::open(&mut net, NodeId(0))
///     .read_consistency(ReadConsistency::AtLeast(ConsistencyLevel::new(0.9)));
/// let mut board = session.object(object);
/// board.write(7, UpdatePayload::none()).unwrap();
/// let read = board.read().unwrap();
/// assert_eq!(read.meta, 7);
/// ```
pub struct Session<'e, E: EngineHandle + ?Sized> {
    engine: &'e mut E,
    node: NodeId,
    read: ReadConsistency,
}

impl<'e, E: EngineHandle + ?Sized> Session<'e, E> {
    /// Opens a session against `node` of a running deployment.
    pub fn open(engine: &'e mut E, node: NodeId) -> Self {
        Session { engine, node, read: ReadConsistency::Any }
    }

    /// The node this session talks to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sets the session's default read consistency (used by
    /// [`ObjectHandle::read`]).
    pub fn read_consistency(mut self, read: ReadConsistency) -> Self {
        self.read = read;
        self
    }

    /// Executes a raw command on the session's node.
    pub fn execute(&mut self, cmd: Command) -> Response {
        self.engine.execute(self.node, cmd)
    }

    /// Posts a raw command without waiting for the response.
    pub fn submit(&mut self, cmd: Command) {
        self.engine.submit(self.node, cmd);
    }

    /// Applies a validated [`ConsistencySpec`] to the session's node.
    ///
    /// # Errors
    /// Propagates a rejection (only possible for hand-built or
    /// deserialized specs that bypassed the builder).
    pub fn configure(&mut self, spec: ConsistencySpec) -> std::result::Result<(), CommandError> {
        match self.execute(Command::Configure { spec }) {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", other)),
        }
    }

    /// Sets this session's hint floor (Table-1 `set_hint`; node-wide on the
    /// session's node).
    ///
    /// # Errors
    /// Fails when the hint is outside `[0, 1]`.
    pub fn set_hint(&mut self, hint: f64) -> std::result::Result<(), CommandError> {
        match self.execute(Command::SetHint { hint }) {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", other)),
        }
    }

    /// Registers this session's node priority (for
    /// [`ResolutionPolicy::PriorityWins`]) on **every** node of the
    /// deployment — priorities are consulted by whichever node initiates a
    /// resolution.
    ///
    /// # Errors
    /// Propagates the first rejection.
    pub fn set_priority(&mut self, priority: u8) -> std::result::Result<(), CommandError> {
        let me = self.node;
        for i in 0..self.engine.nodes() {
            let r =
                self.engine.execute(NodeId(i as u32), Command::SetPriority { node: me, priority });
            if !matches!(r, Response::Done) {
                return Err(unexpected("Done", r));
            }
        }
        Ok(())
    }

    /// A handle on one replicated object through this session.
    pub fn object(&mut self, object: ObjectId) -> ObjectHandle<'_, 'e, E> {
        ObjectHandle { session: self, object }
    }
}

/// One replicated object as seen through a [`Session`].
pub struct ObjectHandle<'s, 'e, E: EngineHandle + ?Sized> {
    session: &'s mut Session<'e, E>,
    object: ObjectId,
}

impl<E: EngineHandle + ?Sized> ObjectHandle<'_, '_, E> {
    /// The object this handle addresses.
    pub fn id(&self) -> ObjectId {
        self.object
    }

    /// Writes to the object and returns the sanctioned update.
    ///
    /// # Errors
    /// Fails when the session's node hosts no replica of the object.
    pub fn write(
        &mut self,
        meta_delta: i64,
        payload: UpdatePayload,
    ) -> std::result::Result<Update, CommandError> {
        let object = self.object;
        match self.session.execute(Command::Write { object, meta_delta, payload }) {
            Response::Written { update } => Ok(update),
            other => Err(unexpected("Written", other)),
        }
    }

    /// Posts a write without waiting for the sanctioned update — the
    /// fire-and-forget fast path.
    pub fn post(&mut self, meta_delta: i64, payload: UpdatePayload) {
        let object = self.object;
        self.session.submit(Command::Write { object, meta_delta, payload });
    }

    /// Reads the object at the session's default read consistency.
    ///
    /// # Errors
    /// Fails when the session's node hosts no replica of the object.
    pub fn read(&mut self) -> std::result::Result<ReadResult, CommandError> {
        let consistency = self.session.read;
        self.read_with(consistency)
    }

    /// Reads the object at an explicit per-operation consistency.
    ///
    /// # Errors
    /// Fails when the session's node hosts no replica of the object.
    pub fn read_with(
        &mut self,
        consistency: ReadConsistency,
    ) -> std::result::Result<ReadResult, CommandError> {
        let object = self.object;
        match self.session.execute(Command::Read { object, consistency }) {
            Response::Value { read } => Ok(read),
            other => Err(unexpected("Value", other)),
        }
    }

    /// Cheap poll of the value view; never triggers detection.
    ///
    /// # Errors
    /// Fails when the session's node hosts no replica of the object.
    pub fn peek(&mut self) -> std::result::Result<ReadResult, CommandError> {
        let object = self.object;
        match self.session.execute(Command::Peek { object }) {
            Response::Value { read } => Ok(read),
            other => Err(unexpected("Value", other)),
        }
    }

    /// The node's current consistency-level estimate for the object.
    ///
    /// # Errors
    /// Fails when the node is unknown or hosts no replica of the object —
    /// surfaced rather than mapped to a sentinel level, so a poll-until-
    /// floor loop cannot spin forever against a nonexistent target.
    pub fn level(&mut self) -> std::result::Result<ConsistencyLevel, CommandError> {
        let object = self.object;
        match self.session.execute(Command::Level { object }) {
            Response::Level { level } => Ok(level),
            other => Err(unexpected("Level", other)),
        }
    }

    /// Full node report for the object.
    ///
    /// # Errors
    /// Fails when the command is rejected (unknown node).
    pub fn report(&mut self) -> std::result::Result<NodeReport, CommandError> {
        let object = self.object;
        match self.session.execute(Command::Report { object }) {
            Response::Report { report } => Ok(report),
            other => Err(unexpected("Report", other)),
        }
    }

    /// Demands an active resolution of the object (§5.1 on-demand mode).
    ///
    /// # Errors
    /// Fails when the session's node hosts no replica of the object.
    pub fn demand_resolution(&mut self) -> std::result::Result<(), CommandError> {
        let object = self.object;
        match self.session.execute(Command::DemandResolution { object }) {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", other)),
        }
    }

    /// Tells IDEA the current consistency is unacceptable (§5.1): raises
    /// the hint floor by Δ and resolves, optionally re-weighting first.
    ///
    /// # Errors
    /// Fails when the session's node hosts no replica of the object or the
    /// weights are out of domain.
    pub fn dissatisfied(
        &mut self,
        new_weights: Option<Weights>,
    ) -> std::result::Result<(), CommandError> {
        let object = self.object;
        match self.session.execute(Command::Dissatisfied { object, new_weights }) {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IdeaConfig;
    use idea_net::{SimConfig, Topology};

    const OBJ: ObjectId = ObjectId(1);

    fn engine(n: usize) -> SimEngine<IdeaNode> {
        let nodes: Vec<IdeaNode> = (0..n)
            .map(|i| IdeaNode::new(NodeId(i as u32), IdeaConfig::default(), &[OBJ]))
            .collect();
        SimEngine::new(Topology::lan(n), SimConfig::default(), nodes)
    }

    #[test]
    fn spec_builder_validates_at_construction() {
        assert!(ConsistencySpec::builder()
            .metric(0.0, 1.0, SimDuration::from_secs(1))
            .build()
            .is_err());
        assert!(ConsistencySpec::builder().weights(-1.0, 1.0, 1.0).build().is_err());
        assert!(ConsistencySpec::builder().weights(0.0, 0.0, 0.0).build().is_err());
        assert!(ConsistencySpec::builder().resolution_code(0).build().is_err());
        assert!(ConsistencySpec::builder().resolution_code(4).build().is_err());
        assert!(ConsistencySpec::builder().hint(1.5).build().is_err());
        assert!(ConsistencySpec::builder().background_every(SimDuration::ZERO).build().is_err());
        let ok = ConsistencySpec::builder()
            .metric(10.0, 10.0, SimDuration::from_secs(10))
            .weights(0.4, 0.0, 0.6)
            .resolution(ResolutionPolicy::PriorityWins)
            .hint(0.9)
            .background_every(SimDuration::from_secs(20))
            .build()
            .unwrap();
        assert!(!ok.is_empty());
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn spec_applies_everything_it_carries() {
        let mut node = IdeaNode::new(NodeId(0), IdeaConfig::default(), &[OBJ]);
        let spec = ConsistencySpec::builder()
            .metric(5.0, 6.0, SimDuration::from_secs(7))
            .weights(0.4, 0.0, 0.6)
            .resolution_code(3)
            .hint(0.85)
            .background_every(SimDuration::from_secs(30))
            .build()
            .unwrap();
        spec.apply_to(&mut node).unwrap();
        assert_eq!(node.quantifier().bounds().numerical, 5.0);
        assert_eq!(node.quantifier().weights().order, 0.0);
        assert_eq!(node.config().policy, ResolutionPolicy::PriorityWins);
        assert!((node.hint().floor().value() - 0.85).abs() < 1e-12);
        assert_eq!(node.config().background_period, Some(SimDuration::from_secs(30)));
        ConsistencySpec::builder().no_background().build().unwrap().apply_to(&mut node).unwrap();
        assert_eq!(node.config().background_period, None);
    }

    /// Builds a one-field spec and applies it to `node`.
    fn apply(node: &mut IdeaNode, b: ConsistencySpecBuilder) -> Result<()> {
        b.build()?.apply_to(node)
    }

    fn node() -> IdeaNode {
        IdeaNode::new(NodeId(0), IdeaConfig::default(), &[OBJ])
    }

    // One test per Table-1 setter (§4.7): the domain each accepts and
    // rejects, spelled with the builder.

    #[test]
    fn spec_metric_updates_bounds() {
        let mut n = node();
        apply(&mut n, ConsistencySpec::builder().metric(5.0, 6.0, SimDuration::from_secs(7)))
            .unwrap();
        let b = n.quantifier().bounds();
        assert_eq!((b.numerical, b.order), (5.0, 6.0));
        assert_eq!(b.staleness, SimDuration::from_secs(7));
    }

    #[test]
    fn spec_metric_rejects_bad_domain() {
        for (a, b, c) in [
            (0.0, 1.0, SimDuration::from_secs(1)),
            (1.0, 0.0, SimDuration::from_secs(1)),
            (-2.0, 1.0, SimDuration::from_secs(1)),
            (1.0, 1.0, SimDuration::ZERO),
        ] {
            assert!(ConsistencySpec::builder().metric(a, b, c).build().is_err(), "<{a}, {b}, {c}>");
        }
    }

    #[test]
    fn spec_weights_normalise() {
        let mut n = node();
        apply(&mut n, ConsistencySpec::builder().weights(0.4, 0.0, 0.6)).unwrap();
        let w = n.quantifier().weights();
        assert!((w.numerical - 0.4).abs() < 1e-12);
        assert_eq!(w.order, 0.0);
        for (a, b, c) in [(-1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (1.0, -0.1, 0.0)] {
            assert!(
                ConsistencySpec::builder().weights(a, b, c).build().is_err(),
                "<{a}, {b}, {c}>"
            );
        }
    }

    #[test]
    fn spec_resolution_accepts_paper_codes() {
        let mut n = node();
        for (code, policy) in [
            (1, ResolutionPolicy::InvalidateBoth),
            (2, ResolutionPolicy::HighestIdWins),
            (3, ResolutionPolicy::PriorityWins),
        ] {
            apply(&mut n, ConsistencySpec::builder().resolution_code(code)).unwrap();
            assert_eq!(n.config().policy, policy, "code {code}");
        }
        for code in [0u8, 4, 255] {
            assert!(ConsistencySpec::builder().resolution_code(code).build().is_err(), "{code}");
        }
    }

    #[test]
    fn spec_hint_domain() {
        let mut n = node();
        apply(&mut n, ConsistencySpec::builder().hint(0.85)).unwrap();
        assert!((n.hint().floor().value() - 0.85).abs() < 1e-12);
        // Hint 0 marks the system as not hint-based; 1 tolerates nothing.
        apply(&mut n, ConsistencySpec::builder().hint(0.0)).unwrap();
        assert!(!n.hint().enabled());
        apply(&mut n, ConsistencySpec::builder().hint(1.0)).unwrap();
        assert!(n.hint().enabled());
        for h in [-0.1, 1.1, f64::INFINITY] {
            assert!(ConsistencySpec::builder().hint(h).build().is_err(), "hint {h}");
        }
    }

    #[test]
    fn spec_background_round_trips() {
        let mut n = node();
        apply(&mut n, ConsistencySpec::builder().background_every(SimDuration::from_secs(20)))
            .unwrap();
        assert_eq!(n.config().background_period, Some(SimDuration::from_secs(20)));
        apply(&mut n, ConsistencySpec::builder().no_background()).unwrap();
        assert_eq!(n.config().background_period, None);
        assert!(ConsistencySpec::builder().background_every(SimDuration::ZERO).build().is_err());
    }

    #[test]
    fn commands_round_trip_through_the_sim_engine() {
        let mut eng = engine(2);
        let r = eng.execute(
            NodeId(0),
            Command::Write { object: OBJ, meta_delta: 4, payload: UpdatePayload::none() },
        );
        let Response::Written { update } = r else { panic!("write must return Written: {r:?}") };
        assert_eq!(update.meta_delta, 4);

        let r = eng
            .execute(NodeId(0), Command::Read { object: OBJ, consistency: ReadConsistency::Any });
        let Response::Value { read } = r else { panic!("read must return Value: {r:?}") };
        assert_eq!(read.meta, 4);
        assert_eq!(read.updates, 1);

        let r = eng.execute(NodeId(0), Command::Level { object: OBJ });
        assert!(matches!(r, Response::Level { .. }));

        let r = eng.execute(NodeId(0), Command::Report { object: OBJ });
        let Response::Report { report } = r else { panic!("report: {r:?}") };
        assert_eq!(report.meta, 4);
    }

    #[test]
    fn unknown_objects_and_nodes_reject_instead_of_panicking() {
        let mut eng = engine(2);
        let missing = ObjectId(99);
        for cmd in [
            Command::Write { object: missing, meta_delta: 1, payload: UpdatePayload::none() },
            Command::Read { object: missing, consistency: ReadConsistency::Fresh },
            Command::Peek { object: missing },
            Command::Level { object: missing },
            Command::Report { object: missing },
            Command::DemandResolution { object: missing },
            Command::Dissatisfied { object: missing, new_weights: None },
        ] {
            assert!(
                matches!(eng.execute(NodeId(0), cmd.clone()), Response::Rejected { .. }),
                "{cmd:?} must reject"
            );
        }
        let r = eng.execute(NodeId(7), Command::Level { object: OBJ });
        assert!(matches!(r, Response::Rejected { .. }));
    }

    #[test]
    fn setter_commands_match_the_developer_api() {
        let mut eng = engine(1);
        assert_eq!(eng.execute(NodeId(0), Command::SetHint { hint: 0.9 }), Response::Done);
        assert!(matches!(
            eng.execute(NodeId(0), Command::SetHint { hint: 1.5 }),
            Response::Rejected { .. }
        ));
        assert_eq!(eng.execute(NodeId(0), Command::SetResolution { code: 3 }), Response::Done);
        let mut reference = IdeaNode::new(NodeId(0), IdeaConfig::default(), &[OBJ]);
        let spec = ConsistencySpec::builder().hint(0.9).resolution_code(3).build().unwrap();
        spec.apply_to(&mut reference).unwrap();
        assert_eq!(eng.node(NodeId(0)).config().policy, reference.config().policy);
        assert_eq!(eng.node(NodeId(0)).hint().floor().value(), reference.hint().floor().value());
    }

    #[test]
    fn at_least_reads_probe_only_below_the_floor() {
        let mut eng = engine(2);
        eng.execute(
            NodeId(0),
            Command::Write { object: OBJ, meta_delta: 1, payload: UpdatePayload::none() },
        );
        // A perfect local estimate satisfies any floor: no probe beyond the
        // read policy's own (first read triggers one — consume it first).
        let first = match eng
            .execute(NodeId(0), Command::Read { object: OBJ, consistency: ReadConsistency::Any })
        {
            Response::Value { read } => read,
            r => panic!("{r:?}"),
        };
        assert!(first.probed, "first read probes per the read policy");
        let satisfied = match eng.execute(
            NodeId(0),
            Command::Read {
                object: OBJ,
                consistency: ReadConsistency::AtLeast(ConsistencyLevel::new(0.5)),
            },
        ) {
            Response::Value { read } => read,
            r => panic!("{r:?}"),
        };
        assert!(!satisfied.probed, "estimate {:?} already meets 0.5", satisfied.level);
        let fresh = match eng
            .execute(NodeId(0), Command::Read { object: OBJ, consistency: ReadConsistency::Fresh })
        {
            Response::Value { read } => read,
            r => panic!("{r:?}"),
        };
        assert!(fresh.probed, "Fresh always probes");
    }

    /// The on-demand half of `AtLeast`: a node whose estimate genuinely
    /// sits below the floor must launch a detection probe on read.
    #[test]
    fn at_least_reads_probe_when_below_the_floor() {
        let mut eng = engine(2);
        // Node 1 writes five updates node 0 never fetches; node 0's first
        // read starts a detection round whose reply quantifies the gap.
        for _ in 0..5 {
            eng.execute(
                NodeId(1),
                Command::Write { object: OBJ, meta_delta: 3, payload: UpdatePayload::none() },
            );
            eng.run_for(SimDuration::from_secs(1));
        }
        eng.run_for(SimDuration::from_secs(3));
        eng.execute(NodeId(0), Command::Read { object: OBJ, consistency: ReadConsistency::Fresh });
        eng.run_for(SimDuration::from_secs(3));
        let level = eng.node(NodeId(0)).level(OBJ);
        assert!(
            level < ConsistencyLevel::PERFECT,
            "setup must leave node 0 below perfect, got {level:?}"
        );

        let below = match eng.execute(
            NodeId(0),
            Command::Read {
                object: OBJ,
                consistency: ReadConsistency::AtLeast(ConsistencyLevel::PERFECT),
            },
        ) {
            Response::Value { read } => read,
            r => panic!("{r:?}"),
        };
        assert!(below.probed, "below-floor AtLeast read must launch the on-demand probe");
        assert!(below.level < ConsistencyLevel::PERFECT);

        // The same node at a floor it already meets stays quiet.
        let met = match eng.execute(
            NodeId(0),
            Command::Read {
                object: OBJ,
                consistency: ReadConsistency::AtLeast(ConsistencyLevel::new(0.05)),
            },
        ) {
            Response::Value { read } => read,
            r => panic!("{r:?}"),
        };
        assert!(!met.probed, "met floor must not probe (level {:?})", met.level);
    }

    #[test]
    fn sessions_default_and_override_read_consistency() {
        let mut eng = engine(2);
        let mut session =
            Session::open(&mut eng, NodeId(0)).read_consistency(ReadConsistency::Fresh);
        let mut obj = session.object(OBJ);
        obj.write(3, UpdatePayload::none()).unwrap();
        let read = obj.read().unwrap();
        assert!(read.probed, "session default Fresh must probe");
        let peek = obj.peek().unwrap();
        assert!(!peek.probed);
        assert_eq!(peek.meta, 3);
        assert_eq!(obj.read_with(ReadConsistency::Any).unwrap().meta, 3);
    }

    #[test]
    fn session_priority_broadcasts_to_every_node() {
        let mut eng = engine(3);
        Session::open(&mut eng, NodeId(2)).set_priority(9).unwrap();
        for i in 0..3 {
            // Priorities feed PriorityWins; observable through the config
            // surface only indirectly, so check via a reference resolution
            // set-up: the command must have reached every node (no panic,
            // Done everywhere) — and the node-level map reflects it.
            let node = eng.node(NodeId(i));
            assert_eq!(node.priority_of(NodeId(2)), Some(9), "node {i}");
        }
    }

    /// A batch's envelope dropped unrun (refused by a closed mailbox, or
    /// the engine stopped with it still queued) must still answer every
    /// command it holds — with the typed engine-unavailable rejection, in
    /// arrival order — so blocked callers fail fast instead of waiting out
    /// a timeout. So must one dropped mid-run, its running command first.
    #[test]
    fn dropped_batch_envelope_answers_every_command() {
        for mid_run in [false, true] {
            let (tx, rx) = std::sync::mpsc::channel();
            let mut replies = (0..3).map(|i| {
                let tx = tx.clone();
                Box::new(move |resp| {
                    let _ = tx.send((i, resp));
                }) as ReplyFn
            });
            let running = if mid_run { replies.next() } else { None };
            let queued = replies.map(|reply| (Command::Peek { object: OBJ }, reply)).collect();
            let group = ShardGroup { queued, running };
            let envelope =
                move |s: &mut ProtocolShard, ctx: &mut dyn Context<IdeaMsg>| group.run(s, ctx);
            drop(envelope);
            let answers: Vec<(usize, Response)> = rx.try_iter().collect();
            assert_eq!(answers.len(), 3, "every command must be answered: {answers:?}");
            for (want, (i, resp)) in answers.into_iter().enumerate() {
                assert_eq!(i, want, "answers come in arrival order");
                assert!(
                    matches!(resp, Response::Rejected { error: WireError::EngineUnavailable(_) }),
                    "{resp:?}"
                );
            }
        }
    }

    /// One panic under the served engine's lock must not become an outage:
    /// the next command still answers, and the engine can still be
    /// unwrapped.
    #[test]
    fn a_panic_under_the_engine_lock_does_not_stop_the_served_engine() {
        let served = LockedEngine::new(engine(2));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            served.with(|_| panic!("fault while holding the engine lock"))
        }));
        assert!(panicked.is_err(), "the closure must have panicked");

        let r = served.try_execute(
            NodeId(0),
            Command::Write { object: OBJ, meta_delta: 4, payload: UpdatePayload::none() },
        );
        assert!(matches!(r, Ok(Response::Written { .. })), "{r:?}");
        assert_eq!(served.into_inner().nodes(), 2);
    }

    #[test]
    fn command_is_plain_wire_data() {
        // The bounds pin that every wire unit of the client layer has a
        // codec and is owned, clonable data — exactly what a TCP frontend
        // needs to frame. `codec_roundtrip.rs` checks the encodings.
        fn assert_wire<T>()
        where
            T: idea_types::codec::Codec + Clone + Send + 'static,
        {
        }
        assert_wire::<Command>();
        assert_wire::<Response>();
        assert_wire::<ConsistencySpec>();
        assert_wire::<ReadResult>();
        assert_wire::<ReadConsistency>();
    }
}
