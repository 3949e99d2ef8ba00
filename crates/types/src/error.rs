//! Workspace-wide error types: the in-process [`IdeaError`] and its
//! wire-facing sibling [`WireError`].

use crate::ids::{NodeId, ObjectId, WriterId};
use std::fmt;

/// Errors surfaced by the IDEA middleware and its substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdeaError {
    /// A node id was not part of the topology/engine.
    UnknownNode(NodeId),
    /// An object id had no replica on the queried node.
    UnknownObject(ObjectId),
    /// A writer issued an update with a non-consecutive sequence number.
    NonConsecutiveSeq {
        /// The offending writer.
        writer: WriterId,
        /// Sequence number the store expected next.
        expected: u64,
        /// Sequence number that actually arrived.
        got: u64,
    },
    /// An API parameter was outside its documented domain.
    InvalidParameter(&'static str),
    /// A configuration field was outside its documented domain
    /// (surfaced by `IdeaConfig::validate` before a node is built).
    InvalidConfig {
        /// The offending configuration field.
        field: &'static str,
        /// Why the value was rejected.
        reason: &'static str,
    },
    /// The requested resolution found no updates to reconcile.
    NothingToResolve,
    /// An active resolution lost the call-for-attention race and was
    /// cancelled after back-off (§4.5.2).
    ResolutionContended,
    /// The engine was asked to run past its configured horizon.
    HorizonExceeded,
}

impl fmt::Display for IdeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdeaError::UnknownNode(n) => write!(f, "unknown node {n}"),
            IdeaError::UnknownObject(o) => write!(f, "no replica of {o} on this node"),
            IdeaError::NonConsecutiveSeq { writer, expected, got } => write!(
                f,
                "writer {writer} skipped sequence numbers (expected {expected}, got {got})"
            ),
            IdeaError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            IdeaError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field} {reason}")
            }
            IdeaError::NothingToResolve => write!(f, "no inconsistency to resolve"),
            IdeaError::ResolutionContended => {
                write!(f, "active resolution cancelled: another initiator is running")
            }
            IdeaError::HorizonExceeded => write!(f, "simulation horizon exceeded"),
        }
    }
}

impl std::error::Error for IdeaError {}

/// The wire-facing error type: what a [`IdeaError`] (or a transport
/// failure) looks like when it must cross a process boundary.
///
/// Unlike [`IdeaError`] — whose `&'static str` fields cannot be
/// deserialized — every variant owns its data, so a server can encode the
/// error into a response frame and a client can reconstruct it. The
/// protocol-level variants mirror [`IdeaError`] one-for-one (see
/// `From<IdeaError>`); the last four exist only at the service boundary:
///
/// * [`WireError::EngineUnavailable`] — the executor behind the service is
///   gone (a stopped engine, a dead shard worker) — the condition that used
///   to panic in `EngineHandle::execute`;
/// * [`WireError::ServerAtCapacity`] — the server refused the connection
///   at admission (its connection cap is reached);
/// * [`WireError::Transport`] — an I/O failure on the connection;
/// * [`WireError::Protocol`] — a malformed or version-incompatible frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A node id was not part of the deployment.
    UnknownNode(NodeId),
    /// An object id had no replica on the addressed node.
    UnknownObject(ObjectId),
    /// A writer issued an update with a non-consecutive sequence number.
    NonConsecutiveSeq {
        /// The offending writer.
        writer: WriterId,
        /// Sequence number the store expected next.
        expected: u64,
        /// Sequence number that actually arrived.
        got: u64,
    },
    /// An API parameter was outside its documented domain.
    InvalidParameter(String),
    /// A configuration field was outside its documented domain.
    InvalidConfig {
        /// The offending configuration field.
        field: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// The requested resolution found no updates to reconcile.
    NothingToResolve,
    /// An active resolution lost the call-for-attention race.
    ResolutionContended,
    /// The engine was asked to run past its configured horizon.
    HorizonExceeded,
    /// The executor behind the service can no longer take commands (engine
    /// stopped, worker thread gone). Surfaced as a typed rejection instead
    /// of the panic the in-process engines used to raise.
    EngineUnavailable(String),
    /// The server refused the connection at admission: it is already at
    /// its configured connection cap. Unlike [`WireError::Transport`], the
    /// condition is typed — a client can distinguish "server full, retry
    /// later" from a dead or unreachable server.
    ServerAtCapacity {
        /// The cap the server was configured with.
        limit: u32,
    },
    /// The connection to the service failed (I/O error, disconnect).
    Transport(String),
    /// A frame could not be decoded (bad magic, unknown version, truncated
    /// or out-of-domain payload).
    Protocol(String),
}

impl From<IdeaError> for WireError {
    fn from(e: IdeaError) -> Self {
        match e {
            IdeaError::UnknownNode(n) => WireError::UnknownNode(n),
            IdeaError::UnknownObject(o) => WireError::UnknownObject(o),
            IdeaError::NonConsecutiveSeq { writer, expected, got } => {
                WireError::NonConsecutiveSeq { writer, expected, got }
            }
            IdeaError::InvalidParameter(what) => WireError::InvalidParameter(what.to_string()),
            IdeaError::InvalidConfig { field, reason } => {
                WireError::InvalidConfig { field: field.to_string(), reason: reason.to_string() }
            }
            IdeaError::NothingToResolve => WireError::NothingToResolve,
            IdeaError::ResolutionContended => WireError::ResolutionContended,
            IdeaError::HorizonExceeded => WireError::HorizonExceeded,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnknownNode(n) => write!(f, "unknown node {n}"),
            WireError::UnknownObject(o) => write!(f, "no replica of {o} on this node"),
            WireError::NonConsecutiveSeq { writer, expected, got } => write!(
                f,
                "writer {writer} skipped sequence numbers (expected {expected}, got {got})"
            ),
            WireError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            WireError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field} {reason}")
            }
            WireError::NothingToResolve => write!(f, "no inconsistency to resolve"),
            WireError::ResolutionContended => {
                write!(f, "active resolution cancelled: another initiator is running")
            }
            WireError::HorizonExceeded => write!(f, "simulation horizon exceeded"),
            WireError::EngineUnavailable(what) => write!(f, "engine unavailable: {what}"),
            WireError::ServerAtCapacity { limit } => {
                write!(f, "server at its connection capacity ({limit})")
            }
            WireError::Transport(what) => write!(f, "transport failure: {what}"),
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = IdeaError::NonConsecutiveSeq { writer: WriterId(3), expected: 5, got: 9 };
        let s = e.to_string();
        assert!(s.contains("w3"));
        assert!(s.contains('5'));
        assert!(s.contains('9'));
        assert!(IdeaError::UnknownNode(NodeId(1)).to_string().contains("n1"));
        assert!(IdeaError::UnknownObject(ObjectId(2)).to_string().contains("obj2"));
    }

    #[test]
    fn invalid_config_names_the_field() {
        let e = IdeaError::InvalidConfig { field: "store_shards", reason: "must be in 1..=256" };
        let s = e.to_string();
        assert!(s.contains("store_shards"));
        assert!(s.contains("1..=256"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&IdeaError::NothingToResolve);
        takes_err(&WireError::Transport("connection reset".into()));
    }

    /// Every protocol-level `IdeaError` maps onto a `WireError` rendering
    /// the *same* message, so error text is identical in-process and remote.
    #[test]
    fn wire_error_display_matches_idea_error() {
        let cases = [
            IdeaError::UnknownNode(NodeId(3)),
            IdeaError::UnknownObject(ObjectId(9)),
            IdeaError::NonConsecutiveSeq { writer: WriterId(1), expected: 2, got: 5 },
            IdeaError::InvalidParameter("hint must be within [0, 1]"),
            IdeaError::InvalidConfig { field: "store_shards", reason: "must be in 1..=256" },
            IdeaError::NothingToResolve,
            IdeaError::ResolutionContended,
            IdeaError::HorizonExceeded,
        ];
        for e in cases {
            let wire: WireError = e.clone().into();
            assert_eq!(wire.to_string(), e.to_string(), "{e:?}");
        }
    }
}
