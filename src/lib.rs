//! # IDEA — detection-based adaptive consistency control
//!
//! A full Rust reproduction of *"IDEA: An Infrastructure for
//! Detection-based Adaptive Consistency Control in Replicated Services"*
//! (Yijun Lu, Ying Lu, Hong Jiang; HPDC 2007 / TR-UNL-CSE-2007-0001).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — ids, virtual time, updates, consistency levels;
//! * [`vv`] — classic and extended version vectors (TACT triples);
//! * [`net`] — deterministic discrete-event simulator + threaded runtime;
//! * [`overlay`] — temperature top layer, gossip bottom layer;
//! * [`store`] — the replicated object store substrate;
//! * [`core`] — the IDEA middleware itself (quantification, the protocol
//!   with its inconsistency detection framework, resolution, adaptive
//!   control, the typed client API);
//! * [`transport`] — the TCP server and remote client of the served path;
//! * [`apps`] — the white board and airline-booking applications;
//! * [`workload`] — experiment runners regenerating every table and figure,
//!   with the optimistic / TACT / strong comparators and the top-layer
//!   coverage model.
//!
//! ## Quickstart
//!
//! ```
//! use idea::prelude::*;
//!
//! // Four white-board participants on a simulated WAN.
//! let board = ObjectId(1);
//! let clients: Vec<WhiteboardClient> =
//!     (0..4).map(|i| WhiteboardClient::new(NodeId(i), board, 0.90)).collect();
//! let mut net = SimEngine::new(Topology::planetlab(4, 7), SimConfig::default(), clients);
//!
//! // Draw concurrently, let IDEA detect the divergence...
//! for w in 0..4u32 {
//!     net.with_node(NodeId(w), |c, ctx| { c.draw(0, 0, "hi", ctx); });
//! }
//! net.run_for(SimDuration::from_secs(2));
//!
//! // ...and resolve it on demand — through a typed client session (the
//! // same session code runs unchanged on the threaded engine).
//! let mut session = Session::open(&mut net, NodeId(0));
//! session.object(board).demand_resolution().unwrap();
//! net.run_for(SimDuration::from_secs(5));
//! let read = Session::open(&mut net, NodeId(0)).object(board).peek().unwrap();
//! assert!(read.updates >= 1);
//! let winning_cell = net.node(NodeId(0)).render();
//! assert!(winning_cell.contains_key(&(0, 0)));
//! ```

#![forbid(unsafe_code)]

pub use idea_apps as apps;
pub use idea_core as core;
pub use idea_net as net;
pub use idea_overlay as overlay;
pub use idea_store as store;
pub use idea_transport as transport;
pub use idea_types as types;
pub use idea_vv as vv;
pub use idea_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use idea_apps::{BookOutcome, BookingServer, Stroke, WhiteboardClient};
    pub use idea_core::{
        AutoController, Command, CommandError, CommandExecutor, ConsistencySpec, EngineHandle,
        HintController, IdeaConfig, IdeaHost, IdeaMsg, IdeaNode, LockedEngine, MaxBounds,
        ObjectHandle, Quantifier, ReadConsistency, ReadResult, ResolutionPolicy, Response, Session,
        Weights,
    };
    pub use idea_net::{
        Context, Proto, ShardedEngine, ShardedProto, SimConfig, SimEngine, ThreadedConfig, Topology,
    };
    pub use idea_transport::{IdeaServer, RemoteEngine};
    pub use idea_types::{
        ConsistencyLevel, ErrorTriple, NodeId, ObjectId, ShardId, SimDuration, SimTime, Update,
        UpdatePayload, WireError, WriterId,
    };
    pub use idea_vv::{ExtendedVersionVector, VersionVector, VvOrdering};
}
