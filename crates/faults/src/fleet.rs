//! Canonical booking fleets for the harness: one spec value describes the
//! whole deployment, and building it twice yields identically seeded
//! engines — the basis of the replay-identity oracle.

use crate::runner::FaultRunner;
use idea_apps::{BookingServer, NoOverbooking};
use idea_core::{DurabilityConfig, IdeaConfig, IdeaNode};
use idea_net::{SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration};
use std::path::PathBuf;

/// The booking record object every fleet replicates.
pub const BOOKING_OBJ: ObjectId = ObjectId(1);

/// The flight number sold by every fleet.
pub const FLIGHT: u32 = 77;

/// Describes a booking fleet completely — building the same spec twice
/// produces engines that replay any schedule bit-identically.
#[derive(Debug, Clone)]
pub struct BookingFleetSpec {
    /// Number of booking servers.
    pub(crate) n: usize,
    /// Flight capacity shared by the fleet.
    pub(crate) capacity: u32,
    /// Give every server an IPA-style escrow quota of `capacity / n`.
    pub(crate) escrow: bool,
    /// Seed for topology and engine RNG.
    pub(crate) seed: u64,
    /// Background resolution period.
    pub(crate) period: SimDuration,
    /// WAL root directory; `None` runs without durability (crash recovery
    /// then falls back to amnesiac restart even when a schedule asks for
    /// `via_wal`).
    pub(crate) wal_dir: Option<PathBuf>,
    /// Fsync per append (`Sync`) instead of buffered appends. Buffered is
    /// the fast default for big random sweeps: within one process the
    /// appended bytes are still visible to recovery reads, so WAL replay
    /// is exercised without paying an fsync per sale.
    pub wal_sync: bool,
}

impl BookingFleetSpec {
    /// A 4-node, capacity-8, escrowed fleet — the named suite's default.
    /// `wal_tag` isolates the WAL directory per test/process.
    pub fn standard(seed: u64, wal_tag: &str) -> Self {
        BookingFleetSpec {
            n: 4,
            capacity: 8,
            escrow: true,
            seed,
            period: SimDuration::from_secs(30),
            wal_dir: Some(
                std::env::temp_dir().join(format!("idea-faults-{}-{wal_tag}", std::process::id())),
            ),
            wal_sync: true,
        }
    }

    /// The node configuration this spec implies.
    pub(crate) fn config(&self) -> IdeaConfig {
        let mut cfg = IdeaConfig::booking(self.period);
        if let Some(dir) = &self.wal_dir {
            cfg.durability = if self.wal_sync {
                DurabilityConfig::sync(dir)
            } else {
                DurabilityConfig::buffered(dir)
            };
        }
        cfg
    }

    /// Per-server escrow quota, when escrow is on.
    pub(crate) fn quota(&self) -> Option<u32> {
        self.escrow.then(|| self.capacity / self.n as u32)
    }

    /// Builds one server, fresh (genesis — wipes any WAL it finds).
    fn fresh(&self, id: NodeId) -> BookingServer {
        let mut s = BookingServer::new_with(id, BOOKING_OBJ, FLIGHT, self.capacity, self.config());
        s.set_escrow_quota(self.quota());
        s
    }

    /// Builds the runner: a freshly seeded engine over `n` servers, the
    /// WAL-aware rebuild factory, and the no-overbooking oracle.
    pub fn build(&self) -> FaultRunner<BookingServer> {
        let nodes: Vec<BookingServer> = (0..self.n).map(|i| self.fresh(NodeId(i as u32))).collect();
        let eng = SimEngine::new(
            Topology::planetlab(self.n, self.seed),
            SimConfig { seed: self.seed, ..Default::default() },
            nodes,
        );
        let spec = self.clone();
        let rebuild = Box::new(move |id: NodeId, via_wal: bool| {
            if via_wal && spec.wal_dir.is_some() {
                let node = IdeaNode::recover(id, spec.config(), &[BOOKING_OBJ])
                    .expect("recovery config was valid at genesis");
                let mut s = BookingServer::from_node(node, BOOKING_OBJ, FLIGHT, spec.capacity);
                s.set_escrow_quota(spec.quota());
                s
            } else {
                spec.fresh(id)
            }
        });
        FaultRunner::new(eng, rebuild).check(NoOverbooking)
    }
}
