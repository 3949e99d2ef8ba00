//! The airline ticket booking system (§3.2, §5.2).
//!
//! Several booking servers sell seats for the same flight, each tracking its
//! record independently on its local replica. Stale views can **oversell**
//! (two servers sell the last seat) and the locking window of a resolution
//! round can **undersell** (requests bounced while seats remain) — "both
//! underselling and overselling will hurt the company economically" (§3.2).
//!
//! Consistency control is **fully automatic** (§4.6): a background
//! resolution whose frequency an [`AutoController`] adjusts inside learned
//! under/oversell bounds, subject to the Formula-4 bandwidth cap.

use idea_core::client::{apply_to_node, Command, IdeaHost, Response};
use idea_core::{AutoController, IdeaConfig, IdeaMsg, IdeaNode, NodeReport};
use idea_net::{Context, Proto, TimerId};
use idea_types::{NodeId, ObjectId, SimDuration, Update, UpdatePayload, WriterId};

/// Outcome of a booking request at one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BookOutcome {
    /// Seats sold; the update carries the sale.
    Accepted {
        /// Seats remaining *in this server's local view* after the sale.
        local_remaining: u32,
    },
    /// The server's local view shows no seats left.
    SoldOut,
    /// A resolution round is in flight: the system is "kind of locked"
    /// (§5.2) and the request bounces — an underselling hazard.
    Locked,
}

/// One booking server: an IDEA node plus inventory semantics.
pub struct BookingServer {
    node: IdeaNode,
    flight_object: ObjectId,
    flight: u32,
    capacity: u32,
    auto: AutoController,
    /// IPA-style escrow quota: when set, this server never accepts more
    /// than `quota` seats of its own sales, however stale its global view.
    /// Quotas summing to at most `capacity` across the fleet make
    /// overbooking impossible under *any* fault schedule.
    escrow_quota: Option<u32>,
    accepted_seats: u32,
    rejected_sold_out: u64,
    rejected_locked: u64,
}

impl BookingServer {
    /// Builds a server for `flight` with `capacity` seats, replicating the
    /// booking record `object`, running background resolution at `period`.
    pub fn new(
        me: NodeId,
        object: ObjectId,
        flight: u32,
        capacity: u32,
        period: SimDuration,
    ) -> Self {
        Self::new_with(me, object, flight, capacity, IdeaConfig::booking(period))
    }

    /// Builds a server over an explicit [`IdeaConfig`] — the entry point
    /// for deployments that need a non-default plane (durability, gossip
    /// mode) under the booking semantics. The controller starts at the
    /// config's background period (or its 60 s default when unset).
    pub fn new_with(
        me: NodeId,
        object: ObjectId,
        flight: u32,
        capacity: u32,
        cfg: IdeaConfig,
    ) -> Self {
        Self::from_node(IdeaNode::new(me, cfg, &[object]), object, flight, capacity)
    }

    /// Wraps an existing node — the crash-recovery path: `node` comes from
    /// [`IdeaNode::recover`], so wrapping must *not* re-run genesis (which
    /// would wipe the WAL). The monotonic sale counter is re-seeded from
    /// the recovered replica's own live sales; under `Sync` durability
    /// that is every acknowledged sale that resolution has not since
    /// invalidated, so the escrow gate stays sound across the crash.
    pub fn from_node(node: IdeaNode, object: ObjectId, flight: u32, capacity: u32) -> Self {
        let period = node.config().background_period.unwrap_or(SimDuration::from_secs(60));
        let mut srv = BookingServer {
            node,
            flight_object: object,
            flight,
            capacity,
            auto: AutoController::new(
                period,
                SimDuration::from_secs(2),
                SimDuration::from_secs(120),
            ),
            escrow_quota: None,
            accepted_seats: 0,
            rejected_sold_out: 0,
            rejected_locked: 0,
        };
        srv.accepted_seats = srv.own_sold();
        srv
    }

    /// The wrapped IDEA node.
    pub fn idea(&self) -> &IdeaNode {
        &self.node
    }

    /// Mutable access to the wrapped IDEA node.
    pub fn idea_mut(&mut self) -> &mut IdeaNode {
        &mut self.node
    }

    /// The automatic frequency controller.
    pub fn controller(&self) -> &AutoController {
        &self.auto
    }

    /// The flight's total seat capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Kicks off an on-demand active resolution round for the booking
    /// record — the hook fault harnesses use to force reconciliation at a
    /// chosen point in a schedule instead of waiting for the background
    /// period.
    pub fn demand_resolution(&mut self, ctx: &mut dyn Context<IdeaMsg>) {
        self.node.demand_active_resolution(self.flight_object, ctx);
    }

    /// Seats this server has sold (its own accepted bookings).
    pub fn accepted_seats(&self) -> u32 {
        self.accepted_seats
    }

    /// Enables the IPA-style escrow gate: this server stops accepting once
    /// its own sales reach `quota` seats, regardless of what its (possibly
    /// stale) global view claims remains. `None` disables the gate.
    pub fn set_escrow_quota(&mut self, quota: Option<u32>) {
        self.escrow_quota = quota;
    }

    /// The configured escrow quota, if any.
    pub fn escrow_quota(&self) -> Option<u32> {
        self.escrow_quota
    }

    /// Requests bounced because the local view showed no seats.
    pub fn rejected_sold_out(&self) -> u64 {
        self.rejected_sold_out
    }

    /// Requests bounced during resolution locking.
    pub fn rejected_locked(&self) -> u64 {
        self.rejected_locked
    }

    /// Seats sold according to this server's *local replica view* (its own
    /// sales plus every sale it has learned about).
    pub fn known_sold(&self) -> u32 {
        self.sold_where(|_| true)
    }

    /// This server's own *live* sales: bookings it wrote that are still in
    /// its replica log (accepted and not invalidated by resolution). The
    /// crash-consistent quantity — recovered straight from the WAL — that
    /// fleet invariants sum, since every live sale lives in exactly one
    /// writer's `own_sold`.
    pub fn own_sold(&self) -> u32 {
        let me = WriterId(self.node.id().0);
        self.sold_where(|w| w == me)
    }

    fn sold_where(&self, keep: impl Fn(WriterId) -> bool) -> u32 {
        match self.node.replica(self.flight_object) {
            Ok(replica) => replica
                .log()
                .iter()
                .filter(|u| keep(u.id.writer))
                .filter_map(|u| match &u.payload {
                    UpdatePayload::Booking { seats, .. } => Some(*seats),
                    _ => None,
                })
                .sum(),
            Err(_) => 0,
        }
    }

    /// Attempts to sell `seats` at `price_cents`.
    pub fn try_book(
        &mut self,
        seats: u32,
        price_cents: i64,
        ctx: &mut dyn Context<IdeaMsg>,
    ) -> (BookOutcome, Option<Update>) {
        if self.node.is_resolving(self.flight_object) {
            self.rejected_locked += 1;
            return (BookOutcome::Locked, None);
        }
        // Escrow gate first: the monotonic own-sale counter never resets,
        // so no schedule of partitions or staleness lets this server spend
        // more than its reservation. The max() guards the one path where
        // the counter could lag the log — a recovery shell built before a
        // rejoin pulled this writer's older sales back in.
        if let Some(quota) = self.escrow_quota {
            let spent = self.accepted_seats.max(self.own_sold());
            if spent + seats > quota {
                self.rejected_sold_out += 1;
                return (BookOutcome::SoldOut, None);
            }
        }
        let sold = self.known_sold();
        if sold + seats > self.capacity {
            self.rejected_sold_out += 1;
            return (BookOutcome::SoldOut, None);
        }
        // The sale is a client-layer write command — the same unit a remote
        // booking frontend would submit.
        let cmd = Command::Write {
            object: self.flight_object,
            meta_delta: price_cents,
            payload: UpdatePayload::Booking { flight: self.flight, seats, price_cents },
        };
        let update = match apply_to_node(&mut self.node, cmd, ctx) {
            Response::Written { update } => update,
            other => unreachable!("write on the hosted record cannot fail: {other:?}"),
        };
        self.accepted_seats += seats;
        let local_remaining = self.capacity - (sold + seats);
        (BookOutcome::Accepted { local_remaining }, Some(update))
    }

    /// The harness detected an oversell across the fleet: feed the
    /// controller (frequency was too low) and adopt the new period.
    pub fn report_oversell(&mut self) -> SimDuration {
        self.auto.on_oversell();
        let p = self.auto.period();
        self.node.set_background_period(Some(p));
        p
    }

    /// The harness detected underselling (locked rejections while seats
    /// remained): frequency was too high.
    pub fn report_undersell(&mut self) -> SimDuration {
        self.auto.on_undersell();
        let p = self.auto.period();
        self.node.set_background_period(Some(p));
        p
    }

    /// Adjusts the background frequency for the current load (Formula 4).
    pub fn adjust_for_load(&mut self, available_bps: f64, round_cost_bits: f64) -> SimDuration {
        let p = self.auto.adjust_for_load(available_bps, round_cost_bits);
        self.node.set_background_period(Some(p));
        p
    }

    /// Node report for the booking record object.
    pub fn report(&self) -> NodeReport {
        self.node.report(self.flight_object)
    }
}

impl IdeaHost for BookingServer {
    fn idea(&self) -> &IdeaNode {
        &self.node
    }
    fn idea_mut(&mut self) -> &mut IdeaNode {
        &mut self.node
    }
}

impl Proto for BookingServer {
    type Msg = IdeaMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<IdeaMsg>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: IdeaMsg, ctx: &mut dyn Context<IdeaMsg>) {
        self.node.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, kind: u64, ctx: &mut dyn Context<IdeaMsg>) {
        self.node.on_timer(timer, kind, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_net::{SimConfig, SimEngine, Topology};

    const OBJ: ObjectId = ObjectId(3);

    fn fleet(n: usize, capacity: u32, period_s: u64, seed: u64) -> SimEngine<BookingServer> {
        let nodes = (0..n)
            .map(|i| {
                BookingServer::new(
                    NodeId(i as u32),
                    OBJ,
                    77,
                    capacity,
                    SimDuration::from_secs(period_s),
                )
            })
            .collect();
        SimEngine::new(
            Topology::planetlab(n, seed),
            SimConfig { seed, ..Default::default() },
            nodes,
        )
    }

    #[test]
    fn bookings_sell_until_local_view_exhausts() {
        let mut eng = fleet(4, 3, 1_000, 1);
        for k in 0..4 {
            let (outcome, upd) = eng.with_node(NodeId(0), |s, ctx| s.try_book(1, 10_000, ctx));
            if k < 3 {
                assert!(matches!(outcome, BookOutcome::Accepted { .. }), "sale {k}");
                assert!(upd.is_some());
            } else {
                assert_eq!(outcome, BookOutcome::SoldOut);
                assert!(upd.is_none());
            }
        }
        let s = eng.node(NodeId(0));
        assert_eq!(s.accepted_seats(), 3);
        assert_eq!(s.rejected_sold_out(), 1);
        assert_eq!(s.known_sold(), 3);
    }

    #[test]
    fn stale_views_oversell_without_resolution() {
        // Capacity 4, background resolution far away: each of 4 servers
        // happily sells 2 seats — 8 sold, oversold by 4.
        let mut eng = fleet(4, 4, 10_000, 2);
        for srv in 0..4u32 {
            for _ in 0..2 {
                let (outcome, _) = eng.with_node(NodeId(srv), |s, ctx| s.try_book(1, 20_000, ctx));
                assert!(matches!(outcome, BookOutcome::Accepted { .. }));
            }
        }
        let total: u32 = (0..4u32).map(|s| eng.node(NodeId(s)).accepted_seats()).sum();
        assert_eq!(total, 8, "global sales exceed capacity — the oversell hazard");
    }

    #[test]
    fn resolution_spreads_sales_and_prevents_further_oversell() {
        let mut eng = fleet(4, 4, 20, 3);
        // Warm the top layer with small sales.
        for round in 0..3 {
            for srv in 0..4u32 {
                eng.with_node(NodeId(srv), |s, ctx| {
                    let _ = s.try_book(1, 5_000, ctx);
                });
                eng.run_for(SimDuration::from_millis(400));
            }
            let _ = round;
        }
        // Let background resolution run (period 20 s).
        eng.run_for(SimDuration::from_secs(45));
        // After reconciliation to the winner, every server sees the same
        // record, so further booking decisions share one view.
        let metas: Vec<i64> = (0..4u32).map(|s| eng.node(NodeId(s)).report().meta).collect();
        assert!(metas.windows(2).all(|m| m[0] == m[1]), "records diverge: {metas:?}");
        // And the shared view blocks sales beyond capacity.
        let known = eng.node(NodeId(0)).known_sold();
        if known >= 4 {
            let (outcome, _) = eng.with_node(NodeId(0), |s, ctx| s.try_book(1, 5_000, ctx));
            assert_eq!(outcome, BookOutcome::SoldOut);
        }
    }

    #[test]
    fn from_node_reseeds_the_sale_counter_from_the_log() {
        let mut eng = fleet(4, 10, 1_000, 8);
        for _ in 0..3 {
            eng.with_node(NodeId(0), |s, ctx| {
                let _ = s.try_book(1, 10_000, ctx);
            });
        }
        // Rebuild the server shell around the same node, as crash recovery
        // does: the monotonic counter comes back from the replica log.
        let node = std::mem::replace(
            eng.node_mut(NodeId(0)).idea_mut(),
            IdeaNode::new(NodeId(0), IdeaConfig::booking(SimDuration::from_secs(1_000)), &[OBJ]),
        );
        let rebuilt = BookingServer::from_node(node, OBJ, 77, 10);
        assert_eq!(rebuilt.accepted_seats(), 3);
        assert_eq!(rebuilt.own_sold(), 3);
        assert_eq!(rebuilt.capacity(), 10);
    }

    #[test]
    fn escrow_gate_caps_own_sales_before_the_global_view_does() {
        let mut eng = fleet(2, 10, 1_000, 9);
        eng.with_node(NodeId(0), |s, _| s.set_escrow_quota(Some(2)));
        for k in 0..3 {
            let (outcome, _) = eng.with_node(NodeId(0), |s, ctx| s.try_book(1, 10_000, ctx));
            if k < 2 {
                assert!(matches!(outcome, BookOutcome::Accepted { .. }), "sale {k}");
            } else {
                assert_eq!(outcome, BookOutcome::SoldOut, "quota spent");
            }
        }
        let s = eng.node(NodeId(0));
        assert_eq!(s.accepted_seats(), 2);
        assert_eq!(s.escrow_quota(), Some(2));
        assert!(s.known_sold() < s.capacity(), "global view still had seats");
    }

    #[test]
    fn controller_feedback_moves_the_period() {
        let mut eng = fleet(4, 100, 20, 4);
        let before = eng.node(NodeId(0)).controller().period();
        let after = eng.with_node(NodeId(0), |s, _| s.report_oversell());
        assert!(after <= before, "oversell must not slow resolution down");
        let after2 = eng.with_node(NodeId(0), |s, _| s.report_undersell());
        assert!(after2 >= after, "undersell must not speed resolution up");
        assert_eq!(eng.node(NodeId(0)).idea().config().background_period, Some(after2));
    }

    #[test]
    fn locked_window_rejects_requests() {
        let mut eng = fleet(4, 100, 1_000, 5);
        for round in 0..3 {
            for srv in 0..4u32 {
                eng.with_node(NodeId(srv), |s, ctx| {
                    let _ = s.try_book(1, 5_000, ctx);
                });
                eng.run_for(SimDuration::from_millis(400));
            }
            let _ = round;
        }
        eng.run_for(SimDuration::from_secs(2));
        // Kick off an active resolution, then immediately try to book on the
        // initiating server: the request must bounce as Locked.
        eng.with_node(NodeId(1), |s, ctx| {
            s.idea_mut().demand_active_resolution(OBJ, ctx);
            let (outcome, _) = s.try_book(1, 5_000, ctx);
            assert_eq!(outcome, BookOutcome::Locked);
        });
        assert_eq!(eng.node(NodeId(1)).rejected_locked(), 1);
    }
}
