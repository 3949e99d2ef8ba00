//! The distributed white board (§3.1, §5.1).
//!
//! Each participant runs a local board replica; strokes are IDEA updates
//! whose critical metadata is "the sum of the ASCII value of the last
//! several updates" (§4.4.1). Order error dominates the consistency
//! semantics — "these updates make sense only when they are read in order"
//! (§5.1) — so the default weights are [`Weights::WHITEBOARD`].

use idea_core::client::{apply_to_node, Command, IdeaHost, Response};
use idea_core::{IdeaConfig, IdeaMsg, IdeaNode, NodeReport, Weights};
use idea_net::{Context, Proto, TimerId};
use idea_types::{ConsistencyLevel, NodeId, ObjectId, Update, UpdatePayload};
use std::collections::BTreeMap;

/// One drawn stroke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stroke {
    /// Horizontal board position.
    pub(crate) x: u16,
    /// Vertical board position.
    pub(crate) y: u16,
    /// The drawn text.
    pub(crate) text: String,
}

/// Sum of the ASCII values of a stroke's text — the paper's white-board
/// metadata function.
pub fn ascii_sum(text: &str) -> i64 {
    text.bytes().map(|b| b as i64).sum()
}

/// A white-board participant: an IDEA node plus board semantics.
pub struct WhiteboardClient {
    node: IdeaNode,
    board: ObjectId,
}

impl WhiteboardClient {
    /// Joins the white board `board` as node `me` with hint level `hint`
    /// (0 disables hint-based control).
    pub fn new(me: NodeId, board: ObjectId, hint: f64) -> Self {
        let mut cfg = IdeaConfig::whiteboard(hint);
        cfg.weights = Weights::WHITEBOARD;
        WhiteboardClient { node: IdeaNode::new(me, cfg, &[board]), board }
    }

    /// Joins with a fully custom configuration.
    pub fn with_config(me: NodeId, board: ObjectId, cfg: IdeaConfig) -> Self {
        WhiteboardClient { node: IdeaNode::new(me, cfg, &[board]), board }
    }

    /// The wrapped IDEA node.
    pub fn idea(&self) -> &IdeaNode {
        &self.node
    }

    /// Draws a stroke: issues the write command with the ASCII-sum
    /// metadata. Routed through the typed client layer — the same
    /// [`Command::Write`] a remote session would send.
    pub fn draw(&mut self, x: u16, y: u16, text: &str, ctx: &mut dyn Context<IdeaMsg>) -> Update {
        let cmd = Command::Write {
            object: self.board,
            meta_delta: ascii_sum(text),
            payload: UpdatePayload::Stroke { x, y, text: text.to_string() },
        };
        match apply_to_node(&mut self.node, cmd, ctx) {
            Response::Written { update } => update,
            other => unreachable!("write on the hosted board cannot fail: {other:?}"),
        }
    }

    /// Renders the replica's current view: last writer wins per cell, in
    /// log-application order.
    pub fn render(&self) -> BTreeMap<(u16, u16), String> {
        let mut cells = BTreeMap::new();
        if let Ok(replica) = self.node.replica(self.board) {
            for u in replica.log() {
                if let UpdatePayload::Stroke { x, y, text } = &u.payload {
                    cells.insert((*x, *y), text.clone());
                }
            }
        }
        cells
    }

    /// This participant's current consistency level.
    pub fn level(&self) -> ConsistencyLevel {
        self.node.level(self.board)
    }

    /// Full node report.
    pub fn report(&self) -> NodeReport {
        self.node.report(self.board)
    }

    /// The participant explicitly demands resolution (§5.1 on-demand mode).
    pub fn demand_resolution(&mut self, ctx: &mut dyn Context<IdeaMsg>) {
        let _ =
            apply_to_node(&mut self.node, Command::DemandResolution { object: self.board }, ctx);
    }

    /// The participant tells IDEA the consistency is unacceptable,
    /// optionally re-weighting the three metrics (§5.1's three ways).
    ///
    /// The dissatisfaction itself (floor raise + resolution) is never
    /// swallowed: out-of-domain weights are dropped and the feedback still
    /// applies un-reweighted.
    pub fn complain(&mut self, new_weights: Option<Weights>, ctx: &mut dyn Context<IdeaMsg>) {
        let cmd = Command::Dissatisfied { object: self.board, new_weights };
        if let Response::Rejected { .. } = apply_to_node(&mut self.node, cmd, ctx) {
            let fallback = Command::Dissatisfied { object: self.board, new_weights: None };
            let _ = apply_to_node(&mut self.node, fallback, ctx);
        }
    }
}

impl IdeaHost for WhiteboardClient {
    fn idea(&self) -> &IdeaNode {
        &self.node
    }
    fn idea_mut(&mut self) -> &mut IdeaNode {
        &mut self.node
    }
}

impl Proto for WhiteboardClient {
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
    use idea_types::SimDuration;

    const BOARD: ObjectId = ObjectId(9);

    fn session(n: usize, hint: f64, seed: u64) -> SimEngine<WhiteboardClient> {
        let nodes = (0..n).map(|i| WhiteboardClient::new(NodeId(i as u32), BOARD, hint)).collect();
        SimEngine::new(
            Topology::planetlab(n, seed),
            SimConfig { seed, ..Default::default() },
            nodes,
        )
    }

    #[test]
    fn ascii_sum_matches_paper_meaning() {
        assert_eq!(ascii_sum("A"), 65);
        assert_eq!(ascii_sum("AB"), 131);
        assert_eq!(ascii_sum(""), 0);
    }

    #[test]
    fn strokes_render_locally() {
        let mut eng = session(4, 0.0, 1);
        eng.with_node(NodeId(0), |c, ctx| {
            c.draw(1, 2, "hello", ctx);
            c.draw(3, 4, "world", ctx);
        });
        let cells = eng.node(NodeId(0)).render();
        assert_eq!(cells.get(&(1, 2)).map(String::as_str), Some("hello"));
        assert_eq!(cells.get(&(3, 4)).map(String::as_str), Some("world"));
        assert_eq!(eng.node(NodeId(1)).render().len(), 0, "no propagation yet");
    }

    #[test]
    fn resolution_reconciles_boards_to_the_winner() {
        let mut eng = session(4, 0.0, 2);
        // Warm the top layer.
        for _ in 0..3 {
            for w in 0..4u32 {
                eng.with_node(NodeId(w), |c, ctx| {
                    c.draw(w as u16, 0, "warm", ctx);
                });
                eng.run_for(SimDuration::from_millis(400));
            }
        }
        eng.run_for(SimDuration::from_secs(2));
        // Conflicting strokes at the same cell.
        for w in 0..4u32 {
            eng.with_node(NodeId(w), |c, ctx| {
                c.draw(5, 5, &format!("writer{w}"), ctx);
            });
        }
        eng.run_for(SimDuration::from_secs(1));
        eng.with_node(NodeId(1), |c, ctx| c.demand_resolution(ctx));
        eng.run_for(SimDuration::from_secs(5));
        // Highest-id policy: node 3's stroke wins everywhere.
        for w in 0..4u32 {
            let cells = eng.node(NodeId(w)).render();
            assert_eq!(
                cells.get(&(5, 5)).map(String::as_str),
                Some("writer3"),
                "node {w} shows the wrong winner"
            );
        }
    }

    #[test]
    fn complaining_raises_the_floor_and_resolves() {
        let mut eng = session(4, 0.90, 3);
        for _ in 0..3 {
            for w in 0..4u32 {
                eng.with_node(NodeId(w), |c, ctx| {
                    c.draw(w as u16, 0, "x", ctx);
                });
                eng.run_for(SimDuration::from_millis(400));
            }
        }
        eng.run_for(SimDuration::from_secs(1));
        let floor_before = eng.node(NodeId(0)).report().hint_floor;
        eng.with_node(NodeId(0), |c, ctx| c.complain(None, ctx));
        eng.run_for(SimDuration::from_secs(3));
        let floor_after = eng.node(NodeId(0)).report().hint_floor;
        assert!(floor_after > floor_before, "complaint must raise the floor");
    }

    #[test]
    fn reweighting_changes_the_quantifier() {
        let mut eng = session(4, 0.90, 4);
        eng.with_node(NodeId(0), |c, ctx| {
            c.complain(Some(Weights::new(0.1, 0.1, 0.8)), ctx);
        });
        let w = eng.node(NodeId(0)).idea().quantifier().weights();
        assert!((w.staleness - 0.8).abs() < 1e-9);
    }

    #[test]
    fn default_weights_prioritise_order() {
        let c = WhiteboardClient::new(NodeId(0), BOARD, 0.0);
        let w = c.idea().quantifier().weights();
        assert!(w.order > w.numerical);
        assert!(w.order > w.staleness);
    }
}
