//! Pin for the Table-1 setter commands: each `Command::Set*` executed on an
//! engine and the one-field [`ConsistencySpec`] applied to a node must
//! produce identical node state — the command is a wire spelling of the
//! spec, not a second implementation. Exhaustive over the three
//! resolution-policy codes and the edges of the weight / hint / metric
//! domains.

use idea_core::{
    Command, ConsistencySpec, EngineHandle, IdeaConfig, IdeaNode, ResolutionPolicy, Response,
};
use idea_net::{SimConfig, SimEngine, Topology};
use idea_types::{NodeId, ObjectId, SimDuration};

const OBJ: ObjectId = ObjectId(1);

fn node() -> IdeaNode {
    IdeaNode::new(NodeId(0), IdeaConfig::default(), &[OBJ])
}

/// The full externally observable configuration state of a node.
type State = (String, String, ResolutionPolicy, u64, Option<SimDuration>);

fn observe(n: &IdeaNode) -> State {
    (
        format!("{:?}", n.quantifier().weights()),
        format!("{:?}", n.quantifier().bounds()),
        n.config().policy,
        (n.hint().floor().value() * 1e9).round() as u64,
        n.config().background_period,
    )
}

/// Executes `cmd` on a one-node engine; the node's state if it was accepted.
fn via_command(cmd: Command) -> Option<State> {
    let mut eng = SimEngine::new(Topology::lan(1), SimConfig::default(), vec![node()]);
    match eng.execute(NodeId(0), cmd) {
        Response::Done => Some(observe(eng.node(NodeId(0)))),
        Response::Rejected { .. } => None,
        other => panic!("a setter answers Done or Rejected, not {other:?}"),
    }
}

/// Applies `spec` to a fresh node; the node's state.
fn via_spec(spec: ConsistencySpec) -> State {
    let mut n = node();
    spec.apply_to(&mut n).unwrap();
    observe(&n)
}

#[test]
fn resolution_codes_are_exhaustively_equivalent() {
    for code in 1..=3u8 {
        let by_command = via_command(Command::SetResolution { code }).unwrap();
        let by_code = via_spec(ConsistencySpec::builder().resolution_code(code).build().unwrap());
        assert_eq!(by_command, by_code, "code {code}");
        // And the typed-name route agrees with the integer route.
        let policy = ResolutionPolicy::from_code(code).unwrap();
        let by_name = via_spec(ConsistencySpec::builder().resolution(policy).build().unwrap());
        assert_eq!(by_code, by_name, "code {code}");
    }
    // Out-of-domain codes reject identically on both surfaces.
    for code in [0u8, 4, 255] {
        assert!(via_command(Command::SetResolution { code }).is_none(), "code {code}");
        assert!(ConsistencySpec::builder().resolution_code(code).build().is_err());
    }
}

#[test]
fn weights_agree_across_the_domain_edges() {
    // Edge-of-domain weights: single-member, zero-member, tiny, large.
    let cases = [
        (0.4, 0.0, 0.6),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (1e-9, 1e-9, 1e-9),
        (1e9, 0.0, 1e-9),
        (1.0, 1.0, 1.0),
    ];
    for (a, b, c) in cases {
        let cmd = Command::SetWeight { numerical: a, order: b, staleness: c };
        let by_command = via_command(cmd).unwrap();
        let by_spec = via_spec(ConsistencySpec::builder().weights(a, b, c).build().unwrap());
        assert_eq!(by_command, by_spec, "weights <{a}, {b}, {c}>");
    }
    // Rejections match too.
    for (a, b, c) in [(-1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (1.0, -0.1, 0.0)] {
        let cmd = Command::SetWeight { numerical: a, order: b, staleness: c };
        assert!(via_command(cmd).is_none(), "<{a}, {b}, {c}>");
        assert!(ConsistencySpec::builder().weights(a, b, c).build().is_err(), "<{a}, {b}, {c}>");
    }
}

#[test]
fn hints_agree_across_the_domain_edges() {
    for h in [0.0, 1e-9, 0.5, 0.92, 1.0 - 1e-9, 1.0] {
        let by_command = via_command(Command::SetHint { hint: h }).unwrap();
        let by_spec = via_spec(ConsistencySpec::builder().hint(h).build().unwrap());
        assert_eq!(by_command, by_spec, "hint {h}");
    }
    for h in [-0.1, 1.1, f64::INFINITY] {
        assert!(via_command(Command::SetHint { hint: h }).is_none(), "hint {h}");
        assert!(ConsistencySpec::builder().hint(h).build().is_err(), "hint {h}");
    }
}

#[test]
fn metric_bounds_agree() {
    let cases = [
        (5.0, 6.0, SimDuration::from_secs(7)),
        (1e-9, 1e9, SimDuration::from_micros(1)),
        (10.0, 10.0, SimDuration::from_secs(10)),
    ];
    let set = |a, b, c| Command::SetConsistencyMetric {
        numerical_max: a,
        order_max: b,
        staleness_max: c,
    };
    for (a, b, c) in cases {
        let by_command = via_command(set(a, b, c)).unwrap();
        let by_spec = via_spec(ConsistencySpec::builder().metric(a, b, c).build().unwrap());
        assert_eq!(by_command, by_spec, "metric <{a}, {b}, {c:?}>");
    }
    for (a, b, c) in [
        (0.0, 1.0, SimDuration::from_secs(1)),
        (1.0, 0.0, SimDuration::from_secs(1)),
        (1.0, 1.0, SimDuration::ZERO),
        (-2.0, 1.0, SimDuration::from_secs(1)),
    ] {
        assert!(via_command(set(a, b, c)).is_none(), "metric <{a}, {b}, {c:?}>");
        assert!(ConsistencySpec::builder().metric(a, b, c).build().is_err());
    }
}

#[test]
fn background_freq_agrees() {
    for period in [Some(SimDuration::from_secs(20)), Some(SimDuration::from_micros(1)), None] {
        let by_command = via_command(Command::SetBackgroundFreq { period }).unwrap();
        let b = ConsistencySpec::builder();
        let spec = match period {
            Some(p) => b.background_every(p),
            None => b.no_background(),
        };
        let by_spec = via_spec(spec.build().unwrap());
        assert_eq!(by_command, by_spec, "period {period:?}");
    }
    let zero = Command::SetBackgroundFreq { period: Some(SimDuration::ZERO) };
    assert!(via_command(zero).is_none());
    assert!(ConsistencySpec::builder().background_every(SimDuration::ZERO).build().is_err());
}

#[test]
fn a_combined_spec_equals_the_setter_sequence() {
    let mut eng = SimEngine::new(Topology::lan(1), SimConfig::default(), vec![node()]);
    for cmd in [
        Command::SetConsistencyMetric {
            numerical_max: 1_000.0,
            order_max: 40.0,
            staleness_max: SimDuration::from_secs(60),
        },
        Command::SetWeight { numerical: 0.4, order: 0.0, staleness: 0.6 },
        Command::SetResolution { code: 3 },
        Command::SetHint { hint: 0.92 },
        Command::SetBackgroundFreq { period: Some(SimDuration::from_secs(20)) },
    ] {
        assert_eq!(eng.execute(NodeId(0), cmd), Response::Done);
    }

    let by_spec = via_spec(
        ConsistencySpec::builder()
            .metric(1_000.0, 40.0, SimDuration::from_secs(60))
            .weights(0.4, 0.0, 0.6)
            .resolution(ResolutionPolicy::PriorityWins)
            .hint(0.92)
            .background_every(SimDuration::from_secs(20))
            .build()
            .unwrap(),
    );

    assert_eq!(observe(eng.node(NodeId(0))), by_spec);
}
