//! The four workloads: how each is sized, what a pass runs, and how that
//! folds into the reported metrics.
//!
//! Work is fixed by the arguments, never by the clock, because
//! per-operation cost grows with replica history: a faster build would
//! otherwise be charged for reaching deeper history in the same time. A
//! served pass drives `--seconds` × a nominal rate operations through one
//! deployment; a simulated pass runs its operation streams once each
//! and then revisits them (for steadier timing) while time remains.

use crate::ops::{self, OpStream, SimAction, SimEvent, SimShape};
use crate::probes::{self, ProbeWrite, PROBE_UPDATES};
use crate::served::{self, ClientRun, Deployment, Pacing, Teardown};
use crate::sim::{self, Fingerprint, SimRepeat};
use crate::stats::{
    highest_supported_percentile, median, self_time_mean, supports, LevelHistogram, Samples,
};
use crate::trace::{BenchNode, TimedNode};
use crate::{Args, Report};
use idea::net::MsgClass;
use idea::prelude::{Command, IdeaNode};
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest set-ups an untraced pass times, before its measured work, and
/// reports the median of; it keeps timing more until [`SETUP_SHARE`] of
/// `--seconds` has gone, which is what steadies a bring-up as short as the
/// 40-node simulation's (~15 µs). A set-up is bringing the system up and
/// nothing else: `Deployment::start` (nodes with fresh WAL genesis → engine
/// and server up → connections greeted) or `sim::build` (topology, nodes
/// and `SimEngine::new`). Generating the inputs is the harness's work, not
/// the system's, and is not in it.
const SETUP_SAMPLES: usize = 15;
/// Share of `--seconds` an untraced pass spends timing set-ups.
const SETUP_SHARE: f64 = 0.02;
/// `level_worst1pct_mean` averages the lowest this-many percent of the
/// level estimates a client was shown.
const WORST_PCT: f64 = 1.0;
/// Rate of the ungated open-loop leg.
const OPEN_LOOP_RATE: u32 = 2_000;

const RESOLUTION: [MsgClass; 1] = [MsgClass::ResolutionCtl];
const TRANSFER: [MsgClass; 1] = [MsgClass::Transfer];
const DETECT: [MsgClass; 1] = [MsgClass::Detect];
const OVERLAY: [MsgClass; 2] = [MsgClass::Gossip, MsgClass::Overlay];
/// Handler-span metrics: `(time name, call-count name, message classes)`.
const HANDLER_METRICS: [(&str, &str, &[MsgClass]); 4] = [
    ("core.resolution.on_message_ms", "core.resolution.on_message_n", &RESOLUTION),
    ("core.transfer.on_message_ms", "core.transfer.on_message_n", &TRANSFER),
    ("detect.on_message_ms", "detect.on_message_n", &DETECT),
    ("overlay.on_message_ms", "overlay.on_message_n", &OVERLAY),
];

struct ServedSpec {
    /// Operations an untraced pass drives through its one deployment.
    ops: usize,
    generate: fn(u64, usize) -> OpStream,
}

struct SimSpec {
    nodes: usize,
    shape: SimShape,
    /// Operation streams a pass draws from one `--seed` and pools its
    /// counters over. The gossip tree a run grows in its first seconds sets
    /// that run's message count for good — on `sim_hot_conflict` one stream
    /// in seven settles at 8.3 messages a write and the rest anywhere from
    /// 11 to 18 — so a single stream per seed would make the "exact" metrics
    /// describe the seed; pooled, they describe the code.
    streams: usize,
}

pub fn run(args: &Args, tmp: &Path) -> Report {
    let scale = if args.smoke { 20 } else { 1 };
    // A served pass's work is `--seconds` × a nominal rate, near what this
    // box sustains: fixed by the arguments, not by how fast the build is.
    let served_ops = |per_second: f64| (args.seconds * per_second) as usize / scale;
    match args.workload.as_str() {
        "served_write" => served_pass(
            args,
            tmp,
            ServedSpec { ops: served_ops(16_000.0), generate: ops::served_write },
        ),
        "served_read" => served_pass(
            args,
            tmp,
            ServedSpec { ops: served_ops(80_000.0), generate: ops::served_read },
        ),
        "sim_hot_conflict" => sim_pass(
            args,
            SimSpec {
                nodes: 40,
                shape: SimShape {
                    writers: 4,
                    objects: 1,
                    burst: 8,
                    period_s: 2,
                    window_s: 1_800 / scale as u64,
                },
                streams: 12,
            },
        ),
        "sim_gossip_fanout" => sim_pass(
            args,
            SimSpec {
                nodes: 640,
                shape: SimShape {
                    writers: 16,
                    objects: 64,
                    burst: 1,
                    period_s: 2,
                    window_s: 300 / scale as u64,
                },
                streams: 6,
            },
        ),
        other => unreachable!("parse_args admits only declared workloads, got {other}"),
    }
}

fn peak_rss_mb() -> f64 {
    crate::proc_status("VmHWM:") as f64 / 1024.0
}

/// `f`'s result and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Seconds each set-up took: `one` brings the system up, returns how long
/// that took, and tears it down again.
fn time_setups(args: &Args, mut one: impl FnMut() -> f64) -> Vec<f64> {
    let started = Instant::now();
    let mut setups = Vec::new();
    while !args.smoke
        && (setups.len() < SETUP_SAMPLES
            || started.elapsed().as_secs_f64() < args.seconds * SETUP_SHARE)
    {
        setups.push(one());
    }
    setups
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

// ------------------------------------------------------------------ served

/// One deployment's life: brought up, driven, torn down.
struct Round {
    setup_s: f64,
    run: ClientRun,
    down: Teardown,
}

fn round<P: BenchNode>(seed: u64, dir: &Path, ops: OpStream, pacing: Pacing) -> Round {
    let mut deployment = Deployment::<P>::start(seed, dir.to_path_buf());
    let setup_s = deployment.setup_s;
    let run = deployment.drive(ops, pacing);
    Round { setup_s, run, down: deployment.stop() }
}

fn served_pass(args: &Args, tmp: &Path, spec: ServedSpec) -> Report {
    let ops = spec.ops;
    let closed = Pacing::Closed(served::OUTSTANDING);
    let mut report = Report::default();
    let mut dirs = 0usize;
    let mut dir = || {
        dirs += 1;
        tmp.join(format!("deployment-{dirs}"))
    };

    if args.trace {
        // Half the work untraced, half traced, on a deployment each, so the
        // overhead figure compares like with like and the pass takes as
        // long as an untraced one.
        let plain =
            round::<IdeaNode>(args.seed, &dir(), (spec.generate)(args.seed, ops / 2), closed);
        let traced =
            round::<TimedNode>(args.seed, &dir(), (spec.generate)(args.seed, ops / 2), closed);
        served_checks(args, &mut report, "untraced", &plain);
        served_checks(args, &mut report, "traced", &traced);
        served_layers(&mut report, plain, traced);
        let secs = if args.smoke { 0.5 } else { (args.seconds * 0.2).max(1.0) };
        open_loop_leg(args, &mut report, &dir(), &spec, secs);
        served_probes(&mut report, &dir(), (spec.generate)(args.seed, ops));
        return report;
    }

    // Set-up first: deployments brought up and torn down idle. The measured
    // deployment's own bring-up is the last sample.
    let mut idle_recovered = true;
    let mut setups = time_setups(args, || {
        let deployment = Deployment::<IdeaNode>::start(args.seed, dir());
        let setup_s = deployment.setup_s;
        idle_recovered &= deployment.stop().recovered_identical;
        setup_s
    });
    report.check("idle deployments recover identically", idle_recovered);

    // One deployment serves the whole pass: per-operation cost grows with
    // replica history, and the deep end of that curve is what this measures.
    let mut r = round::<IdeaNode>(args.seed, &dir(), (spec.generate)(args.seed, ops), closed);
    setups.push(r.setup_s);
    served_checks(args, &mut report, "measured deployment", &r);
    let (run, down) = (&mut r.run, &r.down);

    report.set("setup_s", median(&setups));
    report.set("throughput_ops_s", run.ops as f64 / run.wall_s);
    report.set("wire_bytes_per_write", ratio(down.net_bytes as f64, run.acked_writes as f64));
    report.set("msgs_per_write", ratio(down.net_msgs as f64, run.acked_writes as f64));
    report.set("resolve_ms_mean", down.resolve_ms_mean);
    report.set("level_worst1pct_mean", run.levels.tail_mean(WORST_PCT));
    report.set(
        "within_hint_share",
        ratio(run.levels.at_least(ops::HINT) as f64, run.levels.count() as f64),
    );
    report.set("peak_rss_mb", peak_rss_mb());
    report.note(format!(
        "{} ops on one deployment in {:.2} s, closed loop, {} outstanding; {} set-ups timed, median {:.2} ms",
        run.ops,
        run.wall_s,
        served::OUTSTANDING,
        setups.len(),
        median(&setups) * 1e3
    ));
    report.note(format!(
        "read level min {:.3} p01 {:.3} p05 {:.3}",
        run.levels.percentile(0.0),
        run.levels.percentile(1.0),
        run.levels.percentile(5.0),
    ));
    // Latency detail (gated only through throughput: with a fixed number
    // outstanding, mean latency is outstanding ÷ throughput).
    report.note(latency_note("write", &mut run.write_ns));
    report.note(latency_note("read", &mut run.read_ns));
    report
}

/// The output checks of one served round.
fn served_checks(args: &Args, report: &mut Report, which: &str, r: &Round) {
    report.attempted += r.run.ops as u64;
    report.failed += r.run.failed as u64;
    report.check(
        format!("{which}: every node's recovered state_hash equals its stopped one"),
        r.down.recovered_identical,
    );
    report.check(
        format!("{which}: p99 rests on at least ten samples beyond it"),
        args.smoke || supports(r.run.write_ns.len().min(r.run.read_ns.len()), 99.0),
    );
}

/// One line of latency percentiles, up to the highest the sample count
/// supports.
fn latency_note(kind: &str, samples: &mut Samples) -> String {
    let n = samples.len();
    let top = highest_supported_percentile(n).unwrap_or(50.0);
    format!(
        "{kind} latency us: p50 {:.1} p99 {:.1} p{top} {:.1} ({n} samples; p{top} is the highest percentile with 10 beyond it)",
        samples.percentile(50.0) / 1e3,
        samples.percentile(99.0) / 1e3,
        samples.percentile(top) / 1e3,
    )
}

/// Per-layer numbers of a served traced pass. Client-visible latencies
/// come from the untraced round, layer spans from the traced one.
fn served_layers(report: &mut Report, mut plain: Round, mut traced: Round) {
    let us = |ns: f64| ns / 1e3;
    report.set("write_p50_us", us(plain.run.write_ns.percentile(50.0)));
    report.set("write_p99_us", us(plain.run.write_ns.percentile(99.0)));
    report.set("read_p50_us", us(plain.run.read_ns.percentile(50.0)));
    report.set("read_p99_us", us(plain.run.read_ns.percentile(99.0)));
    let levels = &plain.run.levels;
    report.set("min_level", levels.percentile(0.0));
    report.set(
        "below_hint_share",
        1.0 - ratio(levels.at_least(ops::HINT) as f64, levels.count() as f64),
    );
    report.set("failed_share", ratio(report.failed as f64, report.attempted as f64));

    let (run, down) = (&mut traced.run, &mut traced.down);
    let ops = run.ops as f64;
    let writes = run.acked_writes as f64;
    let mut rtt = run.write_ns.clone();
    rtt.extend(&run.read_ns);
    let mut dispatch_all = down.dispatch.write_ns.clone();
    dispatch_all.extend(&down.dispatch.read_ns);
    report.set("transport.encode_ns_p50", run.encode_ns.percentile(50.0));
    report.set("transport.decode_ns_p50", run.decode_ns.percentile(50.0));
    report.set("core.dispatch_call_ns_p50", down.dispatch.call_ns.percentile(50.0));
    report.set("transport.rtt_us_p50", us(rtt.percentile(50.0)));
    report.set("transport.rtt_us_p99", us(rtt.percentile(99.0)));
    report.set("transport.self_us_mean", us(self_time_mean(rtt.mean(), dispatch_all.mean())));
    report.set("transport.bytes_per_op", (run.bytes_out + run.bytes_in) as f64 / ops);
    report.set("transport.loop_wakeups_per_op", down.loop_wakeups as f64 / ops);
    report.set("transport.reads_deferred_n", down.reads_deferred as f64);
    report.set("core.dispatch_us_p50.write", us(down.dispatch.write_ns.percentile(50.0)));
    report.set("core.dispatch_us_p99.write", us(down.dispatch.write_ns.percentile(99.0)));
    report.set("core.dispatch_us_p50.read", us(down.dispatch.read_ns.percentile(50.0)));
    report.set("core.dispatch_us_p99.read", us(down.dispatch.read_ns.percentile(99.0)));

    let class_total = |classes: &[MsgClass]| {
        down.per_class
            .iter()
            .filter(|(c, _, _)| classes.contains(c))
            .fold((0u64, 0u64), |a, (_, m, b)| (a.0 + m, a.1 + b))
    };
    for (ms_name, n_name, classes) in HANDLER_METRICS {
        let (ms, n) = down.handlers.of(classes);
        report.set(ms_name, ms);
        report.set(n_name, n as f64);
    }
    report.set("core.on_timer_ms", down.handlers.on_timer.0);
    report.set("core.on_timer_n", down.handlers.on_timer.1 as f64);
    report.set("core.resolutions_n", down.resolutions as f64);
    report.set("core.rollbacks_n", down.rollbacks as f64);
    report.set(
        "core.resolution_useful_share",
        ratio(down.resolutions_useful as f64, down.resolutions as f64),
    );
    let (detect_msgs, detect_bytes) = class_total(&DETECT);
    let (overlay_msgs, overlay_bytes) = class_total(&OVERLAY);
    report.set("detect.bytes_per_write", ratio(detect_bytes as f64, writes));
    report.set("detect.msgs_per_write", ratio(detect_msgs as f64, writes));
    report.set("overlay.bytes_per_write", ratio(overlay_bytes as f64, writes));
    report.set("overlay.msgs_per_write", ratio(overlay_msgs as f64, writes));
    report.set("net.dropped_n", down.net_dropped as f64);
    report.set("net.threads_n", down.threads as f64);
    report.set("net.msgs_per_op", down.net_msgs as f64 / ops);
    report.set("net.bytes_per_op", down.net_bytes as f64 / ops);
    report.set("wal.bytes_per_write", ratio(down.wal_bytes as f64, writes));
    report.set("wal.recover_ms", down.recover_ms);
    report.set("wal.tail_records_n", down.wal_tail_records as f64);

    report.set("trace.wall_ms", run.wall_s * 1e3);
    let plain_rate = plain.run.ops as f64 / plain.run.wall_s;
    let traced_rate = ops / run.wall_s;
    report.set("trace.overhead_share", 1.0 - traced_rate / plain_rate);
    report.note(format!(
        "{} ops untraced at {plain_rate:.0} ops/s, then {} ops traced at {traced_rate:.0} ops/s, a deployment each",
        plain.run.ops, run.ops
    ));
    let vv = probes::vv(&down.probe_vectors);
    report.set("vv.triple_against_ns", vv.triple_against_ns);
    report.set("vv.summary_encode_ns", vv.summary_encode_ns);
}

/// The ungated open-loop leg: a fixed request rate against a fresh
/// deployment, latency measured from each request's due time.
fn open_loop_leg(args: &Args, report: &mut Report, dir: &Path, spec: &ServedSpec, secs: f64) {
    let count = (f64::from(OPEN_LOOP_RATE) * secs) as usize;
    let ops = (spec.generate)(args.seed.wrapping_add(1), count);
    let interval = Duration::from_secs(1) / OPEN_LOOP_RATE;
    let mut leg = round::<IdeaNode>(args.seed, dir, ops, Pacing::Open(interval));
    report.attempted += leg.run.ops as u64;
    report.failed += leg.run.failed as u64;
    report.check("the open-loop deployment recovers identically", leg.down.recovered_identical);
    let us = |ns: f64| ns / 1e3;
    report.set("openloop.rate_per_s", f64::from(OPEN_LOOP_RATE));
    report.set("openloop.write_p50_us", us(leg.run.write_ns.percentile(50.0)));
    report.set("openloop.write_p99_us", us(leg.run.write_ns.percentile(99.0)));
    report.set("openloop.read_p50_us", us(leg.run.read_ns.percentile(50.0)));
    report.set("openloop.read_p99_us", us(leg.run.read_ns.percentile(99.0)));
    report.set("openloop.max_late_us", us(leg.run.max_late_ns as f64));
    report.set("openloop.failed_share", ratio(leg.run.failed as f64, leg.run.ops as f64));
    report.note(format!(
        "open loop: {} requests at {OPEN_LOOP_RATE}/s ({} write, {} read samples)",
        leg.run.ops,
        leg.run.write_ns.len(),
        leg.run.read_ns.len()
    ));
}

/// Store and WAL probes over the first generated writes of the stream.
fn served_probes(report: &mut Report, dir: &Path, ops: OpStream) {
    let writes: Vec<ProbeWrite> = ops
        .filter(|op| op.kind.is_write())
        .filter_map(|op| match op.command() {
            Command::Write { object, meta_delta, payload } => {
                Some(ProbeWrite { object, meta_delta, payload })
            }
            _ => None,
        })
        .take(PROBE_UPDATES)
        .collect();
    store_and_wal_probes(report, &writes, Some(dir));
}

fn store_and_wal_probes(report: &mut Report, writes: &[ProbeWrite], wal_dir: Option<&Path>) {
    let (store, updates) = probes::store(writes);
    report.set("store.write_ns_p50", store.write_ns_p50);
    report.set("store.ingest_ns_p50", store.ingest_ns_p50);
    report.set("store.read_ns_p50", store.read_ns_p50);
    if let Some(dir) = wal_dir {
        let wal = probes::wal(&served::node_config(dir).durability, &updates);
        report.set("wal.append_us_p50", wal.append_us_p50);
        report.set("wal.sync_us_p50", wal.sync_us_p50);
        std::fs::remove_dir_all(dir).expect("remove the WAL probe directory");
    }
}

// --------------------------------------------------------------- simulated

fn sim_pass(args: &Args, spec: SimSpec) -> Report {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let sub_seeds = if args.smoke { 1 } else { spec.streams };
    let stream_seed = |i: usize| args.seed.wrapping_mul(spec.streams as u64).wrapping_add(i as u64);
    let (schedules, generate_s): (Vec<Vec<SimEvent>>, f64) =
        timed(|| (0..sub_seeds).map(|i| ops::sim_schedule(stream_seed(i), spec.shape)).collect());
    let mut report = Report::default();

    // Set-up first: engines built and dropped unused. Every measured
    // repeat's own build is a further sample.
    let mut setups = if args.trace {
        Vec::new()
    } else {
        time_setups(args, || timed(|| sim::build::<IdeaNode>(spec.nodes, spec.shape)).1)
    };

    // Untraced passes visit every sub-seed once (the exact metrics are
    // means over exactly those, whatever the machine's speed), then keep
    // cycling until the time is up; every revisit must reproduce its first
    // visit bit for bit. Traced passes pair an untraced and a traced repeat
    // per sub-seed for as long as the time lasts.
    let mut plain: Vec<SimRepeat> = Vec::new();
    let mut traced: Vec<SimRepeat> = Vec::new();
    let mut reproduced = true;
    loop {
        let events = &schedules[plain.len() % sub_seeds];
        let repeat = sim::run_repeat::<IdeaNode>(spec.nodes, spec.shape, events);
        if let Some(first) = plain.get(plain.len() % sub_seeds).filter(|_| plain.len() >= sub_seeds)
        {
            reproduced &= repeat.fingerprint == first.fingerprint;
        }
        plain.push(repeat);
        if args.trace {
            let repeat = sim::run_repeat::<TimedNode>(spec.nodes, spec.shape, events);
            reproduced &= repeat.fingerprint == plain[plain.len() - 1].fingerprint;
            traced.push(repeat);
        }
        let visited_all = args.trace || plain.len() >= sub_seeds;
        let revisited = args.trace || plain.len() > sub_seeds;
        let out_of_time = started.elapsed() >= budget.mul_f64(0.9);
        if visited_all && (out_of_time || (args.smoke && revisited)) {
            break;
        }
    }
    let distinct = &plain[..plain.len().min(sub_seeds)];

    report.attempted = plain.iter().chain(&traced).map(|r| r.fingerprint.writes).sum();
    report.failed = plain.iter().chain(&traced).map(|r| r.fingerprint.failed).sum();
    report.check(
        if args.trace {
            format!("{} traced repeats bit-identical to their untraced twins", traced.len())
        } else {
            format!("{} revisits bit-identical to the first visit", plain.len() - distinct.len())
        },
        reproduced,
    );
    report.check(
        "no message dropped (loss is 0)",
        distinct.iter().all(|r| r.fingerprint.dropped == 0),
    );

    // Exact figures: pooled over the distinct sub-seeds.
    let total = |f: &dyn Fn(&Fingerprint) -> u64| {
        distinct.iter().map(|r| f(&r.fingerprint)).sum::<u64>() as f64
    };
    let writes = total(&|f| f.writes);
    let mut levels = LevelHistogram::default();
    distinct.iter().for_each(|r| levels.merge(&r.fingerprint.levels));
    // Writes per wall second, pooled over the streams `rs` visits (repeat
    // i runs stream i mod sub_seeds): each stream counts once, at the
    // median wall of its visits, so the figure averages over streams the
    // way the exact metrics do instead of picking the middle stream.
    let rate = |rs: &[SimRepeat]| {
        let (mut writes, mut wall) = (0.0, 0.0);
        for stream in 0..sub_seeds.min(rs.len()) {
            let visits: Vec<&SimRepeat> = rs.iter().skip(stream).step_by(sub_seeds).collect();
            writes += visits[0].fingerprint.writes as f64;
            wall += median(&visits.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        }
        writes / wall
    };
    let all = &MsgClass::ALL[..];
    if !args.trace {
        let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
        setups.extend(plain.iter().map(|r| r.setup_s));
        report.set("setup_s", median(&setups));
        report.set("throughput_ops_s", rate(&plain));
        report.set("wire_bytes_per_write", total(&|f| f.bytes(all)) / writes);
        report.set("msgs_per_write", total(&|f| f.msgs(all)) / writes);
        report.set(
            "resolve_ms_mean",
            ratio(total(&|f| f.resolve_us_total) / 1e3, total(&|f| f.resolutions)),
        );
        report.set("level_worst1pct_mean", levels.tail_mean(WORST_PCT));
        report.set("within_hint_share", levels.at_least(ops::HINT) as f64 / levels.count() as f64);
        report.set("peak_rss_mb", peak_rss_mb());
        report.note(format!(
            "{} set-ups timed, median {:.1} us; generating the {} operation streams took {:.1} ms (not set-up)",
            setups.len(),
            median(&setups) * 1e6,
            schedules.len(),
            generate_s * 1e3
        ));
        report.note(format!(
            "{} repeats over {} op streams, {} virtual s on {} nodes; wall s min {:.3} median {:.3} max {:.3}",
            plain.len(),
            distinct.len(),
            spec.shape.window_s,
            spec.nodes,
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            median(&walls),
            walls.iter().copied().fold(0.0, f64::max),
        ));
        report.note(format!(
            "{} writes, {} msgs, {} payload bytes, {} resolutions, {}/{} level polls within hint; level min {:.3} p01 {:.3} p05 {:.3}",
            writes,
            total(&|f| f.msgs(all)),
            total(&|f| f.bytes(all)),
            total(&|f| f.resolutions),
            levels.at_least(ops::HINT),
            levels.count(),
            levels.percentile(0.0),
            levels.percentile(1.0),
            levels.percentile(5.0),
        ));
        report.note(format!(
            "msgs_per_write per op stream: {}",
            distinct
                .iter()
                .map(|r| format!(
                    "{:.2}",
                    r.fingerprint.msgs(all) as f64 / r.fingerprint.writes as f64
                ))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        return report;
    }

    // Layer spans: means over the traced repeats; counts per write.
    let k = traced.len() as f64;
    let mean = |f: &dyn Fn(&SimRepeat) -> f64| traced.iter().map(f).sum::<f64>() / k;
    for (ms_name, n_name, classes) in HANDLER_METRICS {
        report.set(ms_name, mean(&|r| r.handlers.of(classes).0));
        report.set(n_name, mean(&|r| r.handlers.of(classes).1 as f64));
    }
    report.set("core.on_timer_ms", mean(&|r| r.handlers.on_timer.0));
    report.set("core.on_timer_n", mean(&|r| r.handlers.on_timer.1 as f64));
    report.set("core.local_write_ms", mean(&|r| r.local_write_ms));
    report.set("core.local_write_n", mean(&|r| r.fingerprint.writes as f64));
    report.set("core.resolutions_n", mean(&|r| r.fingerprint.resolutions as f64));
    report.set("core.rollbacks_n", mean(&|r| r.fingerprint.rollbacks as f64));
    report.set(
        "core.resolution_useful_share",
        ratio(total(&|f| f.resolutions_useful), total(&|f| f.resolutions)),
    );
    report.set("detect.bytes_per_write", total(&|f| f.bytes(&DETECT)) / writes);
    report.set("detect.msgs_per_write", total(&|f| f.msgs(&DETECT)) / writes);
    report.set("overlay.bytes_per_write", total(&|f| f.bytes(&OVERLAY)) / writes);
    report.set("overlay.msgs_per_write", total(&|f| f.msgs(&OVERLAY)) / writes);
    report.set("net.dropped_n", total(&|f| f.dropped));
    report.set("net.threads_n", crate::proc_status("Threads:") as f64);
    report.set("net.msgs_per_op", total(&|f| f.msgs(all)) / writes);
    report.set("net.bytes_per_op", total(&|f| f.bytes(all)) / writes);
    report.set("min_level", levels.percentile(0.0));
    report.set("below_hint_share", 1.0 - levels.at_least(ops::HINT) as f64 / levels.count() as f64);
    report.set("failed_share", ratio(report.failed as f64, report.attempted as f64));

    // Spans are timed each on its own, so their sum can fall short of the
    // wall: what is missing is the driving loop between them.
    let wall_ms = mean(&|r| r.wall_s * 1e3);
    let handler_ms = mean(&|r| r.handlers.total_ms());
    let engine_ms = mean(&|r| r.engine_ms);
    let local_write_ms = mean(&|r| r.local_write_ms);
    let driver_ms = mean(&|r| r.driver_ms);
    report.set("net.sim_self_ms", engine_ms - handler_ms);
    report.set("trace.wall_ms", wall_ms);
    report.set("trace.driver_ms", driver_ms);
    report.note(format!(
        "of {wall_ms:.1} ms wall: handlers {handler_ms:.1} + writes {local_write_ms:.1} + simulator self {:.1} = {:.1} %; harness polls {driver_ms:.1}; unmeasured {:.1}",
        engine_ms - handler_ms,
        (engine_ms + local_write_ms) / wall_ms * 100.0,
        wall_ms - engine_ms - local_write_ms - driver_ms,
    ));
    report.set("trace.overhead_share", 1.0 - rate(&traced) / rate(&plain));
    report.note(format!(
        "{} untraced + {} traced repeats; untraced {:.0} writes/s, traced {:.0} writes/s",
        plain.len(),
        traced.len(),
        rate(&plain),
        rate(&traced)
    ));

    let vv = probes::vv(&traced[0].writer_vectors);
    report.set("vv.triple_against_ns", vv.triple_against_ns);
    report.set("vv.summary_encode_ns", vv.summary_encode_ns);
    let probe_writes: Vec<ProbeWrite> = schedules[0]
        .iter()
        .filter_map(|e| match &e.action {
            SimAction::Write { object, .. } => Some(ProbeWrite {
                object: *object,
                meta_delta: ops::META_DELTA,
                payload: idea::prelude::UpdatePayload::none(),
            }),
            SimAction::Poll => None,
        })
        .take(PROBE_UPDATES)
        .collect();
    store_and_wal_probes(&mut report, &probe_writes, None);
    report
}
