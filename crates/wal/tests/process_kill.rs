//! Real crashes: each test re-runs its own binary as one child process
//! that reports every step that returned; the parent kills it mid-stream
//! and recovers what it left on disk.
//!
//! A killed process loses nothing it wrote (the page cache survives it),
//! so recovery must hold every reported step. The first child appends
//! window-32 Sync records: the recovered tail must be a prefix of what was
//! appended, zero tail and any torn frame aside. The second installs
//! snapshots of a growing state, each followed by a round of appends: the
//! recovered snapshot must be the last one reported (or the next, if the
//! kill fell between its rename and the report), never the half-written
//! `.tmp` with its zero header.

use idea_types::{NodeId, ObjectId, SimTime, Update, UpdateId, UpdatePayload, WriterId};
use idea_wal::{DurabilityConfig, ObjectSnapshot, ShardSnapshot, ShardWal, WalRecord};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set (to the WAL directory) in the child's environment.
const CHILD_ENV: &str = "IDEA_WAL_KILL_CHILD";
/// This test's name, for the child's `--exact` filter.
const TEST_NAME: &str = "killed_appender_recovers_every_returned_append";
/// The group-commit window the child appends under.
const WINDOW: u64 = 32;
/// Reported appends the parent waits for before the kill: several zero
/// chunks' worth, so the kill can land in any phase of an append.
const KILL_AFTER: u64 = 2_000;
/// The child's upper bound; the kill always comes first.
const CHILD_CAP: u64 = 1_000_000;

/// The largest payload a record carries.
const MAX_PAYLOAD: usize = 4_096;

/// Record `seq` (from 1): payload sizes vary so frames straddle chunk
/// boundaries at no fixed offset.
fn record(seq: u64) -> WalRecord {
    let len = 1 + (seq * 7_919 % MAX_PAYLOAD as u64) as usize;
    WalRecord::Write {
        update: Update {
            object: ObjectId(1),
            id: UpdateId { writer: WriterId(0), seq },
            at: SimTime::from_secs(seq),
            meta_delta: 1,
            payload: UpdatePayload::Opaque(bytes::Bytes::from(vec![seq as u8 | 1; len])),
        },
    }
}

/// The child: appends until killed, reporting each returned append on
/// stderr (libtest's own lines go to stdout).
fn append_until_killed(dir: &Path) {
    let cfg = DurabilityConfig::sync_grouped(dir, WINDOW);
    let (mut wal, r) = ShardWal::open(&cfg, NodeId(0), 0).expect("open the child's WAL");
    assert!(r.is_empty(), "the child starts from a fresh directory");
    let mut report = std::io::stderr();
    for seq in 1..=CHILD_CAP {
        wal.append(&record(seq)).expect("append");
        writeln!(report, "appended {seq}").expect("report to the parent");
    }
}

/// The sequence number a child's report line names.
fn reported_seq(line: &str) -> Option<u64> {
    line.strip_prefix("appended ").map(|seq| seq.parse().expect("a sequence number"))
}

/// Asserts that `tail` is records `1..=tail.len()` in order.
fn assert_prefix(tail: &[WalRecord]) {
    for (i, rec) in tail.iter().enumerate() {
        assert!(*rec == record(i as u64 + 1), "record {} is not what was appended", i + 1);
    }
}

/// The directory the child of the test `name` works in.
fn child_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("idea-wal-kill-{}-{name}", std::process::id()))
}

/// Runs the test `name` as a child with `env` set to a fresh directory,
/// reads its report lines until `done` says to kill it, kills it, and
/// passes every line it reported (before or after the kill) to `seen`.
/// Returns the directory the child worked in.
fn kill_child(
    name: &str,
    env: &str,
    mut seen: impl FnMut(&str),
    mut done: impl FnMut() -> bool,
) -> PathBuf {
    let dir = child_dir(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(std::env::current_exe().expect("this test binary"))
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(env, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the child");
    let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
    while !done() {
        let line = lines.next().expect("the child stopped before the kill");
        seen(&line.expect("read the child's report"));
    }
    child.kill().expect("kill the child");
    // Whatever the child reported before it died also returned.
    for line in lines.map_while(Result::ok) {
        seen(&line);
    }
    let status = child.wait().expect("reap the child");
    assert!(!status.success(), "the child was killed, not finished");
    dir
}

#[test]
fn killed_appender_recovers_every_returned_append() {
    if let Some(dir) = std::env::var_os(CHILD_ENV) {
        append_until_killed(Path::new(&dir));
        return;
    }
    let reported = std::cell::Cell::new(0u64);
    let dir = kill_child(
        TEST_NAME,
        CHILD_ENV,
        |line| reported.set(reported_seq(line).unwrap_or(reported.get())),
        || reported.get() >= KILL_AFTER,
    );
    let reported = reported.get();
    assert!(reported < CHILD_CAP, "the kill landed mid-stream");

    let cfg = DurabilityConfig::sync_grouped(&dir, WINDOW);
    let (mut wal, r) = ShardWal::open(&cfg, NodeId(0), 0).expect("reopen after the kill");
    assert_prefix(&r.tail);
    let recovered = r.tail.len() as u64;
    assert!(recovered >= reported, "{recovered} recovered, {reported} returned");
    // A frame's header and record fields take well under 64 bytes.
    assert!(r.torn_bytes < (MAX_PAYLOAD + 64) as u64, "at most one torn frame");

    // Appending resumes where the recovered tail ends.
    let total = recovered + 2 * WINDOW + 5;
    for seq in recovered + 1..=total {
        wal.append(&record(seq)).expect("append after recovery");
    }
    drop(wal);
    let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).expect("second reopen");
    assert_eq!(r.tail.len() as u64, total, "the second reopen sees everything");
    assert_prefix(&r.tail);
    assert_eq!(r.torn_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------- killed mid-snapshot

/// Set (to the WAL directory) in the snapshot child's environment.
const SNAP_CHILD_ENV: &str = "IDEA_WAL_SNAPSHOT_KILL_CHILD";
/// The snapshot test's name, for the child's `--exact` filter.
const SNAP_TEST_NAME: &str = "killed_snapshot_install_recovers_the_last_returned_snapshot";
/// Updates per round: about 64 KiB, so each snapshot is one installer
/// stage larger than the one before.
const ROUND: u64 = 16;
/// The parent kills the child once it has appended the round after this
/// many installs, as the next install starts: that snapshot spans about 50
/// stages, so the kill tends to land while it streams.
const SNAP_KILL_AFTER: u64 = 24;
/// The snapshot child's upper bound on rounds; the kill always comes first.
const SNAP_CHILD_CAP: u64 = 10_000;

/// Update `seq` (from 1) of the snapshot child's one object.
fn snap_update(seq: u64) -> Update {
    let len = 4_096 - (seq * 61 % 256) as usize;
    Update {
        object: ObjectId(1),
        id: UpdateId { writer: WriterId(0), seq },
        at: SimTime::from_secs(seq),
        meta_delta: 1,
        payload: UpdatePayload::Opaque(bytes::Bytes::from(vec![seq as u8 | 1; len])),
    }
}

/// The state after `rounds` rounds: updates `1..=rounds * ROUND`.
fn snapshot_after(rounds: u64) -> ShardSnapshot {
    ShardSnapshot {
        node: NodeId(0),
        writer: WriterId(0),
        shard: 0,
        objects: vec![ObjectSnapshot {
            object: ObjectId(1),
            next_seq: rounds * ROUND + 1,
            log: (1..=rounds * ROUND).map(snap_update).collect(),
            pending: vec![],
        }],
    }
}

/// The snapshot child: each round installs the state so far, reports it,
/// then appends (and reports) the next round's updates, until killed.
fn snapshot_until_killed(dir: &Path) {
    let cfg = DurabilityConfig::buffered(dir);
    let (mut wal, r) = ShardWal::open(&cfg, NodeId(0), 0).expect("open the child's WAL");
    assert!(r.is_empty(), "the child starts from a fresh directory");
    let mut report = std::io::stderr();
    let mut snap = snapshot_after(0);
    for round in 0..SNAP_CHILD_CAP {
        wal.install_snapshot(&snap.borrowed()).expect("install");
        writeln!(report, "installed {round}").expect("report to the parent");
        for seq in round * ROUND + 1..=(round + 1) * ROUND {
            let update = snap_update(seq);
            wal.append(&WalRecord::Write { update: update.clone() }).expect("append");
            writeln!(report, "appended {seq}").expect("report to the parent");
            snap.objects[0].log.push(update);
        }
        snap.objects[0].next_seq = (round + 1) * ROUND + 1;
    }
}

/// The update sequence numbers of a recovered tail.
fn tail_seqs(tail: &[WalRecord]) -> Vec<u64> {
    tail.iter()
        .map(|rec| match rec {
            WalRecord::Write { update } => update.seq(),
            other => panic!("the child appends writes only, not {other:?}"),
        })
        .collect()
}

#[test]
fn killed_snapshot_install_recovers_the_last_returned_snapshot() {
    if let Some(dir) = std::env::var_os(SNAP_CHILD_ENV) {
        snapshot_until_killed(Path::new(&dir));
        return;
    }
    let (installed, appended) = (std::cell::Cell::new(None), std::cell::Cell::new(0u64));
    let tmp = child_dir(SNAP_TEST_NAME).join("node-0").join("snap-0.tmp");
    let dir = kill_child(
        SNAP_TEST_NAME,
        SNAP_CHILD_ENV,
        |line| {
            if let Some(round) = line.strip_prefix("installed ") {
                installed.set(Some(round.parse::<u64>().expect("a round")));
            } else if let Some(seq) = reported_seq(line) {
                appended.set(seq);
            }
        },
        || {
            if appended.get() < (SNAP_KILL_AFTER + 1) * ROUND {
                return false;
            }
            // The next install has begun: kill once its zero header is
            // on disk, so the kill lands in the stream or soon after it.
            let streaming = || std::fs::metadata(&tmp).is_ok_and(|m| m.len() >= 16);
            let start = Instant::now();
            while !streaming() && start.elapsed() < Duration::from_secs(5) {}
            true
        },
    );
    let (installed, appended) = (installed.get().expect("installs were reported"), appended.get());
    assert!(installed < SNAP_CHILD_CAP, "the kill landed mid-stream");

    let cfg = DurabilityConfig::buffered(&dir);
    let check = |r: &idea_wal::Recovered| -> u64 {
        let snap = r.snapshot.as_ref().expect("a snapshot was installed");
        let round = snap.objects[0].log.len() as u64 / ROUND;
        assert_eq!(*snap, snapshot_after(round), "an intact snapshot of a whole round");
        // The rename can land before the kill and its report after it.
        assert!(
            round == installed || round == installed + 1,
            "round {round}, {installed} reported"
        );
        let tail = tail_seqs(&r.tail);
        let after: Vec<u64> = (round * ROUND + 1..).take(tail.len()).collect();
        // Killed between rename and truncate, the log still holds the
        // records this snapshot already has; replaying them is idempotent.
        let before: Vec<u64> = (round.saturating_sub(1) * ROUND + 1..=round * ROUND).collect();
        let unrenamed = round == installed + 1 && tail == before;
        assert!(tail == after || unrenamed, "tail {tail:?} after round {round}");
        if round == installed {
            let recovered = round * ROUND + tail.len() as u64;
            assert!(recovered >= appended, "{recovered} recovered, {appended} returned");
        }
        round
    };
    let (mut wal, r) = ShardWal::open(&cfg, NodeId(0), 0).expect("reopen after the kill");
    let round = check(&r);

    // Whatever the kill left in the `.tmp` file (nothing, a zero header
    // mid-stream, a whole unrenamed snapshot) is never read: even a
    // half-written one planted there changes nothing.
    let mut half = b"IDEASNP1".to_vec();
    half.extend_from_slice(&[0; 8]);
    half.extend_from_slice(&[7; 40_000]);
    std::fs::write(&tmp, &half).unwrap();
    let planted = ShardWal::load(&cfg, NodeId(0), 0).expect("load beside a half-written .tmp");
    assert_eq!((planted.snapshot, planted.tail), (r.snapshot, r.tail));

    // Installing resumes over the stale `.tmp`.
    let next = snapshot_after(round + 1);
    wal.install_snapshot(&next.borrowed()).expect("install after recovery");
    drop(wal);
    assert!(!tmp.exists(), "the install renamed its .tmp in");
    let (_, r) = ShardWal::open(&cfg, NodeId(0), 0).expect("second reopen");
    assert_eq!((r.snapshot, r.tail.len()), (Some(next), 0));
    std::fs::remove_dir_all(&dir).unwrap();
}
