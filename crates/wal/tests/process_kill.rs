//! A real crash: the test re-runs its own binary as one child process
//! that appends window-32 Sync records and reports every append that
//! returned; the parent kills it mid-stream and recovers the log.
//!
//! A killed process loses nothing it wrote (the page cache survives it),
//! so the recovered tail must hold every reported record — and be a
//! prefix of what was appended, zero tail and any torn frame aside.

use idea_types::{NodeId, ObjectId, SimTime, Update, UpdateId, UpdatePayload, WriterId};
use idea_wal::{DurabilityConfig, ShardWal, WalRecord};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};

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

#[test]
fn killed_appender_recovers_every_returned_append() {
    if let Some(dir) = std::env::var_os(CHILD_ENV) {
        append_until_killed(Path::new(&dir));
        return;
    }
    let dir = std::env::temp_dir().join(format!("idea-wal-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(std::env::current_exe().expect("this test binary"))
        .args(["--exact", TEST_NAME, "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the appending child");
    let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
    let mut reported = 0u64;
    while reported < KILL_AFTER {
        let line = lines.next().expect("the child stopped before the kill");
        reported = reported_seq(&line.expect("read the child's report")).unwrap_or(reported);
    }
    child.kill().expect("kill the child");
    // Whatever the child reported before it died also returned.
    for line in lines.map_while(Result::ok) {
        reported = reported_seq(&line).unwrap_or(reported);
    }
    let status = child.wait().expect("reap the child");
    assert!(!status.success(), "the child was killed, not finished");
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
