//! Every workload and metric name the harness can emit, with its unit.
//! `BENCHMARK.json` at the repo root lists exactly these (a unit test
//! checks both directions); results are emitted through [`unit_of`], so a
//! name that is not declared here cannot be printed.

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] =
    ["served_write", "served_read", "sim_hot_conflict", "sim_gossip_fanout"];

/// End-to-end metrics: every workload reports every one of them on its
/// untraced pass, and none of them can be zero.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("wire_bytes_per_write", "B"),
    ("msgs_per_write", "count"),
    ("resolve_ms_mean", "ms"),
    ("level_worst1pct_mean", "level"),
    ("within_hint_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced pass. A layer a workload bypasses
/// reports 0 (no work done there).
pub const PER_LAYER: [(&str, &str); 64] = [
    // Client-visible latency and outcome detail behind the end-to-end set.
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("min_level", "level"),
    ("below_hint_share", "share"),
    ("failed_share", "share"),
    // transport: codec/frame + evented server, seen from the client.
    ("transport.encode_ns_p50", "ns"),
    ("transport.decode_ns_p50", "ns"),
    ("transport.rtt_us_p50", "us"),
    ("transport.rtt_us_p99", "us"),
    ("transport.self_us_mean", "us"),
    ("transport.bytes_per_op", "B"),
    ("transport.loop_wakeups_per_op", "count"),
    ("transport.reads_deferred_n", "count"),
    // core: command dispatch (mailbox wait + apply) and protocol handlers.
    ("core.dispatch_us_p50.write", "us"),
    ("core.dispatch_us_p99.write", "us"),
    ("core.dispatch_us_p50.read", "us"),
    ("core.dispatch_us_p99.read", "us"),
    ("core.dispatch_call_ns_p50", "ns"),
    ("core.local_write_ms", "ms"),
    ("core.local_write_n", "count"),
    ("core.resolution.on_message_ms", "ms"),
    ("core.resolution.on_message_n", "count"),
    ("core.transfer.on_message_ms", "ms"),
    ("core.transfer.on_message_n", "count"),
    ("core.on_timer_ms", "ms"),
    ("core.on_timer_n", "count"),
    ("core.resolutions_n", "count"),
    ("core.rollbacks_n", "count"),
    ("core.resolution_useful_share", "share"),
    // detect
    ("detect.on_message_ms", "ms"),
    ("detect.on_message_n", "count"),
    ("detect.bytes_per_write", "B"),
    ("detect.msgs_per_write", "count"),
    // overlay: gossip + overlay maintenance classes.
    ("overlay.on_message_ms", "ms"),
    ("overlay.on_message_n", "count"),
    ("overlay.bytes_per_write", "B"),
    ("overlay.msgs_per_write", "count"),
    // net: the engines themselves.
    ("net.sim_self_ms", "ms"),
    ("net.dropped_n", "count"),
    ("net.threads_n", "count"),
    ("net.msgs_per_op", "count"),
    ("net.bytes_per_op", "B"),
    // vv and store: probes on the workload's own data.
    ("vv.triple_against_ns", "ns"),
    ("vv.summary_encode_ns", "ns"),
    ("store.write_ns_p50", "ns"),
    ("store.ingest_ns_p50", "ns"),
    ("store.read_ns_p50", "ns"),
    // wal
    ("wal.bytes_per_write", "B"),
    ("wal.append_us_p50", "us"),
    ("wal.sync_us_p50", "us"),
    ("wal.recover_ms", "ms"),
    ("wal.tail_records_n", "count"),
    // Open-loop leg (ungated): fixed rate, latency from the due time.
    ("openloop.rate_per_s", "1/s"),
    ("openloop.write_p50_us", "us"),
    ("openloop.write_p99_us", "us"),
    ("openloop.read_p50_us", "us"),
    ("openloop.read_p99_us", "us"),
    ("openloop.max_late_us", "us"),
    ("openloop.failed_share", "share"),
    // The trace's own accounting.
    ("trace.wall_ms", "ms"),
    ("trace.driver_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// The unit a declared metric is reported in.
///
/// # Panics
/// Panics on an undeclared name — emitting one is a harness bug.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in names.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Every `"name": "<value>"` inside the array that follows `"<key>":`.
    fn names_under(json: &str, key: &str) -> BTreeSet<String> {
        let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no key {key}"));
        let body = &json[start..];
        let body = &body[body.find('[').expect("array opens")..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find(':').expect("name has a value") + 1..];
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    fn declared(list: &[(&str, &str)]) -> BTreeSet<String> {
        list.iter().map(|(n, _)| n.to_string()).collect()
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(name), "bad metric name {name:?}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?} for {name}"
            );
        }
        assert!(WORKLOADS.iter().all(|w| well_formed(w)));
        let all: BTreeSet<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .chain(WORKLOADS.iter().copied())
            .collect();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
            "a name repeats"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_names() {
        let json = include_str!("../../BENCHMARK.json");
        let workloads: BTreeSet<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_under(json, "workloads"), workloads);
        assert_eq!(names_under(json, "end_to_end"), declared(&END_TO_END));
        assert_eq!(names_under(json, "per_layer"), declared(&PER_LAYER));
        assert!(names_under(json, "end_to_end").contains("setup_s"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_cannot_be_emitted() {
        unit_of("made_up_metric");
    }
}
