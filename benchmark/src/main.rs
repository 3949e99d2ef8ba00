//! One benchmark for the served path and the protocol plane.
//!
//! `idea-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one pass of one workload in this (fresh) process, checks its
//! outputs, prints every metric by name with its unit, and ends with one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`. The untraced
//! pass reports the end-to-end metrics; the traced pass reports the
//! per-layer ones, taken from outside by the wrappers in [`trace`] and the
//! probes in [`probes`]. See `README.md` for what each number means and
//! which end-to-end metric it should move.

mod names;
mod ops;
mod probes;
mod served;
mod sim;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Sizes the pass: a served one drives this many seconds' worth of
    /// operations at a nominal rate, a simulated one revisits its streams
    /// until this long has passed.
    pub seconds: f64,
    pub trace: bool,
    /// Fixed work ÷ 20, no revisits: checks only, numbers mean nothing.
    pub smoke: bool,
    /// Where result files and temporary WAL directories go.
    pub out: PathBuf,
}

/// What one pass of one workload found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks; all must hold for the pass to be correct.
    pub checks: Vec<(String, bool)>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context lines for the human reader (not part of the result).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        names::unit_of(name); // panics on an undeclared name
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, what: impl Into<String>, holds: bool) {
        self.checks.push((what.into(), holds));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result object the driver reads, as one line of JSON.
    fn json(&self, declared: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).expect("every declared metric is reported");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A field of `/proc/self/status` (`Threads:`, `VmHWM:` in kB); 0 where
/// `/proc` is unavailable.
pub fn proc_status(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: idea-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]",
        names::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 25.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/results"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = argv.next()?,
            "--seed" => args.seed = argv.next()?.parse().ok()?,
            "--seconds" => args.seconds = argv.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                args.trace = match argv.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => args.out = PathBuf::from(argv.next()?),
            _ => return None,
        }
    }
    names::WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    let tmp = args.out.join("tmp").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the temporary directory under --out");

    let mut report = workloads::run(&args, &tmp);
    if args.trace {
        // Layers a workload bypasses did no work.
        for (name, _) in names::PER_LAYER {
            report.metrics.entry(name).or_insert(0.0);
        }
    }
    let declared: &[(&str, &str)] = if args.trace { &names::PER_LAYER } else { &names::END_TO_END };

    println!(
        "# {} seed={} seconds={} trace={} smoke={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    for line in &report.notes {
        println!("# {line}");
    }
    for (name, unit) in declared {
        println!("{name:<34} {:>18.6} {unit}", report.metrics[name]);
    }
    for (what, ok) in &report.checks {
        println!("check {:<6} {what}", if *ok { "ok" } else { "FAILED" });
    }
    println!("attempted {} failed {}", report.attempted, report.failed);

    let line = report.json(declared);
    if report.correct() {
        // Temporary WAL directories are kept when a check failed.
        let _ = std::fs::remove_dir_all(&tmp);
        let _ = std::fs::remove_dir(args.out.join("tmp")); // only if now empty
    }
    if !args.smoke {
        let file = format!("{}{}.json", if args.trace { "trace_" } else { "" }, args.workload);
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}}}\n",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        std::fs::write(args.out.join(file), body).expect("write the result file");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
