//! The paper artifacts: one binary per table/figure of the paper plus the
//! ablations, and three Criterion benches. (The repo's performance
//! benchmark is the standalone `benchmark/` package, see `BENCHMARK.json`.)
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Figure 2 (trade-off) | `cargo run -p idea-bench --release --bin fig2` |
//! | Figure 7(a)/(b) | `cargo run -p idea-bench --release --bin fig7 -- 0.95` / `-- 0.85` |
//! | Figure 8 | `cargo run -p idea-bench --release --bin fig8` |
//! | Table 2 | `cargo run -p idea-bench --release --bin table2` |
//! | Figure 9 | `cargo run -p idea-bench --release --bin fig9` |
//! | Table 3 | `cargo run -p idea-bench --release --bin table3` |
//! | Figure 10 | `cargo run -p idea-bench --release --bin fig10` |
//! | Ablations A1–A4 | `ablate_coverage`, `ablate_rollback`, `ablate_parallel`, `ablate_booking_bounds` |
//!
//! `cargo bench` runs `benches/figures.rs` (every scenario end-to-end,
//! printing the paper-vs-measured reports), `benches/microbench.rs`
//! (Criterion timings of the building blocks) and `benches/hotpath.rs`
//! (the detection hot path at realistic history depths, and the codec
//! and frame costs).

#![forbid(unsafe_code)]

/// Default seed shared by the binaries, so a rerun prints the same report.
/// No report is checked in to agree with: the figures are pinned by shape
/// predicates only — the `shape holds` line each binary prints and the
/// reduced-size checks in the facade's `tests/figures_smoke.rs`.
pub(crate) const DEFAULT_SEED: u64 = 7;

/// Parses an optional `--seed N`-style trailing argument (`args[i]` may also
/// be a bare float/int used by individual binaries).
pub fn seed_from_args() -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    DEFAULT_SEED
}
