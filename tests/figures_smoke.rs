//! Reduced-size versions of every paper experiment, asserting the shapes
//! the full bench harness regenerates. These shape predicates are the
//! only pin on the reproduction claims: no recorded figure values are
//! checked in to compare against.

use idea::workload::experiments::{ablate, fig10, fig2, fig8, fig9, table2, table3};
use idea::workload::runner::{run_booking, BookingRunConfig, HintRunConfig};
use idea_types::SimDuration;

#[test]
fn fig7a_minimum_sits_just_below_the_hint() {
    let r = idea::workload::runner::run_hint(&HintRunConfig {
        nodes: 16,
        hint: 0.95,
        duration: SimDuration::from_secs(80),
        ..Default::default()
    });
    assert!(r.min_worst < 0.95, "min {}", r.min_worst);
    assert!(r.min_worst > 0.85, "min {}", r.min_worst);
    assert!(r.resolutions >= 1);
}

#[test]
fn fig7b_minimum_sits_just_below_the_lower_hint() {
    let r = idea::workload::runner::run_hint(&HintRunConfig {
        nodes: 16,
        hint: 0.85,
        duration: SimDuration::from_secs(80),
        ..Default::default()
    });
    assert!(r.min_worst < 0.85, "min {}", r.min_worst);
    assert!(r.min_worst > 0.72, "min {}", r.min_worst);
}

#[test]
fn fig8_reset_shifts_the_floor() {
    let r = fig8::run(7);
    assert!(fig8::shape_holds(&r, 0.08), "minima {:?}", fig8::half_minima(&r));
}

#[test]
fn table2_phase_split_matches_paper_shape() {
    let r = table2::run(7);
    assert!(table2::shape_holds(&r), "{r:?}");
}

#[test]
fn fig9_scales_linearly_under_a_second() {
    let points = fig9::run(6, 7);
    assert!(fig9::shape_holds(&points, 0.45), "{points:?}");
}

#[test]
fn table3_overhead_ratio_and_bandwidth() {
    let base = BookingRunConfig { nodes: 12, seed: 7, ..Default::default() };
    let r = table3::Table3Result {
        fast: run_booking(&BookingRunConfig { period: SimDuration::from_secs(20), ..base.clone() }),
        slow: run_booking(&BookingRunConfig { period: SimDuration::from_secs(40), ..base }),
    };
    assert!(table3::shape_holds(&r));
}

#[test]
fn fig10_frequency_consistency_tradeoff() {
    let base = BookingRunConfig { nodes: 12, seed: 7, ..Default::default() };
    let r = fig10::Fig10Result {
        fast: run_booking(&BookingRunConfig { period: SimDuration::from_secs(20), ..base.clone() }),
        slow: run_booking(&BookingRunConfig { period: SimDuration::from_secs(40), ..base }),
    };
    assert!(fig10::shape_holds(&r));
}

#[test]
fn fig2_protocol_ordering() {
    let rows = fig2::run(&fig2::TradeoffConfig {
        duration: SimDuration::from_secs(60),
        ..Default::default()
    });
    assert!(fig2::shape_holds(&rows), "{rows:?}");
}

#[test]
fn ablations_run_and_report() {
    assert!(ablate::report_coverage(&ablate::run_coverage(40)).contains("95"));
    assert!(ablate::report_bounds(&ablate::run_bounds()).contains("window"));
    let rows = ablate::run_parallel(6, 7);
    assert!(rows.iter().all(|r| r.parallel_ms < r.sequential_ms));
}
