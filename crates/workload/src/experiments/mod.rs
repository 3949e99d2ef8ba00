//! One module per table/figure of the paper's evaluation (§6), plus the
//! design-choice ablations listed in DESIGN.md.
//!
//! Every module exposes a `run*` function returning structured results and
//! a `report(...) -> String` that renders the paper-vs-measured comparison;
//! the `idea-bench` binaries and the `figures` bench are thin wrappers.

pub(crate) mod active;
pub mod fig10;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;

pub mod ablate;
