//! Baseline consistency protocols for the Figure-2 trade-off study.
//!
//! Figure 2 of the paper positions IDEA between **optimistic consistency
//! control** ("the de facto consistency protocol in large distributed
//! systems" — slower detection, lowest overhead) and **strong consistency**
//! (fast "detection" by construction, highest overhead). The related-work
//! comparison adds **TACT** (Yu & Vahdat, OSDI 2000), which *bounds*
//! inconsistency at a predefined level rather than adapting it.
//!
//! All three baselines run on the same engines and store as IDEA, so the
//! trade-off ablation ([`crate::experiments::fig2`], `idea-bench --bin
//! fig2`) measures them under an identical workload and an identical
//! consistency oracle.

pub(crate) mod messages;
pub(crate) mod optimistic;
pub(crate) mod strong;
pub(crate) mod tact;

pub(crate) use optimistic::OptimisticNode;
pub(crate) use strong::StrongNode;
pub(crate) use tact::{TactBounds, TactNode};
