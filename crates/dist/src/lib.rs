//! # flexdist-dist
//!
//! Replicating a distribution [`Pattern`](flexdist_core::Pattern) over a
//! concrete tiled matrix, and analysing the result.
//!
//! * [`TileAssignment`] — the `t × t` map from matrix tiles to owner nodes,
//!   including the **extended** greedy placement of undefined (diagonal)
//!   pattern cells used by extended SBC and GCR&M (paper §V);
//! * [`comm`] — exact per-iteration communication-volume counting for
//!   right-looking LU and Cholesky under the owner-computes rule, together
//!   with the closed-form estimates of paper Eq. 1 / Eq. 2;
//! * [`schedule`] — the underlying Fig. 2 broadcast walks as a reusable
//!   message stream (sender, tile, epoch, distinct receiver set), which
//!   the volume counters fold over and the static protocol verifier
//!   uses as its independent oracle;
//! * [`splice`] — the walks fused across any number of crash points:
//!   the exact message stream (and its total / recovered volume split)
//!   of a run that re-maps dead nodes' tiles onto survivors. Its
//!   zero-crash case is the distributed executor's schedule;
//! * [`load`] — per-node tile-count and flop-weighted load reports.

#![forbid(unsafe_code)]

pub mod assignment;
pub mod comm;
pub mod load;
pub mod schedule;
pub mod splice;

pub use assignment::TileAssignment;
pub use comm::{cholesky_comm_volume, gemm_comm_volume, lu_comm_volume, CommBreakdown};
pub use load::LoadReport;
pub use schedule::{cholesky_broadcasts, lu_broadcasts, BcastClass, BcastMsg};
pub use splice::{
    cholesky_spliced_chain, lu_spliced_chain, spliced_volume, SplicedMsg, SplicedVolume,
};
