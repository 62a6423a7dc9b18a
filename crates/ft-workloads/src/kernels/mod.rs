//! Real, runnable parallel mini-kernels.
//!
//! These are *executable* Rust counterparts of the benchmark domains —
//! a CloverLeaf-like 2-D hydrodynamics step, an AMG-like CSR sparse
//! solver, and a swim-like shallow-water stencil — parallelized with
//! rayon. They are what the examples run and what `ft-caliper`
//! profiles for real; the tuning experiments themselves run on the
//! program *models* in [`crate::programs`].
//!
//! All reductions use deterministic ordering (per-row partials reduced
//! in index order), mirroring the paper's strict floating-point
//! reproducibility requirement (`-fp-model source`, §3.2): the same
//! input always produces bitwise-identical results regardless of
//! thread count.

pub mod hydro;
pub mod shallow_water;
pub mod spmv;

pub use hydro::Hydro2d;
pub use shallow_water::ShallowWater;
pub use spmv::CsrMatrix;
