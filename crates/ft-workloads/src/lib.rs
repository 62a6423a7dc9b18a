//! The benchmark suite: program models of the seven HPC codes.
//!
//! Table 1 of the paper evaluates AMG, LULESH, CloverLeaf, 351.bwaves,
//! 362.fma3d, 363.swim and Optewe. We cannot ship those code bases, so
//! each benchmark is modelled as a [`Workload`]: a [`ProgramIr`] whose
//! hot-loop modules carry structural features chosen to match the
//! published characteristics (module count J, per-loop runtime ratios
//! for CloverLeaf's Table 3 kernels, memory-vs-compute balance per
//! domain, PGO-instrumentation failures for LULESH and Optewe), plus
//! the per-architecture input table of Table 2 and the §4.3
//! small/large input variants.

pub mod input;
pub mod programs;
pub mod suite;
pub mod synthetic;

pub use input::InputConfig;
pub use suite::{suite, workload_by_name, BenchMeta, Workload};

pub use ft_compiler::ProgramIr;
