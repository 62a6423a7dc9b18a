//! Shared helpers for the engine benchmarks: an evaluation context at
//! bench scale (reduced steps) and the CFR focus width the batch
//! shapes are drawn from.

use ft_compiler::Compiler;
use ft_core::EvalContext;
use ft_machine::Architecture;
use ft_outline::outline_with_defaults;
use ft_workloads::workload_by_name;

/// Bench-scale CFR focus width.
pub const BENCH_X: usize = 12;
/// Bench-scale step cap.
pub const BENCH_STEPS: u32 = 4;

/// An evaluation context at bench scale.
pub fn bench_ctx(bench: &str, arch: &Architecture) -> EvalContext {
    let w = workload_by_name(bench).expect("benchmark exists");
    let ir = w.instantiate(w.tuning_input(arch.name));
    let compiler = Compiler::icc(arch.target);
    let (outlined, _) = outline_with_defaults(&ir, &compiler, arch, BENCH_STEPS, 11);
    EvalContext::new(
        outlined.ir,
        Compiler::icc(arch.target),
        arch.clone(),
        BENCH_STEPS,
        99,
    )
}
