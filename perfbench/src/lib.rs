//! Benchmark of the pdslin solver.
//!
//! Three workloads stress different layers: `tdr-rhb-setup` the setup
//! phases, `g3-solve-stream` the solve phase, `m211-value-seq` the
//! numeric replay of a value sequence. An untraced run times the public
//! entry points and reports the end-to-end metrics; a traced run reads
//! the per-layer spans the solver records and times the solve-phase
//! kernels from outside. Both check every answer on the original
//! system.
//! See `README.md` beside this crate.

pub mod e2e;
pub mod gate;
pub mod report;
pub mod trace;
pub mod workload;

pub use report::Report;
pub use workload::{Inputs, Size, Workload};

/// Generates the inputs of `workload` from `seed` and runs one pass of
/// about `seconds`: the traced pass when `trace` is set, the untraced
/// one otherwise.
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut inp = Inputs::generate(workload, size, seed);
    if trace {
        trace::run(&mut inp, seconds)
    } else {
        e2e::run(workload, &mut inp, seconds)
    }
}
