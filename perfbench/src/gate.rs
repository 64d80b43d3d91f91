//! The correctness gate: every setup, update and solve the benchmark
//! times is one operation, and every failure is counted, never dropped.

use std::fmt::Display;

use pdslin::{PdslinError, SolveOutcome};
use sparsekit::ops::norm2;
use sparsekit::Csr;

/// Largest accepted true residual `‖b − A x‖₂ / ‖b‖₂`.
pub const RESIDUAL_TOL: f64 = 1e-8;

/// How many failures are described on standard error; the rest are
/// only counted.
const REPORTED_FAILURES: u64 = 5;

/// `‖b − A x‖₂ / ‖b‖₂` on the matrix the caller passes, which must be
/// the original system, not the solver's Schur system.
pub fn relative_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    norm2(&r) / norm2(b)
}

/// Operations attempted and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error, did not converge, or missed
    /// the residual tolerance.
    pub failed: u64,
}

impl Ops {
    /// Counts a setup or update; it fails when it returns an error.
    pub fn record<T, E: Display>(&mut self, what: &str, result: &Result<T, E>) -> bool {
        match result {
            Ok(_) => self.pass(),
            Err(e) => self.fail(&format!("{what}: {e}")),
        }
    }

    /// Counts a solve of `a x = b`; it fails when it returns an error,
    /// does not converge, or leaves a true residual above
    /// [`RESIDUAL_TOL`] (a NaN residual fails too).
    pub fn record_solve(
        &mut self,
        a: &Csr,
        b: &[f64],
        result: &Result<SolveOutcome, PdslinError>,
    ) -> bool {
        let out = match result {
            Ok(out) => out,
            Err(e) => return self.fail(&format!("solve: {e}")),
        };
        if !out.converged {
            return self.fail(&format!("solve did not converge ({})", out.method));
        }
        let res = relative_residual(a, &out.x, b);
        if res <= RESIDUAL_TOL {
            self.pass()
        } else {
            self.fail(&format!("solve residual {res:e} > {RESIDUAL_TOL:e}"))
        }
    }

    fn pass(&mut self) -> bool {
        self.attempted += 1;
        true
    }

    fn fail(&mut self, why: &str) -> bool {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= REPORTED_FAILURES {
            eprintln!("perfbench: operation failed: {why}");
        }
        false
    }
}
