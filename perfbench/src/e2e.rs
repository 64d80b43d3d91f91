//! The untraced pass: what a user of the solver sees, timed around the
//! public entry points only.

use std::time::Instant;

use pdslin::par::THREADS_ENV;
use pdslin::{Pdslin, PdslinError, SolveOutcome};
use sparsekit::Csr;

use crate::report::{median, peak_rss_mb, percentile, timed, Report};
use crate::workload::{Inputs, Share, Workload, BATCH};

/// `solver.solve(b)` with `PDSLIN_THREADS=1`, so the triangular sweeps
/// run serially; the variable's previous value is restored afterwards.
///
/// Single-RHS solves run on one worker because the split sweeps of a
/// multi-worker solve wait at a barrier after every level. On a host
/// whose virtual cores are descheduled now and then, that wait tracks
/// the host's steal time: on 2 cores a g3 solve took 0.2 to 0.8 s. One
/// worker is also the faster path today. The traced pass still times
/// the solve at the default worker count (`solve.ms`).
pub fn solve_on_one_worker(solver: &mut Pdslin, b: &[f64]) -> Result<SolveOutcome, PdslinError> {
    let saved = std::env::var_os(THREADS_ENV);
    std::env::set_var(THREADS_ENV, "1");
    let r = solver.solve(b);
    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    r
}

/// The operations an untraced run interleaves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Setup,
    Solve,
    Batch,
    Step,
}

/// One kind of operation: its share of the run, the durations of its
/// timed repetitions, and the wall time it has taken so far.
struct Kind {
    op: Op,
    share: Share,
    durations: Vec<f64>,
    spent: f64,
}

impl Kind {
    fn new(op: Op, share: Share) -> Kind {
        Kind {
            op,
            share,
            durations: Vec::new(),
            spent: 0.0,
        }
    }

    /// How far the kind has run relative to its share; the kind that
    /// lags most runs next.
    fn progress(&self) -> f64 {
        self.spent / self.share.share
    }
}

/// The next operation to run, or `None` when the run is over: the kind
/// that lags its share most among those still below their minimum count
/// or whose typical duration fits in the time left.
fn next(kinds: &[Kind], elapsed: f64, seconds: f64) -> Option<Op> {
    let mut order: Vec<&Kind> = kinds.iter().collect();
    order.sort_by(|x, y| x.progress().total_cmp(&y.progress()));
    order
        .into_iter()
        .find(|k| k.durations.len() < k.share.min || elapsed + median(&k.durations) <= seconds)
        .map(|k| k.op)
}

/// One timed `Pdslin::setup`, followed by an untimed solve and an
/// untimed batch with one right-hand side per core, which size the new
/// solver's arenas. Every one of them is checked. Returns the solver
/// and the setup's seconds; fails when the setup does, since nothing
/// else can run without a solver.
fn setup(inp: &mut Inputs, rep: &mut Report) -> Result<(Pdslin, f64), String> {
    let (r, s) = timed(|| Pdslin::setup(&inp.a, inp.cfg));
    if !rep.ops.record("setup", &r) {
        return Err("setup failed".to_string());
    }
    let mut solver = r.expect("recorded as passed");
    let b = inp.rhs.next(inp.a.nrows());
    let r = solve_on_one_worker(&mut solver, &b);
    rep.ops.record_solve(&inp.a, &b, &r);
    let lanes = std::thread::available_parallelism().map_or(1, |p| p.get());
    batch(inp, rep, &mut solver, None, lanes);
    Ok((solver, s))
}

/// The matrix the solver holds: the setup matrix, or the sequence
/// matrix of the last step.
fn held(inp: &Inputs, step: Option<usize>) -> &Csr {
    step.map_or(&inp.a, |t| &inp.steps[t])
}

/// One timed `solve_many` over `count` new right-hand sides, every one
/// of them checked on the matrix the solver holds; returns its seconds.
fn batch(
    inp: &mut Inputs,
    rep: &mut Report,
    solver: &mut Pdslin,
    step: Option<usize>,
    count: usize,
) -> f64 {
    let n = inp.a.nrows();
    let bs: Vec<Vec<f64>> = (0..count).map(|_| inp.rhs.next(n)).collect();
    let (r, s) = timed(|| solver.solve_many(&bs));
    let a = held(inp, step);
    match r {
        Ok(outs) => {
            for (b, out) in bs.iter().zip(outs) {
                rep.ops.record_solve(a, b, &Ok(out));
            }
        }
        Err(e) => {
            for b in &bs {
                rep.ops.record_solve(a, b, &Err(e.clone()));
            }
        }
    }
    s
}

/// Runs `workload` for about `seconds` and reports every end-to-end
/// metric. The operations are interleaved: whichever kind lags its
/// share of the run goes next. Fails when a setup fails.
pub fn run(workload: Workload, inp: &mut Inputs, seconds: f64) -> Result<Report, String> {
    let mix = workload.mix();
    let start = Instant::now();
    let mut rep = Report::new(false);
    let n = inp.a.nrows();
    let mut kinds = [
        Kind::new(Op::Setup, mix.setups),
        Kind::new(Op::Solve, mix.solves),
        Kind::new(Op::Batch, mix.batches),
        Kind::new(Op::Step, mix.steps),
    ];

    let (mut solver, s) = setup(inp, &mut rep)?;
    kinds[0].durations.push(s);
    kinds[0].spent = start.elapsed().as_secs_f64();
    let mut peak_rss = None;
    // Sequence steps taken, and the one whose values the solver holds.
    let mut steps = 0;
    let mut at = None;
    while let Some(op) = next(&kinds, start.elapsed().as_secs_f64(), seconds) {
        let began = Instant::now();
        let s = match op {
            Op::Setup => {
                // The first solver's whole life is over: its peak memory
                // is the process's so far. Later setups only add what the
                // allocator retains between solvers.
                if peak_rss.is_none() {
                    peak_rss = Some(peak_rss_mb().ok_or("VmHWM is not available")?);
                }
                drop(solver);
                let (built, s) = setup(inp, &mut rep)?;
                solver = built;
                at = None;
                s
            }
            Op::Solve => {
                let b = inp.rhs.next(n);
                let (r, s) = timed(|| solve_on_one_worker(&mut solver, &b));
                rep.ops.record_solve(held(inp, at), &b, &r);
                s
            }
            Op::Batch => batch(inp, &mut rep, &mut solver, at, BATCH),
            Op::Step => {
                // New values in place, then a solve on them.
                let t = steps % inp.steps.len();
                steps += 1;
                let b = inp.rhs.next(n);
                let a_t = &inp.steps[t];
                let ((upd, r), s) = timed(|| {
                    let upd = solver.update_values(a_t);
                    let r = upd.is_ok().then(|| solve_on_one_worker(&mut solver, &b));
                    (upd, r)
                });
                if rep.ops.record("update", &upd) {
                    at = Some(t);
                    if let Some(r) = r {
                        rep.ops.record_solve(a_t, &b, &r);
                    }
                }
                s
            }
        };
        let kind = kinds
            .iter_mut()
            .find(|k| k.op == op)
            .expect("every op has a kind");
        kind.durations.push(s);
        kind.spent += began.elapsed().as_secs_f64();
    }
    let peak_rss = match peak_rss {
        Some(p) => p,
        None => peak_rss_mb().ok_or("VmHWM is not available")?,
    };

    let [setup_s, solve_s, batch_s, step_s] = kinds.map(|k| k.durations);
    let solve_ms: Vec<f64> = solve_s.iter().map(|s| 1e3 * s).collect();
    let rates: Vec<f64> = batch_s.iter().map(|s| BATCH as f64 / s).collect();
    rep.set("setup_s", median(&setup_s));
    rep.set("solve_ms_p50", median(&solve_ms));
    rep.set("solve_ms_p90", percentile(&solve_ms, 0.9));
    rep.set("rhs_per_s", median(&rates));
    rep.set("step_s_p50", median(&step_s));
    rep.set("peak_rss_mb", peak_rss);
    rep.samples = [
        ("setups", setup_s.len()),
        ("solves", solve_s.len()),
        ("batches", batch_s.len()),
        ("steps", step_s.len()),
    ]
    .into();
    Ok(rep)
}
