//! The traced pass: reads each layer's span and size from the
//! statistics `Pdslin::setup` and `Pdslin::update_values` record in
//! `Pdslin::stats`, and times from outside, through public functions,
//! only what those do not record: the assembly of `Ŝ`, the interface
//! flop count, and the solve-phase kernels. The program itself records
//! nothing new.

use std::time::Instant;

use pdslin::interface::{compute_interface_planned, InterfaceConfig};
use pdslin::par::{inner_worker_count, outer_worker_count, par_map};
use pdslin::schur::assemble_schur_workers;
use pdslin::{Budget, Pdslin, PdslinConfig, PhaseTimes, SequencePolicy};
use slu::{LuFactors, TriScratch};
use sparsekit::Csr;

use crate::e2e::solve_on_one_worker;
use crate::report::{median, timed, Report};
use crate::workload::Inputs;

/// Fewest timed setups; more run for up to a third of the pass.
const MIN_SETUPS: usize = 3;

/// Timed single solves per worker count.
const TIMED_SOLVES: usize = 7;

/// Timed value updates, cycling through the sequence matrices.
const TIMED_UPDATES: usize = 5;

/// Timed assemblies of `Ŝ`.
const TIMED_ASSEMBLIES: usize = 3;

/// The phase times one setup or update added to `Pdslin::stats`,
/// beside the wall time of the call.
struct Spans {
    wall: f64,
    times: PhaseTimes,
    /// Slowest subdomain's `LU(D)` and `Comp(S)` in the last call that
    /// recorded them.
    lu_d_max: f64,
    comp_s_max: f64,
}

impl Spans {
    /// What `solver.stats` gained since its phase times were `before`,
    /// in a call of `wall` seconds.
    fn of(solver: &Pdslin, wall: f64, before: &PhaseTimes) -> Spans {
        let (t, b) = (&solver.stats.times, before);
        let max = |xs: &[f64]| xs.iter().cloned().fold(0.0, f64::max);
        let costs = &solver.stats.domain_costs;
        Spans {
            wall,
            times: PhaseTimes {
                partition: t.partition - b.partition,
                extract: t.extract - b.extract,
                lu_d: t.lu_d - b.lu_d,
                comp_s: t.comp_s - b.comp_s,
                lu_s: t.lu_s - b.lu_s,
                solve: t.solve - b.solve,
            },
            lu_d_max: max(&costs.lu_d),
            comp_s_max: max(&costs.comp_s),
        }
    }

    /// The recorded phases; `Ŝ`'s assembly is not among them.
    fn phases(&self) -> f64 {
        self.times.setup()
    }
}

/// Median over `spans` of `f`.
fn mid(spans: &[Spans], f: impl Fn(&Spans) -> f64) -> f64 {
    median(&spans.iter().map(f).collect::<Vec<_>>())
}

/// The interface stage once more over the solver's own factors, with
/// the worker counts `Pdslin::setup` uses: the stats record neither its
/// flop count nor the `T̃` blocks an outside timing of the assembly
/// needs. Returns the blocks and the flops of the `G̃` and `W̃` solves.
fn interface_blocks(solver: &Pdslin, cfg: &PdslinConfig) -> Result<(Vec<Csr>, u64), String> {
    let icfg = InterfaceConfig {
        block_size: cfg.block_size,
        ordering: cfg.rhs_ordering,
        drop_tol: cfg.interface_drop_tol,
    };
    let (domains, factors) = (&solver.sys.domains, &solver.factors);
    let inner = inner_worker_count(
        outer_worker_count(domains.len(), cfg.parallel),
        cfg.parallel,
    );
    let outs = par_map(domains, |l, dom| {
        compute_interface_planned(&factors[l], dom, &icfg, &Budget::unlimited(), inner, None)
    });
    let (mut blocks, mut flops) = (Vec::new(), 0);
    for r in outs {
        let (out, _) = r.map_err(|e| format!("interface: {e:?}"))?;
        flops += out.g_block.flops + out.w_block.flops;
        blocks.push(out.t_tilde);
    }
    Ok((blocks, flops))
}

/// Median milliseconds of `f`, repeated until at least `min_reps` runs
/// and `min_seconds` have passed, after one untimed warm-up call.
fn repeat_ms(min_reps: usize, min_seconds: f64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min_reps || start.elapsed().as_secs_f64() < min_seconds {
        let t = Instant::now();
        f();
        ms.push(1e3 * t.elapsed().as_secs_f64());
    }
    median(&ms)
}

/// Milliseconds of one solve through each factor in `lus` (summed),
/// at `workers` threads per solve.
fn trisolve_ms(lus: &[&LuFactors], workers: usize, slice: f64) -> f64 {
    let rhs: Vec<Vec<f64>> = lus.iter().map(|lu| vec![1.0; lu.n()]).collect();
    let mut xs: Vec<Vec<f64>> = lus.iter().map(|lu| vec![0.0; lu.n()]).collect();
    let mut scratch: Vec<TriScratch> = lus.iter().map(|_| TriScratch::new()).collect();
    repeat_ms(5, slice, || {
        for (((lu, b), x), sc) in lus.iter().zip(&rhs).zip(&mut xs).zip(&mut scratch) {
            lu.solve_into(b, x, sc, workers);
        }
        std::hint::black_box(&xs);
    })
}

/// Runs the traced pass and reports every per-layer metric.
pub fn run(inp: &mut Inputs, seconds: f64) -> Result<Report, String> {
    let start = Instant::now();
    let mut rep = Report::new(true);
    let (a, cfg) = (&inp.a, inp.cfg);
    let n = a.nrows();

    // Setups, each with the spans it records, for up to a third of the
    // run; the spans are medians, the sizes those of the last setup.
    let mut setups = Vec::new();
    let mut solver = None;
    while setups.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < seconds / 3.0 {
        drop(solver.take());
        let (r, s) = timed(|| Pdslin::setup(a, cfg));
        if !rep.ops.record("setup", &r) {
            return Err("setup failed".to_string());
        }
        let built = r.expect("recorded as passed");
        setups.push(Spans::of(&built, s, &PhaseTimes::default()));
        solver = Some(built);
    }
    let mut solver = solver.expect("set in the loop");

    // Ŝ's assembly from outside, on the blocks the solver assembled.
    let (t_tildes, flops) = interface_blocks(&solver, &cfg)?;
    let nnz_t: Vec<usize> = t_tildes.iter().map(Csr::nnz).collect();
    if nnz_t != solver.stats.nnz_t {
        eprintln!("perfbench: the interface stage from outside differs from setup in nnz(T~)");
        rep.consistent = false;
    }
    let sys = &solver.sys;
    let mut assemble_s = Vec::new();
    let mut nnz_s_hat = 0;
    for _ in 0..TIMED_ASSEMBLIES {
        let workers = outer_worker_count(sys.nsep(), cfg.parallel);
        let (s_hat, s) = timed(|| assemble_schur_workers(sys, &t_tildes, workers));
        assemble_s.push(s);
        nnz_s_hat = s_hat.nnz();
    }
    drop(t_tildes);
    let assemble = median(&assemble_s);

    let stats = &solver.stats;
    let nnz_d: Vec<f64> = stats.nnz_d.iter().map(|&x| x as f64).collect();
    let mean_nnz_d = nnz_d.iter().sum::<f64>() / nnz_d.len() as f64;
    let n_s = stats.separator_size as f64;
    rep.set("partition.s", mid(&setups, |s| s.times.partition));
    rep.set("partition.sep", n_s);
    rep.set(
        "partition.nnz_d_imbalance",
        nnz_d.iter().cloned().fold(0.0, f64::max) / mean_nnz_d,
    );
    rep.set("extract.s", mid(&setups, |s| s.times.extract));
    rep.set("lu_d.s", mid(&setups, |s| s.times.lu_d));
    rep.set("lu_d.max_s", mid(&setups, |s| s.lu_d_max));
    let domain_fill: usize = solver.factors.iter().map(|f| f.lu.fill()).sum();
    rep.set("lu_d.fill", domain_fill as f64);
    rep.set("interface.s", mid(&setups, |s| s.times.comp_s));
    rep.set("interface.max_s", mid(&setups, |s| s.comp_s_max));
    rep.set("interface.flops", flops as f64);
    let padded: u64 = stats.interface.iter().map(|i| i.padded_zeros).sum();
    rep.set("interface.padded_zeros", padded as f64);
    rep.set("interface.nnz_t", stats.nnz_t.iter().sum::<usize>() as f64);
    rep.set("schur.assemble_s", assemble);
    rep.set("schur.nnz_s_hat", nnz_s_hat as f64);
    rep.set("lu_s.s", mid(&setups, |s| s.times.lu_s));
    rep.set("lu_s.nnz_s_tilde", stats.nnz_schur as f64);
    let schur_fill = solver.schur_lu.fill() as f64;
    rep.set("lu_s.fill", schur_fill);
    rep.set("lu_s.density", schur_fill / (n_s * n_s));
    rep.set(
        "driver.setup_gap_s",
        mid(&setups, |s| s.wall - s.phases()) - assemble,
    );
    rep.set(
        "trace.stage_share",
        mid(&setups, |s| (s.phases() + assemble) / s.wall),
    );

    // Solve-phase kernels on the solver's factors, at the worker
    // count a single-RHS solve uses and at one worker.
    let host = inner_worker_count(1, cfg.parallel);
    let schur = [&solver.schur_lu];
    let domains: Vec<&LuFactors> = solver.factors.iter().map(|f| &f.lu).collect();
    rep.set("trisolve.schur_ms", trisolve_ms(&schur, host, 0.5));
    rep.set("trisolve.schur_ms_serial", trisolve_ms(&schur, 1, 0.5));
    rep.set("trisolve.domains_ms", trisolve_ms(&domains, host, 0.5));
    rep.set("trisolve.domains_ms_serial", trisolve_ms(&domains, 1, 0.5));
    let (mut levels, mut width) = (0, 0);
    for lu in schur.iter().chain(&domains) {
        let plan = lu.solve_plan();
        for (l, w) in [plan.forward_levels(), plan.backward_levels()] {
            levels += l;
            width = width.max(w);
        }
    }
    rep.set("trisolve.levels", levels as f64);
    rep.set("trisolve.max_width", width as f64);
    let x = inp.rhs.next(n);
    let mut y = vec![0.0; n];
    rep.set(
        "spmv.ms",
        repeat_ms(20, 0.3, || a.matvec_into_workers(&x, &mut y, host)),
    );
    rep.set(
        "spmv.ms_serial",
        repeat_ms(20, 0.3, || a.matvec_into_workers(&x, &mut y, 1)),
    );

    // Single solves at the default worker count and on one worker (the
    // untraced pass times the latter); the first only sizes the arenas.
    // Their Krylov iterations join those of a value sequence run under
    // the library's staleness policy.
    let mut iters = Vec::new();
    let mut solve_ms = |one_worker: bool, reps: usize, rep: &mut Report| {
        let mut ms = Vec::new();
        for _ in 0..reps {
            let b = inp.rhs.next(n);
            let (r, s) = timed(|| {
                if one_worker {
                    solve_on_one_worker(&mut solver, &b)
                } else {
                    solver.solve(&b)
                }
            });
            ms.push(1e3 * s);
            if rep.ops.record_solve(a, &b, &r) {
                iters.push(r.map_or(0.0, |o| o.iterations as f64));
            }
        }
        median(&ms)
    };
    solve_ms(false, 1, &mut rep);
    let host_ms = solve_ms(false, TIMED_SOLVES, &mut rep);
    let serial_ms = solve_ms(true, TIMED_SOLVES, &mut rep);
    rep.set("solve.ms", host_ms);
    rep.set("solve.ms_serial", serial_ms);
    let rhs: Vec<Vec<f64>> = inp.steps.iter().map(|_| inp.rhs.next(n)).collect();
    let r = solver.solve_sequence(&inp.steps, &rhs, &SequencePolicy::default());
    let mut stale = 0;
    if rep.ops.record("sequence", &r) {
        for ((step, a_t), b) in r.unwrap_or_default().into_iter().zip(&inp.steps).zip(&rhs) {
            stale += usize::from(step.stale_fallback);
            iters.push(step.outcome.iterations as f64);
            rep.ops.record_solve(a_t, b, &Ok(step.outcome));
        }
    }
    rep.set(
        "krylov.iters",
        if iters.is_empty() {
            0.0
        } else {
            median(&iters)
        },
    );
    rep.set("seq.stale_fallbacks", stale as f64);

    // Value updates, cycling through the drifted matrices; each adds its
    // own phases to the stats.
    let mut updates = Vec::new();
    for a_t in inp.steps.iter().cycle().take(TIMED_UPDATES) {
        let before = solver.stats.times;
        let (r, wall) = timed(|| solver.update_values(a_t));
        if rep.ops.record("update", &r) {
            updates.push(Spans::of(&solver, wall, &before));
        }
    }
    if updates.is_empty() {
        return Err("every update failed".to_string());
    }
    rep.set("refactor.domains_s", mid(&updates, |u| u.times.lu_d));
    rep.set("refactor.schur_s", mid(&updates, |u| u.times.lu_s));
    rep.set("interface.numeric_s", mid(&updates, |u| u.times.comp_s));
    rep.set(
        "driver.update_gap_s",
        mid(&updates, |u| u.wall - u.phases()) - assemble,
    );
    rep.samples = [
        ("setups", setups.len()),
        ("updates", updates.len()),
        ("assemblies", assemble_s.len()),
    ]
    .into();
    Ok(rep)
}
