//! The three workloads: their matrices, solver configurations, and how
//! an untraced run divides its time between the solver's operations.

use hypergraph::RhbConfig;
use matgen::{MatrixKind, Scale};
use pdslin::{PartitionerKind, PdslinConfig, RhsOrdering};
use sparsekit::{Csr, Rng64};

/// Per-step relative value drift of the sequence matrices.
const SEQUENCE_DRIFT: f64 = 0.01;

/// Mixed into the seed of the right-hand sides, so they are drawn from
/// another stream than the fusion analogue's values, which use the seed
/// itself.
const RHS_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

/// One benchmark workload. The names are fixed: later changes cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Setup-bound: the paper's configuration (RHB partitioning,
    /// hypergraph RHS ordering) on the `tdr190k` cavity analogue.
    TdrRhbSetup,
    /// Solve-bound: a stream of single-RHS solves and batches of 32 on
    /// the `G3_circuit` analogue.
    G3SolveStream,
    /// Numeric replay: a drifting value sequence on the `matrix211`
    /// fusion analogue, updated in place every step.
    M211ValueSeq,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TdrRhbSetup,
        Workload::G3SolveStream,
        Workload::M211ValueSeq,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TdrRhbSetup => "tdr-rhb-setup",
            Workload::G3SolveStream => "g3-solve-stream",
            Workload::M211ValueSeq => "m211-value-seq",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How an untraced run shares its time between the operations.
    /// Every kind runs at least its minimum count; the workload's own
    /// focus gets the largest share.
    pub fn mix(self) -> Mix {
        match self {
            Workload::TdrRhbSetup => Mix {
                setups: Share::new(3, 0.40),
                solves: Share::new(100, 0.08),
                batches: Share::new(4, 0.07),
                steps: Share::new(4, 0.45),
            },
            Workload::G3SolveStream => Mix {
                setups: Share::new(3, 0.20),
                solves: Share::new(150, 0.30),
                batches: Share::new(4, 0.15),
                steps: Share::new(4, 0.35),
            },
            Workload::M211ValueSeq => Mix {
                setups: Share::new(3, 0.25),
                solves: Share::new(200, 0.20),
                batches: Share::new(4, 0.10),
                steps: Share::new(8, 0.45),
            },
        }
    }
}

/// Input size: the benchmark proper, or small inputs for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Bench,
    /// `Scale::Test`-sized inputs that run in seconds.
    Smoke,
}

/// One kind of operation of an untraced run: it runs at least `min`
/// times, and otherwise gets `share` of the run's time.
#[derive(Clone, Copy, Debug)]
pub struct Share {
    /// Fewest repetitions.
    pub min: usize,
    /// Share of the run's time.
    pub share: f64,
}

impl Share {
    const fn new(min: usize, share: f64) -> Share {
        Share { min, share }
    }
}

/// The operations of an untraced run. They are interleaved over the
/// whole run, so a burst of load on the host slows a few samples of
/// every metric instead of every sample of one.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Full setups (`Pdslin::setup`); each replaces the solver.
    pub setups: Share,
    /// Single-RHS solves (`Pdslin::solve`), on one worker.
    pub solves: Share,
    /// Batches of [`BATCH`] right-hand sides (`Pdslin::solve_many`).
    pub batches: Share,
    /// Sequence steps (`Pdslin::update_values`, then `Pdslin::solve` on
    /// one worker).
    pub steps: Share,
}

/// Right-hand sides per `solve_many` batch.
pub const BATCH: usize = 32;

/// The generated inputs of one run. The program sees only these.
pub struct Inputs {
    /// The setup matrix.
    pub a: Csr,
    /// Solver configuration.
    pub cfg: PdslinConfig,
    /// Sequence matrices after the setup matrix: same pattern, values
    /// drifted by 1% more at each step.
    pub steps: Vec<Csr>,
    /// Source of every right-hand side.
    pub rhs: RhsStream,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, size: Size, seed: u64) -> Inputs {
        let bench = size == Size::Bench;
        let (a, cfg, steps) = match workload {
            Workload::TdrRhbSetup => {
                let a = if bench {
                    matgen::stencil::cavity3d_graded(20, 20, 20, 4.0, 0.34)
                } else {
                    matgen::generate(MatrixKind::Tdr190k, Scale::Test)
                };
                let cfg = PdslinConfig {
                    partitioner: PartitionerKind::Rhb(RhbConfig::default()),
                    rhs_ordering: RhsOrdering::Hypergraph { tau: None },
                    ..PdslinConfig::default()
                };
                (a, cfg, 2)
            }
            Workload::G3SolveStream => {
                let scale = if bench { Scale::Bench } else { Scale::Test };
                let a = matgen::generate(MatrixKind::G3Circuit, scale);
                (a, PdslinConfig::default(), 2)
            }
            Workload::M211ValueSeq => {
                let nxy = if bench { 44 } else { 16 };
                let a = matgen::fusion::fusion_like(nxy, nxy, 7, seed);
                (a, PdslinConfig::default(), 5)
            }
        };
        let mut seq = matgen::sequence(&a, steps + 1, SEQUENCE_DRIFT);
        seq.remove(0);
        Inputs {
            a,
            cfg,
            steps: seq,
            rhs: RhsStream(Rng64::new(seed ^ RHS_STREAM)),
        }
    }
}

/// Seeded right-hand sides with entries uniform in `[-1, 1)`.
pub struct RhsStream(Rng64);

impl RhsStream {
    /// The next right-hand side of length `n`.
    pub fn next(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.0.f64() - 1.0).collect()
    }
}
