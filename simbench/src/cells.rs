//! Macro cells: one simulated cluster driven by the BLOCKBENCH driver, with
//! the same settings as `bb_bench::exp_macro::run_macro` (8 servers, 500 ms
//! polls, 20 s drain) and seeds taken from the benchmark's `--seed`.

use crate::checks;
use crate::trace::{ChainSpans, Gen, Span, TracedChain};
use bb_bench::parallel::{cost_hint, map_cells_hinted, workers_for};
use bb_bench::Platform;
use bb_ethereum::{EthConfig, EthereumChain};
use bb_fabric::{FabricChain, FabricConfig};
use bb_parity::{ParityChain, ParityConfig};
use bb_sim::{SimDuration, SimRng};
use bb_types::{NodeId, Transaction};
use bb_workloads::smallbank::SmallbankConfig;
use bb_workloads::ycsb::YcsbConfig;
use bb_workloads::{SmallbankWorkload, YcsbWorkload};
use blockbench::connector::{BlockchainConnector, ChainEntry};
use blockbench::driver::WorkloadConnector;
use blockbench::{
    run_open_loop, run_workload, ArrivalProcess, DriverConfig, OpenLoopConfig, RunStats,
};
use std::collections::HashSet;
use std::time::Instant;

/// Servers per macro cell (Figure 5's 8 × 8 setup).
pub const NODES: u32 = 8;
/// Closed-loop clients per YCSB cell.
pub const CLIENTS: u32 = 8;
/// Per-client request rate of the YCSB cells: Figure 5's peak cell.
pub const RATE_PER_CLIENT: f64 = 256.0;
/// Aggregate open-loop rate of the Smallbank cell, below Fabric's knee.
pub const OPEN_LOOP_RATE: f64 = 1000.0;
/// Open-loop signer population.
pub const POPULATION: u64 = 1_000_000;
/// Measured simulated window of every macro cell (the quick scale's).
pub const WINDOW: SimDuration = SimDuration::from_secs(20);
const POLL: SimDuration = SimDuration::from_millis(500);
const DRAIN: SimDuration = SimDuration::from_secs(20);

pub type Chain = Box<dyn BlockchainConnector + Send>;
pub type Workload = Box<dyn WorkloadConnector + Send>;

/// What a cell offers its chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Closed-loop YCSB, `CLIENTS` × `RATE_PER_CLIENT`.
    Ycsb,
    /// Open-loop Poisson Smallbank over a lazy million-account population.
    Smallbank,
}

/// One macro cell: platform, load and the benchmark seed.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    pub platform: Platform,
    pub load: Load,
    pub seed: u64,
}

/// Seeds of the generated inputs, derived from the benchmark seed. They do
/// not depend on the platform, so the same seed gives every platform the
/// same inputs.
struct Seeds {
    workload: u64,
    arrivals: u64,
}

impl CellSpec {
    fn seeds(&self) -> Seeds {
        let mut rng = SimRng::seed_from_u64(self.seed);
        Seeds { workload: rng.next_u64(), arrivals: rng.next_u64() }
    }

    /// The cell's chain at `nodes` servers, in the platform's default
    /// configuration (its own seed included): the seed varies the inputs,
    /// not the system under test.
    pub fn build_chain(&self, nodes: u32) -> Chain {
        match self.platform {
            Platform::Ethereum => Box::new(EthereumChain::new(EthConfig::with_nodes(nodes))),
            Platform::Parity => Box::new(ParityChain::new(ParityConfig::with_nodes(nodes))),
            Platform::Hyperledger => Box::new(FabricChain::new(FabricConfig::with_nodes(nodes))),
        }
    }

    /// The cell's workload connector, before setup (`Macro::build`'s
    /// settings).
    pub fn build_workload(&self) -> Workload {
        let seed = self.seeds().workload;
        match self.load {
            Load::Ycsb => Box::new(YcsbWorkload::new(YcsbConfig {
                clients: 32,
                preload_records: 500,
                seed,
                ..YcsbConfig::default()
            })),
            Load::Smallbank => Box::new(SmallbankWorkload::new(SmallbankConfig {
                clients: 32,
                preload_accounts: 2_000,
                accounts: 2_000,
                seed,
                ..SmallbankConfig::default()
            })),
        }
    }

    /// Build the chain and run workload setup (deploy + preload), timed.
    pub fn prepare(self) -> Prepared {
        let start = Instant::now();
        let mut chain = self.build_chain(NODES);
        let build_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let mut workload = self.build_workload();
        workload.setup(chain.as_mut());
        let workload_s = start.elapsed().as_secs_f64();
        Prepared { spec: self, chain, workload, build_s, workload_s }
    }

    fn drive(&self, chain: &mut dyn BlockchainConnector, gen: &mut Gen) -> RunStats {
        match self.load {
            Load::Ycsb => run_workload(
                chain,
                gen,
                &DriverConfig {
                    clients: CLIENTS,
                    rate_per_client: RATE_PER_CLIENT,
                    duration: WINDOW,
                    poll_interval: POLL,
                    drain: DRAIN,
                },
            ),
            Load::Smallbank => run_open_loop(
                chain,
                gen,
                &OpenLoopConfig {
                    population: POPULATION,
                    process: ArrivalProcess::Poisson { rate: OPEN_LOOP_RATE },
                    zipf_theta: 0.0,
                    duration: WINDOW,
                    poll_interval: POLL,
                    drain: DRAIN,
                    retry_backoff: SimDuration::from_millis(250),
                    seed: self.seeds().arrivals,
                },
            ),
        }
    }
}

/// Host seconds to prepare every cell of `specs`; the prepared cells are
/// dropped untimed.
pub fn setup_s(specs: &[CellSpec]) -> f64 {
    let start = Instant::now();
    let prepared: Vec<Prepared> = specs.iter().map(|s| s.prepare()).collect();
    let setup_s = start.elapsed().as_secs_f64();
    drop(prepared);
    setup_s
}

/// A cell after setup, ready to run.
pub struct Prepared {
    pub spec: CellSpec,
    chain: Chain,
    workload: Workload,
    pub build_s: f64,
    pub workload_s: f64,
}

/// What a traced cell recorded at the layer boundaries.
pub struct CellTrace {
    pub next_tx: Span,
    pub chain: ChainSpans,
    pub check_s: f64,
    pub commit_log: Vec<(Transaction, bool)>,
    pub signers: HashSet<u64>,
}

/// One finished cell.
pub struct CellRun {
    pub spec: CellSpec,
    pub stats: RunStats,
    /// Transactions the workload generated.
    pub offered: u64,
    pub nodes: u32,
    /// Host seconds of the driver run, drain included.
    pub wall_s: f64,
    pub build_s: f64,
    pub workload_s: f64,
    /// Heights `check_chains` verified across all nodes.
    pub checked_heights: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    pub trace: Option<CellTrace>,
    /// The simulated world, kept so it is dropped outside timed regions.
    world: Option<(Chain, Workload)>,
}

impl CellRun {
    /// Drop the simulated world (call outside any timed region).
    pub fn release(&mut self) {
        self.world = None;
    }

    /// Every node's committed chain (before [`CellRun::release`]).
    pub fn committed_chains(&self) -> Vec<Vec<ChainEntry>> {
        let (chain, _) = self.world.as_ref().expect("world not yet released");
        committed_chains(chain.as_ref())
    }

    /// Simulated operations: committed transactions.
    pub fn ops(&self) -> u64 {
        self.stats.committed
    }
}

fn committed_chains(chain: &dyn BlockchainConnector) -> Vec<Vec<ChainEntry>> {
    (0..chain.node_count()).map(|i| chain.committed_chain(NodeId(i))).collect()
}

/// Run a prepared cell to the end of its drain, then check its outputs.
pub fn run_cell(prepared: Prepared, traced: bool) -> CellRun {
    let Prepared { spec, mut chain, mut workload, build_s, workload_s } = prepared;
    let mut gen = Gen::new(workload.as_mut(), traced);
    let start = Instant::now();
    let (stats, recorded) = if traced {
        let mut traced_chain = TracedChain::new(chain.as_mut());
        let stats = spec.drive(&mut traced_chain, &mut gen);
        (stats, Some((traced_chain.spans, traced_chain.commit_log)))
    } else {
        (spec.drive(chain.as_mut(), &mut gen), None)
    };
    let wall_s = start.elapsed().as_secs_f64();
    let (offered, next_tx, signers) = (gen.offered, gen.next_tx, gen.signers);

    let start = Instant::now();
    let chains = committed_chains(chain.as_ref());
    let tolerance = bb_bench::exp_chaos::Scenario::tip_tolerance(spec.platform);
    let safety = checks::safety(&chains, tolerance);
    let check_s = start.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let checked_heights = safety.unwrap_or_else(|e| {
        failures.push(format!("{}: {e}", spec.platform.name()));
        0
    });
    if let Err(e) = checks::accounting(&stats, offered) {
        failures.push(format!("{}: {e}", spec.platform.name()));
    }
    let trace = recorded.map(|(chain_spans, commit_log)| CellTrace {
        next_tx: next_tx.unwrap_or_default(),
        chain: chain_spans,
        check_s,
        commit_log,
        signers,
    });
    CellRun {
        spec,
        stats,
        offered,
        nodes: chain.node_count(),
        wall_s,
        build_s,
        workload_s,
        checked_heights,
        failures,
        trace,
        world: Some((chain, workload)),
    }
}

/// One repetition of a macro workload: set up every cell, then run them —
/// a single cell directly, several through the bb-bench cell scatter.
pub struct Rep {
    pub setup_s: f64,
    /// Measured phase: the driver run, or the whole scatter.
    pub wall_s: f64,
    pub cells: Vec<CellRun>,
    /// Scatter accounting: (workers, wall of each cell inside the scatter).
    pub scatter: Option<(usize, Vec<f64>)>,
}

pub fn rep(specs: &[CellSpec], traced: bool) -> Rep {
    let start = Instant::now();
    let mut prepared: Vec<Prepared> = specs.iter().map(|s| s.prepare()).collect();
    let setup_s = start.elapsed().as_secs_f64();

    let (wall_s, mut cells, scatter) = if prepared.len() == 1 {
        let cell = run_cell(prepared.pop().expect("one cell"), traced);
        (cell.wall_s, vec![cell], None)
    } else {
        let workers = workers_for(prepared.len());
        // Figure 5's hint: every cell has the same nodes, window and rate.
        let hint = cost_hint(NODES, WINDOW).saturating_mul(RATE_PER_CLIENT as u64 + 1);
        let start = Instant::now();
        let timed: Vec<(CellRun, f64)> =
            map_cells_hinted(prepared.into_iter().map(|p| (hint, p)).collect(), |p| {
                let start = Instant::now();
                let cell = run_cell(p, traced);
                (cell, start.elapsed().as_secs_f64())
            });
        let wall_s = start.elapsed().as_secs_f64();
        let (cells, cell_s): (Vec<CellRun>, Vec<f64>) = timed.into_iter().unzip();
        (wall_s, cells, Some((workers, cell_s)))
    };
    for cell in &mut cells {
        cell.release();
    }
    Rep { setup_s, wall_s, cells, scatter }
}
