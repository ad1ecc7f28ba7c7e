//! Same-seed results must be byte-identical whether the simulation runs
//! serially or parallel — at both levels of the stack:
//!
//! - the experiment runner (`BB_SERIAL=1` vs `BB_WORKERS=4`): each cell
//!   builds its own simulated world on its own virtual clock, and
//!   `map_cells` collects results in input order, so thread scheduling
//!   must not be observable in any rendered table;
//! - the sharded event engine inside one world (`BB_SERIAL=1` vs
//!   `BB_SHARD_THREADS=4`): the conservative window scheduler commits
//!   events in the canonical `(time, shard, seq)` order regardless of
//!   which lane thread ran them, so full `RunStats` debug output must
//!   match byte for byte across seeds, platforms and fault injections.
//!
//! The optimistic block executor inside each node runs its speculation
//! inline, so it adds no third level; its loser re-execution path is
//! covered here by a forced-conflict run under both engine modes.
//!
//! Lives in its own integration-test binary because the worker knobs are
//! process-global env vars: the `ENV_LOCK` below serialises the tests so
//! nothing else can race the mutations.

use bb_bench::exp_chaos::chaos_timeline;
use bb_bench::exp_macro::{self, Macro};
use bb_bench::{Platform, Scale, ALL_PLATFORMS};
use bb_ethereum::{EthConfig, EthereumChain};
use bb_fabric::{FabricChain, FabricConfig};
use bb_parity::{ParityChain, ParityConfig};
use bb_sim::{SimDuration, SimTime};
use bb_types::{ClientId, NodeId};
use bb_workloads::ycsb::{YcsbConfig, YcsbWorkload};
use blockbench::{
    run_open_loop, run_workload, ArrivalProcess, BlockchainConnector, ByzBehavior, ByzClientSpec,
    ChaosPlan, DriverConfig, Fault, OpenLoopConfig,
};
use std::sync::Mutex;

/// Env vars are process-global; every test in this binary mutates them, so
/// they all hold this lock for their full body.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tiny_scale() -> Scale {
    Scale {
        duration: SimDuration::from_secs(3),
        rates: vec![64.0],
        ..Scale::quick()
    }
}

/// Force the in-world engine serial (the runner knob `BB_WORKERS` is
/// irrelevant to these direct-drive tests).
fn engine_serial() {
    std::env::set_var("BB_SERIAL", "1");
    std::env::remove_var("BB_SHARD_THREADS");
}

/// Force the in-world engine onto 4 lane threads, even on single-core CI.
fn engine_sharded() {
    std::env::remove_var("BB_SERIAL");
    std::env::set_var("BB_SHARD_THREADS", "4");
}

fn engine_env_reset() {
    std::env::remove_var("BB_SERIAL");
    std::env::remove_var("BB_SHARD_THREADS");
}

fn build_seeded(platform: Platform, nodes: u32, seed: u64) -> Box<dyn BlockchainConnector> {
    match platform {
        Platform::Ethereum => {
            let mut c = EthConfig::with_nodes(nodes);
            c.seed = seed;
            Box::new(EthereumChain::new(c))
        }
        Platform::Parity => {
            let mut c = ParityConfig::with_nodes(nodes);
            c.seed = seed;
            Box::new(ParityChain::new(c))
        }
        Platform::Hyperledger => {
            let mut c = FabricConfig::with_nodes(nodes);
            c.seed = seed;
            Box::new(FabricChain::new(c))
        }
    }
}

#[test]
fn figure_tables_byte_identical_parallel_vs_serial() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scale = tiny_scale();

    std::env::remove_var("BB_WORKERS");
    std::env::set_var("BB_SERIAL", "1");
    let serial_13c = exp_macro::fig13c(&scale).render();
    let serial_5 = {
        let (performance, saturation) = exp_macro::fig5(&scale);
        (performance.render(), saturation.render())
    };

    // Force multi-threading even on single-core CI machines.
    std::env::remove_var("BB_SERIAL");
    std::env::set_var("BB_WORKERS", "4");
    let parallel_13c = exp_macro::fig13c(&scale).render();
    let parallel_5 = {
        let (performance, saturation) = exp_macro::fig5(&scale);
        (performance.render(), saturation.render())
    };
    std::env::remove_var("BB_WORKERS");

    assert_eq!(serial_13c, parallel_13c, "fig13c must not depend on thread scheduling");
    assert_eq!(serial_5, parallel_5, "fig5 must not depend on thread scheduling");
}

/// One full driver run (open-loop clients, polling, drain) with the full
/// `RunStats` rendered via `Debug` — every counter, every latency sample,
/// every timeline point participates in the comparison.
fn driver_stats(platform: Platform, seed: u64) -> String {
    let mut chain = build_seeded(platform, 4, seed);
    let mut workload = Macro::Ycsb.build(4);
    let config = DriverConfig {
        clients: 4,
        rate_per_client: 50.0,
        duration: SimDuration::from_secs(3),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(2),
    };
    let stats = run_workload(chain.as_mut(), workload.as_mut(), &config);
    // The block-scoped batched write path is the only write path — no
    // feature flag — so every run being compared here must show flush
    // activity: sealed blocks landed as atomic store batches, and the
    // comparison below covers those counters byte for byte too.
    assert!(
        stats.platform.batch_put_count > 0,
        "{}: no write batches were applied during the run",
        platform.name()
    );
    assert!(
        stats.platform.state_nodes_flushed > 0,
        "{}: no state nodes were flushed at block seals",
        platform.name()
    );
    format!("{stats:?}")
}

#[test]
fn run_stats_byte_identical_across_platforms_and_seeds() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for platform in ALL_PLATFORMS {
        for seed in [1u64, 7, 42] {
            engine_serial();
            let serial = driver_stats(platform, seed);
            engine_sharded();
            let sharded = driver_stats(platform, seed);
            assert_eq!(
                serial,
                sharded,
                "{} seed {seed}: sharded RunStats diverged from serial",
                platform.name()
            );
        }
    }
    engine_env_reset();
}

/// The open-loop driver adds two scheduling sources the closed-loop path
/// does not have — the arrival-process generator and the retry queue — and
/// both must be invisible to the sharded engine: full `RunStats` from a
/// bursty open-loop run must match byte for byte between one lane thread
/// and four.
fn open_loop_stats(platform: Platform, seed: u64) -> String {
    let mut chain = build_seeded(platform, 4, seed);
    let mut workload = Macro::Ycsb.build(1);
    let config = OpenLoopConfig {
        population: 50_000,
        process: ArrivalProcess::Bursty {
            base: 20.0,
            burst: 400.0,
            on: SimDuration::from_millis(500),
            off: SimDuration::from_millis(1500),
        },
        zipf_theta: 0.0,
        duration: SimDuration::from_secs(3),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(2),
        retry_backoff: SimDuration::from_millis(100),
        seed,
    };
    let stats = run_open_loop(chain.as_mut(), workload.as_mut(), &config);
    assert!(stats.submitted > 0, "{}: open-loop run sent nothing", platform.name());
    format!("{stats:?}")
}

#[test]
fn open_loop_run_stats_byte_identical_serial_vs_sharded() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for platform in ALL_PLATFORMS {
        for seed in [1u64, 42] {
            engine_serial();
            let serial = open_loop_stats(platform, seed);
            engine_sharded();
            let sharded = open_loop_stats(platform, seed);
            assert_eq!(
                serial,
                sharded,
                "{} seed {seed}: open-loop RunStats diverged from serial",
                platform.name()
            );
        }
    }
    engine_env_reset();
}

/// The optimistic block executor under maximum contention: a hot-key YCSB
/// mix (`zipf_theta = 0.99` over few records) forces speculation conflicts
/// and the deterministic serial re-execution of the losers, and the
/// re-executed results must still be independent of the engine's thread
/// schedule.
fn high_conflict_stats(platform: Platform, seed: u64) -> String {
    let mut chain = build_seeded(platform, 4, seed);
    let mut workload = YcsbWorkload::new(YcsbConfig {
        record_count: 16,
        preload_records: 16,
        zipf_theta: 0.99,
        clients: 4,
        seed,
        ..YcsbConfig::default()
    });
    let config = DriverConfig {
        clients: 4,
        rate_per_client: 50.0,
        duration: SimDuration::from_secs(3),
        poll_interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(2),
    };
    let stats = run_workload(chain.as_mut(), &mut workload, &config);
    assert!(
        stats.platform.exec_conflicts > 0,
        "{}: hot-key run produced no speculation conflicts — loser path untested",
        platform.name()
    );
    format!("{stats:?}")
}

#[test]
fn executor_conflict_reexecution_byte_identical_serial_vs_parallel() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for platform in ALL_PLATFORMS {
        engine_serial();
        let serial = high_conflict_stats(platform, 42);
        engine_sharded();
        let sharded = high_conflict_stats(platform, 42);
        assert_eq!(
            serial,
            sharded,
            "{}: conflict re-execution diverged between serial and sharded engines",
            platform.name()
        );
    }
    engine_env_reset();
}

/// Figure-9-style fault drive: crash a third of the cluster mid-run after
/// slowing one node down, then sample cumulative commits and block counters
/// every simulated second. Faults land between conservative windows, so
/// the sharded engine must replay them identically.
fn fault_timeline(platform: Platform, seed: u64) -> String {
    const NODES: u32 = 12;
    const CLIENTS: u32 = 4;
    const SECS: u64 = 15;
    let mut chain = build_seeded(platform, NODES, seed);
    let mut workload = Macro::Ycsb.build(CLIENTS);
    workload.setup(chain.as_mut());
    let t0 = chain.now();
    let interval = SimDuration::from_millis(25);
    let mut next_send: Vec<SimTime> = (0..CLIENTS).map(|_| t0).collect();
    let mut seen_height = 0u64;
    let mut committed = 0u64;
    let mut out = String::new();
    for sec in 0..SECS {
        if sec == 2 {
            // A straggler first: node 1 gains 40 ms of extra link latency.
            chain.inject(Fault::Delay(NodeId(1), SimDuration::from_millis(40)));
        }
        if sec == 5 {
            // Then a crash of the last four nodes (node 0 is the observer).
            for i in NODES - 4..NODES {
                chain.inject(Fault::Crash(NodeId(i)));
            }
        }
        let step_end = t0 + SimDuration::from_secs(sec + 1);
        loop {
            let Some((ci, t)) = next_send
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, t)| t < step_end)
                .min_by_key(|&(_, t)| t)
            else {
                break;
            };
            chain.advance_to(t);
            let tx = workload.next_transaction(ClientId(ci as u32));
            if !chain.submit(NodeId(ci as u32 % NODES), tx) {
                workload.on_rejected(ClientId(ci as u32));
            }
            next_send[ci] = t + interval;
        }
        chain.advance_to(step_end);
        for block in chain.confirmed_blocks_since(seen_height) {
            seen_height = seen_height.max(block.height);
            committed += block.txs.iter().filter(|&&(_, ok)| ok).count() as u64;
        }
        let stats = chain.stats();
        out.push_str(&format!(
            "t={} committed={committed} total={} main={}\n",
            sec + 1,
            stats.blocks_total,
            stats.blocks_main
        ));
    }
    out
}

/// Crash→restart→catch-up drive: node 3 of 4 power-cuts at t=3 s (torn WAL
/// tail included), restarts from its durable store at t=7 s and resyncs
/// from the survivors. Restarts rebuild whole node worlds between
/// conservative windows — the sharded engine must replay the rebuild, the
/// WAL replay and the catch-up identically.
fn restart_timeline(platform: Platform, seed: u64) -> String {
    const NODES: u32 = 4;
    const CLIENTS: u32 = 4;
    const SECS: u64 = 20;
    let victim = NodeId(3);
    let mut chain = build_seeded(platform, NODES, seed);
    let mut workload = Macro::Ycsb.build(CLIENTS);
    workload.setup(chain.as_mut());
    let t0 = chain.now();
    let interval = SimDuration::from_millis(50);
    let mut next_send: Vec<SimTime> = (0..CLIENTS).map(|_| t0).collect();
    let mut seen_height = 0u64;
    let mut committed = 0u64;
    let mut out = String::new();
    for sec in 0..SECS {
        if sec == 3 {
            chain.inject(Fault::Crash(victim));
            chain.inject(Fault::TornTail(victim));
        }
        if sec == 7 {
            chain.inject(Fault::Restart(victim));
        }
        let step_end = t0 + SimDuration::from_secs(sec + 1);
        loop {
            let Some((ci, t)) = next_send
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, t)| t < step_end)
                .min_by_key(|&(_, t)| t)
            else {
                break;
            };
            chain.advance_to(t);
            let tx = workload.next_transaction(ClientId(ci as u32));
            if !chain.submit(NodeId(ci as u32 % NODES), tx) {
                workload.on_rejected(ClientId(ci as u32));
            }
            next_send[ci] = t + interval;
        }
        chain.advance_to(step_end);
        for block in chain.confirmed_blocks_since(seen_height) {
            seen_height = seen_height.max(block.height);
            committed += block.txs.iter().filter(|&&(_, ok)| ok).count() as u64;
        }
        let stats = chain.stats();
        out.push_str(&format!(
            "t={} committed={committed} main={} recovery_ms={} resync={} wal={}+{}\n",
            sec + 1,
            stats.blocks_main,
            stats.recovery_ms,
            stats.resync_blocks,
            stats.wal_records_replayed,
            stats.wal_tail_truncated,
        ));
    }
    out
}

#[test]
fn restart_and_catchup_replay_identically_when_sharded() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for platform in ALL_PLATFORMS {
        engine_serial();
        let serial = restart_timeline(platform, 42);
        engine_sharded();
        let sharded = restart_timeline(platform, 42);
        assert_eq!(
            serial,
            sharded,
            "{}: restart timeline diverged between serial and sharded engines",
            platform.name()
        );
        // The timeline must actually contain a completed recovery — the
        // comparison is meaningless over a run where the victim never
        // caught back up.
        let last = serial.lines().last().expect("timeline non-empty");
        let field = |name: &str| {
            last.split_whitespace()
                .find_map(|kv| kv.strip_prefix(name))
                .and_then(|v| v.split('+').next())
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        assert!(field("resync=") > 0, "{}: victim resynced nothing: {last}", platform.name());
        assert!(
            field("recovery_ms=") > 0,
            "{}: no completed recovery window: {last}",
            platform.name()
        );
    }
    engine_env_reset();
}

/// A composite [`ChaosPlan`] — flapping partition, gossip jitter, a
/// nonce-gap flood and a slow disk all active in one window — driven
/// through the chaos runner. Byzantine actors are clock-driven (no RNG)
/// and jitter flows through the seeded network stream, so the full
/// per-second series, the honest-rejection counts and every node's
/// committed chain must be byte-identical serial vs sharded.
fn chaos_run_fingerprint(platform: Platform, seed: u64) -> String {
    let plan = ChaosPlan::new()
        .flapping_partition(SimDuration::from_secs(4), SimDuration::from_millis(1000), 3, 3)
        .at(SimDuration::from_secs(4), Fault::GossipJitter(SimDuration::from_millis(2)))
        .at(SimDuration::from_secs(4), Fault::SlowDisk(NodeId(1), SimDuration::from_micros(200)))
        .at(SimDuration::from_secs(10), Fault::Heal)
        .at(SimDuration::from_secs(10), Fault::SlowDisk(NodeId(1), SimDuration::ZERO))
        .actor(ByzClientSpec {
            server: NodeId(0),
            behavior: ByzBehavior::NonceGapFlood { start_nonce: 10_000 },
            rate: 30.0,
            from: SimDuration::from_secs(4),
            until: SimDuration::from_secs(8),
            key_seed: 0xBAD_CAFE,
        });
    let run = chaos_timeline(build_seeded(platform, 4, seed), 4, 4, 25.0, 14, &plan);
    assert!(run.byz_submitted > 0, "{}: flood actor never fired", platform.name());
    let last = run.series.last().expect("non-empty series");
    assert!(last.1 > 0, "{}: chaos run committed nothing", platform.name());
    format!(
        "series={:?}\nhonest_rejected={:?}\nchains={:?}\nbyz={}/{}\n",
        run.series, run.honest_rejected, run.chains, run.byz_submitted, run.byz_rejected
    )
}

#[test]
fn chaos_plan_runs_byte_identical_serial_vs_sharded() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for platform in ALL_PLATFORMS {
        engine_serial();
        let serial = chaos_run_fingerprint(platform, 42);
        engine_sharded();
        let sharded = chaos_run_fingerprint(platform, 42);
        assert_eq!(
            serial,
            sharded,
            "{}: chaos run diverged between serial and sharded engines",
            platform.name()
        );
        // Non-vacuity: the partition really flapped — the fingerprint
        // embeds the stats, so pull the flap count back out of it.
        assert!(
            serial.contains("partition_flaps: 3"),
            "{}: expected 3 partition flaps in the run:\n{}",
            platform.name(),
            serial.lines().next().unwrap_or("")
        );
    }
    engine_env_reset();
}

#[test]
fn crash_and_delay_faults_replay_identically_when_sharded() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for platform in ALL_PLATFORMS {
        engine_serial();
        let serial = fault_timeline(platform, 42);
        engine_sharded();
        let sharded = fault_timeline(platform, 42);
        assert_eq!(
            serial,
            sharded,
            "{}: fault timeline diverged between serial and sharded engines",
            platform.name()
        );
        // The timeline itself must show the fault bit: commits exist before
        // the crash, so the comparison is not over an all-zero string.
        let pre_crash = serial
            .lines()
            .nth(4)
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kv| kv.strip_prefix("committed="))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        assert!(pre_crash > 0, "{}: no commits before the crash", platform.name());
    }
    engine_env_reset();
}

