//! `simbench`: the BLOCKBENCH-RS simulator benchmark (see README.md).
//!
//! ```text
//! simbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! simbench --self-test [--seed N]
//! ```
//!
//! One run of one workload prints its simulated outputs, every metric by
//! name and unit, and as the last line a JSON result. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` the per-layer metrics.

mod analytics;
mod cells;
mod checks;
mod layers;
mod probes;
mod report;
mod selftest;
mod trace;

use bb_bench::Platform;
use bb_crypto::{KeyPair, KeyRegistry};
use blockbench::connector::BlockchainConnector;
use cells::{CellRun, CellSpec, Load, Rep};
use layers::{Layers, World};
use report::{median, median_metrics, Metric};
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["ycsb-eth", "smallbank-fabric", "analytics-eth", "fig5-peak"];

/// Configuration knobs that change how the simulator runs. Every number
/// this benchmark reports is for the default configuration, so it refuses
/// to run with any of them set.
const REFUSED_ENV: [&str; 5] =
    ["BB_SERIAL", "BB_WORKERS", "BB_SHARD_THREADS", "BB_SERIAL_EXEC", "BB_EXEC_THREADS"];
const REFUSED_ENV_PREFIX: &str = "BB_BENCH_";

/// Set-up samples every run takes, whatever its length.
const SETUP_SAMPLES: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match &args.workload {
        None if !args.self_test => {
            Err(format!("--workload is required: one of {WORKLOADS:?} or all"))
        }
        Some(w) if w != "all" && !WORKLOADS.contains(&w.as_str()) => {
            Err(format!("unknown workload {w}: one of {WORKLOADS:?} or all"))
        }
        _ => Ok(args),
    }
}

fn refused_knobs() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| REFUSED_ENV.contains(&k.as_str()) || k.starts_with(REFUSED_ENV_PREFIX))
        .collect()
}

fn main() -> ExitCode {
    let knobs = refused_knobs();
    if !knobs.is_empty() {
        eprintln!("simbench: refusing to run with configuration knobs set: {knobs:?}");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return selftest::run(args.seed);
    }
    let workload = args.workload.clone().expect("checked by parse_args");
    if workload == "all" {
        return run_all(&args);
    }
    println!(
        "simbench workload={workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!("{}", report::fingerprint());
    let outcome = run_workload(&workload, args.seed, args.seconds, args.trace);
    outcome.print(args.trace)
}

pub fn run_workload(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let ycsb = |platform| CellSpec { platform, load: Load::Ycsb, seed };
    match workload {
        "ycsb-eth" => macro_workload(&[ycsb(Platform::Ethereum)], seconds, traced),
        "smallbank-fabric" => macro_workload(
            &[CellSpec { platform: Platform::Hyperledger, load: Load::Smallbank, seed }],
            seconds,
            traced,
        ),
        "analytics-eth" => analytics_workload(seed, seconds, traced),
        "fig5-peak" => macro_workload(
            &[ycsb(Platform::Ethereum), ycsb(Platform::Parity), ycsb(Platform::Hyperledger)],
            seconds,
            traced,
        ),
        other => unreachable!("workload {other} validated by parse_args"),
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// Simulated outputs and notes, printed before the metrics.
    pub info: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Printed with the end-to-end metrics; not in the result line, since
    /// it is legitimately 0 on workloads where nothing fails.
    pub failed_ratio: f64,
    pub per_layer: Vec<Metric>,
    /// Simulated operations the run completed and checked.
    pub attempted: u64,
    /// Of those, operations in repetitions whose output checks failed.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    fn print(&self, traced: bool) -> ExitCode {
        for line in &self.info {
            println!("{line}");
        }
        for m in &self.end_to_end {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
        println!("metric failed_ratio {} ratio", self.failed_ratio);
        for m in &self.per_layer {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.failures.is_empty();
        let metrics = if traced { &self.per_layer } else { &self.end_to_end };
        println!("{}", report::result_json(correct, self.attempted.max(1), self.failed, metrics));
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// `peak_rss_mb` is read after the first repetition: later ones only add
/// allocator fragmentation, and how many fit in `--seconds` depends on the
/// host's speed.
fn end_to_end(walls: &[f64], ops_per_rep: u64, setups: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let wall_s = median(walls);
    vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("sim_ops_per_wall_s", ops_per_rep as f64 / wall_s, "1/s"),
        Metric::new("setup_s", median(setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn repetitions_line(walls: &[f64], traced_walls: &[f64]) -> String {
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0, f64::max);
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    format!(
        "repetitions untraced={} traced={} wall_s min={min:.4} median={:.4} max={max:.4} in order [{}]",
        walls.len(),
        traced_walls.len(),
        median(walls),
        list.join(" ")
    )
}

fn overhead_line(traced_walls: &[f64], walls: &[f64]) -> String {
    let (traced, untraced) = (median(traced_walls), median(walls));
    format!(
        "tracing overhead: traced wall_s {traced:.4} - untraced wall_s {untraced:.4} = {:.4} s",
        traced - untraced
    )
}

/// Host speed drifts over seconds, so set-up samples are spread over the
/// run: the next one is due once another `1 / SETUP_SAMPLES` of the budget
/// has passed.
fn setup_due(start: Instant, seconds: f64, taken: usize) -> bool {
    taken < SETUP_SAMPLES
        && start.elapsed().as_secs_f64() >= taken as f64 * seconds / SETUP_SAMPLES as f64
}

/// Time `SETUP_SAMPLES - taken` more set-ups, so `setup_s` is always a
/// median of several.
fn top_up_setups(setups: &mut Vec<f64>, mut setup: impl FnMut() -> f64) {
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup());
    }
}

/// Keeps repeating until the next repetition, plus the set-up samples
/// still missing after it, would overrun `seconds`.
fn another(start: Instant, seconds: f64, per_rep: f64, setups: &[f64], missing: usize) -> bool {
    start.elapsed().as_secs_f64() + per_rep + missing as f64 * median(setups) <= seconds
}

// ---------------------------------------------------------------- macro

fn macro_workload(specs: &[CellSpec], seconds: f64, traced: bool) -> Outcome {
    let start = Instant::now();
    let (mut walls, mut setups, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut layer_runs: Vec<Layers> = Vec::new();
    let mut first: Option<Rep> = None;
    let mut probe_rep: Option<Rep> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    let mut peak_rss_mb = None;
    loop {
        let mut reps = vec![cells::rep(specs, false)];
        peak_rss_mb.get_or_insert_with(report::peak_rss_mb);
        if traced {
            reps.push(cells::rep(specs, true));
        }
        for rep in reps {
            let ops: u64 = rep.cells.iter().map(CellRun::ops).sum();
            let mut rep_failures: Vec<String> =
                rep.cells.iter().flat_map(|c| c.failures.iter().cloned()).collect();
            if let Some(reference) = &first {
                for (a, b) in reference.cells.iter().zip(&rep.cells) {
                    if let Err(e) =
                        checks::same_digest(&checks::digest(&a.stats), &checks::digest(&b.stats))
                    {
                        rep_failures.push(format!("{}: {e}", b.spec.platform.name()));
                    }
                }
            }
            let traced_rep = rep.cells[0].trace.is_some();
            if traced_rep {
                let layers = macro_layers(&rep);
                let driver_wall_s = rep.cells.iter().map(|c| c.wall_s).sum();
                if let Err(e) = span_accounting(&layers, driver_wall_s) {
                    rep_failures.push(e);
                }
                layer_runs.push(layers);
            }
            attempted += ops;
            if !rep_failures.is_empty() {
                failed += ops;
                failures.extend(rep_failures);
            }
            if traced_rep {
                traced_walls.push(rep.wall_s);
                if probe_rep.is_none() {
                    probe_rep = Some(rep);
                }
            } else {
                walls.push(rep.wall_s);
                setups.push(rep.setup_s);
                if first.is_none() {
                    first = Some(rep);
                }
            }
        }
        if setup_due(start, seconds, setups.len()) {
            setups.push(cells::setup_s(specs));
        }
        let per_rep =
            median(&walls) + median(&setups) + traced_walls.last().copied().unwrap_or(0.0);
        // The next repetition brings one more set-up sample.
        let missing = SETUP_SAMPLES.saturating_sub(setups.len() + 1);
        if !another(start, seconds, per_rep, &setups, missing) {
            break;
        }
    }
    top_up_setups(&mut setups, || cells::setup_s(specs));

    let first = first.expect("at least one untraced repetition");
    let ops_per_rep: u64 = first.cells.iter().map(CellRun::ops).sum();
    let mut info = Vec::new();
    let (mut failed_txs, mut offered) = (0u64, 0u64);
    for cell in &first.cells {
        info.push(cell_line(cell));
        let s = &cell.stats;
        let unconfirmed = s.submitted.saturating_sub(s.latencies.count() as u64);
        failed_txs += s.rejected + s.aborted + unconfirmed;
        offered += cell.offered;
    }
    info.push(repetitions_line(&walls, &traced_walls));

    let per_layer = match probe_rep {
        Some(rep) => {
            let overhead = median(&traced_walls) - median(&walls);
            match macro_probes(&rep) {
                Ok(probed) => {
                    for l in &mut layer_runs {
                        probed.apply(l);
                        l.overhead_s = overhead;
                    }
                }
                Err(e) => failures.push(format!("layer probe: {e}")),
            }
            info.push(overhead_line(&traced_walls, &walls));
            median_metrics(&layer_runs.iter().map(Layers::metrics).collect::<Vec<_>>())
        }
        None => Vec::new(),
    };

    Outcome {
        info,
        end_to_end: end_to_end(
            &walls,
            ops_per_rep,
            &setups,
            peak_rss_mb.expect("read after the first repetition"),
        ),
        failed_ratio: if offered == 0 { 0.0 } else { failed_txs as f64 / offered as f64 },
        per_layer,
        attempted,
        failed,
        failures,
    }
}

fn cell_line(cell: &CellRun) -> String {
    let s = &cell.stats;
    let open = cell.spec.load == Load::Smallbank;
    // Open-loop latency is timed from the intended send (coordinated-
    // omission-free); the closed loop's intended and actual sends coincide.
    let q = |p: f64| {
        if open {
            s.co_latency_quantile(p)
        } else {
            s.latency_quantile(p)
        }
    };
    let samples = if open { s.latencies_intended.count() } else { s.latencies.count() };
    let mut line = format!(
        "cell {} digest={} sim_tps={:.3} sim_latency_p50_s={:.4} sim_latency_p99_s={:.4} latency_samples={} \
         offered={} submitted={} rejected={} committed={} aborted={} checked_heights={}",
        cell.spec.platform.name(),
        checks::digest(s),
        s.throughput_tps(),
        q(0.5).unwrap_or(f64::NAN),
        q(0.99).unwrap_or(f64::NAN),
        samples,
        cell.offered,
        s.submitted,
        s.rejected,
        s.committed,
        s.aborted,
        cell.checked_heights,
    );
    if open {
        line.push_str(
            " latency=intended-send generator_lateness_s=0 (arrivals are scheduled in virtual time, so the generator is never late)",
        );
    }
    line
}

fn macro_layers(rep: &Rep) -> Layers {
    let mut l = Layers::default();
    let mut children = 0.0;
    for cell in &rep.cells {
        let t = cell.trace.as_ref().expect("traced repetition");
        l.next_tx_s += t.next_tx.secs;
        l.next_tx_calls += t.next_tx.calls as f64;
        l.submit_s += t.chain.submit.secs;
        l.submit_calls += t.chain.submit.calls as f64;
        l.advance_s += t.chain.advance.secs;
        l.advance_calls += t.chain.advance.calls as f64;
        l.poll_s += t.chain.poll.secs;
        l.query_s += t.chain.query.secs;
        l.query_calls += t.chain.query.calls as f64;
        l.check_s += t.check_s;
        children += t.next_tx.secs + t.chain.total_secs();
        l.driver_self_s += cell.wall_s;
        l.build_s += cell.build_s;
        l.workload_s += cell.workload_s;
        l.rejected += cell.stats.rejected as f64;
        l.outstanding_peak +=
            cell.stats.queue_timeline.points().iter().map(|&(_, v)| v).fold(0.0, f64::max);
    }
    l.driver_self_s -= children;
    if let Some((workers, cell_s)) = &rep.scatter {
        for (cell, secs) in rep.cells.iter().zip(cell_s) {
            let slot = match cell.spec.platform {
                Platform::Ethereum => 0,
                Platform::Parity => 1,
                Platform::Hyperledger => 2,
            };
            l.cell_s[slot] = *secs;
        }
        l.idle_s = *workers as f64 * rep.wall_s - cell_s.iter().sum::<f64>();
    }
    let worlds: Vec<World> = rep
        .cells
        .iter()
        .map(|c| World { stats: &c.stats.platform, nodes: c.nodes, committed: c.stats.committed })
        .collect();
    l.counters(&worlds);
    l
}

/// The driver's child spans plus its self time must add up to the run's
/// wall time: self time may not come out negative.
fn span_accounting(l: &Layers, driver_wall_s: f64) -> Result<(), String> {
    if l.driver_self_s < -1e-6 * driver_wall_s.max(1.0) {
        return Err(format!(
            "span accounting: child spans exceed the driver's wall time {driver_wall_s:.4} s by {:.6} s",
            -l.driver_self_s
        ));
    }
    Ok(())
}

/// Probe results, applied to every traced repetition's layers.
#[derive(Debug, Clone, Copy, Default)]
struct Probed {
    verify_ns: f64,
    execute_direct_us: f64,
    pbft_batch_us: f64,
    send_ns: f64,
    main_chain_at_us: f64,
}

impl Probed {
    fn apply(&self, l: &mut Layers) {
        l.verify_ns = self.verify_ns;
        l.execute_direct_us = self.execute_direct_us;
        l.pbft_batch_us = self.pbft_batch_us;
        l.send_ns = self.send_ns;
        l.main_chain_at_us = self.main_chain_at_us;
    }
}

/// Committed transactions per main-chain block, the PBFT probe's batch.
fn mean_batch(committed: u64, blocks: u64) -> usize {
    ((committed as f64 / blocks.max(1) as f64).round() as usize).clamp(1, 500)
}

fn mean_size(txs: &[bb_types::Transaction]) -> u64 {
    (txs.iter().map(|t| t.byte_size()).sum::<u64>() / txs.len().max(1) as u64).max(1)
}

fn macro_probes(rep: &Rep) -> Result<Probed, String> {
    let traces: Vec<_> = rep.cells.iter().map(|c| c.trace.as_ref().expect("traced")).collect();
    let txs: Vec<bb_types::Transaction> = traces
        .iter()
        .flat_map(|t| t.commit_log.iter().map(|(tx, _)| tx.clone()))
        .take(4096)
        .collect();
    let mut registry = KeyRegistry::new();
    for seed in traces.iter().flat_map(|t| t.signers.iter()) {
        registry.register(KeyPair::from_seed(*seed));
    }
    let mut p = Probed { verify_ns: probes::verify_ns(&txs, &registry)?, ..Probed::default() };

    let (mut us, mut replayed) = (0.0, 0usize);
    for (cell, t) in rep.cells.iter().zip(&traces) {
        // One server, or PBFT's minimum quorum of four.
        let nodes = if cell.spec.platform == Platform::Hyperledger { 4 } else { 1 };
        let mut twin = cell.spec.build_chain(nodes);
        cell.spec.build_workload().setup(twin.as_mut());
        let (cell_us, n) = probes::execute_direct(twin.as_mut(), &t.commit_log)?;
        us += cell_us;
        replayed += n;
    }
    p.execute_direct_us = us / replayed.max(1) as f64;

    let committed: u64 = rep.cells.iter().map(|c| c.stats.committed).sum();
    let blocks: u64 = rep.cells.iter().map(|c| c.stats.platform.blocks_main).sum();
    let requests: Vec<Vec<u8>> =
        txs.iter().take(mean_batch(committed, blocks)).map(|t| t.encode()).collect();
    p.pbft_batch_us = probes::pbft_batch_us(cells::NODES, &requests)?;
    p.send_ns = probes::send_ns(rep.cells[0].nodes, mean_size(&txs));
    let height = rep.cells.iter().map(|c| c.stats.platform.blocks_main).max().unwrap_or(1);
    p.main_chain_at_us = probes::main_chain_at_us(height)?;
    Ok(p)
}

// ------------------------------------------------------------ analytics

fn analytics_workload(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let history = analytics::History::generate(seed, analytics::BLOCKS);
    let start = Instant::now();
    let mut prepared = analytics::prepare(&history);
    let mut setups = vec![prepared.build_s + prepared.workload_s];
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut layer_runs: Vec<Layers> = Vec::new();
    let (mut attempted, mut failed, mut failed_rpcs) = (0u64, 0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    let mut reference: Option<String> = None;
    let mut rpcs_per_pass = 0;
    let mut peak_rss_mb = None;
    loop {
        let mut passes =
            vec![analytics::pass(&mut prepared, &history, analytics::Scans::Both, false)];
        peak_rss_mb.get_or_insert_with(report::peak_rss_mb);
        if traced {
            passes.push(analytics::pass(&mut prepared, &history, analytics::Scans::Both, true));
        }
        for pass in passes {
            let digest = answers_digest(&pass.answers);
            let mut pass_failures = pass.failures.clone();
            if let Some(r) = &reference {
                if let Err(e) = checks::same_digest(r, &digest) {
                    pass_failures.push(e);
                }
            }
            reference.get_or_insert(digest);
            rpcs_per_pass = pass.rpcs;
            attempted += pass.rpcs;
            failed_rpcs += pass.failed_rpcs;
            if !pass_failures.is_empty() {
                failed += pass.rpcs;
                failures.extend(pass_failures);
            }
            match pass.query {
                Some(query) => {
                    traced_walls.push(pass.wall_s);
                    let mut l = Layers {
                        driver_self_s: pass.wall_s - query.secs,
                        query_s: query.secs,
                        query_calls: query.calls as f64,
                        build_s: prepared.build_s,
                        workload_s: prepared.workload_s,
                        ..Layers::default()
                    };
                    let stats = prepared.chain.stats();
                    l.counters(&[World { stats: &stats, nodes: 1, committed: 0 }]);
                    layer_runs.push(l);
                }
                None => walls.push(pass.wall_s),
            }
        }
        if setup_due(start, seconds, setups.len()) {
            setups.push(analytics_setup_s(&history));
        }
        let per_rep = median(&walls) + traced_walls.last().copied().unwrap_or(0.0);
        let missing = SETUP_SAMPLES - setups.len();
        if !another(start, seconds, per_rep, &setups, missing) {
            break;
        }
    }
    let blocks_main = prepared.chain.stats().blocks_main;
    drop(prepared);
    top_up_setups(&mut setups, || analytics_setup_s(&history));

    let mut info = vec![
        format!(
            "history blocks={} transfers_per_block={} accounts={} q2_accounts={:?} spans={:?}",
            analytics::BLOCKS,
            analytics::TXS_PER_BLOCK,
            analytics::ACCOUNTS,
            history.q2_accounts,
            analytics::SPANS
        ),
        format!(
            "answers digest={} query_rpcs_per_pass={rpcs_per_pass}",
            reference.clone().unwrap_or_default()
        ),
        repetitions_line(&walls, &traced_walls),
    ];
    let per_layer = if traced {
        let overhead = median(&traced_walls) - median(&walls);
        info.push(overhead_line(&traced_walls, &walls));
        match analytics_probes(&history, blocks_main) {
            Ok(probed) => {
                for l in &mut layer_runs {
                    probed.apply(l);
                    l.overhead_s = overhead;
                }
            }
            Err(e) => failures.push(format!("layer probe: {e}")),
        }
        median_metrics(&layer_runs.iter().map(Layers::metrics).collect::<Vec<_>>())
    } else {
        Vec::new()
    };
    Outcome {
        info,
        end_to_end: end_to_end(
            &walls,
            rpcs_per_pass,
            &setups,
            peak_rss_mb.expect("read after the first pass"),
        ),
        failed_ratio: if attempted == 0 { 0.0 } else { failed_rpcs as f64 / attempted as f64 },
        per_layer,
        attempted,
        failed,
        failures,
    }
}

fn analytics_setup_s(history: &analytics::History) -> f64 {
    let p = analytics::prepare(history);
    p.build_s + p.workload_s
}

fn answers_digest(answers: &[i64]) -> String {
    let bytes: Vec<u8> = answers.iter().flat_map(|a| a.to_le_bytes()).collect();
    bb_crypto::Hash256::digest(&bytes).to_hex()[..16].to_string()
}

fn analytics_probes(history: &analytics::History, blocks_main: u64) -> Result<Probed, String> {
    let txs: Vec<bb_types::Transaction> = history.signed_blocks().into_iter().flatten().collect();
    let registry = KeyRegistry::with_seed_range(analytics::ACCOUNTS);
    let mut p = Probed { verify_ns: probes::verify_ns(&txs, &registry)?, ..Probed::default() };
    // Every preloaded transfer moves funds between genesis-funded accounts,
    // so every replayed one must succeed.
    let log: Vec<(bb_types::Transaction, bool)> = txs.iter().map(|t| (t.clone(), true)).collect();
    let mut twin = analytics::build_chain();
    let (us, n) = probes::execute_direct(&mut twin, &log)?;
    p.execute_direct_us = us / n.max(1) as f64;
    let batch = analytics::TXS_PER_BLOCK as usize;
    let requests: Vec<Vec<u8>> = txs.iter().take(batch).map(|t| t.encode()).collect();
    p.pbft_batch_us = probes::pbft_batch_us(cells::NODES, &requests)?;
    p.send_ns = probes::send_ns(1, mean_size(&txs));
    p.main_chain_at_us = probes::main_chain_at_us(blocks_main)?;
    Ok(p)
}

// ------------------------------------------------------------------ all

/// Run every workload, each in its own process (so `peak_rss_mb` is that
/// workload's alone), and print a summary table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("simbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("simbench: cannot run {w}: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        ok &= out.status.success();
        let value = |name: &str| {
            stdout
                .lines()
                .find_map(|l| l.strip_prefix(&format!("metric {name} ")))
                .map(|v| v.split(' ').next().unwrap_or("").to_string())
                .unwrap_or_else(|| "-".into())
        };
        let status = if out.status.success() { "ok" } else { "FAILED" };
        rows.push(format!(
            "{w:<18} {:>10} {:>20} {:>10} {:>12} {:>12} {status}",
            value("wall_s"),
            value("sim_ops_per_wall_s"),
            value("setup_s"),
            value("peak_rss_mb"),
            value("failed_ratio")
        ));
    }
    println!();
    println!(
        "{:<18} {:>10} {:>20} {:>10} {:>12} {:>12} checks",
        "workload",
        "wall_s [s]",
        "sim_ops_per_wall_s [1/s]",
        "setup_s [s]",
        "peak_rss_mb [MiB]",
        "failed_ratio"
    );
    for r in rows {
        println!("{r}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
