//! The per-layer metrics of a traced run, under one fixed list of names.
//! Every workload reports the whole list; a layer the workload does not
//! run reads 0.

use crate::report::Metric;
use blockbench::connector::PlatformStats;

#[derive(Debug, Clone, Default)]
pub struct Layers {
    // Spans, from the benchmark's wrappers.
    pub driver_self_s: f64,
    pub next_tx_s: f64,
    pub next_tx_calls: f64,
    pub submit_s: f64,
    pub submit_calls: f64,
    pub advance_s: f64,
    pub advance_calls: f64,
    pub poll_s: f64,
    pub query_s: f64,
    pub query_calls: f64,
    pub build_s: f64,
    pub workload_s: f64,
    pub check_s: f64,
    /// Scatter wall of the ethereum, parity and hyperledger cells.
    pub cell_s: [f64; 3],
    pub idle_s: f64,
    // Counters, from `RunStats` / `PlatformStats`.
    pub blocks_main: f64,
    pub fork_ratio: f64,
    pub net_bytes: f64,
    pub bytes_per_tx: f64,
    pub cache_hit_rate: f64,
    pub cache_misses: f64,
    pub nodes_flushed: f64,
    pub write_savings_ratio: f64,
    pub bytes_written: f64,
    pub write_amp: f64,
    pub batches: f64,
    pub bytes_compacted: f64,
    pub exec_conflicts: f64,
    pub useful_ratio: f64,
    pub modeled_speedup: f64,
    pub rejected: f64,
    pub outstanding_peak: f64,
    // Probes.
    pub verify_ns: f64,
    pub execute_direct_us: f64,
    pub pbft_batch_us: f64,
    pub send_ns: f64,
    pub main_chain_at_us: f64,
    /// Traced minus untraced `wall_s`.
    pub overhead_s: f64,
}

/// Platform counters of one simulated world, with the node count and the
/// transactions it committed in the measured window.
pub struct World<'a> {
    pub stats: &'a PlatformStats,
    pub nodes: u32,
    pub committed: u64,
}

impl Layers {
    /// Fill the counter metrics from one or more worlds (summed; ratios are
    /// taken over the sums).
    pub fn counters(&mut self, worlds: &[World]) {
        let sum =
            |f: &dyn Fn(&PlatformStats) -> u64| -> u64 { worlds.iter().map(|w| f(w.stats)).sum() };
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let committed: u64 = worlds.iter().map(|w| w.committed).sum();
        let main = sum(&|s| s.blocks_main);
        self.blocks_main = main as f64;
        self.fork_ratio = ratio(main, sum(&|s| s.blocks_total));
        let net = sum(&|s| s.net_bytes);
        self.net_bytes = net as f64;
        self.bytes_per_tx = ratio(net, committed);
        let (hits, misses) = (sum(&|s| s.trie_cache_hits), sum(&|s| s.trie_cache_misses));
        self.cache_hit_rate = ratio(hits, hits + misses);
        self.cache_misses = misses as f64;
        let (flushed, dropped) = (sum(&|s| s.state_nodes_flushed), sum(&|s| s.state_nodes_dropped));
        self.nodes_flushed = flushed as f64;
        self.write_savings_ratio = ratio(dropped, flushed + dropped);
        let written = sum(&|s| s.storage_bytes_written);
        self.bytes_written = written as f64;
        self.write_amp = ratio(written, sum(&|s| s.storage_logical_bytes));
        self.batches = sum(&|s| s.batch_put_count) as f64;
        self.bytes_compacted = sum(&|s| s.bytes_compacted) as f64;
        let conflicts = sum(&|s| s.exec_conflicts);
        self.exec_conflicts = conflicts as f64;
        // Every node executes every main-chain transaction.
        let executed: u64 = worlds.iter().map(|w| w.stats.txs_committed * w.nodes as u64).sum();
        self.useful_ratio =
            if executed == 0 { 0.0 } else { 1.0 - ratio(conflicts, executed).min(1.0) };
        let (serial, modeled) = (sum(&|s| s.exec_serial_us), sum(&|s| s.exec_modeled_us));
        self.modeled_speedup = ratio(serial, modeled);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let m = Metric::new;
        vec![
            m("blockbench.driver.self_s", self.driver_self_s, "s"),
            m("bb-workloads.next_tx_s", self.next_tx_s, "s"),
            m("bb-workloads.next_tx_calls", self.next_tx_calls, "count"),
            m("platform.submit_s", self.submit_s, "s"),
            m("platform.submit_calls", self.submit_calls, "count"),
            m("platform.advance_s", self.advance_s, "s"),
            m("platform.advance_calls", self.advance_calls, "count"),
            m("platform.poll_s", self.poll_s, "s"),
            m("platform.query_s", self.query_s, "s"),
            m("platform.query_calls", self.query_calls, "count"),
            m("platform.setup.build_s", self.build_s, "s"),
            m("platform.setup.workload_s", self.workload_s, "s"),
            m("blockbench.invariant.check_s", self.check_s, "s"),
            m("bb-bench.parallel.cell_s.ethereum", self.cell_s[0], "s"),
            m("bb-bench.parallel.cell_s.parity", self.cell_s[1], "s"),
            m("bb-bench.parallel.cell_s.hyperledger", self.cell_s[2], "s"),
            m("bb-bench.parallel.idle_s", self.idle_s, "s"),
            m("bb-consensus.blocks_main", self.blocks_main, "count"),
            m("bb-consensus.fork_ratio", self.fork_ratio, "ratio"),
            m("bb-net.bytes", self.net_bytes, "bytes"),
            m("bb-net.bytes_per_tx", self.bytes_per_tx, "bytes"),
            m("bb-merkle.cache_hit_rate", self.cache_hit_rate, "ratio"),
            m("bb-merkle.cache_misses", self.cache_misses, "count"),
            m("bb-merkle.nodes_flushed", self.nodes_flushed, "count"),
            m("bb-merkle.write_savings_ratio", self.write_savings_ratio, "ratio"),
            m("bb-storage.bytes_written", self.bytes_written, "bytes"),
            m("bb-storage.write_amp", self.write_amp, "ratio"),
            m("bb-storage.batches", self.batches, "count"),
            m("bb-storage.bytes_compacted", self.bytes_compacted, "bytes"),
            m("bb-exec.conflicts", self.exec_conflicts, "count"),
            m("bb-exec.useful_ratio", self.useful_ratio, "ratio"),
            m("bb-exec.modeled_speedup", self.modeled_speedup, "ratio"),
            m("blockbench.driver.rejected", self.rejected, "count"),
            m("blockbench.driver.outstanding_peak", self.outstanding_peak, "count"),
            m("bb-crypto.verify_ns", self.verify_ns, "ns"),
            m("platform.execute_direct_us", self.execute_direct_us, "us"),
            m("bb-consensus.pbft_batch_us", self.pbft_batch_us, "us"),
            m("bb-net.send_ns", self.send_ns, "ns"),
            m("bb-consensus.main_chain_at_us", self.main_chain_at_us, "us"),
            m("blockbench.trace.overhead_s", self.overhead_s, "s"),
        ]
    }
}
