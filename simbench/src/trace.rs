//! Spans recorded from outside the program, at the boundary between the
//! driver and the layers it calls.
//!
//! [`Gen`] wraps a workload connector and [`TracedChain`] wraps a platform
//! connector; the driver (`blockbench::run_workload` / `run_open_loop`)
//! sees ordinary connectors. Untraced runs still go through [`Gen`] (it
//! counts offered transactions and skips the already-run setup) but never
//! read the clock.

use bb_sim::SimTime;
use bb_types::{AccountId, BlockSummary, ClientId, NodeId, Transaction, TxId};
use blockbench::connector::{
    BlockchainConnector, ChainEntry, DirectExec, Fault, PlatformStats, Query, QueryError,
    QueryResult,
};
use blockbench::contract::ContractBundle;
use blockbench::driver::WorkloadConnector;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Accumulated host time and call count of one boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub secs: f64,
    pub calls: u64,
}

impl Span {
    /// Run `f`, charging its host time to this span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.secs += start.elapsed().as_secs_f64();
        self.calls += 1;
        out
    }
}

/// The workload side of a run: counts every generated transaction, and in
/// traced runs times `next_transaction` and remembers which signer made it.
pub struct Gen<'a> {
    inner: &'a mut dyn WorkloadConnector,
    /// Transactions the workload generated (first attempts and retries).
    pub offered: u64,
    /// `Some` in traced runs.
    pub next_tx: Option<Span>,
    /// Key seeds of the signers of generated transactions (traced runs
    /// only), so the signature probe can build a key registry.
    pub signers: HashSet<u64>,
}

impl<'a> Gen<'a> {
    /// `inner` must already have run its `setup`.
    pub fn new(inner: &'a mut dyn WorkloadConnector, traced: bool) -> Self {
        Gen { inner, offered: 0, next_tx: traced.then(Span::default), signers: HashSet::new() }
    }
}

impl WorkloadConnector for Gen<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(&mut self, _chain: &mut dyn BlockchainConnector) {
        // Setup already ran (and was timed) before the driver started.
    }

    fn next_transaction(&mut self, client: ClientId) -> Transaction {
        self.offered += 1;
        match self.next_tx.as_mut() {
            None => self.inner.next_transaction(client),
            Some(span) => {
                let inner = &mut *self.inner;
                let tx = span.time(|| inner.next_transaction(client));
                // Closed-loop clients sign with `KeyPair::from_seed(client)`.
                self.signers.insert(client.0 as u64);
                tx
            }
        }
    }

    fn on_rejected(&mut self, client: ClientId) {
        self.inner.on_rejected(client);
    }

    fn next_transaction_keyed(&mut self, account: AccountId) -> Transaction {
        self.offered += 1;
        match self.next_tx.as_mut() {
            None => self.inner.next_transaction_keyed(account),
            Some(span) => {
                let inner = &mut *self.inner;
                let tx = span.time(|| inner.next_transaction_keyed(account));
                // Open-loop accounts sign with the population's keys.
                self.signers.insert(bb_workloads::POPULATION_SEED_BASE + account.0);
                tx
            }
        }
    }

    fn on_rejected_keyed(&mut self, account: AccountId) {
        self.inner.on_rejected_keyed(account);
    }
}

/// Platform-side boundary spans of one traced cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainSpans {
    pub submit: Span,
    pub advance: Span,
    pub poll: Span,
    pub query: Span,
}

impl ChainSpans {
    pub fn total_secs(&self) -> f64 {
        self.submit.secs + self.advance.secs + self.poll.secs + self.query.secs
    }
}

/// A platform connector that times every call the driver makes and keeps
/// the submitted transactions, so the probes can replay what committed.
pub struct TracedChain<'a> {
    inner: &'a mut dyn BlockchainConnector,
    pub spans: ChainSpans,
    submitted: HashMap<TxId, Transaction>,
    /// Submitted transactions in the order the chain confirmed them, with
    /// their success flags.
    pub commit_log: Vec<(Transaction, bool)>,
}

impl<'a> TracedChain<'a> {
    pub fn new(inner: &'a mut dyn BlockchainConnector) -> Self {
        TracedChain {
            inner,
            spans: ChainSpans::default(),
            submitted: HashMap::new(),
            commit_log: Vec::new(),
        }
    }
}

impl BlockchainConnector for TracedChain<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }

    fn deploy(&mut self, bundle: &ContractBundle) -> bb_types::Address {
        self.inner.deploy(bundle)
    }

    fn submit(&mut self, server: NodeId, tx: Transaction) -> bool {
        self.submitted.insert(tx.id(), tx.clone());
        let inner = &mut *self.inner;
        self.spans.submit.time(|| inner.submit(server, tx))
    }

    fn advance_to(&mut self, t: SimTime) {
        let inner = &mut *self.inner;
        self.spans.advance.time(|| inner.advance_to(t));
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn confirmed_blocks_since(&mut self, height: u64) -> Vec<BlockSummary> {
        let inner = &mut *self.inner;
        let blocks = self.spans.poll.time(|| inner.confirmed_blocks_since(height));
        for block in &blocks {
            for (id, ok) in &block.txs {
                // Unknown ids belong to setup-time preload blocks.
                if let Some(tx) = self.submitted.remove(id) {
                    self.commit_log.push((tx, *ok));
                }
            }
        }
        blocks
    }

    fn query(&mut self, q: &Query) -> Result<QueryResult, QueryError> {
        let inner = &mut *self.inner;
        self.spans.query.time(|| inner.query(q))
    }

    fn inject(&mut self, fault: Fault) {
        self.inner.inject(fault);
    }

    fn stats(&self) -> PlatformStats {
        self.inner.stats()
    }

    fn preload_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
        self.inner.preload_blocks(blocks);
    }

    fn execute_direct(&mut self, tx: Transaction) -> DirectExec {
        self.inner.execute_direct(tx)
    }

    fn committed_chain(&self, node: NodeId) -> Vec<ChainEntry> {
        self.inner.committed_chain(node)
    }
}
