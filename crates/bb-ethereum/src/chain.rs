//! The Ethereum-like network world and its `BlockchainConnector`.
//!
//! Every server node runs the full stack: a transaction pool fed by client
//! RPC and probabilistic gossip, an exponential-race miner, full block
//! validation by re-execution, heaviest-chain fork choice with reorgs (the
//! tx pool re-adopts transactions from abandoned branches), and a
//! Merkle-Patricia state trie over a private LSM store. Node 0 doubles as
//! the driver's RPC endpoint: it serves `getLatestBlock(h)` from its view of
//! the confirmed chain (head minus `confirm_depth`), block/state queries,
//! and the read-only contract path.
//!
//! Sharded: each server is a lane of a [`ShardedEngine`] and owns its own
//! RNG stream (mining races, gossip coin flips), LSM store and trie, so
//! block validation on different nodes runs on different cores while the
//! run stays byte-identical to the serial path (DESIGN.md §5).

use crate::config::EthConfig;
use crate::state::{AccountState, TxInvalid};
use bb_consensus::pow::{BlockTree, InsertOutcome};
use bb_crypto::Hash256;
use bb_merkle::merkle_root;
use bb_net::Network;
use bb_sim::{
    CpuMeter, Effects, ShardedEngine, ShardedWorld, SimDuration, SimRng, SimTime,
};
use bb_storage::{FaultVfs, KvStore, LsmConfig, LsmStore};
use bb_svm::{Vm, VmConfig};
use bb_types::{
    Address, Block, BlockHeader, BlockSummary, Encoder, NodeId, Transaction, TxId,
};
use blockbench::connector::{
    BlockchainConnector, ChainEntry, DirectExec, Fault, PlatformStats, Query, QueryError,
    QueryResult,
};
use blockbench::contract::ContractBundle;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Events of the Ethereum world.
#[derive(Debug, Clone)]
pub enum EthEvent {
    /// A miner's exponential race fired.
    Mine {
        /// The lucky miner.
        miner: NodeId,
        /// Race generation; stale races are ignored.
        generation: u64,
    },
    /// A transaction reached a node (client RPC or peer gossip).
    TxArrive {
        /// Receiving node.
        to: NodeId,
        /// The transaction.
        tx: Arc<Transaction>,
        /// Came from a peer (don't re-gossip) or from a client.
        gossiped: bool,
    },
    /// A block reached a node.
    BlockArrive {
        /// Receiving node.
        to: NodeId,
        /// The block body.
        block: Arc<Block>,
        /// Peer that sent it (for parent fetches).
        from: NodeId,
    },
    /// A node asks a peer for a missing ancestor block.
    BlockRequest {
        /// Peer being asked.
        to: NodeId,
        /// Wanted block id.
        wanted: Hash256,
        /// Asking node.
        from: NodeId,
    },
    /// A restarted node asks a peer for its current head block; the reply
    /// (a `BlockArrive`) seeds the orphan walk-back that downloads the gap.
    HeadRequest {
        /// Peer being asked.
        to: NodeId,
        /// Recovering node.
        from: NodeId,
    },
    /// A resyncing node asks a peer for the next snapshot state chunk:
    /// live `(key, value)` pairs with key > `after`, served from the peer's
    /// durable store (trie nodes are content-addressed and block records
    /// ride in the same keyspace, so raw chunks rebuild chain + state).
    SnapshotRequest {
        /// Peer being asked.
        to: NodeId,
        /// Recovering node.
        from: NodeId,
        /// Resume cursor: last key already transferred.
        after: Option<Vec<u8>>,
    },
    /// One bounded snapshot chunk; `done` means the key space is exhausted.
    SnapshotChunk {
        /// Recovering node.
        to: NodeId,
        /// Serving peer (next chunk is requested from it).
        from: NodeId,
        /// Live pairs in key order.
        entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
        /// Keyspace exhausted?
        done: bool,
    },
}

struct EthNode {
    state: AccountState<LsmStore>,
    tree: BlockTree,
    /// Block bodies by id (genesis included).
    bodies: HashMap<Hash256, Arc<Block>>,
    /// Post-state root per block id.
    roots: HashMap<Hash256, Hash256>,
    /// Receipts (tx id, success) per block id.
    receipts: HashMap<Hash256, Vec<(TxId, bool)>>,
    /// Pending transactions in arrival order.
    pool: VecDeque<Arc<Transaction>>,
    pool_ids: HashSet<TxId>,
    /// Head height at admission, per pooled transaction — the age-out
    /// clock for future-nonced entries (`EthConfig::pool_evict_blocks`).
    pool_admitted: HashMap<TxId, u64>,
    /// Everything ever seen (suppresses gossip loops).
    seen: HashSet<TxId>,
    /// Blocks whose transactions were pruned from the pool — only blocks
    /// that joined this node's main chain. A transaction in a side block
    /// that never wins stays in the pool; pruning on mere validation would
    /// lose it for good when the fork is abandoned without a reorg through
    /// our head.
    pruned: HashSet<Hash256>,
    cpu: CpuMeter,
    /// This node's private randomness: mining race draws and gossip coin
    /// flips. Lane-local so parallel nodes never contend on one stream.
    rng: SimRng,
    mine_generation: u64,
    crashed: bool,
    /// Set while a restarted node is catching up from peers; cleared (into
    /// `recovery_ms`) once its head reaches the sync target.
    restarted_at: Option<SimTime>,
    /// Peer head height learned from the first post-restart block arrival.
    sync_target: Option<u64>,
    /// Set while a chunked snapshot transfer is closing the gap; block
    /// adoption and mining are suppressed until the transfer lands.
    snapshot_syncing: bool,
    /// Snapshot chunks received across this node's resyncs.
    snapshot_chunks: u64,
    /// Payload bytes of those chunks.
    snapshot_bytes: u64,
    /// Longest completed crash→caught-up recovery on this node, virtual ms.
    recovery_ms: u64,
    /// Blocks received from peers while catching up after a restart.
    resync_blocks: u64,
    /// Transactions that speculated against stale state and re-executed
    /// (optimistic block executor).
    exec_conflicts: u64,
    /// Serial execution charge accumulated by the block executor, µs.
    exec_serial_us: u64,
    /// Modeled parallel makespan of the same blocks, µs.
    exec_modeled_us: u64,
    /// Bytes of those blocks.
    resync_bytes: u64,
    /// WAL records replayed across this node's restarts.
    wal_replayed: u64,
    /// Torn WAL tails truncated across this node's restarts.
    wal_truncated: u64,
    /// Observer state — populated only on node 0.
    confirmed: Vec<BlockSummary>,
    confirmed_height: u64,
}

impl EthNode {
    fn enqueue(&mut self, tx: Arc<Transaction>) -> bool {
        let id = tx.id();
        if !self.seen.insert(id) {
            return false;
        }
        self.pool_ids.insert(id);
        self.pool_admitted.insert(id, self.tree.head_height());
        self.pool.push_back(tx);
        true
    }
}

/// Read-only context shared by every lane.
struct EthCtx {
    config: EthConfig,
    vm: Vm,
}

/// The sharded-world marker type for Ethereum.
struct EthWorld;

/// The Ethereum-like platform.
pub struct EthereumChain {
    config: EthConfig,
    engine: ShardedEngine<EthWorld>,
    network: Network,
    started: bool,
    mem_peak: u64,
}

/// Observer counter: network-wide count of blocks ever mined (forks
/// included).
const BLOCKS_MINED: usize = 0;

impl ShardedWorld for EthWorld {
    type Event = EthEvent;
    type Node = EthNode;
    type Ctx = EthCtx;

    fn route(_ctx: &EthCtx, event: &EthEvent) -> u32 {
        match event {
            EthEvent::Mine { miner, .. } => miner.0,
            EthEvent::TxArrive { to, .. }
            | EthEvent::BlockArrive { to, .. }
            | EthEvent::BlockRequest { to, .. }
            | EthEvent::HeadRequest { to, .. }
            | EthEvent::SnapshotRequest { to, .. }
            | EthEvent::SnapshotChunk { to, .. } => to.0,
        }
    }

    fn handle(
        ctx: &EthCtx,
        lane: u32,
        node: &mut EthNode,
        now: SimTime,
        event: EthEvent,
        fx: &mut Effects<EthEvent>,
    ) {
        let id = NodeId(lane);
        match event {
            EthEvent::Mine { generation, .. } => on_mine(ctx, node, id, now, generation, fx),
            EthEvent::TxArrive { tx, gossiped, .. } => on_tx(ctx, node, id, now, tx, gossiped, fx),
            EthEvent::BlockArrive { block, from, .. } => on_block(ctx, node, id, now, block, from, fx),
            EthEvent::BlockRequest { wanted, from, .. } => {
                on_block_request(node, id, wanted, from, fx)
            }
            EthEvent::HeadRequest { from, .. } => on_head_request(node, id, from, fx),
            EthEvent::SnapshotRequest { from, after, .. } => {
                on_snapshot_request(ctx, node, id, from, after, fx)
            }
            EthEvent::SnapshotChunk { from, entries, done, .. } => {
                on_snapshot_chunk(ctx, node, id, now, from, entries, done, fx)
            }
        }
    }
}

/// LSM layout shared by construction and restart: the same config must be
/// used to reopen a node's store, or replay thresholds would differ.
fn eth_store_config() -> LsmConfig {
    LsmConfig {
        // Chain workloads write heavily and never delete: flush less often
        // and let more tables accumulate before the (full) compaction
        // rewrites the store.
        memtable_flush_bytes: 4 << 20,
        max_tables: 48,
        ..LsmConfig::default()
    }
}

/// Store prefix of every node's private LSM (see `LsmStore::new_private`).
const STORE_PREFIX: &str = "lsm";

/// Key of a block's durable record: `!b/` ++ block id. The `!` prefix keeps
/// the namespace disjoint from trie-node keys (32-byte hashes) and account
/// keys (20-byte addresses).
fn block_meta_key(id: &Hash256) -> Vec<u8> {
    let mut k = b"!b/".to_vec();
    k.extend_from_slice(&id.0);
    k
}

/// Durable block record: 32-byte post-state root, then the encoded block.
/// The root is recorded separately from `header.state_root` because setup
/// writes (genesis funding, contract deploys) re-commit a block's state
/// without re-hashing its header.
fn block_meta_record(root: &Hash256, block: &Block) -> Vec<u8> {
    let mut v = root.0.to_vec();
    v.extend_from_slice(&block.encode());
    v
}

fn decode_block_meta(value: &[u8]) -> Option<(Hash256, Block)> {
    if value.len() < 32 {
        return None;
    }
    let root = Hash256(value[..32].try_into().expect("32 bytes"));
    let block = Block::decode(&value[32..]).ok()?;
    Some((root, block))
}

fn reschedule_mine(
    ctx: &EthCtx,
    node: &mut EthNode,
    miner: NodeId,
    now: SimTime,
    fx: &mut Effects<EthEvent>,
) {
    if node.crashed {
        return;
    }
    node.mine_generation += 1;
    let generation = node.mine_generation;
    let mean = ctx.config.pow.miner_interval(ctx.config.nodes);
    let delay = node.rng.exp_duration(mean);
    fx.schedule(now + delay, EthEvent::Mine { miner, generation });
}

fn on_mine(
    ctx: &EthCtx,
    node: &mut EthNode,
    miner: NodeId,
    now: SimTime,
    generation: u64,
    fx: &mut Effects<EthEvent>,
) {
    // PoW saturates the reserved cores whether or not a block is found.
    let interval = ctx.config.pow.miner_interval(ctx.config.nodes);
    if node.crashed || node.mine_generation != generation {
        return;
    }
    let from = SimTime(now.as_micros().saturating_sub(interval.as_micros().min(now.as_micros())));
    node.cpu.saturate(from, now);
    let block = build_block(ctx, node, now, miner);
    fx.count(BLOCKS_MINED, 1);
    let block = Arc::new(block);
    // Adopt locally.
    adopt_block(ctx, node, now, miner, Arc::clone(&block), None, fx);
    // Broadcast to every peer.
    for peer in (0..ctx.config.nodes).map(NodeId) {
        if peer == miner {
            continue;
        }
        let b = Arc::clone(&block);
        fx.send(peer.0, block.byte_size(), move |_at| EthEvent::BlockArrive {
            to: peer,
            block: b,
            from: miner,
        });
    }
    reschedule_mine(ctx, node, miner, now, fx);
    if miner.index() == 0 {
        refresh_confirmed(ctx, node, now);
    }
}

/// Assemble and execute a block on the miner's current head.
fn build_block(ctx: &EthCtx, node: &mut EthNode, now: SimTime, miner: NodeId) -> Block {
    let difficulty = 1000; // uniform difficulty: heaviest == longest
    let parent = node.tree.head();
    let parent_root = node.roots[&parent];
    let height = node.tree.height_of(&parent).expect("head known") + 1;
    node.state.set_root(parent_root);

    let mut included: Vec<Arc<Transaction>> = Vec::new();
    let mut receipts: Vec<(TxId, bool)> = Vec::new();
    let mut gas_total = 0u64;
    let mut exec_time = SimDuration::ZERO;
    // Future-nonce transactions buffered per sender, nonce-ordered —
    // the pool is in arrival order, and gossip can deliver one sender's
    // transactions out of nonce order. A plain FIFO pass would shunt
    // every later transaction of that sender to the next block (each
    // exactly one nonce ahead by the time it's popped), capping blocks
    // at a handful of transactions; real pools queue per sender by
    // nonce. Sender map is ordered so the put-back below is
    // deterministic.
    let mut future: std::collections::BTreeMap<
        Address,
        std::collections::BTreeMap<u64, (TxId, Arc<Transaction>)>,
    > = Default::default();
    'fill: while included.len() < ctx.config.max_txs_per_block {
        let Some(tx) = node.pool.pop_front() else {
            break;
        };
        let id = tx.id();
        if !node.pool_ids.contains(&id) {
            continue; // pruned
        }
        // Try this transaction, then any buffered successors it unblocks.
        let mut next = Some((id, tx));
        while let Some((id, tx)) = next.take() {
            match node.state.apply_transaction(&tx, height, &ctx.vm, ctx.config.tx_gas_limit) {
                Ok(res) => {
                    gas_total += res.gas_used.max(1000);
                    exec_time += ctx.config.costs.exec_time(res.gas_used.max(1000))
                        + ctx.config.costs.sig_verify;
                    node.pool_ids.remove(&id);
                    node.pool_admitted.remove(&id);
                    receipts.push((id, res.success));
                    let nonce = tx.nonce;
                    let from = tx.from;
                    included.push(Arc::clone(&tx));
                    if included.len() >= ctx.config.max_txs_per_block
                        || gas_total >= ctx.config.block_gas_limit
                    {
                        break 'fill;
                    }
                    if let Some(q) = future.get_mut(&from) {
                        next = q.remove(&(nonce + 1));
                        if q.is_empty() {
                            future.remove(&from);
                        }
                    }
                }
                Err(TxInvalid::BadNonce { expected, got }) if got > expected => {
                    // Future nonce: hold until its predecessor applies.
                    future.entry(tx.from).or_default().insert(got, (id, tx));
                }
                Err(_) => {
                    // Stale or broken: drop.
                    node.pool_ids.remove(&id);
                    node.pool_admitted.remove(&id);
                }
            }
        }
    }
    // Still-blocked transactions wait in the pool for a later block —
    // unless their nonce gap has persisted past the eviction horizon, in
    // which case the predecessor is presumed lost (or never existed: a
    // nonce-gap flood) and the entry ages out instead of re-queueing
    // forever.
    for (_, q) in future {
        for (_, (id, tx)) in q {
            let admitted = *node.pool_admitted.entry(id).or_insert(height);
            if height.saturating_sub(admitted) > ctx.config.pool_evict_blocks {
                node.pool_ids.remove(&id);
                node.pool_admitted.remove(&id);
            } else {
                node.pool.push_front(tx);
            }
        }
    }
    node.cpu.charge(now, exec_time);

    let header = BlockHeader {
        parent,
        height,
        timestamp_us: now.as_micros(),
        // `receipts` lists the included transactions' ids in block order.
        tx_root: merkle_root(&receipts.iter().map(|(id, _)| id.0).collect::<Vec<_>>()),
        state_root: node.state.root(),
        proposer: miner,
        difficulty,
        round: 0,
    };
    let block = Block { header, txs: included };
    let id = block.id();
    let record = block_meta_record(&node.state.root(), &block);
    node.state
        .commit_block_with_meta(vec![(block_meta_key(&id), Some(record))])
        .expect("state store healthy");
    node.roots.insert(id, node.state.root());
    node.receipts.insert(id, receipts);
    block
}

/// Execute a sealed block's transactions through the optimistic parallel
/// executor (`node.state` must already sit at the parent root). The
/// simulation still charges the serial execution time — the executor's
/// parallelism shows up in the modeled-speedup counters, not in simulated
/// latency — so every pre-executor figure is unchanged.
fn execute_block_txs(
    ctx: &EthCtx,
    node: &mut EthNode,
    now: SimTime,
    block: &Block,
) -> Vec<(TxId, bool)> {
    let outcome = node.state.execute_block(
        &block.txs,
        block.header.height,
        &ctx.vm,
        ctx.config.tx_gas_limit,
        |gas| ctx.config.costs.exec_time(gas.max(1000)).as_micros(),
    );
    for tx in &block.txs {
        node.seen.insert(tx.id());
    }
    node.cpu.charge(now, SimDuration::from_micros(outcome.serial_us));
    node.exec_conflicts += outcome.conflicts;
    node.exec_serial_us += outcome.serial_us;
    node.exec_modeled_us += outcome.modeled_us;
    outcome.receipts
}

/// Validate (re-execute) and adopt a block into a node's tree.
fn adopt_block(
    ctx: &EthCtx,
    node: &mut EthNode,
    now: SimTime,
    me: NodeId,
    block: Arc<Block>,
    request_from: Option<NodeId>,
    fx: &mut Effects<EthEvent>,
) {
    let id = block.id();
    if node.bodies.contains_key(&id) {
        return;
    }
    let parent = block.header.parent;
    if let Some(&parent_root) = node.roots.get(&parent) {
        // Full validation: re-execute on the parent state.
        if !node.roots.contains_key(&id) {
            node.state.set_root(parent_root);
            let receipts = execute_block_txs(ctx, node, now, &block);
            let record = block_meta_record(&node.state.root(), &block);
            node.state
                .commit_block_with_meta(vec![(block_meta_key(&id), Some(record))])
                .expect("state store healthy");
            node.roots.insert(id, node.state.root());
            node.receipts.insert(id, receipts);
        }
        node.bodies.insert(id, Arc::clone(&block));
        let old_head = node.tree.head();
        let outcome = node.tree.insert(id, parent, block.header.difficulty);
        if let InsertOutcome::NewHead { reorged } = outcome {
            if reorged {
                readopt_abandoned(node, old_head);
            }
        }
    } else {
        // Orphan: stash in the tree and fetch the ancestor chain.
        node.tree.insert(id, parent, block.header.difficulty);
        node.bodies.insert(id, Arc::clone(&block));
        if let Some(from) = request_from {
            fx.send(from.0, 64, move |_at| EthEvent::BlockRequest {
                to: from,
                wanted: parent,
                from: me,
            });
        }
        return;
    }
    // Connecting this block may have connected stored orphan children;
    // execute any now-connected bodies we have roots missing for.
    execute_connected_descendants(ctx, node, now, id);
    // Whatever the head is now, drop its branch's transactions from the
    // pool (after the reorg path above re-added the abandoned branch's).
    prune_main_chain(node);
}

/// Remove the transactions of blocks that joined this node's main chain
/// from its pool. Walks head→genesis, stopping at the first block
/// already pruned, so each block is processed once; side blocks are
/// deliberately never pruned here.
fn prune_main_chain(node: &mut EthNode) {
    let mut cursor = node.tree.head();
    while node.pruned.insert(cursor) {
        let Some(body) = node.bodies.get(&cursor) else {
            break;
        };
        for tx in &body.txs {
            let id = tx.id();
            node.pool_ids.remove(&id);
            node.pool_admitted.remove(&id);
        }
        cursor = body.header.parent;
    }
}

/// After a block connects, orphan children stored in `bodies` may now be
/// on the tree without executed state; execute them in height order.
fn execute_connected_descendants(ctx: &EthCtx, node: &mut EthNode, now: SimTime, from_id: Hash256) {
    let mut frontier = vec![from_id];
    while let Some(parent_id) = frontier.pop() {
        let Some(&parent_root) = node.roots.get(&parent_id) else {
            continue;
        };
        let children: Vec<Arc<Block>> = node
            .bodies
            .values()
            .filter(|b| b.header.parent == parent_id && !node.roots.contains_key(&b.id()))
            .cloned()
            .collect();
        for child in children {
            node.state.set_root(parent_root);
            let receipts = execute_block_txs(ctx, node, now, &child);
            let cid = child.id();
            let record = block_meta_record(&node.state.root(), &child);
            node.state
                .commit_block_with_meta(vec![(block_meta_key(&cid), Some(record))])
                .expect("state store healthy");
            node.roots.insert(cid, node.state.root());
            node.receipts.insert(cid, receipts);
            frontier.push(cid);
        }
    }
}

/// A reorg abandoned part of the old chain: re-adopt its transactions.
fn readopt_abandoned(node: &mut EthNode, old_head: Hash256) {
    let mut cursor = old_head;
    // Walk the old branch until we hit a block still on the main chain.
    while !node.tree.on_main_chain(&cursor) {
        let Some(body) = node.bodies.get(&cursor) else {
            break;
        };
        let parent = body.header.parent;
        // Block bodies already hold `Arc<Transaction>`: re-adopting the
        // abandoned branch bumps refcounts instead of deep-cloning bodies.
        let txs = body.txs.clone();
        let height = node.tree.head_height();
        for tx in txs {
            let id = tx.id();
            if node.pool_ids.insert(id) {
                node.pool_admitted.insert(id, height);
                node.pool.push_back(tx);
            }
        }
        cursor = parent;
    }
}

fn on_tx(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    now: SimTime,
    tx: Arc<Transaction>,
    gossiped: bool,
    fx: &mut Effects<EthEvent>,
) {
    if node.crashed {
        return;
    }
    node.cpu.charge(now, ctx.config.costs.sig_verify);
    if !node.enqueue(Arc::clone(&tx)) {
        return;
    }
    if !gossiped {
        let size = tx.byte_size();
        for peer in (0..ctx.config.nodes).map(NodeId) {
            if peer == me || !node.rng.chance(ctx.config.tx_gossip_prob) {
                continue;
            }
            let tx = Arc::clone(&tx);
            fx.send(peer.0, size, move |_at| EthEvent::TxArrive { to: peer, tx, gossiped: true });
        }
    }
}

fn on_block(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    now: SimTime,
    block: Arc<Block>,
    from: NodeId,
    fx: &mut Effects<EthEvent>,
) {
    if node.crashed {
        return;
    }
    if node.restarted_at.is_some() {
        if node.snapshot_syncing {
            // The in-memory chain is about to be rebuilt from the snapshot;
            // adopting blocks against the stale pre-crash state would only
            // be thrown away.
            return;
        }
        if node.sync_target.is_none() {
            // First arrival after a restart is the head-request reply: its
            // height is the gap this node must close.
            node.sync_target = Some(block.header.height.max(node.tree.head_height()));
            let gap = block.header.height.saturating_sub(node.tree.head_height());
            if gap > ctx.config.snapshot_sync_blocks {
                // Gap too deep to replay block by block: fetch the peer's
                // state snapshot in bounded chunks instead. Mining stops
                // until the transfer lands.
                node.snapshot_syncing = true;
                node.mine_generation += 1;
                fx.send(from.0, 64, move |_at| EthEvent::SnapshotRequest {
                    to: from,
                    from: me,
                    after: None,
                });
                return;
            }
        }
        node.resync_blocks += 1;
        node.resync_bytes += block.byte_size();
    }
    let had_head = node.tree.head();
    adopt_block(ctx, node, now, me, block, Some(from), fx);
    if node.tree.head() != had_head {
        // Head moved: restart the mining race on the new head.
        reschedule_mine(ctx, node, me, now, fx);
    }
    if let (Some(t0), Some(target)) = (node.restarted_at, node.sync_target) {
        if node.tree.head_height() >= target {
            // A completed recovery records at least 1 ms: `recovery_ms == 0`
            // means "never caught up", and a sub-millisecond catch-up (no
            // blocks mined during the outage) must not read as that.
            node.recovery_ms = node.recovery_ms.max((now.since(t0).as_micros() / 1000).max(1));
            node.restarted_at = None;
            node.sync_target = None;
        }
    }
    if me.index() == 0 {
        refresh_confirmed(ctx, node, now);
    }
}

fn on_block_request(
    node: &mut EthNode,
    me: NodeId,
    wanted: Hash256,
    from: NodeId,
    fx: &mut Effects<EthEvent>,
) {
    if node.crashed {
        return;
    }
    if let Some(body) = node.bodies.get(&wanted) {
        let body = Arc::clone(body);
        let bytes = body.byte_size();
        fx.send(from.0, bytes, move |_at| EthEvent::BlockArrive { to: from, block: body, from: me });
    }
}

/// Serve a recovering peer our current head body; the orphan-fetch walk
/// then pulls the ancestor chain block by block.
fn on_head_request(node: &mut EthNode, me: NodeId, from: NodeId, fx: &mut Effects<EthEvent>) {
    if node.crashed {
        return;
    }
    let head = node.tree.head();
    if let Some(body) = node.bodies.get(&head) {
        let body = Arc::clone(body);
        let bytes = body.byte_size();
        fx.send(from.0, bytes, move |_at| EthEvent::BlockArrive { to: from, block: body, from: me });
    }
}

/// Serve one bounded snapshot chunk from this node's durable store. Each
/// request pins a fresh snapshot (flushing the memtable), reads one chunk
/// past the cursor via the sparse indexes, and unpins — the store is free
/// to compact between chunks, and content-addressed trie nodes make the
/// resulting cross-chunk mix safe on the receiver.
fn on_snapshot_request(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    from: NodeId,
    after: Option<Vec<u8>>,
    fx: &mut Effects<EthEvent>,
) {
    if node.crashed {
        return;
    }
    let store = node.state.store_mut();
    let snap = store.snapshot_open();
    let (entries, done) = store
        .snapshot_chunk(snap, after.as_deref(), ctx.config.snapshot_chunk_bytes)
        .expect("own snapshot readable");
    store.snapshot_close(snap);
    let bytes: u64 = 16 + entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
    let entries = Arc::new(entries);
    fx.send(from.0, bytes, move |_at| EthEvent::SnapshotChunk {
        to: from,
        from: me,
        entries,
        done,
    });
}

/// Apply one received snapshot chunk. Chunks are raw store pairs (trie
/// nodes, account values, `!b/` block records), applied blind in one batch;
/// when the last chunk lands the node rebuilds its in-memory chain from the
/// store and closes the trailing gap through the normal replay path.
#[allow(clippy::too_many_arguments)]
fn on_snapshot_chunk(
    ctx: &EthCtx,
    node: &mut EthNode,
    me: NodeId,
    now: SimTime,
    from: NodeId,
    entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
    done: bool,
    fx: &mut Effects<EthEvent>,
) {
    if node.crashed || !node.snapshot_syncing {
        return;
    }
    node.snapshot_chunks += 1;
    node.snapshot_bytes += entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
    let mut batch = bb_storage::WriteBatch::new();
    for (k, v) in entries.iter() {
        batch.put(k, v);
    }
    let cursor = entries.last().map(|(k, _)| k.clone());
    node.state.store_mut().apply_batch(batch).expect("state store healthy");
    if !done {
        fx.send(from.0, 64, move |_at| EthEvent::SnapshotRequest {
            to: from,
            from: me,
            after: cursor,
        });
        return;
    }
    // Transfer complete: make it durable, rebuild the chain from the store,
    // and fetch whatever was mined mid-transfer through the replay path.
    node.state.store_mut().flush();
    rebuild_node_from_store(node);
    node.snapshot_syncing = false;
    fx.send(from.0, 64, move |_at| EthEvent::HeadRequest { to: from, from: me });
    reschedule_mine(ctx, node, me, now, fx);
}

/// Rebuild a node's in-memory chain (tree, bodies, roots, head state) from
/// its durable store alone — the shared tail of crash restart and snapshot
/// sync. The pool and per-block receipts are volatile and reset.
fn rebuild_node_from_store(n: &mut EthNode) {
    // Everything in-memory is stale; only the Vfs behind the store is
    // authoritative.
    let vfs = n.state.store().vfs();
    let store =
        LsmStore::open(vfs, STORE_PREFIX, eth_store_config()).expect("durable store reopens");
    let replay = store.stats();
    n.wal_replayed += replay.wal_records_replayed;
    n.wal_truncated += replay.wal_tail_truncated;
    let mut state = AccountState::new(store);

    // Recover every durably recorded block, oldest first. The set is
    // ancestor-closed: a block is only recorded once executed, and
    // execution requires its parent's committed state.
    let mut recovered: Vec<(Hash256, Block)> = state
        .store_mut()
        .scan_prefix(b"!b/")
        .expect("durable store reads")
        .iter()
        .filter_map(|(_, v)| decode_block_meta(v))
        .collect();
    recovered.sort_by_key(|(_, b)| (b.header.height, b.id()));
    let genesis = recovered
        .iter()
        .find(|(_, b)| b.header.height == 0)
        .expect("genesis record is durable")
        .1
        .id();

    let mut tree = BlockTree::new(genesis);
    let mut bodies = HashMap::new();
    let mut roots = HashMap::new();
    let mut receipts = HashMap::new();
    let mut seen = HashSet::new();
    for (root, block) in recovered {
        let bid = block.id();
        if block.header.height > 0 {
            tree.insert(bid, block.header.parent, block.header.difficulty.max(1));
        }
        for tx in &block.txs {
            seen.insert(tx.id());
        }
        roots.insert(bid, root);
        // Receipts are volatile; recovered blocks keep empty ones.
        // (The observer's confirmed log is kept separately.)
        receipts.insert(bid, Vec::new());
        bodies.insert(bid, Arc::new(block));
    }
    let head = tree.head();
    state.set_root(roots[&head]);

    n.state = state;
    n.tree = tree;
    n.bodies = bodies;
    n.roots = roots;
    n.receipts = receipts;
    n.seen = seen;
    n.pool = VecDeque::new();
    n.pool_ids = HashSet::new();
    n.pool_admitted = HashMap::new();
    n.pruned = HashSet::new();
    prune_main_chain(n);
}

/// Advance the observer's (node 0) confirmation log. Only lane-0 events can
/// change node 0's tree, so this runs only on lane 0.
fn refresh_confirmed(ctx: &EthCtx, node: &mut EthNode, now: SimTime) {
    let depth = ctx.config.pow.confirm_depth;
    let upto = node.tree.confirmed_height(depth);
    while node.confirmed_height < upto {
        let h = node.confirmed_height + 1;
        let Some(id) = node.tree.main_chain_at(h) else {
            break;
        };
        // Only blocks whose bodies and receipts node 0 holds.
        let (Some(_body), Some(receipts)) = (node.bodies.get(&id), node.receipts.get(&id)) else {
            break;
        };
        node.confirmed.push(BlockSummary {
            id,
            height: h,
            proposer: node.bodies[&id].header.proposer,
            confirmed_at_us: now.as_micros(),
            txs: receipts.clone(),
        });
        node.confirmed_height = h;
    }
}

impl EthereumChain {
    /// Build a network per `config`: funded client accounts, genesis block,
    /// mining not yet started (starts on the first `advance_to`/`submit`).
    pub fn new(config: EthConfig) -> EthereumChain {
        let mut rng = SimRng::seed_from_u64(config.seed);
        let genesis_header = BlockHeader {
            parent: Hash256::ZERO,
            height: 0,
            timestamp_us: 0,
            tx_root: Hash256::ZERO,
            state_root: Hash256::ZERO,
            proposer: NodeId(0),
            difficulty: 0,
            round: 0,
        };
        let genesis_block = Arc::new(Block { header: genesis_header, txs: Vec::new() });
        let genesis = genesis_block.id();
        // (genesis id flows into every node's BlockTree below)
        let vm = Vm::new(
            VmConfig {
                max_memory: ((config.node_mem_bytes.saturating_sub(config.costs.mem_base)) as f64
                    / config.costs.mem_overhead) as usize,
                ..VmConfig::default()
            },
            Default::default(),
        );
        // The network's stream forks off the root seed first (its draws sit
        // on the serial/sharded boundary); each node then forks its own
        // private stream for mining races and gossip flips.
        let network = Network::new(config.nodes, config.link.clone(), rng.fork());
        let nodes = (0..config.nodes)
            .map(|_i| {
                let mut state = AccountState::new(LsmStore::new_private(eth_store_config()));
                // Fund the benchmark client accounts at genesis.
                for seed in 0..1024 {
                    let kp = bb_crypto::KeyPair::from_seed(seed);
                    state
                        .credit(&Address::from_public_key(&kp.public()), i64::MAX / 4)
                        .expect("fresh store");
                }
                // Seal the genesis state so its root is durable, recording
                // the genesis block alongside it for restart recovery.
                let record = block_meta_record(&state.root(), &genesis_block);
                state
                    .commit_block_with_meta(vec![(block_meta_key(&genesis), Some(record))])
                    .expect("fresh store");
                let mut node = EthNode {
                    state,
                    tree: BlockTree::new(genesis),
                    bodies: HashMap::new(),
                    roots: HashMap::new(),
                    receipts: HashMap::new(),
                    pool: VecDeque::new(),
                    pool_ids: HashSet::new(),
                    pool_admitted: HashMap::new(),
                    seen: HashSet::new(),
                    pruned: HashSet::from([genesis]),
                    cpu: CpuMeter::new(config.cores),
                    rng: rng.fork(),
                    mine_generation: 0,
                    crashed: false,
                    restarted_at: None,
                    sync_target: None,
                    snapshot_syncing: false,
                    snapshot_chunks: 0,
                    snapshot_bytes: 0,
                    recovery_ms: 0,
                    resync_blocks: 0,
                    resync_bytes: 0,
                    exec_conflicts: 0,
                    exec_serial_us: 0,
                    exec_modeled_us: 0,
                    wal_replayed: 0,
                    wal_truncated: 0,
                    confirmed: Vec::new(),
                    confirmed_height: 0,
                };
                node.bodies.insert(genesis, Arc::clone(&genesis_block));
                node.roots.insert(genesis, node.state.root());
                node.receipts.insert(genesis, Vec::new());
                node
            })
            .collect();
        let ctx = EthCtx { config: config.clone(), vm };
        let engine = ShardedEngine::new(ctx, nodes, network.min_latency());
        EthereumChain { config, engine, network, started: false, mem_peak: 0 }
    }

    /// Restart a crashed node from its durable store alone: reopen the LSM
    /// (WAL replay, torn-tail truncation), rebuild the chain from persisted
    /// block records, then ask a live peer for its head to download the gap.
    fn restart_node(&mut self, id: NodeId) {
        let now = self.engine.now();
        let peer = (0..self.config.nodes)
            .map(NodeId)
            .find(|p| *p != id && !self.network.is_crashed(*p));
        self.engine.with_node_mut(id.0, |n| {
            rebuild_node_from_store(n);
            n.crashed = false;
            n.mine_generation += 1;
            // Catch-up bookkeeping: recovery completes when the head reaches
            // the first live peer's announced height. With no live peer the
            // node is trivially caught up.
            n.restarted_at = peer.map(|_| now);
            n.sync_target = None;
            n.snapshot_syncing = false;
        });
        self.network.recover(id);
        if let Some(peer) = peer {
            self.engine.schedule(now, EthEvent::HeadRequest { to: peer, from: id });
        }
        // Rejoin the mining race.
        let mean = self.config.pow.miner_interval(self.config.nodes);
        let (generation, delay) = self.engine.with_node_mut(id.0, |n| {
            n.mine_generation += 1;
            (n.mine_generation, n.rng.exp_duration(mean))
        });
        self.engine.schedule(now + delay, EthEvent::Mine { miner: id, generation });
    }

    fn start_mining(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let now = self.engine.now();
        let mean = self.config.pow.miner_interval(self.config.nodes);
        for i in 0..self.config.nodes {
            let (generation, delay) = self.engine.with_node_mut(i, |node| {
                node.mine_generation += 1;
                (node.mine_generation, node.rng.exp_duration(mean))
            });
            self.engine.schedule(now + delay, EthEvent::Mine { miner: NodeId(i), generation });
        }
    }
}

impl BlockchainConnector for EthereumChain {
    fn name(&self) -> &'static str {
        "ethereum"
    }

    fn node_count(&self) -> u32 {
        self.config.nodes
    }

    fn deploy(&mut self, bundle: &ContractBundle) -> Address {
        assert!(!self.started, "deploy contracts before the run starts");
        let addr = Address::contract(&Address::ZERO, self.engine.with_node(0, |n| n.seen.len()) as u64);
        for i in 0..self.config.nodes {
            self.engine.with_node_mut(i, |node| {
                let head = node.tree.head();
                let root = node.roots[&head];
                node.state.set_root(root);
                node.state.install_contract(&addr, &bundle.svm).expect("setup store healthy");
                // Re-record the head block with its post-deploy root so a
                // restart recovers the contract.
                let body = node.bodies.get(&head).expect("head body known").clone();
                let record = block_meta_record(&node.state.root(), &body);
                node.state
                    .commit_block_with_meta(vec![(block_meta_key(&head), Some(record))])
                    .expect("setup store healthy");
                node.roots.insert(head, node.state.root());
            });
        }
        addr
    }

    fn submit(&mut self, server: NodeId, tx: Transaction) -> bool {
        self.start_mining();
        if self.network.is_crashed(server) {
            // A crashed node's RPC endpoint refuses connections; the client
            // sees the failure and does not burn a nonce on it.
            return false;
        }
        let now = self.engine.now();
        let at = now + self.config.rpc_delay;
        self.engine
            .schedule(at, EthEvent::TxArrive { to: server, tx: Arc::new(tx), gossiped: false });
        true
    }

    fn advance_to(&mut self, t: SimTime) {
        self.start_mining();
        self.engine.run_until(t, &mut self.network);
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn confirmed_blocks_since(&mut self, height: u64) -> Vec<BlockSummary> {
        self.engine.with_node(0, |node| {
            node.confirmed.iter().filter(|b| b.height > height).cloned().collect()
        })
    }

    fn query(&mut self, q: &Query) -> Result<QueryResult, QueryError> {
        self.engine.with_ctx_node_mut(0, |ctx, node| match q {
            Query::BlockTxs { height } => {
                let id = node.tree.main_chain_at(*height).ok_or(QueryError::NotFound)?;
                let body = node.bodies.get(&id).ok_or(QueryError::NotFound)?;
                let mut enc = Encoder::with_capacity(body.txs.len() * 48 + 4);
                enc.put_u32(body.txs.len() as u32);
                for tx in &body.txs {
                    enc.put_raw(tx.from.as_bytes()).put_raw(tx.to.as_bytes()).put_u64(tx.value);
                }
                let cost = SimDuration::from_micros(20 + 4 * body.txs.len() as u64);
                Ok(QueryResult { data: enc.finish(), server_cost: cost })
            }
            Query::AccountAtBlock { account, height } => {
                let id = node.tree.main_chain_at(*height).ok_or(QueryError::NotFound)?;
                let root = *node.roots.get(&id).ok_or(QueryError::NotFound)?;
                let acct = node
                    .state
                    .account_at(root, account)
                    .map_err(|e| QueryError::Contract(e.to_string()))?;
                Ok(QueryResult {
                    data: acct.balance.to_le_bytes().to_vec(),
                    server_cost: SimDuration::from_micros(60),
                })
            }
            Query::Contract { address, payload } => {
                // Read-only execution on the current confirmed state.
                let head = node.tree.head();
                let root = node.roots[&head];
                node.state.set_root(root);
                let kp = bb_crypto::KeyPair::from_seed(0);
                let acct = node
                    .state
                    .account(&Address::from_public_key(&kp.public()))
                    .map_err(|e| QueryError::Contract(e.to_string()))?;
                let tx = Transaction::signed(&kp, acct.nonce, *address, 0, payload.clone());
                let height = node.tree.head_height();
                let res = node
                    .state
                    .apply_transaction(&tx, height, &ctx.vm, ctx.config.tx_gas_limit)
                    .map_err(|e| QueryError::Contract(e.to_string()))?;
                // Roll the state change back: queries are not transactions.
                node.state.set_root(root);
                if !res.success {
                    return Err(QueryError::Contract(
                        res.error.unwrap_or_else(|| "reverted".into()),
                    ));
                }
                Ok(QueryResult {
                    data: res.output,
                    server_cost: ctx.config.costs.exec_time(res.gas_used),
                })
            }
        })
    }

    fn inject(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(node) => {
                self.network.crash(node);
                self.engine.with_node_mut(node.0, |n| {
                    n.crashed = true;
                    n.mine_generation += 1; // cancel races
                    // Amnesia: the pool and the trie's uncommitted overlay
                    // and caches die with the process. The durable store
                    // (and the in-memory chain copies a legacy Recover
                    // resurrects) stay.
                    n.pool.clear();
                    n.pool_ids.clear();
                    n.pool_admitted.clear();
                    n.snapshot_syncing = false;
                    n.state.drop_volatile();
                });
            }
            Fault::Recover(node) => {
                self.network.recover(node);
                self.engine.with_node_mut(node.0, |n| n.crashed = false);
                self.started = false;
                self.start_mining();
            }
            Fault::Restart(node) => self.restart_node(node),
            Fault::TornTail(node) => {
                let vfs = self.engine.with_node(node.0, |n| n.state.store().vfs());
                let mut injector =
                    FaultVfs::new(vfs, self.config.seed ^ 0xF417_7A11 ^ node.0 as u64);
                injector.tear_tail(&format!("{STORE_PREFIX}/wal"));
            }
            Fault::BitRot(node, flips) => {
                let vfs = self.engine.with_node(node.0, |n| n.state.store().vfs());
                let mut injector =
                    FaultVfs::new(vfs, self.config.seed ^ 0xB17_0707 ^ node.0 as u64);
                injector.bit_rot(&format!("{STORE_PREFIX}/wal"), flips);
            }
            Fault::Delay(node, d) => self.network.set_extra_delay(node, d),
            Fault::Corrupt(node, p) => self.network.set_corrupt_prob(node, p),
            Fault::PartitionHalf { left } => self.network.partition_in_half(left),
            Fault::PartitionAsymmetric { left } => self.network.partition_asymmetric(left),
            Fault::GossipJitter(amplitude) => self.network.set_gossip_jitter(amplitude),
            Fault::SlowDisk(node, per_op) => {
                let vfs = self.engine.with_node(node.0, |n| n.state.store().vfs());
                vfs.lock().unwrap().set_op_latency_us(per_op.as_micros());
            }
            // PoW has no leader proposal to fork: an equivocating miner is
            // just a fork, which the heaviest-chain rule already models.
            Fault::Equivocate(_) => {}
            Fault::Heal => self.network.heal(),
        }
    }

    fn stats(&self) -> PlatformStats {
        let n = self.config.nodes as usize;
        let mut disk = 0u64;
        let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
        let (mut flushed, mut dropped, mut batches) = (0u64, 0u64, 0u64);
        let (mut wal_replayed, mut wal_truncated) = (0u64, 0u64);
        let mut recovery_ms = 0u64;
        let (mut resync_blocks, mut resync_bytes) = (0u64, 0u64);
        let (mut exec_conflicts, mut exec_serial_us, mut exec_modeled_us) = (0u64, 0u64, 0u64);
        let (mut stall_ms, mut debt, mut compacted) = (0u64, 0u64, 0u64);
        let (mut store_written, mut store_logical) = (0u64, 0u64);
        let (mut snap_chunks, mut snap_bytes) = (0u64, 0u64);
        let mut disk_stall_us = 0u64;
        // Average per-second CPU and network series over nodes.
        let mut cpu: Vec<f64> = Vec::new();
        let mut net: Vec<f64> = Vec::new();
        for i in 0..self.config.nodes {
            self.engine.with_node(i, |node| {
                let store_stats = node.state.store().stats();
                disk_stall_us += node.state.store().vfs().lock().unwrap().stall_us();
                disk += store_stats.disk_bytes;
                batches += store_stats.batch_writes;
                stall_ms += store_stats.write_stall_ms;
                debt += store_stats.compaction_debt_bytes;
                compacted += store_stats.bytes_compacted;
                store_written += store_stats.bytes_written;
                store_logical += store_stats.logical_bytes;
                snap_chunks += node.snapshot_chunks;
                snap_bytes += node.snapshot_bytes;
                let (h, m) = node.state.trie_cache_stats();
                cache_hits += h;
                cache_misses += m;
                let (f, d) = node.state.trie_flush_stats();
                flushed += f;
                dropped += d;
                wal_replayed += node.wal_replayed;
                wal_truncated += node.wal_truncated;
                recovery_ms = recovery_ms.max(node.recovery_ms);
                resync_blocks += node.resync_blocks;
                resync_bytes += node.resync_bytes;
                exec_conflicts += node.exec_conflicts;
                exec_serial_us += node.exec_serial_us;
                exec_modeled_us += node.exec_modeled_us;
                let series = node.cpu.utilisation_series();
                if series.len() > cpu.len() {
                    cpu.resize(series.len(), 0.0);
                }
                for (j, v) in series.iter().enumerate() {
                    cpu[j] += v / n as f64;
                }
            });
            let tx = self.network.tx_mbps_series(NodeId(i));
            if tx.len() > net.len() {
                net.resize(tx.len(), 0.0);
            }
            for (j, v) in tx.iter().enumerate() {
                net[j] += v / n as f64;
            }
        }
        let (blocks_main, txs_committed) = self.engine.with_node(0, |node| {
            (node.tree.main_chain_len(), node.confirmed.iter().map(|b| b.txs.len() as u64).sum())
        });
        PlatformStats {
            blocks_total: self.engine.counter(BLOCKS_MINED),
            blocks_main,
            txs_committed,
            disk_bytes: disk,
            mem_peak_bytes: self.mem_peak.max(self.config.costs.mem_base),
            cpu_utilisation: cpu,
            net_mbps: net,
            net_bytes: self.network.stats().bytes,
            trie_cache_hits: cache_hits,
            trie_cache_misses: cache_misses,
            state_nodes_flushed: flushed,
            state_nodes_dropped: dropped,
            batch_put_count: batches,
            wal_records_replayed: wal_replayed,
            wal_tail_truncated: wal_truncated,
            recovery_ms,
            resync_blocks,
            resync_bytes,
            write_stall_ms: stall_ms,
            compaction_debt_bytes: debt,
            bytes_compacted: compacted,
            storage_bytes_written: store_written,
            storage_logical_bytes: store_logical,
            snapshot_chunks: snap_chunks,
            snapshot_bytes: snap_bytes,
            exec_conflicts,
            exec_serial_us,
            exec_modeled_us,
            // Byzantine submissions are attributed by the chaos runner; the
            // node sees them as ordinary (rejected or evicted) traffic.
            byzantine_rejected: 0,
            equivocations_detected: 0,
            partition_flaps: self.network.partition_flaps(),
            disk_stall_ms: disk_stall_us / 1000,
        }
    }

    fn committed_chain(&self, node: NodeId) -> Vec<ChainEntry> {
        self.engine.with_node(node.0, |n| {
            let mut out = Vec::new();
            for h in 1..=n.tree.head_height() {
                let Some(id) = n.tree.main_chain_at(h) else { break };
                let Some(body) = n.bodies.get(&id) else { break };
                out.push(ChainEntry {
                    height: h,
                    id,
                    parent: body.header.parent,
                    // `roots` is authoritative: setup re-commits state
                    // without re-hashing headers (see `block_meta_record`).
                    state_root: n.roots.get(&id).copied().unwrap_or(body.header.state_root),
                });
            }
            out
        })
    }

    fn preload_blocks(&mut self, blocks: Vec<Vec<Transaction>>) {
        assert!(!self.started, "preload before the run starts");
        for txs in blocks {
            let txs: Vec<Arc<Transaction>> = txs.into_iter().map(Arc::new).collect();
            let now = self.engine.now();
            for i in 0..self.config.nodes {
                self.engine.with_ctx_node_mut(i, |ctx, node| {
                    let parent = node.tree.head();
                    let parent_root = node.roots[&parent];
                    let height = node.tree.head_height() + 1;
                    node.state.set_root(parent_root);
                    let mut receipts = Vec::with_capacity(txs.len());
                    for tx in &txs {
                        let ok = node
                            .state
                            .apply_transaction(tx, height, &ctx.vm, ctx.config.tx_gas_limit)
                            .map(|r| r.success)
                            .unwrap_or(false);
                        receipts.push((tx.id(), ok));
                    }
                    let header = BlockHeader {
                        parent,
                        height,
                        timestamp_us: now.as_micros(),
                        tx_root: merkle_root(&txs.iter().map(|t| t.id().0).collect::<Vec<_>>()),
                        state_root: node.state.root(),
                        proposer: NodeId(0),
                        difficulty: 1000,
                        round: 0,
                    };
                    let block = Arc::new(Block { header, txs: txs.clone() });
                    let id = block.id();
                    let record = block_meta_record(&node.state.root(), &block);
                    node.state
                        .commit_block_with_meta(vec![(block_meta_key(&id), Some(record))])
                        .expect("state store healthy");
                    node.roots.insert(id, node.state.root());
                    node.receipts.insert(id, receipts.clone());
                    node.bodies.insert(id, Arc::clone(&block));
                    node.tree.insert(id, parent, 1000);
                    node.pruned.insert(id);
                    if i == 0 {
                        node.confirmed.push(BlockSummary {
                            id,
                            height,
                            proposer: NodeId(0),
                            confirmed_at_us: now.as_micros(),
                            txs: receipts,
                        });
                        node.confirmed_height = height;
                    }
                });
                if i == 0 {
                    self.engine.bump_counter(BLOCKS_MINED, 1);
                }
            }
        }
    }

    fn execute_direct(&mut self, tx: Transaction) -> DirectExec {
        let (exec, modeled) = self.engine.with_ctx_node_mut(0, |ctx, node| {
            let head = node.tree.head();
            let root = node.roots[&head];
            node.state.set_root(root);
            let height = node.tree.head_height();
            match node.state.apply_transaction(&tx, height, &ctx.vm, u64::MAX / 2) {
                Ok(res) => {
                    let modeled = ctx.config.costs.modeled_mem(res.vm_peak_mem);
                    // Commit the direct execution as the new head state,
                    // updating the head's durable record in the same batch.
                    let body = node.bodies.get(&head).expect("head body known").clone();
                    let record = block_meta_record(&node.state.root(), &body);
                    node.state
                        .commit_block_with_meta(vec![(block_meta_key(&head), Some(record))])
                        .expect("state store healthy");
                    node.roots.insert(head, node.state.root());
                    (
                        DirectExec {
                            success: res.success,
                            duration: ctx.config.costs.sig_verify
                                + ctx.config.costs.exec_time(res.gas_used),
                            gas_used: res.gas_used,
                            modeled_mem: modeled,
                            output: res.output,
                            error: res.error,
                        },
                        modeled,
                    )
                }
                Err(e) => (
                    DirectExec {
                        success: false,
                        duration: ctx.config.costs.sig_verify,
                        gas_used: 0,
                        modeled_mem: 0,
                        output: Vec::new(),
                        error: Some(e.to_string()),
                    },
                    0,
                ),
            }
        });
        self.mem_peak = self.mem_peak.max(modeled);
        exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_contracts::{donothing, ycsb};
    use bb_crypto::KeyPair;

    fn small_chain(nodes: u32) -> EthereumChain {
        let mut config = EthConfig::with_nodes(nodes);
        config.pow.base_interval = SimDuration::from_millis(500); // fast tests
        EthereumChain::new(config)
    }

    fn client_tx(seed: u64, nonce: u64, to: Address, payload: Vec<u8>) -> Transaction {
        Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 0, payload)
    }

    #[test]
    fn transactions_get_mined_and_confirmed() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&ycsb::bundle());
        for nonce in 0..20 {
            let tx = client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"));
            chain.submit(NodeId((nonce % 4) as u32), tx);
        }
        chain.advance_to(SimTime::from_secs(30));
        let blocks = chain.confirmed_blocks_since(0);
        assert!(!blocks.is_empty(), "no confirmed blocks");
        let committed: usize = blocks.iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 20, "all transactions confirmed exactly once");
        assert!(blocks.iter().all(|b| b.txs.iter().all(|&(_, ok)| ok)));
    }

    #[test]
    fn nodes_converge_on_one_chain() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&donothing::bundle());
        for nonce in 0..10 {
            chain.submit(NodeId(0), client_tx(1, nonce, contract, donothing::call()));
        }
        chain.advance_to(SimTime::from_secs(40));
        // All nodes should agree on the confirmed prefix.
        let h0 = chain.engine.with_node(0, |n| n.tree.confirmed_height(2));
        for i in 1..4 {
            let hi = chain.engine.with_node(i, |n| n.tree.confirmed_height(2));
            let common = h0.min(hi);
            assert!(common > 0, "node {i} has no confirmed chain (h0={h0}, hi={hi})");
            for h in 1..=common {
                assert_eq!(
                    chain.engine.with_node(0, |n| n.tree.main_chain_at(h)),
                    chain.engine.with_node(i, |n| n.tree.main_chain_at(h)),
                    "divergence at height {h} on node {i}"
                );
            }
        }
    }

    #[test]
    fn forks_happen_but_resolve() {
        let mut chain = small_chain(8);
        chain.advance_to(SimTime::from_secs(120));
        let stats = chain.stats();
        assert!(stats.blocks_total >= stats.blocks_main);
        // The main chain grows at roughly the configured rate.
        assert!(stats.blocks_main > 100, "main chain too short: {}", stats.blocks_main);
    }

    #[test]
    fn partition_creates_forks_then_heals() {
        let mut chain = small_chain(8);
        chain.advance_to(SimTime::from_secs(20));
        chain.inject(Fault::PartitionHalf { left: 4 });
        chain.advance_to(SimTime::from_secs(60));
        chain.inject(Fault::Heal);
        chain.advance_to(SimTime::from_secs(120));
        let stats = chain.stats();
        let forked = stats.blocks_total - stats.blocks_main;
        assert!(forked > 5, "partition produced only {forked} fork blocks");
        // After healing, all nodes agree on the head within confirmation depth.
        let heads: Vec<_> =
            (0..8).map(|i| chain.engine.with_node(i, |n| n.tree.head_height())).collect();
        let max = *heads.iter().max().unwrap();
        let min = *heads.iter().min().unwrap();
        assert!(max - min <= 3, "heads diverged after heal: {heads:?}");
    }

    #[test]
    fn crash_does_not_stop_the_chain() {
        let mut chain = small_chain(8);
        chain.advance_to(SimTime::from_secs(15));
        let before = chain.stats().blocks_main;
        // Keep node 0 alive: it is the driver's RPC endpoint/observer.
        for i in 4..8 {
            chain.inject(Fault::Crash(NodeId(i)));
        }
        chain.advance_to(SimTime::from_secs(60));
        let after = chain.stats().blocks_main;
        assert!(after > before + 10, "chain stalled after crashes: {before} → {after}");
    }

    #[test]
    fn historical_balance_query() {
        let mut chain = small_chain(2);
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::from_public_key(&alice.public());
        // Preload two blocks transferring value.
        let bob = Address::from_index(999);
        chain.preload_blocks(vec![
            vec![Transaction::signed(&alice, 0, bob, 100, vec![])],
            vec![Transaction::signed(&alice, 1, bob, 50, vec![])],
        ]);
        let q1 = chain
            .query(&Query::AccountAtBlock { account: alice_addr, height: 1 })
            .unwrap();
        let q2 = chain
            .query(&Query::AccountAtBlock { account: alice_addr, height: 2 })
            .unwrap();
        let b1 = i64::from_le_bytes(q1.data.try_into().unwrap());
        let b2 = i64::from_le_bytes(q2.data.try_into().unwrap());
        assert_eq!(b1 - b2, 50, "second transfer visible between heights");
        // Block tx query decodes the transfers.
        let q = chain.query(&Query::BlockTxs { height: 1 }).unwrap();
        let mut d = bb_types::Decoder::new(&q.data);
        assert_eq!(d.u32().unwrap(), 1);
    }

    #[test]
    fn direct_execution_reports_gas_and_memory() {
        let mut chain = small_chain(1);
        let contract = chain.deploy(&bb_contracts::cpuheavy::bundle());
        let tx = client_tx(1, 0, contract, bb_contracts::cpuheavy::sort_call(2000));
        let res = chain.execute_direct(tx);
        assert!(res.success, "{:?}", res.error);
        assert!(res.gas_used > 100_000);
        assert!(res.modeled_mem > chain.config.costs.mem_base);
        assert!(res.duration > SimDuration::from_micros(1000));
    }

    #[test]
    fn duplicate_submissions_commit_once() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&donothing::bundle());
        let tx = client_tx(1, 0, contract, donothing::call());
        chain.submit(NodeId(0), tx.clone());
        chain.submit(NodeId(1), tx.clone());
        chain.submit(NodeId(2), tx);
        chain.advance_to(SimTime::from_secs(30));
        let committed: usize =
            chain.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 1);
    }

    #[test]
    fn torn_tail_restart_recovers_durable_prefix_and_catches_up() {
        let mut chain = small_chain(4);
        let contract = chain.deploy(&ycsb::bundle());
        for nonce in 0..30 {
            let tx = client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"));
            chain.submit(NodeId((nonce % 4) as u32), tx);
        }
        chain.advance_to(SimTime::from_secs(10));
        let durable_root = chain.engine.with_node(3, |n| {
            let head = n.tree.head();
            n.roots[&head]
        });
        // Power cut on node 3: volatile state gone, WAL tail torn.
        chain.inject(Fault::Crash(NodeId(3)));
        chain.inject(Fault::TornTail(NodeId(3)));
        chain.advance_to(SimTime::from_secs(20));
        chain.inject(Fault::Restart(NodeId(3)));
        // The recovered chain must contain the pre-crash durable head state
        // (the crashed node's committed prefix survived the torn tail).
        let recovered_has_root = chain
            .engine
            .with_node(3, |n| n.roots.values().any(|r| *r == durable_root));
        assert!(recovered_has_root, "durable pre-crash root lost in recovery");
        chain.advance_to(SimTime::from_secs(45));
        // Node 3 caught up with the cluster.
        let h3 = chain.engine.with_node(3, |n| n.tree.head_height());
        let h0 = chain.engine.with_node(0, |n| n.tree.head_height());
        assert!(h0.abs_diff(h3) <= 3, "restarted node lags: h0={h0} h3={h3}");
        let stats = chain.stats();
        assert!(stats.recovery_ms > 0, "recovery never completed");
        assert!(stats.resync_blocks > 0, "no blocks were resynced");
        assert!(stats.resync_bytes > 0);
        // And the chain as a whole kept committing after the rejoin.
        let committed: usize = chain.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 30);
    }

    #[test]
    fn deep_gap_restart_uses_snapshot_sync_instead_of_replay() {
        let mut config = EthConfig::with_nodes(4);
        config.pow.base_interval = SimDuration::from_millis(500);
        config.snapshot_sync_blocks = 4; // force the snapshot path
        let mut chain = EthereumChain::new(config);
        let contract = chain.deploy(&ycsb::bundle());
        for nonce in 0..30 {
            let tx = client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"));
            chain.submit(NodeId((nonce % 4) as u32), tx);
        }
        chain.advance_to(SimTime::from_secs(10));
        chain.inject(Fault::Crash(NodeId(3)));
        // A long outage: the gap is far beyond the 4-block threshold.
        chain.advance_to(SimTime::from_secs(40));
        chain.inject(Fault::Restart(NodeId(3)));
        chain.advance_to(SimTime::from_secs(70));
        let stats = chain.stats();
        assert!(stats.snapshot_chunks > 0, "deep gap closed without snapshot chunks");
        assert!(stats.snapshot_bytes > 0);
        assert!(stats.recovery_ms > 0, "recovery never completed");
        // The deep gap travelled as state chunks; only the blocks mined
        // mid-transfer were replayed.
        let gap_blocks = chain.engine.with_node(0, |n| n.tree.head_height());
        assert!(
            stats.resync_blocks < gap_blocks / 2,
            "snapshot sync still replayed most of the gap: {} of {gap_blocks}",
            stats.resync_blocks
        );
        let h3 = chain.engine.with_node(3, |n| n.tree.head_height());
        let h0 = chain.engine.with_node(0, |n| n.tree.head_height());
        assert!(h0.abs_diff(h3) <= 3, "restarted node lags: h0={h0} h3={h3}");
        // Storage cost-model observability threads through to PlatformStats.
        assert!(stats.storage_logical_bytes > 0);
        assert!(stats.write_amplification().expect("stores saw writes") > 1.0);
    }

    /// Same seed, serial vs forced-parallel: byte-identical results. Mining
    /// races, gossip flips and LSM stores are all lane-local, so thread
    /// scheduling must be invisible.
    #[test]
    fn serial_and_sharded_runs_are_byte_identical() {
        fn run() -> String {
            let mut chain = small_chain(4);
            let contract = chain.deploy(&ycsb::bundle());
            for nonce in 0..25 {
                chain.submit(
                    NodeId((nonce % 4) as u32),
                    client_tx(3, nonce, contract, ycsb::write_call(nonce, b"w")),
                );
            }
            chain.advance_to(SimTime::from_secs(20));
            format!("{:?}\n{:?}", chain.confirmed_blocks_since(0), chain.stats())
        }
        // Only this test in the crate touches the process-global knobs.
        std::env::set_var("BB_SERIAL", "1");
        let serial = run();
        std::env::remove_var("BB_SERIAL");
        std::env::set_var("BB_SHARD_THREADS", "3");
        let sharded = run();
        std::env::remove_var("BB_SHARD_THREADS");
        assert_eq!(serial, sharded);
    }
}
