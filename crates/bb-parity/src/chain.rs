//! The Parity-like network world and its `BlockchainConnector`.
//!
//! Sharded: each authority is a lane of a [`ShardedEngine`]; every event
//! names the node it mutates, block/transaction gossip rides the network
//! outbox, and the confirmation log lives with the observer (node 0), so a
//! run parallelises across cores while staying byte-identical to the serial
//! path (DESIGN.md §5).

use crate::config::ParityConfig;
use bb_consensus::pow::{BlockTree, InsertOutcome};
use bb_consensus::PoaSchedule;
use bb_crypto::Hash256;
use bb_ethereum::state::{AccountState, BlockExecOutcome, TxInvalid};
use bb_merkle::merkle_root;
use bb_net::Network;
use bb_sim::{CpuMeter, Effects, ShardedEngine, ShardedWorld, SimDuration, SimRng, SimTime};
use bb_storage::{KvStore, MemStore};
use bb_svm::{Vm, VmConfig};
use bb_types::{Address, Block, BlockHeader, BlockSummary, Encoder, NodeId, Transaction, TxId};
use blockbench::connector::{
    BlockchainConnector, ChainEntry, DirectExec, Fault, PlatformStats, Query, QueryError,
    QueryResult,
};
use blockbench::contract::ContractBundle;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Events of the Parity world.
#[derive(Debug, Clone)]
pub enum PoaEvent {
    /// An authority-round step boundary.
    Step {
        /// Step index.
        index: u64,
    },
    /// A transaction cleared a server's signature-verification queue.
    TxAdmit {
        /// Admitting server.
        to: NodeId,
        /// The transaction.
        tx: Arc<Transaction>,
        /// First hop (gossip to peers) or relayed.
        relayed: bool,
    },
    /// A block reached a node.
    BlockArrive {
        /// Receiving node.
        to: NodeId,
        /// The block body.
        block: Arc<Block>,
        /// Sender (for ancestor fetches).
        from: NodeId,
    },
    /// Ancestor fetch.
    BlockRequest {
        /// Peer asked.
        to: NodeId,
        /// Wanted block.
        wanted: Hash256,
        /// Asker.
        from: NodeId,
    },
    /// A restarted authority asks a peer for its head block; the reply seeds
    /// the ancestor walk-back that re-downloads the whole chain (Parity's
    /// state is purely in-memory, so a restart recovers from genesis).
    HeadRequest {
        /// Peer asked.
        to: NodeId,
        /// Recovering node.
        from: NodeId,
    },
    /// A deeply-lagged restarted authority asks a peer for a chunk of its
    /// state store (trie nodes, content-addressed) instead of replaying the
    /// whole chain transaction-by-transaction.
    SnapshotRequest {
        /// Serving peer.
        to: NodeId,
        /// Recovering node.
        from: NodeId,
        /// Resume after this key (exclusive); `None` starts the stream.
        after: Option<Vec<u8>>,
    },
    /// One bounded chunk of a peer's state store.
    SnapshotChunk {
        /// Recovering node.
        to: NodeId,
        /// Serving peer.
        from: NodeId,
        /// Raw `(key, value)` store entries.
        entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
        /// True when the peer's key space is exhausted.
        done: bool,
    },
    /// After the state transfer: ask for main-chain bodies from `height` up.
    ChainRequest {
        /// Serving peer.
        to: NodeId,
        /// Recovering node.
        from: NodeId,
        /// First wanted height.
        height: u64,
    },
    /// A bounded run of main-chain `(block, state root)` pairs. The roots
    /// are trusted — the recovering node's freshly transferred store already
    /// holds every trie node they reach, so adoption skips re-execution.
    ChainChunk {
        /// Recovering node.
        to: NodeId,
        /// Serving peer.
        from: NodeId,
        /// Consecutive main-chain blocks with their committed roots.
        blocks: Arc<Vec<(Arc<Block>, Hash256)>>,
        /// True when the peer's head was reached.
        done: bool,
    },
}

struct PoaNode {
    state: AccountState<MemStore>,
    tree: BlockTree,
    bodies: HashMap<Hash256, Arc<Block>>,
    roots: HashMap<Hash256, Hash256>,
    receipts: HashMap<Hash256, Vec<(TxId, bool)>>,
    pool: VecDeque<Arc<Transaction>>,
    pool_ids: HashSet<TxId>,
    /// Head height at admission, per pooled transaction — the age-out
    /// clock for future-nonced entries that would otherwise pin the
    /// bounded pool (see `ParityConfig::pool_evict_blocks`).
    pool_admitted: HashMap<TxId, u64>,
    seen: HashSet<TxId>,
    /// Main-chain blocks whose transactions were pruned from the pool (side
    /// blocks never are — their transactions must stay minable if the fork
    /// loses without a reorg through this node's head).
    pruned: HashSet<Hash256>,
    cpu: CpuMeter,
    /// Signature-verification pipeline state.
    admission_busy_until: SimTime,
    admission_backlog: usize,
    /// Set while a restarted node re-downloads the chain; cleared (into
    /// `recovery_ms`) once its head reaches the sync target.
    restarted_at: Option<SimTime>,
    /// Peer head height learned from the first post-restart block arrival.
    sync_target: Option<u64>,
    /// Longest completed restart→caught-up recovery on this node, virtual ms.
    recovery_ms: u64,
    /// Blocks re-fetched from peers while catching up after a restart.
    resync_blocks: u64,
    /// Bytes of those blocks.
    resync_bytes: u64,
    /// Set while a snapshot transfer is in flight; block gossip is ignored
    /// until the transferred chain is adopted wholesale.
    snapshot_syncing: bool,
    /// Snapshot chunks received (state + chain phases).
    snapshot_chunks: u64,
    /// Payload bytes of those chunks.
    snapshot_bytes: u64,
    /// Optimistic-executor counters (see `PlatformStats`).
    exec_conflicts: u64,
    exec_serial_us: u64,
    exec_modeled_us: u64,
    /// Observer state — populated only on node 0.
    confirmed: Vec<BlockSummary>,
    confirmed_height: u64,
}

/// Read-only context shared by every lane. Crash flags live here (not in
/// the per-lane nodes) because [`ShardedWorld::route`] needs them to pick
/// the authority lane for a `Step` event; they only change between runs,
/// via `inject`.
struct PoaCtx {
    config: ParityConfig,
    vm: Vm,
    schedule: PoaSchedule,
    crashed: Vec<bool>,
}

impl PoaCtx {
    fn step_authority(&self, index: u64) -> Option<NodeId> {
        let live: Vec<bool> = self.crashed.iter().map(|&c| !c).collect();
        self.schedule.authority_for_step_live(index, &live)
    }
}

/// The sharded-world marker type for Parity.
struct PoaWorld;

/// The Parity-like platform.
pub struct ParityChain {
    config: ParityConfig,
    engine: ShardedEngine<PoaWorld>,
    network: Network,
    started: bool,
    mem_peak: u64,
    /// The genesis block every restart rebuilds from (Parity's state is
    /// in-memory only — a restarted authority recovers genesis + deployed
    /// contracts locally and re-downloads everything else from peers).
    genesis_block: Arc<Block>,
    /// Contracts installed at setup time, replayed into a rebuilt state.
    deployed: Vec<(Address, blockbench::contract::SvmContract)>,
}

/// Observer counter indices (commutative run-wide tallies).
const BLOCKS_PRODUCED: usize = 0;

impl ShardedWorld for PoaWorld {
    type Event = PoaEvent;
    type Node = PoaNode;
    type Ctx = PoaCtx;

    fn route(ctx: &PoaCtx, event: &PoaEvent) -> u32 {
        match event {
            // A step fires on its authority's lane. If every authority is
            // crashed the event still needs a home: lane 0 keeps the round
            // ticking without producing.
            PoaEvent::Step { index } => ctx.step_authority(*index).map_or(0, |a| a.0),
            PoaEvent::TxAdmit { to, .. }
            | PoaEvent::BlockArrive { to, .. }
            | PoaEvent::BlockRequest { to, .. }
            | PoaEvent::HeadRequest { to, .. }
            | PoaEvent::SnapshotRequest { to, .. }
            | PoaEvent::SnapshotChunk { to, .. }
            | PoaEvent::ChainRequest { to, .. }
            | PoaEvent::ChainChunk { to, .. } => to.0,
        }
    }

    fn handle(
        ctx: &PoaCtx,
        lane: u32,
        node: &mut PoaNode,
        now: SimTime,
        event: PoaEvent,
        fx: &mut Effects<PoaEvent>,
    ) {
        let id = NodeId(lane);
        match event {
            PoaEvent::Step { index } => on_step(ctx, node, id, now, index, fx),
            PoaEvent::TxAdmit { tx, relayed, .. } => on_admit(ctx, node, id, now, tx, relayed, fx),
            PoaEvent::BlockArrive { block, from, .. } => on_block(ctx, node, id, now, block, from, fx),
            PoaEvent::BlockRequest { wanted, from, .. } => {
                on_block_request(ctx, node, id, now, wanted, from, fx)
            }
            PoaEvent::HeadRequest { from, .. } => on_head_request(ctx, node, id, from, fx),
            PoaEvent::SnapshotRequest { from, after, .. } => {
                on_snapshot_request(ctx, node, id, from, after, fx)
            }
            PoaEvent::SnapshotChunk { from, entries, done, .. } => {
                on_snapshot_chunk(ctx, node, id, from, entries, done, fx)
            }
            PoaEvent::ChainRequest { from, height, .. } => {
                on_chain_request(ctx, node, id, from, height, fx)
            }
            PoaEvent::ChainChunk { from, blocks, done, .. } => {
                on_chain_chunk(ctx, node, id, now, from, blocks, done, fx)
            }
        }
    }
}

fn on_step(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    now: SimTime,
    index: u64,
    fx: &mut Effects<PoaEvent>,
) {
    // Schedule the next boundary first, so the round never stops. The step
    // duration (~1s) dwarfs the conservative lookahead, so the cross-lane
    // hop is always legal; its authority lane is resolved when the emit is
    // merged.
    let next = ctx.schedule.step_start(index + 1);
    fx.schedule_at(next, PoaEvent::Step { index: index + 1 });

    if ctx.crashed[me.index()] {
        return; // crashed after this step was routed here
    }
    match ctx.step_authority(index) {
        // A fault injected while this step was in flight moved the slot to
        // a different authority: the slot is simply missed (one skipped
        // block), rather than migrating mid-air to another lane.
        Some(authority) if authority == me => {}
        _ => return,
    }
    let block = build_block(ctx, node, now, me, index);
    fx.count(BLOCKS_PRODUCED, 1);
    let block = Arc::new(block);
    adopt_block(ctx, node, now, me, Arc::clone(&block), None, fx);
    for peer in (0..ctx.config.nodes).map(NodeId) {
        if peer == me {
            continue;
        }
        let b = Arc::clone(&block);
        fx.send(peer.0, block.byte_size(), move |_at| PoaEvent::BlockArrive {
            to: peer,
            block: b,
            from: me,
        });
    }
    if me.index() == 0 {
        refresh_confirmed(ctx, node, now);
    }
}

fn build_block(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    now: SimTime,
    producer: NodeId,
    step: u64,
) -> Block {
    let max_txs = ctx.config.max_txs_per_block();
    let parent = node.tree.head();
    let parent_root = node.roots[&parent];
    let height = node.tree.head_height() + 1;
    node.state.set_root(parent_root);

    let mut included = Vec::new();
    let mut receipts = Vec::new();
    let mut gas_total = 0u64;
    let mut cpu_time = SimDuration::ZERO;
    // Future-nonce transactions buffered per sender, nonce-ordered (see
    // the Ethereum chain's `build_block` for why a plain FIFO pass over
    // the arrival-ordered pool starves blocks down to a handful of
    // transactions). Sender map ordered for a deterministic put-back.
    let mut future: std::collections::BTreeMap<
        Address,
        std::collections::BTreeMap<u64, (TxId, Arc<Transaction>)>,
    > = Default::default();
    'fill: while included.len() < max_txs {
        let Some(tx) = node.pool.pop_front() else {
            break;
        };
        let id = tx.id();
        if !node.pool_ids.contains(&id) {
            continue;
        }
        let mut next = Some((id, tx));
        while let Some((id, tx)) = next.take() {
            match node.state.apply_transaction(&tx, height, &ctx.vm, ctx.config.tx_gas_limit) {
                Ok(res) => {
                    gas_total += res.gas_used.max(1000);
                    cpu_time += ctx.config.produce_sign_cost
                        + ctx.config.costs.exec_time(res.gas_used.max(1000));
                    node.pool_ids.remove(&id);
                    node.pool_admitted.remove(&id);
                    receipts.push((id, res.success));
                    let nonce = tx.nonce;
                    let from = tx.from;
                    included.push(Arc::clone(&tx));
                    if included.len() >= max_txs || gas_total >= ctx.config.block_gas_limit {
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
                    future.entry(tx.from).or_default().insert(got, (id, tx));
                }
                Err(_) => {
                    node.pool_ids.remove(&id);
                    node.pool_admitted.remove(&id);
                }
            }
        }
    }
    // Put still-blocked transactions back — unless their nonce gap has
    // now persisted past the eviction horizon, in which case the sender's
    // predecessor is presumed lost (or never existed: a nonce-gap flood)
    // and the entry ages out instead of pinning the pool forever.
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
    node.cpu.charge(now, cpu_time);

    let header = BlockHeader {
        parent,
        height,
        timestamp_us: now.as_micros(),
        // `receipts` lists the included transactions' ids in block order.
        tx_root: merkle_root(&receipts.iter().map(|(id, _)| id.0).collect::<Vec<_>>()),
        state_root: node.state.root(),
        proposer: producer,
        difficulty: 1,
        round: step,
    };
    let block = Block { header, txs: included };
    let id = block.id();
    // Seal the block's state. A failed commit means the in-memory store is
    // full; the overlay keeps serving reads, so the chain limps on with
    // unpersisted roots — the OOM surfaces through execute_direct and the
    // memory counters, not a crash.
    let _ = node.state.commit_block();
    node.roots.insert(id, node.state.root());
    node.receipts.insert(id, receipts);
    block
}

/// Execute a sealed block's transactions through the optimistic parallel
/// executor (state must already sit at the parent root). Charging is left
/// to the caller: full validation bills the serial execution time,
/// descendant catch-up keeps its flat per-transaction charge.
fn execute_block_txs(ctx: &PoaCtx, node: &mut PoaNode, block: &Block) -> BlockExecOutcome {
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
    node.exec_conflicts += outcome.conflicts;
    node.exec_serial_us += outcome.serial_us;
    node.exec_modeled_us += outcome.modeled_us;
    outcome
}

fn adopt_block(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    now: SimTime,
    me: NodeId,
    block: Arc<Block>,
    request_from: Option<NodeId>,
    fx: &mut Effects<PoaEvent>,
) {
    let id = block.id();
    if node.bodies.contains_key(&id) && node.roots.contains_key(&id) {
        return;
    }
    let parent = block.header.parent;
    if let Some(&parent_root) = node.roots.get(&parent) {
        if !node.roots.contains_key(&id) {
            node.state.set_root(parent_root);
            let outcome = execute_block_txs(ctx, node, &block);
            node.cpu.charge(now, SimDuration::from_micros(outcome.serial_us));
            let _ = node.state.commit_block();
            node.roots.insert(id, node.state.root());
            node.receipts.insert(id, outcome.receipts);
        }
        node.bodies.insert(id, Arc::clone(&block));
        let old_head = node.tree.head();
        if let InsertOutcome::NewHead { reorged: true } =
            node.tree.insert(id, parent, block.header.difficulty)
        {
            readopt_abandoned(node, old_head);
        }
        execute_connected_descendants(ctx, node, now, id);
        // Drop the (possibly new) main branch's transactions from the
        // pool, after any reorg re-adoption above.
        prune_main_chain(node);
    } else {
        node.tree.insert(id, parent, block.header.difficulty);
        node.bodies.insert(id, Arc::clone(&block));
        if let Some(from) = request_from {
            fx.send(from.0, 64, move |_at| PoaEvent::BlockRequest {
                to: from,
                wanted: parent,
                from: me,
            });
        }
    }
}

fn execute_connected_descendants(ctx: &PoaCtx, node: &mut PoaNode, now: SimTime, from_id: Hash256) {
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
            let outcome = execute_block_txs(ctx, node, &child);
            // Catch-up keeps its historical flat per-transaction charge.
            node.cpu.charge(now, SimDuration::from_micros(100 * child.txs.len() as u64));
            let cid = child.id();
            let _ = node.state.commit_block();
            node.roots.insert(cid, node.state.root());
            node.receipts.insert(cid, outcome.receipts);
            frontier.push(cid);
        }
    }
}

/// Remove the transactions of blocks that joined this node's main chain
/// from its pool. Walks head→genesis, stopping at the first block
/// already pruned, so each block is processed once.
fn prune_main_chain(node: &mut PoaNode) {
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

fn readopt_abandoned(node: &mut PoaNode, old_head: Hash256) {
    let mut cursor = old_head;
    while !node.tree.on_main_chain(&cursor) {
        let Some(body) = node.bodies.get(&cursor) else {
            break;
        };
        let parent = body.header.parent;
        // Bodies hold `Arc<Transaction>`: re-adopting bumps refcounts
        // instead of deep-cloning every transaction body.
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

fn on_admit(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    now: SimTime,
    tx: Arc<Transaction>,
    relayed: bool,
    fx: &mut Effects<PoaEvent>,
) {
    if !relayed {
        node.admission_backlog = node.admission_backlog.saturating_sub(1);
        node.cpu.charge(now, ctx.config.costs.sig_verify);
    }
    if ctx.crashed[me.index()] {
        return;
    }
    let id = tx.id();
    if !node.seen.insert(id) {
        return;
    }
    node.pool_ids.insert(id);
    node.pool_admitted.insert(id, node.tree.head_height());
    node.pool.push_back(Arc::clone(&tx));
    if !relayed {
        // Gossip to the other authorities so whoever owns the next step
        // can include it.
        let size = tx.byte_size();
        for peer in (0..ctx.config.nodes).map(NodeId) {
            if peer == me {
                continue;
            }
            let tx = Arc::clone(&tx);
            fx.send(peer.0, size, move |_at| PoaEvent::TxAdmit { to: peer, tx, relayed: true });
        }
    }
}

fn on_block(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    now: SimTime,
    block: Arc<Block>,
    from: NodeId,
    fx: &mut Effects<PoaEvent>,
) {
    if ctx.crashed[me.index()] {
        return;
    }
    if node.restarted_at.is_some() {
        if node.snapshot_syncing {
            // A wholesale transfer is in flight; the chain arrives via
            // `ChainChunk` and anything mined meanwhile is re-fetched by
            // the post-transfer head walk.
            return;
        }
        if node.sync_target.is_none() {
            // First arrival after a restart is the head-request reply: its
            // height is the gap this node must close.
            node.sync_target = Some(block.header.height.max(node.tree.head_height()));
            let gap = block.header.height.saturating_sub(node.tree.head_height());
            if gap > ctx.config.snapshot_sync_blocks {
                // Too far behind to replay block-by-block: pull the peer's
                // state store in bounded chunks, then the chain with
                // trusted roots.
                node.snapshot_syncing = true;
                fx.send(from.0, 64, move |_at| PoaEvent::SnapshotRequest {
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
    adopt_block(ctx, node, now, me, block, Some(from), fx);
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
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    _now: SimTime,
    wanted: Hash256,
    from: NodeId,
    fx: &mut Effects<PoaEvent>,
) {
    if ctx.crashed[me.index()] {
        return;
    }
    if let Some(body) = node.bodies.get(&wanted) {
        let body = Arc::clone(body);
        let bytes = body.byte_size();
        fx.send(from.0, bytes, move |_at| PoaEvent::BlockArrive { to: from, block: body, from: me });
    }
}

/// Serve a recovering peer our current head body; the ancestor fetch then
/// walks the rest of the chain back to genesis.
fn on_head_request(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    from: NodeId,
    fx: &mut Effects<PoaEvent>,
) {
    if ctx.crashed[me.index()] {
        return;
    }
    let head = node.tree.head();
    if let Some(body) = node.bodies.get(&head) {
        let body = Arc::clone(body);
        let bytes = body.byte_size();
        fx.send(from.0, bytes, move |_at| PoaEvent::BlockArrive { to: from, block: body, from: me });
    }
}

/// Serve one bounded chunk of this node's state store to a recovering peer.
/// Parity's store is in-memory and content-addressed (trie nodes are never
/// rewritten), so a plain cursor scan over the live store is consistent:
/// entries added behind the cursor mid-transfer are newer trie nodes the
/// trailing chain chunks' roots never reach.
fn on_snapshot_request(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    from: NodeId,
    after: Option<Vec<u8>>,
    fx: &mut Effects<PoaEvent>,
) {
    if ctx.crashed[me.index()] {
        return;
    }
    let (entries, done) = node
        .state
        .store_mut()
        .scan_range_chunk(after.as_deref(), ctx.config.snapshot_chunk_bytes)
        .expect("in-memory store scans are infallible");
    let bytes = 16 + entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
    let entries = Arc::new(entries);
    fx.send(from.0, bytes, move |_at| PoaEvent::SnapshotChunk {
        to: from,
        from: me,
        entries,
        done,
    });
}

/// Apply a received state chunk and request the next one; once the key
/// space is exhausted, switch to the chain phase.
fn on_snapshot_chunk(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    from: NodeId,
    entries: Arc<Vec<(Vec<u8>, Vec<u8>)>>,
    done: bool,
    fx: &mut Effects<PoaEvent>,
) {
    if ctx.crashed[me.index()] || !node.snapshot_syncing {
        return;
    }
    node.snapshot_chunks += 1;
    node.snapshot_bytes +=
        16 + entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
    let mut batch = bb_storage::WriteBatch::new();
    for (k, v) in entries.iter() {
        batch.put(k, v);
    }
    // A full store is the same OOM surface as execution: the transfer keeps
    // going and the missing nodes resurface through reads, not a panic.
    let _ = node.state.store_mut().apply_batch(batch);
    if !done {
        let after = entries.last().map(|(k, _)| k.clone());
        fx.send(from.0, 64, move |_at| PoaEvent::SnapshotRequest { to: from, from: me, after });
    } else {
        fx.send(from.0, 64, move |_at| PoaEvent::ChainRequest { to: from, from: me, height: 1 });
    }
}

/// Serve a bounded run of main-chain `(block, root)` pairs from `height` up.
fn on_chain_request(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    from: NodeId,
    height: u64,
    fx: &mut Effects<PoaEvent>,
) {
    if ctx.crashed[me.index()] {
        return;
    }
    let head_height = node.tree.head_height();
    let mut blocks = Vec::new();
    let mut bytes = 16u64;
    let mut h = height;
    while h <= head_height {
        let Some(id) = node.tree.main_chain_at(h) else { break };
        let (Some(body), Some(&root)) = (node.bodies.get(&id), node.roots.get(&id)) else { break };
        bytes += body.byte_size() + 32;
        blocks.push((Arc::clone(body), root));
        h += 1;
        if bytes as usize >= ctx.config.snapshot_chunk_bytes {
            break;
        }
    }
    let done = h > head_height;
    let blocks = Arc::new(blocks);
    fx.send(from.0, bytes, move |_at| PoaEvent::ChainChunk { to: from, from: me, blocks, done });
}

/// Adopt a transferred chain run wholesale: the roots are trusted and every
/// trie node they reach already sits in the freshly transferred store, so
/// no transaction is re-executed. Receipts are not reconstructed (the
/// observer never snapshot-syncs in the experiments; queries that need
/// them fall back to the serving peers).
fn on_chain_chunk(
    ctx: &PoaCtx,
    node: &mut PoaNode,
    me: NodeId,
    now: SimTime,
    from: NodeId,
    blocks: Arc<Vec<(Arc<Block>, Hash256)>>,
    done: bool,
    fx: &mut Effects<PoaEvent>,
) {
    if ctx.crashed[me.index()] || !node.snapshot_syncing {
        return;
    }
    node.snapshot_chunks += 1;
    node.snapshot_bytes +=
        16 + blocks.iter().map(|(b, _)| b.byte_size() + 32).sum::<u64>();
    for (block, root) in blocks.iter() {
        let id = block.id();
        node.tree.insert(id, block.header.parent, block.header.difficulty);
        node.bodies.insert(id, Arc::clone(block));
        node.roots.insert(id, *root);
        node.receipts.insert(id, Vec::new());
        for tx in &block.txs {
            node.seen.insert(tx.id());
        }
    }
    if !done {
        let next = node.tree.head_height() + 1;
        fx.send(from.0, 64, move |_at| PoaEvent::ChainRequest { to: from, from: me, height: next });
        return;
    }
    let head = node.tree.head();
    node.state.set_root(node.roots[&head]);
    node.snapshot_syncing = false;
    prune_main_chain(node);
    if let (Some(t0), Some(target)) = (node.restarted_at, node.sync_target) {
        if node.tree.head_height() >= target {
            node.recovery_ms = node.recovery_ms.max((now.since(t0).as_micros() / 1000).max(1));
            node.restarted_at = None;
            node.sync_target = None;
        }
    }
    // Close the gap mined during the transfer through the normal head walk.
    fx.send(from.0, 64, move |_at| PoaEvent::HeadRequest { to: from, from: me });
    if me.index() == 0 {
        refresh_confirmed(ctx, node, now);
    }
}

/// Advance the observer's confirmation log. Only node 0's tree feeds it, so
/// this runs only after events on lane 0 — exactly the events that can
/// change what node 0 considers confirmed.
fn refresh_confirmed(ctx: &PoaCtx, node: &mut PoaNode, now: SimTime) {
    let depth = ctx.config.confirm_depth;
    let upto = node.tree.confirmed_height(depth);
    while node.confirmed_height < upto {
        let h = node.confirmed_height + 1;
        let Some(id) = node.tree.main_chain_at(h) else {
            break;
        };
        let (Some(body), Some(receipts)) = (node.bodies.get(&id), node.receipts.get(&id)) else {
            break;
        };
        node.confirmed.push(BlockSummary {
            id,
            height: h,
            proposer: body.header.proposer,
            confirmed_at_us: now.as_micros(),
            txs: receipts.clone(),
        });
        node.confirmed_height = h;
    }
}

impl ParityChain {
    /// Build an authority network per `config`.
    pub fn new(config: ParityConfig) -> ParityChain {
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
        let vm = Vm::new(
            VmConfig {
                max_memory: ((config.node_mem_bytes.saturating_sub(config.costs.mem_base)) as f64
                    / config.costs.mem_overhead) as usize,
                ..VmConfig::default()
            },
            Default::default(),
        );
        let state_cap = config.node_mem_bytes.saturating_sub(config.costs.mem_base);
        let nodes = (0..config.nodes)
            .map(|_| {
                let mut state = AccountState::new(MemStore::with_capacity_cap(state_cap));
                for seed in 0..1024 {
                    let kp = bb_crypto::KeyPair::from_seed(seed);
                    state
                        .credit(&Address::from_public_key(&kp.public()), i64::MAX / 4)
                        .expect("genesis fits in memory");
                }
                let mut node = PoaNode {
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
                    admission_busy_until: SimTime::ZERO,
                    admission_backlog: 0,
                    restarted_at: None,
                    sync_target: None,
                    recovery_ms: 0,
                    resync_blocks: 0,
                    resync_bytes: 0,
                    snapshot_syncing: false,
                    snapshot_chunks: 0,
                    snapshot_bytes: 0,
                    exec_conflicts: 0,
                    exec_serial_us: 0,
                    exec_modeled_us: 0,
                    confirmed: Vec::new(),
                    confirmed_height: 0,
                };
                node.bodies.insert(genesis, Arc::clone(&genesis_block));
                node.state.commit_block().expect("genesis fits in memory");
                node.roots.insert(genesis, node.state.root());
                node.receipts.insert(genesis, Vec::new());
                node
            })
            .collect();
        let schedule =
            PoaSchedule::new((0..config.nodes).map(NodeId).collect(), config.step_duration);
        let network = Network::new(config.nodes, config.link.clone(), rng.fork());
        let ctx = PoaCtx {
            config: config.clone(),
            vm,
            schedule,
            crashed: vec![false; config.nodes as usize],
        };
        let engine = ShardedEngine::new(ctx, nodes, network.min_latency());
        ParityChain {
            config,
            engine,
            network,
            started: false,
            mem_peak: 0,
            genesis_block,
            deployed: Vec::new(),
        }
    }

    /// Restart a crashed authority with total amnesia: rebuild genesis state
    /// (client funding + deployed contracts) locally, then re-download the
    /// chain from a live peer and re-execute it. Parity keeps no durable
    /// store, so this is the whole recovery story.
    fn restart_node(&mut self, id: NodeId) {
        let now = self.engine.now();
        let peer = (0..self.config.nodes)
            .map(NodeId)
            .find(|p| *p != id && !self.network.is_crashed(*p));
        let genesis_block = Arc::clone(&self.genesis_block);
        let genesis = genesis_block.id();
        let state_cap = self.config.node_mem_bytes.saturating_sub(self.config.costs.mem_base);
        let deployed = self.deployed.clone();
        self.engine.with_node_mut(id.0, |n| {
            let mut state = AccountState::new(MemStore::with_capacity_cap(state_cap));
            for seed in 0..1024 {
                let kp = bb_crypto::KeyPair::from_seed(seed);
                state
                    .credit(&Address::from_public_key(&kp.public()), i64::MAX / 4)
                    .expect("genesis fits in memory");
            }
            for (addr, svm) in &deployed {
                state.install_contract(addr, svm).expect("genesis fits in memory");
            }
            state.commit_block().expect("genesis fits in memory");
            let mut node = PoaNode {
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
                cpu: std::mem::replace(&mut n.cpu, CpuMeter::new(1)),
                admission_busy_until: SimTime::ZERO,
                admission_backlog: 0,
                restarted_at: peer.map(|_| now),
                sync_target: None,
                recovery_ms: n.recovery_ms,
                resync_blocks: n.resync_blocks,
                resync_bytes: n.resync_bytes,
                snapshot_syncing: false,
                snapshot_chunks: n.snapshot_chunks,
                snapshot_bytes: n.snapshot_bytes,
                exec_conflicts: n.exec_conflicts,
                exec_serial_us: n.exec_serial_us,
                exec_modeled_us: n.exec_modeled_us,
                // Observer history survives as driver-side bookkeeping.
                confirmed: std::mem::take(&mut n.confirmed),
                confirmed_height: n.confirmed_height,
            };
            node.bodies.insert(genesis, Arc::clone(&genesis_block));
            node.roots.insert(genesis, node.state.root());
            node.receipts.insert(genesis, Vec::new());
            *n = node;
        });
        self.network.recover(id);
        self.engine.with_ctx_mut(|ctx| ctx.crashed[id.index()] = false);
        if let Some(peer) = peer {
            self.engine.schedule(now, PoaEvent::HeadRequest { to: peer, from: id });
        }
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let now = self.engine.now();
        let (next, index) = self.engine.with_ctx(|ctx| {
            let next = ctx.schedule.next_step_boundary(now + SimDuration::from_micros(1));
            (next, ctx.schedule.step_at(next))
        });
        self.engine.schedule(next, PoaEvent::Step { index });
    }
}

impl BlockchainConnector for ParityChain {
    fn name(&self) -> &'static str {
        "parity"
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
                node.state.commit_block().expect("setup store healthy");
                node.roots.insert(head, node.state.root());
            });
        }
        self.deployed.push((addr, bundle.svm.clone()));
        addr
    }

    fn submit(&mut self, server: NodeId, tx: Transaction) -> bool {
        self.start();
        if self.network.is_crashed(server) {
            // A crashed node's RPC endpoint refuses connections; the client
            // sees the failure and does not burn a nonce on it. Without this
            // the client's nonce counter runs ahead of the dead node's pool
            // and every later transaction it signs is permanently future.
            return false;
        }
        let now = self.engine.now();
        let rpc_delay = self.config.rpc_delay;
        let sig_verify = self.config.costs.sig_verify;
        let queue_cap = self.config.admission_queue_cap;
        let pool_cap = self.config.tx_pool_cap;
        let done = self.engine.with_node_mut(server.0, |node| {
            if node.admission_backlog >= queue_cap {
                // RPC throttled: Parity's ~80 tx/s per-server signing bound.
                return None;
            }
            if node.pool_ids.len() >= pool_cap {
                // Transaction queue full: without this bound, admission (~80
                // tx/s/server) outruns the ~45 tx/s producer and accepted
                // transactions queue for the rest of the run — Parity instead
                // errors at the RPC, which is what keeps its latency low and
                // flat while throughput stays constant (Figure 5).
                return None;
            }
            let start = node.admission_busy_until.max(now + rpc_delay);
            let done = start + sig_verify;
            node.admission_busy_until = done;
            node.admission_backlog += 1;
            Some(done)
        });
        let Some(done) = done else {
            return false;
        };
        self.engine
            .schedule(done, PoaEvent::TxAdmit { to: server, tx: Arc::new(tx), relayed: false });
        true
    }

    fn advance_to(&mut self, t: SimTime) {
        self.start();
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
                let cost = SimDuration::from_micros(15 + 3 * body.txs.len() as u64);
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
                    server_cost: SimDuration::from_micros(40), // in-memory state: faster reads
                })
            }
            Query::Contract { address, payload } => {
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
                node.state.set_root(root);
                if !res.success {
                    return Err(QueryError::Contract(res.error.unwrap_or_else(|| "reverted".into())));
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
                self.engine.with_ctx_mut(|ctx| ctx.crashed[node.index()] = true);
                // Amnesia: the pool and the state trie's caches die with the
                // process; everything else dies at Restart (handlers no-op
                // while crashed, so keeping the chain copies around until
                // then is observationally identical — and lets the gentle
                // legacy Recover resurrect them).
                self.engine.with_node_mut(node.0, |n| {
                    n.pool.clear();
                    n.pool_ids.clear();
                    n.pool_admitted.clear();
                    n.state.drop_volatile();
                });
            }
            Fault::Recover(node) => {
                self.network.recover(node);
                self.engine.with_ctx_mut(|ctx| ctx.crashed[node.index()] = false);
            }
            Fault::Restart(node) => self.restart_node(node),
            // Parity holds no durable files: a power cut tears nothing, rot
            // has nothing to rot, and a slow disk slows nothing (the whole
            // state lives in memory). These faults are no-ops here. An
            // equivocating Aura authority is just a forked slot, which the
            // longest-chain rule already models.
            Fault::TornTail(_) | Fault::BitRot(_, _) | Fault::SlowDisk(_, _)
            | Fault::Equivocate(_) => {}
            Fault::Delay(node, d) => self.network.set_extra_delay(node, d),
            Fault::Corrupt(node, p) => self.network.set_corrupt_prob(node, p),
            Fault::PartitionHalf { left } => self.network.partition_in_half(left),
            Fault::PartitionAsymmetric { left } => self.network.partition_asymmetric(left),
            Fault::GossipJitter(amplitude) => self.network.set_gossip_jitter(amplitude),
            Fault::Heal => self.network.heal(),
        }
    }

    fn stats(&self) -> PlatformStats {
        let n = self.config.nodes as usize;
        let mut cpu: Vec<f64> = Vec::new();
        let mut net: Vec<f64> = Vec::new();
        let mut mem_peak = self.mem_peak.max(self.config.costs.mem_base);
        let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
        let (mut flushed, mut dropped, mut batches) = (0u64, 0u64, 0u64);
        let mut recovery_ms = 0u64;
        let (mut resync_blocks, mut resync_bytes) = (0u64, 0u64);
        let (mut snap_chunks, mut snap_bytes) = (0u64, 0u64);
        let (mut store_written, mut store_logical) = (0u64, 0u64);
        let (mut exec_conflicts, mut exec_serial_us, mut exec_modeled_us) = (0u64, 0u64, 0u64);
        for i in 0..self.config.nodes {
            self.engine.with_node(i, |node| {
                let (h, m) = node.state.trie_cache_stats();
                cache_hits += h;
                cache_misses += m;
                let (f, d) = node.state.trie_flush_stats();
                flushed += f;
                dropped += d;
                batches += node.state.store().stats().batch_writes;
                recovery_ms = recovery_ms.max(node.recovery_ms);
                resync_blocks += node.resync_blocks;
                resync_bytes += node.resync_bytes;
                snap_chunks += node.snapshot_chunks;
                snap_bytes += node.snapshot_bytes;
                store_written += node.state.store().stats().bytes_written;
                store_logical += node.state.store().stats().logical_bytes;
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
                mem_peak =
                    mem_peak.max(self.config.costs.mem_base + node.state.store().stats().mem_bytes);
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
            blocks_total: self.engine.counter(BLOCKS_PRODUCED),
            blocks_main,
            txs_committed,
            disk_bytes: 0, // all state in memory
            mem_peak_bytes: mem_peak,
            cpu_utilisation: cpu,
            net_mbps: net,
            net_bytes: self.network.stats().bytes,
            trie_cache_hits: cache_hits,
            trie_cache_misses: cache_misses,
            state_nodes_flushed: flushed,
            state_nodes_dropped: dropped,
            batch_put_count: batches,
            recovery_ms,
            resync_blocks,
            resync_bytes,
            snapshot_chunks: snap_chunks,
            snapshot_bytes: snap_bytes,
            storage_bytes_written: store_written,
            storage_logical_bytes: store_logical,
            exec_conflicts,
            exec_serial_us,
            exec_modeled_us,
            partition_flaps: self.network.partition_flaps(),
            ..Default::default()
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
                        difficulty: 1,
                        round: 0,
                    };
                    let block = Arc::new(Block { header, txs: txs.clone() });
                    let id = block.id();
                    node.state.commit_block().expect("setup store healthy");
                    node.roots.insert(id, node.state.root());
                    node.receipts.insert(id, receipts.clone());
                    node.bodies.insert(id, Arc::clone(&block));
                    node.tree.insert(id, parent, 1);
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
                    self.engine.bump_counter(BLOCKS_PRODUCED, 1);
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
                    // Persist the sealed state. When the in-memory store is
                    // out of capacity the commit fails and the execution is
                    // reported as an out-of-space failure — this is where
                    // Parity's memory ceiling bites on IOHeavy.
                    let (success, error) = match node.state.commit_block() {
                        Ok(()) => {
                            node.roots.insert(head, node.state.root());
                            (res.success, res.error)
                        }
                        Err(e) => (false, Some(e.to_string())),
                    };
                    (
                        DirectExec {
                            success,
                            duration: ctx.config.costs.sig_verify
                                + ctx.config.costs.exec_time(res.gas_used),
                            gas_used: res.gas_used,
                            modeled_mem: modeled,
                            output: res.output,
                            error,
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

    fn chain(nodes: u32) -> ParityChain {
        ParityChain::new(ParityConfig::with_nodes(nodes))
    }

    fn client_tx(seed: u64, nonce: u64, to: Address, payload: Vec<u8>) -> Transaction {
        Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 0, payload)
    }

    #[test]
    fn blocks_tick_like_clockwork() {
        let mut c = chain(4);
        c.advance_to(SimTime::from_secs(30));
        let stats = c.stats();
        // One block per second; no forks beyond the block still in flight.
        assert!(stats.blocks_main >= 25, "main chain {}", stats.blocks_main);
        assert!(stats.blocks_total - stats.blocks_main <= 1);
    }

    #[test]
    fn transactions_confirm_in_seconds() {
        let mut c = chain(4);
        let contract = c.deploy(&ycsb::bundle());
        for nonce in 0..10 {
            assert!(c.submit(NodeId((nonce % 4) as u32), client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v"))));
        }
        c.advance_to(SimTime::from_secs(15));
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        assert_eq!(committed, 10);
    }

    #[test]
    fn producer_budget_caps_throughput() {
        let mut c = chain(2);
        let contract = c.deploy(&donothing::bundle());
        // Offer far more than 45 tx/s for 10 s from many senders.
        let mut submitted = 0;
        for seed in 0..20u64 {
            for nonce in 0..60 {
                if c.submit(NodeId((seed % 2) as u32), client_tx(seed, nonce, contract, donothing::call())) {
                    submitted += 1;
                }
            }
        }
        assert!(submitted > 300, "admission rejected too aggressively: {submitted}");
        c.advance_to(SimTime::from_secs(10));
        let committed: usize = c.confirmed_blocks_since(0).iter().map(|b| b.txs.len()).sum();
        // ~45 tx per block-second, minus confirmation lag.
        let rate = committed as f64 / 10.0;
        assert!(rate > 25.0 && rate < 60.0, "rate {rate}");
    }

    #[test]
    fn admission_throttles_at_the_rpc() {
        let mut c = chain(1);
        let contract = c.deploy(&donothing::bundle());
        let mut accepted = 0;
        let mut rejected = 0;
        for nonce in 0..1000 {
            if c.submit(NodeId(0), client_tx(1, nonce, contract, donothing::call())) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "throttling never kicked in");
        assert_eq!(accepted, c.config.admission_queue_cap as u32);
    }

    #[test]
    fn crash_leaves_throughput_steady() {
        let mut c = chain(8);
        c.advance_to(SimTime::from_secs(20));
        let before = c.stats().blocks_main;
        for i in 4..8 {
            c.inject(Fault::Crash(NodeId(i)));
        }
        c.advance_to(SimTime::from_secs(40));
        let after = c.stats().blocks_main;
        // Survivors take over the dead authorities' slots: ~1 block/s still
        // (at most one slot is missed while the crash propagates to a step
        // already in flight).
        assert!(after - before >= 16, "throughput dropped: {before} → {after}");
    }

    #[test]
    fn partition_forks_then_heals() {
        let mut c = chain(8);
        c.advance_to(SimTime::from_secs(10));
        c.inject(Fault::PartitionHalf { left: 4 });
        c.advance_to(SimTime::from_secs(40));
        c.inject(Fault::Heal);
        c.advance_to(SimTime::from_secs(80));
        let stats = c.stats();
        assert!(
            stats.blocks_total > stats.blocks_main,
            "no forks under partition: total={} main={}",
            stats.blocks_total,
            stats.blocks_main
        );
        let heads: Vec<u64> =
            (0..8).map(|i| c.engine.with_node(i, |n| n.tree.head_height())).collect();
        let spread = heads.iter().max().unwrap() - heads.iter().min().unwrap();
        assert!(spread <= 2, "heads did not reconverge: {heads:?}");
    }

    #[test]
    fn in_memory_state_cap_produces_oom() {
        let mut config = ParityConfig::with_nodes(1);
        config.node_mem_bytes = config.costs.mem_base + (3 << 20); // tiny state budget
        let mut c = ParityChain::new(config);
        let contract = c.deploy(&bb_contracts::ioheavy::bundle());
        // Write batches until the in-memory trie blows the cap.
        let mut saw_oom = false;
        for i in 0..40u64 {
            let tx = client_tx(1, i, contract, bb_contracts::ioheavy::write_call(i * 500, 500));
            let res = c.execute_direct(tx);
            if !res.success {
                let err = res.error.unwrap_or_default();
                assert!(err.contains("out of space") || err.contains("storage"), "{err}");
                saw_oom = true;
                break;
            }
        }
        assert!(saw_oom, "state cap never hit");
    }

    #[test]
    fn historical_queries_work() {
        let mut c = chain(2);
        let alice = KeyPair::from_seed(1);
        let bob = Address::from_index(7);
        c.preload_blocks(vec![
            vec![Transaction::signed(&alice, 0, bob, 11, vec![])],
            vec![Transaction::signed(&alice, 1, bob, 22, vec![])],
        ]);
        let r = c.query(&Query::AccountAtBlock { account: bob, height: 1 }).unwrap();
        assert_eq!(i64::from_le_bytes(r.data.try_into().unwrap()), 11);
        let r = c.query(&Query::AccountAtBlock { account: bob, height: 2 }).unwrap();
        assert_eq!(i64::from_le_bytes(r.data.try_into().unwrap()), 33);
    }

    #[test]
    fn restart_rebuilds_from_genesis_and_resyncs_whole_chain() {
        let mut c = chain(4);
        let contract = c.deploy(&ycsb::bundle());
        for nonce in 0..12 {
            c.submit(NodeId((nonce % 4) as u32), client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v")));
        }
        c.advance_to(SimTime::from_secs(8));
        c.inject(Fault::Crash(NodeId(3)));
        c.advance_to(SimTime::from_secs(14));
        let cluster_head = c.engine.with_node(0, |n| n.tree.head_height());
        c.inject(Fault::Restart(NodeId(3)));
        // Immediately after restart the node is back at genesis...
        assert_eq!(c.engine.with_node(3, |n| n.tree.head_height()), 0);
        c.advance_to(SimTime::from_secs(25));
        // ...and later it has re-downloaded and re-executed the whole chain.
        let h3 = c.engine.with_node(3, |n| n.tree.head_height());
        let h0 = c.engine.with_node(0, |n| n.tree.head_height());
        assert!(h0.abs_diff(h3) <= 2, "restarted node lags: h0={h0} h3={h3}");
        // The recovered states agree: same root at the common prefix.
        let common = h3.min(cluster_head);
        let id0 = c.engine.with_node(0, |n| n.tree.main_chain_at(common)).unwrap();
        let r0 = c.engine.with_node(0, |n| n.roots[&id0]);
        let r3 = c.engine.with_node(3, |n| n.roots[&id0]);
        assert_eq!(r0, r3, "re-executed state diverged at height {common}");
        let stats = c.stats();
        assert!(stats.recovery_ms > 0, "recovery never completed");
        // A full resync: at least the whole pre-crash chain was re-fetched.
        assert!(stats.resync_blocks as u64 >= cluster_head, "resynced only {} blocks", stats.resync_blocks);
    }

    #[test]
    fn deep_gap_restart_uses_snapshot_sync_instead_of_replay() {
        let mut config = ParityConfig::with_nodes(4);
        config.snapshot_sync_blocks = 4; // force the snapshot path on a modest gap
        let mut c = ParityChain::new(config);
        let contract = c.deploy(&ycsb::bundle());
        for nonce in 0..16 {
            c.submit(NodeId((nonce % 4) as u32), client_tx(1, nonce, contract, ycsb::write_call(nonce, b"v")));
        }
        c.advance_to(SimTime::from_secs(8));
        c.inject(Fault::Crash(NodeId(3)));
        // Let the gap grow well past the snapshot threshold.
        c.advance_to(SimTime::from_secs(30));
        let cluster_head = c.engine.with_node(0, |n| n.tree.head_height());
        c.inject(Fault::Restart(NodeId(3)));
        c.advance_to(SimTime::from_secs(45));
        let stats = c.stats();
        assert!(stats.snapshot_chunks > 0, "snapshot path never engaged");
        assert!(stats.snapshot_bytes > 0);
        assert!(stats.recovery_ms > 0, "recovery never completed");
        // The chain gap was closed by chunk transfer, not block replay: only
        // the handful of blocks mined during the transfer were re-fetched.
        assert!(
            stats.resync_blocks < cluster_head / 2,
            "replayed {} of a {}-block gap",
            stats.resync_blocks,
            cluster_head
        );
        let h3 = c.engine.with_node(3, |n| n.tree.head_height());
        let h0 = c.engine.with_node(0, |n| n.tree.head_height());
        assert!(h0.abs_diff(h3) <= 2, "restarted node lags: h0={h0} h3={h3}");
        // The transferred store really carries the state: the restarted node
        // resolves an account at a common root without ever re-executing.
        let common = h3.min(cluster_head);
        let id = c.engine.with_node(0, |n| n.tree.main_chain_at(common)).unwrap();
        let root = c.engine.with_node(0, |n| n.roots[&id]);
        assert_eq!(c.engine.with_node(3, |n| n.roots[&id]), root);
        let client = Address::from_public_key(&KeyPair::from_seed(1).public());
        let a0 = c.engine.with_node_mut(0, |n| n.state.account_at(root, &client).unwrap());
        let a3 = c.engine.with_node_mut(3, |n| n.state.account_at(root, &client).unwrap());
        assert_eq!(a0.nonce, a3.nonce);
        assert_eq!(a0.balance, a3.balance);
        assert!(a0.nonce > 0, "client transactions never landed");
    }

    /// Same seed, serial vs forced-parallel: byte-identical results.
    #[test]
    fn serial_and_sharded_runs_are_byte_identical() {
        fn run() -> String {
            let mut c = chain(4);
            let contract = c.deploy(&ycsb::bundle());
            for nonce in 0..30 {
                c.submit(
                    NodeId((nonce % 4) as u32),
                    client_tx(2, nonce, contract, ycsb::write_call(nonce, b"z")),
                );
            }
            c.advance_to(SimTime::from_secs(12));
            format!("{:?}\n{:?}", c.confirmed_blocks_since(0), c.stats())
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
