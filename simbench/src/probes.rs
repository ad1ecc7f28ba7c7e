//! Layer probes: host time of one public function of a layer crate, on
//! inputs recorded from the traced run.

use bb_consensus::pbft::Action;
use bb_consensus::{BlockTree, PbftConfig, PbftMsg, PbftNode};
use bb_crypto::{Hash256, KeyRegistry};
use bb_net::{LinkParams, Network};
use bb_sim::{SimRng, SimTime};
use bb_types::{NodeId, Transaction};
use blockbench::connector::BlockchainConnector;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Minimum host time one timing loop runs for.
const MIN_LOOP_S: f64 = 0.02;
/// Transactions the signature probe verifies per pass.
const VERIFY_SAMPLE: usize = 4096;
/// Committed transactions replayed per cell.
pub const REPLAY_CAP: usize = 5_000;
/// Repetitions of the PBFT probe (median reported).
const PBFT_REPEATS: usize = 11;

/// Call `f` over and over for at least [`MIN_LOOP_S`]; mean host seconds
/// per call of `f`, where one call does `per_call` operations.
fn timed_loop(per_call: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed().as_secs_f64() < MIN_LOOP_S {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / (calls * per_call.max(1)) as f64
}

/// `bb-crypto.verify_ns`: `Transaction::verify` on recorded transactions.
/// Every signature must verify.
pub fn verify_ns(txs: &[Transaction], registry: &KeyRegistry) -> Result<f64, String> {
    let sample = &txs[..txs.len().min(VERIFY_SAMPLE)];
    if sample.is_empty() {
        return Err("no recorded transactions to verify".into());
    }
    if let Some(bad) = sample.iter().position(|tx| !tx.verify(registry)) {
        return Err(format!("recorded transaction {bad} fails signature verification"));
    }
    Ok(1e9
        * timed_loop(sample.len(), || {
            for tx in sample {
                black_box(black_box(tx).verify(registry));
            }
        }))
}

/// `platform.execute_direct_us`: replay committed transactions, in commit
/// order, through `execute_direct` on a twin chain that ran the same setup.
/// The twin must reproduce every success flag. Returns (µs total, count).
pub fn execute_direct(
    twin: &mut dyn BlockchainConnector,
    log: &[(Transaction, bool)],
) -> Result<(f64, usize), String> {
    let log = &log[..log.len().min(REPLAY_CAP)];
    let start = Instant::now();
    for (i, (tx, committed)) in log.iter().enumerate() {
        let out = twin.execute_direct(tx.clone());
        if out.success != *committed {
            return Err(format!(
                "replayed transaction {i} on the {} twin: success {} but the run recorded {} ({})",
                twin.name(),
                out.success,
                committed,
                out.error.unwrap_or_default()
            ));
        }
    }
    Ok((start.elapsed().as_secs_f64() * 1e6, log.len()))
}

/// `bb-consensus.pbft_batch_us`: `n` in-memory PBFT replicas order one
/// batch of `requests` (zero-latency delivery, as the protocol's own unit
/// tests drive it). Median over repetitions.
pub fn pbft_batch_us(n: u32, requests: &[Vec<u8>]) -> Result<f64, String> {
    if requests.is_empty() {
        return Err("no requests for the PBFT probe".into());
    }
    let config = PbftConfig { n, batch_size: requests.len(), ..PbftConfig::default() };
    let now = SimTime::from_secs(1);
    let mut times = Vec::with_capacity(PBFT_REPEATS);
    for _ in 0..PBFT_REPEATS {
        let mut nodes: Vec<PbftNode> =
            (0..n).map(|i| PbftNode::new(NodeId(i), config.clone())).collect();
        let mut committed = vec![0usize; n as usize];
        let start = Instant::now();
        for req in requests {
            let actions = nodes[0].on_request(req.clone(), now);
            deliver(&mut nodes, &mut committed, NodeId(0), actions, now);
        }
        times.push(start.elapsed().as_secs_f64() * 1e6);
        if committed.iter().any(|&c| c != requests.len()) {
            return Err(format!(
                "PBFT probe: replicas committed {committed:?} of {}",
                requests.len()
            ));
        }
    }
    Ok(crate::report::median(&times))
}

fn deliver(
    nodes: &mut [PbftNode],
    committed: &mut [usize],
    from: NodeId,
    actions: Vec<Action>,
    now: SimTime,
) {
    let n = nodes.len() as u32;
    let mut queue: VecDeque<(NodeId, NodeId, PbftMsg)> = VecDeque::new();
    let mut absorb = |src: NodeId, acts: Vec<Action>, queue: &mut VecDeque<_>| {
        for a in acts {
            match a {
                Action::Send(to, msg) => queue.push_back((src, to, msg)),
                Action::Broadcast(msg) => {
                    for to in (0..n).map(NodeId).filter(|&t| t != src) {
                        queue.push_back((src, to, msg.clone()));
                    }
                }
                Action::CommitBatch { batch, .. } => committed[src.index()] += batch.len(),
                Action::InstallCheckpoint { .. } => {}
            }
        }
    };
    absorb(from, actions, &mut queue);
    while let Some((src, to, msg)) = queue.pop_front() {
        let acts = nodes[to.index()].on_message(src, msg, now);
        absorb(to, acts, &mut queue);
    }
}

/// `bb-net.send_ns`: `Network::send` between `n` nodes, `bytes` per message.
pub fn send_ns(n: u32, bytes: u64) -> f64 {
    let mut net = Network::new(n, LinkParams::default(), SimRng::seed_from_u64(n as u64));
    let mut i = 0u64;
    let batch = 1024;
    1e9 * timed_loop(batch, || {
        for _ in 0..batch {
            let from = NodeId((i % n as u64) as u32);
            let to = NodeId(((i + 1) % n as u64) as u32);
            black_box(net.send(SimTime(i * 10), from, to, black_box(bytes)));
            i += 1;
        }
    })
}

/// `bb-consensus.main_chain_at_us`: `BlockTree::main_chain_at` on a linear
/// chain of `height` blocks, at heights spread over the whole chain.
pub fn main_chain_at_us(height: u64) -> Result<f64, String> {
    let height = height.max(1);
    let mut tree = BlockTree::new(Hash256::digest(b"simbench-genesis"));
    let mut parent = tree.genesis();
    for h in 1..=height {
        let id = Hash256::digest(&h.to_le_bytes());
        tree.insert(id, parent, 1000);
        parent = id;
    }
    if tree.head_height() != height {
        return Err(format!("BlockTree head at {} after {height} inserts", tree.head_height()));
    }
    let points: Vec<u64> = (0..64).map(|k| k * height / 64).collect();
    Ok(1e6
        * timed_loop(points.len(), || {
            for &h in &points {
                black_box(tree.main_chain_at(black_box(h)));
            }
        }))
}
