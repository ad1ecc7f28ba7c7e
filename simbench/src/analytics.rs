//! `analytics-eth`: Figure 13's Q1/Q2 scans over a preloaded transfer
//! history on a one-server Ethereum chain (Sections 3.4.2 and 4.2.2).
//!
//! The benchmark generates the history itself from `--seed` and keeps it
//! as its own record, so every query answer is checked against the
//! transfers it preloaded.

use crate::trace::{Span, TracedChain};
use bb_crypto::KeyPair;
use bb_ethereum::{EthConfig, EthereumChain};
use bb_sim::SimRng;
use bb_types::{Address, Decoder, Transaction};
use blockbench::connector::{BlockchainConnector, Query};
use std::time::Instant;

/// Accounts taking part in transfers (all genesis-funded on Ethereum).
pub const ACCOUNTS: u64 = 1024;
/// Preloaded history length (the quick scale's `analytics_blocks`).
pub const BLOCKS: u64 = 2_000;
/// Transfers per block (the paper's average).
pub const TXS_PER_BLOCK: u64 = 3;
/// Blocks scanned per query (the quick scale's `analytics_spans`).
pub const SPANS: [u64; 4] = [1, 10, 100, 1_000];
/// Accounts Q2 is asked about in each pass.
pub const Q2_ACCOUNTS: usize = 4;

/// One preloaded transfer: account indexes and value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub from: usize,
    pub to: usize,
    pub value: u64,
}

/// The benchmark's record of what it preloaded, plus the accounts Q2 asks
/// about.
#[derive(Debug, Clone)]
pub struct History {
    pub blocks: Vec<Vec<Transfer>>,
    pub q2_accounts: Vec<usize>,
    addresses: Vec<Address>,
}

impl History {
    pub fn generate(seed: u64, blocks: u64) -> History {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xA7A1_7105);
        let blocks = (0..blocks)
            .map(|_| {
                (0..TXS_PER_BLOCK)
                    .map(|_| Transfer {
                        from: rng.below(ACCOUNTS) as usize,
                        to: rng.below(ACCOUNTS) as usize,
                        value: 1 + rng.below(1000),
                    })
                    .collect()
            })
            .collect();
        let q2_accounts = (0..Q2_ACCOUNTS).map(|_| rng.below(ACCOUNTS) as usize).collect();
        let addresses = (0..ACCOUNTS)
            .map(|i| Address::from_public_key(&KeyPair::from_seed(i).public()))
            .collect();
        History { blocks, q2_accounts, addresses }
    }

    /// The history as signed transactions, per-sender nonces from 0.
    pub fn signed_blocks(&self) -> Vec<Vec<Transaction>> {
        let keys: Vec<KeyPair> = (0..ACCOUNTS).map(KeyPair::from_seed).collect();
        let mut nonces = vec![0u64; ACCOUNTS as usize];
        self.blocks
            .iter()
            .map(|block| {
                block
                    .iter()
                    .map(|t| {
                        let tx = Transaction::signed(
                            &keys[t.from],
                            nonces[t.from],
                            self.addresses[t.to],
                            t.value,
                            Vec::new(),
                        );
                        nonces[t.from] += 1;
                        tx
                    })
                    .collect()
            })
            .collect()
    }

    /// Net balance change of `account` in preloaded block `index`.
    fn delta(&self, index: usize, account: usize) -> i64 {
        self.blocks[index]
            .iter()
            .map(|t| {
                let incoming = if t.to == account { t.value as i64 } else { 0 };
                let outgoing = if t.from == account { t.value as i64 } else { 0 };
                incoming - outgoing
            })
            .sum()
    }
}

/// The chain the analytics workload runs on: one Ethereum server in its
/// default configuration.
pub fn build_chain() -> EthereumChain {
    EthereumChain::new(EthConfig::with_nodes(1))
}

/// A chain with the history preloaded.
pub struct Prepared {
    pub chain: EthereumChain,
    /// Height of the first preloaded block.
    pub first_block: u64,
    pub build_s: f64,
    pub workload_s: f64,
}

pub fn prepare(history: &History) -> Prepared {
    let start = Instant::now();
    let mut chain = build_chain();
    let build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let first_block = chain.stats().blocks_main + 1;
    chain.preload_blocks(history.signed_blocks());
    let workload_s = start.elapsed().as_secs_f64();
    Prepared { chain, first_block, build_s, workload_s }
}

/// One pass of every Q1 and Q2 scan.
pub struct Pass {
    pub wall_s: f64,
    /// Query RPCs answered.
    pub rpcs: u64,
    /// Query RPCs refused with an error.
    pub failed_rpcs: u64,
    /// Q1 totals, then Q2 largest changes (account-major).
    pub answers: Vec<i64>,
    /// Answers that disagree with the record.
    pub failures: Vec<String>,
    /// `Some` in traced passes: host time inside `query`.
    pub query: Option<Span>,
}

/// Which scans a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scans {
    /// Every Q1 scan, then every Q2 scan: the measured workload.
    Both,
    /// Q2 alone (the self-test's check of the Q2 comparison).
    Q2,
}

/// Run the scans once, checking each answer against the record.
pub fn pass(prepared: &mut Prepared, history: &History, scans: Scans, traced: bool) -> Pass {
    let first = prepared.first_block;
    let mut scans =
        Scanner { scans, first, history, rpcs: 0, failed_rpcs: 0, failures: Vec::new() };
    let mut answers = Vec::new();
    let start = Instant::now();
    let query = if traced {
        let mut chain = TracedChain::new(&mut prepared.chain);
        scans.all(&mut chain, &mut answers);
        Some(chain.spans.query)
    } else {
        scans.all(&mut prepared.chain, &mut answers);
        None
    };
    let wall_s = start.elapsed().as_secs_f64();
    let Scanner { rpcs, failed_rpcs, failures, .. } = scans;
    Pass { wall_s, rpcs, failed_rpcs, answers, failures, query }
}

struct Scanner<'h> {
    scans: Scans,
    first: u64,
    history: &'h History,
    rpcs: u64,
    failed_rpcs: u64,
    failures: Vec<String>,
}

impl Scanner<'_> {
    fn all(&mut self, chain: &mut dyn BlockchainConnector, answers: &mut Vec<i64>) {
        if self.scans == Scans::Both {
            for span in SPANS {
                answers.push(self.q1(chain, span));
            }
        }
        for &account in &self.history.q2_accounts {
            for span in SPANS {
                answers.push(self.q2(chain, account, span));
            }
        }
    }

    fn fail(&mut self, msg: String) {
        // Keep the report short; the count is what matters past a few.
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Q1: total value transferred in `span` blocks, one block-content RPC
    /// per block; every block's transfers must match the record.
    fn q1(&mut self, chain: &mut dyn BlockchainConnector, span: u64) -> i64 {
        let mut total = 0i64;
        for index in 0..span as usize {
            let height = self.first + index as u64;
            self.rpcs += 1;
            let reply = match chain.query(&Query::BlockTxs { height }) {
                Ok(r) => r,
                Err(e) => {
                    self.failed_rpcs += 1;
                    self.fail(format!("Q1 block {height}: {e}"));
                    continue;
                }
            };
            let got = decode_block_txs(&reply.data);
            let want: Vec<(Address, Address, u64)> = self.history.blocks[index]
                .iter()
                .map(|t| (self.history.addresses[t.from], self.history.addresses[t.to], t.value))
                .collect();
            if got.as_ref() != Some(&want) {
                self.fail(format!("Q1 block {height}: transfers differ from the preloaded record"));
            }
            total += want.iter().map(|&(_, _, v)| v as i64).sum::<i64>();
        }
        total
    }

    /// Q2: largest per-block balance change of `account` over `span` blocks,
    /// one historical-balance RPC per block; every change must match the
    /// record.
    fn q2(&mut self, chain: &mut dyn BlockchainConnector, account: usize, span: u64) -> i64 {
        let address = self.history.addresses[account];
        let mut largest = 0i64;
        let mut prev: Option<i64> = None;
        for index in 0..span as usize {
            let height = self.first + index as u64;
            self.rpcs += 1;
            let balance = match chain.query(&Query::AccountAtBlock { account: address, height }) {
                Ok(r) => match <[u8; 8]>::try_from(r.data.as_slice()) {
                    Ok(bytes) => i64::from_le_bytes(bytes),
                    Err(_) => {
                        self.fail(format!("Q2 block {height}: malformed balance"));
                        continue;
                    }
                },
                Err(e) => {
                    self.failed_rpcs += 1;
                    self.fail(format!("Q2 block {height}: {e}"));
                    prev = None;
                    continue;
                }
            };
            if let Some(p) = prev {
                let change = balance - p;
                let want = self.history.delta(index, account);
                if change != want {
                    self.fail(format!(
                        "Q2 account {account} block {height}: balance changed by {change}, record says {want}"
                    ));
                }
                largest = largest.max(change.abs());
            }
            prev = Some(balance);
        }
        largest
    }
}

fn decode_block_txs(data: &[u8]) -> Option<Vec<(Address, Address, u64)>> {
    let mut d = Decoder::new(data);
    let n = d.u32().ok()?;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let from = Address(d.raw(20).ok()?.try_into().ok()?);
        let to = Address(d.raw(20).ok()?.try_into().ok()?);
        out.push((from, to, d.u64().ok()?));
    }
    Some(out)
}
