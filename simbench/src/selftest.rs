//! `--self-test`: every output check fires on a seeded violation, and the
//! cell scatter leaves the simulation unchanged.

use crate::analytics;
use crate::cells::{self, CellSpec, Load};
use crate::checks;
use crate::layers::Layers;
use crate::probes;
use bb_bench::Platform;
use bb_crypto::{Hash256, KeyRegistry};
use std::process::ExitCode;

struct Report {
    ok: bool,
}

impl Report {
    fn expect_ok<T>(&mut self, what: &str, r: Result<T, String>) {
        match r {
            Ok(_) => println!("ok    {what}"),
            Err(e) => {
                self.ok = false;
                println!("FAIL  {what}: unexpected violation: {e}");
            }
        }
    }

    fn expect_err<T>(&mut self, what: &str, r: Result<T, String>) {
        match r {
            Err(e) => println!("ok    {what}: fires ({e})"),
            Ok(_) => {
                self.ok = false;
                println!("FAIL  {what}: seeded violation went unnoticed");
            }
        }
    }
}

pub fn run(seed: u64) -> ExitCode {
    let mut r = Report { ok: true };
    let ycsb = |platform| CellSpec { platform, load: Load::Ycsb, seed };

    // A real ycsb-eth cell, kept alive so its chains can be tampered with.
    let cell = cells::run_cell(ycsb(Platform::Ethereum).prepare(), false);
    let chains = cell.committed_chains();
    let tolerance = bb_bench::exp_chaos::Scenario::tip_tolerance(Platform::Ethereum);
    r.expect_ok("check_chains on ycsb-eth", checks::safety(&chains, tolerance));
    let mut forged = chains.clone();
    forged[1][0].id = Hash256::digest(b"forged block");
    r.expect_err("check_chains, forged block id on node 1", checks::safety(&forged, tolerance));
    let mut diverged = chains.clone();
    diverged[2][0].state_root = Hash256::digest(b"forged root");
    r.expect_err(
        "check_chains, diverged state root on node 2",
        checks::safety(&diverged, tolerance),
    );
    let empty = vec![Vec::new(); chains.len()];
    r.expect_err("check_chains, no committed height", checks::safety(&empty, tolerance));

    r.expect_ok("accounting on ycsb-eth", checks::accounting(&cell.stats, cell.offered));
    let mut inflated = cell.stats.clone();
    inflated.committed = cell.offered + 1;
    r.expect_err(
        "accounting, committed + aborted > offered",
        checks::accounting(&inflated, cell.offered),
    );
    r.expect_err(
        "accounting, a generated tx went missing",
        checks::accounting(&cell.stats, cell.offered + 1),
    );

    // The scatter runs the same ethereum cell next to parity and fabric.
    let digest = checks::digest(&cell.stats);
    let scatter = cells::rep(
        &[ycsb(Platform::Ethereum), ycsb(Platform::Parity), ycsb(Platform::Hyperledger)],
        false,
    );
    for c in &scatter.cells {
        r.expect_ok(
            &format!("fig5-peak {} cell checks", c.spec.platform.name()),
            match c.failures.first() {
                Some(f) => Err(f.clone()),
                None => Ok(()),
            },
        );
    }
    r.expect_ok(
        "fig5-peak ethereum cell digest equals ycsb-eth digest",
        checks::same_digest(&digest, &checks::digest(&scatter.cells[0].stats)),
    );
    let mut nudged = cell.stats.clone();
    nudged.platform.net_bytes += 1;
    r.expect_err(
        "digest, one simulated byte differs",
        checks::same_digest(&digest, &checks::digest(&nudged)),
    );
    drop(cell);

    // Analytics answers against the benchmark's own record.
    let history = analytics::History::generate(seed, analytics::BLOCKS);
    let mut prepared = analytics::prepare(&history);
    let mut check = |h: &analytics::History, scans| {
        let pass = analytics::pass(&mut prepared, h, scans, false);
        match pass.failures.first() {
            Some(f) => Err(f.clone()),
            None => Ok(()),
        }
    };
    r.expect_ok(
        "analytics Q1/Q2 answers match the record",
        check(&history, analytics::Scans::Both),
    );
    let mut value_off = history.clone();
    value_off.blocks[0][0].value += 1;
    r.expect_err(
        "analytics Q1, record value off by one",
        check(&value_off, analytics::Scans::Both),
    );
    // Redirect a transfer to the first Q2 account: only its balance history
    // disagrees with the record, and only Q2 runs.
    let mut redirected = history.clone();
    let account = redirected.q2_accounts[0];
    let t = &mut redirected.blocks[1][0];
    if t.to == account {
        t.to = (account + 1) % analytics::ACCOUNTS as usize;
    } else {
        t.to = account;
    }
    r.expect_err(
        "analytics Q2, record redirects a transfer",
        check(&redirected, analytics::Scans::Q2),
    );

    // The traced run's own checks.
    let txs: Vec<_> = history.signed_blocks().into_iter().flatten().take(8).collect();
    let registry = KeyRegistry::with_seed_range(analytics::ACCOUNTS);
    r.expect_ok("probe signatures verify", probes::verify_ns(&txs, &registry));
    r.expect_err("probe signatures, unknown signer", probes::verify_ns(&txs, &KeyRegistry::new()));
    let log: Vec<_> = txs.iter().map(|t| (t.clone(), true)).collect();
    r.expect_ok(
        "replay reproduces success flags",
        probes::execute_direct(&mut analytics::build_chain(), &log),
    );
    let mut flipped = log.clone();
    flipped[3].1 = false;
    r.expect_err(
        "replay, recorded flag disagrees",
        probes::execute_direct(&mut analytics::build_chain(), &flipped),
    );
    let overlapping = Layers { driver_self_s: -0.5, ..Layers::default() };
    r.expect_ok("span accounting", crate::span_accounting(&Layers::default(), 10.0));
    r.expect_err(
        "span accounting, children exceed the wall",
        crate::span_accounting(&overlapping, 10.0),
    );

    if r.ok {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED");
        ExitCode::FAILURE
    }
}
