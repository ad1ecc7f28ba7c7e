//! Output checks. Each returns `Err` with a reason on a violation; the
//! self-test (`--self-test`) feeds every one a seeded violation to show it
//! is not vacuous.

use bb_crypto::Hash256;
use blockbench::{check_chains, ChainEntry, RunStats};

/// Cross-node safety over every node's committed chain. Returns the number
/// of heights verified, which must be non-zero.
pub fn safety(chains: &[Vec<ChainEntry>], tip_tolerance: u64) -> Result<u64, String> {
    match check_chains(chains, tip_tolerance) {
        Ok(0) => Err("check_chains verified no height (vacuous check)".into()),
        Ok(heights) => Ok(heights),
        Err(v) => Err(format!("safety violation: {v}")),
    }
}

/// Driver accounting against the number of transactions the workload
/// generated (`offered`, counted outside the driver): every generated
/// transaction was submitted or refused, and no more committed or aborted
/// than were offered.
pub fn accounting(stats: &RunStats, offered: u64) -> Result<(), String> {
    if stats.submitted + stats.rejected != offered {
        return Err(format!(
            "submitted {} + rejected {} != offered {offered}",
            stats.submitted, stats.rejected
        ));
    }
    if stats.committed + stats.aborted > offered {
        return Err(format!(
            "committed {} + aborted {} > offered {offered}",
            stats.committed, stats.aborted
        ));
    }
    Ok(())
}

/// Digest of everything a cell simulated: the `Debug` rendering of its
/// `RunStats` (every counter, histogram bucket, timeline point and platform
/// counter), the same rendering the repository's determinism tests compare.
pub fn digest(stats: &RunStats) -> String {
    Hash256::digest(format!("{stats:?}").as_bytes()).to_hex()[..16].to_string()
}

/// Repetitions of one seed must simulate the same thing.
pub fn same_digest(first: &str, again: &str) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!("same seed simulated differently: digest {first} then {again}"))
    }
}
