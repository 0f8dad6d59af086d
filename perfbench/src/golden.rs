//! Committed output digests of the full-scale workloads
//! (`golden.txt`, rewritten by `bless.py`). A run whose workload and seed
//! are listed must reproduce the digest exactly; refresh the file only for
//! a change that is meant to alter outputs.

use crate::workloads::{Bench, Sizes};

const GOLDEN: &str = include_str!("../golden.txt");

/// The golden digest of this workload and seed at [`Sizes::FULL`], if one
/// is committed.
pub fn expected(bench: &Bench) -> Option<u64> {
    if bench.sizes != Sizes::FULL {
        return None;
    }
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            let hit = w == bench.workload.name() && s.parse::<u64>().ok()? == bench.seed;
            hit.then(|| u64::from_str_radix(d, 16).ok()).flatten()
        })
}
