//! Output digests: one 64-bit FNV-1a hash over everything a workload's
//! result determines — the output pairs and the deterministic report
//! tallies. Measured times, cache tallies, replay counts and the modeled
//! clock are left out: they legitimately differ between runs, thread
//! counts and restarts, while the digest must not.

use coachlm_core::evaluate::EvalResult;
use coachlm_core::infer::RevisedDataset;
use coachlm_core::pipeline::{ExpertAnnotateStage, PipelineReport};
use coachlm_core::student::StudentModel;
use coachlm_data::Dataset;
use coachlm_lm::transducer::RepairTag;
use coachlm_runtime::ChainOutput;

/// FNV-1a over a stream of length-delimited fields.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_pairs(h: &mut Fnv, d: &Dataset) {
    h.u64(d.pairs.len() as u64);
    for p in &d.pairs {
        h.u64(p.id);
        h.str(&p.instruction);
        h.str(&p.response);
        h.str(&format!("{:?}", p.category));
    }
}

/// One stage's deterministic tallies, as both report shapes carry them.
struct StageTally<'a> {
    stage: &'a str,
    items_in: usize,
    items_out: usize,
    quarantined: usize,
    retries: u64,
    timeouts: u64,
    degraded: usize,
}

/// The digested part of a platform batch, read from either the pipeline's
/// report or a raw chain run (the traced path), so both digest alike.
pub struct BatchTallies<'a> {
    output: &'a Dataset,
    stages: Vec<StageTally<'a>>,
    human_revised: usize,
    post_edited: usize,
}

impl<'a> BatchTallies<'a> {
    /// Tallies of a batch as the pipeline entry points report it.
    pub fn of_report(r: &'a PipelineReport) -> Self {
        BatchTallies {
            output: &r.output,
            stages: r
                .stage_summaries
                .iter()
                .map(|s| StageTally {
                    stage: &s.stage,
                    items_in: s.items_in,
                    items_out: s.items_out,
                    quarantined: s.quarantined,
                    retries: s.retries,
                    timeouts: s.timeouts,
                    degraded: s.degraded,
                })
                .collect(),
            human_revised: r.human_revised,
            post_edited: r.post_edited,
        }
    }

    /// Tallies of a batch run as a raw chain, counted the way the
    /// pipeline's report counts them; `output` is the chain's retained
    /// dataset.
    pub fn of_chain(out: &'a ChainOutput, output: &'a Dataset) -> Self {
        let annotate = out.report(ExpertAnnotateStage::NAME);
        let counter = |key: &str| annotate.map_or(0, |r| r.counter(key) as usize);
        BatchTallies {
            output,
            stages: out
                .reports
                .iter()
                .map(|r| StageTally {
                    stage: &r.stage,
                    items_in: r.items_in,
                    items_out: r.items_out,
                    quarantined: r.quarantined,
                    retries: r.retries,
                    timeouts: r.timeouts,
                    degraded: r.degraded,
                })
                .collect(),
            human_revised: counter("revise:language")
                + counter("revise:qa")
                + counter("revise:creative"),
            post_edited: counter("post-edited"),
        }
    }

    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        hash_pairs(&mut h, self.output);
        for s in &self.stages {
            h.str(s.stage);
            for v in [s.items_in, s.items_out, s.quarantined, s.degraded] {
                h.u64(v as u64);
            }
            h.u64(s.retries);
            h.u64(s.timeouts);
        }
        h.u64(self.human_revised as u64);
        h.u64(self.post_edited as u64);
        h.finish()
    }
}

/// Digest of one Fig 5 point: the revised dataset with its accounting,
/// the tuned student's skill, and both judges' verdicts.
pub fn alpha_digest(rev: &RevisedDataset, student: &StudentModel, evals: &[&EvalResult]) -> u64 {
    let mut h = Fnv::new();
    hash_pairs(&mut h, &rev.dataset);
    for v in [
        rev.replaced_invalid,
        rev.leakage_skipped,
        rev.instructions_changed,
        rev.responses_changed,
        rev.quarantined,
        rev.degraded,
    ] {
        h.u64(v as u64);
    }
    for tag in RepairTag::ALL {
        h.u64(rev.repair_counts.get(&tag).copied().unwrap_or(0) as u64);
    }
    h.u64(student.global_skill().to_bits());
    for e in evals {
        h.str(&e.model);
        for v in [e.counts.win, e.counts.tie, e.counts.lose] {
            h.u64(v as u64);
        }
        for r in [e.rates.wr1, e.rates.wr2, e.rates.qs] {
            h.u64(r.to_bits());
        }
    }
    h.finish()
}

/// Pairs a revision run failed: quarantined, or missing from the output
/// without a quarantine record.
pub fn revision_failed(input: usize, rev: &RevisedDataset) -> usize {
    let lost = input.saturating_sub(rev.dataset.len() + rev.quarantined);
    rev.quarantined + lost
}

/// Pairs a platform batch failed: quarantined, or neither retained,
/// deliberately dropped nor quarantined.
pub fn batch_failed(r: &PipelineReport) -> usize {
    let lost = r
        .raw_pairs
        .saturating_sub(r.output.len() + r.dropped + r.quarantined);
    r.quarantined + lost
}
