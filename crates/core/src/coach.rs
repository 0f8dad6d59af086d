//! Coach instruction tuning (§II-F1).
//!
//! Each expert pair `(x, x_r)` becomes a coach-tuning example `x_c` whose
//! INSTRUCTION is the Fig 3 revision prompt around `x` and whose RESPONSE
//! is `x_r`. Training on `C_α` adapts the backbone's parameters θ → θ_c
//! (Eq. 1); in this reproduction, the adaptation is the rule-learning
//! adapter of `coachlm-lm`, which extracts weighted rewrite rules from the
//! aligned pairs and accumulates copy mass from near-identity ones.

use crate::alpha::select_alpha;
use coachlm_data::generator::{generate, GeneratorConfig};
use coachlm_expert::filter::preliminary_filter;
use coachlm_expert::pool::ExpertPool;
use coachlm_expert::revision::{ExpertReviser, RevisionRecord};
use coachlm_lm::adapter::{Adapter, AdapterConfig};
use coachlm_lm::backbone::{Backbone, BackboneKind};
use coachlm_lm::transducer::{RevisionOutcome, Transducer};
use coachlm_text::fxhash::FxHasher;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::hash::Hasher;

/// The Fig 3 revision prompt wrapped around an input pair.
pub fn revision_prompt(instruction: &str, response: &str) -> String {
    format!(
        "Improve the following instruction, input and response pair to be more \
         specific, detailed with more logical steps and grammarly corrected. \
         Input: [INSTRUCTION: {instruction} RESPONSE: {response}]"
    )
}

/// Training configuration; defaults match the paper's main experiment
/// (ChatGLM2 backbone, α = 0.3, LoRA, 7 epochs at 2e-4 — §III-A3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoachConfig {
    /// Backbone to adapt.
    pub backbone: BackboneKind,
    /// Human input ratio α.
    pub alpha: f64,
    /// Adapter (LoRA analogue) hyper-parameters.
    pub adapter: AdapterConfig,
}

impl Default for CoachConfig {
    fn default() -> Self {
        Self {
            backbone: BackboneKind::ChatGlm2_6b,
            alpha: 0.3,
            adapter: AdapterConfig::default(),
        }
    }
}

/// A deterministic training recipe for a CoachLM: synthetic corpus →
/// preliminary filter → expert revision records → [`CoachLm::train`].
///
/// The recipe is a coach's identity; a [`CoachLm::snapshot`] is its
/// result. Training the same recipe twice yields the same model, so a
/// snapshot tagged with its recipe can stand in for training it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoachTrainSpec {
    /// Seed for the synthetic training corpus and the expert reviser.
    pub seed: u64,
    /// Synthetic training pairs to generate.
    pub pairs: u32,
}

impl CoachTrainSpec {
    /// Runs the recipe: the coach it yields remembers the recipe (see
    /// [`CoachLm::recipe`]).
    pub fn train(self) -> CoachLm {
        let (d, _) = generate(&GeneratorConfig::small(self.pairs as usize, self.seed));
        let kept = preliminary_filter(&d, self.seed).kept;
        let records =
            ExpertReviser::new(self.seed).revise_dataset(&ExpertPool::paper_pool(), &d, &kept);
        let mut coach = CoachLm::train(CoachConfig::default(), &records);
        coach.trained.recipe = Some(self);
        coach
    }
}

/// Leading bytes of a [`CoachLm::snapshot`]: format name and version.
const SNAPSHOT_MAGIC: &[u8; 8] = b"CLMSNAP1";

/// Everything training produces: what a snapshot holds. The frozen
/// backbone is left out; `Backbone::load(config.backbone)` rebuilds it.
#[derive(Debug, Serialize, Deserialize)]
struct Trained {
    config: CoachConfig,
    adapter: Adapter,
    trained_ids: Vec<u64>,
    recipe: Option<CoachTrainSpec>,
}

/// A trained CoachLM: θ_c = frozen backbone + trained adapter.
#[derive(Debug)]
pub struct CoachLm {
    backbone: Backbone,
    trained: Trained,
}

/// Checksum over a snapshot body and its length: Fx mixing is a bijection
/// per word, so any single flipped bit changes it.
fn snapshot_checksum(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(body);
    h.write_usize(body.len());
    h.finish()
}

impl CoachLm {
    /// Trains CoachLM on the α-selected subset of the expert revision
    /// dataset `R` (Eq. 1).
    pub fn train(config: CoachConfig, records: &[RevisionRecord]) -> Self {
        let backbone = Backbone::load(config.backbone);
        let mut adapter = Adapter::new(config.adapter);
        let selected = select_alpha(records, config.alpha);
        let mut trained_ids = Vec::with_capacity(selected.len());
        for rec in &selected {
            adapter.observe(
                &rec.original.instruction,
                &rec.revised.instruction,
                &rec.original.response,
                &rec.revised.response,
            );
            trained_ids.push(rec.id);
        }
        adapter.finalize();
        Self {
            backbone,
            trained: Trained {
                config,
                adapter,
                trained_ids,
                recipe: None,
            },
        }
    }

    /// Serialises the trained state — config, adapter, `C_α` ids and the
    /// recipe it came from — as `magic ‖ checksum ‖ JSON`.
    /// [`CoachLm::from_snapshot`] restores a coach that revises exactly
    /// like this one: every rule-set access is a keyed lookup or sorts
    /// first, so a rule map rebuilt in another order changes nothing.
    pub fn snapshot(&self) -> Vec<u8> {
        // The vendored encoder cannot fail; were it to, the empty body
        // would be refused by `from_snapshot` rather than misread.
        let body = serde_json::to_string(&self.trained).unwrap_or_default();
        let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 8 + body.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&snapshot_checksum(body.as_bytes()).to_le_bytes());
        out.extend_from_slice(body.as_bytes());
        out
    }

    /// Inverse of [`CoachLm::snapshot`]; `None` on a wrong magic, a
    /// checksum mismatch (truncated or flipped bytes) or a body that does
    /// not decode.
    pub fn from_snapshot(bytes: &[u8]) -> Option<CoachLm> {
        let rest = bytes.strip_prefix(SNAPSHOT_MAGIC)?;
        let (sum, body) = rest.split_first_chunk::<8>()?;
        if u64::from_le_bytes(*sum) != snapshot_checksum(body) {
            return None;
        }
        let trained: Trained = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
        Some(CoachLm {
            backbone: Backbone::load(trained.config.backbone),
            trained,
        })
    }

    /// The recipe this coach was trained from, if it came from
    /// [`CoachTrainSpec::train`] (directly or through a snapshot).
    pub fn recipe(&self) -> Option<CoachTrainSpec> {
        self.trained.recipe
    }

    /// Ids of the pairs in the training subset `C_α` (the §III-B1 leakage
    /// rule keeps these pairs' originals at inference).
    pub fn trained_ids(&self) -> &[u64] {
        &self.trained.trained_ids
    }

    /// The training configuration.
    pub fn config(&self) -> &CoachConfig {
        &self.trained.config
    }

    /// Number of training examples after α selection.
    pub fn trained_on(&self) -> usize {
        self.trained.trained_ids.len()
    }

    /// The underlying backbone.
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// The trained adapter.
    pub fn adapter(&self) -> &Adapter {
        &self.trained.adapter
    }

    /// Probability an applicable repair fires at decode time.
    pub fn apply_probability(&self) -> f64 {
        Transducer::new(&self.backbone, &self.trained.adapter).apply_probability()
    }

    /// Revises one instruction pair (beam size 1, §III-A3).
    pub fn revise_pair<R: Rng>(
        &self,
        rng: &mut R,
        instruction: &str,
        response: &str,
    ) -> RevisionOutcome {
        Transducer::new(&self.backbone, &self.trained.adapter).revise_pair(
            rng,
            instruction,
            response,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn expert_records(n: usize, seed: u64) -> Vec<RevisionRecord> {
        let (d, _) = generate(&GeneratorConfig::small(n, seed));
        let kept = preliminary_filter(&d, seed).kept;
        ExpertReviser::new(seed).revise_dataset(&ExpertPool::paper_pool(), &d, &kept)
    }

    #[test]
    fn prompt_embeds_the_pair() {
        let p = revision_prompt("Do X", "Done Y");
        assert!(p.contains("Improve the following instruction"));
        assert!(p.contains("Do X"));
        assert!(p.contains("Done Y"));
    }

    #[test]
    fn training_respects_alpha() {
        let records = expert_records(600, 5);
        let full = CoachLm::train(
            CoachConfig {
                alpha: 1.0,
                ..Default::default()
            },
            &records,
        );
        let third = CoachLm::train(
            CoachConfig {
                alpha: 0.3,
                ..Default::default()
            },
            &records,
        );
        let none = CoachLm::train(
            CoachConfig {
                alpha: 0.0,
                ..Default::default()
            },
            &records,
        );
        assert_eq!(full.trained_on(), records.len());
        assert_eq!(
            third.trained_on(),
            (records.len() as f64 * 0.3).round() as usize
        );
        assert_eq!(none.trained_on(), 0);
    }

    #[test]
    fn alpha_zero_is_the_raw_backbone() {
        let records = expert_records(300, 6);
        let coach = CoachLm::train(
            CoachConfig {
                alpha: 0.0,
                ..Default::default()
            },
            &records,
        );
        let prior = coach.backbone().profile().alignment_prior;
        assert!((coach.apply_probability() - prior).abs() < 1e-9);
    }

    #[test]
    fn alpha_03_fires_more_reliably_than_alpha_0() {
        let records = expert_records(600, 7);
        let p0 = CoachLm::train(
            CoachConfig {
                alpha: 0.0,
                ..Default::default()
            },
            &records,
        )
        .apply_probability();
        let p3 = CoachLm::train(
            CoachConfig {
                alpha: 0.3,
                ..Default::default()
            },
            &records,
        )
        .apply_probability();
        assert!(p3 > p0 + 0.3, "p0 {p0} p3 {p3}");
    }

    #[test]
    fn full_alpha_carries_copy_noise() {
        let records = expert_records(2500, 8);
        let third = CoachLm::train(
            CoachConfig {
                alpha: 0.3,
                ..Default::default()
            },
            &records,
        );
        let full = CoachLm::train(
            CoachConfig {
                alpha: 1.0,
                ..Default::default()
            },
            &records,
        );
        // α = 1 includes the near-identity tail → more copy mass → lower
        // apply probability than the α = 0.3 sweet spot (Fig 5a).
        assert!(
            full.adapter().copy_ratio() > third.adapter().copy_ratio(),
            "copy ratios: full {} third {}",
            full.adapter().copy_ratio(),
            third.adapter().copy_ratio()
        );
        assert!(full.apply_probability() <= third.apply_probability());
    }

    #[test]
    fn trained_coach_revises_defective_pairs() {
        let records = expert_records(600, 9);
        let coach = CoachLm::train(CoachConfig::default(), &records);
        let mut rng = StdRng::seed_from_u64(1);
        let out = coach.revise_pair(
            &mut rng,
            "Explain teh water cycle",
            "Water evaporates becuase of heat.",
        );
        assert!(
            out.instruction.contains("the water cycle"),
            "{}",
            out.instruction
        );
        assert!(!out.repairs.is_empty());
    }

    #[test]
    fn snapshot_round_trip_revises_identically() {
        use crate::infer::revise_dataset;
        use coachlm_runtime::ExecutorConfig;
        let recipe = CoachTrainSpec {
            seed: 11,
            pairs: 400,
        };
        let coach = recipe.train();
        let restored = CoachLm::from_snapshot(&coach.snapshot()).expect("round trip");
        assert_eq!(restored.recipe(), Some(recipe));
        assert_eq!(restored.config(), coach.config());
        assert_eq!(restored.trained_ids(), coach.trained_ids());
        assert_eq!(restored.snapshot(), coach.snapshot());

        let (d, _) = generate(&GeneratorConfig::small(300, 12));
        let config = ExecutorConfig::new(5).threads(2);
        let digest = |c: &CoachLm| {
            serde_json::to_string(&revise_dataset(c, &d, &config)).expect("revised dataset json")
        };
        assert_eq!(digest(&restored), digest(&coach));
    }

    #[test]
    fn damaged_snapshots_are_refused() {
        let coach = CoachLm::train(CoachConfig::default(), &expert_records(300, 13));
        assert_eq!(coach.recipe(), None);
        let good = coach.snapshot();
        assert!(CoachLm::from_snapshot(&good).is_some());
        assert!(CoachLm::from_snapshot(&[]).is_none());
        for cut in [
            1,
            SNAPSHOT_MAGIC.len(),
            SNAPSHOT_MAGIC.len() + 8,
            good.len() - 1,
        ] {
            assert!(
                CoachLm::from_snapshot(&good[..cut]).is_none(),
                "cut at {cut}"
            );
        }
        let mut longer = good.clone();
        longer.push(b' ');
        assert!(CoachLm::from_snapshot(&longer).is_none());
        // Flip one bit at positions spread over magic, checksum and body.
        let step = (good.len() / 97).max(1);
        for (i, at) in (0..good.len()).step_by(step).enumerate() {
            let mut bad = good.clone();
            bad[at] ^= 1 << (i % 8);
            assert!(CoachLm::from_snapshot(&bad).is_none(), "flip at {at}");
        }
    }

    #[test]
    fn resealed_damaged_bodies_never_panic() {
        // Damage behind a recomputed checksum reaches the JSON decoder.
        use proptest::prelude::*;
        let good = CoachLm::train(CoachConfig::default(), &expert_records(200, 14)).snapshot();
        let body = &good[SNAPSHOT_MAGIC.len() + 8..];
        let flips = prop::collection::vec(0..body.len(), 1..4);
        let bytes = prop::collection::vec(0u8..=255, 3..4);
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("resealed_damaged_bodies", case);
            let mut damaged = body.to_vec();
            for (at, b) in flips
                .generate(&mut rng)
                .into_iter()
                .zip(bytes.generate(&mut rng))
            {
                damaged[at] = b;
            }
            let mut sealed = SNAPSHOT_MAGIC.to_vec();
            sealed.extend_from_slice(&snapshot_checksum(&damaged).to_le_bytes());
            sealed.extend_from_slice(&damaged);
            let _ = CoachLm::from_snapshot(&sealed);
        }
    }

    #[test]
    fn stronger_backbone_higher_apply_probability_untrained() {
        let records: Vec<RevisionRecord> = Vec::new();
        let weak = CoachLm::train(
            CoachConfig {
                backbone: BackboneKind::Llama7b,
                alpha: 1.0,
                ..Default::default()
            },
            &records,
        );
        let strong = CoachLm::train(
            CoachConfig {
                backbone: BackboneKind::ChatGlm2_6b,
                alpha: 1.0,
                ..Default::default()
            },
            &records,
        );
        assert!(strong.apply_probability() > weak.apply_probability());
    }
}
