//! The four batch workloads: their seeded inputs, their set-up, the
//! timed call into each workload's pipeline entry point, and the traced
//! twin of each that splits the run by layer.

use crate::digest::{alpha_digest, batch_failed, revision_failed, BatchTallies};
use crate::layers::{StageLog, StageStats, Timed};
use coachlm_core::baselines::CleanStage;
use coachlm_core::coach::{CoachConfig, CoachLm};
use coachlm_core::evaluate::{evaluate, EvalResult};
use coachlm_core::infer::{revise_dataset, CoachReviseStage, RevisedDataset};
use coachlm_core::pipeline::{
    batch_job_factory, run_batch, run_batch_sharded_journaled, run_batch_supervised, trained_coach,
    BatchJobSpec, CoachTrainSpec, ExpertAnnotateStage, PipelineReport, BATCH_CHAIN,
};
use coachlm_core::student::{tune_student, SkillParams, StudentModel};
use coachlm_data::generator::generate;
use coachlm_data::ZipfianConfig;
use coachlm_data::{zipfian_duplicates, Dataset, GeneratorConfig, TestSet, TestSetKind};
use coachlm_expert::filter::preliminary_filter;
use coachlm_expert::pool::ExpertPool;
use coachlm_expert::revision::ExpertReviser;
use coachlm_judge::{Gpt4Judge, PandaLm};
use coachlm_runtime::simtime::Stopwatch;
use coachlm_runtime::{
    shard, CachePolicy, CacheStats, ChainOutput, ChaosPlan, Executor, ExecutorConfig, Journal,
    KillMode, Stage, StreamSource, SuperviseOptions, WorkerKill,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Shards (worker processes) of the `isolated` workload.
const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AlphaPoint,
    Platform,
    Dedup,
    Isolated,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AlphaPoint,
        Workload::Platform,
        Workload::Dedup,
        Workload::Isolated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AlphaPoint => "alpha-point",
            Workload::Platform => "platform",
            Workload::Dedup => "dedup",
            Workload::Isolated => "isolated",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `FULL` is what the benchmark measures; `TINY` is the
/// smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub alpha_pairs: usize,
    pub platform_pairs: usize,
    pub dedup_distinct: usize,
    pub dedup_pairs: usize,
    pub isolated_pairs: usize,
    /// Training pairs of the coach (the paper's 6k expert sample).
    pub coach_pairs: u32,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        alpha_pairs: 4_000,
        platform_pairs: 4_000,
        dedup_distinct: 2_000,
        dedup_pairs: 200_000,
        isolated_pairs: 4_000,
        coach_pairs: 6_000,
    };

    pub const TINY: Sizes = Sizes {
        alpha_pairs: 400,
        platform_pairs: 400,
        dedup_distinct: 40,
        dedup_pairs: 2_000,
        isolated_pairs: 400,
        coach_pairs: 300,
    };
}

/// A workload's generated inputs and trained coach.
pub struct Inputs {
    pub data: Dataset,
    /// The judged test set (`alpha-point` only).
    pub tests: Option<TestSet>,
    pub coach: CoachLm,
}

/// One call into a workload's entry point.
pub struct Exec {
    pub wall: Duration,
    pub digest: u64,
    /// Input pairs handed to the entry point.
    pub pairs: usize,
    /// Pairs quarantined or lost.
    pub failed: usize,
    /// The executor's modeled elapsed time (batch workloads only).
    pub sim_s: Option<f64>,
    /// Supervision tallies (`isolated` only).
    pub supervised: Option<Supervised>,
}

/// What a supervised call reports beyond its digest.
pub struct Supervised {
    pub restarts: u32,
    pub frames: u64,
    pub replayed: usize,
}

/// Per-layer metric values of one traced run, keyed by metric name.
pub type Layers = BTreeMap<String, f64>;

/// The outcome of a traced run.
pub struct Traced {
    pub layers: Layers,
    /// The untraced reference call made inside the traced run.
    pub reference: Exec,
    /// Input pairs over every call the traced run made.
    pub attempted: usize,
    /// Failed pairs over every call.
    pub failed: usize,
    /// Cross-checks that did not hold.
    pub mismatches: Vec<String>,
}

/// A workload bound to its seed and sizes.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
}

impl Bench {
    fn exec_seed(&self) -> u64 {
        self.seed ^ 0xE7EC
    }

    fn config(&self, threads: usize) -> ExecutorConfig {
        let c = ExecutorConfig::new(self.exec_seed()).threads(threads);
        if self.workload == Workload::Dedup {
            c.revision_cache(CachePolicy::exact())
        } else {
            c
        }
    }

    /// Executor threads of the workload's measured run.
    fn threads(&self) -> usize {
        if self.workload == Workload::Platform {
            2
        } else {
            1
        }
    }

    fn spec(&self) -> BatchJobSpec {
        BatchJobSpec {
            seed: self.exec_seed(),
            threads: 1,
            coach: Some(CoachTrainSpec {
                seed: self.seed,
                pairs: self.sizes.coach_pairs,
            }),
        }
    }

    /// The deterministic kill: shard 0's first worker aborts between
    /// frames after a fixed share of its partition.
    fn supervise_options(&self) -> SuperviseOptions {
        SuperviseOptions {
            chaos: ChaosPlan {
                worker_kills: vec![WorkerKill {
                    shard: 0,
                    attempt: 0,
                    after_frames: (self.sizes.isolated_pairs / 8) as u64,
                    mode: KillMode::Boundary,
                }],
                parent_kills: Vec::new(),
            },
            ..SuperviseOptions::default()
        }
    }

    /// The workload's input data (and test set), from the benchmark seed.
    fn generate_inputs(&self) -> (Dataset, Option<TestSet>) {
        let s = self.seed;
        let batch = |size: usize, salt: u64, name: &str| {
            generate(&GeneratorConfig {
                size,
                seed: s ^ salt,
                name: name.to_string(),
                ..GeneratorConfig::default()
            })
            .0
        };
        match self.workload {
            Workload::AlphaPoint => (
                batch(self.sizes.alpha_pairs, 0xA1FA, "ALPACA52K-synth"),
                Some(TestSet::build(TestSetKind::CoachLm150, s ^ 0xB5)),
            ),
            Workload::Platform => (
                batch(self.sizes.platform_pairs, 0xDE9107, "production-batch"),
                None,
            ),
            Workload::Dedup => (
                zipfian_duplicates(&ZipfianConfig {
                    name: "zipf-dedup".to_string(),
                    distinct: self.sizes.dedup_distinct,
                    total: self.sizes.dedup_pairs,
                    exponent: 1.1,
                    near_fraction: 0.0,
                    compact: false,
                    seed: s ^ 0xD0D0,
                }),
                None,
            ),
            Workload::Isolated => (
                batch(self.sizes.isolated_pairs, 0x150, "isolated-batch"),
                None,
            ),
        }
    }

    /// Set-up: generate the inputs, then train the coach.
    pub fn set_up(&self) -> Inputs {
        let (data, tests) = self.generate_inputs();
        Inputs {
            data,
            tests,
            coach: trained_coach(self.seed, self.sizes.coach_pairs),
        }
    }

    /// Set-up split by layer: the steps of [`trained_coach`], called one
    /// at a time. The traced run's digest checks prove the coach is the
    /// same.
    fn set_up_traced(&self, layers: &mut Layers) -> Inputs {
        let watch = Stopwatch::start();
        let (data, tests) = self.generate_inputs();
        let (corpus, _) = generate(&GeneratorConfig::small(
            self.sizes.coach_pairs as usize,
            self.seed,
        ));
        put(layers, "data.generate_s", secs(&watch));
        let watch = Stopwatch::start();
        let kept = preliminary_filter(&corpus, self.seed).kept;
        let records =
            ExpertReviser::new(self.seed).revise_dataset(&ExpertPool::paper_pool(), &corpus, &kept);
        put(layers, "expert.sample_revise_s", secs(&watch));
        let watch = Stopwatch::start();
        let coach = CoachLm::train(CoachConfig::default(), &records);
        put(layers, "coach.train_s", secs(&watch));
        Inputs { data, tests, coach }
    }

    /// One timed call into the workload's entry point. `dir` is a fresh
    /// directory for journals.
    pub fn execute(&self, inp: &Inputs, dir: &Path) -> Result<Exec, String> {
        let pairs = inp.data.len();
        let watch = Stopwatch::start();
        match self.workload {
            Workload::AlphaPoint => {
                let rev = revise_dataset(&inp.coach, &inp.data, &self.config(1));
                let (student, p, g) = self.tune_and_judge(inp, &rev, &mut Layers::new())?;
                let wall = watch.elapsed();
                Ok(Exec {
                    wall,
                    digest: alpha_digest(&rev, &student, &[&p, &g]),
                    pairs,
                    failed: revision_failed(pairs, &rev),
                    sim_s: None,
                    supervised: None,
                })
            }
            Workload::Platform | Workload::Dedup => {
                let r = run_batch(Some(&inp.coach), &inp.data, &self.config(self.threads()))
                    .map_err(|e| format!("run_batch: {e}"))?;
                Ok(batch_exec(watch.elapsed(), &r, None))
            }
            Workload::Isolated => {
                let r = run_batch_supervised(
                    &self.spec(),
                    &inp.data,
                    SHARDS,
                    dir,
                    &self.supervise_options(),
                )
                .map_err(|e| format!("run_batch_supervised: {e}"))?;
                let wall = watch.elapsed();
                let supervised = Supervised {
                    restarts: r.supervision.iter().map(|s| s.restarts).sum(),
                    frames: r
                        .supervision
                        .iter()
                        .flat_map(|s| s.frames_by_attempt.iter())
                        .sum(),
                    replayed: r.report.replayed,
                };
                Ok(batch_exec(wall, &r.report, Some(supervised)))
            }
        }
    }

    /// Student tuning and both judges; their times go into `layers`.
    fn tune_and_judge(
        &self,
        inp: &Inputs,
        rev: &RevisedDataset,
        layers: &mut Layers,
    ) -> Result<(StudentModel, EvalResult, EvalResult), String> {
        let tests = inp.tests.as_ref().ok_or("alpha-point has a test set")?;
        let watch = Stopwatch::start();
        let student = tune_student(
            "Alpaca-CoachLM",
            &rev.dataset,
            SkillParams::default(),
            self.seed,
        );
        put(layers, "student.tune_s", secs(&watch));
        let watch = Stopwatch::start();
        let p = evaluate(&student, tests, &PandaLm::new(self.seed ^ 0x5A));
        put(layers, "judge.pandalm_s", secs(&watch));
        let watch = Stopwatch::start();
        let g = evaluate(&student, tests, &Gpt4Judge::new(self.seed ^ 0x5B));
        put(layers, "judge.gpt4_s", secs(&watch));
        Ok((student, p, g))
    }

    /// The traced run: set-up split by layer, one untraced reference call,
    /// then the wrapped chain and the workload's cross-check runs.
    pub fn trace(&self, tmp: &mut TempDirs) -> Result<Traced, String> {
        let mut layers = Layers::new();
        let inp = self.set_up_traced(&mut layers);
        let dir = tmp.fresh("reference")?;
        let reference = self.execute(&inp, &dir)?;
        let mut t = Traced {
            attempted: reference.pairs,
            failed: reference.failed,
            reference,
            layers: Layers::new(),
            mismatches: Vec::new(),
        };
        let (traced, untraced) = match self.workload {
            Workload::AlphaPoint => (
                self.trace_alpha(&inp, &mut t, &mut layers)?,
                self.again(&inp, tmp, &mut t)?,
            ),
            Workload::Platform => (
                self.trace_platform(&inp, &mut t, &mut layers)?,
                self.again(&inp, tmp, &mut t)?,
            ),
            Workload::Dedup => (
                self.trace_dedup(&inp, &mut t, &mut layers)?,
                self.again(&inp, tmp, &mut t)?,
            ),
            Workload::Isolated => self.trace_isolated(&inp, &dir, tmp, &mut t, &mut layers)?,
        };
        put(&mut layers, "trace.overhead_share", traced / untraced - 1.0);
        t.layers = layers;
        Ok(t)
    }

    /// A second untraced call, checked like the first. The first ran cold,
    /// so the tracing overhead is measured against this one.
    fn again(&self, inp: &Inputs, tmp: &mut TempDirs, t: &mut Traced) -> Result<f64, String> {
        let dir = tmp.fresh("untraced")?;
        let again = self.execute(inp, &dir)?;
        t.check(
            "second untraced call",
            again.digest,
            again.pairs,
            again.failed,
        );
        Ok(again.wall.as_secs_f64())
    }

    /// Each `trace_*` runs the wrapped chain and the workload's
    /// cross-checks, and returns the traced call's wall time (`isolated`
    /// also returns that of its untraced twin).
    fn trace_alpha(
        &self,
        inp: &Inputs,
        t: &mut Traced,
        layers: &mut Layers,
    ) -> Result<f64, String> {
        let log = StageLog::default();
        let stages = vec![Timed::wrap(CoachReviseStage::new(&inp.coach), &log)];
        let watch = Stopwatch::start();
        let out = Executor::new(self.config(1)).run_stream(&stages, batch_source(&inp.data));
        let rev = RevisedDataset::from_chain(&out, &inp.data.name);
        let revise_s = secs(&watch);
        let (student, p, g) = self.tune_and_judge(inp, &rev, layers)?;
        let wall = secs(&watch);
        t.check(
            "wrapped revise chain",
            alpha_digest(&rev, &student, &[&p, &g]),
            inp.data.len(),
            revision_failed(inp.data.len(), &rev),
        );
        let revise = StageStats::of(&log.samples());
        put_stage(layers, "coach-revise", &revise);
        put(layers, "infer.revise_s", revise_s);
        put(layers, "executor.overhead_s", revise_s - revise.busy_s);
        put(
            layers,
            "executor.sim_elapsed_s",
            out.sim_elapsed.as_secs_f64(),
        );
        Ok(wall)
    }

    fn trace_platform(
        &self,
        inp: &Inputs,
        t: &mut Traced,
        layers: &mut Layers,
    ) -> Result<f64, String> {
        let two = TracedBatch::on_executor(inp, &self.config(2))?;
        let one = TracedBatch::on_executor(inp, &self.config(1))?;
        two.check(t, "wrapped chain at threads=2", t.reference.sim_s);
        one.check(t, "wrapped chain at threads=1", None);
        let (busy2, busy1) = (two.busy_s(), one.busy_s());
        two.put(layers);
        put(layers, "executor.lane_busy_share", busy2 / (two.wall * 2.0));
        put(layers, "executor.scaling_2v1", one.wall / two.wall);
        put(layers, "executor.body_inflation_2v1", busy2 / busy1);
        put(layers, "executor.overhead_s", one.wall - busy1);
        Ok(two.wall)
    }

    fn trace_dedup(
        &self,
        inp: &Inputs,
        t: &mut Traced,
        layers: &mut Layers,
    ) -> Result<f64, String> {
        let run = TracedBatch::on_executor(inp, &self.config(1))?;
        run.check(t, "wrapped cached chain", t.reference.sim_s);
        let outside = run.wall - run.busy_s();
        let cache: CacheStats = run.out.revision_cache;
        run.put(layers);
        put(layers, "executor.overhead_s", outside);
        put(layers, "cache.lookups", cache.lookups() as f64);
        put(layers, "cache.hits", cache.hits() as f64);
        put(layers, "cache.hit_rate", cache.hit_rate());
        if cache.hits() > 0 {
            put(
                layers,
                "cache.us_per_hit",
                outside * 1e6 / cache.hits() as f64,
            );
        }
        Ok(run.wall)
    }

    fn trace_isolated(
        &self,
        inp: &Inputs,
        supervised_dir: &Path,
        tmp: &mut TempDirs,
        t: &mut Traced,
        layers: &mut Layers,
    ) -> Result<(f64, f64), String> {
        // The supervised reference call has run; read its journals back
        // before anything else touches them.
        let mut bytes = 0u64;
        let mut records = 0usize;
        let watch = Stopwatch::start();
        for path in wal_files(supervised_dir)? {
            bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            records += Journal::open(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .committed();
        }
        put(layers, "journal.open_s", secs(&watch));
        put(layers, "journal.bytes", bytes as f64);
        put(layers, "journal.records", records as f64);
        if let Some(s) = &t.reference.supervised {
            put(layers, "supervise.restarts", f64::from(s.restarts));
            put(layers, "supervise.frames", s.frames as f64);
            put(layers, "journal.replayed", s.replayed as f64);
        }
        put(
            layers,
            "executor.sim_elapsed_s",
            t.reference.sim_s.unwrap_or(0.0),
        );

        let watch = Stopwatch::start();
        let worker = batch_job_factory(BATCH_CHAIN, &self.spec().encode());
        put(layers, "supervise.worker_boot_s", secs(&watch));
        if worker.is_none() {
            t.mismatches
                .push("batch_job_factory refused the spec".to_string());
        }
        drop(worker);

        let (in_process_s, in_process_sim) = self.in_process(inp, tmp, t)?;
        put(
            layers,
            "supervise.isolation_overhead_s",
            t.reference.wall.as_secs_f64() - in_process_s,
        );

        let dir = tmp.fresh("wrapped")?;
        let config = self.config(1);
        let run = TracedBatch::run(inp, &config, |stages, source| {
            shard::run_sharded_journaled(&config, stages, source, SHARDS, &dir)
                .map(|sharded| sharded.output)
                .map_err(|e| format!("run_sharded_journaled: {e}"))
        })?;
        run.check(t, "wrapped in-process sharded chain", Some(in_process_sim));
        run.put_stages(layers);
        Ok((run.wall, self.in_process(inp, tmp, t)?.0))
    }

    /// The in-process twin of the `isolated` call: the same shards and
    /// journals on threads. Checks its digest and returns its wall time
    /// and modeled time.
    fn in_process(
        &self,
        inp: &Inputs,
        tmp: &mut TempDirs,
        t: &mut Traced,
    ) -> Result<(f64, f64), String> {
        let dir = tmp.fresh("in-process")?;
        let watch = Stopwatch::start();
        let r =
            run_batch_sharded_journaled(Some(&inp.coach), &inp.data, &self.config(1), SHARDS, &dir)
                .map_err(|e| format!("run_batch_sharded_journaled: {e}"))?;
        let wall = secs(&watch);
        t.check(
            "in-process sharded journaled run",
            BatchTallies::of_report(&r.report).digest(),
            inp.data.len(),
            batch_failed(&r.report),
        );
        Ok((wall, r.report.sim_elapsed_secs))
    }
}

impl Traced {
    fn check(&mut self, what: &str, digest: u64, pairs: usize, failed: usize) {
        self.attempted += pairs;
        self.failed += failed;
        if digest != self.reference.digest {
            self.mismatches.push(format!(
                "{what}: digest {digest:016x} != untraced {:016x}",
                self.reference.digest
            ));
        }
    }
}

/// The platform chain (Clean → CoachRevise → ExpertAnnotate), each stage
/// wrapped in a timer; the same stages and seeds as `run_batch` builds.
fn wrapped_chain<'a>(
    coach: &'a CoachLm,
    config: &ExecutorConfig,
    logs: &'a [StageLog; 3],
) -> Vec<Box<dyn Stage + 'a>> {
    vec![
        Timed::wrap(CleanStage, &logs[0]),
        Timed::wrap(CoachReviseStage::new(coach), &logs[1]),
        Timed::wrap(
            ExpertAnnotateStage::new(config.seed() ^ 0xA11CE, true),
            &logs[2],
        ),
    ]
}

/// Stage names of [`wrapped_chain`], in chain order.
const CHAIN: [&str; 3] = ["clean", "coach-revise", "expert-annotate"];

/// One run of the wrapped platform chain.
struct TracedBatch {
    out: ChainOutput,
    /// The retained dataset, built inside the timed section as the
    /// pipeline's report builds it.
    output: Dataset,
    pairs: usize,
    wall: f64,
    stats: [StageStats; 3],
}

impl TracedBatch {
    /// Runs the wrapped chain through `chain` (the executor, or the
    /// sharded driver).
    fn run<F>(inp: &Inputs, config: &ExecutorConfig, chain: F) -> Result<TracedBatch, String>
    where
        F: for<'s> FnOnce(&'s [Box<dyn Stage + 's>], StreamSource) -> Result<ChainOutput, String>,
    {
        let logs: [StageLog; 3] = Default::default();
        let stages = wrapped_chain(&inp.coach, config, &logs);
        let watch = Stopwatch::start();
        let out = chain(&stages, batch_source(&inp.data))?;
        let output = out.dataset(inp.data.name.clone());
        let wall = secs(&watch);
        drop(stages);
        Ok(TracedBatch {
            out,
            output,
            pairs: inp.data.len(),
            wall,
            stats: logs.map(|l| StageStats::of(&l.samples())),
        })
    }

    fn on_executor(inp: &Inputs, config: &ExecutorConfig) -> Result<TracedBatch, String> {
        let executor = Executor::new(config.clone());
        TracedBatch::run(inp, config, |stages, source| {
            Ok(executor.run_stream(stages, source))
        })
    }

    /// Checks the digest and, where the untraced twin ran the same
    /// topology, its modeled time: equal only if the wrapper hands the
    /// executor each stage's own `service_time`.
    fn check(&self, t: &mut Traced, what: &str, untraced_sim_s: Option<f64>) {
        let lost = self.pairs.saturating_sub(self.out.items.len());
        let digest = BatchTallies::of_chain(&self.out, &self.output).digest();
        t.check(
            what,
            digest,
            self.pairs,
            self.out.total_quarantined() + lost,
        );
        let sim_s = self.out.sim_elapsed.as_secs_f64();
        if untraced_sim_s.is_some_and(|u| u != sim_s) {
            t.mismatches.push(format!(
                "{what}: modeled time {sim_s} != untraced {untraced_sim_s:?}"
            ));
        }
    }

    fn busy_s(&self) -> f64 {
        self.stats.iter().map(|s| s.busy_s).sum()
    }

    fn put_stages(&self, layers: &mut Layers) {
        for (name, s) in CHAIN.iter().zip(&self.stats) {
            put_stage(layers, name, s);
        }
    }

    fn put(&self, layers: &mut Layers) {
        self.put_stages(layers);
        put(
            layers,
            "executor.sim_elapsed_s",
            self.out.sim_elapsed.as_secs_f64(),
        );
    }
}

fn put_stage(layers: &mut Layers, stage: &str, s: &StageStats) {
    put(layers, &format!("stage.{stage}.busy_s"), s.busy_s);
    put(layers, &format!("stage.{stage}.calls"), s.calls as f64);
    put(layers, &format!("stage.{stage}.p50_us"), s.p50_us);
    put(layers, &format!("stage.{stage}.p99_us"), s.p99_us);
    if stage == "coach-revise" {
        put(layers, "stage.coach-revise.drift", s.drift);
    }
}

fn put(layers: &mut Layers, name: &str, value: f64) {
    layers.insert(name.to_string(), value);
}

fn batch_source(data: &Dataset) -> StreamSource {
    StreamSource::batch(data.pairs.clone())
}

fn batch_exec(wall: Duration, r: &PipelineReport, supervised: Option<Supervised>) -> Exec {
    Exec {
        wall,
        digest: BatchTallies::of_report(r).digest(),
        pairs: r.raw_pairs,
        failed: batch_failed(r),
        sim_s: Some(r.sim_elapsed_secs),
        supervised,
    }
}

fn secs(watch: &Stopwatch) -> f64 {
    watch.elapsed().as_secs_f64()
}

/// The journal files directly under `dir`, sorted.
fn wal_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    files.sort();
    Ok(files)
}

/// Fresh per-run directories for journals and shard state, all under one
/// per-process root that is removed when the run ends.
pub struct TempDirs {
    root: PathBuf,
    next: usize,
}

impl TempDirs {
    pub fn new(base: &Path) -> Result<TempDirs, String> {
        let root = base.join(format!("perfbench-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(TempDirs { root, next: 0 })
    }

    /// A new, empty directory. Each call gets its own, so no call ever
    /// finds another call's journal and resumes instead of executing.
    pub fn fresh(&mut self, label: &str) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.root.join(format!("{}-{label}", self.next));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Removes every directory handed out so far.
    pub fn clear(&self) {
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for e in entries.flatten() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

impl Drop for TempDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
