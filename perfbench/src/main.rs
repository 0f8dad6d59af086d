//! The CoachLM reproduction's benchmark: one batch workload per call,
//! measured end to end (`--trace 0`) or split by layer (`--trace 1`).
//!
//! ```text
//! coachlm-perfbench --workload alpha-point|platform|dedup|isolated
//!     --seed N --seconds S --trace 0|1 [--scale full|tiny] [--tmp DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `run.py` builds this
//! binary and runs it. Every call's output digest is checked: against the
//! committed golden digest where there is one, and against the run's first
//! call otherwise.

mod digest;
mod golden;
mod layers;
mod rss;
mod workloads;

use coachlm_core::pipeline::batch_job_factory;
use coachlm_runtime::simtime::Stopwatch;
use coachlm_runtime::worker_boot;
use layers::{median, median_s};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Bench, Exec, Sizes, TempDirs, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest timed calls per untraced run, however long they take.
const MIN_CALLS: usize = 3;

/// The per-layer metrics of a traced run, with their units, in output
/// order. A layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("expert.sample_revise_s", "s"),
    ("coach.train_s", "s"),
    ("stage.clean.busy_s", "s"),
    ("stage.clean.calls", "count"),
    ("stage.clean.p50_us", "us"),
    ("stage.clean.p99_us", "us"),
    ("stage.coach-revise.busy_s", "s"),
    ("stage.coach-revise.calls", "count"),
    ("stage.coach-revise.p50_us", "us"),
    ("stage.coach-revise.p99_us", "us"),
    ("stage.coach-revise.drift", "ratio"),
    ("stage.expert-annotate.busy_s", "s"),
    ("stage.expert-annotate.calls", "count"),
    ("stage.expert-annotate.p50_us", "us"),
    ("stage.expert-annotate.p99_us", "us"),
    ("executor.overhead_s", "s"),
    ("executor.lane_busy_share", "ratio"),
    ("executor.scaling_2v1", "ratio"),
    ("executor.body_inflation_2v1", "ratio"),
    ("executor.sim_elapsed_s", "s_modeled"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.us_per_hit", "us"),
    ("infer.revise_s", "s"),
    ("student.tune_s", "s"),
    ("judge.pandalm_s", "s"),
    ("judge.gpt4_s", "s"),
    ("supervise.restarts", "count"),
    ("supervise.frames", "count"),
    ("supervise.worker_boot_s", "s"),
    ("supervise.isolation_overhead_s", "s"),
    ("journal.bytes", "bytes"),
    ("journal.records", "count"),
    ("journal.open_s", "s"),
    ("journal.replayed", "count"),
    ("trace.overhead_share", "ratio"),
];

struct Args {
    bench: Bench,
    seconds: f64,
    trace: bool,
    tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut sizes = Sizes::FULL;
    let mut tmp = PathBuf::from(".bench_build/perfbench-tmp");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--scale" => {
                sizes = match value.as_str() {
                    "full" => Sizes::FULL,
                    "tiny" => Sizes::TINY,
                    _ => return Err(format!("--scale must be full or tiny, got {value:?}")),
                }
            }
            "--tmp" => tmp = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        bench: Bench {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            sizes,
        },
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tmp,
    })
}

/// What one run prints: the verdict, the pair counts and the metrics.
struct Outcome {
    mismatches: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks one call's digest against the golden one (or the run's first
/// call) and, for `isolated`, that the scheduled kill fired. Returns the
/// call's failed pairs: all of them when a check fails.
fn verify(
    bench: &Bench,
    expected: &mut Option<u64>,
    exec: &Exec,
    mismatches: &mut Vec<String>,
) -> usize {
    let want = *expected.get_or_insert(exec.digest);
    eprintln!(
        "perfbench: {} seed {} digest {:016x} wall {:.4}s",
        bench.workload.name(),
        bench.seed,
        exec.digest,
        exec.wall.as_secs_f64()
    );
    let mut ok = true;
    if exec.digest != want {
        mismatches.push(format!("digest {:016x} != {want:016x}", exec.digest));
        ok = false;
    }
    if let Some(s) = &exec.supervised {
        if s.restarts != 1 {
            mismatches.push(format!("supervise.restarts = {}, want 1", s.restarts));
            ok = false;
        }
    }
    if ok {
        exec.failed
    } else {
        exec.pairs
    }
}

/// Untraced run: set up several times, then call the entry point until
/// `seconds` have passed (and at least [`MIN_CALLS`] times).
fn measure(bench: &Bench, seconds: f64, tmp: &mut TempDirs) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let watch = Stopwatch::start();
        inputs = Some(bench.set_up());
        setups.push(watch.elapsed());
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let mut expected = golden::expected(bench);
    let mut out = Outcome {
        mismatches: Vec::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut walls: Vec<Duration> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let clock = Stopwatch::start();
    while walls.len() < MIN_CALLS || clock.elapsed().as_secs_f64() < seconds {
        let dir = tmp.fresh("call")?;
        rss::reset_peak();
        let exec = bench.execute(&inputs, &dir)?;
        peaks.extend(rss::own_peak_mb());
        tmp.clear();
        out.failed += verify(bench, &mut expected, &exec, &mut out.mismatches);
        out.attempted += exec.pairs;
        walls.push(exec.wall);
    }
    let wall_s = median_s(&walls);
    out.metrics = vec![
        ("wall_s".to_string(), wall_s, "s"),
        (
            "pairs_per_s".to_string(),
            inputs.data.len() as f64 / wall_s,
            "1/s",
        ),
        ("setup_s".to_string(), median_s(&setups), "s"),
        (
            "peak_rss_mb".to_string(),
            median(peaks).max(rss::children_peak_mb().unwrap_or(0.0)),
            "MB",
        ),
    ];
    Ok(out)
}

/// Traced run: the per-layer metrics, with every cross-check.
fn trace(bench: &Bench, tmp: &mut TempDirs) -> Result<Outcome, String> {
    let t = bench.trace(tmp)?;
    let mut mismatches = Vec::new();
    let mut expected = golden::expected(bench);
    let reference_failed = verify(bench, &mut expected, &t.reference, &mut mismatches);
    mismatches.extend(t.mismatches);
    let failed = if mismatches.is_empty() {
        t.failed
    } else {
        t.attempted.max(reference_failed)
    };
    Ok(Outcome {
        mismatches,
        attempted: t.attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = t.layers.get(*name).copied().unwrap_or(0.0);
                (name.to_string(), v, *unit)
            })
            .collect(),
    })
}

fn main() -> ExitCode {
    worker_boot(batch_job_factory);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = TempDirs::new(&args.tmp).and_then(|mut tmp| {
        if args.trace {
            trace(&args.bench, &mut tmp)
        } else {
            measure(&args.bench, args.seconds, &mut tmp)
        }
    });
    match result {
        Ok(out) => {
            for m in &out.mismatches {
                eprintln!("perfbench: check failed: {m}");
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
