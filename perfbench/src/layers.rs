//! Per-layer timing from outside the program: a digest-transparent
//! [`Stage`] wrapper that times every call into the stage it wraps, and
//! the statistics the traced run reports from those samples.

use coachlm_runtime::simtime::Stopwatch;
use coachlm_runtime::{Stage, StageCtx, StageItem, StageOutcome};
use std::sync::Mutex;
use std::time::Duration;

/// Per-call body times of one stage, in call order.
#[derive(Default)]
pub struct StageLog {
    nanos: Mutex<Vec<u64>>,
}

impl StageLog {
    /// The recorded samples (empty if a recording thread panicked).
    pub fn samples(&self) -> Vec<u64> {
        self.nanos.lock().map(|v| v.clone()).unwrap_or_default()
    }
}

/// Wraps a stage, recording each `process` call's duration into a log.
/// Everything the executor reads from a stage is delegated, so a chain of
/// wrapped stages yields the digest of the bare chain.
pub struct Timed<'a> {
    inner: Box<dyn Stage + 'a>,
    log: &'a StageLog,
}

impl<'a> Timed<'a> {
    pub fn wrap(inner: impl Stage + 'a, log: &'a StageLog) -> Box<dyn Stage + 'a> {
        Box::new(Timed {
            inner: Box::new(inner),
            log,
        })
    }
}

impl Stage for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let watch = Stopwatch::start();
        let outcome = self.inner.process(item, ctx);
        let nanos = u64::try_from(watch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Ok(mut v) = self.log.nanos.lock() {
            v.push(nanos);
        }
        outcome
    }

    fn deadline(&self) -> Option<Duration> {
        self.inner.deadline()
    }

    fn service_time(&self) -> Duration {
        self.inner.service_time()
    }

    fn iteration_budget(&self) -> u32 {
        self.inner.iteration_budget()
    }
}

/// Summary of one stage's samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStats {
    pub calls: usize,
    pub busy_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Mean call time over the last tenth of calls ÷ the first tenth.
    pub drift: f64,
}

impl StageStats {
    pub fn of(samples: &[u64]) -> StageStats {
        if samples.is_empty() {
            return StageStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let tenth = (samples.len() / 10).max(1);
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let first = mean(&samples[..tenth]);
        StageStats {
            calls: samples.len(),
            busy_s: samples.iter().sum::<u64>() as f64 * 1e-9,
            p50_us: quantile(&sorted, 0.50) * 1e-3,
            p99_us: quantile(&sorted, 0.99) * 1e-3,
            drift: if first > 0.0 {
                mean(&samples[samples.len() - tenth..]) / first
            } else {
                0.0
            },
        }
    }
}

/// Nearest-rank quantile of sorted, non-empty samples.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of a list of durations, in seconds (0 when empty).
pub fn median_s(samples: &[Duration]) -> f64 {
    median(samples.iter().map(Duration::as_secs_f64).collect())
}

/// Median of a list of values (0 when empty).
pub fn median(mut s: Vec<f64>) -> f64 {
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
