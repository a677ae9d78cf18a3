//! What every workload shares: run context, the report it fills, the
//! set-up clock and the time-boxed op loop.

use crate::json::Value;
use crate::spec::{self, MetricSpec};
use crate::stats::{median, Measured};
use std::collections::BTreeMap;
use std::time::Instant;

/// How often the repeatable part of set-up (input generation) is run;
/// `setup_s` reports the median so one slow generation does not decide it.
pub const SETUP_REPEATS: usize = 3;

/// Fewest timed blocks behind any reported median, whatever `--seconds`
/// says.
const MIN_TIMED_BLOCKS: usize = 3;

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Process start (first line of `main`): `setup_s` counts from here.
    pub start: Instant,
    pub seed: u64,
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Write the golden file from this run instead of checking against it.
    pub bless: bool,
}

/// The `k`-th solver seed of a run: `seed` itself for `k = 0` (the op
/// whose counts are blessed), a scrambled value after that, so the timed
/// ops of one run sample several start-vector draws.
pub fn op_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        splitmix64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// SplitMix64 finalizer: a stateless, well-mixed hash of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A number in `[0, 1)` derived from `(seed, stream)`.
pub fn unit_f64(seed: u64, stream: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(stream)) >> 11) as f64 / (1u64 << 53) as f64
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed op or check.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Measured>,
    /// The host has fewer CPUs than the workload has threads: parallel
    /// timings then measure oversubscription, not speed-up.
    pub cpus_limited: bool,
    /// Golden content gathered while blessing (`Ctx::bless`).
    pub golden: Option<Value>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    /// Counts one op; `outcome` is the first failed check, if any.
    pub fn op(&mut self, label: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(format!("{label}: {why}"));
        }
    }

    /// A failed check that is not tied to one op (golden mismatch, ...).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`spec`]: the registry, this code and
    /// `BENCHMARK.json` must list the same names.
    pub fn set(&mut self, name: &str, value: Measured) {
        let spec = spec::find(name).unwrap_or_else(|| panic!("metric {name} is not in spec.rs"));
        self.metrics.insert(spec.name, value);
    }

    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Measured::single(value));
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The driver's result object: `correct`, `attempted`, `failed` and
    /// every metric of `specs` (a per-layer metric the workload did not
    /// set does not apply to it and reads 0).
    pub fn driver_json(&self, specs: &[MetricSpec]) -> Value {
        let mut metrics = Value::obj();
        for m in specs {
            metrics.set(
                m.name,
                Value::obj()
                    .with("value", self.value(m.name))
                    .with("unit", m.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// Everything `driver_json` drops: extremes, sample counts, failures.
    pub fn detail_json(&self, specs: &[MetricSpec]) -> Value {
        let mut metrics = Value::obj();
        for m in specs {
            let v = self
                .metrics
                .get(m.name)
                .copied()
                .unwrap_or(Measured::single(0.0));
            metrics.set(
                m.name,
                Value::obj()
                    .with("value", v.value)
                    .with("unit", m.unit)
                    .with("min", v.min)
                    .with("max", v.max)
                    .with("samples", v.samples),
            );
        }
        let failures: Vec<Value> = self.failures.iter().map(|f| f.as_str().into()).collect();
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with(
                "failed_ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
            .with("cpus_limited", self.cpus_limited)
            .with("failures", failures)
            .with("metrics", metrics)
    }
}

/// Set-up time: parts that can be repeated (input generation) are run
/// [`SETUP_REPEATS`] times and enter as their median; parts that happen
/// once per process (pool creation, cold first ops) enter as measured.
#[derive(Debug)]
pub struct SetupClock {
    once_s: f64,
    repeated_s: Vec<f64>,
}

impl SetupClock {
    /// Starts with the time already spent since process start.
    pub fn new(ctx: &Ctx) -> Self {
        SetupClock {
            once_s: ctx.start.elapsed().as_secs_f64(),
            repeated_s: Vec::new(),
        }
    }

    /// Runs `f` [`SETUP_REPEATS`] times, keeping the last result.
    pub fn repeated<R>(&mut self, mut f: impl FnMut() -> R) -> R {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            last = Some(f());
            self.repeated_s.push(t.elapsed().as_secs_f64());
        }
        last.expect("SETUP_REPEATS is positive")
    }

    /// Runs `f` once, as part of set-up.
    pub fn once<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.once_s += t.elapsed().as_secs_f64();
        r
    }

    /// Records the two end-to-end metrics every workload measures the same
    /// way: `setup_s` and the process's peak resident set so far.
    pub fn finish(&self, report: &mut Report) {
        report.set_value("setup_s", self.total_s());
        report.set_value("peak_rss_mib", crate::host::peak_rss_mib().unwrap_or(0.0));
    }

    pub fn total_s(&self) -> f64 {
        self.once_s
            + if self.repeated_s.is_empty() {
                0.0
            } else {
                median(&self.repeated_s)
            }
    }
}

/// Decides whether a time-boxed loop runs another block of ops: always
/// until [`MIN_TIMED_BLOCKS`], then only while the block is expected to
/// end inside the budget (judged by the median block so far).
#[derive(Debug)]
pub struct TimeBox {
    started: Instant,
    budget_s: f64,
    block_s: Vec<f64>,
}

impl TimeBox {
    pub fn new(budget_s: f64) -> Self {
        TimeBox {
            started: Instant::now(),
            budget_s,
            block_s: Vec::new(),
        }
    }

    pub fn another(&self) -> bool {
        if self.block_s.len() < MIN_TIMED_BLOCKS {
            return true;
        }
        self.started.elapsed().as_secs_f64() + median(&self.block_s) <= self.budget_s
    }

    /// Runs one block and records how long it took.
    pub fn block<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.block_s.push(t.elapsed().as_secs_f64());
        r
    }
}

/// Times `f` once, in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median seconds per call of `f`, from repeated batches: each batch runs
/// long enough (>= 2 ms) for the clock to resolve it. Used by the
/// per-layer micro probes.
pub fn per_call_s(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 5;
    const BATCH_S: f64 = 2e-3;
    f(); // warm caches and lazily sized scratch
    let (_, once) = timed(&mut f);
    let per_batch = ((BATCH_S / once.max(1e-9)).ceil() as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (_, s) = timed(|| {
                for _ in 0..per_batch {
                    f();
                }
            });
            s / per_batch as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_seed_zero_is_the_run_seed_and_later_ops_differ() {
        assert_eq!(op_seed(7, 0), 7);
        let seeds: Vec<u64> = (0..6).map(|k| op_seed(7, k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(op_seed(7, 3), op_seed(7, 3), "same seed, same inputs");
        assert_ne!(op_seed(7, 3), op_seed(8, 3));
    }

    #[test]
    fn unit_f64_is_in_range_and_seed_dependent() {
        for s in 0..100 {
            let u = unit_f64(s, 1);
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(unit_f64(1, 1), unit_f64(2, 1));
        assert_ne!(unit_f64(1, 1), unit_f64(1, 2));
    }

    #[test]
    fn report_counts_failures_and_fills_every_listed_metric() {
        let mut r = Report::new();
        r.op("op 0", Ok(()));
        r.op("op 1", Err("sigma off".into()));
        r.set_value("wall_s", 1.5);
        assert!(!r.correct());
        let doc = r.driver_json(spec::END_TO_END);
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), spec::END_TO_END.len());
        assert_eq!(
            metrics.path(&["wall_s", "value"]).and_then(Value::as_f64),
            Some(1.5)
        );
        let detail = r.detail_json(spec::END_TO_END);
        assert_eq!(
            detail.get("failed_ratio").and_then(Value::as_f64),
            Some(0.5)
        );
    }

    #[test]
    #[should_panic(expected = "not in spec.rs")]
    fn unknown_metric_names_are_rejected() {
        Report::new().set_value("made.up", 1.0);
    }

    #[test]
    fn setup_clock_takes_the_median_of_repeats() {
        let ctx = Ctx {
            start: Instant::now(),
            seed: 0,
            seconds: 1.0,
            trace: false,
            bless: false,
        };
        let mut clock = SetupClock::new(&ctx);
        let mut calls = 0;
        let last = clock.repeated(|| {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (SETUP_REPEATS, SETUP_REPEATS));
        assert_eq!(clock.once(|| 5), 5);
        assert!(clock.total_s() >= 0.0);
    }

    #[test]
    fn time_box_runs_the_minimum_then_stops_at_the_budget() {
        let mut tb = TimeBox::new(0.0);
        let mut blocks = 0;
        while tb.another() {
            tb.block(|| blocks += 1);
        }
        assert_eq!(blocks, MIN_TIMED_BLOCKS);
    }
}
