//! End-to-end and per-layer benchmark of the RUSH scheduler.
//!
//! Three workloads, each a seeded function of `--seed`:
//!
//! * [`paper::PaperAdaa`] — the paper's real path: a collected campaign, a
//!   trained three-class AdaBoost and paired FCFS+EASY / RUSH ADAA trials.
//!   Dominated by telemetry sampling.
//! * [`replay::ReplayBacklog`] — a saturated synthetic trace replay under
//!   FCFS+EASY with learned run-time estimates. Bypasses telemetry; the
//!   schedule pass and event dispatch dominate.
//! * [`ckpt::CheckpointDrift`] — RUSH trials with the online predictor
//!   service, a Storm shift and periodic audited checkpoints, then a resume.
//!   Snapshot encoding dominates.
//!
//! [`measure`] repeats passes over a workload's fixed set of units for the
//! time budget, with set-up repetitions spread between the units, and
//! reports medians. Every pass must reproduce the first pass's outcomes
//! exactly; every failed output check counts as a failed operation.

pub mod ckpt;
pub mod paper;
pub mod replay;

use rush_obs::profile as obs_profile;
use rush_obs::ProfileScope;
use std::collections::BTreeMap;
use std::time::Instant;

/// Output checks of one run: each check is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Messages of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` names it in the failure list.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Benchmark-side spans around calls into the program's public functions,
/// plus the program's own profiler totals for the layers that only run
/// inside `SchedulerEngine::step`.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// Top-level span totals, seconds. These never nest, so their sum is
    /// the attributed share of the traced wall time.
    pub top: BTreeMap<&'static str, f64>,
    /// Inclusive totals read from `rush_obs::profile`, seconds.
    pub inner: BTreeMap<&'static str, f64>,
    /// Exact work counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// Every `SchedulerEngine::step` duration, seconds.
    pub steps: Vec<f64>,
    /// The profiler's engine steps, for workloads whose steps run inside
    /// a program call the benchmark cannot split.
    pub ticks: Option<Ticks>,
}

/// Engine steps as the program's profiler records them (the `EngineTick`
/// scope, one sample per dispatched event).
#[derive(Debug, Default, Clone, Copy)]
pub struct Ticks {
    /// Steps recorded.
    pub calls: u64,
    /// Total seconds inside them.
    pub secs: f64,
    /// Median step, microseconds, at the profiler's power-of-two bucket
    /// resolution.
    pub p50_us: f64,
    /// 99th-percentile step, microseconds, likewise.
    pub p99_us: f64,
}

impl Spans {
    /// Times `f` as the top-level span `name` (a metric name from
    /// [`LAYER_METRICS`]).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        *self.top.entry(name).or_default() += t0.elapsed().as_secs_f64();
        out
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Times one engine step (span `engine.step_s`).
    pub fn step(
        &mut self,
        engine: &mut rush_sched::SchedulerEngine,
    ) -> Option<rush_simkit::time::SimTime> {
        let t0 = Instant::now();
        let out = engine.step();
        let dt = t0.elapsed().as_secs_f64();
        *self.top.entry("engine.step_s").or_default() += dt;
        if out.is_some() {
            self.steps.push(dt);
        }
        out
    }

    /// Adds the scheduler's own work counters from a finished run.
    pub fn count_run(&mut self, result: &rush_sched::engine::ScheduleResult) {
        for name in ["sched.backfill_reservations", "sched.skips"] {
            self.count(name, result.metrics.counter_by_name(name).unwrap_or(0));
        }
    }

    /// Adds the profiler's inclusive totals accumulated since the last
    /// [`obs_profile::reset`].
    fn absorb_profile(&mut self) {
        for t in obs_profile::snapshot() {
            let us = |p| obs_profile::percentile_nanos(t.scope, p).unwrap_or(0.0) * 1e-3;
            let (secs, calls) = match t.scope {
                ProfileScope::EngineTick => {
                    self.ticks = Some(Ticks {
                        calls: t.calls,
                        secs: t.nanos as f64 * 1e-9,
                        p50_us: us(50.0),
                        p99_us: us(99.0),
                    });
                    continue;
                }
                ProfileScope::TelemetrySample => {
                    ("telemetry.sample_s", Some("telemetry.sample_calls"))
                }
                ProfileScope::SchedulePass => ("sched.pass_s", Some("sched.pass_calls")),
                ProfileScope::PredictorEval => ("predictor.eval_s", Some("predictor.calls")),
                ProfileScope::Featurize => ("predictor.featurize_s", None),
                ProfileScope::Train => continue,
            };
            *self.inner.entry(secs).or_default() += t.nanos as f64 * 1e-9;
            if let Some(calls) = calls {
                self.count(calls, t.calls);
            }
        }
    }
}

/// Times `f` as span `name` when `spans` is set; otherwise just runs it.
pub fn span<R>(spans: Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// A benchmark workload: a set-up the user pays once, then a fixed list of
/// units (whole scheduler runs) that the timed region repeats.
pub trait Workload {
    /// What set-up produces and every unit reads.
    type Ctx;
    /// One unit's outcome; passes must reproduce it exactly.
    type Out: PartialEq;

    /// Builds the context. With `spans`, records set-up layer spans.
    fn setup(&self, spans: Option<&mut Spans>) -> Self::Ctx;
    /// Number of units in one pass.
    fn unit_count(&self) -> usize;
    /// Runs unit `i` through the program's user-facing entry point.
    fn run(&self, ctx: &Self::Ctx, i: usize) -> Self::Out;
    /// Runs unit `i` decomposed into spans around each layer call. Must
    /// produce the same outcome as [`Workload::run`].
    fn run_traced(&self, ctx: &Self::Ctx, i: usize, spans: &mut Spans) -> Self::Out;
    /// Jobs submitted to the scheduler in a unit's outcome.
    fn jobs(&self, out: &Self::Out) -> u64;
    /// Checks the first pass's outcomes and derives the output metrics.
    /// `spans` is set on traced runs, for layers measured once per run
    /// (such as a resume after the timed region).
    fn evaluate(
        &self,
        ctx: &Self::Ctx,
        outs: &[Self::Out],
        checks: &mut Checks,
        spans: Option<&mut Spans>,
    ) -> Outputs;
}

/// Output metrics of one workload, computed from the first pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outputs {
    /// Jobs completed over jobs submitted.
    pub completed_frac: f64,
    /// Variation runs under the workload's scheduler over the FCFS+EASY
    /// baseline's, on the same inputs.
    pub variation_runs_ratio: f64,
    /// Makespan under the workload's scheduler over the baseline's.
    pub makespan_ratio: f64,
    /// Mean bounded slowdown under the workload's scheduler.
    pub mean_bsld: f64,
}

/// Everything one benchmark process reports.
#[derive(Debug)]
pub struct Report {
    /// Wall seconds of each set-up repetition, in the order run.
    pub setup_samples: Vec<f64>,
    /// Jobs per wall second of the untraced passes (per-unit medians).
    pub jobs_per_s: f64,
    /// Output metrics.
    pub outputs: Outputs,
    /// Output checks.
    pub checks: Checks,
    /// Passes run untraced and traced.
    pub passes: (usize, usize),
    /// The process's peak resident set, MiB, read once set-up and the
    /// first pass are done: the fixed work of a run. Later passes repeat
    /// that work, and the allocator's fragmentation over repeats raised
    /// the peak by up to a fifth, varying with how many passes fit.
    pub peak_rss_mib: Option<f64>,
    /// Per-layer metrics `(name, value, unit)` of a traced run.
    pub layers: Vec<(String, f64, &'static str)>,
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Jobs per second from per-unit timings: total jobs of one pass over the
/// sum of each unit's median time across passes.
fn rate(jobs: &[u64], times: &[Vec<f64>]) -> f64 {
    let total: u64 = jobs.iter().sum();
    let secs: f64 = times.iter().map(|t| median(t)).sum();
    total as f64 / secs
}

/// Runs `w`'s set-up once, timed, appending the time to `samples`.
fn timed_setup<W: Workload>(w: &W, samples: &mut Vec<f64>) -> W::Ctx {
    let t0 = Instant::now();
    let ctx = w.setup(None);
    samples.push(t0.elapsed().as_secs_f64());
    ctx
}

/// How many of a pass's `per_pass` set-up repetitions follow unit `i` of
/// `units`, spreading them evenly over the pass.
fn setups_after(i: usize, units: usize, per_pass: usize) -> usize {
    (i + 1) * per_pass / units - i * per_pass / units
}

/// Runs `w`: one set-up, then passes over its units for about `seconds`
/// (at least one pass). An untraced run repeats the set-up
/// `setups_per_pass` times in every pass, spread evenly between the units
/// and discarded, so the set-up samples face the same host state as the
/// units: a set-up timed only at the start of a run sees one moment of the
/// host. A traced run traces one set-up, alternates untraced and traced
/// passes so their rates face the same host state, and reports per-layer
/// metrics instead of set-up samples.
pub fn measure<W: Workload>(w: &W, seconds: f64, setups_per_pass: usize, traced: bool) -> Report {
    let mut setup_samples = Vec::new();
    let mut setup_spans = Spans::default();
    let ctx = if traced {
        w.setup(Some(&mut setup_spans))
    } else {
        timed_setup(w, &mut setup_samples)
    };

    let units = w.unit_count();
    let mut checks = Checks::default();
    let mut first: Vec<W::Out> = Vec::with_capacity(units);
    let mut jobs = vec![0u64; units];
    let mut plain_times = vec![Vec::new(); units];
    let mut traced_times = vec![Vec::new(); units];
    let mut traced_spans = Spans::default();
    let mut traced_wall = 0.0;
    let (mut plain_passes, mut traced_passes) = (0usize, 0usize);
    let mut peak_rss_mib = None;

    // The profiler records only during traced passes and accumulates over
    // all of them.
    obs_profile::reset();
    let start = Instant::now();
    loop {
        let tracing_pass = traced && plain_passes > traced_passes;
        let pass = plain_passes + traced_passes;
        let pass_start = Instant::now();
        obs_profile::set_enabled(tracing_pass);
        for i in 0..units {
            let t0 = Instant::now();
            let out = if tracing_pass {
                w.run_traced(&ctx, i, &mut traced_spans)
            } else {
                w.run(&ctx, i)
            };
            let dt = t0.elapsed().as_secs_f64();
            if tracing_pass {
                traced_times[i].push(dt);
            } else {
                plain_times[i].push(dt);
            }
            if pass == 0 {
                jobs[i] = w.jobs(&out);
                first.push(out);
            } else {
                checks.check(out == first[i], || {
                    format!("unit {i}: pass {pass} diverged from pass 0")
                });
            }
            if !traced {
                for _ in 0..setups_after(i, units, setups_per_pass) {
                    timed_setup(w, &mut setup_samples);
                }
            }
        }
        obs_profile::set_enabled(false);
        if pass == 0 {
            peak_rss_mib = peak_rss_mib_now();
        }
        let pass_wall = pass_start.elapsed().as_secs_f64();
        eprintln!(
            "pass {pass} ({}): {pass_wall:.3} s",
            if tracing_pass { "traced" } else { "untraced" }
        );
        if tracing_pass {
            traced_wall += pass_wall;
            traced_passes += 1;
        } else {
            plain_passes += 1;
        }
        // Stop once another pass would likely overrun the budget by more
        // than it fills, so a run lasts about `seconds` whatever its pass
        // length.
        let elapsed = start.elapsed().as_secs_f64();
        let mean_pass = elapsed / (plain_passes + traced_passes) as f64;
        let done_tracing = !traced || traced_passes > 0;
        if done_tracing && elapsed + mean_pass / 2.0 >= seconds {
            break;
        }
    }
    if traced {
        traced_spans.absorb_profile();
    }

    let jobs_per_s = rate(&jobs, &plain_times);
    let mut eval_spans = Spans::default();
    let outputs = w.evaluate(&ctx, &first, &mut checks, traced.then_some(&mut eval_spans));

    let layers = if traced {
        layer_metrics(
            &setup_spans,
            &traced_spans,
            &eval_spans,
            traced_passes,
            traced_wall,
            jobs_per_s,
            rate(&jobs, &traced_times),
        )
    } else {
        Vec::new()
    };
    Report {
        setup_samples,
        jobs_per_s,
        outputs,
        checks,
        passes: (plain_passes, traced_passes),
        peak_rss_mib,
        layers,
    }
}

/// This process's peak resident set so far (`VmHWM`), MiB.
fn peak_rss_mib_now() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Every per-layer metric name and its unit. A layer the workload never
/// enters reports zero.
pub const LAYER_METRICS: [(&str, &str); 37] = [
    ("telemetry.sample_s", "s"),
    ("telemetry.sample_calls", "count"),
    ("sched.pass_s", "s"),
    ("sched.pass_calls", "count"),
    ("sched.backfill_reservations", "count"),
    ("sched.skips", "count"),
    ("engine.step_s", "s"),
    ("engine.dispatch_s", "s"),
    ("engine.steps", "count"),
    ("engine.step_p50_us", "us"),
    ("engine.step_p99_us", "us"),
    ("engine.build_s", "s"),
    ("engine.prepare_s", "s"),
    ("engine.finalize_s", "s"),
    ("predictor.eval_s", "s"),
    ("predictor.featurize_s", "s"),
    ("predictor.calls", "count"),
    ("snapshot.encode_s", "s"),
    ("snapshot.bytes", "count"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.count", "count"),
    ("audit.check_s", "s"),
    ("snapshot.decode_s", "s"),
    ("checkpoint.load_s", "s"),
    ("collect.campaign_s", "s"),
    ("collect.control_runs", "count"),
    ("ml.train_s", "s"),
    ("ml.estimator_fit_s", "s"),
    ("ingest_s", "s"),
    ("ingest.jobs", "count"),
    ("service.retrains", "count"),
    ("service.swaps", "count"),
    ("metrics.compute_s", "s"),
    ("replay.stream_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// Turns the traced run's spans into the per-layer metric list. Timed
/// region layers are per pass (totals over traced passes divided by their
/// count); set-up and evaluation layers are per run.
fn layer_metrics(
    setup: &Spans,
    timed: &Spans,
    eval: &Spans,
    passes: usize,
    wall: f64,
    plain_rate: f64,
    traced_rate: f64,
) -> Vec<(String, f64, &'static str)> {
    let per_pass = |v: f64| v / passes as f64;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (k, v) in timed.top.iter().chain(&timed.inner) {
        values.insert(k, per_pass(*v));
    }
    for (k, v) in timed.counts.iter() {
        values.insert(k, (*v / passes as u64) as f64);
    }
    for spans in [setup, eval] {
        for (k, v) in &spans.top {
            values.insert(k, *v);
        }
        for (k, v) in &spans.counts {
            values.insert(k, *v as f64);
        }
    }
    // Steps the benchmark timed itself, or else the profiler's record of
    // steps inside a program call (inclusive, like the scopes above).
    if timed.steps.is_empty() {
        if let Some(t) = timed.ticks {
            values.insert("engine.step_s", per_pass(t.secs));
            values.insert("engine.steps", (t.calls / passes as u64) as f64);
            values.insert("engine.step_p50_us", t.p50_us);
            values.insert("engine.step_p99_us", t.p99_us);
        }
    } else {
        values.insert("engine.steps", (timed.steps.len() / passes) as f64);
        values.insert("engine.step_p50_us", percentile(&timed.steps, 50.0) * 1e6);
        values.insert("engine.step_p99_us", percentile(&timed.steps, 99.0) * 1e6);
    }
    let step_s = values.get("engine.step_s").copied().unwrap_or(0.0);
    let sample_s = values.get("telemetry.sample_s").copied().unwrap_or(0.0);
    let pass_s = values.get("sched.pass_s").copied().unwrap_or(0.0);
    values.insert("engine.dispatch_s", (step_s - sample_s - pass_s).max(0.0));
    let attributed: f64 = timed.top.values().sum();
    values.insert("trace.coverage_frac", attributed / wall);
    values.insert(
        "trace.unattributed_s",
        per_pass((wall - attributed).max(0.0)),
    );
    values.insert("trace.overhead_frac", 1.0 - traced_rate / plain_rate);

    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                values.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect()
}
