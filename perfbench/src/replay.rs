//! `replay_backlog`: a saturated trace replay. The input is the built-in
//! synthesis seed tiled by `synthesize` with compressed arrivals, with the
//! job shapes shuffled and the user estimates jittered per seed, rendered
//! as SWF text. Set-up parses it and fits the learned run-time estimator;
//! the timed region replays it under FCFS+EASY with learned estimates and
//! with the global-factor baseline. Telemetry sampling is idled on this
//! path, so it bypasses that layer.

use crate::{span, Checks, Outputs, Spans, Workload};
use rand::seq::SliceRandom;
use rand::Rng;
use rush_core::replay::{
    builtin_seed, replay_stream, train_estimator, EstimatesMode, ReplaySettings,
};
use rush_ml::runtime::RuntimeModel;
use rush_sched::engine::{ReplayStats, ScheduleResult};
use rush_simkit::rng::RngStreams;
use rush_workloads::swf::{SwfJob, SwfReader};
use rush_workloads::synth::{synthesize, SynthSpec};
use std::fmt::Write as _;

/// Arrival compression of the tiled trace: enough to keep a backlog of
/// several hundred jobs at 0.85–0.9 utilization.
const ARRIVAL_SCALE: f64 = 50.0;

/// The `replay_backlog` workload.
pub struct ReplayBacklog {
    /// The generated trace, as SWF text.
    pub swf: String,
}

impl ReplayBacklog {
    /// Generates a `jobs`-job trace from `seed`: the built-in seed tiled
    /// with arrivals compressed [`ARRIVAL_SCALE`] times. Within each tile the
    /// seed shuffles which job shape takes which arrival slot and jitters
    /// the requested time and memory. Every tile keeps the same shapes, so
    /// the offered load is the same for every seed; at saturation a few
    /// percent more load multiplies the backlog, and redrawing run times
    /// per seed moved mean bounded slowdown by a factor of two.
    pub fn new(seed: u64, jobs: u64) -> Self {
        let mut rng = RngStreams::new(seed).stream("perfbench/replay-trace");
        let template = builtin_seed();
        let spec = SynthSpec {
            target_jobs: jobs,
            arrival_scale: ARRIVAL_SCALE,
            ..SynthSpec::default()
        };
        let mut tiled: Vec<SwfJob> = synthesize(template.clone(), spec).collect();
        let mut swf = String::new();
        for tile in tiled.chunks_mut(template.len()) {
            let mut shapes: Vec<SwfJob> = tile.to_vec();
            shapes.shuffle(&mut rng);
            for (slot, shape) in tile.iter_mut().zip(shapes) {
                slot.runtime_secs = shape.runtime_secs;
                slot.processors = shape.processors;
                slot.req_time_secs = shape
                    .req_time_secs
                    .map(|r| (r * rng.gen_range(0.8f64..1.6)).round());
                slot.req_mem_kb = shape
                    .req_mem_kb
                    .map(|m| (m * rng.gen_range(0.8f64..1.2)).round());
            }
            for job in tile.iter() {
                // SWF fields 1-10: job, submit, wait, run, allocated
                // processors, cpu, memory, requested processors, requested
                // time, requested memory.
                writeln!(
                    swf,
                    "{} {} -1 {:.0} {} -1 -1 {} {} {}",
                    job.id + 1,
                    job.submit_secs,
                    job.runtime_secs.expect("built-in seed records run times"),
                    job.processors,
                    job.processors,
                    job.req_time_secs.unwrap_or(-1.0),
                    job.req_mem_kb.unwrap_or(-1.0)
                )
                .expect("writing to a String");
            }
        }
        ReplayBacklog { swf }
    }

    /// The machine and engine keep the `rush replay` default seed: at
    /// saturation the machine's regime draw alone moved mean bounded
    /// slowdown between 1.09 and 1.85 across seeds, so the workload seed
    /// varies the trace, not the hardware. Completions are folded, as
    /// `rush replay` folds them.
    fn settings(&self, train_jobs: usize) -> ReplaySettings {
        ReplaySettings {
            train_jobs,
            ..ReplaySettings::default()
        }
    }

    fn mode(i: usize) -> EstimatesMode {
        if i == 0 {
            EstimatesMode::Learned
        } else {
            EstimatesMode::Factor
        }
    }

    /// Replays the trace once through `replay_stream`, the `rush replay`
    /// path.
    fn replay(ctx: &Ingested, i: usize) -> (Replayed, ScheduleResult) {
        let mode = Self::mode(i);
        let model = (mode == EstimatesMode::Learned).then_some(&ctx.model);
        let (summary, result) = replay_stream(
            Box::new(ctx.jobs.clone().into_iter()),
            &ctx.settings,
            mode,
            model,
        );
        let out = Replayed {
            mode,
            stats: summary.stats,
            makespan_secs: summary.makespan_secs,
            max_queue_len: summary.max_queue_len,
            dropped: summary.dropped_no_runtime,
        };
        (out, result)
    }
}

/// The ingested trace and the fitted estimator.
pub struct Ingested {
    /// Parsed jobs.
    pub jobs: Vec<SwfJob>,
    /// The learned run-time estimator.
    pub model: RuntimeModel,
    /// Replay settings.
    pub settings: ReplaySettings,
}

/// One replay, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// Which estimates drove backfill.
    pub mode: EstimatesMode,
    /// Folded per-job aggregates.
    pub stats: ReplayStats,
    /// Makespan, seconds.
    pub makespan_secs: f64,
    /// Largest queue observed.
    pub max_queue_len: usize,
    /// Trace jobs dropped before the scheduler for lack of a run time.
    pub dropped: u64,
}

impl Workload for ReplayBacklog {
    type Ctx = Ingested;
    type Out = Replayed;

    fn setup(&self, mut spans: Option<&mut Spans>) -> Ingested {
        let jobs: Vec<SwfJob> = span(spans.as_deref_mut(), "ingest_s", || {
            SwfReader::strict(self.swf.as_bytes())
                .collect::<Result<_, _>>()
                .expect("the generated trace is well-formed")
        });
        if let Some(s) = spans.as_deref_mut() {
            s.count("ingest.jobs", jobs.len() as u64);
        }
        let settings = self.settings(jobs.len());
        let (model, _mae) = span(spans, "ml.estimator_fit_s", || {
            train_estimator(jobs.iter().copied(), settings.train_jobs)
                .expect("the generated trace carries run times")
        });
        Ingested {
            jobs,
            model,
            settings,
        }
    }

    fn unit_count(&self) -> usize {
        2
    }

    fn run(&self, ctx: &Ingested, i: usize) -> Replayed {
        Self::replay(ctx, i).0
    }

    /// `replay_stream` runs the engine internally, so the traced pass times
    /// it as one span; the step, schedule-pass and sampling figures inside
    /// it come from the program's profiler.
    fn run_traced(&self, ctx: &Ingested, i: usize, spans: &mut Spans) -> Replayed {
        let (out, result) = spans.time("replay.stream_s", || Self::replay(ctx, i));
        spans.count_run(&result);
        out
    }

    fn jobs(&self, out: &Replayed) -> u64 {
        out.stats.settled()
    }

    fn evaluate(
        &self,
        ctx: &Ingested,
        outs: &[Replayed],
        checks: &mut Checks,
        _spans: Option<&mut Spans>,
    ) -> Outputs {
        let submitted = ctx.jobs.len() as u64;
        for r in outs {
            let s = &r.stats;
            checks.check(
                s.settled() == submitted && s.completed == submitted && s.rejected == 0,
                || {
                    format!(
                        "{} replay settled {} of {submitted} jobs ({} completed, {} rejected)",
                        r.mode.name(),
                        s.settled(),
                        s.completed,
                        s.rejected
                    )
                },
            );
            checks.check(r.dropped == 0, || {
                format!("{} replay dropped {} jobs", r.mode.name(), r.dropped)
            });
        }
        let (learned, factor) = (&outs[0], &outs[1]);
        let completed: u64 = outs.iter().map(|r| r.stats.completed).sum();
        Outputs {
            completed_frac: completed as f64 / (submitted * outs.len() as u64) as f64,
            // Both replays run FCFS+EASY without a variation predictor, so
            // the variation-aware scheduler is its own baseline here.
            variation_runs_ratio: 1.0,
            makespan_ratio: learned.makespan_secs / factor.makespan_secs,
            mean_bsld: learned.stats.mean_bounded_slowdown(),
        }
    }
}
