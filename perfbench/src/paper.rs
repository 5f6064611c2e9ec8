//! `paper_adaa`: the paper's real path. Set-up collects a seeded campaign
//! and trains the three-class AdaBoost model; the timed region runs paired
//! FCFS+EASY and RUSH ADAA trials on the 512-node pod with the noise job.

use crate::{span, Checks, Outputs, Spans, Workload};
use rush_core::collect::CampaignData;
use rush_core::experiments::{
    build_trial_engine, run_trial_raw, Experiment, ExperimentSettings, PolicyKind, TrialOutcome,
};
use rush_core::pipeline::{build_reference, ModelCache};
use rush_core::{run_campaign, CampaignConfig, LabelScheme};
use rush_ml::model::ModelKind;
use rush_sched::engine::ScheduleResult;
use rush_sched::metrics::{RuntimeReference, ScheduleMetrics};
use rush_simkit::rng::RngStreams;
use rush_simkit::time::{SimDuration, SimTime};

/// The collected campaign, the trained model (inside the settings' cache)
/// and the runtime reference every trial is judged against.
pub struct Trained {
    /// The campaign the model was trained on.
    pub campaign: CampaignData,
    /// Experiment settings; `model_cache` already holds the model.
    pub settings: ExperimentSettings,
    /// Per-class runtime statistics from the campaign.
    pub reference: RuntimeReference,
}

/// Campaign length, days.
pub const CAMPAIGN_DAYS: u32 = 10;

/// Collects the campaign and trains the deployed model. The
/// campaign is the benchmark's fixed training corpus: it keeps the
/// `rush collect` default seed and storm window, so every workload seed
/// deploys the same model. Redrawing the campaign per seed moved the
/// RUSH/FCFS+EASY variation-runs ratio between 0.23 and 0.99 over eight
/// seeds, a spread no bound could hold. The workload seed draws the trial
/// seeds: machines, noise trajectories and job streams.
pub fn collect_and_train(seed: u64, mut spans: Option<&mut Spans>) -> Trained {
    let days = CAMPAIGN_DAYS;
    let config = CampaignConfig {
        days,
        storm_days: Some((days * 5 / 8, days * 3 / 4)),
        ..CampaignConfig::default()
    };
    let campaign = span(spans.as_deref_mut(), "collect.campaign_s", || {
        run_campaign(&config)
    });
    if let Some(s) = spans.as_deref_mut() {
        s.count("collect.control_runs", campaign.runs.len() as u64);
    }
    let settings = ExperimentSettings {
        // Trial seeds stay small so `base_seed + trial` never wraps.
        base_seed: RngStreams::new(seed).stream_seed("perfbench/trials") >> 16,
        model_cache: ModelCache::new(),
        ..ExperimentSettings::default()
    };
    span(spans, "ml.train_s", || {
        settings.model_cache.train_with_scheme(
            &campaign,
            Experiment::Adaa.train_apps().as_deref(),
            ModelKind::AdaBoost,
            LabelScheme::ThreeClass,
            settings.base_seed,
        )
    });
    let reference = build_reference(&campaign);
    Trained {
        campaign,
        settings,
        reference,
    }
}

/// One trial of one policy, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Which policy ran.
    pub policy: PolicyKind,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Mean bounded slowdown of the completed jobs.
    pub mean_bsld: f64,
    /// First submission to last completion.
    pub makespan: SimDuration,
    /// The evaluated outcome.
    pub outcome: TrialOutcome,
}

impl Trial {
    /// Reduces a finished run; `submitted` comes from the job set.
    pub fn new(policy: PolicyKind, result: &ScheduleResult, outcome: TrialOutcome) -> Self {
        Trial {
            policy,
            submitted: result.replay.settled(),
            completed: result.completed.len() as u64,
            mean_bsld: result.replay.mean_bounded_slowdown(),
            makespan: result.makespan(),
            outcome,
        }
    }
}

/// Runs one trial decomposed into spans: `build_trial_engine`, `prepare`,
/// each `step`, `finalize` and `ScheduleMetrics::compute`.
pub fn traced_trial(
    trained: &Trained,
    experiment: Experiment,
    policy: PolicyKind,
    trial: usize,
    spans: &mut Spans,
) -> Trial {
    let (mut engine, requests) = spans.time("engine.build_s", || {
        build_trial_engine(
            experiment,
            policy,
            &trained.campaign,
            &trained.settings,
            trial,
        )
    });
    spans.time("engine.prepare_s", || engine.prepare(&requests));
    while spans.step(&mut engine).is_some() {}
    let result = spans.time("engine.finalize_s", || engine.finalize());
    spans.count_run(&result);
    let metrics = spans.time("metrics.compute_s", || {
        ScheduleMetrics::compute(&result.completed, &trained.reference, SimTime::ZERO)
    });
    let outcome = TrialOutcome {
        trial,
        metrics,
        total_skips: result.total_skips,
        failed_jobs: result.failed.len(),
        requeues: result.requeues,
        fallback_decisions: result.fallback_decisions,
        node_failures: result.node_failures,
    };
    Trial::new(policy, &result, outcome)
}

/// Mean of `f` over the trials of one policy.
fn mean(trials: &[Trial], policy: PolicyKind, f: impl Fn(&Trial) -> f64) -> f64 {
    let v: Vec<f64> = trials
        .iter()
        .filter(|t| t.policy == policy)
        .map(f)
        .collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Checks every trial completed all its jobs and derives the paired
/// RUSH-over-FCFS+EASY output metrics.
pub fn paired_outputs(trials: &[Trial], checks: &mut Checks) -> Outputs {
    for t in trials {
        checks.check(t.submitted > 0 && t.completed == t.submitted, || {
            format!(
                "{} trial {}: completed {} of {} jobs",
                t.policy.label(),
                t.outcome.trial,
                t.completed,
                t.submitted
            )
        });
    }
    let variation = |p| mean(trials, p, |t| t.outcome.metrics.total_variation_runs as f64);
    let makespan = |p| mean(trials, p, |t| t.outcome.metrics.makespan_secs);
    let (fcfs_var, rush_var) = (variation(PolicyKind::FcfsEasy), variation(PolicyKind::Rush));
    let submitted: u64 = trials.iter().map(|t| t.submitted).sum();
    let completed: u64 = trials.iter().map(|t| t.completed).sum();
    Outputs {
        completed_frac: completed as f64 / submitted as f64,
        variation_runs_ratio: rush_var / fcfs_var,
        makespan_ratio: makespan(PolicyKind::Rush) / makespan(PolicyKind::FcfsEasy),
        mean_bsld: mean(trials, PolicyKind::Rush, |t| t.mean_bsld),
    }
}

/// The `paper_adaa` workload: `trials` paired ADAA trials per pass.
pub struct PaperAdaa {
    /// Workload seed.
    pub seed: u64,
    /// Trials per policy.
    pub trials: usize,
}

impl PaperAdaa {
    fn unit(&self, i: usize) -> (PolicyKind, usize) {
        let policy = if i.is_multiple_of(2) {
            PolicyKind::FcfsEasy
        } else {
            PolicyKind::Rush
        };
        (policy, i / 2)
    }
}

impl Workload for PaperAdaa {
    type Ctx = Trained;
    type Out = Trial;

    fn setup(&self, spans: Option<&mut Spans>) -> Trained {
        collect_and_train(self.seed, spans)
    }

    fn unit_count(&self) -> usize {
        2 * self.trials
    }

    fn run(&self, ctx: &Trained, i: usize) -> Trial {
        let (policy, trial) = self.unit(i);
        let (result, outcome) = run_trial_raw(
            Experiment::Adaa,
            policy,
            &ctx.campaign,
            &ctx.reference,
            &ctx.settings,
            trial,
        );
        Trial::new(policy, &result, outcome)
    }

    fn run_traced(&self, ctx: &Trained, i: usize, spans: &mut Spans) -> Trial {
        let (policy, trial) = self.unit(i);
        traced_trial(ctx, Experiment::Adaa, policy, trial, spans)
    }

    fn jobs(&self, out: &Trial) -> u64 {
        out.submitted
    }

    fn evaluate(
        &self,
        _ctx: &Trained,
        outs: &[Trial],
        checks: &mut Checks,
        _spans: Option<&mut Spans>,
    ) -> Outputs {
        let out = paired_outputs(outs, checks);
        // Table II's claim: RUSH never raises mean variation runs. A NaN
        // ratio (no variation under either policy) fails too.
        checks.check(out.variation_runs_ratio <= 1.0, || {
            format!(
                "RUSH/FCFS+EASY mean variation runs ratio {} exceeds 1",
                out.variation_runs_ratio
            )
        });
        out
    }
}
