//! Work counters of a traced run are exact: two runs on the same seed
//! report identical counts, and another seed changes them, which shows the
//! seed reaches the program only through the generated inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the debug build collects the campaign slowly).
//!
//! Two tests fail on the current program: the cluster's network model
//! sums link loads in randomized `HashMap` order, so the same engine state
//! encodes to different checkpoint bytes from run to run.
//! `checkpoint_drift_checkpoints_repeat_byte_for_byte` fails every time;
//! `checkpoint_drift_counters_follow_the_seed` fails whenever the encoded
//! lengths differ too (`snapshot.bytes`), in about a quarter of trials.

use rush_core::checkpoint::CheckpointManager;
use rush_perfbench::ckpt::CheckpointDrift;
use rush_perfbench::paper::PaperAdaa;
use rush_perfbench::replay::ReplayBacklog;
use rush_perfbench::{measure, Workload};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The program's profiler is process-global, so tests that read it must
/// not overlap.
static PROFILER: Mutex<()> = Mutex::new(());

/// A traced run's work counters, which must repeat exactly.
fn counters<W: Workload>(w: &W) -> BTreeMap<String, f64> {
    let report = measure(w, 0.0, 1, true);
    assert!(
        report.checks.failures.is_empty(),
        "{:?}",
        report.checks.failures
    );
    report
        .layers
        .into_iter()
        .filter(|(_, _, unit)| *unit == "count")
        .map(|(name, v, _)| (name, v))
        .collect()
}

fn assert_seeded<W: Workload>(make: impl Fn(u64) -> W, must_be_positive: &[&str]) {
    let _serial = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let a = counters(&make(1));
    for name in must_be_positive {
        assert!(a[*name] > 0.0, "{name} is zero: {a:?}");
    }
    assert_eq!(a, counters(&make(1)), "same seed, different counters");
    assert_ne!(
        a,
        counters(&make(2)),
        "another seed left every counter unchanged"
    );
}

#[test]
fn paper_adaa_counters_follow_the_seed() {
    assert_seeded(
        |seed| PaperAdaa { seed, trials: 5 },
        &[
            "engine.steps",
            "telemetry.sample_calls",
            "predictor.calls",
            "collect.control_runs",
        ],
    );
}

#[test]
fn replay_backlog_counters_follow_the_seed() {
    assert_seeded(
        |seed| ReplayBacklog::new(seed, 1500),
        &["engine.steps", "sched.pass_calls", "ingest.jobs"],
    );
}

#[test]
fn checkpoint_drift_counters_follow_the_seed() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("counters-checkpoints");
    assert_seeded(
        |seed| CheckpointDrift {
            seed,
            trials: 1,
            jobs: 200,
            dir: dir.clone(),
        },
        &["engine.steps", "checkpoint.count", "service.retrains"],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The newest checkpoint of two same-seed runs of one trial must match
/// byte for byte.
#[test]
fn checkpoint_drift_checkpoints_repeat_byte_for_byte() {
    let _serial = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repeat-checkpoints");
    let newest = |run: &str| {
        let w = CheckpointDrift {
            seed: 1,
            trials: 1,
            jobs: 200,
            dir: root.join(run),
        };
        let report = measure(&w, 0.0, 1, false);
        assert!(
            report.checks.failures.is_empty(),
            "{:?}",
            report.checks.failures
        );
        CheckpointManager::new(w.trial_dir(0), 3)
            .and_then(|m| m.load_latest_valid())
            .expect("read checkpoints")
            .expect("a valid checkpoint")
            .1
    };
    let (a, b) = (newest("a"), newest("b"));
    let _ = std::fs::remove_dir_all(&root);
    let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    assert!(
        a == b,
        "same seed, different checkpoints: {} and {} bytes long, {differing} bytes differ",
        a.len(),
        b.len()
    );
}
