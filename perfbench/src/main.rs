//! One benchmark process: runs one workload and prints one JSON line.
//!
//! ```text
//! rush-perfbench <paper_adaa|replay_backlog|checkpoint_drift>
//!     --seed N --seconds S --trace 0|1 --scratch DIR
//! ```
//!
//! `perfbench/run.py` is the user-facing command: it builds this binary,
//! runs it in a fresh process per measurement and prints the final result.

use rush_perfbench::ckpt::CheckpointDrift;
use rush_perfbench::paper::PaperAdaa;
use rush_perfbench::replay::ReplayBacklog;
use rush_perfbench::{measure, median, Report};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rush-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or("missing workload name")?;
    let mut opts = HashMap::new();
    while let Some(key) = args.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{key}'"))?
            .to_string();
        let value = args.next().ok_or_else(|| format!("{key} needs a value"))?;
        opts.insert(name, value);
    }
    let num = |key: &str| -> Result<u64, String> {
        let v = opts.get(key).ok_or_else(|| format!("missing --{key}"))?;
        v.parse().map_err(|_| format!("--{key}: bad number '{v}'"))
    };
    let seed = num("seed")?;
    let seconds = num("seconds")? as f64;
    let traced = match num("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let scratch = PathBuf::from(opts.get("scratch").ok_or("missing --scratch")?);

    let report = match workload.as_str() {
        // Set-up repetitions per pass: about a tenth of a pass on
        // `paper_adaa` and `checkpoint_drift`, whose set-up takes 0.6 s; on
        // `replay_backlog`, whose set-up takes 4 ms, enough for a hundred
        // or more samples in a run.
        "paper_adaa" => measure(&PaperAdaa { seed, trials: 60 }, seconds, 3, traced),
        "replay_backlog" => measure(&ReplayBacklog::new(seed, 3000), seconds, 40, traced),
        "checkpoint_drift" => {
            let w = CheckpointDrift {
                seed,
                trials: 24,
                jobs: 190,
                dir: scratch.join("checkpoints"),
            };
            let report = measure(&w, seconds, 4, traced);
            let _ = std::fs::remove_dir_all(&w.dir);
            report
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    Ok(render(&workload, seed, &report))
}

/// A JSON number, or `null` for a non-finite value.
fn num_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
fn str_json(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render(workload: &str, seed: u64, r: &Report) -> String {
    let samples: Vec<String> = r.setup_samples.iter().map(|v| num_json(*v)).collect();
    let failures: Vec<String> = r.checks.failures.iter().map(|f| str_json(f)).collect();
    let layers: Vec<String> = r
        .layers
        .iter()
        .map(|(name, v, unit)| format!("{}:[{},{}]", str_json(name), num_json(*v), str_json(unit)))
        .collect();
    let o = &r.outputs;
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"setup_s\":{},\"setup_samples\":[{}],\
         \"jobs_per_s\":{},\"peak_rss_mib\":{},\"completed_frac\":{},\"variation_runs_ratio\":{},\
         \"makespan_ratio\":{},\"mean_bsld\":{},\"attempted\":{},\"failed\":{},\
         \"failures\":[{}],\"passes\":[{},{}],\"layers\":{{{}}}}}",
        str_json(workload),
        if r.setup_samples.is_empty() {
            "null".to_string()
        } else {
            num_json(median(&r.setup_samples))
        },
        samples.join(","),
        num_json(r.jobs_per_s),
        r.peak_rss_mib.map_or("null".to_string(), num_json),
        num_json(o.completed_frac),
        num_json(o.variation_runs_ratio),
        num_json(o.makespan_ratio),
        num_json(o.mean_bsld),
        r.checks.attempted,
        r.checks.failures.len(),
        failures.join(","),
        r.passes.0,
        r.passes.1,
        layers.join(","),
    )
}
