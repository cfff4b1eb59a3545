//! Golden snapshots for the `eclair-analyze` renderers: the flamegraph,
//! aggregate, and diff reports over a canonical crucible scenario are
//! committed under `tests/golden/`, so any drift in the virtual clock,
//! the span profiler, or the analyzer's output grammar shows up as a
//! readable diff. The CLI prints these exact bytes (`profile`,
//! `aggregate`, `diff` all delegate to the same library renderers).
//!
//! To intentionally re-baseline after a deliberate behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test analyzer_golden
//! ```

use eclair_crucible::{run_scenario, Scenario};
use eclair_fm::FmProfile;
use eclair_obs::{
    aggregate, diff_traces, profile_spans, render_aggregate, render_diff, render_flamegraph,
};
use eclair_trace::TraceEvent;
use std::path::PathBuf;

/// The canonical trace: a calm multi-task oracle scenario (literal, not
/// generated — regenerating tooling can never change what it pins).
fn canonical() -> Scenario {
    Scenario {
        id: 0,
        seed: 0x0B5_0001,
        task_indices: vec![0, 3, 11],
        profile: FmProfile::Gpt4V,
        chaos_rate: 0.0,
        chaos_seed: 0,
        token_budget: None,
        deadline_steps: None,
        max_attempts: 2,
        workers: 1,
        use_cache: true,
    }
}

/// A chaotic variant of the same runs, for a diff with real divergence.
fn perturbed() -> Scenario {
    Scenario {
        chaos_rate: 0.4,
        chaos_seed: 0xC4A0_5003,
        ..canonical()
    }
}

fn trace_of(s: &Scenario) -> Vec<TraceEvent> {
    run_scenario(s)
        .expect("canonical scenario executes")
        .report
        .merged_trace
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.snap"))
}

fn check(name: &str, rendered: &str) -> Result<(), String> {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return Ok(());
    }
    let committed = std::fs::read_to_string(&path).map_err(|_| {
        format!(
            "missing golden snapshot {} — run UPDATE_GOLDEN=1 cargo test --test analyzer_golden",
            path.display()
        )
    })?;
    if committed != rendered {
        return Err(format!("{name} drifted"));
    }
    Ok(())
}

#[test]
fn analyzer_renderers_match_committed_snapshots() {
    let base = trace_of(&canonical());
    let chaotic = trace_of(&perturbed());

    let mut drift = Vec::new();
    for (name, rendered) in [
        ("analyzer_profile", render_flamegraph(&profile_spans(&base))),
        (
            "analyzer_aggregate",
            render_aggregate(&aggregate(base.iter())),
        ),
        ("analyzer_diff", render_diff(&diff_traces(&base, &chaotic))),
        (
            "analyzer_diff_identical",
            render_diff(&diff_traces(&base, &base)),
        ),
    ] {
        if let Err(e) = check(name, &rendered) {
            drift.push(e);
        }
    }
    assert!(
        drift.is_empty(),
        "analyzer output drift: {drift:?}; if intentional, re-baseline with \
         UPDATE_GOLDEN=1 cargo test --test analyzer_golden"
    );
}

#[test]
fn analyzer_renderers_are_pure() {
    let base = trace_of(&canonical());
    assert_eq!(
        render_flamegraph(&profile_spans(&base)),
        render_flamegraph(&profile_spans(&trace_of(&canonical())))
    );
}
