//! Golden-trace snapshot corpus: canonical crucible scenarios whose full
//! fleet outcome and merged-trace digest, for the pure-FM run and for its
//! hybrid twin, are committed under `tests/golden/`. Any behavioral drift
//! in the executor, the bot path, scheduler, chaos layer, or trace
//! pipeline shows up as a diff against these files.
//!
//! To intentionally re-baseline after a deliberate behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_corpus
//! ```

use eclair_crucible::{evaluate, run_scenario, Scenario};
use eclair_fm::FmProfile;
use std::path::PathBuf;

/// FNV-1a digest (the repo's standard trace-digest construction).
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical corpus: hand-written scenarios covering the grammar's
/// corners — lean and chaotic, budgeted and retrying, single- and
/// multi-worker, each model family. Stable by construction: these are
/// literals, not generated draws, so regenerating tooling can never
/// silently change which scenarios the corpus pins.
fn corpus() -> Vec<(&'static str, Scenario)> {
    let base = Scenario {
        id: 0,
        seed: 0,
        task_indices: vec![],
        profile: FmProfile::Oracle,
        chaos_rate: 0.0,
        chaos_seed: 0,
        token_budget: None,
        deadline_steps: None,
        max_attempts: 1,
        workers: 1,
        use_cache: true,
    };
    vec![
        (
            "oracle_calm",
            Scenario {
                seed: 0x5EED_0001,
                task_indices: vec![0, 2, 4],
                ..base.clone()
            },
        ),
        (
            "gpt4v_chaos_parallel",
            Scenario {
                seed: 0x5EED_0002,
                task_indices: vec![1, 9, 12, 20],
                profile: FmProfile::Gpt4V,
                chaos_rate: 0.3,
                chaos_seed: 0xC4A0_5001,
                max_attempts: 2,
                workers: 4,
                ..base.clone()
            },
        ),
        (
            "cogagent_budgeted_retries",
            Scenario {
                seed: 0x5EED_0003,
                task_indices: vec![5, 17],
                profile: FmProfile::CogAgent18b,
                token_budget: Some(6_000),
                max_attempts: 3,
                workers: 2,
                ..base.clone()
            },
        ),
        (
            "oracle_deadline_chaos",
            Scenario {
                seed: 0x5EED_0004,
                task_indices: vec![7, 25],
                chaos_rate: 0.2,
                chaos_seed: 0xC4A0_5002,
                deadline_steps: Some(8),
                ..base.clone()
            },
        ),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.snap"))
}

/// Five lines per snapshot: the scenario, the full fleet outcome and the
/// merged-trace digest, then the same outcome and digest for the
/// scenario's hybrid twin (the compiled-bot path) — line-oriented so
/// drift diffs readably.
fn render(scenario: &Scenario) -> String {
    let run = run_scenario(scenario).expect("canonical scenario executes");
    let eval = evaluate(&run);
    assert!(
        eval.passed(),
        "golden scenarios must be violation-free: {:?}",
        eval.violations
    );
    let trace = run.report.merged_trace_jsonl().expect("trace serializes");
    let hybrid_trace = run.hybrid.merged_trace_jsonl().expect("trace serializes");
    format!(
        "scenario={}\noutcome={}\ntrace_fnv1a={:016x}\nhybrid_outcome={}\nhybrid_trace_fnv1a={:016x}\n",
        serde_json::to_string(scenario).expect("scenario serializes"),
        run.report.outcome.to_json(),
        fnv1a(&trace),
        run.hybrid.outcome.to_json(),
        fnv1a(&hybrid_trace),
    )
}

#[test]
fn golden_corpus_matches_committed_snapshots() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let mut drifted = Vec::new();
    for (name, scenario) in corpus() {
        let rendered = render(&scenario);
        let path = golden_path(name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden snapshot {} — run UPDATE_GOLDEN=1 cargo test --test golden_corpus",
                path.display()
            )
        });
        if committed != rendered {
            drifted.push(name);
        }
    }
    assert!(
        drifted.is_empty(),
        "golden corpus drift in {drifted:?}: behavior changed; if intentional, re-baseline \
         with UPDATE_GOLDEN=1 cargo test --test golden_corpus"
    );
}

#[test]
fn golden_corpus_is_stable_across_repeated_runs() {
    // The snapshots are only meaningful if rendering is a pure function.
    let (_, scenario) = corpus().remove(1);
    assert_eq!(render(&scenario), render(&scenario));
}
