//! Hybrid bench: pure-FM execution vs the compiled-bot + FM-fallback
//! pipeline (`eclair-hybrid`) across the chaos ladder, plus a drift-epoch
//! study showing the recompiler amortizes fallback cost. Emits a
//! byte-reproducible `BENCH_hybrid.json`.
//!
//! Usage:
//!   hybrid_bench [--out BENCH_hybrid.json] [--determinism-out PATH]
//!                [--metrics-out PATH]
//!
//! Four gates, any violation exits 1:
//!
//! * `determinism`: the canonical hybrid point (top fault rate) re-run
//!   sequentially and on a 4-worker pool must serialize byte-identically
//!   (`--determinism-out` writes the dump CI compares across
//!   invocations);
//! * `token_floor`: at fault rate 0 the hybrid pipeline must undercut
//!   pure-FM tokens/run by ≥10x — on a drift-free page the compiled bot
//!   replays the validated trace without a single FM call;
//! * `completion_parity`: hybrid completion must match or beat pure-FM
//!   at every fault rate (the full-FM rescue re-runs a failing attempt
//!   at the same seed, so the twin can only gain);
//! * `recompile`: in every drift epoch the second back-to-back run must
//!   spend fewer fallback tokens than the first — the spliced repair
//!   means the same drift never costs tokens twice.

use std::process::ExitCode;

use eclair_bench::{finish, fleet_metrics, suite_specs, under_chaos, Args, RunBytes};
use eclair_fleet::{derive_seed, Fleet, FleetConfig, RetryPolicy, RunSpec};
use eclair_fm::tokens::Pricing;
use eclair_fm::FmProfile;
use eclair_gui::{DriftOp, Theme};
use eclair_hybrid::{compile_task, run_hybrid_on_session, HybridPolicy};
use eclair_rpa::economics::CostModel;
use eclair_sites::all_tasks;
use eclair_trace::{EventKind, TraceEvent, TraceRecorder};
use serde::Serialize;

const FLEET_SEED: u64 = 2025;
const CHAOS_SEED: u64 = 777;
/// The profile both arms run under: the paper's flagship model, so the
/// token economics are the ones §6 argues about.
const PROFILE: FmProfile = FmProfile::Gpt4V;
const TASKS: usize = 30;
const REPS: usize = 3;
const RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];
/// Pure-FM tokens per hybrid token the fault-free point must reach.
const TOKEN_FLOOR: f64 = 10.0;

/// One fault-rate point: the pure-FM arm and its hybrid twin.
#[derive(Debug, Serialize)]
struct HybridPoint {
    fault_rate: f64,
    runs: usize,
    pure_completion: f64,
    pure_tokens_total: u64,
    pure_tokens_per_run: f64,
    hybrid_completion: f64,
    hybrid_tokens_total: u64,
    hybrid_tokens_per_run: f64,
    /// Pure tokens per hybrid token (whole-sweep ratio; the crossover
    /// curve the artifact exists for).
    token_ratio: f64,
    /// Drift/fallback/recompile tallies from the hybrid arm's trace.
    compiled_steps: u64,
    drifts: u64,
    fallbacks: u64,
    recompiled: u64,
}

/// One epoch of the drift study: a new rename lands, the first run pays
/// FM fallbacks, the recompiled second run must not pay them again.
#[derive(Debug, Serialize)]
struct EpochRow {
    epoch: usize,
    drift: String,
    first_run_tokens: u64,
    second_run_tokens: u64,
    first_drifts: u64,
    second_drifts: u64,
    /// Cumulative splices the script has absorbed by the end of the epoch.
    recompiled_total: u64,
}

/// Measured deployment economics: the hybrid column of the §3 crossover
/// table, priced from this sweep's own token counts.
#[derive(Debug, Serialize)]
struct Economics {
    pricing: String,
    /// One validated FM run's tokens — the whole "integration project".
    compile_cost_usd: f64,
    /// Fallback spend per item at the top fault rate (the worst case the
    /// sweep measured; 0 on a drift-free page).
    fallback_cost_per_item_usd: f64,
    hybrid_break_even_vs_rpa_months: Option<usize>,
    hybrid_break_even_vs_pure_fm_months: Option<usize>,
}

/// The whole artifact. Wall-clock-free: byte-reproducible.
#[derive(Debug, Serialize)]
struct HybridBenchJson {
    suite_tasks: usize,
    reps: usize,
    fleet_seed: u64,
    chaos_seed: u64,
    profile: String,
    fault_rates: Vec<f64>,
    determinism: String,
    token_floor: String,
    completion_parity: String,
    recompile: String,
    points: Vec<HybridPoint>,
    epochs: Vec<EpochRow>,
    economics: Economics,
}

fn specs(rate: f64, hybrid: bool) -> Vec<RunSpec> {
    let mut specs = suite_specs(FLEET_SEED, TASKS, REPS, PROFILE);
    for spec in &mut specs {
        // Same chaos as chaos_bench, step-budget extension included.
        under_chaos(spec, CHAOS_SEED, rate);
        if hybrid {
            spec.hybrid = Some(HybridPolicy::default());
        }
    }
    specs
}

fn fleet(workers: usize) -> Fleet {
    Fleet::new(FleetConfig {
        workers,
        queue_capacity: 2 * workers.max(1),
        // Single attempt, matching chaos_bench: the comparison is
        // in-run economics, not scheduler retries.
        retry: RetryPolicy::none(),
        fleet_seed: FLEET_SEED,
    })
}

/// Tally the hybrid lifecycle events out of a merged trace.
fn hybrid_counts(trace: &[TraceEvent]) -> (u64, u64, u64, u64) {
    let (mut compiled, mut drifts, mut fallbacks, mut recompiled) = (0u64, 0u64, 0u64, 0u64);
    for e in trace {
        match &e.kind {
            EventKind::CompiledStep { .. } => compiled += 1,
            EventKind::DriftDetected { .. } => drifts += 1,
            EventKind::FallbackStep { .. } => fallbacks += 1,
            EventKind::Recompiled { .. } => recompiled += 1,
            _ => {}
        }
    }
    (compiled, drifts, fallbacks, recompiled)
}

/// The drift-epoch study. One script compiled once — then downgraded to
/// *vision-grade* anchors on its click steps (`ByLabel` of what is on
/// the glass), the paper's DOM-free setting where a compiler has no
/// accessibility names to anchor on. Three epochs of accumulating label
/// drift follow, each breaking exactly one anchor in an FM-repairable
/// way (the new label keeps every query token). The first run of an
/// epoch pays an FM fallback; the splice upgrades the anchor to the
/// durable name the repair resolved, so the second back-to-back run must
/// not pay again. The gate: within every epoch, second-run tokens are
/// strictly below first-run tokens, and both runs still complete.
fn drift_epochs() -> (Vec<EpochRow>, Result<(), String>) {
    let task = all_tasks()
        .into_iter()
        .find(|t| t.id == "gitlab-01")
        .expect("suite carries gitlab-01");
    let mut recorder = TraceRecorder::new();
    let mut script = compile_task(&task, &mut recorder).expect("gold trace compiles");
    for step in &mut script.steps {
        if matches!(step.op, eclair_rpa::RpaOp::Click) {
            step.selector = eclair_rpa::Selector::ByLabel(step.query.clone());
        }
    }
    let relabels = [
        ("New issue", "New issue »"),
        ("Issues", "Issues »"),
        ("Create issue", "Create issue »"),
    ];
    let mut ops: Vec<DriftOp> = Vec::new();
    let mut rows = Vec::with_capacity(relabels.len());
    let mut gate = Ok(());
    let fail = |msg: String, gate: &mut Result<(), String>| {
        if gate.is_ok() {
            *gate = Err(msg);
        }
    };
    for (e, (from, to)) in relabels.iter().enumerate() {
        ops.push(DriftOp::Relabel {
            from: from.to_string(),
            to: to.to_string(),
        });
        let theme = Theme::with_ops(ops.clone());
        let cfg = eclair_core::execute::executor::ExecConfig::with_sop(task.gold_sop.clone())
            .budgeted(task.gold_trace.len());
        let mut run = |stream: u64| {
            let mut model = PROFILE.instantiate(derive_seed(FLEET_SEED, stream));
            let mut session = task.site.launch_with_theme(theme.clone());
            let report = run_hybrid_on_session(&mut model, &mut session, &mut script, &cfg);
            let ok = task.success.evaluate(&session);
            (report.drifts() as u64, model.meter().total_tokens(), ok)
        };
        let (first_drifts, first_tokens, ok1) = run(1_000 + e as u64);
        let (second_drifts, second_tokens, ok2) = run(2_000 + e as u64);
        if !ok1 || !ok2 {
            fail(
                format!("epoch {e}: task regressed (first ok={ok1}, second ok={ok2})"),
                &mut gate,
            );
        }
        if first_tokens == 0 {
            fail(
                format!("epoch {e}: relabel {from} -> {to} provoked no fallback"),
                &mut gate,
            );
        }
        if second_tokens >= first_tokens {
            fail(
                format!(
                    "epoch {e}: second run spent {second_tokens} tokens against {first_tokens} — the splice did not hold"
                ),
                &mut gate,
            );
        }
        rows.push(EpochRow {
            epoch: e + 1,
            drift: format!("relabel {from} -> {to}"),
            first_run_tokens: first_tokens,
            second_run_tokens: second_tokens,
            first_drifts,
            second_drifts,
            recompiled_total: script.recompiled,
        });
    }
    (rows, gate)
}

fn main() -> ExitCode {
    let args = Args::parse(&["--out", "--determinism-out", "--metrics-out"]);
    eclair_trace::perf::reset();
    println!(
        "hybrid_bench: {} tasks x {} reps, rates {:?}, profile {}, seeds fleet={} chaos={}",
        TASKS,
        REPS,
        RATES,
        PROFILE.name(),
        FLEET_SEED,
        CHAOS_SEED
    );

    // Determinism gate on the canonical hybrid point (top fault rate):
    // sequential vs 4-worker pool must serialize byte-identically.
    let top_rate = RATES[RATES.len() - 1];
    let canon_seq = fleet(1)
        .run_sequential(specs(top_rate, true))
        .expect("sequential canonical point");
    let canon = RunBytes::of(&canon_seq);
    let canon_par = fleet(4)
        .run(specs(top_rate, true))
        .expect("parallel canonical point");
    let determinism_ok = RunBytes::of(&canon_par) == canon;
    println!(
        "determinism (hybrid @ {top_rate}): {}",
        if determinism_ok { "ok" } else { "MISMATCH" }
    );
    let mut metrics = fleet_metrics(&canon_seq.outcome, &canon_seq.merged_trace);
    let (compiled, drifts, fallbacks, recompiled) = hybrid_counts(&canon_seq.merged_trace);
    metrics.inc("hybrid.compiled_steps", compiled);
    metrics.inc("hybrid.drifts_detected", drifts);
    metrics.inc("hybrid.fm_fallbacks", fallbacks);
    metrics.inc("hybrid.recompiled_steps", recompiled);
    metrics.absorb_perf(&eclair_trace::perf::snapshot());

    let mut points = Vec::with_capacity(RATES.len());
    for rate in RATES {
        let pure = fleet(4).run(specs(rate, false)).expect("pure sweep point");
        let hybrid = fleet(4).run(specs(rate, true)).expect("hybrid sweep point");
        let runs = pure.outcome.records.len();
        let pure_total = pure.outcome.tokens.total_tokens();
        let hybrid_total = hybrid.outcome.tokens.total_tokens();
        let (compiled, drifts, fallbacks, recompiled) = hybrid_counts(&hybrid.merged_trace);
        let pt = HybridPoint {
            fault_rate: rate,
            runs,
            pure_completion: pure.outcome.completion_rate(),
            pure_tokens_total: pure_total,
            pure_tokens_per_run: pure_total as f64 / runs.max(1) as f64,
            hybrid_completion: hybrid.outcome.completion_rate(),
            hybrid_tokens_total: hybrid_total,
            hybrid_tokens_per_run: hybrid_total as f64 / runs.max(1) as f64,
            token_ratio: pure_total as f64 / hybrid_total.max(1) as f64,
            compiled_steps: compiled,
            drifts,
            fallbacks,
            recompiled,
        };
        println!(
            "rate {:.2}: pure {:.0} tok/run ({:.2} done) vs hybrid {:.0} tok/run ({:.2} done) — {:.0}x cheaper, {} drifts / {} fallbacks / {} recompiled",
            rate,
            pt.pure_tokens_per_run,
            pt.pure_completion,
            pt.hybrid_tokens_per_run,
            pt.hybrid_completion,
            pt.token_ratio,
            pt.drifts,
            pt.fallbacks,
            pt.recompiled,
        );
        points.push(pt);
    }

    // Token floor at rate 0: on drift-free pages the compiled bot must
    // make the FM essentially free.
    let base = &points[0];
    let token_floor = if base.token_ratio >= TOKEN_FLOOR {
        format!(
            "ok ({:.0}x >= {TOKEN_FLOOR:.0}x at rate 0)",
            base.token_ratio
        )
    } else {
        format!(
            "VIOLATED: {:.1}x < {TOKEN_FLOOR:.0}x at rate 0",
            base.token_ratio
        )
    };

    // Completion parity at every rate: the rescue makes hybrid strictly
    // no worse than pure.
    let completion_parity = match points
        .iter()
        .find(|p| p.hybrid_completion + 1e-9 < p.pure_completion)
    {
        None => "ok".to_string(),
        Some(p) => format!(
            "VIOLATED: hybrid {:.2} < pure {:.2} at rate {}",
            p.hybrid_completion, p.pure_completion, p.fault_rate
        ),
    };

    let (epochs, recompile_gate) = drift_epochs();
    for r in &epochs {
        println!(
            "epoch {} ({}): first run {} tok / {} drifts, second run {} tok / {} drifts, {} splices total",
            r.epoch,
            r.drift,
            r.first_run_tokens,
            r.first_drifts,
            r.second_run_tokens,
            r.second_drifts,
            r.recompiled_total,
        );
    }

    // Price the hybrid column of the §3 crossover table from this sweep's
    // own measurements: compiling costs one validated pure-FM run; each
    // item costs only the fallbacks the top fault rate provoked.
    let pricing = Pricing::gpt4_turbo();
    let usd = |tokens_per_run: f64| {
        // The sweep doesn't split prompt/completion per arm; price at the
        // prompt rate, which dominates grounding calls.
        tokens_per_run * pricing.prompt_per_m / 1_000_000.0
    };
    let compile_cost_usd = usd(base.pure_tokens_per_run);
    let fallback_cost_per_item_usd = usd(points.last().unwrap().hybrid_tokens_per_run);
    let hybrid_model = CostModel::hybrid_compiled(compile_cost_usd, fallback_cost_per_item_usd);
    let rpa = CostModel::rpa_b2b_case_study();
    let pure_fm = CostModel::eclair_measured(usd(base.pure_tokens_per_run));
    let economics = Economics {
        pricing: "gpt-4-turbo list ($10/M prompt)".to_string(),
        compile_cost_usd,
        fallback_cost_per_item_usd,
        hybrid_break_even_vs_rpa_months: hybrid_model.break_even_vs(&rpa, 1000.0, 25.0, 36),
        hybrid_break_even_vs_pure_fm_months: hybrid_model.break_even_vs(&pure_fm, 1000.0, 25.0, 36),
    };
    println!(
        "economics: compile ${:.4}/workflow, fallback ${:.6}/item; breaks even vs RPA at month {:?}, vs pure FM at month {:?}",
        economics.compile_cost_usd,
        economics.fallback_cost_per_item_usd,
        economics.hybrid_break_even_vs_rpa_months,
        economics.hybrid_break_even_vs_pure_fm_months,
    );

    let artifact = HybridBenchJson {
        suite_tasks: TASKS,
        reps: REPS,
        fleet_seed: FLEET_SEED,
        chaos_seed: CHAOS_SEED,
        profile: PROFILE.name().to_string(),
        fault_rates: RATES.to_vec(),
        determinism: if determinism_ok { "ok" } else { "MISMATCH" }.to_string(),
        token_floor: token_floor.clone(),
        completion_parity: completion_parity.clone(),
        recompile: match &recompile_gate {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("VIOLATED: {e}"),
        },
        points,
        epochs,
        economics,
    };
    args.write_artifact("BENCH_hybrid.json", &artifact);
    args.write_with("--determinism-out", || canon.dump());
    args.write_metrics(&metrics);

    let mut failed = Vec::new();
    if !determinism_ok {
        failed
            .push("hybrid fleet diverged between sequential and concurrent execution".to_string());
    }
    if token_floor.starts_with("VIOLATED") {
        failed.push(token_floor);
    }
    if completion_parity.starts_with("VIOLATED") {
        failed.push(format!("completion parity — {completion_parity}"));
    }
    if let Err(e) = recompile_gate {
        failed.push(format!("recompilation gate — {e}"));
    }
    finish(failed)
}
