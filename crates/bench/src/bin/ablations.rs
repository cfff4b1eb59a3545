//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * A1 — end-to-end completion by grounding strategy × model profile;
//! * A2 — detector quality (default vs oracle YOLO-sim): the paper's
//!   "detecting elements … is not the bottleneck" claim;
//! * A3 — multi-agent ensemble size vs completion (§5);
//! * A4 — self-consistency voting vs single-shot judgment on the
//!   actuation-validation dataset (§5's "repeatedly querying and
//!   ensembling predictions").

use eclair_bench::{automate_sweep, render_trace_rollup, summary_snapshot, Args};
use eclair_core::demonstrate::record_gold_demo;
use eclair_core::execute::executor::{run_task, ExecConfig};
use eclair_core::execute::GroundingStrategy;
use eclair_core::experiments::grounding_corpus::{generate, Corpus};
use eclair_core::multiagent::first_success;
use eclair_core::validate::check_actuation;
use eclair_fm::sampling::Sampling;
use eclair_fm::{FmModel, ModelProfile};
use eclair_metrics::table::fmt2;
use eclair_metrics::{BinaryConfusion, Table};
use eclair_sites::all_tasks;
use eclair_trace::RunSummary;
use eclair_vision::detector::YoloNasSim;

/// SoM grounding accuracy over `samples` with a given detector quality.
fn accuracy_with_detector(
    samples: &[eclair_core::experiments::grounding_corpus::GroundingSample],
    detector: &YoloNasSim,
    seed: u64,
    trace: &mut RunSummary,
) -> f64 {
    use eclair_core::execute::ground::associate_captions;
    use eclair_vision::marks::marks_via_detector;
    let mut hits = 0usize;
    for (i, s) in samples.iter().enumerate() {
        let mut model = FmModel::new(ModelProfile::gpt4v(), seed + i as u64);
        let shot = s.page.screenshot_at(0);
        let mut marked = marks_via_detector(&shot, detector, model.rng());
        associate_captions(&mut marked.marks, &shot);
        let out = model.ground_marks(&marked, &s.description);
        if out
            .click_point(&marked.marks)
            .map(|p| s.truth.contains(p))
            .unwrap_or(false)
        {
            hits += 1;
        }
        trace.merge(&model.trace().summary());
    }
    hits as f64 / samples.len().max(1) as f64
}

fn main() {
    let args = Args::parse(&["--trace-out", "--metrics-out"]);
    eclair_trace::perf::reset();
    let n_tasks = 15;
    let tasks: Vec<_> = all_tasks().into_iter().take(n_tasks).collect();
    let mut trace = RunSummary::default();

    // ----- A1: grounding strategy × profile → completion
    println!("A1: completion by grounding strategy x model ({n_tasks} tasks, 2 reps)\n");
    let mut t = Table::new(vec!["model", "strategy", "completion"]).numeric();
    for (pname, profile) in [
        ("GPT-4", ModelProfile::gpt4v()),
        ("CogAgent", ModelProfile::cogagent_18b()),
    ] {
        for strategy in [
            GroundingStrategy::Native,
            GroundingStrategy::SomYolo,
            GroundingStrategy::SomHtml,
        ] {
            let mut wins = 0usize;
            let mut total = 0usize;
            for rep in 0..2u64 {
                for (i, task) in tasks.iter().enumerate() {
                    let mut cfg =
                        ExecConfig::with_sop(task.gold_sop.clone()).budgeted(task.gold_trace.len());
                    cfg.strategy = strategy;
                    let mut model = FmModel::new(profile.clone(), 3000 + rep * 500 + i as u64);
                    total += 1;
                    if run_task(&mut model, task, &cfg).success {
                        wins += 1;
                    }
                    trace.merge(&model.trace().summary());
                }
            }
            t.row(vec![
                pname.to_string(),
                strategy.label().to_string(),
                fmt2(wins as f64 / total as f64),
            ]);
        }
    }
    println!("{}\n", t.to_ascii());

    // ----- A2: detector quality ablation
    println!("A2: SoM grounding accuracy vs detector quality (WebUI-sim)\n");
    let samples = generate(Corpus::WebUiSim, 120, 99);
    let default_acc = accuracy_with_detector(&samples, &YoloNasSim::default(), 7, &mut trace);
    let oracle_acc = accuracy_with_detector(&samples, &YoloNasSim::oracle(), 7, &mut trace);
    println!("default detector: {:.2}", default_acc);
    println!("oracle detector:  {:.2}", oracle_acc);
    println!(
        "gap: {:.2} — detection is {} the bottleneck (paper: selection dominates)\n",
        oracle_acc - default_acc,
        if oracle_acc - default_acc < 0.15 {
            "not"
        } else {
            "partly"
        }
    );

    // ----- A3: ensemble size
    println!("A3: multi-agent ensemble size vs completion\n");
    let mut t = Table::new(vec!["agents", "completion"]).numeric();
    for n in [1usize, 2, 4] {
        let mut wins = 0;
        for (i, task) in tasks.iter().enumerate() {
            let cfg = ExecConfig::with_sop(task.gold_sop.clone()).budgeted(task.gold_trace.len());
            if first_success(&ModelProfile::gpt4v(), task, &cfg, n, 7000 + i as u64).success {
                wins += 1;
            }
        }
        t.row(vec![n.to_string(), fmt2(wins as f64 / tasks.len() as f64)]);
    }
    println!("{}\n", t.to_ascii());

    // ----- A4: self-consistency on actuation validation
    println!("A4: actuation validation, single-shot vs 5-vote self-consistency\n");
    let mut t = Table::new(vec!["sampling", "precision", "recall", "F1"]).numeric();
    for (name, sampling) in [
        ("single", Sampling::greedy()),
        ("vote-5", Sampling::vote(5, 0.2)),
    ] {
        let mut cm = BinaryConfusion::default();
        let mut model = FmModel::new(ModelProfile::gpt4v(), 11);
        model.set_sampling(sampling);
        for task in tasks.iter().take(8) {
            let rec = record_gold_demo(task);
            for i in 0..rec.num_actions() {
                let Some((s, a, s2)) = rec.transition(i) else {
                    continue;
                };
                cm.observe(
                    check_actuation(&mut model, s, &a.describe(), s2).verdict,
                    true,
                );
                cm.observe(
                    check_actuation(&mut model, s, &a.describe(), s).verdict,
                    false,
                );
            }
        }
        trace.merge(&model.trace().summary());
        t.row(vec![
            name.to_string(),
            fmt2(cm.precision()),
            fmt2(cm.recall()),
            fmt2(cm.f1()),
        ]);
    }
    println!("{}", t.to_ascii());

    println!("\ntrace rollup (A1 + A2 + A4; A3's ensemble models are internal):");
    println!("{}", render_trace_rollup(&trace));
    args.write_with("--trace-out", || automate_sweep(10, 7).jsonl);
    args.write_metrics(&summary_snapshot(&trace));
}
