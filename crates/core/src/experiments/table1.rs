//! Table 1 — (Demonstrate) SOP generation from demonstrations.
//!
//! For each of the 30 workflows: record a gold demonstration, generate an
//! SOP under each evidence level, score it against the human-written
//! reference (missing / incorrect / total / precision / recall), and
//! measure *correctness* by having an oracle-grounded follower execute the
//! generated SOP on a fresh session (the paper's "by following the GPT-4
//! SOP, can I complete the workflow?").

use eclair_fm::{FmModel, ModelProfile};
use eclair_metrics::{PaperComparison, Summary};
use eclair_sites::all_tasks;
use eclair_trace::RunSummary;
use eclair_workflow::score::score_sop;
use serde::{Deserialize, Serialize};

use crate::calibration;
use crate::demonstrate::{generate_sop, record_gold_demo, EvidenceLevel};
use crate::execute::executor::{run_task, ExecConfig};
use crate::execute::GroundingStrategy;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Table1Config {
    /// RNG seed base.
    pub seed: u64,
    /// Number of tasks to evaluate (≤30).
    pub tasks: usize,
}

impl Default for Table1Config {
    fn default() -> Self {
        Self {
            seed: calibration::SEED,
            tasks: 30,
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Method label ("WD", "WD+KF", "WD+KF+ACT", "Ground truth").
    pub method: String,
    /// Mean missing steps per SOP.
    pub missing: f64,
    /// Mean incorrect steps per SOP.
    pub incorrect: f64,
    /// Mean total steps per SOP.
    pub total: f64,
    /// Mean precision.
    pub precision: f64,
    /// Mean recall.
    pub recall: f64,
    /// Fraction of generated SOPs an oracle follower can complete the
    /// workflow with.
    pub correctness: f64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Result {
    /// Generated-method rows plus the ground-truth row, in paper order.
    pub rows: Vec<Table1Row>,
    /// Trace rollup across every FM call the experiment made.
    pub trace: RunSummary,
}

/// Can an oracle-grounded follower complete the workflow from this SOP?
fn sop_correct(
    task: &eclair_sites::TaskSpec,
    sop: &eclair_workflow::Sop,
    trace: &mut RunSummary,
) -> bool {
    let mut model = FmModel::new(ModelProfile::oracle(), 1);
    let cfg = ExecConfig {
        sop: Some(sop.clone()),
        strategy: GroundingStrategy::SomHtml,
        max_steps: (sop.len() * 2).max(8),
        use_cache: true,
    };
    let ok = run_task(&mut model, task, &cfg).success;
    trace.merge(&model.trace().summary());
    ok
}

/// Run the experiment.
pub fn run(cfg: Table1Config) -> Table1Result {
    let tasks: Vec<_> = all_tasks().into_iter().take(cfg.tasks.max(1)).collect();
    let mut rows = Vec::new();
    let mut trace = RunSummary::default();
    for level in EvidenceLevel::all() {
        let mut missing = Summary::new();
        let mut incorrect = Summary::new();
        let mut total = Summary::new();
        let mut precision = Summary::new();
        let mut recall = Summary::new();
        let mut correct = 0usize;
        for (ti, task) in tasks.iter().enumerate() {
            let rec = record_gold_demo(task);
            let mut model = FmModel::new(ModelProfile::gpt4v(), cfg.seed + ti as u64);
            let sop = generate_sop(&mut model, &task.intent, Some(&rec), level);
            trace.merge(&model.trace().summary());
            let score = score_sop(&sop, &task.gold_sop);
            missing.push(score.missing as f64);
            incorrect.push(score.incorrect as f64);
            total.push(score.total as f64);
            precision.push(score.precision);
            recall.push(score.recall);
            if sop_correct(task, &sop, &mut trace) {
                correct += 1;
            }
        }
        rows.push(Table1Row {
            method: level.label().to_string(),
            missing: missing.mean(),
            incorrect: incorrect.mean(),
            total: total.mean(),
            precision: precision.mean(),
            recall: recall.mean(),
            correctness: correct as f64 / tasks.len() as f64,
        });
    }
    // Ground-truth reference row.
    let gt_total: f64 =
        tasks.iter().map(|t| t.gold_sop.len() as f64).sum::<f64>() / tasks.len() as f64;
    rows.push(Table1Row {
        method: "Ground truth".into(),
        missing: 0.0,
        incorrect: 0.0,
        total: gt_total,
        precision: 1.0,
        recall: 1.0,
        correctness: 1.0,
    });
    Table1Result { rows, trace }
}

impl Table1Result {
    /// Paper-vs-measured comparison (Table 1's published cells).
    pub fn paper_comparison(&self) -> PaperComparison {
        let mut c = PaperComparison::new("Table 1 (Demonstrate): SOP generation");
        let paper: &[(&str, f64, f64, f64)] = &[
            // (method, precision, recall, correctness)
            ("WD", 0.75, 0.81, 0.60),
            ("WD+KF", 0.89, 0.92, 0.90),
            ("WD+KF+ACT", 0.94, 0.95, 0.93),
        ];
        for (method, p, r, corr) in paper {
            if let Some(row) = self.rows.iter().find(|row| row.method == *method) {
                c.push(format!("{method} precision"), *p, row.precision, 0.15);
                c.push(format!("{method} recall"), *r, row.recall, 0.15);
                c.push(
                    format!("{method} correctness"),
                    *corr,
                    row.correctness,
                    0.20,
                );
            }
        }
        c
    }

    /// The qualitative claims Table 1 supports; each must hold for the
    /// reproduction to count.
    pub fn shape_holds(&self) -> Result<(), String> {
        let get = |m: &str| {
            self.rows
                .iter()
                .find(|r| r.method == m)
                .cloned()
                .ok_or_else(|| format!("missing row {m}"))
        };
        let wd = get("WD")?;
        let kf = get("WD+KF")?;
        let act = get("WD+KF+ACT")?;
        // ACT vs KF gets a small epsilon: at smoke-run granularity (8
        // tasks) both saturate near 1.0 and can swap by one SOP.
        if !(act.precision + 0.05 >= kf.precision && kf.precision > wd.precision) {
            return Err(format!(
                "precision must increase with evidence: {:.2} / {:.2} / {:.2}",
                wd.precision, kf.precision, act.precision
            ));
        }
        if !(act.incorrect <= kf.incorrect + 0.25 && kf.incorrect < wd.incorrect) {
            return Err(format!(
                "hallucinations must decrease with evidence: {:.2} / {:.2} / {:.2}",
                wd.incorrect, kf.incorrect, act.incorrect
            ));
        }
        if wd.total <= act.total {
            return Err("WD SOPs should be the most verbose".into());
        }
        // Correctness rises with evidence; KF vs WD gets a small epsilon
        // because both sit in the same regime at 30-task granularity.
        if !(act.correctness >= kf.correctness && kf.correctness + 0.05 >= wd.correctness) {
            return Err(format!(
                "correctness must increase with evidence: {:.2} / {:.2} / {:.2}",
                wd.correctness, kf.correctness, act.correctness
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let result = run(Table1Config {
            tasks: 30,
            ..Default::default()
        });
        result.shape_holds().expect("Table 1 orderings hold");
        let cmp = result.paper_comparison();
        assert!(
            cmp.passed() >= cmp.rows.len() - 2,
            "most Table 1 cells within band:\n{}",
            cmp.render()
        );
    }

    #[test]
    fn ground_truth_row_is_reference() {
        let result = run(Table1Config {
            tasks: 5,
            ..Default::default()
        });
        let gt = result.rows.last().unwrap();
        assert_eq!(gt.method, "Ground truth");
        assert_eq!(gt.precision, 1.0);
        assert_eq!(gt.missing, 0.0);
        assert!(gt.total > 3.0);
    }
}
