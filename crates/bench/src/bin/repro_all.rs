//! Run every experiment and print a combined paper-vs-measured summary —
//! the artifact EXPERIMENTS.md records. `--scorecard-out` writes the
//! same cells, shape verdicts and sweep wins as `BENCH_paper.json`.

use std::process::ExitCode;

use eclair_bench::*;
use eclair_core::experiments::{case_study, fig2, table1, table2, table3, table4};
use eclair_metrics::PaperComparison;
use eclair_workflow::category::figure2_examples;
use serde::Serialize;

/// The scorecard: every paper-vs-measured cell, every shape verdict and
/// the end-to-end sweep's wins.
#[derive(Debug, Serialize)]
struct Scorecard {
    cells_in_band: usize,
    cells_total: usize,
    cells: Vec<Cell>,
    shapes: Vec<Shape>,
    sweep_tasks: usize,
    sweep_wins: usize,
}

/// One paper-vs-measured cell.
#[derive(Debug, Serialize)]
struct Cell {
    /// The comparison's title.
    table: String,
    cell: String,
    paper: f64,
    measured: f64,
    /// Absolute tolerance around `paper`.
    band: f64,
    in_band: bool,
}

/// One shape check's verdict.
#[derive(Debug, Serialize)]
struct Shape {
    name: String,
    holds: bool,
    /// Why it failed; `None` when it holds.
    failure: Option<String>,
}

fn cells(comparisons: &[PaperComparison]) -> Vec<Cell> {
    comparisons
        .iter()
        .flat_map(|c| {
            c.rows.iter().map(|r| Cell {
                table: c.title.clone(),
                cell: r.name.clone(),
                paper: r.paper,
                measured: r.measured,
                band: r.tolerance,
                in_band: r.within_band(),
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let args = Args::parse(&["--trace-out", "--metrics-out", "--scorecard-out"]);
    eclair_trace::perf::reset();
    let mut comparisons: Vec<PaperComparison> = Vec::new();
    let mut shapes: Vec<(String, Result<(), String>)> = Vec::new();
    let mut rollup = eclair_trace::RunSummary::default();

    println!("=== Table 1 ===\n");
    let t1 = table1::run(table1::Table1Config::default());
    println!("{}", render_table1(&t1));
    let c = t1.paper_comparison();
    println!("{}", c.render());
    println!("trace rollup:\n{}", render_trace_rollup(&t1.trace));
    comparisons.push(c);
    shapes.push(("Table 1".into(), t1.shape_holds()));
    rollup.merge(&t1.trace);

    println!("=== Table 2 ===\n");
    let t2 = table2::run(table2::Table2Config::default());
    println!("{}", render_table2(&t2));
    let c = t2.paper_comparison();
    println!("{}", c.render());
    println!("trace rollup:\n{}", render_trace_rollup(&t2.trace));
    comparisons.push(c);
    shapes.push(("Table 2".into(), t2.shape_holds()));
    rollup.merge(&t2.trace);

    println!("=== Table 3 ===\n");
    let t3 = table3::run(table3::Table3Config::default());
    println!("{}", render_table3(&t3));
    let c = t3.paper_comparison();
    println!("{}", c.render());
    println!("trace rollup:\n{}", render_trace_rollup(&t3.trace));
    comparisons.push(c);
    shapes.push(("Table 3".into(), t3.shape_holds()));
    rollup.merge(&t3.trace);

    println!("=== Table 4 ===\n");
    let t4 = table4::run(table4::Table4Config::default());
    println!("{}", render_table4(&t4));
    let c = t4.paper_comparison();
    println!("{}", c.render());
    println!("trace rollup:\n{}", render_trace_rollup(&t4.trace));
    comparisons.push(c);
    shapes.push(("Table 4".into(), t4.shape_holds()));
    rollup.merge(&t4.trace);

    println!("=== Figure 2 ===\n");
    let f2 = fig2::run();
    println!("{}", f2.render());
    let (rpa_cov, eclair_cov) = fig2::coverage(&figure2_examples());
    println!(
        "\ncoverage: RPA {:.0}% → ECLAIR {:.0}%",
        rpa_cov * 100.0,
        eclair_cov * 100.0
    );
    shapes.push(("Figure 2".into(), f2.shape_holds()));

    println!("\n=== Section 3 case study ===\n");
    let cs = case_study::run(case_study::CaseStudyConfig::default());
    println!(
        "RPA ramp: {:.2} → {:.2}; ECLAIR day-one completion: {:.2}",
        cs.rpa.initial_accuracy(),
        cs.rpa.peak_accuracy(),
        cs.eclair_completion
    );
    println!("trace rollup:\n{}", render_trace_rollup(&cs.trace));
    shapes.push(("Case study".into(), cs.shape_holds()));
    rollup.merge(&cs.trace);

    println!("\n=== End-to-end sweep ===\n");
    let sweep = automate_sweep(10, eclair_core::calibration::SEED);
    println!(
        "Eclair::automate over {} tasks: {}/{} complete",
        sweep.total, sweep.wins, sweep.total
    );
    println!("trace rollup:\n{}", render_trace_rollup(&sweep.summary));
    rollup.merge(&sweep.summary);
    args.write_with("--trace-out", || sweep.jsonl);
    args.write_metrics(&summary_snapshot(&rollup));

    let cells = cells(&comparisons);
    let passed = cells.iter().filter(|c| c.in_band).count();
    let total = cells.len();
    args.write_with("--scorecard-out", || {
        let card = Scorecard {
            cells_in_band: passed,
            cells_total: total,
            cells,
            shapes: shapes
                .iter()
                .map(|(name, r)| Shape {
                    name: name.clone(),
                    holds: r.is_ok(),
                    failure: r.clone().err(),
                })
                .collect(),
            sweep_tasks: sweep.total,
            sweep_wins: sweep.wins,
        };
        serde_json::to_string(&card).expect("scorecard serializes")
    });

    println!("\n=== Summary ===");
    println!("paper-vs-measured cells within band: {passed}/{total}");
    for (name, r) in &shapes {
        match r {
            Ok(()) => println!("{name}: shape PASS"),
            Err(e) => println!("{name}: shape FAIL — {e}"),
        }
    }
    finish(
        shapes
            .into_iter()
            .filter_map(|(name, r)| r.err().map(|e| format!("{name} shape: {e}"))),
    )
}
