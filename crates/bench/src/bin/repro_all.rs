//! Run every experiment and print a combined paper-vs-measured summary —
//! the artifact EXPERIMENTS.md records.

use std::process::ExitCode;

use eclair_bench::*;
use eclair_core::experiments::{case_study, fig2, table1, table2, table3, table4};
use eclair_workflow::category::figure2_examples;

fn main() -> ExitCode {
    let args = Args::parse(&["--trace-out", "--metrics-out"]);
    eclair_trace::perf::reset();
    let mut passed = 0usize;
    let mut total = 0usize;
    let mut shapes: Vec<(String, Result<(), String>)> = Vec::new();
    let mut rollup = eclair_trace::RunSummary::default();

    println!("=== Table 1 ===\n");
    let t1 = table1::run(table1::Table1Config::default());
    println!("{}", render_table1(&t1));
    let c = t1.paper_comparison();
    println!("{}", c.render());
    println!("trace rollup:\n{}", render_trace_rollup(&t1.trace));
    passed += c.passed();
    total += c.rows.len();
    shapes.push(("Table 1".into(), t1.shape_holds()));
    rollup.merge(&t1.trace);

    println!("=== Table 2 ===\n");
    let t2 = table2::run(table2::Table2Config::default());
    println!("{}", render_table2(&t2));
    let c = t2.paper_comparison();
    println!("{}", c.render());
    println!("trace rollup:\n{}", render_trace_rollup(&t2.trace));
    passed += c.passed();
    total += c.rows.len();
    shapes.push(("Table 2".into(), t2.shape_holds()));
    rollup.merge(&t2.trace);

    println!("=== Table 3 ===\n");
    let t3 = table3::run(table3::Table3Config::default());
    println!("{}", render_table3(&t3));
    let c = t3.paper_comparison();
    println!("{}", c.render());
    println!("trace rollup:\n{}", render_trace_rollup(&t3.trace));
    passed += c.passed();
    total += c.rows.len();
    shapes.push(("Table 3".into(), t3.shape_holds()));
    rollup.merge(&t3.trace);

    println!("=== Table 4 ===\n");
    let t4 = table4::run(table4::Table4Config::default());
    println!("{}", render_table4(&t4));
    let c = t4.paper_comparison();
    println!("{}", c.render());
    println!("trace rollup:\n{}", render_trace_rollup(&t4.trace));
    passed += c.passed();
    total += c.rows.len();
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
