//! Regenerate the Section 3 case-study dynamics: an RPA deployment under
//! quarterly UI drift with bounded maintenance, vs ECLAIR's day-one agent.

use std::process::ExitCode;

use eclair_bench::{
    automate_sweep, finish, render_trace_rollup, shape_gate, summary_snapshot, Args,
};
use eclair_core::experiments::case_study;
use eclair_metrics::table::fmt2;
use eclair_metrics::Table;

fn main() -> ExitCode {
    let args = Args::parse(&["--trace-out", "--metrics-out"]);
    eclair_trace::perf::reset();
    let result = case_study::run(case_study::CaseStudyConfig::default());
    println!("Section 3 case studies: RPA deployment dynamics (invoice + eligibility workflows)\n");
    let mut t = Table::new(vec!["month", "RPA accuracy", "fixes", "UI update"]).numeric();
    for m in &result.rpa.months {
        t.row(vec![
            m.month.to_string(),
            fmt2(m.accuracy),
            m.fixes_applied.to_string(),
            if m.drift_applied { "yes" } else { "" }.to_string(),
        ]);
    }
    println!("{}", t.to_ascii());
    println!(
        "\nRPA: initial accuracy {} → peak {} (paper: ~60% → ~95% after months of fixes)",
        fmt2(result.rpa.initial_accuracy()),
        fmt2(result.rpa.peak_accuracy())
    );
    if let Some(m) = result.rpa.months_to_reach(0.9) {
        println!("RPA crosses 90% in month {m}");
    }
    println!(
        "\nECLAIR on the same workflows, day one, from written SOPs: {} completion",
        fmt2(result.eclair_completion)
    );
    println!(
        "FM cost per run: ${:.3}; cumulative cost at horizon (1k items/mo): RPA ${:.0} vs ECLAIR ${:.0}",
        result.eclair_cost_per_run, result.rpa_cum_cost, result.eclair_cum_cost
    );
    println!("\ntrace rollup (ECLAIR side):");
    println!("{}", render_trace_rollup(&result.trace));
    // Snapshot perf before the flight-record sweep runs: the metrics must
    // not depend on whether --trace-out was passed.
    let metrics = summary_snapshot(&result.trace);
    args.write_with("--trace-out", || automate_sweep(10, 7).jsonl);
    println!();
    let shape = shape_gate(
        result.shape_holds(),
        "60%→95% ramp; agent viable from day one",
    );
    args.write_metrics(&metrics);
    finish(shape)
}
