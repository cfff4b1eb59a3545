//! Regenerate the paper's Figure 2 (workflow-automatability taxonomy).

use std::process::ExitCode;

use eclair_bench::{finish, shape_gate, Args};
use eclair_core::experiments::fig2;
use eclair_obs::MetricsRegistry;
use eclair_workflow::category::figure2_examples;

fn main() -> ExitCode {
    let args = Args::parse(&["--metrics-out"]);
    let result = fig2::run();
    println!("Figure 2: categories of workflows vs the technology able to automate them");
    println!("(the paper's five real hospital workflows; v=yes, ~=somewhat, x=no)\n");
    println!("{}", result.render());
    let (rpa, eclair) = fig2::coverage(&figure2_examples());
    println!(
        "\nportfolio coverage: RPA {:.0}% → ECLAIR {:.0}%  (the paper's 'could double\nthe amount of knowledge work that can be automated')",
        rpa * 100.0,
        eclair * 100.0
    );
    let shape = shape_gate(result.shape_holds(), "ECLAIR strictly extends RPA coverage");
    // No trace here — the taxonomy is a static analysis — so the
    // snapshot carries the coverage figures as basis-point gauges.
    let mut metrics = MetricsRegistry::new();
    metrics.set_gauge("fig2.coverage_rpa_bp", (rpa * 10_000.0).round() as i64);
    metrics.set_gauge(
        "fig2.coverage_eclair_bp",
        (eclair * 10_000.0).round() as i64,
    );
    metrics.set_gauge("fig2.workflows", figure2_examples().len() as i64);
    args.write_metrics(&metrics);
    finish(shape)
}
