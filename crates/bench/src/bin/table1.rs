//! Regenerate the paper's Table 1 (Demonstrate: SOP generation).

use std::process::ExitCode;

use eclair_bench::{
    finish, render_table1, render_trace_rollup, shape_gate, summary_snapshot, Args,
};
use eclair_core::experiments::table1;

fn main() -> ExitCode {
    let args = Args::parse(&["--metrics-out"]);
    eclair_trace::perf::reset();
    let cfg = table1::Table1Config::default();
    let result = table1::run(cfg);
    println!(
        "Table 1: (Demonstrate) SOP generation, averaged over {} workflows\n",
        cfg.tasks
    );
    println!("{}", render_table1(&result));
    println!();
    println!("{}", result.paper_comparison().render());
    println!("trace rollup:\n{}", render_trace_rollup(&result.trace));
    let shape = shape_gate(result.shape_holds(), "evidence monotonicity holds");
    args.write_metrics(&summary_snapshot(&result.trace));
    finish(shape)
}
