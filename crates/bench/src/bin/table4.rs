//! Regenerate the paper's Table 4 (Validate: self-monitoring).

use std::process::ExitCode;

use eclair_bench::{
    finish, render_table4, render_trace_rollup, shape_gate, summary_snapshot, Args,
};
use eclair_core::experiments::table4;

fn main() -> ExitCode {
    let args = Args::parse(&["--metrics-out"]);
    eclair_trace::perf::reset();
    let result = table4::run(table4::Table4Config::default());
    println!("Table 4: (Validate) performance of the FM on self-validation tasks\n");
    println!("{}", render_table4(&result));
    println!();
    println!("{}", result.paper_comparison().render());
    println!("trace rollup:\n{}", render_trace_rollup(&result.trace));
    let shape = shape_gate(
        result.shape_holds(),
        "workflow-level checks strong; integrity recall collapses",
    );
    args.write_metrics(&summary_snapshot(&result.trace));
    finish(shape)
}
