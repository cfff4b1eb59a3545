//! Regenerate the paper's Table 3 (Execute: grounding accuracy).

use std::process::ExitCode;

use eclair_bench::{
    finish, render_table3, render_trace_rollup, shape_gate, summary_snapshot, Args,
};
use eclair_core::experiments::table3;

fn main() -> ExitCode {
    let args = Args::parse(&["--metrics-out"]);
    eclair_trace::perf::reset();
    let result = table3::run(table3::Table3Config::default());
    println!("Table 3: (Execute) accuracy on grounding actions to GUI elements");
    println!("(Mind2Web-sim: 302 pages, WebUI-sim: 120 pages; HTML boxes WebUI-only)\n");
    println!("{}", render_table3(&result));
    println!();
    println!("{}", result.paper_comparison().render());
    println!("trace rollup:\n{}", render_trace_rollup(&result.trace));
    let shape = shape_gate(
        result.shape_holds(),
        "SoM transforms GPT-4; CogAgent leads, esp. small elements",
    );
    args.write_metrics(&summary_snapshot(&result.trace));
    finish(shape)
}
