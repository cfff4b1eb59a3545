//! Regenerate the paper's Table 2 (Execute: suggestion & completion).

use std::process::ExitCode;

use eclair_bench::{
    finish, render_table2, render_trace_rollup, shape_gate, summary_snapshot, Args,
};
use eclair_core::experiments::table2;

fn main() -> ExitCode {
    let args = Args::parse(&["--metrics-out"]);
    eclair_trace::perf::reset();
    let cfg = table2::Table2Config::default();
    let result = table2::run(cfg);
    println!(
        "Table 2: (Execute) GPT-4 average accuracy on next action suggestion\nwith and without SOP guidance ({} workflows, {} reps)\n",
        cfg.tasks, cfg.reps
    );
    println!("{}", render_table2(&result));
    println!();
    println!("{}", result.paper_comparison().render());
    println!("trace rollup:\n{}", render_trace_rollup(&result.trace));
    let shape = shape_gate(
        result.shape_holds(),
        "SOPs roughly double completion; grounding gap persists",
    );
    args.write_metrics(&summary_snapshot(&result.trace));
    finish(shape)
}
