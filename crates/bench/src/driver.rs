//! What every bench binary shares around its workload: the command line,
//! the files it writes, the fleet-determinism check and the exit code.
//!
//! A binary parses its flags with [`Args::parse`], writes through the
//! `Args` methods, collects the gates that failed as strings and returns
//! [`finish`] from `main`. A bad command line exits 2, an unwritable
//! output or a failed gate exits 1.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use eclair_chaos::ChaosProfile;
use eclair_corpus::rng::fnv1a64;
use eclair_fleet::{specs_for_tasks, FleetReport, RunSpec};
use eclair_fm::FmProfile;
use eclair_obs::MetricsRegistry;
use serde::Serialize;

/// A bench binary's command line: value flags, each followed by a path.
#[derive(Debug)]
pub struct Args {
    values: Vec<(&'static str, PathBuf)>,
}

impl Args {
    /// Parse the process arguments against the flags this binary accepts.
    /// An unknown argument or a flag without its path prints the error and
    /// a usage line, then exits 2.
    pub fn parse(accepted: &[&'static str]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Self::parse_from(accepted, argv).unwrap_or_else(|e| {
            let name = Path::new(&bin).file_name().unwrap_or_default();
            let flags: Vec<String> = accepted.iter().map(|f| format!("[{f} PATH]")).collect();
            eprintln!("error: {e}");
            eprintln!("usage: {} {}", name.to_string_lossy(), flags.join(" "));
            std::process::exit(2)
        })
    }

    /// The parser behind [`Args::parse`], over the arguments after the
    /// program name.
    fn parse_from(
        accepted: &[&'static str],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut values = Vec::new();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let Some(&flag) = accepted.iter().find(|f| **f == arg) else {
                return Err(format!("unknown argument `{arg}`"));
            };
            match argv.next() {
                Some(path) if !path.starts_with("--") => values.push((flag, PathBuf::from(path))),
                _ => return Err(format!("`{flag}` needs a path")),
            }
        }
        Ok(Args { values })
    }

    /// The path given for `flag`, if it was passed (the first one if it
    /// was passed twice).
    fn get(&self, flag: &str) -> Option<&Path> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, p)| p.as_path())
    }

    /// Write what `contents` builds to the path given for `flag`. Does
    /// nothing, and never calls `contents`, when the flag is absent.
    pub fn write_with<C: AsRef<[u8]>>(&self, flag: &str, contents: impl FnOnce() -> C) {
        if let Some(path) = self.get(flag) {
            write_file(path, contents().as_ref());
        }
    }

    /// Serialize the bench artifact to `--out`, or to `default` without it.
    pub fn write_artifact(&self, default: &str, artifact: &impl Serialize) {
        let json = serde_json::to_string(artifact).expect("bench artifact serializes");
        write_file(
            self.get("--out").unwrap_or(Path::new(default)),
            json.as_bytes(),
        );
    }

    /// Write `reg`'s `eclair-obs/v1` snapshot to `--metrics-out`.
    pub fn write_metrics(&self, reg: &MetricsRegistry) {
        self.write_with("--metrics-out", || reg.snapshot_json());
    }
}

fn write_file(path: &Path, contents: &[u8]) {
    if let Err(e) = std::fs::write(path, contents) {
        let failed = format!("cannot write {}: {e}", path.display());
        std::process::exit(gate_status([failed]).into());
    }
    println!("wrote {}", path.display());
}

/// The one exit path: print each failed gate and exit 1 if there was
/// any, 0 otherwise.
pub fn finish(failed: impl IntoIterator<Item = String>) -> ExitCode {
    ExitCode::from(gate_status(failed))
}

fn gate_status(failed: impl IntoIterator<Item = String>) -> u8 {
    let mut any = false;
    for gate in failed {
        eprintln!("FAIL: {gate}");
        any = true;
    }
    u8::from(any)
}

/// Print a paper-shape check's verdict and return it as a gate.
pub fn shape_gate(shape: Result<(), String>, holds: &str) -> Option<String> {
    match shape {
        Ok(()) => {
            println!("shape check: PASS ({holds})");
            None
        }
        Err(e) => {
            println!("shape check: FAIL — {e}");
            Some(format!("shape check: {e}"))
        }
    }
}

/// The first `tasks` suite tasks, `reps` times over, one spec each with
/// run ids in submission order.
pub fn suite_specs(fleet_seed: u64, tasks: usize, reps: usize, profile: FmProfile) -> Vec<RunSpec> {
    let suite: Vec<_> = eclair_sites::all_tasks().into_iter().take(tasks).collect();
    let repeated = std::iter::repeat_n(suite, reps).flatten().collect();
    specs_for_tasks(fleet_seed, repeated, profile)
}

/// Put `spec` under full-profile chaos at `rate`; a rate of 0 leaves it
/// alone. Fault handling consumes steps (modal dismissal, stale
/// re-suggestions, dropped actions), so the step budget grows by the
/// expected injection count: a fault-rate curve should measure recovery,
/// not budget starvation.
pub fn under_chaos(spec: &mut RunSpec, chaos_seed: u64, rate: f64) {
    if rate > 0.0 {
        spec.chaos = Some(ChaosProfile::full(chaos_seed, rate));
        let base = spec.config.max_steps;
        spec.config.max_steps = base + (base as f64 * rate).ceil() as usize;
    }
}

/// A fleet run reduced to the bytes the determinism contract compares:
/// the outcome JSON and the merged flight record. A pool of any width
/// must reproduce its sequential run's `RunBytes` exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct RunBytes {
    /// `FleetOutcome::to_json`.
    pub outcome: String,
    /// The merged trace as JSONL.
    pub trace: String,
}

impl RunBytes {
    /// Serialize `report`'s outcome and merged trace.
    pub fn of(report: &FleetReport) -> Self {
        RunBytes {
            outcome: report.outcome.to_json(),
            trace: report.merged_trace_jsonl().expect("merged trace"),
        }
    }

    /// The `--determinism-out` dump: the outcome JSON and an FNV-1a
    /// digest of the trace, which keeps the file small while covering
    /// every trace byte.
    pub fn dump(&self) -> String {
        format!(
            "{}\ntrace_fnv1a={:016x}\n",
            self.outcome,
            fnv1a64(self.trace.as_bytes())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&str] = &["--out", "--metrics-out"];

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse_from(FLAGS, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn value_present_is_returned() {
        let args = parse(&["--metrics-out", "m.json"]).expect("valid command line");
        assert_eq!(args.get("--metrics-out"), Some(Path::new("m.json")));
        assert_eq!(args.get("--out"), None);
    }

    #[test]
    fn value_missing_is_an_error() {
        assert_eq!(
            parse(&["--out", "a.json", "--metrics-out"]).unwrap_err(),
            "`--metrics-out` needs a path"
        );
        assert_eq!(
            parse(&["--metrics-out", "--out", "a.json"]).unwrap_err(),
            "`--metrics-out` needs a path"
        );
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            parse(&["--metric-out", "m.json"]).unwrap_err(),
            "unknown argument `--metric-out`"
        );
        // A flag another binary accepts is unknown here.
        assert!(parse(&["--trace-out", "t.jsonl"]).is_err());
    }

    #[test]
    fn failed_gates_exit_1_and_none_exit_0() {
        assert_eq!(gate_status(None), 0);
        assert_eq!(gate_status(["token floor".to_string()]), 1);
        assert_eq!(finish(None), ExitCode::SUCCESS);
        assert_eq!(finish(Some("shape".to_string())), ExitCode::FAILURE);
    }

    #[test]
    fn suite_specs_number_runs_across_reps() {
        let specs = suite_specs(2024, 3, 2, FmProfile::Gpt4V);
        let ids: Vec<u64> = specs.iter().map(|s| s.run_id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5]);
        assert_eq!(specs[0].task.id, specs[3].task.id);
        assert_ne!(specs[0].seed, specs[3].seed);
    }
}
