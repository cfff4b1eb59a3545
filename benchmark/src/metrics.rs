//! The reported metrics, by name and unit. `BENCHMARK.json` at the
//! repository root lists the same tables with directions and bounds; a
//! test keeps the two in step.

/// Reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_runs_per_s", "runs/s"),
    ("run_p50_ms", "ms"),
    ("run_p99_ms", "ms"),
    ("completion_rate", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Reported with `--trace 1`. Layer times are self time as a share of
/// the traced pass (`traced.run_us` per run); counts are totals over it.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("corpus.generate_ms", "ms"),
    ("traced.run_us", "us"),
    ("traced.overhead_frac", "fraction"),
    ("sites.launch_share", "fraction"),
    ("sites.evaluate_share", "fraction"),
    ("gui.screenshot_share", "fraction"),
    ("gui.dispatch_share", "fraction"),
    ("core.execute.self_share", "fraction"),
    ("hybrid.compile_share", "fraction"),
    ("core.demonstrate.record_share", "fraction"),
    ("core.demonstrate.sop_gen_share", "fraction"),
    ("core.validate.check_share", "fraction"),
    ("trace.export_share", "fraction"),
    ("traced.unattributed_share", "fraction"),
    ("gui.screenshot_calls", "count"),
    ("gui.dispatch_calls", "count"),
    ("gui.frames", "count"),
    ("gui.frame_cache_hit_rate", "fraction"),
    ("gui.frame_cache_invalidations", "count"),
    ("gui.relayouts_full", "count"),
    ("gui.layout_cache_hits", "count"),
    ("gui.intern_misses", "count"),
    ("gui.intern_table_size", "count"),
    ("core.execute.steps", "count"),
    ("core.execute.attempts", "count"),
    ("fm.calls", "count"),
    ("fm.tokens", "tokens"),
    ("fm.perceive_lookups", "count"),
    ("fm.perceive_memo_hit_rate", "fraction"),
    ("fm.shared_lookups", "count"),
    ("fm.shared_hit_rate", "fraction"),
    ("chaos.faults_injected", "count"),
    ("hybrid.compiles", "count"),
    ("trace.events", "count"),
    ("trace.jsonl_bytes", "bytes"),
    ("fleet.scaling_efficiency", "fraction"),
    ("sites.allocs", "count"),
    ("sites.alloc_bytes", "bytes"),
    ("gui.allocs", "count"),
    ("gui.alloc_bytes", "bytes"),
    ("core.execute.allocs", "count"),
    ("core.execute.alloc_bytes", "bytes"),
    ("hybrid.allocs", "count"),
    ("hybrid.alloc_bytes", "bytes"),
    ("core.demonstrate.allocs", "count"),
    ("core.demonstrate.alloc_bytes", "bytes"),
    ("core.validate.allocs", "count"),
    ("core.validate.alloc_bytes", "bytes"),
    ("trace.allocs", "count"),
    ("trace.alloc_bytes", "bytes"),
];

/// Values collected by name, in the order of the table they belong to.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Attach units from `table`, which must list exactly the pushed
    /// names in the pushed order.
    pub fn finish(
        self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        let names: Vec<&str> = self.0.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = table.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "metrics out of step with their table");
        self.0
            .into_iter()
            .zip(table)
            .map(|((name, value), &(_, unit))| (name, value, unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
        let field = |m: &serde_json::Value, k: &str| match m.field(k) {
            serde_json::Value::Str(s) => s.clone(),
            other => panic!("{section}.{k} is not a string: {other:?}"),
        };
        doc.field(section)
            .as_seq(section)
            .expect("a list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }
}
