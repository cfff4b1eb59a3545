//! Corpus bench: expand the task-template DSL into the full generated
//! corpus, re-prove every gold trace against its own predicate, and emit
//! a byte-reproducible `BENCH_corpus.json`.
//!
//! Usage:
//!   corpus_bench [--out BENCH_corpus.json]
//!
//! The artifact carries no wall-clock — task counts per site and per
//! template, the self-validation pass rate, predicate diversity, and the
//! FNV-1a manifest digest — so two back-to-back invocations must produce
//! byte-identical files (CI diffs a fresh one against the committed
//! bytes). The bench itself also generates the corpus twice and
//! byte-compares the manifests, so a single invocation already proves
//! reproducibility. Exits 1 on any self-validation miss, a manifest
//! divergence, fewer than 300 tasks or fewer than 5 sites with tasks.

use std::process::ExitCode;
use std::time::Instant;

use eclair_bench::{finish, Args};
use eclair_corpus::{generate, CORPUS_SEED};
use eclair_obs::MetricsRegistry;
use serde::Serialize;

/// One template family's row in the artifact.
#[derive(Debug, Serialize)]
struct TemplateRow {
    name: String,
    site: String,
    /// Tasks generated from this template.
    generated: usize,
    /// Full Cartesian parameter space the family was sampled from.
    space: usize,
}

/// The whole artifact. Deliberately wall-clock-free: byte-reproducible.
#[derive(Debug, Serialize)]
struct CorpusBenchJson {
    master_seed: u64,
    total_tasks: usize,
    handwritten: usize,
    generated: usize,
    /// `(site name, task count)` in `Site::ALL` order.
    per_site: Vec<(String, usize)>,
    templates: Vec<TemplateRow>,
    /// Gold traces replayed on pristine sessions during the sweep.
    self_validation_checked: usize,
    /// Traces whose own success predicate held (must equal `checked`).
    self_validation_passed: usize,
    /// Distinct probe kinds (the part before the first `:`) asserted
    /// across all success predicates — predicate diversity.
    probe_kinds: usize,
    /// FNV-1a digest of the serialized manifest; pins every byte.
    manifest_digest: String,
    /// Whether a second, independent generation produced a
    /// byte-identical manifest.
    regeneration_identical: bool,
}

fn main() -> ExitCode {
    let args = Args::parse(&["--out", "--metrics-out"]);
    println!("corpus_bench: expanding corpus from master seed 0x{CORPUS_SEED:016x}");
    let t0 = Instant::now();

    let corpus = match generate(CORPUS_SEED) {
        Ok(c) => c,
        Err(e) => return finish([format!("corpus generation refused: {e}")]),
    };
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Reproducibility: a second expansion must agree on every byte.
    let twin = generate(CORPUS_SEED).expect("second generation");
    let regeneration_identical = corpus.manifest.to_json() == twin.manifest.to_json();

    // Self-validation sweep: replay every gold trace on a pristine
    // session and demand its own predicate holds. Generation already
    // refused any miss, so this re-proves the invariant from outside.
    let mut passed = 0usize;
    let mut failures = Vec::new();
    for task in &corpus.tasks {
        match task.verify_gold() {
            Ok(()) => passed += 1,
            Err(e) => failures.push(e),
        }
    }

    let mut kinds: Vec<&str> = corpus
        .tasks
        .iter()
        .flat_map(|t| t.success.probes.iter())
        .map(|(k, _)| k.split(':').next().unwrap_or(k))
        .collect();
    kinds.sort_unstable();
    kinds.dedup();

    let m = &corpus.manifest;
    println!(
        "{} tasks ({} handwritten + {} generated) across {} sites in {gen_ms:.1} ms",
        m.total_tasks,
        m.handwritten,
        m.generated,
        m.per_site.len()
    );
    println!(
        "self-validation {passed}/{} passed, {} probe kinds, manifest digest {:016x}",
        corpus.tasks.len(),
        kinds.len(),
        m.digest()
    );
    for f in &failures {
        println!("SELF-VALIDATION MISS: {f}");
    }

    let mut metrics = MetricsRegistry::new();
    metrics.inc("corpus.tasks", m.total_tasks as u64);
    metrics.inc("corpus.generated", m.generated as u64);
    metrics.inc("corpus.templates", m.templates.len() as u64);
    metrics.inc("corpus.self_validation_failures", failures.len() as u64);

    let artifact = CorpusBenchJson {
        master_seed: m.master_seed,
        total_tasks: m.total_tasks,
        handwritten: m.handwritten,
        generated: m.generated,
        per_site: m.per_site.clone(),
        templates: m
            .templates
            .iter()
            .map(|t| TemplateRow {
                name: t.name.clone(),
                site: t.site.clone(),
                generated: t.generated,
                space: t.space,
            })
            .collect(),
        self_validation_checked: corpus.tasks.len(),
        self_validation_passed: passed,
        probe_kinds: kinds.len(),
        manifest_digest: format!("{:016x}", m.digest()),
        regeneration_identical,
    };
    args.write_artifact("BENCH_corpus.json", &artifact);
    args.write_metrics(&metrics);

    let mut failed = Vec::new();
    if !regeneration_identical {
        failed.push("second generation diverged from the first".to_string());
    }
    if !failures.is_empty() {
        failed.push(format!(
            "{} gold traces missed their own predicate",
            failures.len()
        ));
    }
    if artifact.total_tasks < 300 {
        failed.push(format!(
            "corpus shrank to {} tasks (floor 300)",
            artifact.total_tasks
        ));
    }
    let sites = artifact.per_site.iter().filter(|(_, n)| *n > 0).count();
    if sites < 5 {
        failed.push(format!("only {sites} sites have tasks (floor 5)"));
    }
    finish(failed)
}
