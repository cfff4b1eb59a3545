//! # eclair-corpus
//!
//! A declarative task-template DSL and seeded corpus generator: the
//! answer to WONDERBREAD's and EntWorld's critique that enterprise
//! benchmarks are too narrow to be convincing. Thirty hand-authored
//! tasks become a 300+ task corpus across five sites — without 10×
//! hand authoring — and every generated task is *self-verified at
//! generation time* (gold trace replayed on a pristine session must
//! satisfy its own success predicate), so the corpus is a test suite
//! of itself.
//!
//! * [`template`] — the DSL: [`template::TaskTemplate`] (intent
//!   pattern, parameter space, trace/SOP/predicate builder),
//!   [`template::ParamAxis`], [`template::Params`],
//!   [`template::Blueprint`];
//! * [`templates`] — the registry: task families for gitlab, magento,
//!   erp, payer, and the new EHR surface;
//! * [`mod@generate`] — the seeded expander: [`generate::generate`] is a
//!   pure function of the master seed with collision-free ids and a
//!   byte-reproducible [`manifest::CorpusManifest`];
//! * [`rng`] — SplitMix64, FNV-1a, and seeded index sampling.
//!
//! ```
//! let corpus = eclair_corpus::corpus();
//! assert!(corpus.tasks.len() >= 300);
//! assert_eq!(corpus.manifest.total_tasks, corpus.tasks.len());
//! // Same seed, byte-identical manifest:
//! let again = eclair_corpus::generate(eclair_corpus::CORPUS_SEED).unwrap();
//! assert_eq!(corpus.manifest.to_json(), again.manifest.to_json());
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod generate;
pub mod manifest;
pub mod rng;
pub mod template;
pub mod templates;

use std::sync::OnceLock;

use eclair_sites::task::TaskSpec;

pub use generate::{generate, Corpus, CorpusError};
pub use manifest::{CorpusManifest, ManifestEntry, TemplateSummary};
pub use template::{Blueprint, ParamAxis, Params, TaskTemplate};

/// The fleet-wide default master seed. Everything downstream (crucible
/// scenario pools, benches, CI) generates from this unless it explicitly
/// passes its own.
pub const CORPUS_SEED: u64 = 0xEC1A_C0B9_05EE_D001;

static CORPUS: OnceLock<Corpus> = OnceLock::new();

/// The default corpus, generated once per process from [`CORPUS_SEED`].
/// Panics if generation fails — a template bug that must not ship.
pub fn corpus() -> &'static Corpus {
    CORPUS.get_or_init(|| {
        generate(CORPUS_SEED).unwrap_or_else(|e| panic!("default corpus failed to generate: {e}"))
    })
}

/// The default corpus's task list: the 30 handwritten tasks first (in
/// `all_tasks()` order, so indices below 30 keep their historical
/// meaning), then every generated task.
pub fn corpus_tasks() -> &'static [TaskSpec] {
    &corpus().tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_corpus_meets_the_issue_floor() {
        let c = corpus();
        assert!(c.tasks.len() >= 300, "only {} tasks", c.tasks.len());
        let sites: std::collections::HashSet<&str> =
            c.tasks.iter().map(|t| t.site.name()).collect();
        assert!(sites.len() >= 5, "only {} sites", sites.len());
        assert_eq!(c.manifest.handwritten, 30);
        assert_eq!(c.manifest.total_tasks, c.tasks.len());
    }

    #[test]
    fn handwritten_prefix_preserves_all_tasks_order() {
        let c = corpus();
        let hand = eclair_sites::all_tasks();
        for (i, t) in hand.iter().enumerate() {
            assert_eq!(c.tasks[i].id, t.id, "prefix order moved at {i}");
        }
    }

    #[test]
    fn manifest_rows_match_tasks_one_to_one() {
        let c = corpus();
        assert_eq!(c.manifest.entries.len(), c.tasks.len());
        for (entry, task) in c.manifest.entries.iter().zip(&c.tasks) {
            assert_eq!(entry.id, task.id);
            assert_eq!(entry.site, task.site.name());
            assert_eq!(entry.actions, task.gold_trace.len());
            assert_eq!(entry.sop_steps, task.gold_sop.len());
        }
    }

    #[test]
    fn per_site_counts_add_up() {
        let c = corpus();
        let sum: usize = c.manifest.per_site.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, c.manifest.total_tasks);
        for (site, n) in &c.manifest.per_site {
            assert!(*n > 0, "site {site} contributed no tasks");
        }
    }
}
