//! The seeded corpus expander.
//!
//! `generate(master_seed)` compiles every registered [`crate::TaskTemplate`]
//! into its sampled task family and prepends the 30 handwritten tasks,
//! producing a [`Corpus`]: the task list plus a byte-reproducible
//! manifest. Generation is a *pure function of the seed* — same seed,
//! byte-identical manifest — and every generated task is self-verified
//! on the spot: its gold trace is replayed on a pristine session and
//! must satisfy its own success predicate, or generation fails loudly.
//! The corpus is its own test suite.

use std::collections::HashSet;
use std::fmt;

use eclair_sites::task::TaskSpec;

use crate::manifest::{CorpusManifest, ManifestEntry, TemplateSummary};
use crate::rng::{derive_seed, fnv1a64, sample_indices, SplitMix64};
use crate::template::Params;
use crate::templates::all_templates;

/// Why generation failed. Every variant is a template-author bug, never
/// a runtime condition to tolerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// A template declared an axis with no values.
    EmptyAxis { template: String, axis: String },
    /// A blueprint's SOP step count differs from its action count.
    SopMismatch {
        id: String,
        actions: usize,
        sop_steps: usize,
    },
    /// Two tasks minted the same id.
    DuplicateId { id: String },
    /// A gold trace failed to replay or missed its own predicate.
    SelfValidation { id: String, detail: String },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::EmptyAxis { template, axis } => {
                write!(f, "template '{template}': axis '{axis}' has no values")
            }
            CorpusError::SopMismatch {
                id,
                actions,
                sop_steps,
            } => write!(
                f,
                "{id}: SOP has {sop_steps} steps but the gold trace has {actions} actions"
            ),
            CorpusError::DuplicateId { id } => write!(f, "duplicate task id '{id}'"),
            CorpusError::SelfValidation { id, detail } => {
                write!(f, "{id}: gold-trace self-validation failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// A generated corpus: every task plus its manifest.
pub struct Corpus {
    /// The seed it was generated from.
    pub master_seed: u64,
    /// Handwritten tasks first (stable order), then generated tasks in
    /// template registration order.
    pub tasks: Vec<TaskSpec>,
    /// The byte-reproducible paper trail.
    pub manifest: CorpusManifest,
}

impl Corpus {
    /// Tasks produced by templates (excludes the handwritten prefix).
    pub fn generated_tasks(&self) -> &[TaskSpec] {
        &self.tasks[self.manifest.handwritten..]
    }
}

fn entry_for(task: &TaskSpec, template: &str, params: Params) -> ManifestEntry {
    ManifestEntry {
        id: task.id.clone(),
        template: template.into(),
        site: task.site.name().into(),
        params,
        intent: task.intent.clone(),
        actions: task.gold_trace.len(),
        sop_steps: task.gold_sop.len(),
        probes: task.success.probes.len(),
        url_contains: task.success.url_contains.clone(),
    }
}

/// Generate the corpus for `master_seed`. See the module docs for the
/// guarantees; see [`CorpusError`] for the ways a template can be wrong.
pub fn generate(master_seed: u64) -> Result<Corpus, CorpusError> {
    let mut tasks = Vec::new();
    let mut entries = Vec::new();
    let mut summaries = Vec::new();
    let mut ids = HashSet::new();

    // Handwritten prefix: ids are seed-independent, order is the
    // canonical `all_tasks()` order (crucible's golden scenarios index
    // into this prefix, so it must never move).
    for task in eclair_sites::all_tasks() {
        if !ids.insert(task.id.clone()) {
            return Err(CorpusError::DuplicateId { id: task.id });
        }
        entries.push(entry_for(&task, "handwritten", Params(Vec::new())));
        tasks.push(task);
    }
    let handwritten = tasks.len();

    for template in all_templates() {
        for axis in &template.axes {
            if axis.values.is_empty() {
                return Err(CorpusError::EmptyAxis {
                    template: template.name.into(),
                    axis: axis.name.clone(),
                });
            }
        }
        let space = template.space();
        let mut rng = SplitMix64::new(derive_seed(master_seed, fnv1a64(template.name.as_bytes())));
        let picked = sample_indices(&mut rng, space, template.family);
        let generated = picked.len();
        for (serial, index) in picked.into_iter().enumerate() {
            let params = template.decode(index);
            let bp = (template.build)(&params);

            // Mint the id: template prefix for readability, serial for
            // stable ordering, seed+params digest for cross-seed
            // disjointness.
            let mut digest_input = master_seed.to_le_bytes().to_vec();
            digest_input.extend_from_slice(template.name.as_bytes());
            digest_input.push(0x1e);
            digest_input.extend_from_slice(&params.canonical_bytes());
            let digest = fnv1a64(&digest_input);
            let id = format!(
                "{}-{:03}-{:012x}",
                template.name,
                serial,
                digest & 0xffff_ffff_ffff
            );

            if bp.sop.len() != bp.actions.len() {
                return Err(CorpusError::SopMismatch {
                    id,
                    actions: bp.actions.len(),
                    sop_steps: bp.sop.len(),
                });
            }
            let sop_refs: Vec<&str> = bp.sop.iter().map(|s| s.as_str()).collect();
            let task = TaskSpec::new(
                &id,
                template.site,
                &bp.intent,
                bp.actions,
                &sop_refs,
                bp.success,
            );

            if !ids.insert(task.id.clone()) {
                return Err(CorpusError::DuplicateId { id: task.id });
            }
            task.verify_gold()
                .map_err(|detail| CorpusError::SelfValidation {
                    id: task.id.clone(),
                    detail,
                })?;
            entries.push(entry_for(&task, template.name, params));
            tasks.push(task);
        }
        summaries.push(TemplateSummary {
            name: template.name.into(),
            site: template.site.name().into(),
            family: template.family,
            space,
            generated,
        });
    }

    let per_site = eclair_sites::task::Site::ALL
        .iter()
        .map(|s| {
            (
                s.name().to_string(),
                tasks.iter().filter(|t| t.site == *s).count(),
            )
        })
        .collect();

    let manifest = CorpusManifest {
        version: 1,
        master_seed,
        total_tasks: tasks.len(),
        handwritten,
        generated: tasks.len() - handwritten,
        per_site,
        templates: summaries,
        entries,
    };
    Ok(Corpus {
        master_seed,
        tasks,
        manifest,
    })
}
