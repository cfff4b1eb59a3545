//! The declarative task-template DSL.
//!
//! A [`TaskTemplate`] describes a *family* of workflows: an intent
//! pattern, a parameter space (the cross-product of its [`ParamAxis`]es),
//! and a builder that turns one resolved [`Params`] point into a
//! [`Blueprint`] — the intent, gold action trace, reference SOP, and
//! success predicate the paper's evaluation needs per task. The seeded
//! expander in [`crate::generate()`] samples points from the space and
//! compiles each into a concrete `TaskSpec`, self-verifying the gold
//! trace as it goes.

use eclair_sites::task::{Site, SuccessCheck};
use eclair_workflow::Action;
use serde::{Deserialize, Serialize};

/// One named parameter dimension. The template's space is the
/// cross-product of its axes, enumerated lexicographically (first axis
/// slowest), so an index below the space size decodes to exactly one
/// value combination.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamAxis {
    /// Axis name, e.g. `"title"`. Unique within a template.
    pub name: String,
    /// The values this axis ranges over. Composite values (e.g.
    /// `"webapp:1:Checkout page times out"`) are fine — the builder
    /// splits them.
    pub values: Vec<String>,
}

impl ParamAxis {
    /// Build an axis from string slices.
    pub fn new(name: &str, values: &[&str]) -> Self {
        Self {
            name: name.into(),
            values: values.iter().map(|v| v.to_string()).collect(),
        }
    }

    /// Build an axis from owned values.
    pub fn from_owned(name: &str, values: Vec<String>) -> Self {
        Self {
            name: name.into(),
            values,
        }
    }
}

/// One resolved point of a template's parameter space: `(axis, value)`
/// pairs in axis order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Params(pub Vec<(String, String)>);

impl Params {
    /// Value of the named axis. Panics on a bad name — a template bug
    /// the self-validation sweep surfaces immediately.
    pub fn get(&self, name: &str) -> &str {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("template asked for unknown axis '{name}'"))
    }

    /// Canonical byte encoding for hashing: `name=value` pairs joined
    /// with `\x1f` (axis order is fixed, so this is injective per
    /// template).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, (n, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(0x1f);
            }
            out.extend_from_slice(n.as_bytes());
            out.push(b'=');
            out.extend_from_slice(v.as_bytes());
        }
        out
    }
}

/// What a template's builder produces for one parameter point: everything
/// `TaskSpec::new` needs except the id (the expander mints that).
#[derive(Debug, Clone)]
pub struct Blueprint {
    /// Natural-language workflow description.
    pub intent: String,
    /// Gold semantic action trace.
    pub actions: Vec<Action>,
    /// Reference SOP steps, phrased in the grammar `eclair-core`'s SOP
    /// parser understands ("Click the 'X' button", "Type \"v\" into the
    /// Y field", ...). Must be exactly one step per action.
    pub sop: Vec<String>,
    /// Functional success predicate.
    pub success: SuccessCheck,
}

/// A declarative family of workflows.
pub struct TaskTemplate {
    /// Unique template name, e.g. `"gitlab-create-issue"`. Task ids are
    /// prefixed with it.
    pub name: &'static str,
    /// The site every instance runs on.
    pub site: Site,
    /// How many instances to sample from the space (capped at the space
    /// size).
    pub family: usize,
    /// The parameter space.
    pub axes: Vec<ParamAxis>,
    /// Compile one parameter point into a blueprint.
    pub build: fn(&Params) -> Blueprint,
}

impl TaskTemplate {
    /// Size of the full parameter space (product of axis lengths).
    pub fn space(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Decode a lexicographic index into a parameter point (mixed-radix,
    /// first axis slowest).
    pub fn decode(&self, mut index: usize) -> Params {
        debug_assert!(index < self.space());
        let mut picks = vec![0usize; self.axes.len()];
        for (slot, axis) in self.axes.iter().enumerate().rev() {
            let n = axis.values.len();
            picks[slot] = index % n;
            index /= n;
        }
        Params(
            self.axes
                .iter()
                .zip(picks)
                .map(|(a, i)| (a.name.clone(), a.values[i].clone()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TaskTemplate {
        TaskTemplate {
            name: "toy",
            site: Site::Erp,
            family: 4,
            axes: vec![
                ParamAxis::new("a", &["x", "y"]),
                ParamAxis::new("b", &["1", "2", "3"]),
            ],
            build: |_| unreachable!("decode-only test"),
        }
    }

    #[test]
    fn space_is_axis_product() {
        assert_eq!(toy().space(), 6);
    }

    #[test]
    fn decode_is_lexicographic_and_total() {
        let t = toy();
        let points: Vec<Params> = (0..t.space()).map(|i| t.decode(i)).collect();
        assert_eq!(points[0].get("a"), "x");
        assert_eq!(points[0].get("b"), "1");
        assert_eq!(points[2].get("a"), "x");
        assert_eq!(points[2].get("b"), "3");
        assert_eq!(points[3].get("a"), "y");
        assert_eq!(points[3].get("b"), "1");
        // All points distinct.
        let mut keys: Vec<Vec<u8>> = points.iter().map(|p| p.canonical_bytes()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    #[should_panic(expected = "unknown axis")]
    fn unknown_axis_panics() {
        let t = toy();
        t.decode(0).get("missing");
    }
}
