//! GitLab-sim domain state: projects, issues, merge requests, members.

use std::fmt::{self, Write as _};

use serde::{Deserialize, Serialize};

use crate::fixtures;

/// Issue lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IssueState {
    Open,
    Closed,
}

/// Merge-request lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MrState {
    Open,
    Merged,
    Closed,
}

/// A tracked issue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Issue {
    pub id: u32,
    pub title: String,
    pub description: String,
    pub labels: Vec<String>,
    pub assignee: Option<String>,
    pub state: IssueState,
    pub confidential: bool,
    pub comments: Vec<String>,
}

/// A merge request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MergeRequest {
    pub id: u32,
    pub title: String,
    pub source_branch: String,
    pub state: MrState,
}

/// A project name shown as its URL slug (see [`Project::slug`]).
#[derive(Debug, Clone, Copy)]
pub struct Slug<'a>(&'a str);

impl fmt::Display for Slug<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.0.is_ascii() {
            // Whole-string lowercasing: per-char differs on a final `Σ`.
            return f.write_str(&self.0.to_lowercase().replace(' ', "-"));
        }
        for (i, word) in self.0.split(' ').enumerate() {
            if i > 0 {
                f.write_char('-')?;
            }
            if word.bytes().any(|b| b.is_ascii_uppercase()) {
                for c in word.chars() {
                    f.write_char(c.to_ascii_lowercase())?;
                }
            } else {
                f.write_str(word)?;
            }
        }
        Ok(())
    }
}

impl PartialEq<str> for Slug<'_> {
    /// Compares the slug's bytes with `other` as they are written, without
    /// building the slug (for an ASCII name).
    fn eq(&self, other: &str) -> bool {
        /// What is left of the expected text; writing anything else fails.
        struct Rest<'a>(&'a str);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(other);
        write!(rest, "{self}").is_ok() && rest.0.is_empty()
    }
}

impl PartialEq<&str> for Slug<'_> {
    fn eq(&self, other: &&str) -> bool {
        *self == **other
    }
}

/// A project with its collections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Project {
    pub name: String,
    pub description: String,
    pub visibility: String,
    /// `(username, role)` pairs.
    pub members: Vec<(String, String)>,
    pub issues: Vec<Issue>,
    pub mrs: Vec<MergeRequest>,
    pub archived: bool,
    next_issue_id: u32,
}

impl Project {
    /// URL slug for the project: its name lowercased, spaces as `-`. It
    /// is derived from the name on every use, since a project can be
    /// renamed, and written straight into whatever formats it.
    pub fn slug(&self) -> Slug<'_> {
        Slug(&self.name)
    }

    /// Append a new issue, assigning the next id.
    pub fn add_issue(
        &mut self,
        title: String,
        description: String,
        label: Option<String>,
        assignee: Option<String>,
        confidential: bool,
    ) -> u32 {
        let id = self.next_issue_id;
        self.next_issue_id += 1;
        self.issues.push(Issue {
            id,
            title,
            description,
            labels: label.into_iter().collect(),
            assignee,
            state: IssueState::Open,
            confidential,
            comments: Vec::new(),
        });
        id
    }

    /// Find an issue by id.
    pub fn issue(&self, id: u32) -> Option<&Issue> {
        self.issues.iter().find(|i| i.id == id)
    }

    /// Find an issue by id, mutably.
    pub fn issue_mut(&mut self, id: u32) -> Option<&mut Issue> {
        self.issues.iter_mut().find(|i| i.id == id)
    }

    /// Find an issue by exact title.
    pub fn issue_by_title(&self, title: &str) -> Option<&Issue> {
        self.issues.iter().find(|i| i.title == title)
    }

    /// Find a merge request by id.
    pub fn mr(&self, id: u32) -> Option<&MergeRequest> {
        self.mrs.iter().find(|m| m.id == id)
    }

    /// Find a merge request by id, mutably.
    pub fn mr_mut(&mut self, id: u32) -> Option<&mut MergeRequest> {
        self.mrs.iter_mut().find(|m| m.id == id)
    }
}

/// The whole GitLab instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GitlabState {
    pub projects: Vec<Project>,
    pub profile_name: String,
    pub profile_status: String,
}

impl GitlabState {
    /// The standard evaluation fixture: three projects with seeded issues,
    /// merge requests and members.
    pub fn fixture() -> Self {
        let mut webapp = Project {
            name: "WebApp".into(),
            description: "Customer-facing web application".into(),
            visibility: "private".into(),
            members: vec![
                ("byteblaze".into(), "Maintainer".into()),
                ("emma.lopez".into(), "Developer".into()),
            ],
            issues: Vec::new(),
            mrs: Vec::new(),
            archived: false,
            next_issue_id: 1,
        };
        webapp.add_issue(
            "Checkout page times out".into(),
            "Checkout requests exceed 30s under load".into(),
            Some("bug".into()),
            Some("emma.lopez".into()),
            false,
        );
        webapp.add_issue(
            "Add dark mode".into(),
            "Users have requested a dark theme".into(),
            Some("feature".into()),
            None,
            false,
        );
        webapp.mrs.push(MergeRequest {
            id: 1,
            title: "Fix flaky login test".into(),
            source_branch: "fix/login-test".into(),
            state: MrState::Open,
        });
        webapp.mrs.push(MergeRequest {
            id: 2,
            title: "Bump dependencies".into(),
            source_branch: "chore/deps".into(),
            state: MrState::Open,
        });

        let mut docs = Project {
            name: "Docs".into(),
            description: "Product documentation".into(),
            visibility: "public".into(),
            members: vec![("carol.chen".into(), "Maintainer".into())],
            issues: Vec::new(),
            mrs: Vec::new(),
            archived: false,
            next_issue_id: 1,
        };
        docs.add_issue(
            "Broken link on install page".into(),
            "The curl command 404s".into(),
            Some("docs".into()),
            None,
            false,
        );

        let pipeline = Project {
            name: "Data Pipeline".into(),
            description: "Nightly ETL jobs".into(),
            visibility: "private".into(),
            members: vec![("frank.ops".into(), "Maintainer".into())],
            issues: Vec::new(),
            mrs: Vec::new(),
            archived: false,
            next_issue_id: 1,
        };
        Self {
            projects: vec![webapp, docs, pipeline],
            profile_name: "Byte Blaze".into(),
            profile_status: String::new(),
        }
    }

    /// Find a project index by slug.
    pub fn project_by_slug(&self, slug: &str) -> Option<usize> {
        self.projects.iter().position(|p| p.slug() == *slug)
    }

    /// Whether a username exists in the directory.
    pub fn user_exists(&self, user: &str) -> bool {
        fixtures::USERS.contains(&user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_shape() {
        let s = GitlabState::fixture();
        assert_eq!(s.projects.len(), 3);
        assert_eq!(s.projects[0].issues.len(), 2);
        assert_eq!(s.projects[0].mrs.len(), 2);
        assert_eq!(s.projects[0].slug(), "webapp");
        assert_eq!(s.projects[2].slug(), "data-pipeline");
    }

    #[test]
    fn add_issue_assigns_sequential_ids() {
        let mut s = GitlabState::fixture();
        let p = &mut s.projects[2];
        let a = p.add_issue("A".into(), "".into(), None, None, false);
        let b = p.add_issue("B".into(), "".into(), None, None, false);
        assert_eq!(b, a + 1);
        assert_eq!(p.issue(b).unwrap().title, "B");
        assert!(p.issue_by_title("A").is_some());
    }

    #[test]
    fn user_directory() {
        let s = GitlabState::fixture();
        assert!(s.user_exists("jill.woo"));
        assert!(!s.user_exists("nobody.here"));
    }
}
