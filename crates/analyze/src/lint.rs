//! The lint framework: the [`Lint`] trait, the default registry, and the
//! driver that runs every lint over a [`Workspace`] and then applies the
//! escape comments.
//!
//! A lint sees the whole workspace at once (the domain-tag registry and the
//! lock-acquisition graph are inherently cross-file) and appends
//! [`Finding`]s. The driver owns the suppression pass: a deny finding whose
//! line carries (or sits directly under) a well-formed
//! `// mspt-analyze: allow(<lint>) <reason>` comment is downgraded to a
//! suppressed finding — still reported, still in the artifact, no longer
//! fatal. Escape comments are themselves checked: a malformed marker, an
//! empty reason, or an allow that no longer suppresses anything each produce
//! findings of their own, so the escape hatch cannot rot silently.

use crate::diagnostics::{Finding, Severity};
use crate::source::Workspace;

/// One registered lint.
pub trait Lint {
    /// Kebab-case registry name — what `allow(…)` clauses reference.
    fn name(&self) -> &'static str;
    /// One-line description of the contract the lint enforces.
    fn description(&self) -> &'static str;
    /// Appends findings for the whole workspace.
    fn check(&self, workspace: &Workspace, findings: &mut Vec<Finding>);
}

/// The lint registry's own name for findings about escape comments.
pub const ALLOW_AUDIT_LINT: &str = "allow-audit";

/// The default registry: every repo-contract lint, in reporting order.
#[must_use]
pub fn default_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(crate::lints::raw_seed::RawSeed),
        Box::new(crate::lints::domain_tag::DomainTag::default()),
        Box::new(crate::lints::unsafe_calls::UnsafeCalls),
        Box::new(crate::lints::locks::LockDiscipline),
    ]
}

/// Runs `lints` over the workspace, applies escape comments, and audits
/// them. Returns every finding (active, warned and suppressed alike), in
/// lint-registry order.
#[must_use]
pub fn run_lints(workspace: &Workspace, lints: &[Box<dyn Lint>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for lint in lints {
        let mut raw = Vec::new();
        lint.check(workspace, &mut raw);
        for mut finding in raw {
            if let Some(file) = workspace
                .files
                .iter()
                .find(|file| file.path.to_string_lossy() == finding.file)
            {
                if let Some(allow) = file.allow_for(lint.name(), finding.line) {
                    finding.allowed = Some(allow.reason.clone());
                }
            }
            findings.push(finding);
        }
    }
    audit_allows(workspace, lints, &findings[..])
        .into_iter()
        .for_each({
            let findings = &mut findings;
            move |finding| findings.push(finding)
        });
    findings
}

/// Checks the escape comments themselves: malformed markers and empty
/// reasons are deny findings; an allow that suppressed nothing this run is a
/// warn finding (stale escape hatch).
fn audit_allows(
    workspace: &Workspace,
    lints: &[Box<dyn Lint>],
    findings: &[Finding],
) -> Vec<Finding> {
    let known: Vec<&str> = lints.iter().map(|lint| lint.name()).collect();
    let mut audit = Vec::new();
    for file in &workspace.files {
        let path = file.path.to_string_lossy().into_owned();
        for allow in &file.allows {
            if !allow.well_formed {
                audit.push(Finding::deny(
                    ALLOW_AUDIT_LINT,
                    path.clone(),
                    allow.line,
                    1,
                    format!(
                        "malformed escape comment (expected `mspt-analyze: allow(<lint>) <reason>`): {:?}",
                        allow.reason
                    ),
                ));
                continue;
            }
            if !known.contains(&allow.lint.as_str()) {
                audit.push(Finding::deny(
                    ALLOW_AUDIT_LINT,
                    path.clone(),
                    allow.line,
                    1,
                    format!("escape comment names unknown lint {:?}", allow.lint),
                ));
                continue;
            }
            if allow.reason.is_empty() {
                audit.push(Finding::deny(
                    ALLOW_AUDIT_LINT,
                    path.clone(),
                    allow.line,
                    1,
                    format!(
                        "escape comment for `{}` has no reason; justify the suppression",
                        allow.lint
                    ),
                ));
                continue;
            }
            let used = findings.iter().any(|finding| {
                finding.file == path
                    && finding.allowed.is_some()
                    && finding.lint == allow.lint
                    && finding.line >= allow.line
                    && finding.line.saturating_sub(allow.line) <= MAX_ALLOW_DISTANCE
            });
            if !used {
                audit.push(Finding {
                    lint: ALLOW_AUDIT_LINT,
                    severity: Severity::Warn,
                    file: path.clone(),
                    line: allow.line,
                    col: 1,
                    message: format!(
                        "escape comment for `{}` suppressed nothing this run; remove it if stale",
                        allow.lint
                    ),
                    allowed: None,
                });
            }
        }
    }
    audit
}

/// How many lines below its comment an allow may act (stacked escape lines
/// above one statement). Used only by the staleness audit; actual matching
/// walks real escape lines in [`crate::source::SourceFile::allow_for`].
const MAX_ALLOW_DISTANCE: u32 = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    struct FireOnNeedle;

    impl Lint for FireOnNeedle {
        fn name(&self) -> &'static str {
            "needle"
        }
        fn description(&self) -> &'static str {
            "fires on the identifier `needle`"
        }
        fn check(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
            for file in &workspace.files {
                for (index, token) in file.tokens.iter().enumerate() {
                    if token.is_ident("needle") && !file.is_test_token(index) {
                        findings.push(Finding::deny(
                            "needle",
                            file.path.to_string_lossy().into_owned(),
                            token.line,
                            token.col,
                            "found a needle",
                        ));
                    }
                }
            }
        }
    }

    fn workspace(source: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::from_source("a.rs", "sim", source)],
        }
    }

    #[test]
    fn allows_suppress_and_unused_allows_warn() {
        let lints: Vec<Box<dyn Lint>> = vec![Box::new(FireOnNeedle)];
        let ws = workspace(
            "let needle = 1; // mspt-analyze: allow(needle) this one is fine\n\
             let needle = 2;\n\
             let clean = 3; // mspt-analyze: allow(needle) stale\n",
        );
        let findings = run_lints(&ws, &lints);
        let active: Vec<_> = findings.iter().filter(|f| f.is_active_deny()).collect();
        assert_eq!(active.len(), 1, "{findings:?}");
        assert_eq!(active[0].line, 2);
        assert!(findings.iter().any(|f| f.allowed.is_some() && f.line == 1));
        // The stale allow on line 3 warns without failing the run.
        assert!(findings
            .iter()
            .any(|f| f.lint == ALLOW_AUDIT_LINT && f.severity == Severity::Warn && f.line == 3));
    }

    #[test]
    fn reasonless_and_unknown_lint_allows_are_deny_findings() {
        let lints: Vec<Box<dyn Lint>> = vec![Box::new(FireOnNeedle)];
        let ws = workspace(
            "let needle = 1; // mspt-analyze: allow(needle)\n\
             let x = 2; // mspt-analyze: allow(no-such-lint) reason\n",
        );
        let findings = run_lints(&ws, &lints);
        assert!(findings
            .iter()
            .any(|f| f.lint == ALLOW_AUDIT_LINT && f.message.contains("no reason")));
        assert!(findings
            .iter()
            .any(|f| f.lint == ALLOW_AUDIT_LINT && f.message.contains("unknown lint")));
        // A reasonless allow still suppresses nothing? No: it *does*
        // suppress (the match only needs the lint name), but the audit
        // finding keeps the run red, so the suppression cannot ship.
        assert!(findings.iter().filter(|f| f.is_active_deny()).count() >= 2);
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let lints: Vec<Box<dyn Lint>> = vec![Box::new(FireOnNeedle)];
        let ws = workspace("#[cfg(test)]\nmod tests { fn f() { let needle = 1; } }\n");
        let findings = run_lints(&ws, &lints);
        assert!(findings.iter().all(|f| !f.is_active_deny()), "{findings:?}");
    }
}
