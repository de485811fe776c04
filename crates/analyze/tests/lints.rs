//! Fixture-driven integration tests: every lint fires on its positive
//! cases, stays quiet on the negative ones, and respects escape comments —
//! plus the meta-test that keeps the real workspace at zero deny findings.

use std::path::{Path, PathBuf};

use mspt_analyze::lint::{run_lints, Lint};
use mspt_analyze::lints::domain_tag::DomainTag;
use mspt_analyze::{default_lints, Finding, SourceFile, Workspace};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|error| panic!("{}: {error}", path.display()))
}

fn run_fixture(name: &str, crate_name: &str, lints: Vec<Box<dyn Lint>>) -> Vec<Finding> {
    let workspace = Workspace {
        files: vec![SourceFile::from_source(name, crate_name, &fixture(name))],
    };
    run_lints(&workspace, &lints)
}

fn active<'a>(findings: &'a [Finding], lint: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|finding| finding.lint == lint && finding.is_active_deny())
        .collect()
}

fn suppressed<'a>(findings: &'a [Finding], lint: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|finding| finding.lint == lint && finding.allowed.is_some())
        .collect()
}

#[test]
fn raw_seed_fixture() {
    let findings = run_fixture("raw_seed.rs", "sim", default_lints());
    let fired = active(&findings, "raw-seed");
    // The raw construction and the entropy construction; the derived, the
    // allowed and the in-test constructions stay quiet.
    assert_eq!(fired.len(), 2, "{findings:?}");
    assert!(fired.iter().any(|f| f.message.contains("seed_from_u64")));
    assert!(fired.iter().any(|f| f.message.contains("thread_rng")));
    assert_eq!(suppressed(&findings, "raw-seed").len(), 1, "{findings:?}");
}

#[test]
fn domain_tag_fixture() {
    let lints: Vec<Box<dyn Lint>> = vec![Box::new(DomainTag::with_registry(vec![
        ("REGISTERED_DOMAIN", 0x1111),
        ("DRIFTED_DOMAIN", 0x2222),
        ("TWIN_A_DOMAIN", 0x4444),
        ("TWIN_B_DOMAIN", 0x4444),
        ("VANISHED_DOMAIN", 0x6666),
    ]))];
    let findings = run_fixture("domain_tag.rs", "sim", lints);
    let fired = active(&findings, "domain-tag-registry");
    assert!(
        fired
            .iter()
            .any(|f| f.message.contains("DRIFTED_DOMAIN") && f.message.contains("registry says")),
        "{findings:?}"
    );
    assert!(
        fired.iter().any(
            |f| f.message.contains("ROGUE_DOMAIN") && f.message.contains("not in the registry")
        ),
        "{findings:?}"
    );
    assert!(
        fired.iter().any(
            |f| f.message.contains("VANISHED_DOMAIN") && f.message.contains("no longer exists")
        ),
        "{findings:?}"
    );
    assert_eq!(
        fired
            .iter()
            .filter(|f| f.message.contains("share the value"))
            .count(),
        2,
        "{findings:?}"
    );
}

#[test]
fn unsafe_calls_fixture() {
    let findings = run_fixture("unsafe_calls.rs", "sim", default_lints());
    let fired = active(&findings, "determinism-unsafe-calls");
    // Instant::now plus the two HashMap mentions on the un-allowed line
    // (type annotation and constructor); the import line, the BTree use,
    // the allowed line and the test module stay quiet.
    assert_eq!(fired.len(), 3, "{findings:?}");
    assert!(fired.iter().any(|f| f.message.contains("Instant")));
    assert_eq!(
        suppressed(&findings, "determinism-unsafe-calls").len(),
        2,
        "{findings:?}"
    );
}

#[test]
fn locks_fixture() {
    let findings = run_fixture("locks.rs", "serve", default_lints());
    let fired = active(&findings, "lock-discipline");
    assert!(
        fired
            .iter()
            .any(|f| f.message.contains("unwrap/expect on `state.lock()`")),
        "{findings:?}"
    );
    assert!(
        fired
            .iter()
            .any(|f| f.message.contains("`join` can block") && f.message.contains("`state` lock")),
        "{findings:?}"
    );
    assert!(
        fired
            .iter()
            .any(|f| f.message.contains("acquisition cycle")),
        "{findings:?}"
    );
    assert!(
        fired
            .iter()
            .any(|f| f.message.contains("condvar wait outside a loop")),
        "{findings:?}"
    );
    // Exactly those four families fire; the recovered/dropped/looped
    // variants and the test module stay quiet.
    assert_eq!(fired.len(), 4, "{findings:?}");
    // The diagnostic-path join is suppressed by its escape comment.
    assert_eq!(
        suppressed(&findings, "lock-discipline").len(),
        1,
        "{findings:?}"
    );
}

/// The meta-test: the shipped workspace itself carries zero active deny
/// findings. If this fails after a change, either fix the finding or add a
/// reasoned escape comment — see ARCHITECTURE.md, "Static analysis".
#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let workspace = Workspace::load(&root).expect("workspace loads");
    assert!(
        workspace.files.len() > 50,
        "walker found only {} files; scope regression?",
        workspace.files.len()
    );
    let findings = run_lints(&workspace, &default_lints());
    let active: Vec<&Finding> = findings.iter().filter(|f| f.is_active_deny()).collect();
    assert!(
        active.is_empty(),
        "workspace has active deny findings:\n{}",
        active
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
