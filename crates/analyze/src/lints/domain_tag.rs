//! `domain-tag-registry`: the `*_DOMAIN` seed-space tags must be registered
//! here and collision-free.
//!
//! Every subsystem that derives its own seed stream XORs a 64-bit domain tag
//! into the base seed before calling `chunk_seed`, so independent subsystems
//! can never reuse a stream even when given the same user seed. That only
//! holds while the tags are globally unique — a property no single crate can
//! check, because the tags deliberately live next to their subsystems. This
//! lint collects every `const *_DOMAIN: u64 = …;` in the workspace and
//! cross-checks it against the registry below: unregistered tags, value
//! drift, duplicate values and registry rot are all deny findings.
//!
//! Adding a subsystem? Pick a fresh random 64-bit constant, define it next
//! to the deriving code, and add a row to [`DomainTag::default`].

use std::collections::BTreeMap;

use crate::diagnostics::Finding;
use crate::lexer::TokenKind;
use crate::lint::Lint;
use crate::source::Workspace;

/// See the module docs.
pub struct DomainTag {
    /// Registered `(tag name, value)` rows.
    registry: Vec<(&'static str, u64)>,
}

impl Default for DomainTag {
    /// The workspace registry. Keep sorted by name.
    fn default() -> DomainTag {
        DomainTag {
            registry: vec![
                ("DEFECT_SEED_DOMAIN", 0xdefe_c7ed_0000_0001),
                ("STAGE_KEY_DOMAIN", 0x57a6_e1fd_9b3c_5a21),
                ("STRESS_SEED_DOMAIN", 0x5e12_7e57_ae5d_0004),
            ],
        }
    }
}

impl DomainTag {
    /// A lint instance checking against an explicit registry (for tests).
    #[must_use]
    pub fn with_registry(registry: Vec<(&'static str, u64)>) -> DomainTag {
        DomainTag { registry }
    }
}

/// A `const *_DOMAIN: u64 = <literal>;` definition found in the workspace.
struct FoundTag {
    name: String,
    value: Option<u64>,
    file: String,
    line: u32,
    col: u32,
}

fn parse_u64_literal(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|&ch| ch != '_').collect();
    if let Some(hex) = cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        cleaned.parse().ok()
    }
}

fn collect_tags(workspace: &Workspace) -> Vec<FoundTag> {
    let mut tags = Vec::new();
    for file in &workspace.files {
        let path = file.path.to_string_lossy().into_owned();
        let tokens = &file.tokens;
        for (index, token) in tokens.iter().enumerate() {
            if !token.is_ident("const") || file.is_test_token(index) {
                continue;
            }
            let Some(name_token) = tokens.get(index + 1) else {
                continue;
            };
            if name_token.kind != TokenKind::Ident || !name_token.text.ends_with("_DOMAIN") {
                continue;
            }
            // const NAME : u64 = <literal> ;  — the value literal is the
            // first number token after the `=`.
            let value = tokens[index + 2..]
                .iter()
                .take_while(|token| !token.is_punct(';'))
                .skip_while(|token| !token.is_punct('='))
                .find(|token| token.kind == TokenKind::Number)
                .and_then(|token| parse_u64_literal(&token.text));
            tags.push(FoundTag {
                name: name_token.text.clone(),
                value,
                file: path.clone(),
                line: name_token.line,
                col: name_token.col,
            });
        }
    }
    tags
}

impl Lint for DomainTag {
    fn name(&self) -> &'static str {
        "domain-tag-registry"
    }

    fn description(&self) -> &'static str {
        "seed-domain tags must be registered, value-stable and collision-free"
    }

    fn check(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        let tags = collect_tags(workspace);
        let mut by_value: BTreeMap<u64, Vec<&FoundTag>> = BTreeMap::new();
        for tag in &tags {
            let registered = self.registry.iter().find(|(name, _)| *name == tag.name);
            match (registered, tag.value) {
                (None, _) => findings.push(Finding::deny(
                    self.name(),
                    tag.file.clone(),
                    tag.line,
                    tag.col,
                    format!(
                        "domain tag `{}` is not in the registry; add it to \
                         DomainTag::default in crates/analyze",
                        tag.name
                    ),
                )),
                (Some(_), None) => findings.push(Finding::deny(
                    self.name(),
                    tag.file.clone(),
                    tag.line,
                    tag.col,
                    format!(
                        "domain tag `{}` must be a literal u64 so the registry can \
                         check it",
                        tag.name
                    ),
                )),
                (Some(&(_, expected)), Some(actual)) if expected != actual => {
                    findings.push(Finding::deny(
                        self.name(),
                        tag.file.clone(),
                        tag.line,
                        tag.col,
                        format!(
                            "domain tag `{}` is {actual:#018x} but the registry says \
                             {expected:#018x}; changing a tag silently reshuffles every \
                             derived seed stream",
                            tag.name
                        ),
                    ));
                }
                (Some(_), Some(value)) => by_value.entry(value).or_default().push(tag),
            }
        }
        for (value, holders) in &by_value {
            if holders.len() > 1 {
                let names: Vec<&str> = holders.iter().map(|tag| tag.name.as_str()).collect();
                for tag in holders {
                    findings.push(Finding::deny(
                        self.name(),
                        tag.file.clone(),
                        tag.line,
                        tag.col,
                        format!(
                            "domain tags {} share the value {value:#018x}; colliding tags \
                             collapse independent seed streams into one",
                            names.join(", ")
                        ),
                    ));
                }
            }
        }
        for (name, _) in &self.registry {
            if !tags.iter().any(|tag| tag.name == *name) {
                findings.push(Finding::deny(
                    self.name(),
                    "(registry)",
                    0,
                    0,
                    format!(
                        "registered domain tag `{name}` no longer exists in the \
                         workspace; remove the stale registry row"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn check(lint: &DomainTag, source: &str) -> Vec<Finding> {
        let workspace = Workspace {
            files: vec![SourceFile::from_source("x.rs", "sim", source)],
        };
        let mut findings = Vec::new();
        lint.check(&workspace, &mut findings);
        findings
    }

    #[test]
    fn registered_matching_tags_pass() {
        let lint = DomainTag::with_registry(vec![("A_DOMAIN", 0x11), ("B_DOMAIN", 0x22)]);
        let findings = check(
            &lint,
            "pub const A_DOMAIN: u64 = 0x11;\npub const B_DOMAIN: u64 = 0x22;\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unregistered_drifted_duplicate_and_stale_tags_all_fire() {
        let lint = DomainTag::with_registry(vec![
            ("A_DOMAIN", 0x11),
            ("B_DOMAIN", 0x22),
            ("C_DOMAIN", 0x33),
            ("GONE_DOMAIN", 0x44),
        ]);
        let findings = check(
            &lint,
            "pub const A_DOMAIN: u64 = 0x99;\n\
             pub const B_DOMAIN: u64 = 0x22;\n\
             pub const C_DOMAIN: u64 = 0x22;\n\
             pub const NEW_DOMAIN: u64 = 0x55;\n",
        );
        assert!(findings.iter().any(|f| f.message.contains("registry says")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("not in the registry")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("no longer exists")));
        // C drifted? No: C's registry value is 0x33 but source says 0x22 —
        // that reports as drift, not duplication, because drifted tags never
        // reach the collision map.
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.message.contains("share the value"))
                .count(),
            0
        );
    }

    #[test]
    fn duplicate_values_between_correctly_registered_tags_fire() {
        let lint = DomainTag::with_registry(vec![("A_DOMAIN", 0x22), ("B_DOMAIN", 0x22)]);
        let findings = check(
            &lint,
            "pub const A_DOMAIN: u64 = 0x22;\npub const B_DOMAIN: u64 = 0x22;\n",
        );
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.message.contains("share the value"))
                .count(),
            2,
            "{findings:?}"
        );
    }

    #[test]
    fn underscored_hex_literals_parse() {
        assert_eq!(
            parse_u64_literal("0xcac4_e4e7_5e12_7a03"),
            Some(0xcac4_e4e7_5e12_7a03)
        );
        assert_eq!(parse_u64_literal("1_000"), Some(1000));
    }
}
