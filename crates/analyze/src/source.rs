//! The analyzed source model: one lexed file with its test regions and
//! escape comments, and the workspace walker that collects them.
//!
//! # Test-code exclusion
//!
//! The contracts the lints enforce bind **library** code; tests violate them
//! on purpose (pinned raw seeds, deliberate poison, hostile documents). The
//! walker therefore excludes `tests/`, `benches/` and `examples/`
//! directories entirely, and [`SourceFile::from_source`] computes the token
//! spans guarded by a `#[cfg(test)]` attribute (a `mod tests { … }` block or
//! a single item) so in-file unit tests are exempt too.

use std::path::{Path, PathBuf};

use crate::lexer::{lex, AllowComment, Token};

/// One lexed source file plus the metadata the lints key on.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as reported in findings (workspace-relative when walked).
    pub path: PathBuf,
    /// The crate directory name under `crates/` (`sim`, `serve`, …); the
    /// facade crate reports as `mspt`.
    pub crate_name: String,
    /// Token stream (comments stripped, string contents preserved).
    pub tokens: Vec<Token>,
    /// `// mspt-analyze: allow(…)` escape comments, in source order.
    pub allows: Vec<AllowComment>,
    /// Half-open token-index ranges under `#[cfg(test)]`.
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes a source text into an analyzable file.
    #[must_use]
    pub fn from_source(path: impl Into<PathBuf>, crate_name: &str, source: &str) -> SourceFile {
        let lexed = lex(source);
        let test_spans = test_spans(&lexed.tokens);
        SourceFile {
            path: path.into(),
            crate_name: crate_name.to_string(),
            tokens: lexed.tokens,
            allows: lexed.allows,
            test_spans,
        }
    }

    /// Whether the token at `index` sits inside a `#[cfg(test)]` region.
    #[must_use]
    pub fn is_test_token(&self, index: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(start, end)| index >= start && index < end)
    }

    /// Finds the escape comment silencing `lint` for a finding on `line`:
    /// either on the line itself, or in the contiguous run of escape-comment
    /// lines immediately above it (so multiple lints can be allowed for one
    /// statement, stacked one per line).
    #[must_use]
    pub fn allow_for(&self, lint: &str, line: u32) -> Option<&AllowComment> {
        let mut probe = line;
        loop {
            if let Some(found) = self
                .allows
                .iter()
                .find(|allow| allow.line == probe && allow.well_formed && allow.lint == lint)
            {
                return Some(found);
            }
            // Step onto the previous line only while it is a *pure* escape
            // line: an escape comment with no code tokens of its own, so an
            // inline allow never leaks onto the statement below it.
            let above = probe.checked_sub(1)?;
            let above_is_pure_escape = self.allows.iter().any(|allow| allow.line == above)
                && !self.tokens.iter().any(|token| token.line == above);
            if !above_is_pure_escape {
                return None;
            }
            probe = above;
        }
    }
}

/// Computes the token spans guarded by `#[cfg(test)]`-style attributes: the
/// attribute tokens themselves plus the following item (to its closing `}`
/// or terminating `;`).
fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut index = 0;
    while index < tokens.len() {
        if !tokens[index].is_punct('#') {
            index += 1;
            continue;
        }
        if !tokens
            .get(index + 1)
            .is_some_and(|token| token.is_punct('['))
        {
            index += 1;
            continue;
        }
        let Some(close) = matching(tokens, index + 1, '[', ']') else {
            index += 1;
            continue;
        };
        let guards_test = tokens[index + 2..close]
            .windows(2)
            .any(|pair| pair[0].is_ident("cfg") && pair[1].is_punct('('))
            && tokens[index + 2..close]
                .iter()
                .any(|token| token.is_ident("test"));
        if !guards_test {
            index = close + 1;
            continue;
        }
        // Skip any further attributes between the cfg and its item.
        let mut item = close + 1;
        while item < tokens.len() && tokens[item].is_punct('#') {
            match matching(tokens, item + 1, '[', ']') {
                Some(end) => item = end + 1,
                None => break,
            }
        }
        // The guarded item ends at its balanced `{ … }` or at `;`.
        let mut end = item;
        let mut depth_paren = 0i32;
        while end < tokens.len() {
            let token = &tokens[end];
            if token.is_punct('(') || token.is_punct('[') {
                depth_paren += 1;
            } else if token.is_punct(')') || token.is_punct(']') {
                depth_paren -= 1;
            } else if token.is_punct('{') && depth_paren == 0 {
                end = matching(tokens, end, '{', '}').unwrap_or(tokens.len() - 1);
                break;
            } else if token.is_punct(';') && depth_paren == 0 {
                break;
            }
            end += 1;
        }
        spans.push((index, (end + 1).min(tokens.len())));
        index = end + 1;
    }
    spans
}

/// Index of the token closing the bracket opened at `open_index`.
#[must_use]
pub fn matching(tokens: &[Token], open_index: usize, open: char, close: char) -> Option<usize> {
    if !tokens.get(open_index)?.is_punct(open) {
        return None;
    }
    let mut depth = 0i32;
    for (offset, token) in tokens[open_index..].iter().enumerate() {
        if token.is_punct(open) {
            depth += 1;
        } else if token.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(open_index + offset);
            }
        }
    }
    None
}

/// The whole analyzed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Every analyzed file.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks a workspace root, lexing `src/lib.rs`-rooted crate sources:
    /// the facade `src/` plus every `crates/<name>/src/` tree. `vendor/`
    /// stand-ins, `target/`, and `tests`/`benches`/`examples` directories
    /// are excluded (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns an error string when the root has no `crates/` directory or a
    /// source file cannot be read.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut files = Vec::new();
        let facade = root.join("src");
        if facade.is_dir() {
            collect(&facade, root, "mspt", &mut files)?;
        }
        let crates = root.join("crates");
        if !crates.is_dir() {
            return Err(format!("{} has no crates/ directory", root.display()));
        }
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|error| format!("reading {}: {error}", crates.display()))?
            .filter_map(std::result::Result::ok)
            .map(|entry| entry.path())
            .filter(|path| path.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let name = crate_dir
                .file_name()
                .map(|name| name.to_string_lossy().into_owned())
                .unwrap_or_default();
            let src = crate_dir.join("src");
            if src.is_dir() {
                collect(&src, root, &name, &mut files)?;
            }
        }
        Ok(Workspace { files })
    }
}

fn collect(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    files: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|error| format!("reading {}: {error}", dir.display()))?
        .filter_map(std::result::Result::ok)
        .map(|entry| entry.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let dir_name = path
                .file_name()
                .map(|name| name.to_string_lossy().into_owned());
            if matches!(
                dir_name.as_deref(),
                Some("tests" | "benches" | "examples" | "fixtures" | "target")
            ) {
                continue;
            }
            collect(&path, root, crate_name, files)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path)
                .map_err(|error| format!("reading {}: {error}", path.display()))?;
            let relative = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(SourceFile::from_source(relative, crate_name, &source));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_cover_mod_blocks_and_single_items() {
        let file = SourceFile::from_source(
            "x.rs",
            "sim",
            "fn live() { seed(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { seed(); }\n}\n\
             #[cfg(test)]\nuse std::collections::HashMap;\n\
             fn also_live() {}\n",
        );
        let seeds: Vec<bool> = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, token)| token.is_ident("seed"))
            .map(|(index, _)| file.is_test_token(index))
            .collect();
        assert_eq!(seeds, [false, true]);
        let map_index = file
            .tokens
            .iter()
            .position(|token| token.is_ident("HashMap"))
            .unwrap();
        assert!(file.is_test_token(map_index));
        let live_index = file
            .tokens
            .iter()
            .position(|token| token.is_ident("also_live"))
            .unwrap();
        assert!(!file.is_test_token(live_index));
    }

    #[test]
    fn cfg_all_test_regions_are_detected_too() {
        let file = SourceFile::from_source(
            "x.rs",
            "sim",
            "#[cfg(all(test, feature = \"x\"))]\nmod tests { fn t() {} }\n",
        );
        let t_index = file
            .tokens
            .iter()
            .position(|token| token.is_ident("t"))
            .unwrap();
        assert!(file.is_test_token(t_index));
    }

    #[test]
    fn allow_matches_same_line_and_stacked_lines_above() {
        let file = SourceFile::from_source(
            "x.rs",
            "sim",
            "// mspt-analyze: allow(raw-seed) reason one\n\
             // mspt-analyze: allow(lock-discipline) reason two\n\
             let x = 1; // mspt-analyze: allow(determinism-unsafe-calls) inline reason\n",
        );
        assert!(file.allow_for("raw-seed", 3).is_some());
        assert!(file.allow_for("lock-discipline", 3).is_some());
        assert!(file.allow_for("determinism-unsafe-calls", 3).is_some());
        // A non-adjacent allow does not leak downward.
        assert!(file.allow_for("raw-seed", 5).is_none());
        // An unrelated lint is not silenced.
        assert!(file.allow_for("domain-tag-registry", 3).is_none());
    }
}
