//! The four repo-contract lints.
//!
//! Each module ships one [`crate::lint::Lint`] implementation:
//!
//! | lint | contract |
//! |---|---|
//! | [`raw_seed`] | RNG streams in deterministic crates derive from `chunk_seed` |
//! | [`domain_tag`] | `*_DOMAIN` seed tags are registered and collision-free |
//! | [`unsafe_calls`] | no wall clocks or hash-order iteration in evaluation paths |
//! | [`locks`] | lock ordering, condvar predicates, poison policy, no blocking under a lock |

pub mod domain_tag;
pub mod locks;
pub mod raw_seed;
pub mod unsafe_calls;

use crate::lexer::Token;
use crate::source::matching;

/// Whether `tokens[index..]` starts a `.name(` method-call sequence, with
/// `index` pointing at the `.`.
pub(crate) fn is_method_call(tokens: &[Token], index: usize, name: &str) -> bool {
    tokens[index].is_punct('.')
        && tokens
            .get(index + 1)
            .is_some_and(|token| token.is_ident(name))
        && tokens
            .get(index + 2)
            .is_some_and(|token| token.is_punct('('))
}

/// Index of the token opening the bracket closed at `close_index`.
pub(crate) fn matching_back(
    tokens: &[Token],
    close_index: usize,
    open: char,
    close: char,
) -> Option<usize> {
    if !tokens.get(close_index)?.is_punct(close) {
        return None;
    }
    let mut depth = 0i32;
    for index in (0..=close_index).rev() {
        if tokens[index].is_punct(close) {
            depth += 1;
        } else if tokens[index].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(index);
            }
        }
    }
    None
}

/// Resolves the receiver identifier of a method call whose `.` sits at
/// `dot_index`: steps back over one postfix group (a call's `(…)` or an
/// index's `[…]`) and then over field chains, returning the nearest named
/// receiver — `self.state.lock()` → `state`, `shard_for(key).lock()` →
/// `shard_for`, `slots[i].lock()` → `slots`.
pub(crate) fn receiver_name(tokens: &[Token], dot_index: usize) -> Option<(String, usize)> {
    let mut index = dot_index.checked_sub(1)?;
    loop {
        let token = &tokens[index];
        if token.is_punct(')') {
            index = matching_back(tokens, index, '(', ')')?.checked_sub(1)?;
        } else if token.is_punct(']') {
            index = matching_back(tokens, index, '[', ']')?.checked_sub(1)?;
        } else {
            break;
        }
    }
    let token = &tokens[index];
    if token.kind == crate::lexer::TokenKind::Ident && token.text != "self" {
        return Some((token.text.clone(), index));
    }
    None
}

/// Index just past the close paren of the call opened right after
/// `tokens[name_index]` (the method or function name), if it is a call.
pub(crate) fn call_close(tokens: &[Token], name_index: usize) -> Option<usize> {
    matching(tokens, name_index + 1, '(', ')')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn receiver_resolution_handles_fields_calls_and_indexing() {
        let cases = [
            ("self.state.lock()", "state"),
            ("self.shard_for(key).lock()", "shard_for"),
            ("slots[index].lock()", "slots"),
            ("queue.lock()", "queue"),
        ];
        for (source, expected) in cases {
            let tokens = lex(source).tokens;
            let dot = tokens
                .iter()
                .enumerate()
                .rev()
                .find(|(index, token)| {
                    token.is_punct('.') && is_method_call(&tokens, *index, "lock")
                })
                .map(|(index, _)| index)
                .unwrap();
            let (name, _) = receiver_name(&tokens, dot).unwrap();
            assert_eq!(name, expected, "source: {source}");
        }
    }
}
