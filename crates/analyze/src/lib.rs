//! mspt-analyze: the workspace lint pass that machine-checks the
//! determinism and locking contracts.
//!
//! The workspace's correctness story rests on two contracts that the type
//! system cannot express and code review keeps re-litigating:
//!
//! * **determinism** — every random stream derives from
//!   `chunk_seed(seed ^ DOMAIN, chunk)`, domain tags are globally unique,
//!   and no wall clock or hash-order iteration feeds an evaluation result;
//! * **locking** — a consistent acquisition order, condvar predicates
//!   re-checked in loops, an explicit poison policy, and no blocking calls
//!   under a held guard.
//!
//! (The codecs need no lint: both render one field list per wire type, so
//! encode and decode agree by construction.)
//!
//! This crate machine-checks both. It is deliberately dependency-free:
//! a hand-rolled [`lexer`] strips comments and strings into a token stream,
//! [`source`] walks the workspace and computes `#[cfg(test)]` regions, and
//! the [`lint`] framework runs the four lints in [`lints`] and applies the
//! escape comments.
//!
//! # Escape comments
//!
//! A finding is suppressed — visibly, auditable in the JSON artifact — by a
//! comment on the same line or the contiguous comment lines directly above:
//!
//! ```text
//! // mspt-analyze: allow(raw-seed) seed already derived by run_indexed
//! let rng = StdRng::seed_from_u64(seed);
//! ```
//!
//! The reason is mandatory; a reasonless or malformed escape comment is
//! itself a deny finding, and an escape comment that suppresses nothing is
//! a warning so stale allows surface instead of rotting.
//!
//! # CI
//!
//! The `static-analysis` job runs `mspt-analyze` in deny mode before the
//! build matrix and uploads `ANALYZE_findings.json`; any active deny
//! finding fails the job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod lexer;
pub mod lint;
pub mod lints;
pub mod source;

pub use diagnostics::{render_findings_json, write_findings_json, Finding, Severity};
pub use lint::{default_lints, run_lints, Lint};
pub use source::{SourceFile, Workspace};
