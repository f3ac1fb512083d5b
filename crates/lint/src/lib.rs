//! otae-lint: dependency-free static analysis for the otae workspace.
//!
//! Enforces the architectural invariants the test suite cannot see
//! locally — deterministic hashing, injected clocks, seeded RNGs,
//! panic-free serve paths, order-independent float accumulation, and the
//! lock discipline of the concurrent service. `clippy.toml` owns what
//! clippy can resolve by name (the unbounded-channel and SipHash
//! constructor bans). See DESIGN.md §10 for the rule catalogue and
//! allowlist rationales.
//!
//! The crate is a library plus a thin CLI (`cargo run -p otae-lint`) so the
//! fixture testsuite and property tests drive the exact engine CI runs.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod rules;
pub mod scope;
pub mod walk;

pub use config::{path_is_test, Rule, ENFORCED};
pub use diag::Diagnostic;
pub use lexer::{lex, Lexed, Token, TokenKind};
pub use rules::{lint_source, lint_workspace, SourceFile, WorkspaceReport};
pub use scope::mark_test_scopes;
