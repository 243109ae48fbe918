//! # enprop-lint
//!
//! Domain-aware static analysis for the enprop workspace. The compiler
//! cannot see the reproduction's two load-bearing invariants:
//!
//! * **bit-identical determinism** — golden JSONL traces and the
//!   recorder bit-identity contract (a run's outputs do not depend on
//!   which `Recorder` watches it, DESIGN.md §10) break the moment a sim
//!   crate reads the host clock, iterates a `HashMap`, or grows ambient
//!   mutable state;
//! * **numeric fidelity** — the paper's Table 4 claims few-percent model
//!   error, which a silent truncating cast, an f32 in an energy integral,
//!   or a NaN-propagating sort can consume without any test failing.
//!
//! This crate encodes those invariants as lexical rules over a hand-rolled
//! comment/string-aware tokenizer ([`lexer`]), so the pass has zero
//! dependencies and works in the offline build. Rules are scoped per crate
//! (simulation crates, model crates, or workspace-wide) and individually
//! waivable at a site with a justification; see [`rules::RULES`] for the
//! catalogue and DESIGN.md §11 for the rationale behind each rule.
//!
//! Run it with `cargo run -p enprop-lint` (text) or
//! `cargo run -p enprop-lint -- --json` (CI). Exit codes: **0** clean,
//! **1** findings, **2** usage or I/O error.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod dims;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;
pub mod scan;
pub mod spine;
pub mod tree;
pub mod units;

pub use rules::{lint_source, FileReport, Finding, Rule, WaiverRecord, RULES};
pub use scan::{collect_rs_files, find_workspace_root, scan_workspace, Report};
