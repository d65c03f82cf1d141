//! # mmph-perfbench — the repository's benchmark
//!
//! One harness for the whole system, measured from the outside in:
//!
//! - an untraced run drives the real `mmph serve` daemon over its
//!   NDJSON protocol and reports the end-to-end metrics a user sees;
//! - a traced run replays the same generated inputs in-process through
//!   each layer's public functions, with spans recorded around those
//!   calls in this crate, and reports per-layer metrics;
//! - `compare` decides, per workload and metric, whether a change is a
//!   gain, a regression, unchanged, or unresolved.
//!
//! `BENCHMARK.json` at the repository root is the definition; see
//! `BENCHMARK.md` beside this crate for the workloads, the layer table
//! and the commands.

pub mod compare;
pub mod daemon;
pub mod record;
pub mod reference;
pub mod registry;
pub mod stats;
pub mod trace;
pub mod workloads;
