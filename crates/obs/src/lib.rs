//! # keystone-obs — flight recorder and diagnosis engine
//!
//! The observability layer over the KeystoneML reproduction: everything a
//! run already emits (trace events, task spans, the simulated-clock
//! ledger, the predicted-vs-actual pipeline report, serve telemetry)
//! is joined into one versioned, self-describing [`RunArtifact`] keyed by
//! plan-node id. [`diagnose`] runs rule-based detectors over the artifact
//! and emits structured [`Finding`]s — stragglers, cache thrash, unpaid
//! materialization picks, mispredictions, fusion barriers, linger-bound
//! serving, recovery overhead — each with severity and the evidence that
//! triggered it.
//!
//! The load-bearing invariant, inherited from the dual-clock design:
//! **virtual quantities are deterministic, wall quantities are not.**
//! Captured in deterministic mode (the default), two identical seeded
//! runs serialize to *byte-identical* JSON — which is what lets CI verify
//! an artifact by re-running and comparing bytes, and the goldens pin its
//! simulated seconds across commits. Wall-clock performance is gated by
//! `scripts/perf_smoke.sh` over the `perf/` benchmark, not here.

pub mod artifact;
pub mod diagnose;

pub use artifact::{
    schema_version_of, CaptureOptions, NodeRow, PlanNode, PlanSection, RunArtifact, RunKind,
    ServeSection, SCHEMA_VERSION,
};
pub use diagnose::{
    diagnose, diagnose_with, replanner_hints, DiagnoseOptions, Diagnosis, Finding, Severity,
};
