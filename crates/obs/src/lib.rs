//! # keystone-obs — flight recorder, diagnosis engine, regression gate
//!
//! The observability layer over the KeystoneML reproduction: everything a
//! run already emits (trace events, task spans, metrics, the
//! predicted-vs-actual pipeline report, recovery stats, serve telemetry)
//! is joined into one versioned, self-describing [`RunArtifact`] keyed by
//! plan-node id, then consumed two ways:
//!
//! * [`diagnose`] runs rule-based detectors over the artifact and emits
//!   structured [`Finding`]s — stragglers, cache thrash, unpaid
//!   materialization picks, mispredictions, fusion barriers, linger-bound
//!   serving, recovery overhead — each with severity and the evidence
//!   that triggered it.
//! * [`regress`](crate::regress) snapshots the gateable virtual metrics
//!   into `BENCH_*.json` files, and fails CI when a committed baseline
//!   regresses beyond tolerance.
//!
//! The load-bearing invariant, inherited from the dual-clock design:
//! **virtual quantities are deterministic, wall quantities are not.**
//! Captured in deterministic mode (the default), two identical seeded
//! runs serialize to *byte-identical* JSON — which is what makes a
//! committed `BENCH_*.json` baseline meaningful on any machine, and what
//! lets CI verify an artifact by re-running and comparing bytes.

pub mod artifact;
pub mod diagnose;
pub mod regress;

pub use artifact::{
    schema_version_of, CaptureOptions, HistogramRow, NodeRow, PlanNode, PlanSection, RunArtifact,
    RunKind, ServeSection, SpanRow, SCHEMA_VERSION,
};
pub use diagnose::{
    diagnose, diagnose_with, replanner_hints, DiagnoseOptions, Diagnosis, Finding, Severity,
};
pub use regress::{direction_of, BenchSnapshot, Direction, GateReport, Regression, RegressionGate};
