//! # keystone-serve
//!
//! A micro-batched serving front-end for fitted KeystoneML pipelines — the
//! "millions of users" path: the training-time optimizations (whole-stage
//! fusion, materialization, operator selection) are amortized per *request*
//! by grouping single-record `apply()` calls into per-partition waves.
//!
//! The layer is built from three pieces:
//!
//! * [`policy::BatchPolicy`] — the batching knobs: maximum batch size,
//!   maximum linger (how long an open batch waits for more arrivals), and
//!   the bounded admission queue.
//! * [`batcher::MicroBatcher`] — a deterministic discrete-event loop over
//!   *virtual* time: requests arrive at stamped instants, admission control
//!   rejects when the queue is full, and each dispatched batch charges the
//!   executor for its (simulated) execution seconds. Per-request latency is
//!   decomposed exactly into queue + batch + execute components.
//! * [`server::Server`] — binds the batcher to a fitted pipeline's
//!   [`ExecutablePlan`](keystone_core::pipeline::ExecutablePlan): one batch
//!   = one `execute` wave through the very code path
//!   `FittedPipeline::apply` uses, with a cross-request
//!   [`CacheManager`](keystone_dataflow::cache::CacheManager) serving a
//!   hand-built plan's request-independent values to later waves.
//!
//! Everything the layer *accounts* — linger, queue wait, execution cost —
//! lives on the simulated clock (`SimClock`) and is a pure function of the
//! plan, the policy, and the arrival schedule, so two runs with the same
//! seed produce bit-identical per-request breakdowns. Wall-clock time is
//! measured only to report sustained QPS.
//!
//! The differential testkit holds this path to the batch one: feeding
//! held-out records one at a time through a [`server::Server`] must be
//! bit-identical to a single `FittedPipeline::apply`, across batch-size and
//! linger settings, with and without injected faults.

pub mod batcher;
pub mod loadgen;
pub mod policy;
pub mod server;

pub use batcher::{
    Arrival, BatchSchedule, DispatchedBatch, MicroBatcher, Rejection, RequestTiming,
};
pub use loadgen::{percentile, LoadGen};
pub use policy::{BatchPolicy, RejectReason};
pub use server::{Request, Response, ServeOutcome, Server};
