//! # keystone-dataflow
//!
//! A from-scratch stand-in for the distributed data-flow engine KeystoneML
//! runs on (Apache Spark in the paper). It provides:
//!
//! * [`collection::DistCollection`] — an immutable, partitioned collection
//!   executed **for real** on a local thread pool, with one logical worker
//!   per simulated cluster node;
//! * [`columnar::ColumnarBatch`] — contiguous per-partition storage for
//!   dense `f64` records, the execution-time representation the optimizer's
//!   columnar fused path gathers partitions into so operator chains run as
//!   tight loops over slices;
//! * [`cluster::ResourceDesc`] — the cluster resource descriptor of §3
//!   (per-node GFLOP/s, memory/disk/network bandwidth, node count), with
//!   hardware presets and a microbenchmark calibrator;
//! * [`cost::CostProfile`] — the `(flops, bytes, network)` operator cost
//!   triple of Fig. 3, and the `R_exec/R_coord` weighting that converts it
//!   into estimated seconds;
//! * [`simclock::SimClock`] — a simulated cluster clock accumulating those
//!   estimates per stage, so experiments can report cluster-scale times that
//!   a laptop cannot physically produce;
//! * [`cache::CacheManager`] — the budgeted cache layer with the pinned-set
//!   policy driven by the whole-pipeline optimizer, plus the LRU policy
//!   (with Spark-like admission control) used as a baseline in Fig. 10;
//! * [`metrics::MetricsRegistry`] — partition-level observability: the
//!   ledger of per-task spans with worker-lane attribution, and per-stage
//!   skew/utilization analysis over it;
//! * [`ledger::Ledger`] — the row ledger under the clock, the registry and
//!   the core crate's tracer: rows in recording order plus running totals;
//!   an apply-path call's node-run rows reach only the totals unless a
//!   window is open;
//! * [`json`] — the one JSON codec (the sorted-key [`json::JVal`] document
//!   builder and a parser) every report, artifact and trace export goes
//!   through;
//! * [`faults::FaultPlan`] — deterministic, seeded fault injection (task
//!   failures, stragglers, cache-entry loss) that the recovery machinery is
//!   tested against: a failed partition attempt, injected or a real panic,
//!   is re-run by [`collection`], and a lost cache entry is recomputed from
//!   its lineage by the executor.

pub mod cache;
pub mod cluster;
pub mod collection;
pub mod columnar;
pub mod cost;
pub mod faults;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod simclock;

/// Tiny seed-splitting helper shared by deterministic samplers.
pub mod rng_util {
    /// Derives an independent-ish seed from `(seed, stream)` via splitmix64.
    pub fn split_seed(seed: u64, stream: u64) -> u64 {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

pub use cache::{CacheManager, CachePolicy};
pub use cluster::{ClusterProfile, ResourceDesc};
pub use collection::DistCollection;
pub use columnar::ColumnarBatch;
pub use cost::CostProfile;
pub use faults::{FaultPlan, FaultSpec};
pub use metrics::{MetricsRegistry, StageSkew, TaskSpan};
pub use simclock::SimClock;
