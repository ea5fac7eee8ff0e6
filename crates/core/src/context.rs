//! Execution context threaded through every operator invocation.
//!
//! Its three ledgers stay bounded on a long-lived context: an apply-path
//! call runs [`quiet`](keystone_dataflow::ledger::quiet), and with no
//! [`LedgerWindow`](crate::report::LedgerWindow) open its node-run rows
//! only add to each ledger's running totals. A fit, or any run inside a
//! window, stores its rows. No per-call figure reads the shared rows: a
//! node run's simulated seconds are a tally of its own thread's charges.

use std::borrow::Cow;

use keystone_dataflow::cluster::{ClusterProfile, ResourceDesc};
use keystone_dataflow::faults::FaultPlan;
use keystone_dataflow::metrics::MetricsRegistry;
use keystone_dataflow::simclock::SimClock;

use crate::trace::Tracer;

/// Shared execution context: the cluster descriptor plus three ledgers —
/// the simulated clock (`sim`), the node-level event sink (`tracer`, whose
/// `NodeEnd` events are the one record of per-node wall time and execution
/// counts) and the partition-level metrics registry (`metrics`).
///
/// Cloning is cheap and shares the underlying ledgers, so operators deep in
/// a pipeline charge the same clock — and trace into the same sink — the
/// driver reads.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Cluster resource descriptor (`R`).
    pub resources: ResourceDesc,
    /// Simulated cluster clock.
    pub sim: SimClock,
    /// Structured event sink for optimizer and executor decisions.
    pub tracer: Tracer,
    /// Partition-level task spans. The executor
    /// opens a task scope per node, so every `DistCollection` operation an
    /// operator runs lands here with stage/partition/worker attribution.
    pub metrics: MetricsRegistry,
    /// Optional deterministic fault-injection plan. When set, the executor
    /// threads it into every task scope (task failures and stragglers land
    /// inside partition work) and probes it for cache-entry loss; recovery
    /// costs are charged back to `sim`.
    pub faults: Option<FaultPlan>,
}

impl<'a> From<&'a ExecContext> for Cow<'a, ExecContext> {
    fn from(ctx: &'a ExecContext) -> Self {
        Cow::Borrowed(ctx)
    }
}

impl From<ExecContext> for Cow<'_, ExecContext> {
    fn from(ctx: ExecContext) -> Self {
        Cow::Owned(ctx)
    }
}

impl ExecContext {
    /// Context over an explicit descriptor.
    pub fn new(resources: ResourceDesc) -> Self {
        ExecContext {
            resources,
            sim: SimClock::new(),
            tracer: Tracer::new(),
            metrics: MetricsRegistry::new(),
            faults: None,
        }
    }

    /// Attaches a fault-injection plan; pipelines fit under this context
    /// will see its scheduled task failures, stragglers, and cache losses.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Convenience: a 16-node `r3.4xlarge` cluster, the paper's default.
    /// Use this when the quantity of interest is the *simulated* cluster
    /// clock (scaling studies, paper-scale cost estimates).
    pub fn default_cluster() -> Self {
        Self::new(ClusterProfile::R3_4xlarge.descriptor(16))
    }

    /// Context whose resource descriptor is microbenchmarked from the local
    /// machine (§3: the descriptor "is collected via configuration data and
    /// microbenchmarks"). Use this when pipelines actually execute here and
    /// wall time is the quantity of interest — the optimizer's choices then
    /// reflect the hardware the operators really run on. `workers` should
    /// match the collection partition count (local parallelism).
    pub fn calibrated(workers: usize) -> Self {
        Self::new(keystone_dataflow::cluster::calibrate_local(workers))
    }

    /// Copy of this context pointing at a different worker count but
    /// sharing ledgers (used by scaling sweeps).
    pub fn with_workers(&self, workers: usize) -> Self {
        ExecContext {
            resources: self.resources.with_workers(workers),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cluster_is_16_nodes() {
        let ctx = ExecContext::default_cluster();
        assert_eq!(ctx.resources.workers, 16);
    }

    #[test]
    fn with_workers_shares_clocks() {
        let ctx = ExecContext::default_cluster();
        let scaled = ctx.with_workers(128);
        scaled.sim.charge_seconds("x", 1.0, 0.0);
        assert_eq!(ctx.sim.total_seconds(), 1.0);
        assert_eq!(scaled.resources.workers, 128);
    }
}
