//! The three workloads and how each cluster is built.
//!
//! Every workload is the paper's Fig. 3 cluster: one simulated client
//! host holding 16 closed-loop connections (pipeline 1, 50/50 GET/SET,
//! a reconnect every 200 requests) in front of two log-normal KV
//! backends behind the latency-aware LB (`AlphaShift::damped`).

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use experiments::chaos::{build_chaos_cluster, ChaosConfig};
use experiments::topology::VIP;
use experiments::{KvCluster, KvClusterConfig};
use lb_dataplane::LbConfig;
use lbcore::{AlphaShift, BackendEstimator, Controller, Weights};
use netsim::fault::{FaultSchedule, ImpairmentConfig};
use netsim::{Duration, Time};
use telemetry::{JournalMode, SpanMode};

use crate::measure::Stopwatch;

/// Journal capacity for `kv_recorded`: far above the events a run makes,
/// so the journal never overflows (the run checks that it did not).
pub const JOURNAL_CAPACITY: usize = 1 << 22;
/// Span-hop capacity for `kv_recorded`, sized the same way.
pub const SPAN_CAPACITY: usize = 1 << 24;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3: 1 ms hits backend 0 at mid-run; every recorder off.
    KvFig3,
    /// `KvFig3` with the decision journal and span tracing both `Full`,
    /// exported to NDJSON when the run ends.
    KvRecorded,
    /// Backend 0 crashes and restarts; light impairment on the
    /// survivor's forwarding path during the outage.
    KvChaos,
}

/// Workload names, in report order.
pub const WORKLOADS: &[&str] = &["kv_fig3", "kv_recorded", "kv_chaos"];

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "kv_fig3" => Some(Workload::KvFig3),
            "kv_recorded" => Some(Workload::KvRecorded),
            "kv_chaos" => Some(Workload::KvChaos),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvFig3 => "kv_fig3",
            Workload::KvRecorded => "kv_recorded",
            Workload::KvChaos => "kv_chaos",
        }
    }

    /// The simulated span a run covers. The KV workloads run half of
    /// `perfbench`'s `fig3_kv` span, which keeps `kv_recorded`'s span log
    /// and its NDJSON export near 250 MB; `kv_chaos` runs `perfbench`'s
    /// `chaos` timeline scaled to 5 s, long enough to eject backend 0
    /// after the crash and readmit it after the restart.
    pub fn span(self) -> Duration {
        match self {
            Workload::KvFig3 | Workload::KvRecorded => Duration::from_millis(1500),
            Workload::KvChaos => Duration::from_millis(5000),
        }
    }

    /// True when the run records the journal and the span trace.
    pub fn recorded(self) -> bool {
        self == Workload::KvRecorded
    }
}

/// The chaos timeline for a span: crash at a quarter of it, restart at
/// 9/16 of it, the proportions of `perfbench`'s 8 s `chaos` run (crash
/// at 2 s, restart at 4.5 s).
pub fn chaos_config(span: Duration, seed: u64) -> ChaosConfig {
    let ns = span.as_nanos();
    ChaosConfig {
        duration: span,
        crash_at: Duration::from_nanos(ns / 4),
        restart_at: Duration::from_nanos(ns / 16 * 9),
        impair: Some(ImpairmentConfig::light(seed)),
        bin: Duration::from_millis(250),
        seed,
    }
}

/// Calls and host time of the controller, shared between the timing
/// shim inside the LB and the benchmark that reads it after the run.
#[derive(Debug, Default)]
pub struct ControllerClock {
    /// `maybe_update` calls.
    pub calls: Cell<u64>,
    /// Host ns spent in them, timer included.
    pub ns: Cell<u64>,
}

/// Wraps the LB's controller and times every `maybe_update`; decisions
/// pass through unchanged, so the simulation is the same with it or not.
struct TimedController {
    inner: Box<dyn Controller>,
    clock: Rc<ControllerClock>,
}

impl Controller for TimedController {
    fn maybe_update(
        &mut self,
        now: lbcore::Nanos,
        estimates: &BackendEstimator,
        weights: &mut Weights,
    ) -> bool {
        let t = Stopwatch::start();
        let changed = self.inner.maybe_update(now, estimates, weights);
        self.clock.ns.set(self.clock.ns.get() + t.ns());
        self.clock.calls.set(self.clock.calls.get() + 1);
        changed
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The latency-aware LB every workload runs, as an `LbConfig` factory;
/// with a `clock`, its controller is wrapped in the timing shim.
pub fn aware_lb(
    journal: JournalMode,
    clock: Option<Rc<ControllerClock>>,
) -> Box<dyn FnOnce(Vec<Ipv4Addr>) -> LbConfig> {
    Box::new(move |backends| {
        let inner: Box<dyn Controller> = Box::new(AlphaShift::damped());
        let controller = match clock {
            Some(clock) => Box::new(TimedController { inner, clock }) as Box<dyn Controller>,
            None => inner,
        };
        let mut c = LbConfig::latency_aware(VIP, backends, controller);
        c.journal = journal;
        c
    })
}

/// Builds the workload's cluster over `span` and applies its faults and
/// injections. With a `clock`, the controller is wrapped in the timing
/// shim; `kv_chaos` is then built from the same parts as
/// [`build_chaos_cluster`], which cannot take a controller.
pub fn build(
    w: Workload,
    seed: u64,
    span: Duration,
    clock: Option<Rc<ControllerClock>>,
) -> KvCluster {
    match w {
        Workload::KvFig3 | Workload::KvRecorded => {
            let journal = if w.recorded() {
                JournalMode::Full(JOURNAL_CAPACITY)
            } else {
                JournalMode::Off
            };
            let mut cfg = KvClusterConfig::fig3_defaults(aware_lb(journal, clock));
            cfg.seed = seed;
            let mut cluster = KvCluster::build(cfg);
            if w.recorded() {
                cluster.sim.enable_spans(SpanMode::Full(SPAN_CAPACITY));
            }
            cluster.inject_backend_delay(
                0,
                Time::ZERO + Duration::from_nanos(span.as_nanos() / 2),
                Duration::from_millis(1),
            );
            cluster
        }
        Workload::KvChaos => {
            let cfg = chaos_config(span, seed);
            let Some(clock) = clock else {
                return build_chaos_cluster(&cfg, true);
            };
            let mut cluster_cfg =
                KvClusterConfig::fig3_defaults(aware_lb(JournalMode::Off, Some(clock)));
            cluster_cfg.seed = cfg.seed;
            for c in &mut cluster_cfg.clients {
                c.recorder_bin = cfg.bin;
            }
            let mut cluster = KvCluster::build(cluster_cfg);
            let crash = Time::ZERO + cfg.crash_at;
            let restart = Time::ZERO + cfg.restart_at;
            let mut faults = FaultSchedule::new();
            faults.crash_window(cluster.backends[0], crash, restart);
            if let Some(imp) = cfg.impair {
                faults.impair_window(cluster.backend_links[1], cluster.lb, imp, crash, restart);
            }
            faults.apply(&mut cluster.sim);
            cluster
        }
    }
}

/// Number of links in a cluster `KvCluster::build` made without a
/// congested path: one arm per LB, one forwarding link per LB and
/// backend, one return link per backend and one access link per client.
/// Link ids are dense, so these are `LinkId(0..n)`.
pub fn link_count(c: &KvCluster) -> u32 {
    (c.lb_arms.len() + c.backends.len() * (c.lbs.len() + 1) + c.clients.len()) as u32
}
