//! The chaos scenario: a backend crash and restart under the Fig. 3
//! cluster, plain Maglev vs. the latency-aware LB with health ejection.
//!
//! The failure mode this demonstrates is the blackhole the paper's
//! in-band signal closes: when a backend dies, a hash-only LB keeps
//! assigning it new connections forever (clients burn RTO after RTO),
//! while the latency-aware LB notices the *silence* — traffic offered,
//! zero `T_LB` samples returned — ejects the backend within a few
//! detection epochs, migrates its pinned flows, and readmits it through
//! probation once it answers again after the restart.

use netsim::fault::ImpairmentConfig;
use netsim::{Duration, Time};
use telemetry::{JournalMode, Table};

use crate::scenario::{self, FaultSpec, LbMode, Scenario};
use crate::topology::KvCluster;

/// Chaos-scenario parameters. The paper-scale timeline (200 s, crash at
/// t = 100 s, restart at t = 150 s) is [`ChaosConfig::full`]; the default
/// compresses the same dynamics into 60 s.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Total run length.
    pub duration: Duration,
    /// When backend 0 crashes (goes completely silent).
    pub crash_at: Duration,
    /// When backend 0 restarts.
    pub restart_at: Duration,
    /// Optional packet impairment on the survivor's forwarding path
    /// during the outage (corruption/duplication/reordering), to stress
    /// detection while the cluster is already degraded.
    pub impair: Option<ImpairmentConfig>,
    /// Latency-series bin width.
    pub bin: Duration,
    /// Root seed.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            duration: Duration::from_secs(60),
            crash_at: Duration::from_secs(20),
            restart_at: Duration::from_secs(40),
            impair: None,
            bin: Duration::from_secs(1),
            seed: 42,
        }
    }
}

impl ChaosConfig {
    /// The paper-scale timeline: 200 s, crash at t = 100 s, restart at
    /// t = 150 s.
    pub fn full() -> ChaosConfig {
        ChaosConfig {
            duration: Duration::from_secs(200),
            crash_at: Duration::from_secs(100),
            restart_at: Duration::from_secs(150),
            ..ChaosConfig::default()
        }
    }

    /// A fast variant for integration tests: 8 s, crash at t = 2 s,
    /// restart at t = 4.5 s.
    pub fn quick() -> ChaosConfig {
        ChaosConfig {
            duration: Duration::from_secs(8),
            crash_at: Duration::from_secs(2),
            restart_at: Duration::from_millis(4500),
            bin: Duration::from_millis(250),
            ..ChaosConfig::default()
        }
    }

    /// The scenario one variant runs: the Fig. 3 cluster behind `lb`
    /// with backend 0 crashed over `[crash_at, restart_at)` and, if set,
    /// `impair` on LB 0's path to backend 1 over the same window. The
    /// impairment probabilities are rounded to whole parts per million
    /// (exact for [`ImpairmentConfig::light`]).
    pub fn scenario(&self, lb: LbMode) -> Scenario {
        let mut sc = Scenario::fig3_cluster(self.seed, self.duration);
        sc.lb = lb;
        sc.bin = self.bin;
        sc.faults.push(FaultSpec::Crash {
            backend: 0,
            down: self.crash_at,
            up: self.restart_at,
        });
        if let Some(imp) = self.impair {
            let ppm = |p: f64| (p * 1e6).round() as u32;
            sc.faults.push(FaultSpec::Impair {
                lb: 0,
                backend: 1,
                from: self.crash_at,
                until: self.restart_at,
                corrupt_ppm: ppm(imp.corrupt_p),
                duplicate_ppm: ppm(imp.duplicate_p),
                reorder_ppm: ppm(imp.reorder_p),
                window: imp.reorder_window,
                seed: imp.seed,
            });
        }
        sc
    }
}

/// Builds the chaos cluster (fault schedule armed, not yet run).
/// Exposed so tests can enable tracing on the simulation before running
/// it.
pub fn build_chaos_cluster(cfg: &ChaosConfig, latency_aware: bool) -> KvCluster {
    let lb = if latency_aware {
        LbMode::Aware
    } else {
        LbMode::Baseline
    };
    scenario::build(&cfg.scenario(lb), JournalMode::Off)
}

/// One LB variant's outcome.
pub struct ChaosRun {
    /// `(bin start ns, p95 GET latency ns)` series.
    pub p95_series: Vec<(u64, u64)>,
    /// Completed requests.
    pub completed: u64,
    /// Connections broken under the client (reset or RTO-aborted).
    pub conns_broken: u64,
    /// Requests lost on broken connections.
    pub requests_lost: u64,
    /// LB weight of the crashed backend over time.
    pub dead_weight: Vec<(u64, f64)>,
    /// First instant at or after the crash when the crashed backend's
    /// weight reached zero (the ejection), if any (ns).
    pub ejected_at: Option<u64>,
    /// First instant at or after the restart when the crashed backend's
    /// weight rose above zero again (the readmission), if any (ns).
    pub readmitted_at: Option<u64>,
    /// LB health-tracker ejections.
    pub ejections: u64,
    /// LB health-tracker readmissions.
    pub readmissions: u64,
    /// Flow-table entries migrated off the dead backend.
    pub flows_repinned: u64,
    /// Packets dropped while every backend was ejected.
    pub no_backend_drops: u64,
    /// `T_LB` samples the LB produced.
    pub lb_samples: u64,
}

/// The full chaos result: baseline vs. latency-aware.
pub struct ChaosResult {
    /// Parameters used.
    pub cfg: ChaosConfig,
    /// Plain-Maglev run (no health tracking: the blackhole).
    pub baseline: ChaosRun,
    /// Latency-aware run with health ejection.
    pub aware: ChaosRun,
}

fn run_variant(cfg: &ChaosConfig, lb: LbMode) -> ChaosRun {
    let sc = cfg.scenario(lb);
    let mut cluster = scenario::build(&sc, JournalMode::Off);
    scenario::drive(&mut cluster, &sc);

    let client = cluster.client_app(0);
    let stats = client.stats;
    let lb = cluster.lb_node();
    let dead = lb.weight_series(0);
    let crash_ns = (Time::ZERO + cfg.crash_at).as_nanos();
    let restart_ns = (Time::ZERO + cfg.restart_at).as_nanos();
    ChaosRun {
        p95_series: client.recorder.get_series.quantile_series(0.95),
        completed: client.recorder.responses,
        conns_broken: stats.conns_broken,
        requests_lost: stats.requests_lost,
        dead_weight: dead.points().to_vec(),
        ejected_at: dead.first_time_after(crash_ns, |w| w <= 0.0),
        readmitted_at: dead.first_time_after(restart_ns, |w| w > 0.0),
        ejections: lb.stats().ejections,
        readmissions: lb.stats().readmissions,
        flows_repinned: lb.stats().flows_repinned,
        no_backend_drops: lb.stats().no_backend_drops,
        lb_samples: lb.stats().samples,
    }
}

/// Runs both variants.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosResult {
    let baseline = run_variant(cfg, LbMode::Baseline);
    let aware = run_variant(cfg, LbMode::Aware);
    ChaosResult {
        cfg: cfg.clone(),
        baseline,
        aware,
    }
}

/// Renders the p95-vs-time comparison (the recovery shape).
pub fn chaos_table(r: &ChaosResult) -> Table {
    let mut t = Table::new(
        "Chaos: p95 GET latency over time (us), backend 0 crashed then restarted",
        &["t_s", "maglev_p95", "aware_p95"],
    );
    let mut by_bin: std::collections::BTreeMap<u64, (Option<u64>, Option<u64>)> =
        std::collections::BTreeMap::new();
    for &(at, v) in &r.baseline.p95_series {
        by_bin.entry(at).or_default().0 = Some(v);
    }
    for &(at, v) in &r.aware.p95_series {
        by_bin.entry(at).or_default().1 = Some(v);
    }
    let us = |v: Option<u64>| {
        v.map(|x| format!("{:.1}", x as f64 / 1e3))
            .unwrap_or_else(|| "-".into())
    };
    for (at, (b, a)) in by_bin {
        t.row(&[format!("{:.1}", at as f64 / 1e9), us(b), us(a)]);
    }
    t
}

/// Renders the summary rows: detection/readmission timing and damage.
pub fn chaos_summary_table(r: &ChaosResult) -> Table {
    let mut t = Table::new(
        "Chaos summary",
        &[
            "variant",
            "requests",
            "conns_broken",
            "requests_lost",
            "eject_ms",
            "readmit_ms",
            "repinned",
            "ejections",
            "readmissions",
        ],
    );
    let crash_ns = (Time::ZERO + r.cfg.crash_at).as_nanos();
    let restart_ns = (Time::ZERO + r.cfg.restart_at).as_nanos();
    for (name, run) in [("maglev", &r.baseline), ("latency-aware", &r.aware)] {
        let eject = run
            .ejected_at
            .map(|t| format!("{:.1}", t.saturating_sub(crash_ns) as f64 / 1e6))
            .unwrap_or_else(|| "-".into());
        let readmit = run
            .readmitted_at
            .map(|t| format!("{:.1}", t.saturating_sub(restart_ns) as f64 / 1e6))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            name.to_string(),
            run.completed.to_string(),
            run.conns_broken.to_string(),
            run.requests_lost.to_string(),
            eject,
            readmit,
            run.flows_repinned.to_string(),
            run.ejections.to_string(),
            run.readmissions.to_string(),
        ]);
    }
    t
}
