//! Fig. 3 of the paper: tail latency of a load-balanced two-backend
//! key-value cluster under a 1 ms latency injection, plain Maglev vs. the
//! latency-aware LB.

use netsim::{Duration, Time};
use telemetry::{JournalMode, SpanMode, Table};

use crate::scenario::{self, Injection, LbMode, Scenario};

/// The reaction rule's threshold: the LB has reacted once the degraded
/// backend's weight is below this (it holds less than half the traffic).
pub const REACTION_WEIGHT: f64 = 0.5;

/// Fig. 3 parameters. The paper runs 200 s with the injection at t = 100 s
/// on CloudLab; the default here is a 60 s run with injection at t = 20 s
/// (the dynamics are identical and the simulation stays snappy); pass
/// `full()` for the paper's timeline.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Total run length.
    pub duration: Duration,
    /// When the 1 ms delay is injected.
    pub inject_at: Duration,
    /// Injected extra delay.
    pub extra: Duration,
    /// Latency-series bin width.
    pub bin: Duration,
    /// Root seed.
    pub seed: u64,
    /// Decision-journal mode for the latency-aware LB (`Off` by default;
    /// journaling never perturbs the packet schedule, only records it).
    pub journal: JournalMode,
    /// Causal span-tracing mode (`Off` by default; like the journal,
    /// tracing records the schedule without perturbing it).
    pub span: SpanMode,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            duration: Duration::from_secs(60),
            inject_at: Duration::from_secs(20),
            extra: Duration::from_millis(1),
            bin: Duration::from_secs(1),
            seed: 42,
            journal: JournalMode::Off,
            span: SpanMode::Off,
        }
    }
}

impl Fig3Config {
    /// The paper's timeline: 200 s, injection at t = 100 s.
    pub fn full() -> Fig3Config {
        Fig3Config {
            duration: Duration::from_secs(200),
            inject_at: Duration::from_secs(100),
            ..Fig3Config::default()
        }
    }

    /// A fast variant for integration tests: 12 s, injection at t = 4 s.
    pub fn quick() -> Fig3Config {
        Fig3Config {
            duration: Duration::from_secs(12),
            inject_at: Duration::from_secs(4),
            bin: Duration::from_millis(500),
            ..Fig3Config::default()
        }
    }

    /// The scenario one variant runs: the Fig. 3 cluster behind `lb`,
    /// `extra` injected on backend 0's path at `inject_at`.
    pub fn scenario(&self, lb: LbMode) -> Scenario {
        let mut sc = Scenario::fig3_cluster(self.seed, self.duration);
        sc.lb = lb;
        sc.bin = self.bin;
        sc.injections.push(Injection {
            backend: 0,
            at: self.inject_at,
            extra: self.extra,
        });
        sc
    }
}

/// One LB variant's outcome.
pub struct Fig3Run {
    /// `(bin start ns, p95 GET latency ns)` series.
    pub p95_series: Vec<(u64, u64)>,
    /// p95 GET latency over the pre-injection window.
    pub p95_before: u64,
    /// p95 GET latency over the post-injection window.
    pub p95_after: u64,
    /// Completed requests.
    pub completed: u64,
    /// LB weight of the degraded backend over time (empty for baseline).
    pub degraded_weight: Vec<(u64, f64)>,
    /// Time of the first controller action after injection, if any (ns).
    pub first_reaction: Option<u64>,
    /// `T_LB` samples the LB produced.
    pub lb_samples: u64,
    /// The LB's decision journal as NDJSON (empty unless
    /// [`Fig3Config::journal`] is enabled).
    pub journal: String,
    /// The run's span records as NDJSON, canonically sorted (empty unless
    /// [`Fig3Config::span`] is enabled).
    pub spans: String,
    /// Hop records the span log rejected after its capacity filled — a
    /// non-zero value means `spans` covers only a prefix of the run.
    pub spans_dropped: u64,
}

/// The full Fig. 3 result: baseline vs. latency-aware.
pub struct Fig3Result {
    /// Parameters used.
    pub cfg: Fig3Config,
    /// Plain-Maglev run.
    pub baseline: Fig3Run,
    /// Latency-aware run.
    pub aware: Fig3Run,
}

fn run_variant(cfg: &Fig3Config, lb: LbMode) -> Fig3Run {
    let sc = cfg.scenario(lb);
    // Only the latency-aware LB's decisions are worth journaling.
    let journal = match lb {
        LbMode::Aware => cfg.journal,
        LbMode::Baseline => JournalMode::Off,
    };
    let mut cluster = scenario::build(&sc, journal);
    cluster.sim.enable_spans(cfg.span);
    scenario::drive(&mut cluster, &sc);

    let spans_dropped = cluster.sim.spans().dropped();
    let spans = {
        let mut recs = cluster.sim.take_span_records();
        telemetry::span::sort_records(&mut recs);
        telemetry::span::to_ndjson(&recs)
    };
    let recorder = &cluster.client_app(0).recorder;
    let inject_ns = (Time::ZERO + cfg.inject_at).as_nanos();
    let lb = cluster.lb_node();
    let series = lb.weight_series(0);
    Fig3Run {
        p95_series: recorder.get_series.quantile_series(0.95),
        p95_before: recorder.get_series.quantile_between(0, inject_ns, 0.95),
        p95_after: recorder
            .get_series
            .quantile_between(inject_ns, u64::MAX, 0.95),
        completed: recorder.responses,
        degraded_weight: series.points().to_vec(),
        // If noise-driven wander had already pushed the degraded backend
        // below half before the injection, the reaction is reported as
        // instantaneous (the system was already routing around it).
        first_reaction: series.first_below(inject_ns, REACTION_WEIGHT),
        lb_samples: lb.stats().samples,
        journal: lb.journal().to_ndjson(),
        spans,
        spans_dropped,
    }
}

/// Runs only the latency-aware variant — the reference the multi-LB
/// N=1 conformance suite compares against.
pub fn run_fig3_aware(cfg: &Fig3Config) -> Fig3Run {
    run_variant(cfg, LbMode::Aware)
}

/// Runs both variants.
pub fn run_fig3(cfg: &Fig3Config) -> Fig3Result {
    let baseline = run_variant(cfg, LbMode::Baseline);
    let aware = run_variant(cfg, LbMode::Aware);
    Fig3Result {
        cfg: cfg.clone(),
        baseline,
        aware,
    }
}

/// Renders the p95-vs-time comparison (the figure's two curves).
pub fn fig3_table(r: &Fig3Result) -> Table {
    let mut t = Table::new(
        "Fig 3: p95 GET latency over time (us), 1ms injected at one backend",
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

/// Renders the summary rows (who wins, by how much, and reaction speed).
pub fn fig3_summary_table(r: &Fig3Result) -> Table {
    let mut t = Table::new(
        "Fig 3 summary",
        &[
            "variant",
            "p95_before_us",
            "p95_after_us",
            "inflation",
            "reaction_ms",
            "requests",
        ],
    );
    let inject_ns = (Time::ZERO + r.cfg.inject_at).as_nanos();
    for (name, run) in [("maglev", &r.baseline), ("latency-aware", &r.aware)] {
        let inflation = if run.p95_before > 0 {
            run.p95_after as f64 / run.p95_before as f64
        } else {
            f64::NAN
        };
        let reaction = run
            .first_reaction
            .map(|t| format!("{:.2}", (t - inject_ns) as f64 / 1e6))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            name.to_string(),
            format!("{:.1}", run.p95_before as f64 / 1e3),
            format!("{:.1}", run.p95_after as f64 / 1e3),
            format!("{inflation:.2}x"),
            reaction,
            run.completed.to_string(),
        ]);
    }
    t
}
