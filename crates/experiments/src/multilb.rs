//! Multi-LB scale-out: the Fig. 3 workload behind an ECMP-sharded tier
//! of N load balancers.
//!
//! The paper evaluates its controller behind a single LB; a real
//! deployment runs a tier of them behind router ECMP, where each
//! instance sees only the flows that hash to it and must converge from
//! that 1/N sample — the partial-visibility regime. This scenario puts
//! N independent latency-aware [`lb_dataplane::LbNode`]s behind the
//! router's rendezvous-hash ECMP stage, injects the Fig. 3 1 ms delay on
//! *every* LB's path to backend 0, and reports how reaction time and p95
//! GET latency degrade (or don't) as N grows.
//!
//! Two feedback regimes are compared:
//!
//! * **Isolated** (`gossip: None`): each LB reacts purely to its own
//!   flow subset.
//! * **Gossip** (`gossip: Some(..)`): every `period`, each LB blends its
//!   weight vector toward the mean of its peers'
//!   ([`lb_dataplane::LbNode::apply_gossip`]). The exchange is driven by
//!   [`crate::scenario::drive`] between `run_until` steps, so the trace
//!   stays bit-reproducible — gossip adds no packets.
//!
//! With `n_lbs = 1` the topology, event schedule, and results are
//! *byte-identical* to the single-LB fig3 path (the conformance suite
//! pins this), so scale-out provably degenerates to the reproduced paper
//! setup.

use lb_dataplane::LbNode;
use netsim::{Duration, Time};
use telemetry::{JournalMode, ScalarSeries, Table};

use crate::fig3::REACTION_WEIGHT;
use crate::scenario::{self, Injection, Scenario};

/// Gossip cadence and blend strength, in simulation terms. Defaults
/// mirror [`lbcore::GossipConfig`].
#[derive(Debug, Clone, Copy)]
pub struct GossipParams {
    /// Interval between gossip rounds.
    pub period: Duration,
    /// Blend strength toward the peer mean (0 = isolated, 1 = adopt).
    pub mix: f64,
}

impl Default for GossipParams {
    fn default() -> Self {
        let core = lbcore::GossipConfig::default();
        GossipParams {
            period: Duration::from_nanos(core.period_ns),
            mix: core.mix,
        }
    }
}

/// Multi-LB scenario parameters: the Fig. 3 timeline plus the tier size
/// and the gossip regime.
#[derive(Debug, Clone)]
pub struct MultiLbConfig {
    /// Number of LB instances behind the VIP's ECMP route.
    pub n_lbs: usize,
    /// Total run length.
    pub duration: Duration,
    /// When the 1 ms delay is injected (on every LB's path to backend 0).
    pub inject_at: Duration,
    /// Injected extra delay.
    pub extra: Duration,
    /// Latency-series bin width.
    pub bin: Duration,
    /// `None` = isolated feedback; `Some` = periodic weight gossip.
    pub gossip: Option<GossipParams>,
    /// Decision-journal mode applied to *every* shard (`Off` by
    /// default). Each LB journals independently; per-shard captures are
    /// returned in [`MultiLbRun::journals`].
    pub journal: JournalMode,
    /// Root seed.
    pub seed: u64,
}

impl Default for MultiLbConfig {
    fn default() -> Self {
        MultiLbConfig {
            n_lbs: 4,
            duration: Duration::from_secs(60),
            inject_at: Duration::from_secs(20),
            extra: Duration::from_millis(1),
            bin: Duration::from_secs(1),
            gossip: None,
            journal: JournalMode::Off,
            seed: 42,
        }
    }
}

impl MultiLbConfig {
    /// A fast variant for integration tests: 12 s, injection at t = 4 s
    /// (the multi-LB analogue of `Fig3Config::quick`).
    pub fn quick() -> MultiLbConfig {
        MultiLbConfig {
            duration: Duration::from_secs(12),
            inject_at: Duration::from_secs(4),
            bin: Duration::from_millis(500),
            ..MultiLbConfig::default()
        }
    }

    /// The scenario this configuration runs: the Fig. 3 cluster behind
    /// `n_lbs` latency-aware LB shards, `extra` injected on every LB's
    /// path to backend 0 at `inject_at`, and the gossip regime (its mix
    /// rounded to a whole percent; exact for the default 0.5).
    pub fn scenario(&self) -> Scenario {
        let mut sc = Scenario::fig3_cluster(self.seed, self.duration);
        sc.lbs = self.n_lbs as u32;
        sc.bin = self.bin;
        if let Some(g) = self.gossip {
            sc.gossip_period = g.period;
            sc.gossip_mix_pct = (g.mix * 100.0).round() as u32;
        }
        sc.injections.push(Injection {
            backend: 0,
            at: self.inject_at,
            extra: self.extra,
        });
        sc
    }
}

/// One multi-LB run's outcome.
pub struct MultiLbRun {
    /// Tier size.
    pub n_lbs: usize,
    /// Whether gossip was enabled.
    pub gossip: bool,
    /// p95 GET latency over the pre-injection window.
    pub p95_before: u64,
    /// p95 GET latency over the post-injection window.
    pub p95_after: u64,
    /// Completed requests.
    pub completed: u64,
    /// First instant at or after the injection when the tier's *mean*
    /// weight on the degraded backend drops below 0.5 (ns). For N = 1
    /// this is exactly the fig3 reaction definition.
    pub first_reaction: Option<u64>,
    /// Per-LB reaction instants under the same rule, each over its own
    /// weight series (None = that shard never reacted).
    pub per_lb_reaction: Vec<Option<u64>>,
    /// `T_LB` samples per LB — the visibility each shard actually got.
    pub per_lb_samples: Vec<u64>,
    /// Packets forwarded per LB — the ECMP shard sizes.
    pub per_lb_forwarded: Vec<u64>,
    /// Each LB's final weight on the degraded backend.
    pub final_degraded_weight: Vec<f64>,
    /// Total `T_LB` samples across the tier.
    pub lb_samples: u64,
    /// Gossip merges that moved weights, summed over the tier.
    pub gossip_merges: u64,
    /// Per-shard decision journals as NDJSON (empty strings unless
    /// [`MultiLbConfig::journal`] is enabled).
    pub journals: Vec<String>,
}

/// The tier-level reaction: the first instant at or after `inject_ns`
/// when the *mean* of the per-LB degraded-backend weights drops below
/// 0.5. For a single series this reduces exactly to
/// [`ScalarSeries::first_below`].
fn aggregate_reaction(series: &[&ScalarSeries], inject_ns: u64) -> Option<u64> {
    let mut current: Vec<Option<f64>> = series.iter().map(|s| s.value_at(inject_ns)).collect();
    let mean_below = |cur: &[Option<f64>]| -> bool {
        let mut sum = 0.0f64;
        let mut n = 0u32;
        for v in cur.iter().flatten() {
            sum += *v;
            n += 1;
        }
        n > 0 && sum / f64::from(n) < REACTION_WEIGHT
    };
    if mean_below(&current) {
        return Some(inject_ns);
    }
    // Merge every series' post-injection points in (time, LB) order and
    // replay them against the running per-LB values.
    let mut events: Vec<(u64, usize, f64)> = Vec::new();
    for (i, s) in series.iter().enumerate() {
        for &(t, w) in s.points() {
            if t > inject_ns {
                events.push((t, i, w));
            }
        }
    }
    events.sort_by_key(|&(t, i, _)| (t, i));
    for (t, i, w) in events {
        current[i] = Some(w);
        if mean_below(&current) {
            return Some(t);
        }
    }
    None
}

/// Runs one multi-LB scenario and collects the outcome.
pub fn run_multilb(cfg: &MultiLbConfig) -> MultiLbRun {
    let sc = cfg.scenario();
    let mut cluster = scenario::build(&sc, cfg.journal);
    scenario::drive(&mut cluster, &sc);

    let recorder = &cluster.client_app(0).recorder;
    let inject_ns = (Time::ZERO + cfg.inject_at).as_nanos();
    let p95_before = recorder.get_series.quantile_between(0, inject_ns, 0.95);
    let p95_after = recorder
        .get_series
        .quantile_between(inject_ns, u64::MAX, 0.95);
    let completed = recorder.responses;

    let nodes: Vec<&LbNode> = (0..cfg.n_lbs).map(|i| cluster.lb_node_i(i)).collect();
    let degraded: Vec<&ScalarSeries> = nodes.iter().map(|n| n.weight_series(0)).collect();
    let first_reaction = aggregate_reaction(&degraded, inject_ns);
    let per_lb_reaction: Vec<Option<u64>> = degraded
        .iter()
        .map(|s| s.first_below(inject_ns, REACTION_WEIGHT))
        .collect();
    let per_lb_samples: Vec<u64> = nodes.iter().map(|n| n.stats().samples).collect();
    let per_lb_forwarded: Vec<u64> = nodes.iter().map(|n| n.stats().forwarded).collect();
    let final_degraded_weight: Vec<f64> = nodes.iter().map(|n| n.weights().get(0)).collect();
    let gossip_merges: u64 = nodes.iter().map(|n| n.stats().gossip_merges).sum();
    let lb_samples: u64 = per_lb_samples.iter().sum();
    let journals: Vec<String> = nodes.iter().map(|n| n.journal().to_ndjson()).collect();

    MultiLbRun {
        n_lbs: cfg.n_lbs,
        gossip: cfg.gossip.is_some() && cfg.n_lbs > 1,
        p95_before,
        p95_after,
        completed,
        first_reaction,
        per_lb_reaction,
        per_lb_samples,
        per_lb_forwarded,
        final_degraded_weight,
        lb_samples,
        gossip_merges,
        journals,
    }
}

/// Runs the N-sweep: for each tier size, the isolated regime, plus the
/// gossip regime for every N > 1 (gossip over a tier of one is a no-op
/// by construction, so that row would duplicate the isolated one).
pub fn multilb_sweep(base: &MultiLbConfig, ns: &[usize], gossip: GossipParams) -> Vec<MultiLbRun> {
    let mut runs = Vec::new();
    for &n in ns {
        let isolated = MultiLbConfig {
            n_lbs: n,
            gossip: None,
            ..base.clone()
        };
        runs.push(run_multilb(&isolated));
        if n > 1 {
            let shared = MultiLbConfig {
                n_lbs: n,
                gossip: Some(gossip),
                ..base.clone()
            };
            runs.push(run_multilb(&shared));
        }
    }
    runs
}

/// Renders the sweep table (the `ablations multilb` output).
pub fn multilb_table(base: &MultiLbConfig, runs: &[MultiLbRun]) -> Table {
    let mut t = Table::new(
        "Multi-LB tier: reaction and p95 GET latency vs. tier size N \
         (1ms injected on backend 0, every LB path)",
        &[
            "n_lbs",
            "feedback",
            "reaction_ms",
            "slowest_shard_ms",
            "p95_before_us",
            "p95_after_us",
            "inflation",
            "requests",
            "samples_per_lb",
            "merges",
        ],
    );
    let inject_ns = (Time::ZERO + base.inject_at).as_nanos();
    let ms = |r: Option<u64>| {
        r.map(|t| format!("{:.2}", (t - inject_ns) as f64 / 1e6))
            .unwrap_or_else(|| "-".into())
    };
    for run in runs {
        let inflation = if run.p95_before > 0 {
            run.p95_after as f64 / run.p95_before as f64
        } else {
            f64::NAN
        };
        let slowest = run
            .per_lb_reaction
            .iter()
            .map(|r| ms(*r))
            .max_by(|a, b| {
                // "-" (never reacted) sorts last = slowest.
                let key = |s: &String| s.parse::<f64>().unwrap_or(f64::INFINITY);
                key(a).total_cmp(&key(b))
            })
            .unwrap_or_else(|| "-".into());
        let min_s = run.per_lb_samples.iter().min().copied().unwrap_or(0);
        let max_s = run.per_lb_samples.iter().max().copied().unwrap_or(0);
        t.row(&[
            run.n_lbs.to_string(),
            if run.gossip { "gossip" } else { "isolated" }.to_string(),
            ms(run.first_reaction),
            slowest,
            format!("{:.1}", run.p95_before as f64 / 1e3),
            format!("{:.1}", run.p95_after as f64 / 1e3),
            format!("{inflation:.2}x"),
            run.completed.to_string(),
            format!("{min_s}..{max_s}"),
            run.gossip_merges.to_string(),
        ]);
    }
    t
}
