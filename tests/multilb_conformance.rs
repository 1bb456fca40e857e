//! Multi-LB N=1 conformance: the sharded tier must *provably* degenerate
//! to the reproduced paper setup.
//!
//! Two levels of strictness:
//!
//! * **Trace level** — a 1-LB multilb cluster produces the byte-identical
//!   packet schedule (same trace hash, same event count) as the fig3
//!   path. Rendezvous ECMP over a single member, the all-LB delay
//!   injection, and the multilb driver must all be exact no-ops at N=1.
//! * **Result level** — `run_multilb` at N=1 reports exactly the same
//!   p95s, completion count, reaction instant, and sample count as
//!   `fig3::run_fig3_aware` on the same parameters, bit for bit.

use experiments::fig3::{run_fig3_aware, Fig3Config};
use experiments::multilb::{run_multilb, MultiLbConfig};
use experiments::scenario::{build, drive};
use experiments::topology::{KvCluster, KvClusterConfig, VIP};
use lb_dataplane::LbConfig;
use lbcore::AlphaShift;
use netsim::{Duration, Time};

/// Folds a finished simulation's packet trace into an FNV-1a hash
/// (same folding as `tests/determinism.rs`).
fn fold_trace(sim: &netsim::Simulation) -> (u64, usize) {
    let trace = sim.trace();
    assert_eq!(trace.truncated, 0, "trace buffer too small for the run");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.events() {
        let line = format!(
            "{};{:?};{:?};{:?};{:?};{}",
            e.at.as_nanos(),
            e.node,
            e.kind,
            e.link,
            e.flow,
            e.wire_len
        );
        for b in line.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
    (h, trace.events().len())
}

/// The fig3 reference: exactly the topology + injection the single-LB
/// path builds (mirrors `tests/determinism.rs::trace_hash`).
fn fig3_trace_hash(seed: u64, sim_ms: u64) -> (u64, usize) {
    let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
        Box::new(|backends| LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped())));
    let mut cfg = KvClusterConfig::fig3_defaults(lb_factory);
    cfg.seed = seed;
    let mut cluster = KvCluster::build(cfg);
    cluster.inject_backend_delay(
        0,
        Time::ZERO + Duration::from_millis(sim_ms / 2),
        Duration::from_millis(1),
    );
    cluster.sim.enable_trace(1 << 21);
    cluster.sim.run_for(Duration::from_millis(sim_ms));
    fold_trace(&cluster.sim)
}

/// The same run built through the multi-LB path with a tier of one.
fn multilb_n1_trace_hash(seed: u64, sim_ms: u64) -> (u64, usize) {
    let cfg = MultiLbConfig {
        n_lbs: 1,
        duration: Duration::from_millis(sim_ms),
        inject_at: Duration::from_millis(sim_ms / 2),
        extra: Duration::from_millis(1),
        bin: Duration::from_secs(1),
        gossip: None,
        journal: telemetry::JournalMode::Off,
        seed,
    };
    let sc = cfg.scenario();
    let mut cluster = build(&sc, cfg.journal);
    cluster.sim.enable_trace(1 << 21);
    drive(&mut cluster, &sc);
    fold_trace(&cluster.sim)
}

#[test]
fn n1_multilb_trace_is_byte_identical_to_fig3() {
    let fig3 = fig3_trace_hash(17, 600);
    let multi = multilb_n1_trace_hash(17, 600);
    assert!(fig3.1 > 1_000, "implausibly few events: {}", fig3.1);
    assert_eq!(
        multi, fig3,
        "N=1 multilb packet schedule diverged from the single-LB fig3 path"
    );
}

#[test]
fn n1_multilb_results_match_fig3_aware_exactly() {
    // Short fig3 timeline (paper_claims-scale cost): 4 s run, injection
    // at t = 1.5 s. Equality is bitwise, so any duration would do.
    let fig3_cfg = Fig3Config {
        duration: Duration::from_secs(4),
        inject_at: Duration::from_millis(1500),
        extra: Duration::from_millis(1),
        bin: Duration::from_millis(500),
        seed: 42,
        journal: telemetry::JournalMode::Off,
        span: telemetry::SpanMode::Off,
    };
    let multi_cfg = MultiLbConfig {
        n_lbs: 1,
        duration: fig3_cfg.duration,
        inject_at: fig3_cfg.inject_at,
        extra: fig3_cfg.extra,
        bin: fig3_cfg.bin,
        gossip: None,
        journal: telemetry::JournalMode::Off,
        seed: fig3_cfg.seed,
    };
    let reference = run_fig3_aware(&fig3_cfg);
    let tier = run_multilb(&multi_cfg);

    assert_eq!(
        tier.completed, reference.completed,
        "request counts diverged"
    );
    assert_eq!(
        tier.p95_before, reference.p95_before,
        "pre-injection p95 diverged"
    );
    assert_eq!(
        tier.p95_after, reference.p95_after,
        "post-injection p95 diverged"
    );
    assert_eq!(
        tier.first_reaction, reference.first_reaction,
        "reaction instants diverged"
    );
    assert_eq!(
        tier.lb_samples, reference.lb_samples,
        "sample counts diverged"
    );
    assert_eq!(tier.per_lb_samples, vec![reference.lb_samples]);
    assert_eq!(tier.per_lb_reaction, vec![reference.first_reaction]);
    assert_eq!(tier.gossip_merges, 0, "a tier of one must not gossip");
    // Final weight of the degraded backend, bit for bit.
    let reference_final = reference
        .degraded_weight
        .last()
        .map(|&(_, w)| w)
        .expect("aware run records weights");
    assert_eq!(
        tier.final_degraded_weight[0].to_bits(),
        reference_final.to_bits(),
        "final degraded-backend weight diverged"
    );
    // Sanity: the controller did react in this window.
    assert!(tier.first_reaction.is_some(), "no reaction in the window");
}
