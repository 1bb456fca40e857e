//! Whole-stack determinism regression (simlint's runtime counterpart).
//!
//! The static pass (`cargo run -p simlint -- --workspace`) bans the
//! *sources* of nondeterminism — wall clocks, ambient entropy,
//! hash-order iteration. This test checks the *outcome*: the complete
//! packet-event trace of a full cluster run is a pure function of the
//! seed. Unlike the client-side checks in `dsr_invariants.rs`, a trace
//! hash covers every send, delivery, and drop at every node, so even a
//! reordering that cancels out in the aggregates fails here.

use experiments::topology::{KvCluster, KvClusterConfig, VIP};
use lb_dataplane::LbConfig;
use lbcore::AlphaShift;
use netsim::{Duration, Time};

/// Folds a finished simulation's packet trace into an FNV-1a hash.
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

/// Runs the Fig. 3 cluster for `sim_ms` with packet tracing on and
/// folds every trace event into an FNV-1a hash.
fn trace_hash(seed: u64, sim_ms: u64) -> (u64, usize) {
    let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
        Box::new(|backends| LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped())));
    let mut cfg = KvClusterConfig::fig3_defaults(lb_factory);
    cfg.seed = seed;
    // A mid-run perturbation so the controller path (weight shifts,
    // table rebuilds) is inside the hashed window too.
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

/// Runs the chaos scenario — backend crash + restart with packet
/// corruption/duplication/reordering on the survivor's path — and hashes
/// the trace. Exercises every fault-injection code path: scheduled node
/// down/up, impairment RNG draws, health ejection, flow re-pinning, and
/// probation readmission.
fn chaos_trace_hash(seed: u64) -> (u64, usize) {
    use experiments::chaos::{build_chaos_cluster, ChaosConfig};
    let cfg = ChaosConfig {
        duration: Duration::from_millis(1800),
        crash_at: Duration::from_millis(400),
        restart_at: Duration::from_millis(900),
        impair: Some(netsim::ImpairmentConfig::light(0xFA11)),
        bin: Duration::from_millis(250),
        seed,
    };
    let mut cluster = build_chaos_cluster(&cfg, true);
    cluster.sim.enable_trace(1 << 21);
    cluster.sim.run_for(cfg.duration);
    fold_trace(&cluster.sim)
}

/// Runs the 4-LB ECMP-sharded tier with weight gossip enabled for
/// `sim_ms` and hashes the trace. Covers the rendezvous ECMP router
/// stage, per-shard feedback, and the driver-stepped gossip rounds
/// (which must not perturb the packet schedule — gossip is pure
/// control-plane state).
fn multilb_trace_hash(seed: u64, sim_ms: u64) -> (u64, usize) {
    use experiments::multilb::{GossipParams, MultiLbConfig};
    use experiments::scenario::{build, drive};
    let cfg = MultiLbConfig {
        n_lbs: 4,
        duration: Duration::from_millis(sim_ms),
        inject_at: Duration::from_millis(sim_ms / 2),
        extra: Duration::from_millis(1),
        bin: Duration::from_millis(250),
        gossip: Some(GossipParams::default()),
        journal: telemetry::JournalMode::Off,
        seed,
    };
    let sc = cfg.scenario();
    let mut cluster = build(&sc, cfg.journal);
    cluster.sim.enable_trace(1 << 21);
    drive(&mut cluster, &sc);
    fold_trace(&cluster.sim)
}

/// Runs the Fig. 2 bulk-transfer scenario (one window-limited TCP flow
/// through the LB) for 300 ms and hashes the trace. Covers the nettcp
/// retransmit/ACK machinery and the LB forwarding path without the KV
/// application on top.
fn bulk_trace_hash(seed: u64) -> (u64, usize) {
    use experiments::{BacklogScenario, BacklogScenarioConfig};
    let mut cfg = BacklogScenarioConfig::fig2_defaults();
    cfg.seed = seed;
    let mut scenario = BacklogScenario::build(cfg);
    scenario.sim.enable_trace(1 << 21);
    scenario.sim.run_for(Duration::from_millis(300));
    fold_trace(&scenario.sim)
}

/// Same seed → bit-identical packet schedule, event for event.
#[test]
fn same_seed_reproduces_the_exact_trace() {
    let (h1, n1) = trace_hash(17, 600);
    let (h2, n2) = trace_hash(17, 600);
    assert!(n1 > 1_000, "implausibly few events: {n1}");
    assert_eq!(n1, n2, "event counts diverged");
    assert_eq!(h1, h2, "trace hashes diverged for the same seed");
}

/// Different seed → a genuinely different run (guards against the hash
/// accidentally ignoring the seeded inputs).
#[test]
fn different_seed_changes_the_trace() {
    let (h1, _) = trace_hash(17, 600);
    let (h2, _) = trace_hash(18, 600);
    assert_ne!(h1, h2, "seed had no effect on the trace");
}

/// Chaos determinism: crash, restart, and probabilistic packet
/// impairment are all driven by seeded state, so the same seed must
/// reproduce the exact packet schedule.
#[test]
fn chaos_same_seed_reproduces_the_exact_trace() {
    let (h1, n1) = chaos_trace_hash(23);
    let (h2, n2) = chaos_trace_hash(23);
    assert!(n1 > 1_000, "implausibly few events: {n1}");
    assert_eq!(n1, n2, "event counts diverged under faults");
    assert_eq!(h1, h2, "trace hashes diverged for the same seed");
}

/// Chaos with a different seed → a genuinely different run.
#[test]
fn chaos_different_seed_changes_the_trace() {
    let (h1, _) = chaos_trace_hash(23);
    let (h2, _) = chaos_trace_hash(24);
    assert_ne!(h1, h2, "seed had no effect on the chaos trace");
}

/// Multi-LB determinism: four shards plus gossip rounds, same seed →
/// bit-identical packet schedule.
#[test]
fn multilb_same_seed_reproduces_the_exact_trace() {
    let (h1, n1) = multilb_trace_hash(17, 600);
    let (h2, n2) = multilb_trace_hash(17, 600);
    assert!(n1 > 1_000, "implausibly few events: {n1}");
    assert_eq!(n1, n2, "event counts diverged across shards");
    assert_eq!(h1, h2, "trace hashes diverged for the same seed");
}

/// Multi-LB with a different seed → a genuinely different run.
#[test]
fn multilb_different_seed_changes_the_trace() {
    let (h1, _) = multilb_trace_hash(17, 600);
    let (h2, _) = multilb_trace_hash(99, 600);
    assert_ne!(h1, h2, "seed had no effect on the multilb trace");
}

// ---------------------------------------------------------------------------
// Pinned trace hashes.
//
// The tests above prove run-to-run stability *within* one build; these
// constants pin the schedule *across* builds. They were captured before
// the hot-path optimization pass (indexed event queue, packet-buffer
// pool, zero-copy parse, rebuild de-cloning) and must never move: a perf
// change that alters any hash has changed packet timing or ordering, not
// just speed. If a *semantic* change legitimately moves a schedule,
// re-pin in the same commit and say why in its message.

/// Fig. 3 KV cluster, seed 17, 600 ms: pinned packet schedule.
#[test]
fn fig3_trace_hash_is_pinned() {
    assert_eq!(
        trace_hash(17, 600),
        (0xa0af_927b_c332_dae6, 787_483),
        "fig3 packet schedule changed",
    );
}

/// Chaos crash/restart scenario, seed 23: pinned packet schedule.
#[test]
fn chaos_trace_hash_is_pinned() {
    assert_eq!(
        chaos_trace_hash(23),
        (0x28d8_4f06_7a78_d8c9, 2_070_418),
        "chaos packet schedule changed",
    );
}

/// Fig. 2 bulk transfer, seed 7, 300 ms: pinned packet schedule.
#[test]
fn bulk_trace_hash_is_pinned() {
    assert_eq!(
        bulk_trace_hash(7),
        (0x3043_0b41_5f00_79ae, 24_742),
        "bulk packet schedule changed",
    );
}

/// Multi-LB tier (4 shards, gossip on), seed 17, 600 ms: pinned packet
/// schedule. Pinned at introduction of the sharded tier; gossip rounds
/// run between event-queue drains, so they are invisible here by
/// construction.
#[test]
fn multilb_trace_hash_is_pinned() {
    assert_eq!(
        multilb_trace_hash(17, 600),
        (0x6bee_84af_e8da_5035, 715_548),
        "multilb packet schedule changed",
    );
}

/// Multi-LB tier, seed 99, 600 ms: second pinned seed so a hash change
/// can't hide behind a single lucky collision.
#[test]
fn multilb_trace_hash_is_pinned_seed_99() {
    assert_eq!(
        multilb_trace_hash(99, 600),
        (0x53d7_dd57_5705_65c8, 635_553),
        "multilb packet schedule changed (seed 99)",
    );
}
