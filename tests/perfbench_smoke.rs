//! Smoke test for the perfbench harness: the shortest pinned scenario
//! runs, its counters are sane, the `BENCH_perf.json` schema
//! round-trips losslessly, and the simulated side of the measurement is
//! deterministic (same seed → identical simulated counters, however
//! noisy the wall-clock side is).

use bench::harness::{run_scenario, BenchReport, SCENARIOS, SCHEMA_VERSION};

/// The cheapest scenario in the pinned set (50 simulated ms in quick
/// mode) — keeps the smoke test inside a normal `cargo test` budget.
const SMOKE_SCENARIO: &str = "netsim_churn";

#[test]
fn quick_scenario_produces_sane_counters() {
    let r = run_scenario(SMOKE_SCENARIO, true, 42).expect("scenario must run");
    assert_eq!(r.name, SMOKE_SCENARIO);
    assert_eq!(r.seed, 42);
    assert!(r.sim_ms > 0, "no simulated time covered");
    assert!(r.events > 0, "no events dispatched");
    assert!(r.packets > 0, "no packets delivered");
    assert!(r.timers > 0, "no timers fired");
    assert!(r.wall_ns > 0, "wall clock did not advance");
    assert!(r.events_per_sec > 0.0);
    assert!(r.sim_packets_per_sec > 0.0);
    // peak_rss_kb is 0 only when /proc/self/status is unreadable; on
    // Linux CI it must be populated.
    #[cfg(target_os = "linux")]
    assert!(r.peak_rss_kb > 0, "VmHWM not read");
}

#[test]
fn same_seed_gives_identical_simulated_counters() {
    let a = run_scenario(SMOKE_SCENARIO, true, 7).expect("first run");
    let b = run_scenario(SMOKE_SCENARIO, true, 7).expect("second run");
    // Wall-clock fields (wall_ns, *_per_sec, peak_rss_kb, alloc_*) are
    // host noise; everything simulated must be bit-identical.
    assert_eq!(a.sim_ms, b.sim_ms);
    assert_eq!(a.events, b.events);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.timers, b.timers);
}

#[test]
fn different_seed_changes_the_workload() {
    // netsim_churn is a fixed ring (the seed only colours addresses), so
    // use the bulk TCP scenario, whose jitter draws come from the seed.
    let a = run_scenario("nettcp_bulk", true, 1).expect("seed 1");
    let b = run_scenario("nettcp_bulk", true, 2).expect("seed 2");
    assert!(
        (a.events, a.packets, a.timers) != (b.events, b.packets, b.timers),
        "seed does not reach the workload: {:?}",
        (a.events, a.packets, a.timers)
    );
}

#[test]
fn multilb_scenario_produces_sane_counters() {
    let r = run_scenario("multilb", true, 42).expect("multilb scenario must run");
    assert_eq!(r.name, "multilb");
    assert!(r.sim_ms > 0, "no simulated time covered");
    assert!(r.events > 0, "no events dispatched");
    assert!(r.packets > 0, "no packets delivered");
    assert!(r.timers > 0, "no timers fired");
    assert!(r.wall_ns > 0, "wall clock did not advance");
}

#[test]
fn multilb_same_seed_gives_identical_simulated_counters() {
    // The multilb driver interleaves gossip rounds with `run_until`
    // steps; the simulated counters must still be a pure function of
    // the seed.
    let a = run_scenario("multilb", true, 7).expect("first run");
    let b = run_scenario("multilb", true, 7).expect("second run");
    assert_eq!(a.sim_ms, b.sim_ms);
    assert_eq!(a.events, b.events);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.timers, b.timers);
}

#[test]
fn report_json_round_trips() {
    // A two-scenario report (including multilb) so the serializer's
    // between-entry separators are exercised too.
    let churn = run_scenario(SMOKE_SCENARIO, true, 42).expect("scenario must run");
    let multilb = run_scenario("multilb", true, 42).expect("multilb must run");
    let mut report = BenchReport::single(true, churn);
    report.scenarios.push(multilb);
    // 2^53 + 1 is not an f64: it round-trips only if integers are
    // parsed exactly.
    report.scenarios[0].alloc_bytes = (1 << 53) + 1;
    let text = report.to_json();
    let parsed = BenchReport::from_json(&text).expect("own output must parse");
    assert_eq!(parsed.schema_version, SCHEMA_VERSION);
    assert_eq!(parsed.bench_alloc, report.bench_alloc);
    assert_eq!(parsed.quick, report.quick);
    assert_eq!(parsed.scenarios.len(), 2);
    for (a, b) in report.scenarios.iter().zip(&parsed.scenarios) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.sim_ms, b.sim_ms);
        assert_eq!(a.events, b.events);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.timers, b.timers);
        assert_eq!(a.wall_ns, b.wall_ns);
        assert_eq!(a.peak_rss_kb, b.peak_rss_kb);
        assert_eq!(a.alloc_count, b.alloc_count);
        assert_eq!(a.alloc_bytes, b.alloc_bytes);
        // Floats are serialised with one decimal; the round-trip must
        // stay within that quantisation.
        assert!((a.events_per_sec - b.events_per_sec).abs() <= 0.05 + 1e-9);
        assert!((a.sim_packets_per_sec - b.sim_packets_per_sec).abs() <= 0.05 + 1e-9);
    }
}

#[test]
fn unknown_scenario_is_rejected() {
    let err = run_scenario("no_such_scenario", true, 42).unwrap_err();
    assert!(err.contains("unknown scenario"), "unhelpful error: {err}");
    // The error names the valid set so the CLI stays discoverable.
    for s in SCENARIOS {
        assert!(err.contains(s), "error must list scenario {s}");
    }
}
