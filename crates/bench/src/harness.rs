//! BENCH-PERF: the reusable perf-bench harness behind the `perfbench`
//! binary.
//!
//! Five pinned macro-scenarios cover the simulator's hot paths from the
//! bottom up — raw event churn (nothing but the queue, links, and packet
//! delivery), a bulk TCP transfer through the LB, the Fig. 3 two-backend
//! KV workload, the chaos crash/restart scenario, and the 4-LB ECMP
//! tier with weight gossip — and each run is
//! summarised as events/sec, simulated-packets/sec, wall time, peak RSS,
//! and (behind the `bench-alloc` feature) allocation counts. Results are
//! emitted as a schema-versioned `BENCH_perf.json` so successive PRs
//! append to one comparable perf trajectory.
//!
//! Simulated counters (`events`, `packets`, `timers`, `sim_ms`) are a
//! pure function of the scenario and seed; wall time, RSS, and allocation
//! counts are host measurements and vary run to run.

use std::net::Ipv4Addr;

use experiments::chaos::ChaosConfig;
use experiments::fig3::Fig3Config;
use experiments::multilb::{GossipParams, MultiLbConfig};
use experiments::scenario::{self, LbMode};
use experiments::{BacklogScenario, BacklogScenarioConfig};
use netpkt::{Addresses, MacAddr, Packet, TcpFlags, TcpHeader};
use netsim::fault::ImpairmentConfig;
use netsim::{Ctx, Duration, LinkConfig, LinkId, Node, SimStats, Simulation, Time, TimerToken};
use telemetry::{json, JournalMode};

/// Version of the `BENCH_perf.json` schema this harness emits.
pub const SCHEMA_VERSION: u32 = 1;

/// The pinned scenario names, in report order.
pub const SCENARIOS: &[&str] = &["netsim_churn", "nettcp_bulk", "fig3_kv", "chaos", "multilb"];

#[cfg(feature = "bench-alloc")]
mod counting_alloc {
    //! A counting wrapper around the system allocator, installed as the
    //! global allocator when the `bench-alloc` feature is on. Counters
    //! are process-wide and monotone; callers diff snapshots.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
    pub(super) static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

    pub(super) struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// True when the counting global allocator is compiled in.
pub fn alloc_counting_enabled() -> bool {
    cfg!(feature = "bench-alloc")
}

/// Cumulative (allocation calls, allocated bytes) so far; zeros without
/// the `bench-alloc` feature. Diff two snapshots to attribute a region.
pub fn alloc_snapshot() -> (u64, u64) {
    #[cfg(feature = "bench-alloc")]
    {
        use std::sync::atomic::Ordering;
        (
            counting_alloc::ALLOC_CALLS.load(Ordering::Relaxed),
            counting_alloc::ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }
    #[cfg(not(feature = "bench-alloc"))]
    {
        (0, 0)
    }
}

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`);
/// 0 on platforms without procfs. Process-wide high water, not per-run.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

/// One scenario's measurements.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (one of [`SCENARIOS`]).
    pub name: String,
    /// Root seed the scenario ran with.
    pub seed: u64,
    /// Simulated span, in milliseconds.
    pub sim_ms: u64,
    /// Events dispatched by the simulator.
    pub events: u64,
    /// Packets delivered to nodes.
    pub packets: u64,
    /// Timer callbacks fired.
    pub timers: u64,
    /// Host wall-clock time for the run, in nanoseconds.
    pub wall_ns: u64,
    /// Events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// Simulated packets delivered per wall-clock second.
    pub sim_packets_per_sec: f64,
    /// Peak RSS in kB observed after the run (process high water).
    pub peak_rss_kb: u64,
    /// Allocation calls during the run (0 without `bench-alloc`).
    pub alloc_count: u64,
    /// Bytes allocated during the run (0 without `bench-alloc`).
    pub alloc_bytes: u64,
}

/// A full harness report: what `BENCH_perf.json` holds.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Whether the counting allocator was compiled in.
    pub bench_alloc: bool,
    /// Whether the short (`--quick`) scenario variants ran.
    pub quick: bool,
    /// Per-scenario results, in [`SCENARIOS`] order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Wraps a single scenario result in a report.
    pub fn single(quick: bool, r: ScenarioResult) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            bench_alloc: alloc_counting_enabled(),
            quick,
            scenarios: vec![r],
        }
    }
}

/// Runs every pinned scenario and collects the report.
pub fn run_all(quick: bool, seed: u64) -> BenchReport {
    let scenarios = SCENARIOS
        .iter()
        .filter_map(|name| run_scenario(name, quick, seed).ok())
        .collect();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        bench_alloc: alloc_counting_enabled(),
        quick,
        scenarios,
    }
}

/// Runs one named scenario. `quick` selects the short variant used by CI
/// and the smoke test; the full variant is the pinned trajectory point.
pub fn run_scenario(name: &str, quick: bool, seed: u64) -> Result<ScenarioResult, String> {
    let (calls0, bytes0) = alloc_snapshot();
    let start = std::time::Instant::now();
    let (sim_ms, stats) = match name {
        "netsim_churn" => run_churn(if quick { 50 } else { 1000 }, seed),
        "nettcp_bulk" => run_bulk(if quick { 150 } else { 2000 }, seed),
        "fig3_kv" => run_fig3_kv(if quick { 400 } else { 3000 }, seed, false, false),
        // Same workload with the decision journal / span tracer
        // recording — not in [`SCENARIOS`] (the pinned trajectory), but
        // runnable by name so CI can report observability overhead side
        // by side. With both Off (the pinned `fig3_kv`), the only cost
        // is one branch per would-be hop.
        "fig3_kv_journal" => run_fig3_kv(if quick { 400 } else { 3000 }, seed, true, false),
        "fig3_kv_spans" => run_fig3_kv(if quick { 400 } else { 3000 }, seed, false, true),
        "chaos" => run_chaos(quick, seed),
        "multilb" => run_multilb_bench(if quick { 400 } else { 3000 }, seed),
        other => return Err(format!("unknown scenario '{other}'; known: {SCENARIOS:?}")),
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (calls1, bytes1) = alloc_snapshot();
    let wall_secs = (wall_ns as f64 / 1e9).max(1e-9);
    Ok(ScenarioResult {
        name: name.to_string(),
        seed,
        sim_ms,
        events: stats.events_processed,
        packets: stats.packets_delivered,
        timers: stats.timers_fired,
        wall_ns,
        events_per_sec: stats.events_processed as f64 / wall_secs,
        sim_packets_per_sec: stats.packets_delivered as f64 / wall_secs,
        peak_rss_kb: peak_rss_kb(),
        alloc_count: calls1.saturating_sub(calls0),
        alloc_bytes: bytes1.saturating_sub(bytes0),
    })
}

// ---------------------------------------------------------------------------
// Scenarios.

/// Tick period of the churn workload's per-node timer.
const CHURN_TICK: Duration = Duration::from_micros(10);

/// A node in the raw-event-churn scenario: every tick it re-arms its
/// timer and forwards its frame (with the DSR-style L2 rewrite the LB
/// performs per packet) to its ring neighbour, so the run exercises
/// nothing but the event queue, links, packet copies, and delivery.
struct Churner {
    out: LinkId,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    ticks: u64,
    rx: u64,
    frame: Packet,
}

impl Node for Churner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.arm_timer(CHURN_TICK, TimerToken(0));
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _link: LinkId, _pkt: Packet) {
        self.rx += 1;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        self.ticks += 1;
        let pkt = self.frame.with_macs(self.src_mac, self.dst_mac);
        ctx.send(self.out, pkt);
        ctx.arm_timer(CHURN_TICK, TimerToken(0));
    }
}

/// Raw netsim event churn: a ring of nodes exchanging small frames on
/// every timer tick. No transport, no LB — the floor cost of an event.
fn run_churn(sim_ms: u64, seed: u64) -> (u64, SimStats) {
    const NODES: usize = 8;
    let mut sim = Simulation::new();
    let ids: Vec<_> = (0..NODES)
        .map(|i| sim.reserve_node(format!("churn-{i}")))
        .collect();
    let links: Vec<_> = (0..NODES)
        .map(|i| {
            sim.add_link(
                ids[i],
                ids[(i + 1) % NODES],
                LinkConfig::new(10_000_000_000, Duration::from_micros(5), 1 << 20),
            )
        })
        .collect();
    for i in 0..NODES {
        let frame = Packet::build_tcp(
            Addresses {
                src_mac: MacAddr::from_id(i as u32),
                dst_mac: MacAddr::from_id((i as u32 + 1) % NODES as u32),
                src_ip: Ipv4Addr::new(10, 7, (seed % 251) as u8, i as u8),
                dst_ip: Ipv4Addr::new(10, 7, (seed % 251) as u8, ((i + 1) % NODES) as u8),
            },
            &TcpHeader {
                src_port: 40_000 + i as u16,
                dst_port: 9,
                seq: 1,
                ack: 0,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 8192,
            },
            &[0u8; 64],
            64,
            i as u16,
        );
        sim.install_node(
            ids[i],
            Box::new(Churner {
                out: links[i],
                src_mac: MacAddr::from_id(0xe0 + i as u32),
                dst_mac: MacAddr::from_id(0xe1 + i as u32),
                ticks: 0,
                rx: 0,
                frame,
            }),
        );
    }
    sim.run_until(Time::ZERO + Duration::from_millis(sim_ms));
    (sim_ms, sim.stats())
}

/// A window-limited bulk TCP transfer through the LB (the Fig. 2 shape,
/// widened window): the nettcp + LB forwarding path under load.
fn run_bulk(sim_ms: u64, seed: u64) -> (u64, SimStats) {
    let mut cfg = BacklogScenarioConfig::fig2_defaults();
    cfg.seed = seed;
    cfg.window_segments = 64;
    let mut scenario = BacklogScenario::build(cfg);
    scenario
        .sim
        .run_until(Time::ZERO + Duration::from_millis(sim_ms));
    (sim_ms, scenario.sim.stats())
}

/// The Fig. 3 two-backend KV workload under the latency-aware LB, with
/// the 1 ms delay injected at the midpoint — the end-to-end macro path
/// (clients, TCP, LB measurement + control, backends).
fn run_fig3_kv(sim_ms: u64, seed: u64, journal: bool, spans: bool) -> (u64, SimStats) {
    let sc = Fig3Config {
        duration: Duration::from_millis(sim_ms),
        inject_at: Duration::from_millis(sim_ms / 2),
        seed,
        ..Fig3Config::default()
    }
    .scenario(LbMode::Aware);
    let journal = if journal {
        JournalMode::Full(1 << 22)
    } else {
        JournalMode::Off
    };
    let mut cluster = scenario::build(&sc, journal);
    if spans {
        cluster.sim.enable_spans(telemetry::SpanMode::Full(1 << 22));
    }
    scenario::drive(&mut cluster, &sc);
    (sim_ms, cluster.sim.stats())
}

/// The chaos crash/restart scenario (health ejection + fault layer +
/// impairment draws) under the latency-aware LB.
fn run_chaos(quick: bool, seed: u64) -> (u64, SimStats) {
    let (duration, crash_at, restart_at) = if quick {
        (1200, 300, 700)
    } else {
        (8000, 2000, 4500)
    };
    let sc = ChaosConfig {
        duration: Duration::from_millis(duration),
        crash_at: Duration::from_millis(crash_at),
        restart_at: Duration::from_millis(restart_at),
        impair: Some(ImpairmentConfig::light(seed)),
        bin: Duration::from_millis(250),
        seed,
    }
    .scenario(LbMode::Aware);
    let mut cluster = scenario::build(&sc, JournalMode::Off);
    scenario::drive(&mut cluster, &sc);
    (duration, cluster.sim.stats())
}

/// The multi-LB tier: the fig3 KV workload ECMP-sharded over 4
/// latency-aware LBs with weight gossip every 50 ms — the rendezvous
/// router stage, per-shard measurement/control, and the driver-stepped
/// gossip loop, end to end.
fn run_multilb_bench(sim_ms: u64, seed: u64) -> (u64, SimStats) {
    let sc = MultiLbConfig {
        n_lbs: 4,
        duration: Duration::from_millis(sim_ms),
        inject_at: Duration::from_millis(sim_ms / 2),
        extra: Duration::from_millis(1),
        bin: Duration::from_millis(sim_ms / 8),
        gossip: Some(GossipParams::default()),
        journal: JournalMode::Off,
        seed,
    }
    .scenario();
    let mut cluster = scenario::build(&sc, JournalMode::Off);
    scenario::drive(&mut cluster, &sc);
    (sim_ms, cluster.sim.stats())
}

// ---------------------------------------------------------------------------
// JSON, through the workspace codec (`telemetry::json`).

impl BenchReport {
    /// Serialises the report as the `BENCH_perf.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"bench_alloc\": {},\n", self.bench_alloc));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json::Str(&s.name)));
            out.push_str(&format!("      \"seed\": {},\n", s.seed));
            out.push_str(&format!("      \"sim_ms\": {},\n", s.sim_ms));
            out.push_str(&format!("      \"events\": {},\n", s.events));
            out.push_str(&format!("      \"packets\": {},\n", s.packets));
            out.push_str(&format!("      \"timers\": {},\n", s.timers));
            out.push_str(&format!("      \"wall_ns\": {},\n", s.wall_ns));
            out.push_str(&format!(
                "      \"events_per_sec\": {:.1},\n",
                s.events_per_sec
            ));
            out.push_str(&format!(
                "      \"sim_packets_per_sec\": {:.1},\n",
                s.sim_packets_per_sec
            ));
            out.push_str(&format!("      \"peak_rss_kb\": {},\n", s.peak_rss_kb));
            out.push_str(&format!("      \"alloc_count\": {},\n", s.alloc_count));
            out.push_str(&format!("      \"alloc_bytes\": {}\n", s.alloc_bytes));
            out.push_str(if i + 1 == self.scenarios.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a `BENCH_perf.json` document (round-trip of [`Self::to_json`]).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let schema_version = root.uint("schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {schema_version} != supported {SCHEMA_VERSION}"
            ));
        }
        let bench_alloc = root.bool("bench_alloc")?;
        let quick = root.bool("quick")?;
        let mut scenarios = Vec::new();
        for item in root.arr("scenarios")? {
            scenarios.push(ScenarioResult {
                name: item.str("name")?.to_string(),
                seed: item.uint("seed")?,
                sim_ms: item.uint("sim_ms")?,
                events: item.uint("events")?,
                packets: item.uint("packets")?,
                timers: item.uint("timers")?,
                wall_ns: item.uint("wall_ns")?,
                events_per_sec: item.f64("events_per_sec")?,
                sim_packets_per_sec: item.f64("sim_packets_per_sec")?,
                peak_rss_kb: item.uint("peak_rss_kb")?,
                alloc_count: item.uint("alloc_count")?,
                alloc_bytes: item.uint("alloc_bytes")?,
            });
        }
        Ok(BenchReport {
            schema_version,
            bench_alloc,
            quick,
            scenarios,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            bench_alloc: false,
            quick: true,
            scenarios: vec![ScenarioResult {
                name: "netsim_churn".into(),
                seed: 42,
                sim_ms: 50,
                events: 123_456,
                packets: 60_000,
                timers: 63_456,
                wall_ns: 7_000_000,
                events_per_sec: 17_636_571.4,
                sim_packets_per_sec: 8_571_428.6,
                peak_rss_kb: 10_240,
                alloc_count: 0,
                // 2^53 + 1: exact only if integers never pass through f64.
                alloc_bytes: (1 << 53) + 1,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.schema_version, report.schema_version);
        assert_eq!(parsed.bench_alloc, report.bench_alloc);
        assert_eq!(parsed.quick, report.quick);
        assert_eq!(parsed.scenarios.len(), 1);
        let (a, b) = (&parsed.scenarios[0], &report.scenarios[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.sim_ms, b.sim_ms);
        assert_eq!(a.events, b.events);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.timers, b.timers);
        assert_eq!(a.wall_ns, b.wall_ns);
        assert_eq!(a.peak_rss_kb, b.peak_rss_kb);
        assert_eq!(a.alloc_bytes, b.alloc_bytes);
        assert!((a.events_per_sec - b.events_per_sec).abs() < 0.2);
    }

    #[test]
    fn json_layout_is_pinned() {
        let expected = r#"{
  "schema_version": 1,
  "bench_alloc": false,
  "quick": true,
  "scenarios": [
    {
      "name": "netsim_churn",
      "seed": 42,
      "sim_ms": 50,
      "events": 123456,
      "packets": 60000,
      "timers": 63456,
      "wall_ns": 7000000,
      "events_per_sec": 17636571.4,
      "sim_packets_per_sec": 8571428.6,
      "peak_rss_kb": 10240,
      "alloc_count": 0,
      "alloc_bytes": 9007199254740993
    }
  ]
}
"#;
        assert_eq!(sample_report().to_json(), expected);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(BenchReport::from_json("").is_err());
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("{\"schema_version\": 999}").is_err());
        assert!(BenchReport::from_json("[1, 2").is_err());
        // Nesting is bounded: deep input is an error, not a stack overflow.
        assert!(BenchReport::from_json(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(run_scenario("nope", true, 1).is_err());
    }

    #[test]
    fn churn_scenario_is_deterministic() {
        let (ms_a, a) = run_churn(5, 9);
        let (ms_b, b) = run_churn(5, 9);
        assert_eq!(ms_a, ms_b);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.timers_fired, b.timers_fired);
        assert!(a.events_processed > 0);
    }
}
