//! The timed run (end-to-end metrics, tracing off) and the traced run
//! (per-layer metrics, measured from outside the program).

use std::rc::Rc;

use experiments::KvCluster;
use netsim::{Duration, Time};
use telemetry::span::{assemble, critical_path, sort_records, to_ndjson};
use telemetry::{HopRecord, JournalEvent};

use crate::collect::{identity_failures, nearest_rank, sim_counters};
use crate::measure::{allocs, peak_rss_mb, timer_overhead_ns, Spans, Stopwatch};
use crate::out::Record;
use crate::replay::{capture_frames, replay};
use crate::workloads::{build, ControllerClock, Workload};

/// Bytes per MB in every memory metric (the unit `VmHWM` is read in).
const MB: f64 = 1024.0 * 1024.0;

/// What one run measured: exact simulated counts, host measurements,
/// and the accounting identities that failed.
pub struct RunOutput {
    /// Counts that are a pure function of workload, span and seed.
    pub sim: Record,
    /// Host measurements.
    pub host: Record,
    /// Names of failed identities (empty when the run is correct).
    pub failed_checks: Vec<&'static str>,
}

/// Builds the cluster and starts its nodes (the events at t = 0), the
/// part of a run that precedes the measured span.
fn setup(w: Workload, seed: u64, span: Duration, clock: Option<Rc<ControllerClock>>) -> KvCluster {
    let mut c = build(w, seed, span, clock);
    c.sim.run_until(Time::ZERO);
    c
}

/// Reads the recorders' counts into `sim`: what a run recorded and
/// whether anything overflowed.
fn recorder_counts(c: &KvCluster, sim: &mut Record) {
    let journal = c.lb_node().journal();
    sim.u("telemetry.journal_events", journal.len() as u64);
    sim.u("telemetry.span_hops", c.sim.spans().len() as u64);
    sim.u(
        "telemetry.dropped",
        journal.overflow() + c.sim.spans().dropped(),
    );
}

/// The export that ends every workload: the journal and the span log as
/// NDJSON, as `fig3 --journal --spans` writes them. With the recorders
/// off both are empty. Returns the span records, sorted, for analysis.
fn export(
    c: &mut KvCluster,
    spans: &mut Spans,
    sim: &mut Record,
    host: &mut Record,
) -> Vec<HopRecord> {
    let id = spans.begin("export.journal");
    let journal = c.lb_node().journal().to_ndjson();
    host.f("telemetry.journal_export_ms", spans.end(id) as f64 / 1e6);
    let mut records = c.sim.take_span_records();
    let id = spans.begin("export.spans");
    sort_records(&mut records);
    let span_text = to_ndjson(&records);
    host.f("telemetry.span_export_ms", spans.end(id) as f64 / 1e6);
    sim.u("telemetry.journal_bytes", journal.len() as u64);
    sim.u("telemetry.span_bytes", span_text.len() as u64);
    records
}

/// The timed run. Set-up is repeated `setups` times and its median
/// reported; the last cluster built is the one that runs.
pub fn timed(w: Workload, seed: u64, span: Duration, setups: usize) -> RunOutput {
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup_allocs = 0;
    let mut cluster = None;
    for _ in 0..setups.max(1) {
        drop(cluster.take());
        let a0 = allocs().0;
        let t = Stopwatch::start();
        cluster = Some(setup(w, seed, span, None));
        setup_s.push(t.secs());
        setup_allocs = allocs().0 - a0;
    }
    let mut c = cluster.expect("at least one set-up");
    let mut sim = Record::default();
    let mut host = Record::default();
    let mut spans = Spans::new();

    let (calls0, bytes0) = allocs();
    let t = Stopwatch::start();
    c.sim.run_until(Time::ZERO + span);
    recorder_counts(&c, &mut sim);
    drop(export(&mut c, &mut spans, &mut sim, &mut host));
    let wall_s = t.secs();
    let (calls1, bytes1) = allocs();

    sim_counters(&c, &mut sim);
    let pool = c.sim.pool_stats();
    sim.u("netpkt.pool_hits", pool.hits);
    sim.u("netpkt.pool_misses", pool.misses);
    sim.u("netpkt.pool_declined", pool.declined);

    setup_s.sort_by(f64::total_cmp);
    host.f("setup_s", setup_s[setup_s.len() / 2]);
    host.f("wall_s", wall_s);
    host.f("peak_rss_mb", peak_rss_mb());
    host.u("alloc_count", calls1 - calls0);
    host.f("alloc_mb", (bytes1 - bytes0) as f64 / MB);
    host.u("experiments.setup_allocs", setup_allocs);
    let failed_checks = identity_failures(&c);
    RunOutput {
        sim,
        host,
        failed_checks,
    }
}

/// Traced-run knobs.
pub struct TraceOpts {
    /// Simulated time per `run_until` slice.
    pub slice: Duration,
    /// Bound on captured packet events (all nodes, all kinds).
    pub capture_events: usize,
}

/// The traced run: the same workload and seed, run in fixed slices of
/// simulated time with the LB's ingress captured, the controller timed,
/// and the LB stages replayed over the capture afterwards.
pub fn traced(w: Workload, seed: u64, span: Duration, opts: &TraceOpts) -> (RunOutput, Spans) {
    let overhead_ns = timer_overhead_ns();
    let mut spans = Spans::new();
    let clock = Rc::new(ControllerClock::default());
    let mut sim = Record::default();
    let mut host = Record::default();

    let id = spans.begin("setup");
    let a0 = allocs().0;
    let mut c = build(w, seed, span, Some(clock.clone()));
    c.sim.enable_trace_with_bytes(opts.capture_events);
    c.sim.run_until(Time::ZERO);
    host.u("experiments.setup_allocs", allocs().0 - a0);
    spans.end(id);

    let run = spans.begin("run");
    let slice_ns = opts.slice.as_nanos().max(1);
    let mut slice_us = Vec::new();
    let mut at = 0;
    while at < span.as_nanos() {
        at = (at + slice_ns).min(span.as_nanos());
        let id = spans.begin("run_until");
        c.sim.run_until(Time::from_nanos(at));
        slice_us.push(spans.end(id) as f64 / 1e3);
    }
    let run_ns = spans.end(run);
    host.f("run_s", run_ns as f64 / 1e9);
    slice_us.sort_by(f64::total_cmp);
    host.f("netsim.slice_us_p50", nearest_rank(&slice_us, 0.50));
    host.f("netsim.slice_us_p99", nearest_rank(&slice_us, 0.99));

    recorder_counts(&c, &mut sim);
    let records = export(&mut c, &mut spans, &mut sim, &mut host);

    let id = spans.begin("analysis.critical_path");
    let paths: Vec<_> = assemble(&records)
        .iter()
        .filter_map(critical_path)
        .collect();
    let cp_ns = spans.end(id);
    host.f("telemetry.critical_path_ms", cp_ns as f64 / 1e6);
    let mut queue: Vec<u64> = paths.iter().map(|p| p.backend_queue).collect();
    queue.sort_unstable();
    sim.f(
        "backend.queue_us_p99",
        nearest_rank(&queue, 0.99) as f64 / 1e3,
    );
    let events: Vec<JournalEvent> = c.lb_node().journal().events().cloned().collect();
    let budget = spans.within("analysis.error_budget", || {
        bench::spans::error_budget(&paths, &events)
    });
    let bias_ns = if budget.joined.is_empty() {
        0.0
    } else {
        budget.joined.iter().map(|j| j.error() as f64).sum::<f64>() / budget.joined.len() as f64
    };
    sim.f("lbcore.tlb_bias_us", bias_ns / 1e3);
    sim.u("telemetry.error_budget_joined", budget.joined.len() as u64);
    drop(records);

    sim_counters(&c, &mut sim);
    let failed_checks = identity_failures(&c);
    let pool = c.sim.pool_stats();
    host.u("netpkt.pool_hits", pool.hits);
    host.u("netpkt.pool_misses", pool.misses);
    host.u("netpkt.pool_declined", pool.declined);
    let calls = clock.calls.get();
    let controller_ns = (clock.ns.get() as f64 - overhead_ns * calls as f64).max(0.0);
    host.u("lbcore.controller_calls", calls);
    host.f("lbcore.controller_total_ns", controller_ns);
    host.f("lbcore.controller_ns", controller_ns / calls.max(1) as f64);

    let id = spans.begin("replay");
    let capture = capture_frames(&c);
    replay(&c, &capture, overhead_ns, &mut spans, &mut sim, &mut host);
    spans.end(id);
    host.f("experiments.timer_overhead_ns", overhead_ns);
    host.f("peak_rss_mb", peak_rss_mb());
    (
        RunOutput {
            sim,
            host,
            failed_checks,
        },
        spans,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::out::Val;

    const SPAN: Duration = Duration::from_millis(300);

    fn get(r: &Record, name: &str) -> Val {
        r.entries()
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    /// Entries of `r` whose names pass `keep`.
    fn only(r: &Record, keep: impl Fn(&str) -> bool) -> Vec<(String, Val)> {
        r.entries()
            .iter()
            .filter(|(k, _)| keep(k))
            .cloned()
            .collect()
    }

    #[test]
    fn every_workload_passes_its_checks_on_a_short_span() {
        for w in [Workload::KvFig3, Workload::KvRecorded, Workload::KvChaos] {
            let a = timed(w, 5, SPAN, 2);
            let b = timed(w, 5, SPAN, 1);
            assert!(a.failed_checks.is_empty(), "{w:?}: {:?}", a.failed_checks);
            assert_eq!(get(&a.sim, "telemetry.dropped"), Val::U(0), "{w:?}");
            // Allocation counts are process-wide, and tests share the
            // process; run.py compares them across single-run processes.
            assert_eq!(a.sim.entries(), b.sim.entries(), "{w:?} is not repeatable");
            assert!(matches!(get(&a.sim, "req_completed"), Val::U(n) if n > 0));
        }
    }

    #[test]
    fn recording_never_moves_a_packet() {
        let plain = timed(Workload::KvFig3, 8, SPAN, 1);
        let recorded = timed(Workload::KvRecorded, 8, SPAN, 1);
        assert!(matches!(get(&recorded.sim, "telemetry.span_hops"), Val::U(n) if n > 0));
        let sim = |k: &str| !k.starts_with("telemetry.");
        assert_eq!(only(&plain.sim, sim), only(&recorded.sim, sim));
    }

    #[test]
    fn slicing_and_capture_leave_every_simulated_count_identical() {
        for w in [Workload::KvFig3, Workload::KvRecorded, Workload::KvChaos] {
            let plain = timed(w, 3, SPAN, 1);
            let opts = TraceOpts {
                slice: Duration::from_millis(7),
                capture_events: 20_000,
            };
            let (traced, spans) = traced(w, 3, SPAN, &opts);
            assert!(traced.failed_checks.is_empty(), "{w:?}");
            let names: Vec<_> = plain.sim.entries().iter().map(|(k, _)| k.clone()).collect();
            let common = |k: &str| !k.starts_with("netpkt.") && names.iter().any(|n| n == k);
            assert_eq!(only(&plain.sim, common), only(&traced.sim, common), "{w:?}");
            assert!(matches!(get(&traced.sim, "netsim.capture_truncated"), Val::U(n) if n > 0));
            let slices = spans
                .spans()
                .iter()
                .filter(|s| s.name == "run_until")
                .count();
            assert_eq!(slices, 43, "300 ms in 7 ms slices");
        }
    }

    #[test]
    fn replay_reproduces_the_lb_over_the_captured_prefix() {
        let opts = TraceOpts {
            slice: Duration::from_millis(10),
            capture_events: 50_000,
        };
        let (r, _) = traced(Workload::KvFig3, 11, SPAN, &opts);
        assert_eq!(
            get(&r.sim, "lbcore.replay_samples"),
            get(&r.sim, "lb-dataplane.samples_in_capture")
        );
        assert_eq!(get(&r.sim, "lbcore.replay_agreement"), Val::F(1.0));
        for b in 0..2 {
            assert_eq!(
                get(&r.sim, &format!("lbcore.replay_fwd_b{b}")),
                get(&r.sim, &format!("lb-dataplane.capture_fwd_b{b}"))
            );
        }
        let Val::F(coverage) = get(&r.sim, "netsim.capture_coverage") else {
            panic!("coverage is a ratio");
        };
        assert!(
            coverage > 0.0 && coverage < 1.0,
            "a truncated capture covers a prefix"
        );
    }
}
