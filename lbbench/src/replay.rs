//! Replays the captured LB ingress through the public LB-stage functions,
//! timing each call, and checks the replay against what the LB did.
//!
//! The replay follows the LB's per-packet path in order: parse the flow
//! key and flags, retire a stale entry on a SYN, look the flow up, feed
//! a hit's timing to its backend's ensemble and any resulting sample to
//! the estimator, and pick a backend through Maglev for a new flow or a
//! stateless fallback. The Maglev table in force at each frame is the
//! one built from the LB's weight vector at that instant. The controller
//! is not replayed; the traced run times it in place instead.

use experiments::KvCluster;
use lbcore::{BackendEstimator, EnsembleTimeout, FlowTable, MaglevTable, Weights};
use netpkt::{BufferPool, FlowKey, MacAddr, Packet};
use netsim::TraceKind;
use telemetry::JournalMode;

use crate::measure::{allocs, Spans, StageTime};
use crate::out::Record;
use crate::workloads::aware_lb;

/// One frame the LB received during the capture.
pub struct Frame {
    /// Arrival, simulated ns.
    pub at: u64,
    /// The frame's bytes.
    pub data: bytes::Bytes,
    /// The backend the LB forwarded it to; `None` when it dropped the
    /// frame or the capture ended before its forward was recorded.
    pub forwarded_to: Option<usize>,
}

/// The LB ingress frames of a capture, with how much of the run it spans.
pub struct Capture {
    /// Frames in arrival order.
    pub frames: Vec<Frame>,
    /// Packet events the bounded capture did not keep.
    pub truncated: u64,
    /// Simulated instant the capture ends: the last kept event when
    /// truncated, the end of the run otherwise.
    pub end_ns: u64,
}

/// Extracts the LB's ingress frames from the simulation's packet
/// capture, pairing each with the forward the LB sent in reaction.
pub fn capture_frames(c: &KvCluster) -> Capture {
    let trace = c.sim.trace();
    let mut frames: Vec<Frame> = Vec::new();
    for e in trace.events() {
        if e.node != c.lb {
            continue;
        }
        match e.kind {
            TraceKind::Deliver => {
                if let Some(data) = &e.data {
                    frames.push(Frame {
                        at: e.at.as_nanos(),
                        data: data.clone(),
                        forwarded_to: None,
                    });
                }
            }
            // The LB sends only in reaction to a delivery, within the same
            // event, so its next send belongs to the latest frame.
            TraceKind::Send | TraceKind::Drop => {
                if let (Some(last), Some(b)) = (
                    frames.last_mut(),
                    c.backend_links.iter().position(|&l| l == e.link),
                ) {
                    last.forwarded_to.get_or_insert(b);
                }
            }
        }
    }
    let end_ns = if trace.truncated > 0 {
        trace.events().last().map_or(0, |e| e.at.as_nanos())
    } else {
        c.sim.now().as_nanos()
    };
    Capture {
        frames,
        truncated: trace.truncated,
        end_ns,
    }
}

/// Replays `capture` and records the per-stage costs (`host`) and the
/// replay's fidelity counts (`sim`).
pub fn replay(
    c: &KvCluster,
    capture: &Capture,
    overhead_ns: f64,
    spans: &mut Spans,
    sim: &mut Record,
    host: &mut Record,
) {
    let n = c.backends.len();
    // The workloads' own LB configuration supplies the replay's
    // parameters; its backend list is not needed.
    let cfg = aware_lb(JournalMode::Off, None)(Vec::new());
    let lb = c.lb_node();
    let frames = &capture.frames;
    let span_ns = c.sim.now().as_nanos().max(1);
    sim.u("netsim.capture_frames", frames.len() as u64);
    sim.u("netsim.capture_truncated", capture.truncated);
    sim.f(
        "netsim.capture_coverage",
        capture.end_ns.min(span_ns) as f64 / span_ns as f64,
    );

    // netpkt: parse, zero-copy view, and the DSR L2 rewrite.
    let mut parse = StageTime::default();
    let mut view = StageTime::default();
    let mut rewrite = StageTime::default();
    let parsed: Vec<_> = spans.within("replay.netpkt", || {
        let mut pool = BufferPool::default();
        let (src, dst) = (MacAddr::from_id(0xf0), MacAddr::from_id(0xb000));
        frames
            .iter()
            .map(|f| {
                let key = parse.time(|| FlowKey::parse_with_flags(&f.data));
                let pkt = Packet::from_bytes(f.data.clone());
                drop(view.time(|| pkt.view()));
                let fwd = rewrite.time(|| pkt.with_macs_pooled(src, dst, &mut pool));
                pool.recycle(fwd);
                key.ok()
            })
            .collect()
    });
    host.f("netpkt.parse_ns", parse.per_call_ns(overhead_ns));
    host.f("netpkt.view_ns", view.per_call_ns(overhead_ns));
    host.f("netpkt.rewrite_ns", rewrite.per_call_ns(overhead_ns));

    // Maglev builds at every weight vector the LB used: the initial equal
    // weights, then each recorded change.
    let changes: Vec<(u64, Vec<f64>)> = {
        let series: Vec<_> = (0..n).map(|b| lb.weight_series(b).points()).collect();
        (0..series[0].len())
            .map(|i| (series[0][i].0, series.iter().map(|s| s[i].1).collect()))
            .collect()
    };
    let mut build = StageTime::default();
    let initial = Weights::equal(n, cfg.weight_floor);
    let tables: Vec<(u64, MaglevTable)> = spans.within("replay.maglev_build", || {
        std::iter::once((0, initial.as_slice().to_vec()))
            .chain(changes)
            .map(|(at, w)| (at, build.time(|| MaglevTable::build(&w, cfg.table_size))))
            .collect()
    });
    host.f(
        "lbcore.maglev_build_us",
        build.per_call_ns(overhead_ns) / 1e3,
    );

    // The per-packet decision path.
    let mut flow_table = StageTime::default();
    let mut ensemble = StageTime::default();
    let mut estimator = StageTime::default();
    let mut lookup = StageTime::default();
    let mut flows =
        FlowTable::with_capacity(cfg.flow_idle_timeout.as_nanos(), cfg.flow_table_capacity);
    let mut ensembles: Vec<_> = (0..n)
        .map(|_| EnsembleTimeout::new(cfg.ensemble.clone()))
        .collect();
    let mut est = BackendEstimator::new(n, cfg.estimator_alpha, cfg.estimator_staleness.as_nanos())
        .with_signal_quantile(cfg.signal_quantile);
    let mut picks = vec![0u64; n];
    let mut actual = vec![0u64; n];
    let (mut agree, mut compared, mut samples) = (0u64, 0u64, 0u64);
    let mut table_idx = 0;
    let a0 = allocs().0;
    spans.within("replay.lb_path", || {
        for (f, key) in frames.iter().zip(&parsed) {
            let Some((key, flags)) = *key else { continue };
            if key.dst_ip != cfg.vip {
                continue;
            }
            let now = f.at;
            while table_idx + 1 < tables.len() && tables[table_idx + 1].0 <= now {
                table_idx += 1;
            }
            let table = &tables[table_idx].1;
            if flags.is_syn_only() {
                flow_table.time(|| flows.remove(&key));
            }
            let entry = flow_table.time(|| flows.get_mut(&key));
            let backend = if let Some(entry) = entry {
                entry.last_seen = now;
                entry.packets += 1;
                let b = entry.backend;
                let sample = ensemble.time(|| ensembles[b].on_packet(&mut entry.timing, now));
                if let Some(t_lb) = sample {
                    samples += 1;
                    estimator.time(|| est.record(b, t_lb, now));
                }
                b
            } else if flags.is_syn_only() {
                let b = lookup.time(|| table.lookup(key.stable_hash()));
                let timing = ensemble.time(|| ensembles[b].new_flow(now));
                flow_table.time(|| {
                    flows.insert(key, b, timing, now);
                });
                b
            } else {
                lookup.time(|| table.lookup(key.stable_hash()))
            };
            picks[backend] += 1;
            if let Some(real) = f.forwarded_to {
                actual[real] += 1;
                compared += 1;
                agree += u64::from(real == backend);
            }
        }
    });
    let replay_allocs = allocs().0 - a0;
    for (name, stage) in [
        ("lbcore.flow_table_ns", &flow_table),
        ("lbcore.ensemble_ns", &ensemble),
        ("lbcore.estimator_ns", &estimator),
        ("lbcore.maglev_lookup_ns", &lookup),
    ] {
        host.f(name, stage.per_call_ns(overhead_ns));
    }
    // One packet's LB path: every stage's calls, spread over the frames
    // (a stage runs zero, one or more times per frame).
    let pkts = frames.len().max(1) as f64;
    let path_ns = [
        &parse,
        &flow_table,
        &ensemble,
        &estimator,
        &lookup,
        &rewrite,
    ]
    .iter()
    .map(|s| s.per_call_ns(overhead_ns) * s.calls as f64)
    .sum::<f64>()
        / pkts;
    host.f("lbcore.path_ns", path_ns);
    host.f("lbcore.replay_allocs_per_pkt", replay_allocs as f64 / pkts);
    sim.u("lbcore.replay_samples", samples);
    sim.u(
        "lb-dataplane.samples_in_capture",
        lb.samples()
            .iter()
            .filter(|s| s.at.as_nanos() <= capture.end_ns)
            .count() as u64,
    );
    for b in 0..n {
        sim.u(&format!("lbcore.replay_fwd_b{b}"), picks[b]);
        sim.u(&format!("lb-dataplane.capture_fwd_b{b}"), actual[b]);
    }
    sim.f(
        "lbcore.replay_agreement",
        if compared == 0 {
            0.0
        } else {
            agree as f64 / compared as f64
        },
    );
}
