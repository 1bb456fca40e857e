//! Deterministic decision journal: a structured, sim-time-stamped event
//! stream recording *why* the load balancer acted — sample emissions,
//! ensemble epoch decisions, weight shifts, health transitions, gossip
//! merges, ECMP shard remaps, and flow re-pins.
//!
//! Events are exportable as NDJSON (one flat JSON object per line) and
//! re-loadable by [`parse_ndjson`], both through the workspace codec
//! ([`crate::json`]). Emission is deterministic: timestamps are
//! simulation time, never wall clock, and floats are written in their
//! shortest round-trip form, so the same seed produces byte-identical
//! NDJSON.
//!
//! The journal doubles as the **flight recorder**: in [`JournalMode::Ring`]
//! it keeps only the last N events, cheap enough to leave on in chaos
//! runs, and [`Journal::to_ndjson`] dumps the retained causal history
//! when something goes wrong (invariant violation, `no_backend` drop,
//! test failure).

use crate::json;

/// What the journal retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// Record nothing (default). All emission sites are gated on
    /// [`Journal::enabled`], so this mode is free on the hot path.
    Off,
    /// Flight recorder: bounded ring buffer of the last N events.
    Ring(usize),
    /// Full capture up to a hard event limit; events past the limit are
    /// dropped and counted in [`Journal::overflow`].
    Full(usize),
}

impl JournalMode {
    /// True when events should be recorded at all.
    pub fn enabled(&self) -> bool {
        !matches!(self, JournalMode::Off)
    }
}

/// Why a weight vector was re-recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightCause {
    /// Initial weights at node start.
    Init,
    /// The in-band controller shifted weight.
    Controller,
    /// A gossip merge blended peer weights in.
    Gossip,
    /// The health tracker ejected/readmitted a backend (or lost all of
    /// them — the `no_backend` zero-weight record).
    Health,
}

impl WeightCause {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            WeightCause::Init => "init",
            WeightCause::Controller => "controller",
            WeightCause::Gossip => "gossip",
            WeightCause::Health => "health",
        }
    }

    fn from_str(s: &str) -> Option<WeightCause> {
        match s {
            "init" => Some(WeightCause::Init),
            "controller" => Some(WeightCause::Controller),
            "gossip" => Some(WeightCause::Gossip),
            "health" => Some(WeightCause::Health),
            _ => None,
        }
    }
}

/// One journal record. All timestamps (`at`) are simulation nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// An in-band T_LB sample was extracted from a flow.
    Sample {
        /// Sim time the sample was observed at the LB.
        at: u64,
        /// Backend the flow is pinned to.
        backend: usize,
        /// Client IPv4 (the VIP side is implicit).
        src_ip: u32,
        /// Client source port.
        src_port: u16,
        /// The ensemble member δ (ns) that produced the sample.
        delta: u64,
        /// The measured T_LB in nanoseconds.
        t_lb: u64,
    },
    /// An ensemble epoch closed and a δ was (re-)chosen.
    EpochDecision {
        /// Sim time of the epoch boundary.
        at: u64,
        /// Backend whose ensemble decided.
        backend: usize,
        /// Per-δ sample counts for the finished epoch.
        counts: Vec<u64>,
        /// Index of the chosen ensemble member.
        chosen: usize,
        /// δ (ns) of the chosen member.
        delta: u64,
    },
    /// The weight vector was recorded (start, controller shift, gossip
    /// merge, or health rebuild).
    WeightUpdate {
        /// Sim time of the update.
        at: u64,
        /// Which subsystem produced it.
        cause: WeightCause,
        /// Backend that lost the most weight, if any lost weight.
        victim: Option<usize>,
        /// Total weight mass moved off decreasing backends.
        moved: f64,
        /// The full post-update weight vector.
        weights: Vec<f64>,
    },
    /// A backend health state transition.
    HealthTransition {
        /// Sim time of the health epoch that fired the transition.
        at: u64,
        /// Backend index.
        backend: usize,
        /// State before (wire name, e.g. "healthy").
        from: &'static str,
        /// State after.
        to: &'static str,
        /// What fired it (wire name, e.g. "silence", "abort_burst").
        trigger: &'static str,
    },
    /// Peer weights were blended into the local vector.
    GossipMerge {
        /// Sim time of the merge.
        at: u64,
        /// Blend factor toward the peer mean.
        mix: f64,
        /// Local weights before the merge.
        before: Vec<f64>,
        /// Local weights after the merge.
        after: Vec<f64>,
    },
    /// An affinity-pinned flow was moved to a new backend.
    FlowRepin {
        /// Sim time of the re-pin.
        at: u64,
        /// Client IPv4.
        src_ip: u32,
        /// Client source port.
        src_port: u16,
        /// Previous backend.
        from: usize,
        /// New backend.
        to: usize,
    },
    /// Every backend is ejected; the node started dropping.
    NoBackend {
        /// Sim time the node entered the no-backend state.
        at: u64,
    },
    /// An ECMP route changed its member set (shard remap).
    ShardRemap {
        /// Sim time of the route update.
        at: u64,
        /// Destination IPv4 the route covers.
        dst: u32,
        /// Link ids before the update.
        before: Vec<u64>,
        /// Link ids after the update.
        after: Vec<u64>,
    },
}

impl JournalEvent {
    /// Sim timestamp of the event.
    pub fn at(&self) -> u64 {
        match self {
            JournalEvent::Sample { at, .. }
            | JournalEvent::EpochDecision { at, .. }
            | JournalEvent::WeightUpdate { at, .. }
            | JournalEvent::HealthTransition { at, .. }
            | JournalEvent::GossipMerge { at, .. }
            | JournalEvent::FlowRepin { at, .. }
            | JournalEvent::NoBackend { at }
            | JournalEvent::ShardRemap { at, .. } => *at,
        }
    }

    /// Stable wire name of the event kind (the `"ev"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Sample { .. } => "sample",
            JournalEvent::EpochDecision { .. } => "epoch_decision",
            JournalEvent::WeightUpdate { .. } => "weight_update",
            JournalEvent::HealthTransition { .. } => "health",
            JournalEvent::GossipMerge { .. } => "gossip_merge",
            JournalEvent::FlowRepin { .. } => "flow_repin",
            JournalEvent::NoBackend { .. } => "no_backend",
            JournalEvent::ShardRemap { .. } => "shard_remap",
        }
    }
}

/// The event store. Cloneable so experiment results can carry a copy.
#[derive(Debug, Clone)]
pub struct Journal {
    mode: JournalMode,
    events: Vec<JournalEvent>,
    /// Ring mode: index of the oldest retained event.
    head: usize,
    /// Events not retained (ring overwrites or full-mode cap hits).
    overflow: u64,
}

impl Journal {
    /// New journal in the given mode.
    pub fn new(mode: JournalMode) -> Journal {
        Journal {
            mode,
            events: Vec::new(),
            head: 0,
            overflow: 0,
        }
    }

    /// Disabled journal; [`Journal::push`] is a no-op.
    pub fn off() -> Journal {
        Journal::new(JournalMode::Off)
    }

    /// The configured mode.
    pub fn mode(&self) -> JournalMode {
        self.mode
    }

    /// Cheap hot-path gate: should callers bother building events?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// Record an event (no-op when disabled; ring mode evicts oldest).
    pub fn push(&mut self, ev: JournalEvent) {
        match self.mode {
            JournalMode::Off => {}
            JournalMode::Ring(cap) => {
                if cap == 0 {
                    self.overflow += 1;
                } else if self.events.len() < cap {
                    self.events.push(ev);
                } else {
                    self.events[self.head] = ev;
                    self.head = (self.head + 1) % cap;
                    self.overflow += 1;
                }
            }
            JournalMode::Full(cap) => {
                if self.events.len() < cap {
                    self.events.push(ev);
                } else {
                    self.overflow += 1;
                }
            }
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not retained (overwritten in ring mode, dropped past the
    /// full-mode cap).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Retained events in chronological order (ring unrolled).
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        let (tail, init) = self.events.split_at(self.head.min(self.events.len()));
        init.iter().chain(tail.iter())
    }

    /// Serialize retained events as NDJSON, oldest first.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            write_event(&mut out, ev);
            out.push('\n');
        }
        out
    }
}

/// Append one event as a single flat JSON object (no trailing newline).
pub fn write_event(out: &mut String, ev: &JournalEvent) {
    let mut o = json::Obj::open(out);
    o.u64("at", ev.at()).str("ev", ev.kind());
    match ev {
        JournalEvent::Sample {
            backend,
            src_ip,
            src_port,
            delta,
            t_lb,
            ..
        } => {
            o.u64("backend", *backend as u64)
                .u64("src_ip", u64::from(*src_ip))
                .u64("src_port", u64::from(*src_port))
                .u64("delta", *delta)
                .u64("t_lb", *t_lb);
        }
        JournalEvent::EpochDecision {
            backend,
            counts,
            chosen,
            delta,
            ..
        } => {
            o.u64("backend", *backend as u64)
                .u64s("counts", counts)
                .u64("chosen", *chosen as u64)
                .u64("delta", *delta);
        }
        JournalEvent::WeightUpdate {
            cause,
            victim,
            moved,
            weights,
            ..
        } => {
            o.str("cause", cause.as_str());
            match victim {
                Some(v) => o.u64("victim", *v as u64),
                None => o.null("victim"),
            };
            o.f64("moved", *moved).f64s("weights", weights);
        }
        JournalEvent::HealthTransition {
            backend,
            from,
            to,
            trigger,
            ..
        } => {
            o.u64("backend", *backend as u64)
                .str("from", from)
                .str("to", to)
                .str("trigger", trigger);
        }
        JournalEvent::GossipMerge {
            mix, before, after, ..
        } => {
            o.f64("mix", *mix)
                .f64s("before", before)
                .f64s("after", after);
        }
        JournalEvent::FlowRepin {
            src_ip,
            src_port,
            from,
            to,
            ..
        } => {
            o.u64("src_ip", u64::from(*src_ip))
                .u64("src_port", u64::from(*src_port))
                .u64("from", *from as u64)
                .u64("to", *to as u64);
        }
        JournalEvent::NoBackend { .. } => {}
        JournalEvent::ShardRemap {
            dst, before, after, ..
        } => {
            o.u64("dst", u64::from(*dst))
                .u64s("before", before)
                .u64s("after", after);
        }
    }
    o.close();
}

/// Parse one NDJSON line back into an event. Every field is exact:
/// integers must fit their field's type, and floats round-trip bitwise.
pub fn parse_event(line: &str) -> Result<JournalEvent, String> {
    let f = json::parse(line)?;
    let at = f.uint("at")?;
    match f.str("ev")? {
        "sample" => Ok(JournalEvent::Sample {
            at,
            backend: f.uint("backend")?,
            src_ip: f.uint("src_ip")?,
            src_port: f.uint("src_port")?,
            delta: f.uint("delta")?,
            t_lb: f.uint("t_lb")?,
        }),
        "epoch_decision" => Ok(JournalEvent::EpochDecision {
            at,
            backend: f.uint("backend")?,
            counts: f.u64s("counts")?,
            chosen: f.uint("chosen")?,
            delta: f.uint("delta")?,
        }),
        "weight_update" => {
            let cause = f.str("cause")?;
            Ok(JournalEvent::WeightUpdate {
                at,
                cause: WeightCause::from_str(cause)
                    .ok_or_else(|| format!("unknown weight cause {cause:?}"))?,
                victim: f.opt_uint("victim")?,
                moved: f.f64("moved")?,
                weights: f.f64s("weights")?,
            })
        }
        "health" => Ok(JournalEvent::HealthTransition {
            at,
            backend: f.uint("backend")?,
            from: intern_health(f.str("from")?)?,
            to: intern_health(f.str("to")?)?,
            trigger: intern_trigger(f.str("trigger")?)?,
        }),
        "gossip_merge" => Ok(JournalEvent::GossipMerge {
            at,
            mix: f.f64("mix")?,
            before: f.f64s("before")?,
            after: f.f64s("after")?,
        }),
        "flow_repin" => Ok(JournalEvent::FlowRepin {
            at,
            src_ip: f.uint("src_ip")?,
            src_port: f.uint("src_port")?,
            from: f.uint("from")?,
            to: f.uint("to")?,
        }),
        "no_backend" => Ok(JournalEvent::NoBackend { at }),
        "shard_remap" => Ok(JournalEvent::ShardRemap {
            at,
            dst: f.uint("dst")?,
            before: f.u64s("before")?,
            after: f.u64s("after")?,
        }),
        other => Err(format!("unknown event kind {other:?}")),
    }
}

/// Health-state wire names, interned so parsed events compare equal to
/// emitted ones.
fn intern_health(s: &str) -> Result<&'static str, String> {
    match s {
        "healthy" => Ok("healthy"),
        "suspect" => Ok("suspect"),
        "ejected" => Ok("ejected"),
        "probation" => Ok("probation"),
        other => Err(format!("unknown health state {other:?}")),
    }
}

fn intern_trigger(s: &str) -> Result<&'static str, String> {
    match s {
        "silence" => Ok("silence"),
        "abort_burst" => Ok("abort_burst"),
        "probe_silent" => Ok("probe_silent"),
        "probation_timeout" => Ok("probation_timeout"),
        "samples_returned" => Ok("samples_returned"),
        other => Err(format!("unknown health trigger {other:?}")),
    }
}

/// Parse a full NDJSON document (blank lines skipped). Fails on the
/// first malformed line with its 1-based line number.
pub fn parse_ndjson(text: &str) -> Result<Vec<JournalEvent>, String> {
    json::parse_lines(text, parse_event)
}

/// Parse a full NDJSON document, dropping (and flagging) a truncated
/// final line; see [`json::parse_lines_lossy`].
pub fn parse_ndjson_lossy(text: &str) -> Result<(Vec<JournalEvent>, bool), String> {
    json::parse_lines_lossy(text, parse_event)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Sample {
                at: 1_000,
                backend: 1,
                src_ip: 0x0a00_0001,
                src_port: 40_000,
                delta: 64_000,
                t_lb: 123_456,
            },
            JournalEvent::EpochDecision {
                at: 2_000,
                backend: 0,
                counts: vec![9, 7, 2, 0],
                chosen: 1,
                delta: 128_000,
            },
            JournalEvent::WeightUpdate {
                at: 3_000,
                cause: WeightCause::Controller,
                victim: Some(0),
                moved: 0.125,
                weights: vec![0.375, 0.625],
            },
            JournalEvent::WeightUpdate {
                at: 3_500,
                cause: WeightCause::Init,
                victim: None,
                moved: 0.0,
                weights: vec![0.5, 0.5],
            },
            JournalEvent::HealthTransition {
                at: 4_000,
                backend: 0,
                from: "healthy",
                to: "suspect",
                trigger: "silence",
            },
            JournalEvent::GossipMerge {
                at: 5_000,
                mix: 0.5,
                before: vec![0.4, 0.6],
                after: vec![0.45, 0.55],
            },
            JournalEvent::FlowRepin {
                at: 6_000,
                src_ip: 0x0a00_0002,
                src_port: 31,
                from: 0,
                to: 1,
            },
            JournalEvent::NoBackend { at: 7_000 },
            JournalEvent::ShardRemap {
                at: 8_000,
                dst: 0x0a63_0001,
                before: vec![3, 4],
                after: vec![4],
            },
        ]
    }

    #[test]
    fn roundtrip_every_event_kind() {
        let mut j = Journal::new(JournalMode::Full(1024));
        for ev in sample_events() {
            j.push(ev);
        }
        let text = j.to_ndjson();
        let parsed = parse_ndjson(&text).unwrap();
        assert_eq!(parsed, sample_events());
        // Writer is canonical: re-serializing the parse is byte-identical.
        let mut again = String::new();
        for ev in &parsed {
            write_event(&mut again, ev);
            again.push('\n');
        }
        assert_eq!(again, text);
    }

    #[test]
    fn float_shortest_repr_roundtrips() {
        let w = JournalEvent::WeightUpdate {
            at: 1,
            cause: WeightCause::Gossip,
            victim: Some(2),
            moved: 0.1 + 0.2, // 0.30000000000000004
            weights: vec![1.0 / 3.0, 1e-7, 123_456.789_012_345],
        };
        let mut line = String::new();
        write_event(&mut line, &w);
        assert_eq!(parse_event(&line).unwrap(), w);
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut j = Journal::off();
        assert!(!j.enabled());
        j.push(JournalEvent::NoBackend { at: 1 });
        assert!(j.is_empty());
        assert_eq!(j.to_ndjson(), "");
        assert_eq!(parse_ndjson("").unwrap(), vec![]);
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let mut j = Journal::new(JournalMode::Ring(3));
        for at in 0..10 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.overflow(), 7);
        let ats: Vec<u64> = j.events().map(|e| e.at()).collect();
        assert_eq!(ats, vec![7, 8, 9]);
        // Dump is chronological too.
        let parsed = parse_ndjson(&j.to_ndjson()).unwrap();
        assert_eq!(parsed.iter().map(|e| e.at()).collect::<Vec<_>>(), ats);
    }

    #[test]
    fn ring_capacity_boundaries_keep_exactly_last_n() {
        // cap = 1: only the newest event ever survives a wrap.
        let mut j = Journal::new(JournalMode::Ring(1));
        for at in 0..5 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 1);
        assert_eq!(j.overflow(), 4);
        assert_eq!(j.events().map(|e| e.at()).collect::<Vec<_>>(), vec![4]);
        // cap = n exactly: no wrap, no overflow, order preserved.
        let mut j = Journal::new(JournalMode::Ring(4));
        for at in 0..4 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.overflow(), 0);
        assert_eq!(
            j.events().map(|e| e.at()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // One more push wraps: exactly the last 4, chronological.
        j.push(JournalEvent::NoBackend { at: 4 });
        assert_eq!(j.len(), 4);
        assert_eq!(j.overflow(), 1);
        assert_eq!(
            j.events().map(|e| e.at()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // cap = 0 ring: degenerate flight recorder, everything overflows.
        let mut j = Journal::new(JournalMode::Ring(0));
        j.push(JournalEvent::NoBackend { at: 9 });
        assert!(j.is_empty());
        assert_eq!(j.overflow(), 1);
    }

    #[test]
    fn full_mode_caps_and_counts_overflow() {
        let mut j = Journal::new(JournalMode::Full(2));
        for at in 0..5 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.overflow(), 3);
        let ats: Vec<u64> = j.events().map(|e| e.at()).collect();
        assert_eq!(ats, vec![0, 1]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_ndjson("{\"at\":1}").is_err()); // missing ev
        assert!(parse_ndjson("{\"at\":1,\"ev\":\"bogus\"}").is_err());
        assert!(parse_ndjson("not json").is_err());
        let err = parse_ndjson("{\"at\":1,\"ev\":\"no_backend\"}\nnope").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        // Numbers that do not fit their field are errors, not wraps,
        // saturations or truncations.
        assert!(parse_event("{\"at\":-1,\"ev\":\"no_backend\"}").is_err());
        assert!(parse_event("{\"at\":1e30,\"ev\":\"no_backend\"}").is_err());
        let flow = |port: &str, backend: &str| {
            format!(
                "{{\"at\":1,\"ev\":\"sample\",\"backend\":{backend},\"src_ip\":1,\
                 \"src_port\":{port},\"delta\":2,\"t_lb\":3}}"
            )
        };
        assert!(parse_event(&flow("65535", "0")).is_ok());
        assert!(parse_event(&flow("70000", "0")).is_err());
        assert!(parse_event(&flow("1", "-1")).is_err());
    }

    #[test]
    fn lossy_parse_drops_only_a_truncated_tail() {
        let good = "{\"at\":1,\"ev\":\"no_backend\"}";
        // A half-written final line (truncated mid-capture) is dropped
        // and flagged; the preceding events still parse.
        let truncated = format!("{good}\n{{\"at\":2,\"ev\":\"no_bac");
        let (evs, dropped) = parse_ndjson_lossy(&truncated).unwrap();
        assert_eq!(evs, vec![JournalEvent::NoBackend { at: 1 }]);
        assert!(dropped, "truncated tail must be flagged");
        // A trailing blank line after the garbage does not shield it.
        let (evs, dropped) = parse_ndjson_lossy(&format!("{truncated}\n\n")).unwrap();
        assert_eq!(evs.len(), 1);
        assert!(dropped);
        // Clean documents (including empty ones) report no drop.
        let (evs, dropped) = parse_ndjson_lossy(&format!("{good}\n")).unwrap();
        assert_eq!(evs.len(), 1);
        assert!(!dropped);
        assert_eq!(parse_ndjson_lossy("").unwrap(), (vec![], false));
        // Interior corruption is still a hard error with its line number.
        let err = parse_ndjson_lossy(&format!("nope\n{good}\n")).unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }
}
