//! The scenario spec and its runner: every KV cluster in the workspace
//! is a [`Scenario`] turned into a [`KvCluster`] by [`build`] and run to
//! its horizon by [`drive`].
//!
//! Fig. 3, the chaos crash/restart, the multi-LB tier, the perfbench
//! KV scenarios and every fuzzed case are all specs: the experiments
//! build theirs in memory (`Fig3Config::scenario` and friends), the
//! `scenario` binary and the fuzz-regression suite read theirs from
//! text, and `scenariofuzz` derives one from a seed.
//!
//! The text format is one `key = value` line per scalar and one line per
//! backend, fault and injection; blank lines and `#` comments are
//! skipped. Counts, percentages and parts per million are integers, and
//! a time is an exact decimal in its key's unit (`up_ms = 2812.5`,
//! nanosecond resolution), so [`Scenario::to_text`] and
//! [`Scenario::from_text`] round-trip byte-exactly and two builds of one
//! file construct bit-identical simulations. `lb` and `bin_ms` are
//! written only when they differ from their defaults.
//!
//! Recorders (packet trace, span log) are not part of the spec: they
//! never move a packet, so callers enable them on `cluster.sim`. The
//! decision journal is the one recorder that lives in the LB config,
//! so [`build`] takes its mode.

use std::net::Ipv4Addr;

use backend::{KvServerConfig, ServiceDist};
use lb_dataplane::{LbConfig, LbNode};
use lbcore::{AlphaShift, HealthConfig};
use netsim::fault::{FaultSchedule, ImpairmentConfig};
use netsim::{Duration, Time};
use telemetry::JournalMode;
use workload::MemtierConfig;

use crate::topology::{KvCluster, KvClusterConfig, VIP};

/// Which LB serves the VIP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbMode {
    /// The paper's latency-aware LB (`AlphaShift::damped`).
    Aware,
    /// Plain weighted Maglev with in-band measurement off.
    Baseline,
}

impl LbMode {
    fn name(self) -> &'static str {
        match self {
            LbMode::Aware => "aware",
            LbMode::Baseline => "baseline",
        }
    }
}

/// One backend's service profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendSpec {
    /// Median service time (µs) of the log-normal service distribution.
    pub median_us: u32,
    /// Shape parameter σ of the log-normal, in percent (30 = 0.30).
    pub sigma_pct: u32,
    /// Worker parallelism (at least one).
    pub workers: u32,
}

/// One scripted fault. Times are offsets from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Crash the backend node at `down`, restart it at `up`.
    Crash {
        /// Backend index.
        backend: u32,
        /// Crash instant (`down_ms`).
        down: Duration,
        /// Restart instant (`up_ms`).
        up: Duration,
    },
    /// Flap one LB's forwarding link to one backend (both directions
    /// drop while down).
    Flap {
        /// LB index.
        lb: u32,
        /// Backend index.
        backend: u32,
        /// Link-down instant (`down_ms`).
        down: Duration,
        /// Link-up instant (`up_ms`).
        up: Duration,
    },
    /// Stochastically impair the LB→backend direction of one forwarding
    /// link (corrupt/duplicate/reorder).
    Impair {
        /// LB index.
        lb: u32,
        /// Backend index.
        backend: u32,
        /// Impairment start (`from_ms`).
        from: Duration,
        /// Impairment end (`until_ms`).
        until: Duration,
        /// Corruption probability, parts per million.
        corrupt_ppm: u32,
        /// Duplication probability, parts per million.
        duplicate_ppm: u32,
        /// Reorder probability, parts per million.
        reorder_ppm: u32,
        /// Maximum extra delay of a reordered packet (`window_us`).
        window: Duration,
        /// Seed of the impairment's private draw stream.
        seed: u64,
    },
}

/// One scheduled latency injection: `extra` added to every LB's
/// forwarding path to `backend` from `at` on (the Fig. 3 event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Backend index.
    pub backend: u32,
    /// Injection instant (`at_ms`).
    pub at: Duration,
    /// Extra one-way delay (`extra_us`).
    pub extra: Duration,
}

/// A complete KV scenario: topology, workload, LB and gossip config,
/// fault schedule and injections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Root simulation seed (drives host/client/server RNG streams).
    pub seed: u64,
    /// The LB variant every shard runs.
    pub lb: LbMode,
    /// Number of LB shards behind the VIP's ECMP route.
    pub lbs: u32,
    /// Per-backend service tiers (length = backend count).
    pub backends: Vec<BackendSpec>,
    /// Client connections (closed-loop).
    pub connections: u32,
    /// Pipeline depth per connection.
    pub pipeline: u32,
    /// GET fraction of the KV mix, in percent.
    pub get_ratio_pct: u32,
    /// SET value length in bytes (the bulk axis).
    pub value_len: u32,
    /// Connection churn: close/reopen after this many requests (0 = off).
    pub requests_per_conn: u32,
    /// Run length (`duration_ms`).
    pub duration: Duration,
    /// Client latency-series bin width (`bin_ms`, default 1000).
    pub bin: Duration,
    /// Gossip round period (`gossip_period_ms`); zero = isolated feedback.
    pub gossip_period: Duration,
    /// Gossip blend strength toward the peer mean, in percent.
    pub gossip_mix_pct: u32,
    /// Health probation timeout (`probation_ms`).
    pub probation: Duration,
    /// Scripted faults.
    pub faults: Vec<FaultSpec>,
    /// Scheduled latency injections.
    pub injections: Vec<Injection>,
}

const MS: u64 = 1_000_000;
const US: u64 = 1_000;
const DEFAULT_BIN: Duration = Duration::from_millis(1000);

impl Scenario {
    /// The paper's Fig. 3 cluster with nothing scheduled: one
    /// latency-aware LB, two 60 µs log-normal backends with four workers,
    /// one client host with 16 request-response connections (50/50
    /// GET/SET, 64-byte values, a reconnect every 200 requests), the
    /// default health config. The base every experiment preset edits;
    /// built, it is exactly `KvClusterConfig::fig3_defaults`.
    pub fn fig3_cluster(seed: u64, duration: Duration) -> Scenario {
        let backend = BackendSpec {
            median_us: 60,
            sigma_pct: 30,
            workers: 4,
        };
        Scenario {
            seed,
            lb: LbMode::Aware,
            lbs: 1,
            backends: vec![backend; 2],
            connections: 16,
            pipeline: 1,
            get_ratio_pct: 50,
            value_len: 64,
            requests_per_conn: 200,
            duration,
            bin: DEFAULT_BIN,
            gossip_period: Duration::ZERO,
            gossip_mix_pct: 0,
            probation: Duration::from_nanos(HealthConfig::default().probation_after),
            faults: Vec::new(),
            injections: Vec::new(),
        }
    }

    /// Serializes the scenario: one `key = value` line per scalar, one
    /// line per backend/fault/injection. Round-trips exactly through
    /// [`Scenario::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line("# scenariofuzz case v1".into());
        line(format!("seed = {}", self.seed));
        if self.lb != LbMode::Aware {
            line(format!("lb = {}", self.lb.name()));
        }
        line(format!("lbs = {}", self.lbs));
        line(format!("connections = {}", self.connections));
        line(format!("pipeline = {}", self.pipeline));
        line(format!("get_ratio_pct = {}", self.get_ratio_pct));
        line(format!("value_len = {}", self.value_len));
        line(format!("requests_per_conn = {}", self.requests_per_conn));
        line(format!("duration_ms = {}", time_text(self.duration, MS)));
        if self.bin != DEFAULT_BIN {
            line(format!("bin_ms = {}", time_text(self.bin, MS)));
        }
        line(format!(
            "gossip_period_ms = {}",
            time_text(self.gossip_period, MS)
        ));
        line(format!("gossip_mix_pct = {}", self.gossip_mix_pct));
        line(format!("probation_ms = {}", time_text(self.probation, MS)));
        for b in &self.backends {
            line(format!(
                "backend = median_us={} sigma_pct={} workers={}",
                b.median_us, b.sigma_pct, b.workers
            ));
        }
        for f in &self.faults {
            line(match *f {
                FaultSpec::Crash { backend, down, up } => format!(
                    "fault = crash backend={backend} down_ms={} up_ms={}",
                    time_text(down, MS),
                    time_text(up, MS)
                ),
                FaultSpec::Flap {
                    lb,
                    backend,
                    down,
                    up,
                } => format!(
                    "fault = flap lb={lb} backend={backend} down_ms={} up_ms={}",
                    time_text(down, MS),
                    time_text(up, MS)
                ),
                FaultSpec::Impair {
                    lb,
                    backend,
                    from,
                    until,
                    corrupt_ppm,
                    duplicate_ppm,
                    reorder_ppm,
                    window,
                    seed,
                } => format!(
                    "fault = impair lb={lb} backend={backend} from_ms={} until_ms={} \
                     corrupt_ppm={corrupt_ppm} duplicate_ppm={duplicate_ppm} \
                     reorder_ppm={reorder_ppm} window_us={} seed={seed}",
                    time_text(from, MS),
                    time_text(until, MS),
                    time_text(window, US)
                ),
            });
        }
        for inj in &self.injections {
            line(format!(
                "inject = backend={} at_ms={} extra_us={}",
                inj.backend,
                time_text(inj.at, MS),
                time_text(inj.extra, US)
            ));
        }
        out
    }

    /// Parses the format written by [`Scenario::to_text`]. Blank lines
    /// and `#` comments are skipped; unknown keys, malformed lines, and
    /// scenarios [`Scenario::validate`] rejects are errors. A scalar
    /// left out keeps its [`Scenario::fig3_cluster`] value (seed 0,
    /// 1000 ms); backends must be listed.
    pub fn from_text(text: &str) -> Result<Scenario, String> {
        let mut sc = Scenario {
            backends: Vec::new(),
            ..Scenario::fig3_cluster(0, Duration::from_millis(1000))
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at("expected `key = value`".into()))?;
            let (key, value) = (key.trim(), value.trim());
            let ms = || parse_time(value, MS).map_err(at);
            let int = || parse_u32(value).map_err(at);
            match key {
                "seed" => sc.seed = parse_u64(value).map_err(at)?,
                "lb" => {
                    sc.lb = match value {
                        "aware" => LbMode::Aware,
                        "baseline" => LbMode::Baseline,
                        other => {
                            return Err(at(format!(
                                "unknown LB mode {other:?} (want aware|baseline)"
                            )))
                        }
                    }
                }
                "lbs" => sc.lbs = int()?,
                "connections" => sc.connections = int()?,
                "pipeline" => sc.pipeline = int()?,
                "get_ratio_pct" => sc.get_ratio_pct = int()?,
                "value_len" => sc.value_len = int()?,
                "requests_per_conn" => sc.requests_per_conn = int()?,
                "duration_ms" => sc.duration = ms()?,
                "bin_ms" => sc.bin = ms()?,
                "gossip_period_ms" => sc.gossip_period = ms()?,
                "gossip_mix_pct" => sc.gossip_mix_pct = int()?,
                "probation_ms" => sc.probation = ms()?,
                "backend" => {
                    let kv = KvList::parse(value).map_err(at)?;
                    sc.backends.push(BackendSpec {
                        median_us: kv.u32("median_us").map_err(at)?,
                        sigma_pct: kv.u32("sigma_pct").map_err(at)?,
                        workers: kv.u32("workers").map_err(at)?,
                    });
                }
                "fault" => {
                    let (kind, rest) = value.split_once(' ').unwrap_or((value, ""));
                    let kv = KvList::parse(rest).map_err(at)?;
                    let fault = match kind {
                        "crash" => FaultSpec::Crash {
                            backend: kv.u32("backend").map_err(at)?,
                            down: kv.time("down_ms", MS).map_err(at)?,
                            up: kv.time("up_ms", MS).map_err(at)?,
                        },
                        "flap" => FaultSpec::Flap {
                            lb: kv.u32("lb").map_err(at)?,
                            backend: kv.u32("backend").map_err(at)?,
                            down: kv.time("down_ms", MS).map_err(at)?,
                            up: kv.time("up_ms", MS).map_err(at)?,
                        },
                        "impair" => FaultSpec::Impair {
                            lb: kv.u32("lb").map_err(at)?,
                            backend: kv.u32("backend").map_err(at)?,
                            from: kv.time("from_ms", MS).map_err(at)?,
                            until: kv.time("until_ms", MS).map_err(at)?,
                            corrupt_ppm: kv.u32("corrupt_ppm").map_err(at)?,
                            duplicate_ppm: kv.u32("duplicate_ppm").map_err(at)?,
                            reorder_ppm: kv.u32("reorder_ppm").map_err(at)?,
                            window: kv.time("window_us", US).map_err(at)?,
                            seed: kv.u64("seed").map_err(at)?,
                        },
                        other => return Err(at(format!("unknown fault kind {other:?}"))),
                    };
                    sc.faults.push(fault);
                }
                "inject" => {
                    let kv = KvList::parse(value).map_err(at)?;
                    sc.injections.push(Injection {
                        backend: kv.u32("backend").map_err(at)?,
                        at: kv.time("at_ms", MS).map_err(at)?,
                        extra: kv.time("extra_us", US).map_err(at)?,
                    });
                }
                other => return Err(at(format!("unknown key {other:?}"))),
            }
        }
        sc.validate()?;
        Ok(sc)
    }

    /// Structural sanity, so [`build`] and the run never panic on a
    /// spec that passes: at least 2 backends (each with a worker) and
    /// 1 LB, a non-zero bin width, fault/injection indices in range,
    /// fault windows well-ordered.
    pub fn validate(&self) -> Result<(), String> {
        if self.lbs < 1 {
            return Err("at least one LB".into());
        }
        if self.backends.len() < 2 {
            return Err("at least two backends".into());
        }
        if self.backends.iter().any(|b| b.workers == 0) {
            return Err("every backend needs at least one worker".into());
        }
        if self.connections < 1 || self.pipeline < 1 {
            return Err("connections and pipeline must be >= 1".into());
        }
        if self.get_ratio_pct > 100 || self.gossip_mix_pct > 100 {
            return Err("percent fields must be <= 100".into());
        }
        if self.duration < Duration::from_millis(100) {
            return Err("duration too short".into());
        }
        if self.bin.is_zero() {
            return Err("bin_ms must be positive".into());
        }
        let n = self.backends.len() as u32;
        for f in &self.faults {
            let (lb, backend, lo, hi) = match *f {
                FaultSpec::Crash { backend, down, up } => (0, backend, down, up),
                FaultSpec::Flap {
                    lb,
                    backend,
                    down,
                    up,
                } => (lb, backend, down, up),
                FaultSpec::Impair {
                    lb,
                    backend,
                    from,
                    until,
                    ..
                } => (lb, backend, from, until),
            };
            if lb >= self.lbs {
                return Err(format!("fault references LB {lb} of {}", self.lbs));
            }
            if backend >= n {
                return Err(format!("fault references backend {backend} of {n}"));
            }
            if lo >= hi {
                return Err(format!("fault window [{lo}, {hi}) is empty"));
            }
        }
        for inj in &self.injections {
            if inj.backend >= n {
                return Err(format!(
                    "injection references backend {} of {n}",
                    inj.backend
                ));
            }
        }
        Ok(())
    }
}

/// Builds the cluster a scenario describes: every LB shard gets the
/// spec's LB variant, health probation and `journal` mode; the faults
/// are armed, then the injections scheduled on every LB's path.
pub fn build(sc: &Scenario, journal: JournalMode) -> KvCluster {
    let (lb, probation_after) = (sc.lb, sc.probation.as_nanos());
    let factory = move || -> Box<dyn FnOnce(Vec<Ipv4Addr>) -> LbConfig> {
        Box::new(move |backends| {
            let mut cfg = match lb {
                LbMode::Aware => {
                    LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()))
                }
                LbMode::Baseline => LbConfig::baseline(VIP, backends),
            };
            cfg.health = Some(HealthConfig {
                probation_after,
                ..HealthConfig::default()
            });
            cfg.journal = journal;
            cfg
        })
    };
    let mut cfg = KvClusterConfig::fig3_defaults(factory());
    cfg.extra_lbs = (1..sc.lbs).map(|_| factory()).collect();
    cfg.clients = vec![MemtierConfig {
        connections: sc.connections as usize,
        pipeline: sc.pipeline as usize,
        get_ratio: f64::from(sc.get_ratio_pct) / 100.0,
        set_value_len: sc.value_len,
        requests_per_conn: u64::from(sc.requests_per_conn),
        recorder_bin: sc.bin,
        ..MemtierConfig::default()
    }];
    cfg.backends = sc
        .backends
        .iter()
        .enumerate()
        .map(|(j, b)| KvServerConfig {
            service: ServiceDist::LogNormal {
                median: u64::from(b.median_us) * 1_000,
                sigma: f64::from(b.sigma_pct) / 100.0,
            },
            workers: b.workers as usize,
            seed: j as u64,
            ..KvServerConfig::default()
        })
        .collect();
    cfg.seed = sc.seed;
    let mut cluster = KvCluster::build(cfg);

    let t = |d: Duration| Time::ZERO + d;
    let mut faults = FaultSchedule::new();
    for f in &sc.faults {
        match *f {
            FaultSpec::Crash { backend, down, up } => {
                faults.crash_window(cluster.backends[backend as usize], t(down), t(up));
            }
            FaultSpec::Flap {
                lb,
                backend,
                down,
                up,
            } => {
                let link = cluster.fwd_links[lb as usize][backend as usize];
                faults.link_flap(link, t(down), t(up));
            }
            FaultSpec::Impair {
                lb,
                backend,
                from,
                until,
                corrupt_ppm,
                duplicate_ppm,
                reorder_ppm,
                window,
                seed,
            } => {
                let p = |ppm: u32| f64::from(ppm) / 1e6;
                let impairment = ImpairmentConfig {
                    corrupt_p: p(corrupt_ppm),
                    duplicate_p: p(duplicate_ppm),
                    reorder_p: p(reorder_ppm),
                    reorder_window: window,
                    seed,
                };
                let link = cluster.fwd_links[lb as usize][backend as usize];
                let from_node = cluster.lbs[lb as usize];
                faults.impair_window(link, from_node, impairment, t(from), t(until));
            }
        }
    }
    faults.apply(&mut cluster.sim);
    for inj in &sc.injections {
        cluster.inject_backend_delay_all_lbs(inj.backend as usize, t(inj.at), inj.extra);
    }
    cluster
}

/// Runs a built cluster to the scenario's horizon. With gossip on (more
/// than one LB and a non-zero period) the clock advances in period
/// steps with an all-to-all gossip round between steps. Events *at* a
/// step boundary are processed before the round (`run_until` is
/// inclusive), and gossip adds no packets, so stepping never perturbs
/// the trace.
pub fn drive(cluster: &mut KvCluster, sc: &Scenario) {
    let end = Time::ZERO + sc.duration;
    if sc.lbs > 1 && !sc.gossip_period.is_zero() {
        let mix = f64::from(sc.gossip_mix_pct) / 100.0;
        let mut next = Time::ZERO + sc.gossip_period;
        while next < end {
            cluster.sim.run_until(next);
            gossip_round(cluster, mix);
            next += sc.gossip_period;
        }
    }
    cluster.sim.run_until(end);
}

/// One all-to-all gossip round: snapshot every LB's weights, then let
/// each LB merge against its peers' snapshots. Using the pre-round
/// snapshots (not the already-merged vectors) keeps the round symmetric
/// and order-independent.
fn gossip_round(cluster: &mut KvCluster, mix: f64) {
    let now = cluster.sim.now();
    let snapshots: Vec<Vec<f64>> = cluster
        .lbs
        .iter()
        .map(|&id| {
            cluster
                .sim
                .node_ref::<LbNode>(id)
                .map(|n| n.weights().as_slice().to_vec())
                .unwrap_or_default()
        })
        .collect();
    for (i, &id) in cluster.lbs.iter().enumerate() {
        let peers: Vec<&[f64]> = snapshots
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, v)| v.as_slice())
            .collect();
        if let Some(node) = cluster.sim.node_mut::<LbNode>(id) {
            node.apply_gossip(&peers, mix, now);
        }
    }
}

/// Writes `d` as an exact decimal count of `unit`-ns units: `1250`,
/// `2812.5`.
fn time_text(d: Duration, unit: u64) -> String {
    let (whole, frac) = (d.as_nanos() / unit, d.as_nanos() % unit);
    if frac == 0 {
        return whole.to_string();
    }
    let digits = format!("{frac:0width$}", width = unit.ilog10() as usize);
    format!("{whole}.{}", digits.trim_end_matches('0'))
}

/// Parses what [`time_text`] writes: digits, optionally followed by a
/// point and at most nanosecond-resolution fraction digits.
fn parse_time(s: &str, unit: u64) -> Result<Duration, String> {
    let bad = || format!("bad time {s:?}");
    let width = unit.ilog10() as usize;
    let (whole, frac) = match s.split_once('.') {
        Some((w, f)) if !f.is_empty() && f.len() <= width => (w, f),
        Some(_) => return Err(bad()),
        None => (s, ""),
    };
    let digits = |t: &str| t.bytes().all(|b| b.is_ascii_digit());
    if whole.is_empty() || !digits(whole) || !digits(frac) {
        return Err(bad());
    }
    let frac_ns = format!("{frac:0<width$}")
        .parse::<u64>()
        .map_err(|_| bad())?;
    whole
        .parse::<u64>()
        .ok()
        .and_then(|w| w.checked_mul(unit))
        .and_then(|w| w.checked_add(frac_ns))
        .map(Duration::from_nanos)
        .ok_or_else(bad)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad integer {s:?}: {e}"))
}

fn parse_u32(s: &str) -> Result<u32, String> {
    s.parse::<u32>()
        .map_err(|e| format!("bad integer {s:?}: {e}"))
}

/// A `k=v k=v ...` list on one line.
struct KvList<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> KvList<'a> {
    fn parse(s: &'a str) -> Result<KvList<'a>, String> {
        let mut pairs = Vec::new();
        for tok in s.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected k=v, got {tok:?}"))?;
            pairs.push((k, v));
        }
        Ok(KvList { pairs })
    }

    fn get(&self, key: &str) -> Result<&'a str, String> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        parse_u32(self.get(key)?)
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        parse_u64(self.get(key)?)
    }

    fn time(&self, key: &str, unit: u64) -> Result<Duration, String> {
        parse_time(self.get(key)?, unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig3::Fig3Config;

    fn fig3() -> Scenario {
        Fig3Config::quick().scenario(LbMode::Aware)
    }

    #[test]
    fn malformed_input_reports_the_line() {
        let err = Scenario::from_text("seed = 1\nbogus_key = 2\n").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        let err = Scenario::from_text("fault = warp lb=0\n").unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
        let err = Scenario::from_text("seed = 1\n").unwrap_err();
        assert!(err.contains("two backends"), "{err}");
        let err = Scenario::from_text("seed = 1\nlb = quantum\n").unwrap_err();
        assert!(
            err.starts_with("line 2") && err.contains("quantum"),
            "{err}"
        );
        for bad in ["1.", ".5", "1.0000001", "+5", "1e3", "18446744073709551615"] {
            let err = Scenario::from_text(&format!("duration_ms = {bad}\n")).unwrap_err();
            assert!(err.contains("bad time"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn validation_rejects_out_of_range_references() {
        let mut sc = fig3();
        sc.faults = vec![FaultSpec::Crash {
            backend: 99,
            down: Duration::from_millis(100),
            up: Duration::from_millis(200),
        }];
        assert!(sc.validate().is_err());
        let mut sc = fig3();
        sc.faults = vec![FaultSpec::Flap {
            lb: sc.lbs,
            backend: 0,
            down: Duration::from_millis(100),
            up: Duration::from_millis(200),
        }];
        assert!(sc.validate().is_err());
        // A backend without workers would panic in the service model.
        let mut text = fig3().to_text();
        text = text.replacen("workers=4", "workers=0", 1);
        let err = Scenario::from_text(&text).unwrap_err();
        assert!(err.contains("worker"), "{err}");
    }

    #[test]
    fn every_example_parses_and_the_fig3_ones_are_the_preset() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
        let mut n = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            Scenario::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            n += 1;
        }
        assert!(n >= 2, "no examples found in {dir}");
        let preset = Fig3Config {
            duration: Duration::from_secs(20),
            inject_at: Duration::from_secs(7),
            ..Fig3Config::default()
        };
        for (file, lb) in [
            ("fig3_aware.conf", LbMode::Aware),
            ("fig3_baseline.conf", LbMode::Baseline),
        ] {
            let text = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
            assert_eq!(
                Scenario::from_text(&text).unwrap(),
                preset.scenario(lb),
                "{file}"
            );
        }
    }
}
