#!/usr/bin/env python3
"""The repository benchmark: one workload, measured end to end or traced.

    python3 lbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds the `lbbench` binary
from source (into $CARGO_TARGET_DIR, default `.bench_build`), then:

* `--trace 0` runs the workload again and again, each run a fresh
  single-threaded process started only after the previous one ended,
  until S seconds of runs have passed (at least three runs). It checks
  every run and prints the end-to-end metrics (see `end_to_end`).
* `--trace 1` runs the workload once untimed and once traced, each in its
  own process, and prints the per-layer metrics.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See lbbench/README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("kv_fig3", "kv_recorded", "kv_chaos")

# (name, unit) of every end-to-end metric, measured with tracing off.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("alloc_count", "count"),
    ("alloc_mb", "MB"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("req_completed", "count"),
    ("ok_ratio", "ratio"),
)

# (name, unit) of every per-layer metric, from the traced run.
PER_LAYER = (
    ("netsim.events", "count"),
    ("netsim.packets", "count"),
    ("netsim.timers", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.slice_us_p50", "us"),
    ("netsim.slice_us_p99", "us"),
    ("netsim.link_drops", "count"),
    ("netsim.link_impaired", "count"),
    ("netsim.capture_frames", "count"),
    ("netsim.capture_truncated", "count"),
    ("netsim.capture_coverage", "ratio"),
    ("netsim.capture_mb", "MB"),
    ("netpkt.pool_hit_ratio", "ratio"),
    ("netpkt.pool_declined", "count"),
    ("netpkt.parse_ns", "ns"),
    ("netpkt.view_ns", "ns"),
    ("netpkt.rewrite_ns", "ns"),
    ("lb-dataplane.rx", "count"),
    ("lb-dataplane.forwarded", "count"),
    ("lb-dataplane.new_flows", "count"),
    ("lb-dataplane.fallback_forwards", "count"),
    ("lb-dataplane.samples", "count"),
    ("lb-dataplane.sample_yield", "ratio"),
    ("lb-dataplane.table_rebuilds", "count"),
    ("lb-dataplane.ejections", "count"),
    ("lb-dataplane.flows_repinned", "count"),
    ("lb-dataplane.no_backend_drops", "count"),
    ("lb-dataplane.samples_in_capture", "count"),
    ("lb-dataplane.capture_fwd_b0", "count"),
    ("lb-dataplane.capture_fwd_b1", "count"),
    ("lbcore.flow_table_ns", "ns"),
    ("lbcore.ensemble_ns", "ns"),
    ("lbcore.estimator_ns", "ns"),
    ("lbcore.maglev_lookup_ns", "ns"),
    ("lbcore.maglev_build_us", "us"),
    ("lbcore.controller_ns", "ns"),
    ("lbcore.controller_calls", "count"),
    ("lbcore.path_ns", "ns"),
    ("lbcore.path_share", "ratio"),
    ("lbcore.replay_allocs_per_pkt", "count"),
    ("lbcore.replay_samples", "count"),
    ("lbcore.replay_fwd_b0", "count"),
    ("lbcore.replay_fwd_b1", "count"),
    ("lbcore.replay_agreement", "ratio"),
    ("lbcore.tlb_bias_us", "us"),
    ("nettcp.segments_out", "count"),
    ("nettcp.retransmits", "count"),
    ("nettcp.timeouts", "count"),
    ("nettcp.rsts_sent", "count"),
    ("nettcp.retx_ratio", "ratio"),
    ("nettcp.conns_opened", "count"),
    ("backend.served", "count"),
    ("backend.orphaned", "count"),
    ("backend.stalled", "count"),
    ("backend.queue_us_p99", "us"),
    ("workload.issued", "count"),
    ("workload.completed", "count"),
    ("workload.conns_broken", "count"),
    ("workload.requests_lost", "count"),
    ("telemetry.journal_events", "count"),
    ("telemetry.span_hops", "count"),
    ("telemetry.dropped", "count"),
    ("telemetry.journal_export_ms", "ms"),
    ("telemetry.span_export_ms", "ms"),
    ("telemetry.critical_path_ms", "ms"),
    ("telemetry.rss_delta_mb", "MB"),
    ("experiments.setup_allocs", "count"),
    ("experiments.residual_share", "ratio"),
    ("experiments.trace_overhead", "ratio"),
)

# Host values of a timed run that are nonetheless exact for a seed.
EXACT_HOST = ("alloc_count", "alloc_mb", "experiments.setup_allocs")

MIN_RUNS = 3

# Seeded clusters one run simulates. How many connections stall in RTO
# backoff after kv_chaos's crash, and for how long, depends on the seed:
# one cluster's completions vary by about 13% (one standard deviation)
# from seed to seed, against about 2% for kv_fig3. One kv_chaos run
# therefore simulates eight clusters, each with its own seed, and
# reports their sum, which varies by about 5%.
CLUSTERS = {"kv_fig3": 1, "kv_recorded": 1, "kv_chaos": 8}


def cluster_seeds(workload, seed):
    """The seeds of the clusters one run of `workload` simulates."""
    m = CLUSTERS[workload]
    return [(seed * m + i) % 2**64 for i in range(m)]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def build():
    """Builds lbbench from source and returns the binary's path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building lbbench failed")
    return target, target / "release" / "lbbench"


def child(binary, mode, workload, seed, extra=()):
    """Runs one lbbench process to its end and returns its parsed line."""
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def simulated(run):
    """A run's simulated results, without the recorders' own counts."""
    return {k: v for k, v in run["sim"].items() if not k.startswith("telemetry.")}


def by_seed(runs):
    """Groups runs by the seed of the cluster they simulated."""
    groups = {}
    for r in runs:
        groups.setdefault(r["seed"], []).append(r)
    return groups


def check_runs(runs, fig3_ref=None):
    """Correctness checks over the runs of one workload; returns the
    failures, each a line of text."""
    problems = []
    for i, r in enumerate(runs):
        for name in r["failed_checks"]:
            problems.append(f"run {i}: identity {name} failed")
        if r["sim"].get("telemetry.dropped", 0) != 0:
            problems.append(f"run {i}: recorders dropped {r['sim']['telemetry.dropped']}")
    for seed, group in by_seed(runs).items():
        first = group[0]
        for r in group[1:]:
            if r["sim"] != first["sim"]:
                diff = sorted(k for k in first["sim"] if r["sim"].get(k) != first["sim"][k])
                problems.append(f"seed {seed}: simulated results differ between runs: {diff}")
            for k in EXACT_HOST:
                if k in r["host"] and r["host"][k] != first["host"][k]:
                    problems.append(f"seed {seed}: {k} {r['host'][k]} != {first['host'][k]}")
    if fig3_ref is not None:
        same = by_seed(runs)[fig3_ref["seed"]][0]
        if simulated(same) != simulated(fig3_ref):
            diff = sorted(k for k, v in simulated(fig3_ref).items() if simulated(same).get(k) != v)
            problems.append(f"recording moved the simulated results vs kv_fig3: {diff}")
    return problems


def end_to_end(runs, correct):
    """Reduces timed runs to the end-to-end metrics. Simulated values are
    summed over the workload's clusters, percentiles averaged; a request
    lost on a broken connection is not ok, and neither is any request of
    a run that fails a check.

    Host times take the fastest process, because a shared host only ever
    adds time: on the development host a process runs up to 1.8 times
    slower than the fastest one, in phases that last from seconds to
    minutes, which moves a median over one run's processes by 20 to 30
    percent from run to run. `setup_s` is the smallest per-process median
    of its set-ups. `wall_s` is the fastest process's wall time per
    simulated event times the events of all the workload's clusters,
    which for a one-cluster workload is simply the fastest wall time.
    Peak RSS is the median over processes."""
    groups = list(by_seed(runs).values())
    total = lambda key: sum(g[0]["sim"][key] for g in groups)
    mean = lambda key: statistics.fmean(g[0]["sim"][key] for g in groups)
    issued = total("workload.issued")
    not_ok = total("workload.requests_lost") if correct else issued
    per_event = min(r["host"]["wall_s"] / r["sim"]["netsim.events"] for r in runs)
    return {
        "wall_s": per_event * total("netsim.events"),
        "setup_s": min(r["host"]["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["host"]["peak_rss_mb"] for r in runs),
        "alloc_count": sum(g[0]["host"]["alloc_count"] for g in groups),
        "alloc_mb": sum(g[0]["host"]["alloc_mb"] for g in groups),
        "get_p50_us": mean("get_p50_us"),
        "get_p99_us": mean("get_p99_us"),
        "req_completed": total("req_completed"),
        "ok_ratio": 1.0 - not_ok / issued,
    }


def per_layer(base, traced, fig3_base=None):
    """Reduces an untimed run and a traced run of the same workload and
    seed to the per-layer metrics."""
    s, h, b = traced["sim"], traced["host"], base["sim"]
    wall_ns = base["host"]["wall_s"] * 1e9
    export_ns = (h["telemetry.journal_export_ms"] + h["telemetry.span_export_ms"]) * 1e6
    path_total_ns = h["lbcore.path_ns"] * s["lb-dataplane.rx"]
    covered = path_total_ns + h["lbcore.controller_total_ns"] + export_ns
    ratio = lambda a, c: a / c if c else 0.0
    m = {k: s[k] for k, _ in PER_LAYER if k in s}
    m.update({k: h[k] for k, _ in PER_LAYER if k in h})
    m.update({
        "netsim.events_per_s": s["netsim.events"] / (wall_ns / 1e9),
        "netsim.ns_per_event": wall_ns / s["netsim.events"],
        "netsim.capture_mb": h["peak_rss_mb"] - base["host"]["peak_rss_mb"],
        "netpkt.pool_hit_ratio": ratio(b["netpkt.pool_hits"],
                                       b["netpkt.pool_hits"] + b["netpkt.pool_misses"]),
        "netpkt.pool_declined": b["netpkt.pool_declined"],
        "lb-dataplane.sample_yield": ratio(s["lb-dataplane.samples"], s["lb-dataplane.forwarded"]),
        "lbcore.path_share": path_total_ns / wall_ns,
        "nettcp.retx_ratio": ratio(s["nettcp.retransmits"], s["nettcp.segments_out"]),
        "telemetry.rss_delta_mb": (base["host"]["peak_rss_mb"] - fig3_base["host"]["peak_rss_mb"]
                                   if fig3_base else 0.0),
        "experiments.setup_allocs": base["host"]["experiments.setup_allocs"],
        "experiments.residual_share": 1.0 - covered / wall_ns,
        "experiments.trace_overhead": (h["run_s"] * 1e9 + export_ns) / wall_ns,
    })
    missing = [k for k, _ in PER_LAYER if k not in m]
    if missing:
        raise BenchError(f"traced run did not report {missing}")
    return {k: m[k] for k, _ in PER_LAYER}


def check_traced(base, traced):
    """The traced run must simulate exactly what the untraced run did;
    pool counts differ by design (the capture holds frame buffers)."""
    problems = [f"traced run: identity {n} failed" for n in traced["failed_checks"]]
    common = [k for k in traced["sim"] if k in base["sim"] and not k.startswith("netpkt.")]
    diff = [k for k in common if traced["sim"][k] != base["sim"][k]]
    if diff:
        problems.append(f"slicing or tracing moved simulated counts: {diff}")
    if traced["sim"]["netsim.capture_truncated"] > 0:
        cov = traced["sim"]["netsim.capture_coverage"]
        print(f"note: the capture filled up; the replay covers only the first "
              f"{cov:.1%} of the run", file=sys.stderr)
    return problems


def print_table(metrics, units):
    width = max(len(k) for k in metrics)
    for k, v in metrics.items():
        print(f"{k:<{width}}  {v:>16.6g} {units[k]}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    try:
        target, binary = build()
        fig3_ref = None
        if a.trace == 0:
            # Every cluster runs at least once and one of them twice, so
            # each run checks that a seed repeats exactly.
            seeds = cluster_seeds(a.workload, a.seed)
            min_runs = max(MIN_RUNS, len(seeds) + 1)
            runs, start = [], time.monotonic()
            while True:
                t = time.monotonic()
                runs.append(child(binary, "run", a.workload, seeds[len(runs) % len(seeds)]))
                last = time.monotonic() - t
                if len(runs) >= min_runs and time.monotonic() - start + last > a.seconds:
                    break
            if a.workload == "kv_recorded":
                fig3_ref = child(binary, "run", "kv_fig3", seeds[0])
            problems = check_runs(runs, fig3_ref)
            metrics, units = end_to_end(runs, not problems), dict(END_TO_END)
            attempted = sum(r["sim"]["workload.issued"] for r in runs)
            gets = sum(g[0]["sim"]["get_samples"] for g in by_seed(runs).values())
            print(f"{a.workload} seed {a.seed}: {len(runs)} runs of clusters {seeds}, "
                  f"{gets} GET samples behind the percentiles")
        else:
            spans_out = target / "lbbench" / f"spans-{a.workload}-{a.seed}.ndjson"
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            seed = cluster_seeds(a.workload, a.seed)[0]
            base = child(binary, "run", a.workload, seed)
            traced = child(binary, "trace", a.workload, seed,
                           ("--spans-out", str(spans_out)))
            if a.workload == "kv_recorded":
                fig3_ref = child(binary, "run", "kv_fig3", seed)
            problems = check_runs([base], fig3_ref) + check_traced(base, traced)
            metrics, units = per_layer(base, traced, fig3_ref), dict(PER_LAYER)
            attempted = traced["sim"]["workload.issued"]
            print(f"{a.workload} seed {a.seed}: traced run spans written to {spans_out}")
    except BenchError as e:
        print(f"lbbench: {e}", file=sys.stderr)
        return 1

    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print_table(metrics, units)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
