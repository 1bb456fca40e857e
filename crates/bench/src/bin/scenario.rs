//! Runs a scenario spec file and prints a Fig. 3-style latency summary.
//!
//! Usage: `cargo run --release -p bench --bin scenario -- path/to/file.conf`
//!
//! The file is the workspace's one scenario spec (`experiments::scenario`):
//! `key = value` lines for the scalars (`seed`, `lb = aware|baseline`,
//! `lbs`, `connections`, `duration_ms`, ...), one `backend = ...` line
//! per backend, and optional `fault = ...` and `inject = ...` lines,
//! with `#` comments. Fuzz-regression cases are spec files too, and
//! `examples/scenarios/` in the repository holds ready-made ones. With
//! an injection, the p95 before and after the first one is reported.

use experiments::scenario::{build, drive, Scenario};
use netsim::Time;
use telemetry::{JournalMode, Table};

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: scenario <file.conf>");
        std::process::exit(2);
    };
    let sc = match std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| Scenario::from_text(&text).map_err(|e| format!("{path}: {e}")))
    {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    println!("running {} for {} ...", path, sc.duration);
    let mut cluster = build(&sc, JournalMode::Off);
    drive(&mut cluster, &sc);

    let rec = &cluster.client_app(0).recorder;
    let mut t = Table::new("scenario results", &["metric", "value"]);
    t.row(&["requests completed".into(), rec.responses.to_string()]);
    for q in [0.5, 0.95, 0.99] {
        t.row(&[
            format!("GET latency p{:.0} (us)", q * 100.0),
            format!("{:.1}", rec.get_series.merged().quantile(q) as f64 / 1e3),
        ]);
    }
    if let Some(inj) = sc.injections.first() {
        let inject_ns = (Time::ZERO + inj.at).as_nanos();
        for (label, lo, hi) in [("before", 0, inject_ns), ("after", inject_ns, u64::MAX)] {
            t.row(&[
                format!("p95 {label} injection (us)"),
                format!(
                    "{:.1}",
                    rec.get_series.quantile_between(lo, hi, 0.95) as f64 / 1e3
                ),
            ]);
        }
    }
    let lb = cluster.lb_node();
    t.row(&[
        "T_LB samples at the LB".into(),
        lb.stats().samples.to_string(),
    ]);
    t.row(&[
        "Maglev table rebuilds".into(),
        lb.stats().table_rebuilds.to_string(),
    ]);
    for (b, w) in lb.weights().as_slice().iter().enumerate() {
        t.row(&[format!("final weight of backend {b}"), format!("{w:.3}")]);
    }
    t.print();
}
