//! The campaign report: JSON written through the workspace codec
//! (`telemetry::json`), deliberately free of wall-clock timestamps so
//! two runs of the same seed range produce byte-identical files (the
//! CLI's determinism acceptance check diffs them directly).

use telemetry::json;

use experiments::scenario::Scenario;

use crate::runner::Outcome;

/// Schema tag of the campaign JSON.
pub const SCHEMA: &str = "scenariofuzz-v1";

/// One seed's row in the campaign.
pub struct SeedResult {
    /// The seed.
    pub seed: u64,
    /// The scenario it generated.
    pub scenario: Scenario,
    /// The per-seed outcome (two runs + invariant checks).
    pub outcome: Outcome,
}

/// Renders the campaign JSON for a seed range and its results.
pub fn campaign_json(from: u64, to: u64, results: &[SeedResult]) -> String {
    let failed = results
        .iter()
        .filter(|r| !r.outcome.violations.is_empty())
        .count();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", json::Str(SCHEMA)));
    out.push_str(&format!(
        "  \"seeds\": {{ \"from\": {from}, \"to\": {to} }},\n"
    ));
    out.push_str(&format!("  \"total\": {},\n", results.len()));
    out.push_str(&format!("  \"passed\": {},\n", results.len() - failed));
    out.push_str(&format!("  \"failed\": {failed},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&seed_json(r, "    "));
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn seed_json(r: &SeedResult, indent: &str) -> String {
    let sc = &r.scenario;
    let s = &r.outcome.summary;
    let mut out = String::new();
    out.push_str(&format!("{indent}{{ \"seed\": {}", r.seed));
    out.push_str(&format!(
        ", \"lbs\": {}, \"backends\": {}, \"connections\": {}, \"duration_ms\": {}",
        sc.lbs,
        sc.backends.len(),
        sc.connections,
        sc.duration.as_nanos() / 1_000_000
    ));
    out.push_str(&format!(
        ", \"gossip\": {}, \"faults\": {}, \"injections\": {}",
        !sc.gossip_period.is_zero(),
        sc.faults.len(),
        sc.injections.len()
    ));
    out.push_str(&format!(
        ", \"trace_hash\": \"{:#018x}\", \"trace_events\": {}",
        s.trace_hash, s.trace_events
    ));
    out.push_str(&format!(
        ", \"forwarded\": {}, \"samples\": {}, \"ejections\": {}, \"readmissions\": {}",
        s.forwarded, s.samples, s.ejections, s.readmissions
    ));
    out.push_str(&format!(
        ", \"gossip_merges\": {}, \"no_backend_drops\": {}, \"journal_events\": {}",
        s.gossip_merges, s.no_backend_drops, s.journal_events
    ));
    out.push_str(&format!(
        ", \"span_records\": {}, \"span_digest\": \"{:#018x}\"",
        s.span_records, s.span_digest
    ));
    out.push_str(", \"violations\": [");
    for (i, v) in r.outcome.violations.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{ \"invariant\": {}, \"detail\": {} }}",
            json::Str(v.invariant),
            json::Str(&v.detail)
        ));
    }
    out.push_str("] }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Outcome, RunSummary, Violation};

    fn fake_result(seed: u64, violations: Vec<Violation>) -> SeedResult {
        SeedResult {
            seed,
            scenario: crate::generate(seed),
            outcome: Outcome {
                summary: RunSummary {
                    trace_hash: 0xdead_beef,
                    trace_events: 10,
                    forwarded: 9,
                    samples: 3,
                    ejections: 0,
                    readmissions: 0,
                    gossip_merges: 0,
                    no_backend_drops: 0,
                    journal_events: 5,
                    journal_hashes: vec![1],
                    span_records: 40,
                    span_digest: 0xfeed_f00d,
                },
                violations,
            },
        }
    }

    #[test]
    fn report_counts_and_schema() {
        let results = vec![
            fake_result(0, Vec::new()),
            fake_result(
                1,
                vec![Violation {
                    invariant: "weights_normalized",
                    detail: "LB 0 weights sum to 0.5".into(),
                }],
            ),
        ];
        let json = campaign_json(0, 2, &results);
        assert!(json.contains("\"schema\": \"scenariofuzz-v1\""));
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"passed\": 1"));
        assert!(json.contains("\"failed\": 1"));
        assert!(json.contains("\"invariant\": \"weights_normalized\""));
        // Deterministic by construction: rendering twice is identical.
        assert_eq!(json, campaign_json(0, 2, &results));
    }

    #[test]
    fn escaper_handles_quotes_and_control_chars() {
        let detail = "a\"b\\c\nd\u{1}";
        let json = campaign_json(
            0,
            1,
            &[fake_result(
                0,
                vec![Violation {
                    invariant: "determinism",
                    detail: detail.into(),
                }],
            )],
        );
        assert!(json.contains(r#""detail": "a\"b\\c\nd\u0001""#), "{json}");
    }
}
