//! Fuzz-regression replay and generator stability.
//!
//! Every committed case under `tests/fuzz_regressions/` is a scenario
//! the fuzzing campaign once minimized from a real invariant violation.
//! Replaying them here makes each past violation a permanent tier-1
//! regression test: the case must run clean against the current code,
//! forever. (A case that fails again means the bug it captured is
//! back.)
//!
//! The suite also pins the generator itself: scenario derivation is a
//! pure function of the seed, and the case-file serialization
//! round-trips exactly — both are load-bearing for the committed cases
//! staying meaningful across sessions.

use scenariofuzz::{check, generate, Scenario};

/// Directory of committed minimized cases (relative to the repo root,
/// which is where `cargo test` runs integration tests).
const CASES_DIR: &str = "tests/fuzz_regressions";

fn committed_cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    let entries = match std::fs::read_dir(CASES_DIR) {
        Ok(e) => e,
        Err(_) => return cases, // no cases committed yet
    };
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.extension().map(|e| e == "case").unwrap_or(false) {
            let name = path.display().to_string();
            let text =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {name}: {e}"));
            cases.push((name, text));
        }
    }
    cases.sort();
    cases
}

#[test]
fn committed_regression_cases_replay_clean() {
    let cases = committed_cases();
    for (name, text) in &cases {
        let sc = Scenario::from_text(text).unwrap_or_else(|e| panic!("parsing {name}: {e}"));
        let outcome = check(&sc);
        assert!(
            outcome.violations.is_empty(),
            "{name}: a previously-fixed violation is back: {:?}",
            outcome.violations
        );
    }
}

#[test]
fn committed_cases_round_trip_byte_exactly() {
    // A case file must survive parse → serialize → parse unchanged, or
    // the committed artifact and what the test replays could diverge.
    for (name, text) in &committed_cases() {
        let sc = Scenario::from_text(text).unwrap_or_else(|e| panic!("parsing {name}: {e}"));
        let rendered = sc.to_text();
        let back =
            Scenario::from_text(&rendered).unwrap_or_else(|e| panic!("re-parsing {name}: {e}"));
        assert_eq!(back, sc, "{name} did not round-trip");
    }
}

#[test]
fn generator_is_stable_and_serializable_over_the_smoke_range() {
    for seed in 0..50u64 {
        let sc = generate(seed);
        assert_eq!(sc, generate(seed), "seed {seed} not deterministic");
        sc.validate()
            .unwrap_or_else(|e| panic!("seed {seed} invalid: {e}"));
        let back = Scenario::from_text(&sc.to_text())
            .unwrap_or_else(|e| panic!("seed {seed} round-trip: {e}"));
        assert_eq!(back, sc, "seed {seed} round-trip changed the scenario");
    }
}
