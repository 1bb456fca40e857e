//! The scenario generator: a random-but-deterministic
//! [`Scenario`] derived from a single u64 seed. The spec itself (and its
//! text format) lives in `experiments::scenario`; what to draw, and
//! from which ranges, is fuzz policy and lives here.

use experiments::scenario::{BackendSpec, FaultSpec, Injection, LbMode, Scenario};
use netsim::rng::{derive_seed, SimRng};
use netsim::Duration;

/// Derivation label for the scenario-generator RNG stream (keeps it
/// disjoint from the cluster's own `derive_seed` labels, which start
/// at 100).
const GEN_LABEL: u64 = 0xF022;

/// Derives a scenario from a single u64 seed. Pure: the same seed
/// always produces the same scenario.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, GEN_LABEL));
    let ms = |v: u32| Duration::from_millis(u64::from(v));
    let us = |v: u32| Duration::from_micros(u64::from(v));
    let lbs = [1u32, 1, 2, 2, 3, 4][rng.gen_range(0..6usize)];
    let n_backends = rng.gen_range(2..=5u32);
    let tiers = [40u32, 60, 60, 80, 120, 200];
    let backends: Vec<BackendSpec> = (0..n_backends)
        .map(|_| BackendSpec {
            median_us: tiers[rng.gen_range(0..tiers.len())],
            sigma_pct: rng.gen_range(10..=50u32),
            workers: [2u32, 4][rng.gen_range(0..2usize)],
        })
        .collect();
    let duration_ms = rng.gen_range(900..=1700u32);

    let connections = rng.gen_range(8..=24u32);
    let pipeline = if rng.gen_bool(0.25) { 2 } else { 1 };
    let get_ratio_pct = rng.gen_range(10..=90u32);
    let value_len = [64u32, 512, 4096][rng.gen_range(0..3usize)];
    let requests_per_conn = [0u32, 100, 200, 400][rng.gen_range(0..4usize)];

    let (gossip_period_ms, gossip_mix_pct) = if lbs > 1 && rng.gen_bool(0.5) {
        (
            [25u32, 50, 100][rng.gen_range(0..3usize)],
            rng.gen_range(20..=60u32),
        )
    } else {
        (0, 0)
    };
    let probation_ms = if rng.gen_bool(0.5) { 800 } else { 2500 };

    // Faults. Crashes are capped at n_backends - 1 distinct backends
    // so the cluster retains at least one never-crashed backend (all
    // other fault kinds may still eject the rest).
    let mut faults = Vec::new();
    let mut crashed: Vec<u32> = Vec::new();
    let n_faults = rng.gen_range(0..=3u32);
    for _ in 0..n_faults {
        match rng.gen_range(0..3u32) {
            0 => {
                if crashed.len() + 1 >= n_backends as usize {
                    continue;
                }
                let backend = rng.gen_range(0..n_backends);
                if crashed.contains(&backend) {
                    continue;
                }
                crashed.push(backend);
                let down_ms = rng.gen_range(250..=duration_ms * 2 / 5);
                let up_ms = down_ms + rng.gen_range(200..=600u32);
                faults.push(FaultSpec::Crash {
                    backend,
                    down: ms(down_ms),
                    up: ms(up_ms),
                });
            }
            1 => {
                let lb = rng.gen_range(0..lbs);
                let backend = rng.gen_range(0..n_backends);
                let down_ms = rng.gen_range(200..=duration_ms / 2);
                let up_ms = down_ms + rng.gen_range(100..=400u32);
                faults.push(FaultSpec::Flap {
                    lb,
                    backend,
                    down: ms(down_ms),
                    up: ms(up_ms),
                });
            }
            _ => {
                let lb = rng.gen_range(0..lbs);
                let backend = rng.gen_range(0..n_backends);
                let from_ms = rng.gen_range(200..=duration_ms / 2);
                let until_ms = from_ms + rng.gen_range(200..=600u32);
                // Probabilities are drawn in per-mille and stored in ppm.
                faults.push(FaultSpec::Impair {
                    lb,
                    backend,
                    from: ms(from_ms),
                    until: ms(until_ms),
                    corrupt_ppm: rng.gen_range(0..=20u32) * 1000,
                    duplicate_ppm: rng.gen_range(0..=20u32) * 1000,
                    reorder_ppm: rng.gen_range(0..=50u32) * 1000,
                    window: us(rng.gen_range(50..=400u32)),
                    seed: rng.next_u64(),
                });
            }
        }
    }

    let n_inject = rng.gen_range(0..=2u32);
    let injections: Vec<Injection> = (0..n_inject)
        .map(|_| Injection {
            backend: rng.gen_range(0..n_backends),
            at: ms(rng.gen_range(200..=duration_ms * 3 / 5)),
            extra: us(rng.gen_range(300..=1500u32)),
        })
        .collect();

    Scenario {
        seed,
        lb: LbMode::Aware,
        lbs,
        backends,
        connections,
        pipeline,
        get_ratio_pct,
        value_len,
        requests_per_conn,
        duration: ms(duration_ms),
        bin: Duration::from_secs(1),
        gossip_period: ms(gossip_period_ms),
        gossip_mix_pct,
        probation: ms(probation_ms),
        faults,
        injections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::chaos::ChaosConfig;
    use experiments::fig3::Fig3Config;
    use experiments::multilb::{GossipParams, MultiLbConfig};
    use netsim::fault::ImpairmentConfig;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for seed in 0..64u64 {
            assert_eq!(generate(seed), generate(seed));
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_scenarios_are_valid_and_round_trip() {
        // The experiment presets ride along so what the generator never
        // writes round-trips too: `lb`, `bin_ms`, `_ppm` below a
        // per-mille, and the benchmark's sub-millisecond chaos restart.
        let chaos = ChaosConfig {
            crash_at: Duration::from_millis(1250),
            restart_at: Duration::from_nanos(2_812_500_000),
            impair: Some(ImpairmentConfig::light(7)),
            ..ChaosConfig::quick()
        };
        let gossip = MultiLbConfig {
            gossip: Some(GossipParams::default()),
            ..MultiLbConfig::quick()
        };
        let presets = [
            Fig3Config::quick().scenario(LbMode::Baseline),
            chaos.scenario(LbMode::Aware),
            gossip.scenario(),
        ];
        for (i, sc) in (0..128u64).map(generate).chain(presets).enumerate() {
            sc.validate().unwrap_or_else(|e| panic!("input {i}: {e}"));
            let text = sc.to_text();
            let back =
                Scenario::from_text(&text).unwrap_or_else(|e| panic!("input {i}: {e}\n{text}"));
            assert_eq!(back, sc, "input {i} did not round-trip");
            // Serialization itself is canonical.
            assert_eq!(back.to_text(), text);
        }
    }

    #[test]
    fn generator_covers_the_config_axes() {
        let scs: Vec<Scenario> = (0..200).map(generate).collect();
        assert!(scs.iter().any(|s| s.lbs > 1), "no multi-LB scenario");
        assert!(scs.iter().any(|s| s.lbs == 1), "no single-LB scenario");
        assert!(scs.iter().any(|s| !s.gossip_period.is_zero()), "no gossip");
        assert!(
            scs.iter().any(|s| s
                .faults
                .iter()
                .any(|f| matches!(f, FaultSpec::Crash { .. }))),
            "no crash fault"
        );
        assert!(
            scs.iter()
                .any(|s| s.faults.iter().any(|f| matches!(f, FaultSpec::Flap { .. }))),
            "no flap fault"
        );
        assert!(
            scs.iter().any(|s| s
                .faults
                .iter()
                .any(|f| matches!(f, FaultSpec::Impair { .. }))),
            "no impairment fault"
        );
        assert!(scs.iter().any(|s| !s.injections.is_empty()), "no injection");
        assert!(scs.iter().any(|s| s.faults.is_empty()), "no quiet scenario");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let sc = generate(3);
        let mut text = String::from("# a comment\n\n");
        text.push_str(&sc.to_text());
        text.push_str("\n# violation: weights_normalized at t=123\n");
        assert_eq!(Scenario::from_text(&text).unwrap(), sc);
    }
}
