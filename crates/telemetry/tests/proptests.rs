//! Property-based tests for the measurement toolkit.

use proptest::prelude::*;

use telemetry::json;
use telemetry::{exact_percentile, BinnedSeries, LogHistogram, P2Quantile, ScalarSeries};

/// A string over the whole char range, weighted toward the characters
/// the JSON escaper treats specially (quotes, backslashes, C0 controls)
/// and toward non-ASCII. Surrogate code points (no `char`) are skipped.
fn arbitrary_string(codes: Vec<u32>) -> String {
    codes
        .into_iter()
        .filter_map(|c| match c % 4 {
            0 => char::from_u32((c >> 2) % 0x20),
            1 => {
                Some(['"', '\\', '/', 'a', 'é', '\u{7f}', '\u{2028}', '😀'][(c >> 2) as usize % 8])
            }
            _ => char::from_u32((c >> 2) % 0x11_0000),
        })
        .collect()
}

proptest! {
    /// The log histogram's quantiles stay within its design relative error
    /// (≈3%, two sub-bucket widths) of exact quantiles, for arbitrary data.
    #[test]
    fn histogram_quantiles_bounded_error(
        values in proptest::collection::vec(1u64..1_000_000_000, 10..500),
        q in 0.01f64..0.99,
    ) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let approx = h.quantile(q) as f64;
        let exact = exact_percentile(&values, q).unwrap() as f64;
        // Bucket resolution bound plus rank-rounding slack: compare against
        // the neighbouring exact quantiles too.
        let lo = exact_percentile(&values, (q - 0.05).max(0.0)).unwrap() as f64;
        let hi = exact_percentile(&values, (q + 0.05).min(1.0)).unwrap() as f64;
        let tolerance = 0.04 * exact.max(1.0);
        prop_assert!(
            approx >= lo - tolerance && approx <= hi + tolerance,
            "quantile({}) = {} outside [{}, {}] of exact {}",
            q, approx, lo, hi, exact
        );
    }

    /// Histogram count/min/max/mean are exact regardless of bucketing.
    #[test]
    fn histogram_moments_exact(values in proptest::collection::vec(0u64..1u64<<40, 1..300)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-3 * mean.max(1.0));
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn histogram_merge_is_concat(
        a in proptest::collection::vec(1u64..1u64<<30, 1..100),
        b in proptest::collection::vec(1u64..1u64<<30, 1..100),
    ) {
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        let mut hc = LogHistogram::new();
        for &v in &a { ha.record(v); hc.record(v); }
        for &v in &b { hb.record(v); hc.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    }

    /// Exact percentile is monotone in q and bounded by min/max.
    #[test]
    fn exact_percentile_monotone(values in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut last = 0u64;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = exact_percentile(&values, q).unwrap();
            prop_assert!(v >= last || i == 0);
            last = v;
        }
        prop_assert_eq!(exact_percentile(&values, 0.0).unwrap(), *values.iter().min().unwrap());
        prop_assert_eq!(exact_percentile(&values, 1.0).unwrap(), *values.iter().max().unwrap());
    }

    /// P² stays within the sample range and is deterministic.
    #[test]
    fn p2_bounded_and_deterministic(values in proptest::collection::vec(0.0f64..1e9, 5..500)) {
        let run = || {
            let mut p = P2Quantile::new(0.9);
            for &v in &values {
                p.record(v);
            }
            p.value()
        };
        let v1 = run();
        let v2 = run();
        prop_assert_eq!(v1, v2);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v1 >= min - 1e-9 && v1 <= max + 1e-9, "{} not in [{}, {}]", v1, min, max);
    }

    /// BinnedSeries never loses observations: the merged histogram count
    /// equals the number of records.
    #[test]
    fn binned_series_conserves_counts(
        points in proptest::collection::vec((0u64..10_000_000, 1u64..1_000_000), 1..300),
        bin in 1_000u64..1_000_000,
    ) {
        let mut s = BinnedSeries::new(bin);
        for &(t, v) in &points {
            s.record(t, v);
        }
        prop_assert_eq!(s.merged().count(), points.len() as u64);
        let total: u64 = s.count_series().iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total, points.len() as u64);
    }

    /// ScalarSeries step lookup returns the last pushed value at or before
    /// the query (reference implementation comparison).
    #[test]
    fn scalar_series_lookup_matches_reference(
        deltas in proptest::collection::vec(1u64..1000, 1..50),
        queries in proptest::collection::vec(0u64..100_000, 1..50),
    ) {
        let mut s = ScalarSeries::new();
        let mut pts = Vec::new();
        let mut t = 0u64;
        for (i, &d) in deltas.iter().enumerate() {
            t += d;
            s.push(t, i as f64);
            pts.push((t, i as f64));
        }
        for &q in &queries {
            let expect = pts.iter().rev().find(|&&(pt, _)| pt <= q).map(|&(_, v)| v);
            prop_assert_eq!(s.value_at(q), expect);
        }
    }

    /// The JSON codec: writing a string and parsing it back is the
    /// identity, as a value and as an object key.
    #[test]
    fn json_string_round_trips(codes in proptest::collection::vec(any::<u32>(), 0..40)) {
        let s = arbitrary_string(codes);
        let mut doc = String::new();
        json::Obj::open(&mut doc).str(&s, &s).close();
        let v = json::parse(&doc).map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(v.str(&s), Ok(s.as_str()), "doc: {}", doc);
    }

    /// Any u64 survives the codec exactly (never through f64).
    #[test]
    fn json_u64_round_trips(v in any::<u64>()) {
        let mut doc = String::new();
        json::Obj::open(&mut doc).u64("v", v).close();
        prop_assert_eq!(json::parse(&doc).and_then(|x| x.uint::<u64>("v")), Ok(v));
    }

    /// Any finite f64 bit pattern survives the codec bitwise.
    #[test]
    fn json_f64_round_trips_bitwise(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        // Non-finite values have no JSON form: clear the exponent.
        let v = if v.is_finite() { v } else { f64::from_bits(bits & !(0x7ff << 52)) };
        let mut doc = String::new();
        json::Obj::open(&mut doc).f64s("v", &[v]).close();
        let back = json::parse(&doc).and_then(|x| x.f64s("v"));
        prop_assert_eq!(back.map(|b| b[0].to_bits()), Ok(v.to_bits()), "doc: {}", doc);
    }
}
