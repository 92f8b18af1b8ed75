//! Property tests for the quantile sketch's load-bearing claims: the
//! merge is an exact abelian monoid (so million-request runs can shard
//! observation and combine in any grouping, and the digest cannot tell
//! the difference), and every quantile estimate stays within the
//! documented relative-error bound of the exact nearest-rank value
//! computed from a full sort.

use albireo_obs::{QuantileSketch, RELATIVE_ERROR_BOUND};
use proptest::prelude::*;

/// Builds a sketch from raw samples.
fn observed(samples: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in samples {
        s.observe(v);
    }
    s
}

/// Arbitrary sample sets: positive magnitudes across many decades plus
/// the special cases the sketch must segregate (zero, negatives,
/// non-finite).
fn samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            8 => 1e-12f64..1e12,
            1 => Just(0.0f64),
            1 => -1e6f64..0.0,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
        ],
        0..80,
    )
}

/// The exact nearest-rank quantile over the valid population (zeros and
/// positives), matching the sketch's population definition.
fn exact_nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    let mut valid: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .collect();
    if valid.is_empty() {
        return None;
    }
    valid.sort_by(f64::total_cmp);
    let rank = ((valid.len() as f64 * q).ceil() as usize).clamp(1, valid.len());
    Some(valid[rank - 1])
}

proptest! {
    /// Merge is commutative: shard order must not matter.
    #[test]
    fn merge_is_commutative(a in samples(), b in samples()) {
        let (sa, sb) = (observed(&a), observed(&b));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
    }

    /// Merge is associative: the reduction tree shape must not matter.
    #[test]
    fn merge_is_associative(a in samples(), b in samples(), c in samples()) {
        let (sa, sb, sc) = (observed(&a), observed(&b), observed(&c));
        prop_assert_eq!(sa.merge(&sb).merge(&sc), sa.merge(&sb.merge(&sc)));
    }

    /// The empty sketch is the identity element.
    #[test]
    fn empty_is_identity(a in samples()) {
        let sa = observed(&a);
        let empty = QuantileSketch::new();
        prop_assert_eq!(sa.merge(&empty), sa.clone());
        prop_assert_eq!(empty.merge(&sa), sa);
    }

    /// Any sharding of one stream rebuilds the same state — and the same
    /// digest — as observing it whole, no matter where the split lands or
    /// in which order the shards merge.
    #[test]
    fn sharding_is_invisible_to_state_and_digest(
        a in samples(),
        split in 0.0f64..1.0,
    ) {
        let cut = (a.len() as f64 * split) as usize;
        let whole = observed(&a);
        let (lo, hi) = (observed(&a[..cut]), observed(&a[cut..]));
        prop_assert_eq!(lo.merge(&hi), whole.clone());
        prop_assert_eq!(lo.merge(&hi).digest(), whole.digest());
        prop_assert_eq!(hi.merge(&lo).digest(), whole.digest());
    }

    /// Merging preserves the exact population counts and extrema.
    #[test]
    fn merge_preserves_counts_and_extrema(a in samples(), b in samples()) {
        let merged = observed(&a).merge(&observed(&b));
        let valid: Vec<f64> = a.iter().chain(&b).copied()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .collect();
        prop_assert_eq!(merged.count(), valid.len() as u64);
        prop_assert_eq!(
            merged.invalid(),
            (a.len() + b.len()) as u64 - valid.len() as u64
        );
        match (merged.min(), merged.max()) {
            (Some(lo), Some(hi)) => {
                prop_assert_eq!(lo, valid.iter().copied().fold(f64::INFINITY, f64::min));
                prop_assert_eq!(hi, valid.iter().copied().fold(0.0f64, f64::max));
            }
            _ => prop_assert!(valid.is_empty()),
        }
    }

    /// Every quantile estimate lands within the documented relative-error
    /// bound of the exact nearest-rank value (exactly 0.0 when the rank
    /// falls in the zero population).
    #[test]
    fn quantiles_meet_the_error_bound(a in samples(), q in 0.0f64..=1.0) {
        let s = observed(&a);
        match exact_nearest_rank(&a, q) {
            None => prop_assert_eq!(s.quantile(q), 0.0),
            Some(exact) => {
                let est = s.quantile(q);
                if exact == 0.0 {
                    prop_assert_eq!(est, 0.0);
                } else {
                    let rel = (est - exact).abs() / exact;
                    prop_assert!(
                        rel <= RELATIVE_ERROR_BOUND,
                        "q={q}: estimate {est} vs exact {exact} (rel {rel})"
                    );
                }
            }
        }
    }

    /// Quantiles are monotone in q and clamped to the observed extrema.
    #[test]
    fn quantiles_are_monotone_and_clamped(a in samples()) {
        let s = observed(&a);
        let qs: Vec<f64> = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .map(|&q| s.quantile(q))
            .collect();
        prop_assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{:?}", qs);
        if let (Some(min), Some(max)) = (s.min(), s.max()) {
            prop_assert!(qs.iter().all(|&v| (0.0..=max).contains(&v)));
            prop_assert!(s.quantile(1.0) <= max);
            prop_assert!(s.quantile(1.0) >= min || s.zeros() > 0);
        }
    }

    /// The `record_cap` contract from the serving runtime, stated at the
    /// sketch level: the per-request record list is truncated at the cap
    /// but the sketch observes *every* sample, as the capped prefix
    /// merged with the overflow suffix. That split must be invisible —
    /// same state, same digest, bitwise-identical quantiles — wherever
    /// the cap lands (including 0 and past the end).
    #[test]
    fn record_cap_truncation_is_invisible_to_the_sketch(
        a in samples(),
        cap in 0usize..100,
    ) {
        let cap = cap.min(a.len());
        let whole = observed(&a);
        let kept = observed(&a[..cap]);
        let overflow = observed(&a[cap..]);
        let rebuilt = kept.merge(&overflow);
        prop_assert_eq!(&rebuilt, &whole);
        prop_assert_eq!(rebuilt.digest(), whole.digest());
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            prop_assert!(
                rebuilt.quantile(q).to_bits() == whole.quantile(q).to_bits(),
                "quantile {} differs under cap {}", q, cap
            );
        }
        prop_assert_eq!(rebuilt.to_json_fragment(), whole.to_json_fragment());
    }

    /// The dense window stays canonical: however a stream is observed
    /// (forward, reversed, or cut into shards merged in either order),
    /// the occupied-bucket count matches the nonzero bucket list, and
    /// rebuilding from that list with `from_parts` is `Eq` to the sketch
    /// it came from.
    #[test]
    fn window_is_canonical_under_any_build_order(
        a in samples(),
        cuts in prop::collection::vec(0.0f64..1.0, 0..4),
    ) {
        let mut bounds: Vec<usize> = cuts.iter().map(|c| (a.len() as f64 * c) as usize).collect();
        bounds.push(0);
        bounds.push(a.len());
        bounds.sort_unstable();
        let shards: Vec<QuantileSketch> =
            bounds.windows(2).map(|w| observed(&a[w[0]..w[1]])).collect();
        let forward = shards.iter().fold(QuantileSketch::new(), |acc, s| acc.merge(s));
        let backward = shards.iter().rev().fold(QuantileSketch::new(), |acc, s| acc.merge(s));
        let reversed: Vec<f64> = a.iter().rev().copied().collect();
        let whole = observed(&a);
        for built in [&forward, &backward, &observed(&reversed), &whole] {
            prop_assert_eq!(built, &whole);
            let buckets = built.nonzero_buckets();
            prop_assert_eq!(built.occupied_buckets(), buckets.len());
            prop_assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
            let rebuilt = QuantileSketch::from_parts(
                &buckets,
                built.zeros(),
                built.invalid(),
                built.min_bits(),
                built.max_bits(),
            );
            prop_assert_eq!(&rebuilt, built);
        }
    }

    /// Subnormal and zero observations are valid sketch samples:
    /// subnormals clamp into bucket 0 (never `invalid`), zeros stay in
    /// their exact slot, and extrema remain exact.
    #[test]
    fn subnormals_and_zeros_are_valid_samples(
        bits in 1u64..(1u64 << 52),
        zeros in 0usize..4,
    ) {
        let v = f64::from_bits(bits); // all such patterns are subnormal
        let mut s = QuantileSketch::new();
        s.observe(v);
        for _ in 0..zeros {
            s.observe(0.0);
        }
        prop_assert_eq!(s.count(), 1 + zeros as u64);
        prop_assert_eq!(s.zeros(), zeros as u64);
        prop_assert_eq!(s.invalid(), 0);
        prop_assert_eq!(s.max(), Some(v));
        prop_assert_eq!(s.min(), Some(if zeros > 0 { 0.0 } else { v }));
        prop_assert_eq!(albireo_obs::sketch::bucket_index(v), 0);
        // The monoid laws hold on the edge population too.
        let doubled = s.merge(&s);
        prop_assert_eq!(doubled.count(), 2 * s.count());
        prop_assert_eq!(doubled.min(), s.min());
        prop_assert_eq!(s.merge(&QuantileSketch::new()), s.clone());
    }
}
