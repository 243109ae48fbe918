#![allow(clippy::unwrap_used)] // test code: panicking on a broken fixture is the desired failure mode

//! Property tests for the streaming evaluator's determinism contract
//! (DESIGN.md §17): for any bounded space, any workload, any pool size,
//! any chunk length and any `--max-configs` cap, the streamed, pruned,
//! sharded frontier is exactly — bit for bit — the frontier of the
//! materialized sweep; and the frontier merge that stitches worker
//! shards together is order-independent.

use enprop_clustersim::ClusterSpec;
use enprop_explore::{
    configurations, evaluate_space_with, pareto_front, pareto_indices, pareto_indices_staircase,
    stream_pareto_front, EvalOptions, EvaluatedConfig, Frontier, StreamOptions, TypeSpace,
};
use enprop_workloads::catalog;
use proptest::prelude::*;

/// Deterministic pseudo-random (t, e) points; a coarse value grid forces
/// duplicate coordinates so tie-handling is exercised, not dodged.
fn xorshift_points(seed: u64, n: usize, grid: u64) -> Vec<(f64, f64)> {
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| ((next() % grid) as f64 * 0.25, (next() % grid) as f64 * 0.25))
        .collect()
}

/// Streamed result must equal the materialized `pareto_front` exactly:
/// same config indices, every `f64` field bit-identical.
fn assert_stream_equals_materialized(
    types: &[TypeSpace],
    wi: usize,
    opts: StreamOptions,
) -> Result<(), TestCaseError> {
    // DALEK-extended profiles so the small-node types (Pi4/OPi5) are
    // calibrated too; on A9/K10-only spaces they match the base catalog.
    let all = catalog::all();
    let name = all[wi % all.len()].name;
    let w = catalog::dalek(name).unwrap();
    let cap = opts.max_configs;
    let (front, stats) = stream_pareto_front(&w, types, opts);

    let configs: Vec<_> = match cap {
        Some(c) => configurations(types).take(c as usize).collect(),
        None => configurations(types).collect(),
    };
    let total = configs.len() as u64;
    let (evald, _) = evaluate_space_with(
        &w,
        configs,
        EvalOptions {
            threads: Some(1),
            cache: false,
        },
    );
    let oracle = pareto_indices(&evald, |e| (e.job_time, e.job_energy));

    prop_assert_eq!(stats.evaluated as u64 + stats.pruned, total);
    prop_assert_eq!(stats.frontier_len, oracle.len());
    prop_assert_eq!(front.len(), oracle.len());
    for (p, &oi) in front.iter().zip(&oracle) {
        prop_assert_eq!(p.index, oi as u64);
        let m = &evald[oi];
        prop_assert_eq!(p.eval.job_time.to_bits(), m.job_time.to_bits());
        prop_assert_eq!(p.eval.job_energy.to_bits(), m.job_energy.to_bits());
        prop_assert_eq!(p.eval.busy_power_w.to_bits(), m.busy_power_w.to_bits());
        prop_assert_eq!(p.eval.idle_power_w.to_bits(), m.idle_power_w.to_bits());
        prop_assert_eq!(p.eval.nameplate_w.to_bits(), m.nameplate_w.to_bits());
        prop_assert_eq!(&p.eval.cluster, &m.cluster);
    }
    Ok(())
}

/// Build a frontier by inserting `points`, tagging each with its index.
fn frontier_of(points: &[(f64, f64)], base: usize) -> Frontier<usize> {
    let mut f = Frontier::new();
    for (i, &(t, e)) in points.iter().enumerate() {
        f.insert(t, e, base + i);
    }
    f
}

/// Order-independent fingerprint of a frontier's contents.
fn fingerprint(f: &Frontier<usize>) -> Vec<(u64, u64, usize)> {
    let mut v: Vec<_> = f
        .points()
        .iter()
        .map(|p| (p.t.to_bits(), p.e.to_bits(), p.payload))
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streamed_frontier_matches_materialized_for_any_shape(
        a9 in 0u32..4,
        k10 in 0u32..3,
        pi4 in 0u32..3,
        threads in 1usize..7,
        chunk in 1usize..400,
        wi in 0usize..64,
    ) {
        prop_assume!(a9 + k10 + pi4 > 0);
        let types = [TypeSpace::a9(a9), TypeSpace::k10(k10), TypeSpace::pi4(pi4)];
        let opts = StreamOptions {
            threads: Some(threads),
            chunk,
            max_configs: None,
        };
        assert_stream_equals_materialized(&types, wi, opts)?;
    }

    #[test]
    fn max_configs_cap_is_a_prefix_truncation(
        cap in 1u64..600,
        threads in 1usize..5,
        chunk in 1usize..64,
        wi in 0usize..64,
    ) {
        let types = [TypeSpace::a9(3), TypeSpace::k10(2)];
        let opts = StreamOptions {
            threads: Some(threads),
            chunk,
            max_configs: Some(cap),
        };
        assert_stream_equals_materialized(&types, wi, opts)?;
    }

    #[test]
    fn staircase_twin_matches_the_quadratic_oracle(
        seed in 1u64..u64::MAX,
        n in 0usize..150,
        grid in 1u64..40,
    ) {
        let pts = xorshift_points(seed, n, grid);
        let fast = pareto_indices_staircase(&pts, |&(t, e)| (t, e));
        let slow = pareto_indices(&pts, |&(t, e)| (t, e));
        prop_assert_eq!(fast, slow);
    }

    /// `pareto_front` (the staircase) returns the oracle's index set in
    /// the oracle's order, on keys drawn from a small palette so exact
    /// duplicates abound. Palette 0 is finite and exercises the staircase
    /// itself; palette 1 mixes `0.0` with `-0.0` and palette 2 adds `±inf`
    /// and `NaN`, both of which route the input to the oracle.
    #[test]
    fn pareto_front_equals_the_oracle_on_duplicates_and_non_finite_keys(
        picks in proptest::collection::vec((0usize..8, 0usize..8), 0..120),
        palette in 0usize..3,
    ) {
        const INF: f64 = f64::INFINITY;
        let palette: &[f64] = match palette {
            0 => &[1.0, 0.25, 2.0, 0.0, 0.5],
            1 => &[0.0, -0.0, 1.0, 0.5],
            _ => &[1.0, 0.0, -0.0, INF, -INF, f64::NAN, -f64::NAN, 0.5],
        };
        let keys: Vec<(f64, f64)> = picks
            .iter()
            .map(|&(t, e)| (palette[t % palette.len()], palette[e % palette.len()]))
            .collect();
        let oracle = pareto_indices(&keys, |&k| k);
        prop_assert_eq!(&pareto_indices_staircase(&keys, |&k| k), &oracle);
        let cluster = ClusterSpec::a9_k10(1, 0);
        let evald: Vec<EvaluatedConfig> = keys
            .iter()
            .map(|&(t, e)| EvaluatedConfig {
                cluster: cluster.clone(),
                job_time: t,
                job_energy: e,
                busy_power_w: 0.0,
                idle_power_w: 0.0,
                nameplate_w: 0.0,
            })
            .collect();
        let front: Vec<usize> = pareto_front(&evald)
            .into_iter()
            .map(|p| evald.iter().position(|x| std::ptr::eq(x, p)).unwrap())
            .collect();
        prop_assert_eq!(front, oracle);
    }

    #[test]
    fn frontier_merge_is_commutative_and_associative(
        seed in 1u64..u64::MAX,
        n in 0usize..120,
        grid in 1u64..30,
        cut_a in 0usize..120,
        cut_b in 0usize..120,
    ) {
        let pts = xorshift_points(seed, n, grid);
        let (i, j) = (cut_a.min(n), cut_b.min(n));
        let (lo, hi) = (i.min(j), i.max(j));
        let a = frontier_of(&pts[..lo], 0);
        let b = frontier_of(&pts[lo..hi], lo);
        let c = frontier_of(&pts[hi..], hi);

        // ((a ∪ b) ∪ c)
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        // (a ∪ (b ∪ c))
        let mut right = b.clone();
        right.merge(c.clone());
        let mut right_full = a.clone();
        right_full.merge(right);
        // (c ∪ b ∪ a): reversed order
        let mut rev = c;
        rev.merge(b);
        rev.merge(a);

        let whole = frontier_of(&pts, 0);
        prop_assert_eq!(fingerprint(&left), fingerprint(&whole));
        prop_assert_eq!(fingerprint(&right_full), fingerprint(&whole));
        prop_assert_eq!(fingerprint(&rev), fingerprint(&whole));
    }
}
