#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Distribution-level validation: the Erlang/Crommelin M/D/1 waiting-time
//! CDF against the empirical distribution from the discrete-event
//! simulator — a Kolmogorov–Smirnov-style check over the whole curve, not
//! just means and single quantiles.

use enprop_obs::NoopRecorder;
use enprop_queueing::{QueueSim, MD1};

fn empirical_cdf(samples: &mut [f64], t: f64) -> f64 {
    // samples sorted by caller
    let idx = samples.partition_point(|&x| x <= t);
    idx as f64 / samples.len() as f64
}

#[test]
fn md1_wait_cdf_matches_simulation_over_the_whole_curve() {
    let service = 0.01;
    for u in [0.3, 0.6, 0.8, 0.9] {
        let q = MD1::from_utilization(service, u);
        // Pool several independent runs: near saturation the wait process
        // is strongly autocorrelated, so one run's empirical CDF wobbles
        // above the tolerance even at 300k jobs (same pattern as the
        // deep-tail test below).
        let mut waits: Vec<f64> = (0..4)
            .flat_map(|s| {
                QueueSim::md1(service, u)
                    .run(300_000, 30_000, 99 + s, &mut NoopRecorder)
                    .response_samples
                    .iter()
                    // Waiting times = response − service (deterministic
                    // service). A response is `departure − arrival`, so an
                    // unqueued job's wait carries rounding noise of the
                    // order of one ULP of the arrival clock; snap it to 0
                    // with the same 1e-9 relative slack as the left-tail
                    // test below.
                    .map(|r| r - service)
                    .map(|w| if w < service * 1e-9 { 0.0 } else { w })
                    .collect::<Vec<f64>>()
            })
            .collect();
        waits.sort_by(f64::total_cmp);

        // Compare the CDFs on a grid spanning the bulk and the tail.
        let mut max_gap = 0.0f64;
        for k in 0..=40 {
            let t = k as f64 * 0.5 * service;
            let analytic = q.wait_cdf(t);
            let empirical = empirical_cdf(&mut waits, t);
            max_gap = max_gap.max((analytic - empirical).abs());
        }
        assert!(
            max_gap < 0.01,
            "u = {u}: sup |F_analytic − F_empirical| = {max_gap}"
        );
    }
}

#[test]
fn md1_deep_tail_quantiles_match_simulation() {
    // The exponential-tail fallback region: p99 under heavy load. At
    // ρ = 0.92 queue waits are strongly autocorrelated, so a single run's
    // empirical p99 wobbles by several percent — average across seeds.
    let service = 0.01;
    let u = 0.92;
    let q = MD1::from_utilization(service, u);
    for p in [0.99, 0.995] {
        let analytic = q.response_time_quantile(p);
        let empirical: f64 = (0..4)
            .map(|s| {
                QueueSim::md1(service, u)
                    .run(400_000, 40_000, 5 + s, &mut NoopRecorder)
                    .response_quantile(p)
                    .unwrap()
            })
            .sum::<f64>()
            / 4.0;
        let rel = (analytic - empirical).abs() / empirical;
        assert!(
            rel < 0.10,
            "p = {p}: analytic {analytic} vs empirical {empirical} ({rel:.3})"
        );
    }
}

#[test]
fn md1_cdf_left_tail_is_exact() {
    // P(W = 0) = 1 − ρ exactly; the simulator's no-wait fraction agrees.
    let service = 0.02;
    for u in [0.25, 0.5, 0.75] {
        let sim = QueueSim::md1(service, u).run(200_000, 20_000, 21, &mut NoopRecorder);
        let no_wait = sim
            .response_samples
            .iter()
            .filter(|&&r| r < service * (1.0 + 1e-9))
            .count() as f64
            / sim.response_samples.len() as f64;
        assert!(
            (no_wait - (1.0 - u)).abs() < 0.01,
            "u = {u}: no-wait fraction {no_wait}"
        );
    }
}
