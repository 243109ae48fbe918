#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Cross-validation between the analytic model and the discrete-event
//! simulation: power curves, utilization sweeps and tail latency.

use enprop::clustersim::{ClusterQueueSim, ClusterSim};
use enprop::metrics::SampledCurve;
use enprop::obs::NoopRecorder;
use enprop::prelude::*;

/// The model's linear power curve tracks the simulator's measured power
/// samples across the whole utilization axis (within the friction gap).
#[test]
fn power_curves_agree_across_utilization() {
    for name in ["EP", "blackscholes"] {
        let w = catalog::by_name(name).unwrap();
        let cluster = ClusterSpec::a9_k10(6, 3);
        let model = ClusterModel::new(w.clone(), cluster.clone());
        let curve = model.power_curve();

        let sim = ClusterSim::new(&w, &cluster);
        let samples = SampledCurve::new(sim.power_samples(10, 3));

        for i in 0..=10 {
            let u = i as f64 / 10.0;
            let m = curve.power(u);
            let s = samples.power(u);
            let rel = (m - s).abs() / s.max(1.0);
            assert!(rel < 0.12, "{name} @ u={u}: model {m} W vs sim {s} W");
        }
        // Idle endpoints agree exactly: idle power is measured, not modeled.
        assert!((curve.power(0.0) - samples.power(0.0)).abs() < 1e-6);
    }
}

/// The M/D/1 closed form and the full cluster dispatcher simulation agree
/// on p95 response time (the justification for using the closed form in
/// Figs. 11-12).
#[test]
fn md1_p95_matches_cluster_dispatcher_sim() {
    let w = catalog::by_name("EP").unwrap();
    let cluster = ClusterSpec::a9_k10(8, 4);
    let sim = ClusterSim::new(&w, &cluster);
    let queue = ClusterQueueSim::new(&sim, 16, 5).unwrap();

    for u in [0.4, 0.7, 0.85] {
        let res = queue.run(u, 40_000, 4_000, 9).unwrap();
        let p95_sim = res.quantile(0.95).unwrap();
        // Feed the *simulated* mean service time to the analytic queue so
        // the comparison isolates the queueing model itself.
        let md1 = MD1::from_utilization(queue.mean_service(), u);
        let p95_analytic = md1.response_time_quantile(0.95);
        let rel = (p95_sim - p95_analytic).abs() / p95_analytic;
        assert!(
            rel < 0.12,
            "u={u}: sim p95 {p95_sim} vs analytic {p95_analytic} ({rel:.3})"
        );
    }
}

/// Simulated throughput at full load approaches the model's peak rate
/// (frictions only shave a few percent).
#[test]
fn peak_throughput_within_friction_gap() {
    let w = catalog::by_name("RSA-2048").unwrap();
    let cluster = ClusterSpec::a9_k10(4, 2);
    let model = ClusterModel::new(w.clone(), cluster.clone());
    let sim = ClusterSim::new(&w, &cluster);
    let mean = sim.sample_jobs(5, 3, &mut NoopRecorder);
    let sim_rate = mean.ops / mean.duration;
    let ratio = sim_rate / model.peak_throughput();
    assert!(ratio < 1.0, "simulation cannot beat the friction-free model");
    assert!(ratio > 0.90, "friction gap too large: {ratio}");
}

/// Single-node energy: friction-free simulation equals the model term by
/// term (the simulator *is* the model when frictions vanish).
#[test]
fn frictionless_node_energy_matches_model_components() {
    use enprop::nodesim::NodeSim;
    let w = catalog::by_name("blackscholes").unwrap();
    let profile = w.try_profile("K10").unwrap();
    let m = SingleNodeModel::new(&profile.spec, &profile.demand, w.io_rate);
    let ops = 10_000.0;
    let spec = &profile.spec;
    let model_energy = m.energy(ops, spec.cores, spec.fmax());
    let model_time = m.time(ops, spec.cores, spec.fmax());

    let sim = NodeSim::new(spec.clone());
    let run = sim.run(
        &w.node_work(profile, ops),
        spec.cores,
        spec.fmax(),
        &Frictions::default(),
        0,
    );
    assert!((run.duration - model_time.total).abs() < 1e-6 * model_time.total);
    let me = model_energy.total();
    assert!((run.energy.total() - me).abs() < 0.01 * me);
    // Component-level agreement.
    assert!((run.energy.idle - model_energy.idle).abs() < 0.01 * model_energy.idle);
    assert!(
        (run.energy.cpu_act - model_energy.cpu_act).abs() < 0.02 * model_energy.cpu_act
    );
}
