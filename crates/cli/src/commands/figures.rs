//! Regeneration of the paper's Figures 2 and 5–12 as data series (CSV) or
//! ASCII plots.

use super::{resolve_workload, response_grid, utilization_grid, ObsCtx, Opts};
use crate::diag;
use crate::output::{ascii_plot, render_csv, Series};
use enprop_clustersim::ClusterSpec;
use enprop_core::{normalized_power_samples, ClusterModel};
use enprop_explore::budget_mixes;
use enprop_metrics::{GridSpec, IdealCurve, PowerCurve, QuadraticCurve};
use enprop_obs::{Recorder, SwitchRecorder};
use enprop_workloads::Workload;

fn get_workload(name: &str) -> Workload {
    resolve_workload(name)
}

fn emit_series(opts: &Opts, series: Vec<Series>, x: &str, y: &str, log_y: bool) {
    if opts.csv {
        let mut rows = vec![vec!["series".to_string(), x.into(), y.into()]];
        for s in &series {
            for &(xx, yy) in &s.points {
                rows.push(vec![s.label.clone(), format!("{xx}"), format!("{yy}")]);
            }
        }
        print!("{}", render_csv(&rows));
    } else {
        print!("{}", ascii_plot(&series, 72, 22, log_y, x, y));
    }
}

/// Fig. 2: the metric-relationship diagram — ideal, a super-linear and a
/// sub-linear curve with their DPR/IPR/EPM/PG values.
pub fn fig2_cmd(opts: &Opts) {
    println!("Figure 2: energy proportionality metric relationships\n");
    let ideal = IdealCurve::new(100.0);
    let sup = QuadraticCurve::new(30.0, 100.0, -0.3); // above ideal
    let sub = QuadraticCurve::new(0.0, 100.0, 0.6); // dips below ideal
    let grid = utilization_grid();
    let series = vec![
        Series {
            label: "ideal".into(),
            points: grid.iter().map(|&u| (u * 100.0, ideal.power(u))).collect(),
        },
        Series {
            label: format!(
                "super-linear (IPR {:.2}, EPM {:.2})",
                enprop_metrics::idle_to_peak_ratio(&sup),
                enprop_metrics::energy_proportionality_metric(&sup, GridSpec::default())
            ),
            points: grid.iter().map(|&u| (u * 100.0, sup.power(u))).collect(),
        },
        Series {
            label: format!(
                "sub-linear (IPR {:.2}, EPM {:.2})",
                enprop_metrics::idle_to_peak_ratio(&sub),
                enprop_metrics::energy_proportionality_metric(&sub, GridSpec::default())
            ),
            points: grid.iter().map(|&u| (u * 100.0, sub.power(u))).collect(),
        },
    ];
    emit_series(opts, series, "utilization [%]", "peak power [%]", false);
}

/// Figs. 5a–c: single-node proportionality curves (percent of peak vs
/// utilization) for EP, x264 and blackscholes (or one chosen workload).
pub fn fig5_cmd(opts: &Opts) {
    let names: Vec<String> = match &opts.workload {
        Some(w) => vec![w.clone()],
        None => vec!["EP".into(), "x264".into(), "blackscholes".into()],
    };
    for name in names {
        let w = get_workload(&name);
        println!("Figure 5 ({name}): single-node energy proportionality\n");
        let grid = utilization_grid();
        let mut series = vec![Series {
            label: "Ideal".into(),
            points: grid.iter().map(|&u| (u * 100.0, u * 100.0)).collect(),
        }];
        for node in ["K10", "A9"] {
            let m = ClusterModel::single_node(w.clone(), node);
            let curve = m.power_curve();
            series.push(Series {
                label: node.into(),
                points: grid
                    .iter()
                    .map(|&u| (u * 100.0, 100.0 * curve.normalized(u)))
                    .collect(),
            });
        }
        emit_series(opts, series, "utilization [%]", "peak power [%]", false);
        println!();
    }
}

/// Figs. 6a–c: single-node PPR vs utilization.
pub fn fig6_cmd(opts: &Opts) {
    let names: Vec<String> = match &opts.workload {
        Some(w) => vec![w.clone()],
        None => vec!["EP".into(), "x264".into(), "blackscholes".into()],
    };
    for name in names {
        let w = get_workload(&name);
        println!("Figure 6 ({name}): single-node PPR across utilization\n");
        let grid = utilization_grid();
        let mut series = Vec::new();
        for node in ["K10", "A9"] {
            let m = ClusterModel::single_node(w.clone(), node);
            let ppr = m.ppr_curve();
            series.push(Series {
                label: node.into(),
                points: grid.iter().map(|&u| (u * 100.0, ppr.ppr(u))).collect(),
            });
        }
        let unit = w.unit;
        emit_series(opts, series, "utilization [%]", &format!("PPR [({unit}/s)/W]"), true);
        println!();
    }
}

/// Fig. 7: cluster-wide energy proportionality of the 1 kW budget mixes.
pub fn fig7_cmd(opts: &Opts) {
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = get_workload(&name);
    println!("Figure 7 ({name}): cluster-wide energy proportionality, 1 kW budget\n");
    let grid = utilization_grid();
    let mut series = vec![Series {
        label: "Ideal".into(),
        points: grid.iter().map(|&u| (u * 100.0, u * 100.0)).collect(),
    }];
    for mix in budget_mixes(1000.0, 4) {
        let m = ClusterModel::new(w.clone(), mix.clone());
        let curve = m.power_curve();
        series.push(Series {
            label: mix.label(),
            points: grid
                .iter()
                .map(|&u| (u * 100.0, 100.0 * curve.normalized(u)))
                .collect(),
        });
    }
    emit_series(opts, series, "utilization [%]", "peak power [%]", false);
}

/// Fig. 8: cluster-wide PPR of the budget mixes.
pub fn fig8_cmd(opts: &Opts) {
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = get_workload(&name);
    println!("Figure 8 ({name}): cluster-wide PPR, 1 kW budget\n");
    let grid = utilization_grid();
    let mut series = Vec::new();
    for mix in budget_mixes(1000.0, 4) {
        let m = ClusterModel::new(w.clone(), mix.clone());
        let ppr = m.ppr_curve();
        series.push(Series {
            label: mix.label(),
            points: grid.iter().map(|&u| (u * 100.0, ppr.ppr(u))).collect(),
        });
    }
    let unit = w.unit;
    emit_series(opts, series, "utilization [%]", &format!("PPR [({unit}/s)/W]"), false);
}

/// The Pareto-configuration mixes plotted in Figs. 9–12 (≤ 32 A9, ≤ 12
/// K10; the paper's labeled node-count pairs).
pub fn paper_pareto_mixes() -> Vec<ClusterSpec> {
    [(32, 12), (25, 10), (25, 8), (25, 7), (25, 5)]
        .into_iter()
        .map(|(a, k)| ClusterSpec::a9_k10(a, k))
        .collect()
}

/// Figs. 9 (EP) / 10 (x264): proportionality of Pareto configurations
/// against the maximum configuration's ideal line.
pub fn fig9_cmd(opts: &Opts, default_workload: &str) {
    let name = opts.workload.clone().unwrap_or_else(|| default_workload.into());
    let w = get_workload(&name);
    let fig = if name == "x264" { "10" } else { "9" };
    println!("Figure {fig} ({name}): proportionality of Pareto-optimal configurations\n");
    let reference = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(32, 12));
    let ref_peak = reference.busy_power_w();
    let grid = utilization_grid();
    let mut series = vec![Series {
        label: "Ideal".into(),
        points: grid.iter().map(|&u| (u * 100.0, u * 100.0)).collect(),
    }];
    for mix in paper_pareto_mixes() {
        let m = ClusterModel::new(w.clone(), mix.clone());
        let samples = normalized_power_samples(&m, ref_peak, GridSpec::new(100));
        series.push(Series {
            label: mix.label(),
            points: grid
                .iter()
                .map(|&u| (u * 100.0, samples.power(u)))
                .collect(),
        });
    }
    emit_series(opts, series, "utilization [%]", "peak power [%] (of 32A9:12K10)", false);
}

/// Figs. 11 (EP) / 12 (x264): 95th-percentile response time of the
/// sub-linear heterogeneous mixes. When telemetry is on, a small traced
/// dispatcher run backs the analytic curves with concrete job spans,
/// retries, DVFS transitions and queue-depth samples.
pub fn fig11_cmd(opts: &Opts, default_workload: &str, ctx: &mut ObsCtx) {
    let name = opts.workload.clone().unwrap_or_else(|| default_workload.into());
    let w = get_workload(&name);
    let fig = if name == "x264" { "12" } else { "11" };
    println!("Figure {fig} ({name}): 95th-percentile response time of heterogeneous mixes\n");
    let grid = response_grid();
    let mut series = Vec::new();
    for mix in paper_pareto_mixes() {
        let m = ClusterModel::new(w.clone(), mix.clone());
        series.push(Series {
            label: mix.label(),
            points: grid
                .iter()
                .map(|&u| (u * 100.0, m.p95_response_time(u)))
                .collect(),
        });
    }
    emit_series(opts, series, "utilization [%]", "p95 response time [s]", true);
    if ctx.rec.enabled() {
        traced_queue_probe(opts, &w, &mut ctx.rec);
    }
}

/// Trace-only companion to [`fig11_cmd`]: run a lab-scale dispatcher
/// under a mild crash plan so the exported trace carries every series a
/// consumer expects (job spans, `dispatch.retries`,
/// `node.dvfs_transitions`, `dispatch.queue_depth`). Prints nothing to
/// stdout; the counters are pre-declared so they exist in the metrics
/// snapshot even at zero.
fn traced_queue_probe(opts: &Opts, w: &Workload, rec: &mut SwitchRecorder) {
    use enprop_clustersim::{
        ClusterQueueSim, ClusterSim, FaultKind, FaultPlan, GroupFaultProfile, MtbfModel,
        RetryPolicy,
    };
    if let Some(m) = rec.as_memory_mut() {
        m.declare_counter("dispatch.retries");
        m.declare_counter("node.dvfs_transitions");
        m.declare_counter("cluster.jobs_completed");
        m.declare_counter("dispatch.jobs");
    }
    let cluster = ClusterSpec::a9_k10(8, 4);
    let sim = match ClusterSim::try_new(w, &cluster) {
        Ok(s) => s,
        Err(e) => {
            diag::info(format!("fig11 queue probe skipped: {e}"));
            return;
        }
    };
    let base = sim.run_job(opts.seed);
    let plan = FaultPlan::uniform(
        opts.seed,
        GroupFaultProfile {
            mtbf: MtbfModel::Exponential {
                mtbf_s: base.duration * 2.0,
            },
            kinds: vec![(1.0, FaultKind::Crash)],
        },
        cluster.groups.len(),
    );
    let policy = RetryPolicy {
        max_retries: 6,
        timeout_factor: 2.0,
        ..RetryPolicy::standard()
    };
    let outcome = ClusterQueueSim::with_faults(&sim, 8, opts.seed, &plan, &policy, rec)
        .and_then(|q| q.run_obs(0.7, 2000, 200, opts.seed, rec));
    match outcome {
        Ok(r) => diag::info(format!(
            "fig11 queue probe traced: mean response {:.3} s over 2000 jobs",
            r.response.mean()
        )),
        Err(e) => diag::info(format!("fig11 queue probe skipped: {e}")),
    }
}

/// Extension: the dynamic-switching envelope (shed-brawny ladder) against
/// the static reference and the ideal line.
pub fn dynamic_cmd(opts: &Opts) {
    use enprop_explore::DynamicEnvelope;
    use enprop_metrics::{energy_proportionality_metric, GridSpec as MGrid};
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = get_workload(&name);
    println!("Extension ({name}): dynamic configuration switching (shed brawny first)\n");
    let grid = utilization_grid();
    let mgrid = MGrid::new(100);
    let envelope = DynamicEnvelope::shed_brawny_ladder(&w, 32, 12);
    let static_model = ClusterModel::new(w.clone(), ClusterSpec::a9_k10(32, 12));
    let static_peak = static_model.busy_power_w();
    let series = vec![
        Series {
            label: "Ideal".into(),
            points: grid.iter().map(|&u| (u * 100.0, u * 100.0)).collect(),
        },
        Series {
            label: "static 32 A9 : 12 K10".into(),
            points: grid
                .iter()
                .map(|&u| (u * 100.0, 100.0 * static_model.power_at(u) / static_peak))
                .collect(),
        },
        Series {
            label: "dynamic envelope".into(),
            points: grid
                .iter()
                .map(|&u| (u * 100.0, 100.0 * envelope.serve(u).1 / static_peak))
                .collect(),
        },
    ];
    emit_series(opts, series, "utilization [%]", "peak power [%]", false);
    if !opts.csv {
        let d = energy_proportionality_metric(&envelope.power_curve(mgrid), mgrid);
        let s = static_model.metrics().epm;
        println!(
            "\nEPM: static {s:.2} -> dynamic {d:.2} \
             ({} rungs active; envelope ignores switching latency)",
            envelope.active_configurations(mgrid)
        );
        for u in [0.1, 0.3, 0.5, 0.8] {
            let (label, watts) = envelope.serve(u);
            println!("  at {:>3.0}% load: {label} ({watts:.0} W)", u * 100.0);
        }
    }
}

/// Extension: the Hsu & Poole quadratic power-curve ablation.
pub fn ablation_cmd(opts: &Opts) {
    use enprop_core::quadratic_ablation;
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = get_workload(&name);
    println!("Ablation ({name}): linear model curve vs quadratic server curve (Hsu & Poole)\n");
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "node", "curvature", "DPR", "IPR", "EPM lin", "EPM quad", "LDR literal"
    );
    for node in ["A9", "K10"] {
        for curv in [-0.4, 0.0, 0.4] {
            let a = quadratic_ablation(&w, node, curv);
            println!(
                "{:<6} {:>10.1} {:>10.2} {:>10.2} {:>10.3} {:>12.3} {:>12.4}",
                node,
                curv,
                a.quadratic.dpr,
                a.quadratic.ipr,
                a.linear.epm,
                a.quadratic.epm,
                a.quadratic.ldr_literal
            );
        }
    }
    diag::note(
        "\nDPR/IPR are endpoint-only and cannot see the curve's interior; EPM and\n\
         the literal LDR diverge once servers deviate from linearity — the paper's\n\
         §III-B collapse is a property of its linear model, not of real servers.",
    );
}

/// Proportionality Gap PG(u) table (Table 3's per-utilization metric) for
/// both nodes and the budget mixes.
pub fn pg_cmd(opts: &Opts) {
    use enprop_metrics::proportionality_gap;
    let name = opts.workload.clone().unwrap_or_else(|| "EP".into());
    let w = get_workload(&name);
    println!("Proportionality Gap PG(u) for {name} (lower = more proportional)\n");
    let grid = [0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0];
    let mut rows = vec![{
        let mut h = vec!["System".to_string()];
        h.extend(grid.iter().map(|u| format!("u={:.0}%", u * 100.0)));
        h
    }];
    let mut push_system = |label: String, model: &ClusterModel| {
        let curve = model.power_curve();
        let mut row = vec![label];
        for &u in &grid {
            row.push(match proportionality_gap(&curve, u) {
                Some(pg) => format!("{pg:.2}"),
                None => "-".into(),
            });
        }
        rows.push(row);
    };
    for node in ["A9", "K10"] {
        push_system(format!("1 {node}"), &ClusterModel::single_node(w.clone(), node));
    }
    for mix in budget_mixes(1000.0, 4) {
        push_system(mix.label(), &ClusterModel::new(w.clone(), mix.clone()));
    }
    if opts.csv {
        print!("{}", crate::output::render_csv(&rows));
    } else {
        print!("{}", crate::output::render_table(&rows));
        diag::note("\nPG shrinks toward full utilization for every system (idle power\namortizes) — why co-location work pushes datacenters to run hot.");
    }
}
