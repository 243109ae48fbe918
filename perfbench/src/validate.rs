//! `validate`: the simulation stack. Phase 1 regenerates Table 4 (model
//! vs simulated testbed, six workloads on the 4 A9 + 2 K10 reference mix)
//! at a high sample count; phase 2 runs the Fig. 11/12 dispatcher DES on
//! the paper's Pareto mixes for EP and x264. `serve` and `explore` stay
//! idle. Building the DES service pools is this workload's set-up.

use std::time::{Duration, Instant};

use enprop_clustersim::{
    try_model_prediction, ClusterJobRun, ClusterQueueSim, ClusterSim, ClusterSpec,
};
use enprop_core::{table4, Table4Row, REFERENCE_VALIDATION_CLUSTER};
use enprop_nodesim::NodeSim;
use enprop_obs::{MemoryRecorder, Track};
use enprop_workloads::{catalog, Workload};

use crate::tracer::{Tracer, ROOT};
use crate::{
    alternate, median, peak_rss_mb, phase_rate, rep_pairs, set_up, setup_s, timed, Args, Outcome,
};

/// Simulated jobs per Table 4 row.
const SAMPLES: usize = 2_000;
/// Every `NODE_STRIDE`-th sampled job is also re-run node by node in the
/// traced run, to split `run_job` into node simulation and composition.
const NODE_STRIDE: usize = 8;
/// Pooled service times per DES mix.
const POOL: usize = 32;
/// DES jobs per mix (after `DES_WARMUP` discarded ones) and utilization.
const DES_JOBS: usize = 1_000_000;
const DES_WARMUP: usize = 50_000;
const DES_UTILIZATION: f64 = 0.7;
/// Nominal seconds of one untraced rep pair on the reference host.
const PAIR_S: f64 = 0.9;
/// Node runs recorded with a `MemoryRecorder` for the engine tally.
const ENGINE_RUNS: usize = 64;

/// The paper's Table 4 errors (time %, energy %), in paper order.
const PAPER: [(&str, f64, f64); 6] = [
    ("EP", 3.0, 10.0),
    ("memcached", 10.0, 8.0),
    ("x264", 11.0, 10.0),
    ("blackscholes", 4.0, 7.0),
    ("Julius", 13.0, 1.0),
    ("RSA-2048", 2.0, 8.0),
];

/// The Pareto mixes of Figs. 11/12, (A9, K10).
const MIXES: [(u32, u32); 5] = [(32, 12), (25, 10), (25, 8), (25, 7), (25, 5)];

/// One DES scenario: a workload on a mix with its pooled service times.
struct Des {
    label: String,
    queue: ClusterQueueSim,
}

fn des_workloads() -> Vec<Workload> {
    ["EP", "x264"]
        .iter()
        .map(|n| catalog::by_name(n).expect("catalog workload"))
        .collect()
}

fn service_pool(w: &Workload, mix: (u32, u32), seed: u64) -> Des {
    let cluster = ClusterSpec::a9_k10(mix.0, mix.1);
    let sim = ClusterSim::try_new(w, &cluster).expect("mix has a profile for every node type");
    let queue = ClusterQueueSim::new(&sim, POOL, seed).expect("non-empty pool");
    Des {
        label: format!("{} {}", w.name, cluster.label()),
        queue,
    }
}

fn build(seed: u64) -> Vec<Des> {
    let mut out = Vec::new();
    for w in &des_workloads() {
        for &mix in &MIXES {
            out.push(service_pool(w, mix, seed));
        }
    }
    out
}

/// Largest |regenerated − paper| error over both columns, in points.
fn gap_pp(rows: &[Table4Row]) -> f64 {
    rows.iter()
        .map(|r| {
            let (t, e) = r.paper_errors;
            (r.report.time_error_pct - t)
                .abs()
                .max((r.report.energy_error_pct - e).abs())
        })
        .fold(0.0, f64::max)
}

/// Counts one regeneration's jobs (a row with a non-finite error fails
/// all of its jobs); returns whether the six rows are in paper order with
/// finite errors.
fn table4_ok(out: &mut Outcome, rows: &[Table4Row]) -> bool {
    let names: Vec<&str> = rows.iter().map(|r| r.program).collect();
    let want: Vec<&str> = PAPER.iter().map(|p| p.0).collect();
    let bad = rows
        .iter()
        .filter(|r| !(r.report.time_error_pct.is_finite() && r.report.energy_error_pct.is_finite()))
        .count();
    out.attempted += (rows.len() * SAMPLES) as u64;
    out.failed += (bad * SAMPLES) as u64;
    names == want && bad == 0
}

/// Exact text of the Table 4 errors: equal strings mean equal bits.
fn table4_bits(rows: &[Table4Row]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{}:{:x}:{:x};",
                r.program,
                r.report.time_error_pct.to_bits(),
                r.report.energy_error_pct.to_bits()
            )
        })
        .collect()
}

/// DES quantiles `(p50, p99.9)` of one run, checked finite.
fn des_run(out: &mut Outcome, des: &Des, seed: u64) -> (f64, f64) {
    let r = des
        .queue
        .run(DES_UTILIZATION, DES_JOBS, DES_WARMUP, seed)
        .expect("utilization is inside (0, 1)");
    let p50 = r.quantile(0.5).unwrap_or(f64::NAN);
    let p999 = r.quantile(0.999).unwrap_or(f64::NAN);
    out.attempted += DES_JOBS as u64;
    if !(p50.is_finite() && p999.is_finite()) {
        out.failed += DES_JOBS as u64;
        out.check(
            format!("{}: DES quantiles finite ({p50}, {p999})", des.label),
            false,
        );
    }
    (p50, p999)
}

pub fn run(args: &Args, tracer: Option<&mut Tracer>, process_start: Instant) -> Outcome {
    let (setups, pools) = set_up(|| build(args.seed));
    println!(
        "setup: {} DES service pools of {POOL} jobs, median of {} set-ups {:.6} s, \
         first timed call {:.3} s after process start",
        pools.len(),
        setups.len(),
        median(&setups),
        process_start.elapsed().as_secs_f64()
    );
    let mut out = Outcome::default();
    match tracer {
        None => untraced(args, &pools, setups, &mut out),
        Some(tr) => traced(args, &pools, tr, &mut out),
    }
    out
}

fn untraced(args: &Args, pools: &[Des], mut setups: Vec<f64>, out: &mut Outcome) {
    let ((p1, tables), (p2, means)) = alternate(
        rep_pairs(args.seconds, PAIR_S),
        &mut setups,
        || timed(|| build(args.seed)).0,
        || timed(|| table4(SAMPLES, args.seed)),
        || {
            timed(|| {
                pools
                    .iter()
                    .map(|des| {
                        des.queue
                            .run(DES_UTILIZATION, DES_JOBS, DES_WARMUP, args.seed)
                            .expect("utilization is inside (0, 1)")
                            .response
                            .mean()
                            .to_bits()
                    })
                    .collect::<Vec<u64>>()
            })
        },
    );
    let mut ordered = true;
    for rows in &tables {
        ordered &= table4_ok(out, rows);
    }
    out.check(
        "six Table 4 rows in paper order with finite errors",
        ordered,
    );
    let bits = table4_bits(&tables[0]);
    out.check(
        format!("{} Table 4 regenerations bit-identical", tables.len()),
        tables.iter().all(|t| table4_bits(t) == bits),
    );
    println!(
        "table4_gap_pp {} ({SAMPLES} samples per row)",
        gap_pp(&tables[0])
    );

    for pass in &means {
        out.attempted += (pass.len() * DES_JOBS) as u64;
        let bad = pass
            .iter()
            .filter(|m| !f64::from_bits(**m).is_finite())
            .count();
        out.failed += (bad * DES_JOBS) as u64;
    }
    let (p50, p999) = des_run(out, &pools[0], args.seed);
    println!("des {}: p50 {p50} s, p99.9 {p999} s", pools[0].label);
    out.check(
        format!("{} DES passes bit-identical", means.len()),
        means.iter().all(|m| *m == means[0]),
    );
    let jobs = (6 * SAMPLES) as f64;
    let des_jobs = (DES_JOBS * pools.len()) as f64;
    let p1_ops = phase_rate("sim_jobs_per_s", jobs, &p1);
    let p2_ops = phase_rate("des_jobs_per_s", des_jobs, &p2);
    out.metric("setup_s", setup_s(&setups), "s");
    out.metric("phase1_ops_per_s", p1_ops, "1/s");
    out.metric("phase2_ops_per_s", p2_ops, "1/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Per-node replay of one `run_job(seed)` from outside, under one span
/// that covers what `run_job` does per node (simulator, work split and
/// `NodeSim::run` per node) but not its composition. Returns the composed
/// job, the span's seconds and the node runs made.
fn node_by_node(
    tr: &mut Tracer,
    w: &Workload,
    sim: &ClusterSim<'_>,
    cluster: &ClusterSpec,
    seed: u64,
) -> (ClusterJobRun, f64, u64) {
    let ops = w.ops_per_job;
    let (secs, runs) = tr.span("nodesim.run", || {
        let mut runs = Vec::new();
        for (gi, g) in cluster.groups.iter().enumerate() {
            if g.count == 0 {
                continue;
            }
            let profile = w.try_profile(g.spec.name).expect("validated profile");
            let node = NodeSim::new(profile.spec.clone());
            let work = w.node_work(profile, sim.split().ops_frac[gi] * ops);
            for ni in 0..g.count {
                let node_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((gi as u64) << 32 | u64::from(ni));
                let run = node.run(&work, g.cores, g.freq, &profile.frictions, node_seed);
                runs.push((run.duration, run.energy.total(), g.spec.power.sys_idle_w));
            }
        }
        runs
    });
    let duration = runs.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let energy: f64 = runs.iter().map(|r| r.1 + (duration - r.0) * r.2).sum();
    (
        ClusterJobRun {
            duration,
            energy,
            ops,
        },
        secs,
        runs.len() as u64,
    )
}

/// The jobs replayed node by node: their `run_job` seconds, the seconds of
/// their node runs, and the counts of jobs and node runs.
#[derive(Debug, Default)]
struct NodeSplit {
    job_s: f64,
    node_s: f64,
    jobs: u64,
    node_runs: u64,
}

/// One Table 4 regeneration split into layer calls: the model
/// prediction, the split, every sampled job, and (every `NODE_STRIDE`-th
/// job) its node runs, tallied into `split`. Returns the rows' error bits
/// and the seconds of the model, split and job calls.
fn traced_table4(
    tr: &mut Tracer,
    seed: u64,
    out: &mut Outcome,
    split: &mut NodeSplit,
) -> (String, f64) {
    let (a9, k10) = REFERENCE_VALIDATION_CLUSTER;
    let cluster = ClusterSpec::a9_k10(a9, k10);
    let mut bits = String::new();
    let mut lead = 0.0;
    for (name, _, _) in PAPER {
        let w = catalog::by_name(name).expect("catalog workload");
        let (s, pred) = tr.span("core.model", || try_model_prediction(&w, &cluster));
        lead += s;
        let pred = pred.expect("reference mix has every profile");
        let (s, sim) = tr.span("clustersim.split", || ClusterSim::try_new(&w, &cluster));
        lead += s;
        let sim = sim.expect("reference mix has every profile");
        let (mut dur, mut energy) = (0.0, 0.0);
        for i in 0..SAMPLES {
            let job_seed = seed.wrapping_add(i as u64 * 7919);
            let (s, r) = tr.span("clustersim.run_job", || sim.run_job(job_seed));
            lead += s;
            dur += r.duration;
            energy += r.energy;
            if i % NODE_STRIDE == 0 {
                let (composed, secs, nodes) = node_by_node(tr, &w, &sim, &cluster, job_seed);
                if composed.duration.to_bits() != r.duration.to_bits()
                    || composed.energy.to_bits() != r.energy.to_bits()
                {
                    out.check(
                        format!("{name}: node-by-node job {i} composes to run_job"),
                        false,
                    );
                }
                split.job_s += s;
                split.node_s += secs;
                split.jobs += 1;
                split.node_runs += nodes;
            }
        }
        let sim_time = dur / SAMPLES as f64;
        let sim_energy = energy / SAMPLES as f64;
        let t = 100.0 * (pred.time - sim_time).abs() / sim_time;
        let e = 100.0 * (pred.energy - sim_energy).abs() / sim_energy;
        bits.push_str(&format!("{name}:{:x}:{:x};", t.to_bits(), e.to_bits()));
    }
    (bits, lead)
}

fn traced(args: &Args, pools: &[Des], tr: &mut Tracer, out: &mut Outcome) {
    let third = Duration::from_secs_f64(args.seconds / 3.0);
    let mut reference = Vec::new();
    let mut lead = Vec::new();
    let mut split = NodeSplit::default();
    let mut gap = 0.0;
    let (mut ordered, mut reproduced) = (true, true);
    let start = Instant::now();
    while reference.len() < 2 || start.elapsed() < 2 * third {
        let (s, rows) = timed(|| table4(SAMPLES, args.seed));
        reference.push(s);
        ordered &= table4_ok(out, &rows);
        gap = gap_pp(&rows);
        tr.begin(ROOT);
        let (bits, l) = traced_table4(tr, args.seed, out, &mut split);
        tr.end();
        reproduced &= bits == table4_bits(&rows);
        lead.push(l);
    }
    out.check(
        "six Table 4 rows in paper order with finite errors",
        ordered,
    );
    out.check(
        format!(
            "{} traced Table 4 splits reproduce table4() bit for bit",
            reference.len()
        ),
        reproduced,
    );

    // Engine traffic per node run, and the DES: pool builds, then runs.
    tr.begin(ROOT);
    let (a9, k10) = REFERENCE_VALIDATION_CLUSTER;
    let cluster = ClusterSpec::a9_k10(a9, k10);
    let w = catalog::by_name("EP").expect("catalog workload");
    let profile = w
        .try_profile(cluster.groups[0].spec.name)
        .expect("A9 profile");
    let g = &cluster.groups[0];
    let node = NodeSim::new(profile.spec.clone());
    let work = w.node_work(profile, w.ops_per_job / f64::from(cluster.node_count()));
    let mut rec = MemoryRecorder::new();
    tr.span("nodesim.run_obs", || {
        for i in 0..ENGINE_RUNS {
            let track = Track::Node { group: 0, node: 0 };
            node.run_obs(
                &work,
                g.cores,
                g.freq,
                &profile.frictions,
                i as u64,
                0.0,
                track,
                &mut rec,
            );
        }
    });
    let popped = rec
        .counters()
        .get("nodesim.eq.popped")
        .copied()
        .unwrap_or(0);

    let mut pool_s = Vec::new();
    let mut des_s = 0.0;
    let mut des = 0usize;
    while des < 1 || start.elapsed() < 3 * third {
        for (i, w) in des_workloads().iter().enumerate() {
            for (j, &mix) in MIXES.iter().enumerate() {
                let (s, d) = tr.span("clustersim.service_pool", || {
                    service_pool(w, mix, args.seed)
                });
                pool_s.push(s);
                let (s, q) = tr.span("queueing.des", || {
                    d.queue
                        .run(DES_UTILIZATION, DES_JOBS, DES_WARMUP, args.seed)
                });
                des_s += s;
                let r = q.expect("utilization is inside (0, 1)");
                out.attempted += DES_JOBS as u64;
                if !r.response.mean().is_finite() {
                    out.failed += DES_JOBS as u64;
                }
                let built = &pools[i * MIXES.len() + j].queue;
                if built.mean_service().to_bits() != d.queue.mean_service().to_bits() {
                    out.check(
                        format!("{}: rebuilt pool gives the same DES", d.label),
                        false,
                    );
                }
                des += 1;
            }
        }
    }
    tr.end();
    let (p50, p999) = des_run(out, &pools[0], args.seed);
    println!("des {}: p50 {p50} s, p99.9 {p999} s", pools[0].label);

    let coverage = tr.print_table();
    out.check(
        format!(
            "layer self time covers {:.1}% of the traced wall time (>= 90%)",
            100.0 * coverage
        ),
        coverage >= 0.9,
    );
    let overhead = median(&lead) / median(&reference);
    println!("tracing overhead: traced split / untraced table4() = {overhead:.4}");
    out.metric("trace.coverage", coverage, "ratio");
    out.metric("trace.overhead_ratio", overhead, "ratio");
    out.metric("core.model.table4_gap_pp", gap, "pp");
    out.metric(
        "nodesim.run.us_per_call",
        split.node_s * 1e6 / split.node_runs as f64,
        "us/call",
    );
    out.metric(
        "nodesim.engine.events_per_run",
        popped as f64 / ENGINE_RUNS as f64,
        "events/run",
    );
    out.metric(
        "clustersim.compose.us_per_job",
        (split.job_s - split.node_s) * 1e6 / split.jobs as f64,
        "us/job",
    );
    out.metric("clustersim.service_pool.ms", median(&pool_s) * 1e3, "ms");
    out.metric(
        "queueing.des.ns_per_job",
        des_s * 1e9 / (des * DES_JOBS) as f64,
        "ns/job",
    );
    out.metric("queueing.des.p999_s", p999, "s");
}
