//! `explore`: EP over the DALEK space `a9:10,k10:10,pi4:16,opi5:16`.
//!
//! Phase 1 streams a fixed prefix of the enumeration order through
//! `stream_pareto_front` (table fill, rank decode, dominance pruning,
//! frontier merge). Phase 2 evaluates the paper's footnote-4 space
//! (≤ 32 A9, ≤ 12 K10) materialized, with the `EvalCache`, for all six
//! workloads, and takes each Pareto front. No DES runs here.
//!
//! The seed perturbs every profile's per-op demand by up to ±2%, so each
//! seed is a different (but equally sized) input.

use std::time::{Duration, Instant};

use enprop_core::ClusterModel;
use enprop_explore::{
    configurations, count_configurations, evaluate_space_with, pareto_front, stream_pareto_front,
    EvalOptions, EvalStats, EvaluatedConfig, ParetoPoint, StreamOptions, TypeSpace,
};
use enprop_faults::FaultRng;
use enprop_workloads::{catalog, Workload};

use crate::tracer::{Tracer, ROOT};
use crate::{
    alternate, median, peak_rss_mb, phase_rate, rep_pairs, set_up, setup_s, timed, Args, Outcome,
};

/// Configurations per streamed run (a prefix of the enumeration order).
const STREAM_CAP: u64 = 10_000_000;
/// Prefix small enough to materialize for the streamed-vs-materialized
/// check.
const CHECK_CAP: u64 = 100_000;
/// Configurations decoded / model-evaluated per traced probe.
const DECODE_CAP: usize = 1_000_000;
const MODEL_CAP: usize = 20_000;
/// Threads of the timed end-to-end phases. One: on a 2-vCPU guest the
/// pool's speed depends on where the host places the second vCPU, which
/// no in-run statistic removes. The traced run reports the pool.
const PHASE_THREADS: Option<usize> = Some(1);
/// Nominal seconds of one untraced rep pair on the reference host.
const PAIR_S: f64 = 1.0;

/// The seeded inputs.
struct Inputs {
    dalek: Workload,
    dalek_types: Vec<TypeSpace>,
    /// The six catalog workloads, in catalog order.
    workloads: Vec<Workload>,
    fn4_types: Vec<TypeSpace>,
    /// `pareto_front` of the first `CHECK_CAP` DALEK configs evaluated
    /// materialized, as [`front_bits`] text: the reference the streamed
    /// frontier of that prefix must equal.
    prefix_front: String,
    /// Points on that frontier.
    prefix_points: usize,
}

/// Scale each profile's per-op core and memory demand by a seeded factor
/// in `[0.98, 1.02)`.
fn perturb(mut w: Workload, seed: u64, tag: u64) -> Workload {
    for (i, p) in w.profiles.iter_mut().enumerate() {
        let mut rng = FaultRng::from_key(&[seed, 0x6578_706c, tag, i as u64]);
        p.demand.cycles_per_op *= 0.98 + 0.04 * rng.unit();
        p.demand.mem_cycles_per_op *= 0.98 + 0.04 * rng.unit();
    }
    w
}

fn build(seed: u64) -> Inputs {
    let dalek = perturb(
        catalog::dalek("EP").expect("EP has a DALEK profile set"),
        seed,
        99,
    );
    let dalek_types = vec![
        TypeSpace::a9(10),
        TypeSpace::k10(10),
        TypeSpace::pi4(16),
        TypeSpace::opi5(16),
    ];
    let workloads = catalog::all()
        .into_iter()
        .enumerate()
        .map(|(i, w)| perturb(w, seed, i as u64))
        .collect();
    let fn4_types = vec![TypeSpace::a9(32), TypeSpace::k10(12)];
    let (prefix_front, prefix_points) = materialized_prefix(&dalek, &dalek_types);
    Inputs {
        dalek,
        dalek_types,
        workloads,
        fn4_types,
        prefix_front,
        prefix_points,
    }
}

/// `pareto_front(evaluate_space(..))` of the first `CHECK_CAP` configs
/// (one thread, which gives the same bits as the pool), as text, with its
/// point count. Each point carries its index in the enumeration order.
fn materialized_prefix(w: &Workload, types: &[TypeSpace]) -> (String, usize) {
    let prefix = configurations(types).take(CHECK_CAP as usize);
    let opts = EvalOptions {
        threads: PHASE_THREADS,
        ..EvalOptions::default()
    };
    let (evald, _) = evaluate_space_with(w, prefix, opts);
    let front = pareto_front(&evald);
    let bits = front_bits(front.iter().map(|e| {
        let idx = evald
            .iter()
            .position(|x| std::ptr::eq(x, *e))
            .expect("front points into the evaluated vector");
        (idx as u64, *e)
    }));
    (bits, front.len())
}

fn stream(inp: &Inputs, threads: Option<usize>, cap: u64) -> (Vec<ParetoPoint>, EvalStats) {
    let opts = StreamOptions {
        threads,
        max_configs: Some(cap),
        ..StreamOptions::default()
    };
    stream_pareto_front(&inp.dalek, &inp.dalek_types, opts)
}

/// Exact text of a frontier: equal strings mean the same configs with the
/// same f64 bits.
fn front_bits<'a>(points: impl Iterator<Item = (u64, &'a EvaluatedConfig)>) -> String {
    points
        .map(|(i, e)| {
            format!(
                "{i}:{:x}:{:x}:{:x};",
                e.job_time.to_bits(),
                e.job_energy.to_bits(),
                e.busy_power_w.to_bits()
            )
        })
        .collect()
}

fn stream_bits(front: &[ParetoPoint]) -> String {
    front_bits(front.iter().map(|p| (p.index, &p.eval)))
}

/// The materialized phase for one workload: cached sweep, then the front.
fn sweep(
    w: &Workload,
    types: &[TypeSpace],
    opts: EvalOptions,
) -> (Vec<EvaluatedConfig>, EvalStats) {
    evaluate_space_with(w, configurations(types), opts)
}

fn sweep_front_bits(evald: &[EvaluatedConfig]) -> String {
    front_bits(pareto_front(evald).into_iter().map(|e| (0, e)))
}

pub fn run(args: &Args, tracer: Option<&mut Tracer>, process_start: Instant) -> Outcome {
    let (setups, inp) = set_up(|| build(args.seed));
    let mut out = Outcome::default();
    check_prefix(&inp, &mut out);
    let fn4 = count_configurations(&inp.fn4_types);
    println!(
        "setup: DALEK space of {} configs (streaming the first {STREAM_CAP}), footnote-4 space of \
         {fn4} configs x {} workloads, pool of {} thread(s); median of {} set-ups {:.6} s, \
         first timed call {:.3} s after process start",
        count_configurations(&inp.dalek_types),
        inp.workloads.len(),
        enprop_explore::eval_threads(),
        setups.len(),
        median(&setups),
        process_start.elapsed().as_secs_f64()
    );
    match tracer {
        None => untraced(args, &inp, setups, &mut out),
        Some(tr) => traced(args, &inp, tr, &mut out),
    }
    out
}

/// The streamed frontier of a small prefix equals the materialized
/// `pareto_front(evaluate_space(..))` of that prefix, bit for bit.
fn check_prefix(inp: &Inputs, out: &mut Outcome) {
    let (front, stats) = stream(inp, None, CHECK_CAP);
    out.check(
        format!(
            "streamed frontier of the first {CHECK_CAP} configs equals the materialized one \
             ({} points)",
            inp.prefix_points
        ),
        stream_bits(&front) == inp.prefix_front,
    );
    out.check(
        format!(
            "prefix: evaluated {} + pruned {} = {CHECK_CAP}",
            stats.evaluated, stats.pruned
        ),
        stats.evaluated as u64 + stats.pruned == CHECK_CAP,
    );
    out.attempted += CHECK_CAP;
}

/// Checks on one streamed run; returns its frontier fingerprint.
fn check_stream(out: &mut Outcome, front: &[ParetoPoint], stats: &EvalStats) -> String {
    let finite = front
        .iter()
        .filter(|p| p.eval.job_time.is_finite() && p.eval.job_energy.is_finite())
        .count();
    out.attempted += STREAM_CAP;
    out.failed += (front.len() - finite) as u64;
    if stats.evaluated as u64 + stats.pruned != STREAM_CAP || front.is_empty() {
        out.check(
            format!(
                "stream: evaluated {} + pruned {} = {STREAM_CAP}, frontier of {}",
                stats.evaluated,
                stats.pruned,
                front.len()
            ),
            false,
        );
    }
    stream_bits(front)
}

/// One materialized sweep in brief: configs evaluated, how many of them
/// are not finite, and its frontier fingerprint.
fn sweep_summary(evald: &[EvaluatedConfig]) -> (usize, usize, String) {
    (evald.len(), non_finite(evald), sweep_front_bits(evald))
}

fn non_finite(evald: &[EvaluatedConfig]) -> usize {
    evald
        .iter()
        .filter(|e| !(e.job_time.is_finite() && e.job_energy.is_finite()))
        .count()
}

/// Counts one materialized sweep: every config attempted, a non-finite
/// one failed, and the whole space must be there.
fn check_sweep(out: &mut Outcome, len: usize, bad: usize, fn4: u64) {
    out.attempted += len as u64;
    out.failed += bad as u64;
    if len as u64 != fn4 {
        out.check(format!("sweep: {len} of {fn4} configs evaluated"), false);
    }
}

/// The same configs with the same f64 bits, in the same order.
fn same_bits(a: &[EvaluatedConfig], b: &[EvaluatedConfig]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.job_time.to_bits() == y.job_time.to_bits()
                && x.job_energy.to_bits() == y.job_energy.to_bits()
                && x.busy_power_w.to_bits() == y.busy_power_w.to_bits()
        })
}

fn untraced(args: &Args, inp: &Inputs, mut setups: Vec<f64>, out: &mut Outcome) {
    let fn4 = count_configurations(&inp.fn4_types);
    let one = EvalOptions {
        threads: PHASE_THREADS,
        ..EvalOptions::default()
    };
    let ((p1, streams), (p2, evals)) = alternate(
        rep_pairs(args.seconds, PAIR_S),
        &mut setups,
        || timed(|| build(args.seed)).0,
        || timed(|| stream(inp, PHASE_THREADS, STREAM_CAP)),
        || {
            // Each sweep is summarized and dropped inside the rep, so one
            // evaluated space is alive at a time. Only the sweeps and
            // their fronts are on the clock.
            let mut secs = 0.0;
            let mut swept = Vec::with_capacity(inp.workloads.len());
            for w in &inp.workloads {
                let (s, evald) = timed(|| {
                    let (evald, _) = sweep(w, &inp.fn4_types, one);
                    let n = pareto_front(&evald).len();
                    assert!(n > 0, "empty Pareto front");
                    evald
                });
                secs += s;
                swept.push(sweep_summary(&evald));
            }
            (secs, swept)
        },
    );
    let fronts: Vec<String> = streams
        .iter()
        .map(|(f, s)| check_stream(out, f, s))
        .collect();
    out.check(
        format!(
            "{} streamed runs give bit-identical frontiers",
            fronts.len()
        ),
        fronts.iter().all(|f| *f == fronts[0]),
    );
    let stats = &streams[0].1;
    println!(
        "stream: frontier {} points, {:.1}% pruned, peak buffer {} KiB",
        streams[0].0.len(),
        100.0 * stats.pruned as f64 / STREAM_CAP as f64,
        stats.peak_buffer_bytes / 1024
    );
    drop(streams);

    let mut sweeps: Vec<String> = Vec::new();
    for summary in evals.into_iter().flatten() {
        check_sweep(out, summary.0, summary.1, fn4);
        sweeps.push(summary.2);
    }
    let per_rep = inp.workloads.len();
    out.check(
        format!(
            "{} materialized sweeps give bit-identical frontiers",
            sweeps.len() / per_rep
        ),
        sweeps.chunks(per_rep).all(|c| c == &sweeps[..per_rep]),
    );
    let p1_ops = phase_rate("stream_configs_per_s", STREAM_CAP as f64, &p1);
    let swept = (fn4 * per_rep as u64) as f64;
    let p2_ops = phase_rate("sweep_configs_per_s", swept, &p2);
    out.metric("setup_s", setup_s(&setups), "s");
    out.metric("phase1_ops_per_s", p1_ops, "1/s");
    out.metric("phase2_ops_per_s", p2_ops, "1/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn traced(args: &Args, inp: &Inputs, tr: &mut Tracer, out: &mut Outcome) {
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let fn4 = count_configurations(&inp.fn4_types);
    let cap = STREAM_CAP as f64;

    // Interleaved: the untraced streamed phase (one thread, as in the
    // untraced run), then the same call on one thread and on the pool,
    // each under a span.
    let mut reference = Vec::new();
    let mut t1 = Vec::new();
    let mut pool = Vec::new();
    let mut fronts = Vec::new();
    let mut stats = None;
    let start = Instant::now();
    while reference.len() < 2 || start.elapsed() < 2 * quarter {
        let (s, (front, st)) = timed(|| stream(inp, PHASE_THREADS, STREAM_CAP));
        reference.push(s);
        fronts.push(check_stream(out, &front, &st));
        tr.begin(ROOT);
        let (s1, (front1, st1)) = tr.span("explore.stream.t1", || stream(inp, Some(1), STREAM_CAP));
        let (sp, (front_p, st_p)) =
            tr.span("explore.stream.pool", || stream(inp, None, STREAM_CAP));
        tr.end();
        t1.push(s1);
        pool.push(sp);
        fronts.push(check_stream(out, &front1, &st1));
        fronts.push(check_stream(out, &front_p, &st_p));
        stats = Some(st_p);
    }
    out.check(
        format!(
            "{} streamed runs (1 thread and pool) give bit-identical frontiers",
            fronts.len()
        ),
        fronts.iter().all(|f| *f == fronts[0]),
    );
    let stats = stats.expect("at least one traced stream");

    // Decode, sweep (uncached and cached), front and model, per workload.
    tr.begin(ROOT);
    let (decode_s, decoded) = tr.span("explore.decode", || {
        configurations(&inp.dalek_types).take(DECODE_CAP).count()
    });
    let mut uncached = 0.0;
    let mut cached = 0.0;
    let mut front_s = 0.0;
    let mut model_s = 0.0;
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut agree = true;
    for w in &inp.workloads {
        let (s, (evald_u, _)) = tr.span("explore.sweep.uncached", || {
            sweep(
                w,
                &inp.fn4_types,
                EvalOptions {
                    threads: PHASE_THREADS,
                    cache: false,
                },
            )
        });
        uncached += s;
        let (s, (evald, st)) = tr.span("explore.sweep.cached", || {
            sweep(
                w,
                &inp.fn4_types,
                EvalOptions {
                    threads: PHASE_THREADS,
                    cache: true,
                },
            )
        });
        cached += s;
        let c = st.cache.expect("cache was on");
        hits += c.hits;
        misses += c.misses;
        let (s, front) = tr.span("explore.pareto", || pareto_front(&evald).len());
        front_s += s;
        check_sweep(out, evald_u.len(), non_finite(&evald_u), fn4);
        check_sweep(out, evald.len(), non_finite(&evald), fn4);
        agree &= front > 0 && same_bits(&evald, &evald_u);
        let specs: Vec<_> = evald
            .iter()
            .take(MODEL_CAP)
            .map(|e| e.cluster.clone())
            .collect();
        let (s, sum) = tr.span("core.model", || {
            specs
                .into_iter()
                .map(|c| {
                    let m = ClusterModel::new(w.clone(), c);
                    m.job_time() + m.job_energy()
                })
                .sum::<f64>()
        });
        model_s += s;
        if !sum.is_finite() {
            out.check(format!("{}: model evaluations finite", w.name), false);
        }
    }
    tr.end();
    out.check(
        "six cached sweeps equal their uncached twins bit for bit, with non-empty fronts",
        agree,
    );

    let coverage = tr.print_table();
    out.check(
        format!(
            "layer self time covers {:.1}% of the traced wall time (>= 90%)",
            100.0 * coverage
        ),
        coverage >= 0.9,
    );
    let overhead = median(&t1) / median(&reference);
    println!("tracing overhead: traced call / untraced call = {overhead:.4}");
    let swept = (fn4 * inp.workloads.len() as u64) as f64;
    out.metric("trace.coverage", coverage, "ratio");
    out.metric("trace.overhead_ratio", overhead, "ratio");
    out.metric(
        "explore.decode.ns_per_config",
        decode_s * 1e9 / decoded as f64,
        "ns/config",
    );
    out.metric(
        "explore.stream.ns_per_config.t1",
        median(&t1) * 1e9 / cap,
        "ns/config",
    );
    out.metric(
        "explore.stream.ns_per_config.pool",
        median(&pool) * 1e9 / cap,
        "ns/config",
    );
    out.metric(
        "explore.stream.prune_ratio",
        stats.pruned as f64 / cap,
        "ratio",
    );
    out.metric(
        "explore.stream.frontier_len",
        stats.frontier_len as f64,
        "count",
    );
    out.metric(
        "explore.stream.peak_buffer_kb",
        stats.peak_buffer_bytes as f64 / 1024.0,
        "KiB",
    );
    out.metric(
        "explore.sweep.ns_per_config.uncached",
        uncached * 1e9 / swept,
        "ns/config",
    );
    out.metric(
        "explore.sweep.ns_per_config.cached",
        cached * 1e9 / swept,
        "ns/config",
    );
    out.metric(
        "explore.cache.hit_ratio",
        hits as f64 / (hits + misses) as f64,
        "ratio",
    );
    out.metric(
        "explore.pareto.ns_per_config",
        front_s * 1e9 / swept,
        "ns/config",
    );
    let evals = (MODEL_CAP * inp.workloads.len()) as f64;
    out.metric("core.model.ns_per_eval", model_s * 1e9 / evals, "ns/eval");
}
