//! Layer-attributed benchmark for the enprop serving controller, the
//! config-space explorer and the simulation stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_chaos --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload in its own process. The untraced run
//! (`--trace 0`) times two phases of the workload, checks every output and
//! prints the end-to-end metrics. The traced run (`--trace 1`) records
//! spans around each call into a layer's public functions, prints a
//! self-time table, writes the spans to `perfbench/out/` and prints the
//! per-layer metrics. The last line of standard output is always one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/METRICS.md` defines every metric and workload.

mod explore;
mod host;
mod serve;
mod tracer;
mod validate;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use tracer::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["serve_chaos", "serve_fleet", "explore", "validate"];

/// Set-ups before the first timed call. The untraced run adds one more
/// before every pair of timed reps; `setup_s` is the median of all.
const SETUP_REPS: usize = 3;

/// End-to-end metric names, in the order `BENCHMARK.json` lists them.
const END_TO_END: &[&str] = &[
    "setup_s",
    "phase1_ops_per_s",
    "phase2_ops_per_s",
    "peak_rss_mb",
];

/// Per-layer metric names, in the order `BENCHMARK.json` lists them. Every
/// traced run reports all of them; a layer the workload does not call
/// reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("serve.arrivals.ns_per_req", "ns/req"),
    ("serve.controller.ns_per_event", "ns/event"),
    ("serve.controller.events_per_req", "events/req"),
    ("serve.dispatch.useful_ratio", "ratio"),
    ("serve.dispatch.reroutes_per_req", "reroutes/req"),
    ("serve.plane.overhead_ratio", "ratio"),
    ("serve.snapshot.ms_per_window", "ms/window"),
    ("serve.snapshot.bytes_per_window", "B/window"),
    ("faults.topology.us_per_window", "us/window"),
    ("obs.recorder.overhead_ratio", "ratio"),
    ("serve.sim.p50_s", "s"),
    ("serve.sim.p999_s", "s"),
    ("serve.sim.j_per_req", "J/req"),
    ("explore.decode.ns_per_config", "ns/config"),
    ("explore.stream.ns_per_config.t1", "ns/config"),
    ("explore.stream.ns_per_config.pool", "ns/config"),
    ("explore.stream.prune_ratio", "ratio"),
    ("explore.stream.frontier_len", "count"),
    ("explore.stream.peak_buffer_kb", "KiB"),
    ("explore.sweep.ns_per_config.uncached", "ns/config"),
    ("explore.sweep.ns_per_config.cached", "ns/config"),
    ("explore.cache.hit_ratio", "ratio"),
    ("explore.pareto.ns_per_config", "ns/config"),
    ("core.model.ns_per_eval", "ns/eval"),
    ("core.model.table4_gap_pp", "pp"),
    ("nodesim.run.us_per_call", "us/call"),
    ("nodesim.engine.events_per_run", "events/run"),
    ("clustersim.compose.us_per_job", "us/job"),
    ("clustersim.service_pool.ms", "ms"),
    ("queueing.des.ns_per_job", "ns/job"),
    ("queueing.des.p999_s", "s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be > 0, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (the base of the failure share).
    pub attempted: u64,
    /// Operations that failed (the workload states what counts).
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Metrics as `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Record one correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Record one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Per-rep seconds and values of one timed phase.
pub type Reps<T> = (Vec<f64>, Vec<T>);

/// Rep pairs of an untraced run: `seconds` over `pair_s`, the nominal
/// seconds of one rep pair of the workload on the reference host, and at
/// least 3. The count depends only on the command line, so a parent and a
/// change run the same reps; a slower build or host takes longer instead.
pub fn rep_pairs(seconds: f64, pair_s: f64) -> usize {
    ((seconds / pair_s).round() as usize).max(3)
}

/// Time two phases for `pairs` reps each, alternating one rep of each, so
/// every slow spell of the host falls on both phases alike and each phase
/// samples the whole run. Each phase returns the seconds it measured (so
/// it can keep its own preparation off the clock) plus a value. `setup`
/// runs before every pair and its seconds are appended to `setups`, so
/// set-up time samples the run too.
pub fn alternate<A, B>(
    pairs: usize,
    setups: &mut Vec<f64>,
    mut setup: impl FnMut() -> f64,
    mut a: impl FnMut() -> (f64, A),
    mut b: impl FnMut() -> (f64, B),
) -> (Reps<A>, Reps<B>) {
    let mut ra: Reps<A> = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    let mut rb: Reps<B> = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for _ in 0..pairs {
        setups.push(setup());
        let (s, v) = a();
        ra.0.push(s);
        ra.1.push(v);
        let (s, v) = b();
        rb.0.push(s);
        rb.1.push(v);
    }
    (ra, rb)
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// Operations per second of one timed phase, from the fastest of its
/// reps (`secs` holds each rep's seconds; the rep count is fixed by
/// [`rep_pairs`]). The rest of a shared host only ever adds time, and it
/// does so in slow spells lasting seconds, so the fastest rep is the
/// steadiest estimate of what the code costs. The rate from the median rep
/// is printed beside it.
pub fn phase_rate(label: &str, ops: f64, secs: &[f64]) -> f64 {
    let best = secs.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "{label} {:.1} (fastest of {} reps; the median rep gives {:.1})",
        ops / best,
        secs.len(),
        ops / median(secs)
    );
    ops / best
}

/// `setup_s`: the median of every set-up of the run, printed with the
/// spread of the samples.
pub fn setup_s(setups: &[f64]) -> f64 {
    let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = setups.iter().copied().fold(0.0, f64::max);
    println!(
        "setup_s {:.6} (median of {} set-ups; fastest {fastest:.6}, slowest {slowest:.6})",
        median(setups),
        setups.len()
    );
    median(setups)
}

/// Build the workload's inputs `SETUP_REPS` times; return the seconds of
/// each build and the last inputs.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (s, v) = timed(&mut build);
        secs.push(s);
        last = Some(v);
    }
    (secs, last.expect("SETUP_REPS > 0"))
}

/// Peak resident set of this process, MiB (0 when the OS does not say).
pub fn peak_rss_mb() -> f64 {
    enprop_obs::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn result_line(out: &Outcome, correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // A non-finite value fails the run; `null` keeps the line JSON.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_owned()
        };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tracer = args.trace.then(|| Tracer::new(&args.workload));
    let mut out = match args.workload.as_str() {
        "serve_chaos" => serve::run(
            &args,
            serve::Scenario::Chaos,
            tracer.as_mut(),
            process_start,
        ),
        "serve_fleet" => serve::run(
            &args,
            serve::Scenario::Fleet,
            tracer.as_mut(),
            process_start,
        ),
        "explore" => explore::run(&args, tracer.as_mut(), process_start),
        "validate" => validate::run(&args, tracer.as_mut(), process_start),
        _ => unreachable!("workload names are validated by parse_args"),
    };

    let facts = host::facts(args.seed);
    println!("host: {facts}");
    if let Some(tr) = &tracer {
        match tr.write(&args, &facts) {
            Ok(path) => println!("spans: {} spans written to {path}", tr.len()),
            Err(e) => eprintln!("perfbench: cannot write the span file: {e}"),
        }
    }

    let mut correct = true;
    for (name, ok) in &out.checks {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    // A failed check counts as a failed operation.
    out.failed += out.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    if args.trace {
        // Every traced run reports the full per-layer set, in order; a
        // layer this workload does not call reads 0.
        for (name, _, _) in &out.metrics {
            if !LAYER_METRICS.iter().any(|(n, _)| n == name) {
                eprintln!("perfbench: {name} is not a per-layer metric");
                correct = false;
            }
        }
        out.metrics = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = out
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.1);
                (name, value, unit)
            })
            .collect();
    } else {
        let reported: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
        if reported != END_TO_END {
            eprintln!("perfbench: metric set {reported:?} differs from {END_TO_END:?}");
            correct = false;
        }
    }
    for (name, value, _) in &out.metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            correct = false;
        }
    }
    if out.attempted == 0 {
        eprintln!("perfbench: no operation attempted");
        correct = false;
    }
    println!(
        "fail_frac: {} failed of {} attempted = {:.6}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", result_line(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
