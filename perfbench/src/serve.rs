//! `serve_chaos` and `serve_fleet`: the online serving controller in
//! virtual time, under per-node faults (and, on the fleet, correlated
//! rack/PDU/power-emergency faults with a checkpoint at every window).
//!
//! Phase 1 serves an open-loop synthetic stream (`enprop serve`); phase 2
//! replays the same pre-generated schedule (`enprop replay`). Both must
//! give the bit-identical `ServeReport`.

use std::time::{Duration, Instant};

use enprop_clustersim::ClusterSpec;
use enprop_faults::{
    DomainFaultKind, DomainFaultProfile, FaultKind, FaultPlan, GroupFaultProfile, MtbfModel,
    Topology, TopologyFaultPlan,
};
use enprop_obs::{MemoryRecorder, NoopRecorder, Recorder};
use enprop_serve::{
    cluster_capacity_ops_s, default_ops_per_request, Arrival, ArrivalModel, ArrivalSource,
    Controller, ReplayCursor, RunHooks, RunOutcome, ServeConfig, ServeReport, SyntheticArrivals,
};
use enprop_workloads::{catalog, Workload};

use crate::tracer::{Tracer, ROOT};
use crate::{
    alternate, median, peak_rss_mb, phase_rate, rep_pairs, set_up, setup_s, timed, Args, Outcome,
};

/// Which serving scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// 6 A9 + 2 K10, Poisson at 0.6 of capacity, per-node faults.
    Chaos,
    /// 384 A9 + 128 K10, diurnal load, per-node + topology faults, a
    /// checkpoint at every closed window.
    Fleet,
}

/// Requests per serving run.
const CHAOS_REQUESTS: u64 = 500_000;
const FLEET_REQUESTS: u64 = 100_000;
/// Nominal seconds of one untraced rep pair on the reference host.
const CHAOS_PAIR_S: f64 = 0.8;
const FLEET_PAIR_S: f64 = 0.9;
/// Topology fault windows timed per traced run.
const TOPOLOGY_WINDOWS: u32 = 2_000;

/// Seed of the fault scenario and of the controller's own randomness. The
/// scenario is part of the workload (plan seed 7 is the `serve_replay`
/// gate's), so the run seed varies the traffic, not the amount of
/// failure: with seeded faults, fault timing alone moved `serve_fleet`
/// throughput by about 12% between seeds through snapshot sizes.
const SCENARIO_SEED: u64 = 7;

/// Everything one serving run needs; the seed draws the traffic.
struct Inputs {
    scenario: Scenario,
    seed: u64,
    workload: Workload,
    cluster: ClusterSpec,
    plan: FaultPlan,
    topo: Option<TopologyFaultPlan>,
    cfg: ServeConfig,
    model: ArrivalModel,
    requests: u64,
    ops: f64,
    /// The generated open-loop schedule phase 2 replays.
    schedule: Vec<Arrival>,
}

impl Inputs {
    fn arrivals(&self) -> SyntheticArrivals {
        SyntheticArrivals::new(self.model, self.requests, self.ops, 0.2, self.seed)
            .expect("arrival model is valid")
    }
}

fn node_faults(seed: u64, groups: usize) -> FaultPlan {
    let profile = GroupFaultProfile {
        mtbf: MtbfModel::Exponential { mtbf_s: 120.0 },
        kinds: vec![
            (0.5, FaultKind::Crash),
            (0.3, FaultKind::Stall { duration_s: 2.0 }),
            (0.2, FaultKind::Straggler { slowdown: 3.0 }),
        ],
    };
    FaultPlan::uniform(seed, profile, groups)
}

fn topology_faults(seed: u64, nodes: usize) -> TopologyFaultPlan {
    let topology = Topology::new(nodes, 16, 4).expect("valid topology");
    TopologyFaultPlan {
        seed: seed ^ 0x746f_706f,
        topology,
        rack: DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 120.0 },
            kinds: vec![
                (0.7, DomainFaultKind::RackCrash),
                (0.3, DomainFaultKind::NetworkPartition { duration_s: 2.0 }),
            ],
        },
        pdu: DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 1_000.0 },
            kinds: vec![(1.0, DomainFaultKind::PduLoss)],
        },
        cluster: DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: 8.0 },
            kinds: vec![(
                1.0,
                DomainFaultKind::PowerEmergency {
                    cap_w: 6_000.0,
                    duration_s: 3.0,
                },
            )],
        },
    }
}

fn build(scenario: Scenario, seed: u64) -> Inputs {
    let workload = catalog::by_name("memcached").expect("memcached is in the catalog");
    let (cluster, requests) = match scenario {
        Scenario::Chaos => (ClusterSpec::a9_k10(6, 2), CHAOS_REQUESTS),
        Scenario::Fleet => (ClusterSpec::a9_k10(384, 128), FLEET_REQUESTS),
    };
    let ops = default_ops_per_request(&workload, &cluster).expect("cluster has capacity");
    let capacity = cluster_capacity_ops_s(&workload, &cluster).expect("cluster has capacity");
    let model = match scenario {
        Scenario::Chaos => ArrivalModel::Poisson {
            rate: 0.6 * capacity / ops,
        },
        Scenario::Fleet => ArrivalModel::Diurnal {
            base_rate: 0.25 * capacity / ops,
            peak_rate: 0.65 * capacity / ops,
            period_s: 20.0,
        },
    };
    let plan = node_faults(SCENARIO_SEED, cluster.groups.len());
    let topo = (scenario == Scenario::Fleet)
        .then(|| topology_faults(SCENARIO_SEED, cluster.node_count() as usize));
    let mut cfg = ServeConfig::new(SCENARIO_SEED);
    cfg.repair_s = 15.0;
    if scenario == Scenario::Fleet {
        // A group here is 128 or 384 nodes: one rack's worth of timeouts
        // must not open the breaker on the whole group.
        cfg.breaker_failures = 64;
    }
    let mut inputs = Inputs {
        scenario,
        seed,
        workload,
        cluster,
        plan,
        topo,
        cfg,
        model,
        requests,
        ops,
        schedule: Vec::new(),
    };
    let mut gen = inputs.arrivals();
    inputs.schedule = std::iter::from_fn(|| gen.next_arrival()).collect();
    inputs
}

/// Bytes and count of the snapshots one run's checkpoint hook received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Snapshots {
    count: u64,
    bytes: u64,
}

/// What feeds a controller run.
#[derive(Debug)]
enum Feed<'s> {
    /// The lazy synthetic generator (arrival generation inside the run).
    Synthetic,
    /// A pre-generated schedule, replayed from the start. The cursor is
    /// lent to the run and handed back, so no rep copies the schedule.
    Replay(&'s mut ReplayCursor),
}

/// One controller run. Returns the seconds `Controller::run_full` took
/// (source construction excluded), the report and the snapshot tally.
/// With a tracer, the call runs inside a span named `span`.
fn serve_once<R: Recorder>(
    inp: &Inputs,
    cfg: &ServeConfig,
    feed: Feed<'_>,
    checkpoint: bool,
    rec: &mut R,
    tracer: Option<(&mut Tracer, &'static str)>,
) -> (f64, ServeReport, Snapshots) {
    let mut lent = None;
    let mut source = match feed {
        Feed::Synthetic => ArrivalSource::Synthetic(inp.arrivals()),
        Feed::Replay(cursor) => {
            cursor.seek(0).expect("position 0 is always valid");
            let schedule = std::mem::replace(cursor, ReplayCursor::new(Vec::new()));
            lent = Some(cursor);
            ArrivalSource::Replay(schedule)
        }
    };
    let mut snaps = Snapshots::default();
    // The checkpoint sink keeps the latest snapshot in memory, as a
    // checkpoint file that each window overwrites would, without disk I/O.
    let mut latest = String::new();
    let mut hook = |s: &str| {
        snaps.count += 1;
        snaps.bytes += s.len() as u64;
        latest.clear();
        latest.push_str(s);
    };
    let mut hooks = RunHooks {
        live: &mut |_| {},
        checkpoint: if checkpoint { Some(&mut hook) } else { None },
        kill_after_events: None,
    };
    let call = || {
        Controller::run_full(
            &inp.workload,
            &inp.cluster,
            &inp.plan,
            inp.topo.as_ref(),
            cfg,
            &mut source,
            rec,
            &mut hooks,
        )
    };
    let (secs, outcome) = match tracer {
        Some((tr, name)) => tr.span(name, call),
        None => timed(call),
    };
    if let (Some(cursor), ArrivalSource::Replay(schedule)) = (lent, source) {
        *cursor = schedule;
    }
    let report = match outcome {
        Ok(RunOutcome::Completed(r)) => *r,
        Ok(RunOutcome::Killed { .. }) => panic!("no kill hook was installed"),
        Err(e) => panic!("serving run failed: {e}"),
    };
    (secs, report, snaps)
}

/// Exact text of a report: equal strings mean bit-identical fields.
fn fingerprint(r: &ServeReport) -> String {
    format!("{r:?}")
}

fn report_checks(out: &mut Outcome, label: &str, inp: &Inputs, r: &ServeReport) {
    out.check(
        format!("{label}: conservation ({})", r.conservation_line()),
        r.conservation_ok(),
    );
    out.check(
        format!(
            "{label}: arrivals {} = schedule length {}",
            r.arrivals,
            inp.schedule.len()
        ),
        r.arrivals == inp.schedule.len() as u64,
    );
    out.check(
        format!(
            "{label}: energy {} J and p99.9 {} s finite",
            r.energy_j, r.p999_s
        ),
        r.energy_j.is_finite() && r.energy_j > 0.0 && r.p999_s.is_finite(),
    );
}

fn count_failures(out: &mut Outcome, r: &ServeReport) {
    out.attempted += r.arrivals;
    out.failed += r.shed() + r.in_flight_at_stop;
}

fn print_report(r: &ServeReport, snaps: Snapshots) {
    println!(
        "sim: {} arrivals, {} completions, {} shed, {} in flight at stop, {} events, \
         {} timeouts, {} reroutes, {} crashes, {} rack crashes, {} partitions, {} PDU losses, \
         {} power emergencies, {} emergency actions, {} checkpoints ({} B)",
        r.arrivals,
        r.completions,
        r.shed(),
        r.in_flight_at_stop,
        r.events,
        r.timeouts,
        r.reroutes,
        r.crashes,
        r.rack_crashes,
        r.partitions,
        r.pdu_losses,
        r.power_emergencies,
        r.emergency_actions,
        snaps.count,
        snaps.bytes
    );
    println!(
        "sim_p50_s {} sim_p999_s {} sim_j_per_req {} horizon {:.1} s",
        r.p50_s,
        r.p999_s,
        r.energy_j / r.completions.max(1) as f64,
        r.horizon_s
    );
}

pub fn run(
    args: &Args,
    scenario: Scenario,
    tracer: Option<&mut Tracer>,
    process_start: Instant,
) -> Outcome {
    let (setups, inp) = set_up(|| build(scenario, args.seed));
    println!(
        "setup: {} arrivals generated on {} ({} nodes), median of {} set-ups {:.6} s, \
         first timed call {:.3} s after process start",
        inp.schedule.len(),
        inp.cluster.label(),
        inp.cluster.node_count(),
        setups.len(),
        median(&setups),
        process_start.elapsed().as_secs_f64()
    );
    let mut out = Outcome::default();
    match tracer {
        None => untraced(args, &inp, setups, &mut out),
        Some(tr) => traced(args, &inp, tr, &mut out),
    }
    out
}

fn untraced(args: &Args, inp: &Inputs, mut setups: Vec<f64>, out: &mut Outcome) {
    let checkpoint = inp.scenario == Scenario::Fleet;
    fn run(inp: &Inputs, feed: Feed<'_>, checkpoint: bool) -> (f64, (ServeReport, Snapshots)) {
        let (s, r, snaps) = serve_once(inp, &inp.cfg, feed, checkpoint, &mut NoopRecorder, None);
        (s, (r, snaps))
    }
    let pair_s = match inp.scenario {
        Scenario::Chaos => CHAOS_PAIR_S,
        Scenario::Fleet => FLEET_PAIR_S,
    };
    let mut cursor = ReplayCursor::new(inp.schedule.clone());
    let ((p1, runs1), (p2, runs2)) = alternate(
        rep_pairs(args.seconds, pair_s),
        &mut setups,
        || timed(|| build(inp.scenario, inp.seed)).0,
        || run(inp, Feed::Synthetic, checkpoint),
        || run(inp, Feed::Replay(&mut cursor), checkpoint),
    );
    let (first, first_snaps) = &runs1[0];
    print_report(first, *first_snaps);
    report_checks(out, "synthetic", inp, first);
    let fp = fingerprint(first);
    // Snapshots embed the source cursor, which differs between a generator
    // and a replay, so they are compared within a feed only.
    let same1 = runs1
        .iter()
        .all(|(r, s)| fingerprint(r) == fp && s == first_snaps);
    let same2 = runs2
        .iter()
        .all(|(r, s)| fingerprint(r) == fp && *s == runs2[0].1);
    out.check(
        format!("{} synthetic reps bit-identical", runs1.len()),
        same1,
    );
    out.check(
        format!("{} replay reps bit-identical to synthetic", runs2.len()),
        same2,
    );
    if checkpoint {
        out.check(
            format!("{} checkpoints taken", first_snaps.count),
            first_snaps.count > 0,
        );
    }
    for (r, _) in runs1.iter().chain(&runs2) {
        count_failures(out, r);
    }
    let req = inp.requests as f64;
    let p1_ops = phase_rate("sim_req_per_s", req, &p1);
    let p2_ops = phase_rate("replay_req_per_s", req, &p2);
    out.metric("setup_s", setup_s(&setups), "s");
    out.metric("phase1_ops_per_s", p1_ops, "1/s");
    out.metric("phase2_ops_per_s", p2_ops, "1/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn traced(args: &Args, inp: &Inputs, tr: &mut Tracer, out: &mut Outcome) {
    let fleet = inp.scenario == Scenario::Fleet;
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);

    // Interleaved pairs: the untraced lead phase as one call (outside any
    // span), then the same work split into layer calls under a root span:
    // arrival generation, then the controller on the generated schedule.
    let mut reference = Vec::new();
    let mut arrivals_s = Vec::new();
    let mut controller_s = Vec::new();
    let mut reports = Vec::new();
    let start = Instant::now();
    while reference.len() < 3 || start.elapsed() < 2 * quarter {
        let (s, r, snaps) = serve_once(
            inp,
            &inp.cfg,
            Feed::Synthetic,
            fleet,
            &mut NoopRecorder,
            None,
        );
        reference.push(s);
        reports.push((r, snaps));

        tr.begin(ROOT);
        let (a, schedule) = tr.span("serve.arrivals", || {
            let mut gen = inp.arrivals();
            std::iter::from_fn(|| gen.next_arrival()).collect::<Vec<_>>()
        });
        let (c, r, snaps) = serve_once(
            inp,
            &inp.cfg,
            Feed::Replay(&mut ReplayCursor::new(schedule)),
            fleet,
            &mut NoopRecorder,
            Some((&mut *tr, "serve.controller")),
        );
        tr.end();
        arrivals_s.push(a);
        controller_s.push(c);
        reports.push((r, snaps));
    }
    // The traced controller run replays, so its snapshots are the ones
    // the per-window figures use.
    let (report, snaps) = reports[1].clone();
    print_report(&report, snaps);
    report_checks(out, "traced", inp, &report);
    let fp = fingerprint(&report);
    out.check(
        format!("{} runs (untraced and traced) bit-identical", reports.len()),
        reports
            .iter()
            .all(|(r, s)| fingerprint(r) == fp && s.count == snaps.count),
    );
    for (r, _) in &reports {
        count_failures(out, r);
    }
    let controller = median(&controller_s);

    // Attribution probes, each a controller call under its own span.
    tr.begin(ROOT);
    let probe_budget = quarter / 2;
    let mut off_cfg = inp.cfg.clone();
    off_cfg.obs_window_s = 0.0;
    let mut cursor = ReplayCursor::new(inp.schedule.clone());
    let plane_off = probe(probe_budget, || {
        let span = Some((&mut *tr, "serve.controller.plane_off"));
        serve_once(
            inp,
            &off_cfg,
            Feed::Replay(&mut cursor),
            false,
            &mut NoopRecorder,
            span,
        )
        .0
    });
    let hook_off = if fleet {
        probe(probe_budget, || {
            let span = Some((&mut *tr, "serve.controller.hook_off"));
            serve_once(
                inp,
                &inp.cfg,
                Feed::Replay(&mut cursor),
                false,
                &mut NoopRecorder,
                span,
            )
            .0
        })
    } else {
        controller
    };
    // Instrumentation cost: the in-memory recorder the CLI's trace path
    // uses, against the no-op one.
    let recorder = if fleet {
        0.0
    } else {
        probe(probe_budget, || {
            let span = Some((&mut *tr, "serve.controller.recorder"));
            let mut rec = MemoryRecorder::new();
            serve_once(
                inp,
                &inp.cfg,
                Feed::Replay(&mut cursor),
                false,
                &mut rec,
                span,
            )
            .0
        }) / controller
    };
    // Correlated-fault sampling, one call per fault window.
    let topology_us = match &inp.topo {
        Some(topo) => {
            let mut events = 0usize;
            let mut secs = 0.0;
            for w in 0..TOPOLOGY_WINDOWS {
                let (s, n) = tr.span("faults.topology", || {
                    topo.events_for_window(inp.cfg.seed, w, inp.cfg.fault_window_s)
                        .len()
                });
                secs += s;
                events += n;
            }
            println!("faults.topology: {events} domain events over {TOPOLOGY_WINDOWS} windows");
            secs * 1e6 / f64::from(TOPOLOGY_WINDOWS)
        }
        None => 0.0,
    };
    tr.end();

    let coverage = tr.print_table();
    out.check(
        format!(
            "layer self time covers {:.1}% of the traced wall time (>= 90%)",
            100.0 * coverage
        ),
        coverage >= 0.9,
    );
    let req = inp.requests as f64;
    let overhead = (median(&arrivals_s) + controller) / median(&reference);
    println!("tracing overhead: traced split / untraced call = {overhead:.4}");
    let r = &report;
    out.metric("trace.coverage", coverage, "ratio");
    out.metric("trace.overhead_ratio", overhead, "ratio");
    out.metric(
        "serve.arrivals.ns_per_req",
        median(&arrivals_s) * 1e9 / req,
        "ns/req",
    );
    out.metric(
        "serve.controller.ns_per_event",
        controller * 1e9 / r.events as f64,
        "ns/event",
    );
    out.metric(
        "serve.controller.events_per_req",
        r.events as f64 / req,
        "events/req",
    );
    out.metric(
        "serve.dispatch.useful_ratio",
        r.completions as f64 / (r.completions + r.timeouts) as f64,
        "ratio",
    );
    out.metric(
        "serve.dispatch.reroutes_per_req",
        r.reroutes as f64 / req,
        "reroutes/req",
    );
    out.metric("serve.plane.overhead_ratio", hook_off / plane_off, "ratio");
    if fleet && snaps.count > 0 {
        let n = snaps.count as f64;
        out.metric(
            "serve.snapshot.ms_per_window",
            (controller - hook_off) * 1e3 / n,
            "ms/window",
        );
        out.metric(
            "serve.snapshot.bytes_per_window",
            snaps.bytes as f64 / n,
            "B/window",
        );
        out.metric("faults.topology.us_per_window", topology_us, "us/window");
    } else {
        out.metric("obs.recorder.overhead_ratio", recorder, "ratio");
    }
    out.metric("serve.sim.p50_s", r.p50_s, "s");
    out.metric("serve.sim.p999_s", r.p999_s, "s");
    out.metric(
        "serve.sim.j_per_req",
        r.energy_j / r.completions as f64,
        "J/req",
    );
}

/// Median seconds of `f` over at least two calls and `budget`.
fn probe(budget: Duration, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 2 || start.elapsed() < budget {
        secs.push(f());
    }
    median(&secs)
}
