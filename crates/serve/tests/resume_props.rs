#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! Checkpoint/resume property tests (DESIGN.md §16): a serving run killed
//! at *any* event and resumed from its last crash-consistent snapshot
//! must be indistinguishable from the uninterrupted run —
//!
//! - **report identity**: the resumed run's [`enprop_serve::ServeReport`]
//!   is bit-for-bit the uninterrupted run's (joule-for-joule energy,
//!   identical counters and quantiles);
//! - **event identity**: the resumed run's telemetry stream is exactly
//!   the uninterrupted stream's suffix from the resume point on;
//! - **snapshot identity**: every checkpoint the killed run wrote equals
//!   the uninterrupted run's checkpoint of the same index — a snapshot
//!   never depends on the run's future.
//!
//! The scenarios layer correlated domain faults (rack crashes, PDU
//! losses, partitions, power emergencies) on top of per-node chaos, so
//! the snapshot round-trips the full §16 state surface: breakers,
//! emergency ladder, unpowered nodes and the domain event stream.

use enprop_clustersim::ClusterSpec;
use enprop_faults::{
    DomainFaultKind, DomainFaultProfile, EnpropError, FaultKind, FaultPlan, GroupFaultProfile,
    MtbfModel, Topology, TopologyFaultPlan,
};
use enprop_obs::MemoryRecorder;
use enprop_serve::{
    parse_trace, ArrivalModel, ArrivalSource, Controller, RunHooks, RunOutcome, ServeConfig,
    ServeReport, SyntheticArrivals,
};
use enprop_workloads::{catalog, Workload};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Scenario {
    workload: Workload,
    cluster: ClusterSpec,
    plan: FaultPlan,
    topo: TopologyFaultPlan,
    cfg: ServeConfig,
    requests: u64,
}

fn scenario(seed: u64, a9: u32, requests: u64, rack_mtbf_s: f64, em_cap_w: f64) -> Scenario {
    let workload = catalog::by_name("EP").unwrap();
    let cluster = ClusterSpec::a9_k10(a9, 1);
    let profile = GroupFaultProfile {
        mtbf: MtbfModel::Exponential { mtbf_s: 15.0 },
        kinds: vec![
            (1.0, FaultKind::Crash),
            (1.0, FaultKind::Stall { duration_s: 1.0 }),
            (1.0, FaultKind::Straggler { slowdown: 3.0 }),
        ],
    };
    let plan = FaultPlan::uniform(seed, profile, cluster.groups.len());
    let n_nodes: usize = cluster.groups.iter().map(|g| g.count as usize).sum();
    let topo = TopologyFaultPlan {
        seed,
        topology: Topology::new(n_nodes, 2, 2).unwrap(),
        rack: DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: rack_mtbf_s },
            kinds: vec![
                (1.0, DomainFaultKind::RackCrash),
                (1.0, DomainFaultKind::NetworkPartition { duration_s: 2.0 }),
            ],
        },
        pdu: DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: rack_mtbf_s * 2.0 },
            kinds: vec![(1.0, DomainFaultKind::PduLoss)],
        },
        cluster: DomainFaultProfile {
            mtbf: MtbfModel::Exponential { mtbf_s: rack_mtbf_s },
            kinds: vec![(
                1.0,
                DomainFaultKind::PowerEmergency { cap_w: em_cap_w, duration_s: 8.0 },
            )],
        },
    };
    let mut cfg = ServeConfig::new(seed);
    cfg.repair_s = 5.0;
    cfg.breaker_failures = 3; // aggressive: make breakers trip in-scenario
    cfg.breaker_open_s = 2.0;
    cfg.max_pending = 64; // small: exercise backpressure shedding
    cfg.obs_window_s = 0.25; // frequent window closes → many checkpoints per run
    Scenario { workload, cluster, plan, topo, cfg, requests }
}

fn source_for(s: &Scenario) -> ArrivalSource {
    let ops = enprop_serve::default_ops_per_request(&s.workload, &s.cluster).unwrap();
    let rate =
        0.9 * enprop_serve::cluster_capacity_ops_s(&s.workload, &s.cluster).unwrap() / ops;
    ArrivalSource::Synthetic(
        SyntheticArrivals::new(ArrivalModel::Poisson { rate }, s.requests, ops, 0.3, s.cfg.seed)
            .unwrap()
            .with_best_effort(0.4)
            .unwrap(),
    )
}

struct Run {
    outcome: RunOutcome,
    rec: MemoryRecorder,
    checkpoints: Vec<String>,
}

fn run(s: &Scenario, kill_after_events: Option<u64>) -> Run {
    let mut source = source_for(s);
    let mut rec = MemoryRecorder::new();
    let mut checkpoints: Vec<String> = Vec::new();
    let mut sink = |snap: &str| checkpoints.push(snap.to_string());
    let mut hooks = RunHooks {
        live: &mut |_| {},
        checkpoint: Some(&mut sink),
        kill_after_events,
    };
    let outcome = Controller::run_full(
        &s.workload,
        &s.cluster,
        &s.plan,
        Some(&s.topo),
        &s.cfg,
        &mut source,
        &mut rec,
        &mut hooks,
    )
    .expect("a valid scenario must not error");
    Run { outcome, rec, checkpoints }
}

fn try_resume(
    s: &Scenario,
    snapshot: &str,
) -> Result<(RunOutcome, MemoryRecorder), EnpropError> {
    let mut source = source_for(s);
    let mut rec = MemoryRecorder::new();
    let mut hooks = RunHooks { live: &mut |_| {}, checkpoint: None, kill_after_events: None };
    let outcome = Controller::resume_full(
        &s.workload,
        &s.cluster,
        &s.plan,
        Some(&s.topo),
        &s.cfg,
        &mut source,
        &mut rec,
        snapshot,
        &mut hooks,
    )?;
    Ok((outcome, rec))
}

fn resume(s: &Scenario, snapshot: &str) -> (ServeReport, MemoryRecorder) {
    let (outcome, rec) =
        try_resume(s, snapshot).expect("resume from a good snapshot must not error");
    match outcome {
        RunOutcome::Completed(r) => (*r, rec),
        RunOutcome::Killed { .. } => panic!("no kill hook installed"),
    }
}

/// `ServeReport` equality through Debug text: identical runs can both
/// report `NaN` quantiles (nothing completed in a window), which `==`
/// would reject. Shortest-roundtrip float formatting keeps this
/// bit-exact for every non-NaN value.
fn same_report(a: &ServeReport, b: &ServeReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill at any event, resume from the last checkpoint: the combined
    /// run is event-for-event and joule-for-joule the uninterrupted run.
    #[test]
    fn kill_anywhere_resume_is_identical(
        seed in 0u64..10_000,
        a9 in 1u32..4,
        requests in 150u64..500,
        rack_mtbf_s in 8.0f64..40.0,
        em_cap_w in 20.0f64..200.0,
        kill_frac in 0.05f64..0.95,
    ) {
        let s = scenario(seed, a9, requests, rack_mtbf_s, em_cap_w);

        // The uninterrupted reference run.
        let full = run(&s, None);
        let RunOutcome::Completed(report_a) = &full.outcome else {
            panic!("uninterrupted run must complete");
        };
        prop_assert!(report_a.conservation_ok(), "{}", report_a.conservation_line());
        prop_assume!(!full.checkpoints.is_empty()); // needs ≥ 1 window close

        // Kill the same scenario mid-flight.
        let kill_at = 1 + (kill_frac * report_a.events as f64) as u64;
        let killed = run(&s, Some(kill_at));
        let RunOutcome::Killed { events, .. } = killed.outcome else {
            // The kill landed past the natural end; nothing to resume.
            return Ok(());
        };
        prop_assert!(events >= kill_at);
        prop_assume!(!killed.checkpoints.is_empty());

        // Snapshot identity: everything the killed run checkpointed is
        // what the uninterrupted run checkpointed at the same index.
        prop_assert!(killed.checkpoints.len() <= full.checkpoints.len());
        for (i, (k, f)) in killed.checkpoints.iter().zip(&full.checkpoints).enumerate() {
            prop_assert_eq!(k, f, "checkpoint {} diverged", i);
        }

        // Resume from the killed run's last checkpoint.
        let snap = killed.checkpoints.last().unwrap();
        let (report_r, rec_r) = resume(&s, snap);
        prop_assert!(
            same_report(report_a, &report_r),
            "resumed report diverged:\n  full   {report_a:?}\n  resume {report_r:?}"
        );
        prop_assert_eq!(report_a.energy_j.to_bits(), report_r.energy_j.to_bits());

        // Event identity: the resumed telemetry is exactly the tail of
        // the uninterrupted stream.
        let full_events = full.rec.events();
        let resumed_events = rec_r.events();
        prop_assert!(resumed_events.len() <= full_events.len());
        prop_assert_eq!(
            &full_events[full_events.len() - resumed_events.len()..],
            resumed_events
        );

        // And resuming twice is deterministic.
        let (report_r2, rec_r2) = resume(&s, snap);
        prop_assert!(same_report(&report_r, &report_r2));
        prop_assert_eq!(rec_r.events(), rec_r2.events());
    }
}

/// A snapshot cut off mid-write (any prefix that loses the trailer) is a
/// typed configuration error — exit 2, never a silently-divergent resume.
#[test]
fn truncated_snapshot_is_a_typed_error() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    assert!(matches!(full.outcome, RunOutcome::Completed(_)));
    let snap = full.checkpoints.first().expect("at least one checkpoint");

    // Shear off the trailer and half a line.
    let cut = &snap[..snap.len() - snap.lines().last().unwrap().len() - 10];
    let Err(err) = try_resume(&s, cut) else {
        panic!("truncated snapshot must not resume");
    };
    assert_eq!(err.exit_code(), 2, "InvalidConfig → exit 2: {err}");
    let msg = err.to_string();
    assert!(msg.contains("truncated"), "must say truncated: {msg}");
}

/// `line` with the numeric value of `"key"` replaced by `value`.
fn set_field(line: &str, key: &str, value: u64) -> String {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag).unwrap() + tag.len();
    let len = line[start..].find(|ch: char| !ch.is_ascii_digit()).unwrap();
    format!("{}{value}{}", &line[..start], &line[start + len..])
}

/// A checkpoint whose trailer still counts its lines but whose `ev` or
/// `req` lines name a node, rack or PDU the cluster does not have resumes
/// as a typed configuration error — exit 2, never an index panic.
#[test]
fn out_of_range_event_targets_are_typed_errors() {
    let s = scenario(7, 2, 400, 3.0, 60.0);
    let full = run(&s, None);
    // (what, line marker, field to corrupt)
    let cases = [
        ("completion node", "\"sec\":\"ev\",", "\"k\":1,", "a"),
        ("fault-window node", "\"sec\":\"ev\",", "\"k\":5,", "a"),
        ("rack", "\"sec\":\"ev\",", "\"k\":13,", "c"),
        ("request loc_node", "\"sec\":\"req\",", "\"loc\":2,", "loc_node"),
    ];
    for (what, sec, marker, key) in cases {
        let rack = key == "c";
        let (snap, lineno) = full
            .checkpoints
            .iter()
            .find_map(|snap| {
                snap.lines()
                    .position(|l| {
                        l.contains(sec)
                            && l.contains(marker)
                            && (!rack || l.contains("\"b\":0,"))
                    })
                    .map(|i| (snap, i))
            })
            .unwrap_or_else(|| panic!("no checkpoint carries a {what} line"));
        let corrupt: String = snap
            .lines()
            .enumerate()
            .map(|(i, l)| if i == lineno { set_field(l, key, 999) } else { l.to_string() })
            .map(|l| l + "\n")
            .collect();
        let Err(err) = try_resume(&s, &corrupt) else {
            panic!("an out-of-range index must not resume");
        };
        assert_eq!(err.exit_code(), 2, "{what}: InvalidConfig → exit 2: {err}");
        assert!(err.to_string().contains("out of range"), "{what}: {err}");
    }
}

/// A checkpoint whose `series` line carries a window length other than the
/// configured `obs_window_s` is a typed configuration error (exit 2). The
/// window length is configuration, so restore compares it instead of
/// adopting it; adopting it hung or silently changed the resumed run.
#[test]
fn series_geometry_mismatch_is_a_typed_error() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    let snap = full.checkpoints.first().expect("at least one checkpoint");
    for window_s in [1, 0.5f64.to_bits()] {
        let corrupt: String = snap
            .lines()
            .map(|l| {
                if l.contains("\"sec\":\"series\",") {
                    set_field(l, "window_s", window_s)
                } else {
                    l.to_string()
                }
            })
            .map(|l| l + "\n")
            .collect();
        assert_ne!(&corrupt, snap);
        let Err(err) = try_resume(&s, &corrupt) else {
            panic!("a foreign window length must not resume");
        };
        assert_eq!(err.exit_code(), 2, "InvalidConfig → exit 2: {err}");
        assert!(err.to_string().contains("geometry"), "{err}");
    }
}

/// A checkpoint whose run counters are large enough to overflow the
/// resumed run — `300 * n_arrivals` in the livelock guard, or `+= 1` on a
/// counter at `u64::MAX` — is a typed configuration error (exit 2), not
/// an arithmetic panic (debug) or a silent wrap (release).
#[test]
fn overflowing_restored_counters_are_typed_errors() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    let snap = full.checkpoints.first().expect("at least one checkpoint");
    // (line marker; "" is the header line, field, value)
    let cases = [
        ("\"sec\":\"ctl\",", "n_arrivals", 70_000_000_000_000_000),
        ("\"sec\":\"ctl\",", "n_arrivals", u64::MAX),
        ("\"sec\":\"ctl\",", "n_completions", u64::MAX),
        ("\"sec\":\"ctl\",", "next_req_id", u64::MAX),
        ("", "events", u64::MAX),
        ("", "seq", u64::MAX),
    ];
    for (marker, key, value) in cases {
        let corrupt: String = snap
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let hit = if marker.is_empty() {
                    i == 0
                } else {
                    l.contains(marker)
                };
                if hit {
                    set_field(l, key, value)
                } else {
                    l.to_string()
                }
            })
            .map(|l| l + "\n")
            .collect();
        assert_ne!(&corrupt, snap, "{key} must occur in the checkpoint");
        let Err(err) = try_resume(&s, &corrupt) else {
            panic!("{key} = {value} must not resume");
        };
        assert_eq!(err.exit_code(), 2, "InvalidConfig → exit 2: {err}");
        assert!(err.to_string().contains(key), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}

/// A snapshot resumed against the wrong seed is rejected up front.
#[test]
fn wrong_seed_is_rejected() {
    let s = scenario(7, 2, 200, 10.0, 60.0);
    let full = run(&s, None);
    let snap = full.checkpoints.first().expect("at least one checkpoint");

    let mut wrong = scenario(8, 2, 200, 10.0, 60.0);
    wrong.topo.seed = 7; // isolate the cfg-seed check
    let mut source = source_for(&wrong);
    let mut rec = MemoryRecorder::new();
    let mut hooks = RunHooks { live: &mut |_| {}, checkpoint: None, kill_after_events: None };
    let err = Controller::resume_full(
        &wrong.workload,
        &wrong.cluster,
        &wrong.plan,
        Some(&wrong.topo),
        &wrong.cfg,
        &mut source,
        &mut rec,
        snap,
        &mut hooks,
    )
    .expect_err("wrong seed must not resume");
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("seed"), "{err}");
}

/// Regression: a resumed run must continue the recorder's running counter
/// totals. This pins a once-failing generated case where `ctl.node_down`
/// fired both before and after the kill point, so the resumed stream's
/// second `Counter` event read `total: 1` instead of `total: 2` until the
/// snapshot grew its `"cnt"` section. Sweeps every 5% kill point.
#[test]
fn counter_totals_survive_resume() {
    let s = scenario(9194, 1, 478, 13.943577447516066, 66.87684056696177);
    let full = run(&s, None);
    let RunOutcome::Completed(report_a) = &full.outcome else {
        panic!("uninterrupted run must complete");
    };
    for pct in 1..20 {
        let kill_at = 1 + report_a.events * pct / 20;
        let killed = run(&s, Some(kill_at));
        if !matches!(killed.outcome, RunOutcome::Killed { .. }) {
            continue;
        }
        for (i, (k, f)) in killed.checkpoints.iter().zip(&full.checkpoints).enumerate() {
            assert_eq!(k, f, "kill@{kill_at}: checkpoint {i} diverged");
        }
        let Some(snap) = killed.checkpoints.last() else { continue };
        let (report_r, rec_r) = resume(&s, snap);
        assert!(same_report(report_a, &report_r), "kill@{kill_at}: report diverged");
        let fe = full.rec.events();
        let re = rec_r.events();
        assert_eq!(
            &fe[fe.len() - re.len()..],
            re,
            "kill@{kill_at}: resumed event tail diverged"
        );
    }
}

// ---- parsers of outside bytes never panic ---------------------------------

/// One byte-level mutation: `(op, at, len, bit)`. `op` 0 flips bit `bit`
/// of the byte at fraction `at` of the text, 1 truncates there, 2 deletes
/// `len` bytes from there and 3 duplicates them in place.
type Mutation = (u8, f64, usize, u8);

fn mutate(text: &str, muts: &[Mutation]) -> String {
    let mut b = text.as_bytes().to_vec();
    for &(op, at, len, bit) in muts {
        if b.is_empty() {
            break;
        }
        let at = ((at * b.len() as f64) as usize).min(b.len() - 1);
        let end = (at + len).min(b.len());
        match op {
            0 => b[at] ^= 1 << bit,
            1 => b.truncate(at),
            2 => {
                b.drain(at..end);
            }
            _ => {
                let span = b[at..end].to_vec();
                b.splice(end..end, span);
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u8..4, 0.0f64..1.0, 1usize..41, 0u8..8), 1..4)
}

/// `text` with its `end` trailer recounted, so a mutation that adds or
/// drops a line still reaches the section parsers.
fn reseal(text: &str) -> String {
    let body: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with("{\"sec\":\"end\""))
        .collect();
    let mut out = body.join("\n");
    out.push_str(&format!("\n{{\"sec\":\"end\",\"lines\":{}}}\n", body.len()));
    out
}

/// The middle checkpoint of a chaos scenario with domain faults, breakers
/// and the obs plane on.
fn fuzz_base() -> &'static str {
    static BASE: OnceLock<String> = OnceLock::new();
    BASE.get_or_init(|| {
        let full = run(&scenario(7, 2, 400, 3.0, 60.0), None);
        full.checkpoints[full.checkpoints.len() / 2].clone()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// A checkpoint with flipped bits, a cut, a deleted or a duplicated
    /// span either resumes or is a typed error (exit 2, or exit 4 when
    /// the mangled state trips a run guard), never a panic.
    #[test]
    fn mutated_snapshot_never_panics(muts in mutations(), recount in 0u8..2) {
        let s = scenario(7, 2, 400, 3.0, 60.0);
        let mut text = mutate(fuzz_base(), &muts);
        if recount == 1 {
            text = reseal(&text);
        }
        if let Err(e) = try_resume(&s, &text) {
            prop_assert!(matches!(e.exit_code(), 2 | 4), "exit {}: {e}", e.exit_code());
        }
    }

    /// The same for the JSONL arrival-trace parser: `Ok` or exit 2.
    #[test]
    fn mutated_trace_never_panics(muts in mutations()) {
        let text = mutate(include_str!("../../../examples/replay_trace.jsonl"), &muts);
        if let Err(e) = parse_trace(&text, 1.0e5) {
            prop_assert_eq!(e.exit_code(), 2, "{}", e);
        }
    }
}
