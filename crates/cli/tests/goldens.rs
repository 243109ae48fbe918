#![allow(clippy::unwrap_used)] // test code: a missing golden or a failed run should panic

//! Byte-for-byte goldens of the `enprop` binary: the stdout of `all`
//! (every paper artifact), of `faults` (the fault-injection report) and of
//! the serving surface (`serve`, `replay`, `chaos`, kill and resume), plus
//! 64-bit FNV-1a digests of the raw JSONL trace and the metrics snapshot
//! that `table4`, `fig11` and `faults` export and of a domain-faulted
//! serving run's trace and checkpoint. The simulation crates may be
//! restructured freely as long as all of these stay put; a deliberate
//! output change re-records them (`enprop all >
//! crates/cli/tests/golden/all.stdout`, and the digests from the failure
//! message).

use std::path::{Path, PathBuf};
use std::process::Command;

fn enprop(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_enprop"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "enprop {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn assert_stdout_golden(args: &[&str], golden: &str) {
    assert_text_golden(args, &String::from_utf8(enprop(args)).unwrap(), golden);
}

/// Compare `got`, the stdout of `enprop args`, against the golden file.
fn assert_text_golden(args: &[&str], got: &str, golden: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let want = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "enprop {args:?} drifted from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

#[test]
fn all_stdout_matches_golden() {
    assert_stdout_golden(&["all"], "all.stdout");
}

#[test]
fn faults_stdout_matches_golden() {
    assert_stdout_golden(&["faults"], "faults.stdout");
}

/// `fig11`'s trace probe runs a faulted service pool through the
/// dispatcher DES, so its digests pin that loop's telemetry too.
#[test]
fn exported_traces_and_metrics_match_digests() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("goldens");
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        (
            "table4",
            0xff19_94c4_6b9d_82b7_u64,
            0xd218_32f4_df3d_c6a0_u64,
        ),
        ("fig11", 0x4cde_7020_8de0_9df0, 0x8437_5df7_c8b8_afde),
        ("faults", 0xc3d5_9954_b208_1ebe, 0xde5e_a14b_0c70_b8fc),
    ];
    for (cmd, trace_digest, metrics_digest) in cases {
        let trace = dir.join(format!("{cmd}.jsonl"));
        let metrics = dir.join(format!("{cmd}.metrics.json"));
        enprop(&[
            cmd,
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        let got = fnv1a(&std::fs::read(&trace).unwrap());
        assert_eq!(got, trace_digest, "{cmd} trace digest: got {got:#018x}");
        let got = fnv1a(&std::fs::read(&metrics).unwrap());
        assert_eq!(got, metrics_digest, "{cmd} metrics digest: got {got:#018x}");
    }
}

#[test]
fn serve_stdout_matches_golden() {
    assert_stdout_golden(&["serve"], "serve.stdout");
}

/// Power cap, p999 objective, per-node faults, best-effort traffic and
/// the per-window live report: the controller's whole policy surface.
#[test]
fn capped_faulted_serve_stdout_matches_golden() {
    assert_stdout_golden(
        &[
            "serve",
            "--power-cap",
            "60",
            "--slo-p95",
            "0.1",
            "--slo-p999",
            "0.5",
            "--mtbf",
            "20",
            "--stall",
            "2",
            "--slowdown",
            "3",
            "--repair",
            "5",
            "--live-report",
            "1",
            "--best-effort",
            "0.3",
        ],
        "serve_capped.stdout",
    );
}

#[test]
fn chaos_replay_stdout_matches_golden() {
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/replay_trace.jsonl");
    assert_stdout_golden(
        &[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--mtbf",
            "6",
            "--stall",
            "2",
            "--slowdown",
            "3",
            "--repair",
            "5",
            "--seed",
            "7",
        ],
        "replay.stdout",
    );
}

#[test]
fn chaos_sweeps_match_goldens() {
    assert_stdout_golden(
        &["chaos", "--plans", "6", "--requests", "3000"],
        "chaos.stdout",
    );
    assert_stdout_golden(
        &["chaos", "--domains", "--plans", "4", "--requests", "3000"],
        "chaos_domains.stdout",
    );
}

/// Rack, PDU and power-emergency faults on top of the default run.
const DOMAIN_SERVE: [&str; 11] = [
    "serve",
    "--requests",
    "20000",
    "--rack-mtbf",
    "30",
    "--pdu-mtbf",
    "60",
    "--emergency-mtbf",
    "40",
    "--emergency-cap",
    "50",
];

/// The domain-faulted run's stdout, trace and final checkpoint are pinned;
/// a run killed mid-flight and resumed from its checkpoint prints the
/// uninterrupted run's report.
#[test]
fn domain_serve_trace_checkpoint_and_resume_match_goldens() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("goldens-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (trace, checkpoint, killed) = (path("t.jsonl"), path("full.snap"), path("kill.snap"));

    let mut args = DOMAIN_SERVE.to_vec();
    args.extend(["--trace-out", &trace, "--checkpoint-out", &checkpoint]);
    assert_stdout_golden(&args, "serve_domains.stdout");
    let got = fnv1a(&std::fs::read(&trace).unwrap());
    assert_eq!(
        got, 0x7a9a_1719_daec_15dd,
        "domain serve trace digest: got {got:#018x}"
    );
    let got = fnv1a(&std::fs::read(&checkpoint).unwrap());
    assert_eq!(
        got, 0x6ee1_9a6e_2a40_9075,
        "domain serve checkpoint digest: got {got:#018x}"
    );

    let mut args = DOMAIN_SERVE.to_vec();
    args.extend(["--checkpoint-out", &killed, "--kill-after-events", "30000"]);
    let stdout = String::from_utf8(enprop(&args))
        .unwrap()
        .replace(&killed, "<checkpoint>");
    assert_text_golden(&args, &stdout, "serve_killed.stdout");

    let mut args = DOMAIN_SERVE.to_vec();
    args.extend(["--resume-from", &killed]);
    assert_stdout_golden(&args, "serve_domains.stdout");
}
