#![allow(clippy::unwrap_used)] // test code: a missing golden or a failed run should panic

//! Byte-for-byte goldens of the `enprop` binary: the stdout of `all`
//! (every paper artifact) and of `faults` (the fault-injection report),
//! plus 64-bit FNV-1a digests of the raw JSONL trace and the metrics
//! snapshot that `table4`, `fig11` and `faults` export. The simulation
//! crates may be restructured freely as long as all of these stay put; a
//! deliberate output change re-records them (`enprop all >
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
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let want = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
    let got = String::from_utf8(enprop(args)).unwrap();
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
