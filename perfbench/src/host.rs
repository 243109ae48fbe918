//! Host facts recorded with every result: core count, CPU model, compiler
//! version, source commit and seed.

use std::process::Command;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First line of a command's standard output, or `None` when it cannot
/// run or fails. `output()` waits for the child to exit.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .next()
        .map(|l| l.trim().to_owned())
        .filter(|l| !l.is_empty())
}

/// One line of host facts. The commit comes from `git` when the checkout
/// is a repository, else reads "unknown".
pub fn facts(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    // Only ask git inside a repository root, so it never walks up into
    // directories outside the checkout.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "nproc={nproc} cpu=\"{}\" rustc=\"{rustc}\" commit={commit} seed={seed}",
        cpu_model()
    )
}
