//! In-memory span recorder for the traced run.
//!
//! Spans sit in the benchmark's own code, one around each call into a
//! layer's public functions. Each carries a name, start, end and parent.
//! They stay in memory until the run ends; [`Tracer::write`] then dumps
//! them as JSON lines. A span's self time is its duration minus the part
//! its child spans cover; the layer table sums self time by span name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::Args;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTotals {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// The span recorder. `begin`/`end` nest like a stack.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Name of the span that wraps a whole traced run; its self time is the
/// benchmark's own glue between layer calls.
pub const ROOT: &str = "bench";

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_owned(),
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end_ns = end_ns;
        (end_ns - self.spans[i].start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span named `name`; returns its seconds and value.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
        self.begin(name);
        let v = f();
        (self.end(), v)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self and total time per span name, plus the root span's duration.
    fn totals(&self) -> (BTreeMap<&'static str, LayerTotals>, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        let mut root_ns = 0;
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                root_ns += dur;
            }
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*child);
        }
        (by_name, root_ns)
    }

    /// Print the per-layer self-time table; returns the share of the root
    /// span that layer spans cover (1 − glue share).
    pub fn print_table(&self) -> f64 {
        let (by_name, root_ns) = self.totals();
        println!(
            "{:<36} {:>8} {:>12} {:>12} {:>7}",
            "layer span", "calls", "total ms", "self ms", "self %"
        );
        let mut covered = 0u64;
        for (name, t) in &by_name {
            let share = t.self_ns as f64 / root_ns.max(1) as f64;
            println!(
                "{:<36} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
                name,
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6,
                100.0 * share
            );
            if *name != ROOT {
                covered += t.self_ns;
            }
        }
        let coverage = covered as f64 / root_ns.max(1) as f64;
        println!(
            "layer self time covers {:.2}% of the traced wall time ({:.3} ms)",
            100.0 * coverage,
            root_ns as f64 * 1e-6
        );
        coverage
    }

    /// Write the spans as JSON lines to
    /// `perfbench/out/spans-<workload>-<seed>.jsonl`, after one header
    /// line with the run's host facts; returns the path.
    pub fn write(&self, args: &Args, facts: &str) -> std::io::Result<String> {
        let dir = std::path::Path::new("perfbench").join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{}-{}.jsonl", self.workload, args.seed));
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"host\": \"{}\"}}",
            self.workload,
            args.seed,
            args.seconds,
            facts.replace('\\', "\\\\").replace('"', "\\\"")
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                sp.name, sp.start_ns, sp.end_ns
            );
        }
        std::fs::write(&path, s)?;
        Ok(path.display().to_string())
    }
}
