//! Crash-consistent controller snapshots (DESIGN.md §16).
//!
//! A snapshot serializes the *entire* resumable state of a running
//! [`Controller`] — the event heap (with sequence numbers), every node's
//! accounting frontier, in-flight requests, pending queue, both quantile
//! sketches, the windowed obs plane, the energy ledgers, the emergency /
//! breaker state, all counters, and the arrival source's cursor — as
//! versioned JSONL: one `{"sec":"…"}` object per line, a header first and
//! a `{"sec":"end","lines":N}` trailer last. A partially-written file
//! fails the trailer check and restores as a typed error, never as a
//! silently-wrong run.
//!
//! Every `f64` travels as its IEEE-754 bit pattern (`to_bits`, printed as
//! a decimal `u64`): resume identity is *bit*-for-bit, and text floats
//! would round. Static assertions of that identity live in
//! `tests/resume_props.rs`: a run killed at any event and resumed from its
//! last checkpoint reports joule-for-joule what the uninterrupted run
//! reports.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use enprop_faults::{Domain, DomainEvent, DomainFaultKind, EnpropError, FaultKind};
use enprop_obs::{QuantileSketch, SketchState, WindowState};

use crate::arrivals::SourceState;
use crate::controller::{Admin, Breaker, Controller, Ev, EvKind, Loc, Req, Running};
use crate::plane::{ObsPlane, PlaneGroupState, PlaneState};

/// Version tag of the snapshot format; bumped on any incompatible change.
pub const SNAPSHOT_VERSION: &str = "enprop-snapshot-v1";

// ---- serialization ---------------------------------------------------------

fn bits(v: f64) -> u64 {
    v.to_bits()
}

fn push_u64s(out: &mut String, vals: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in vals.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// The fields of one sketch, its count/sum/min/max keys prefixed with
/// `p` (`""` on a `sketch` line, `"s"` on a `series_win` line, whose own
/// `count`/`sum` are the window's).
fn push_sketch(out: &mut String, s: &SketchState, p: &str) {
    let _ = write!(
        out,
        "\"alpha\":{},\"maxb\":{},\"lowc\":{},\"{p}count\":{},\"{p}sum\":{},\"{p}min\":{},\"{p}max\":{},\"buckets\":",
        bits(s.alpha),
        s.max_buckets,
        s.low,
        s.count,
        bits(s.sum),
        bits(s.min),
        bits(s.max),
    );
    push_u64s(out, s.buckets.iter().flat_map(|&(k, n)| [i64::from(k) as u64, n]));
}

fn ev_line(out: &mut String, ev: &Ev) {
    // Generic six-operand encoding: (k, a..f) with unused operands 0.
    let (k, a, b, c, d, e, f) = match ev.kind {
        EvKind::Arrival { ops, class } => (0, bits(ops), u64::from(class), 0, 0, 0, 0),
        EvKind::Completion { node, epoch } => (1, node as u64, epoch, 0, 0, 0, 0),
        EvKind::Timeout { req, dispatch } => (2, req, u64::from(dispatch), 0, 0, 0, 0),
        EvKind::Redispatch { req } => (3, req, 0, 0, 0, 0, 0),
        EvKind::Fault { node, kind } => {
            let (fk, p) = match kind {
                FaultKind::Crash => (0, 0.0),
                FaultKind::Stall { duration_s } => (1, duration_s),
                FaultKind::Straggler { slowdown } => (2, slowdown),
            };
            (4, node as u64, fk, bits(p), 0, 0, 0)
        }
        EvKind::FaultWindow { node, window } => (5, node as u64, u64::from(window), 0, 0, 0, 0),
        EvKind::StallEnd { node } => (6, node as u64, 0, 0, 0, 0, 0),
        EvKind::StragglerEnd { node } => (7, node as u64, 0, 0, 0, 0, 0),
        EvKind::Repair { node } => (8, node as u64, 0, 0, 0, 0, 0),
        EvKind::HealthCheck => (9, 0, 0, 0, 0, 0, 0),
        EvKind::ControlTick => (10, 0, 0, 0, 0, 0, 0),
        EvKind::DrainDeadline => (11, 0, 0, 0, 0, 0, 0),
        EvKind::DomainWindow { window } => (12, u64::from(window), 0, 0, 0, 0, 0),
        EvKind::DomainFault { event } => {
            let (dom, di) = match event.domain {
                Domain::Rack(r) => (0, r as u64),
                Domain::Pdu(p) => (1, p as u64),
                Domain::Cluster => (2, 0),
            };
            let (dk, p1, p2) = match event.kind {
                DomainFaultKind::RackCrash => (0, 0.0, 0.0),
                DomainFaultKind::PduLoss => (1, 0.0, 0.0),
                DomainFaultKind::NetworkPartition { duration_s } => (2, duration_s, 0.0),
                DomainFaultKind::PowerEmergency { cap_w, duration_s } => (3, cap_w, duration_s),
            };
            (13, bits(event.at_s), dom, di, dk, bits(p1), bits(p2))
        }
        EvKind::EmergencyEnd => (14, 0, 0, 0, 0, 0, 0),
    };
    let _ = writeln!(
        out,
        "{{\"sec\":\"ev\",\"t\":{},\"seq\":{},\"k\":{k},\"a\":{a},\"b\":{b},\"c\":{c},\"d\":{d},\"e\":{e},\"f\":{f}}}",
        bits(ev.t),
        ev.seq,
    );
}

/// Serialize `c` (plus the just-popped `pending` event and the arrival
/// source's cursor) into the versioned JSONL snapshot text. Called by the
/// event loop at closed obs-window boundaries, after the plane roll.
pub(crate) fn serialize(
    c: &Controller<'_>,
    pending: &Ev,
    src: &SourceState,
    counters: &[(&'static str, u64)],
) -> String {
    let mut out = String::with_capacity(4096);
    let has_plane = u8::from(c.plane.is_some());
    let _ = writeln!(
        out,
        "{{\"sec\":\"{SNAPSHOT_VERSION}\",\"seed\":{},\"groups\":{},\"nodes\":{},\"now\":{},\"seq\":{},\"events\":{},\"has_plane\":{has_plane}}}",
        c.cfg.seed,
        c.groups.len(),
        c.nodes.len(),
        bits(c.now),
        c.seq,
        c.events,
    );
    let _ = write!(
        out,
        "{{\"sec\":\"ctl\",\"next_req_id\":{},\"arrivals_done\":{},\"drain_armed\":{},\"shed_mode\":{},\"shed_entries\":{},\"cooldown\":{},\"window_arrival_ops\":{},\"resp_sum\":{},\"em_cap\":{},\"em_until\":{},\"em_level\":{},\"class_floor\":{}",
        c.next_req_id,
        u8::from(c.arrivals_done),
        u8::from(c.drain_armed),
        u8::from(c.shed_mode),
        c.shed_entries,
        c.cooldown,
        bits(c.window_arrival_ops),
        bits(c.resp_sum),
        bits(c.emergency_cap_w),
        bits(c.emergency_until_s),
        c.emergency_level,
        c.shed_class_floor,
    );
    for (key, v) in c.tally.clone().counters_mut() {
        let _ = write!(out, ",\"{key}\":{v}");
    }
    out.push_str("}\n");
    // Recorder-side running totals: `Recorder::counter` events carry a
    // cumulative total kept by the *sink*, so a resumed run must continue
    // those totals or its trace diverges from the uninterrupted run's.
    for (name, total) in counters {
        let _ = writeln!(out, "{{\"sec\":\"cnt\",\"name\":\"{name}\",\"total\":{total}}}");
    }
    for (gi, g) in c.groups.iter().enumerate() {
        let (brk, ba, bb) = match g.breaker {
            Breaker::Closed { fails } => (0, u64::from(fails), 0),
            Breaker::Open { until_s, reopens } => (1, bits(until_s), u64::from(reopens)),
            Breaker::HalfOpen { probe, reopens } => {
                (2, probe.map_or(0, |p| p + 1), u64::from(reopens))
            }
        };
        let _ = writeln!(
            out,
            "{{\"sec\":\"group\",\"i\":{gi},\"freq\":{},\"brk\":{brk},\"ba\":{ba},\"bb\":{bb}}}",
            g.freq_idx,
        );
    }
    for (i, n) in c.nodes.iter().enumerate() {
        let admin = match n.admin {
            Admin::Active => 0,
            Admin::Draining => 1,
            Admin::Deactivated => 2,
            Admin::Down => 3,
        };
        let _ = write!(
            out,
            "{{\"sec\":\"node\",\"i\":{i},\"admin\":{admin},\"crashed\":{},\"unpowered\":{},\"stalled_until\":{},\"slowdown\":{},\"slow_until\":{},\"queued_ops\":{},\"epoch\":{},\"acct_t\":{},\"energy\":{},\"wb\":{},\"wi\":{},\"wd\":{},\"down_span\":{},\"queue\":",
            u8::from(n.crashed),
            u8::from(n.unpowered),
            bits(n.stalled_until),
            bits(n.slowdown),
            bits(n.slow_until),
            bits(n.queued_ops),
            n.epoch,
            bits(n.acct_t),
            bits(n.energy_j),
            bits(n.win_busy_j),
            bits(n.win_ideal_j),
            bits(n.win_idle_j),
            u8::from(n.down_span_open),
        );
        push_u64s(&mut out, n.queue.iter().copied());
        match &n.current {
            None => out.push_str(",\"cur\":0,\"cur_req\":0,\"cur_rem\":0,\"cur_e\":0}\n"),
            Some(r) => {
                let _ = writeln!(
                    out,
                    ",\"cur\":1,\"cur_req\":{},\"cur_rem\":{},\"cur_e\":{}}}",
                    r.req,
                    bits(r.remaining_ops),
                    bits(r.energy_j),
                );
            }
        }
    }
    for (&id, r) in &c.inflight {
        let (loc, loc_node) = match r.loc {
            Loc::Pending => (0, 0),
            Loc::Backoff => (1, 0),
            Loc::OnNode(i) => (2, i as u64),
        };
        let _ = writeln!(
            out,
            "{{\"sec\":\"req\",\"id\":{id},\"arrived\":{},\"ops\":{},\"class\":{},\"attempt\":{},\"dispatch\":{},\"loc\":{loc},\"loc_node\":{loc_node},\"exclude\":{},\"traced\":{}}}",
            bits(r.arrived),
            bits(r.ops),
            r.class,
            r.attempt,
            r.dispatch,
            r.exclude.map_or(0, |e| e as u64 + 1),
            u8::from(r.traced),
        );
    }
    out.push_str("{\"sec\":\"pending\",\"ids\":");
    push_u64s(&mut out, c.pending.iter().copied());
    out.push_str("}\n");
    for (which, sketch) in [&c.tick_sketch, &c.run_sketch].into_iter().enumerate() {
        let _ = write!(out, "{{\"sec\":\"sketch\",\"which\":{which},");
        push_sketch(&mut out, &sketch.state(), "");
        out.push_str("}\n");
    }
    if let Some(plane) = &c.plane {
        let ps = plane.state();
        let _ = write!(
            out,
            "{{\"sec\":\"plane\",\"cur_index\":{},\"cur_arrivals\":{},\"cur_shed\":{},\"cur_breaches\":{},\"alert\":{},\"bfast\":{},\"bslow\":{},\"ring\":",
            ps.cur_index,
            ps.cur_arrivals,
            ps.cur_shed,
            ps.cur_breaches,
            u8::from(ps.alert),
            bits(ps.burn_fast),
            bits(ps.burn_slow),
        );
        push_u64s(&mut out, ps.burn_ring.iter().flat_map(|&(a, b)| [a, b]));
        out.push_str("}\n");
        for (gi, g) in ps.groups.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"sec\":\"plane_group\",\"i\":{gi},\"energy\":{},\"ideal\":{},\"o0\":{},\"o1\":{},\"o2\":{},\"o3\":{},\"completions\":{}}}",
                bits(g.energy_j),
                bits(g.ideal_j),
                bits(g.outcome_j[0]),
                bits(g.outcome_j[1]),
                bits(g.outcome_j[2]),
                bits(g.outcome_j[3]),
                g.completions,
            );
        }
        let _ = writeln!(
            out,
            "{{\"sec\":\"series\",\"window_s\":{},\"alpha\":{},\"max_windows\":{},\"evicted_count\":{},\"evicted_sum\":{}}}",
            bits(ps.resp.window_s),
            bits(ps.resp.alpha),
            ps.resp.max_windows,
            ps.resp.evicted_count,
            bits(ps.resp.evicted_sum),
        );
        for w in &ps.resp.windows {
            let _ = write!(
                out,
                "{{\"sec\":\"series_win\",\"index\":{},\"count\":{},\"sum\":{},",
                w.index,
                w.count,
                bits(w.sum),
            );
            push_sketch(&mut out, &w.sketch, "s");
            out.push_str("}\n");
        }
        let ledger = &ps.ledger;
        out.push_str("{\"sec\":\"ledger\",\"charges\":");
        push_u64s(
            &mut out,
            ledger.charges.iter().flat_map(|&(g, o, j)| [u64::from(g), u64::from(o), bits(j)]),
        );
        out.push_str(",\"ideal\":");
        push_u64s(&mut out, ledger.ideal_j.iter().flat_map(|&(g, j)| [u64::from(g), bits(j)]));
        out.push_str(",\"completed\":");
        push_u64s(&mut out, ledger.completed.iter().flat_map(|&(g, n)| [u64::from(g), n]));
        out.push_str("}\n");
    }
    // The heap in deterministic (t, seq) order, plus the just-popped
    // event — the first thing the resumed loop will process.
    let mut evs: Vec<&Ev> = c.heap.iter().map(|Reverse(e)| e).collect();
    evs.push(pending);
    evs.sort();
    for ev in evs {
        ev_line(&mut out, ev);
    }
    match src {
        SourceState::Synthetic { gap, size, class, t, remaining } => {
            out.push_str("{\"sec\":\"source\",\"kind\":0,\"g\":");
            push_u64s(&mut out, *gap);
            out.push_str(",\"s\":");
            push_u64s(&mut out, *size);
            out.push_str(",\"c\":");
            push_u64s(&mut out, *class);
            let _ = writeln!(out, ",\"t\":{},\"remaining\":{remaining}}}", bits(*t));
        }
        SourceState::Replay { next } => {
            let _ = writeln!(out, "{{\"sec\":\"source\",\"kind\":1,\"next\":{next}}}");
        }
    }
    let body_lines = out.lines().count();
    let _ = writeln!(out, "{{\"sec\":\"end\",\"lines\":{body_lines}}}");
    out
}

// ---- parsing ---------------------------------------------------------------

/// Upper bound on every restored run counter (2^53, past which a count
/// no longer converts to `f64` exactly). No run gets near it, and below
/// it the counters can keep incrementing without overflow.
const MAX_RESTORED_COUNT: u64 = 1 << 53;

fn snap_err(lineno: usize, msg: impl std::fmt::Display) -> EnpropError {
    EnpropError::invalid_config(format!("snapshot line {lineno}: {msg}"))
}

/// One snapshot line, split once into its `"key":value` fields. A value
/// is a decimal `u64`, a `[u64,…]` array or an escape-free string (the
/// only shapes [`serialize`] writes); the typed accessors parse it on
/// demand and name the line in every error.
struct Line<'a> {
    no: usize,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Line<'a> {
    fn parse(text: &'a str, no: usize) -> Result<Self, EnpropError> {
        let malformed = || snap_err(no, "malformed line (truncated?)");
        let mut rest = text
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(malformed)?;
        let mut fields = Vec::with_capacity(16);
        while !rest.is_empty() {
            let (key, tail) = rest
                .strip_prefix('"')
                .and_then(|r| r.split_once("\":"))
                .ok_or_else(malformed)?;
            let len = match tail.as_bytes().first() {
                Some(b'"') => tail[1..].find('"').map(|i| i + 2),
                Some(b'[') => tail.find(']').map(|i| i + 1),
                _ => Some(tail.find(',').unwrap_or(tail.len())),
            }
            .ok_or_else(malformed)?;
            fields.push((key, &tail[..len]));
            rest = match &tail[len..] {
                "" => "",
                more => more.strip_prefix(',').filter(|r| !r.is_empty()).ok_or_else(malformed)?,
            };
        }
        Ok(Line { no, fields })
    }

    fn get(&self, key: &str) -> Result<&'a str, EnpropError> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| snap_err(self.no, format!("missing \"{key}\"")))
    }

    fn u64(&self, key: &str) -> Result<u64, EnpropError> {
        self.get(key)?
            .parse()
            .map_err(|_| snap_err(self.no, format!("malformed \"{key}\" value (truncated line?)")))
    }

    /// An `f64` that traveled as its bit pattern.
    fn f64(&self, key: &str) -> Result<f64, EnpropError> {
        Ok(f64::from_bits(self.u64(key)?))
    }

    /// An `f64` that must be finite and at least `min`: a negative work
    /// amount, duration or sub-unit slowdown would run the clock backwards.
    fn f64_min(&self, key: &str, min: f64) -> Result<f64, EnpropError> {
        let v = self.f64(key)?;
        if v.is_finite() && v >= min {
            Ok(v)
        } else {
            Err(snap_err(self.no, format!("\"{key}\" out of range: {v}")))
        }
    }

    /// A run counter, at most [`MAX_RESTORED_COUNT`]: the resumed run
    /// keeps counting with `+= 1`, which a restored `u64::MAX` would
    /// overflow.
    fn count(&self, key: &str) -> Result<u64, EnpropError> {
        let v = self.u64(key)?;
        if v <= MAX_RESTORED_COUNT {
            Ok(v)
        } else {
            Err(snap_err(
                self.no,
                format!("\"{key}\" out of range: {v} > 2^53"),
            ))
        }
    }

    fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, EnpropError> {
        self.fit(key, self.u64(key)?)
    }

    /// Narrow `v` (read as `what`) to `T`.
    fn fit<T: TryFrom<u64>>(&self, what: &str, v: u64) -> Result<T, EnpropError> {
        T::try_from(v).map_err(|_| snap_err(self.no, format!("\"{what}\" out of range: {v}")))
    }

    fn flag(&self, key: &str) -> Result<bool, EnpropError> {
        match self.u64(key)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(snap_err(self.no, format!("\"{key}\" must be 0 or 1, got {v}"))),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, EnpropError> {
        self.get(key)?
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| snap_err(self.no, format!("malformed \"{key}\" string")))
    }

    fn arr(&self, key: &str) -> Result<Vec<u64>, EnpropError> {
        let malformed = || snap_err(self.no, format!("malformed \"{key}\" array"));
        let body = self
            .get(key)?
            .strip_prefix('[')
            .and_then(|v| v.strip_suffix(']'))
            .ok_or_else(malformed)?;
        if body.is_empty() {
            return Ok(Vec::new());
        }
        body.split(',').map(|s| s.parse().map_err(|_| malformed())).collect()
    }

    /// A flat array read as consecutive `N`-tuples.
    fn tuples<const N: usize>(&self, key: &str) -> Result<Vec<[u64; N]>, EnpropError> {
        let flat = self.arr(key)?;
        if flat.len() % N != 0 {
            return Err(snap_err(
                self.no,
                format!("malformed \"{key}\" array: {} values is not a multiple of {N}", flat.len()),
            ));
        }
        Ok(flat
            .chunks_exact(N)
            .map(|ch| {
                let mut t = [0; N];
                t.copy_from_slice(ch);
                t
            })
            .collect())
    }

    /// A 4-word RNG state.
    fn words(&self, key: &str) -> Result<[u64; 4], EnpropError> {
        <[u64; 4]>::try_from(self.arr(key)?)
            .map_err(|_| snap_err(self.no, format!("\"{key}\" must have exactly 4 words")))
    }
}

/// The sketch on `l` whose count/sum/min/max keys carry prefix `p` (see
/// [`push_sketch`]).
fn sketch_of(l: &Line<'_>, p: &str) -> Result<SketchState, EnpropError> {
    let buckets = l
        .tuples::<2>("buckets")?
        .into_iter()
        .map(|[k, n]| {
            let k = i32::try_from(k as i64)
                .map_err(|_| snap_err(l.no, "bucket key out of range"))?;
            Ok((k, n))
        })
        .collect::<Result<Vec<_>, EnpropError>>()?;
    Ok(SketchState {
        alpha: l.f64("alpha")?,
        max_buckets: l.int("maxb")?,
        buckets,
        low: l.u64("lowc")?,
        count: l.u64(&format!("{p}count"))?,
        sum: l.f64(&format!("{p}sum"))?,
        min: l.f64(&format!("{p}min"))?,
        max: l.f64(&format!("{p}max"))?,
    })
}

fn ev_of(l: &Line<'_>) -> Result<Ev, EnpropError> {
    let kind = match l.u64("k")? {
        0 => EvKind::Arrival { ops: l.f64_min("a", 0.0)?, class: l.int("b")? },
        1 => EvKind::Completion { node: l.int("a")?, epoch: l.u64("b")? },
        2 => EvKind::Timeout { req: l.u64("a")?, dispatch: l.int("b")? },
        3 => EvKind::Redispatch { req: l.u64("a")? },
        4 => {
            let kind = match l.u64("b")? {
                0 => FaultKind::Crash,
                1 => FaultKind::Stall { duration_s: l.f64_min("c", 0.0)? },
                2 => FaultKind::Straggler { slowdown: l.f64_min("c", 1.0)? },
                other => return Err(snap_err(l.no, format!("unknown fault kind {other}"))),
            };
            EvKind::Fault { node: l.int("a")?, kind }
        }
        5 => EvKind::FaultWindow { node: l.int("a")?, window: l.int("b")? },
        6 => EvKind::StallEnd { node: l.int("a")? },
        7 => EvKind::StragglerEnd { node: l.int("a")? },
        8 => EvKind::Repair { node: l.int("a")? },
        9 => EvKind::HealthCheck,
        10 => EvKind::ControlTick,
        11 => EvKind::DrainDeadline,
        12 => EvKind::DomainWindow { window: l.int("a")? },
        13 => {
            let domain = match l.u64("b")? {
                0 => Domain::Rack(l.int("c")?),
                1 => Domain::Pdu(l.int("c")?),
                2 => Domain::Cluster,
                other => return Err(snap_err(l.no, format!("unknown domain tag {other}"))),
            };
            let kind = match l.u64("d")? {
                0 => DomainFaultKind::RackCrash,
                1 => DomainFaultKind::PduLoss,
                2 => DomainFaultKind::NetworkPartition { duration_s: l.f64_min("e", 0.0)? },
                3 => DomainFaultKind::PowerEmergency {
                    cap_w: l.f64("e")?,
                    duration_s: l.f64_min("f", 0.0)?,
                },
                other => {
                    return Err(snap_err(l.no, format!("unknown domain fault kind {other}")))
                }
            };
            EvKind::DomainFault { event: DomainEvent { at_s: l.f64("a")?, domain, kind } }
        }
        14 => EvKind::EmergencyEnd,
        other => return Err(snap_err(l.no, format!("unknown event kind {other}"))),
    };
    Ok(Ev { t: l.f64("t")?, seq: l.u64("seq")?, kind })
}

/// Reject an event aimed at a node, rack or PDU the configured cluster and
/// topology do not have: the event loop indexes them without a check.
fn check_ev_targets(c: &Controller<'_>, kind: &EvKind, lineno: usize) -> Result<(), EnpropError> {
    let node = match *kind {
        EvKind::Completion { node, .. }
        | EvKind::Fault { node, .. }
        | EvKind::FaultWindow { node, .. }
        | EvKind::StallEnd { node }
        | EvKind::StragglerEnd { node }
        | EvKind::Repair { node } => Some(node),
        _ => None,
    };
    if let Some(i) = node.filter(|&i| i >= c.nodes.len()) {
        return Err(snap_err(lineno, format!("event node index {i} out of range")));
    }
    if let EvKind::DomainFault { event } = kind {
        let topology = c.topo.map(|t| t.topology);
        let (what, i, n) = match event.domain {
            Domain::Rack(r) => ("rack", r, topology.map_or(0, |t| t.racks())),
            Domain::Pdu(p) => ("pdu", p, topology.map_or(0, |t| t.pdus())),
            Domain::Cluster => return Ok(()),
        };
        if i >= n {
            return Err(snap_err(lineno, format!("event {what} index {i} out of range")));
        }
    }
    Ok(())
}

// ---- restore ---------------------------------------------------------------

/// What [`restore`] hands back beyond the controller state it writes in
/// place: the arrival source's cursor and the recorder's aggregate counter
/// totals at checkpoint time.
pub(crate) struct Restored {
    pub source: SourceState,
    pub counters: Vec<(String, u64)>,
}

/// Apply one obs-plane section to `ps`, the fresh plane's own state.
/// Geometry (`window_s`, `alpha`, `max_windows`) is configuration: it is
/// compared with the snapshot, never read from it.
fn restore_plane_line(ps: &mut PlaneState, sec: &str, l: &Line<'_>) -> Result<(), EnpropError> {
    match sec {
        "plane" => {
            ps.cur_index = l.u64("cur_index")?;
            ps.cur_arrivals = l.u64("cur_arrivals")?;
            ps.cur_shed = l.u64("cur_shed")?;
            ps.cur_breaches = l.u64("cur_breaches")?;
            ps.alert = l.flag("alert")?;
            ps.burn_fast = l.f64("bfast")?;
            ps.burn_slow = l.f64("bslow")?;
            ps.burn_ring = l.tuples::<2>("ring")?.into_iter().map(|[a, b]| (a, b)).collect();
        }
        "plane_group" => {
            let gi: usize = l.int("i")?;
            let g = ps
                .groups
                .get_mut(gi)
                .ok_or_else(|| snap_err(l.no, format!("plane group index {gi} out of range")))?;
            *g = PlaneGroupState {
                energy_j: l.f64("energy")?,
                ideal_j: l.f64("ideal")?,
                outcome_j: [l.f64("o0")?, l.f64("o1")?, l.f64("o2")?, l.f64("o3")?],
                completions: l.u64("completions")?,
            };
        }
        "series" => {
            let r = &mut ps.resp;
            if l.u64("window_s")? != bits(r.window_s)
                || l.u64("alpha")? != bits(r.alpha)
                || l.u64("max_windows")? != r.max_windows as u64
            {
                return Err(snap_err(l.no, "series geometry differs from the configured plane"));
            }
            r.evicted_count = l.u64("evicted_count")?;
            r.evicted_sum = l.f64("evicted_sum")?;
        }
        "series_win" => ps.resp.windows.push(WindowState {
            index: l.u64("index")?,
            count: l.u64("count")?,
            sum: l.f64("sum")?,
            sketch: sketch_of(l, "s")?,
        }),
        // "ledger", the one other section the caller routes here.
        _ => {
            let ledger = &mut ps.ledger;
            ledger.charges = l
                .tuples::<3>("charges")?
                .into_iter()
                .map(|[g, o, j]| {
                    Ok((l.fit("charge group", g)?, l.fit("charge outcome", o)?, f64::from_bits(j)))
                })
                .collect::<Result<_, EnpropError>>()?;
            ledger.ideal_j = l
                .tuples::<2>("ideal")?
                .into_iter()
                .map(|[g, j]| Ok((l.fit("ideal group", g)?, f64::from_bits(j))))
                .collect::<Result<_, EnpropError>>()?;
            ledger.completed = l
                .tuples::<2>("completed")?
                .into_iter()
                .map(|[g, n]| Ok((l.fit("completed group", g)?, n)))
                .collect::<Result<_, EnpropError>>()?;
        }
    }
    Ok(())
}

/// Restore `text` (produced by [`serialize`]) onto `c`, a fresh controller
/// built from the same workload / cluster / plans / config. Returns the
/// arrival source's snapshotted cursor (for the caller to re-seat) and the
/// checkpointed recorder counter totals (for the caller to preload). Any
/// mismatch — truncation, version skew, a different seed, cluster shape or
/// plane geometry, a missing or repeated section — is a typed
/// configuration error.
pub(crate) fn restore(c: &mut Controller<'_>, text: &str) -> Result<Restored, EnpropError> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let total = lines.len();
    if total < 2 {
        return Err(EnpropError::invalid_config(
            "snapshot is empty or truncated before the header".to_string(),
        ));
    }
    // Crash-consistency gate first: the trailer must exist and count every
    // preceding line, or the file was cut mid-write.
    let trailer = Line::parse(lines[total - 1], total)
        .ok()
        .filter(|l| l.str("sec").is_ok_and(|s| s == "end"))
        .ok_or_else(|| {
            EnpropError::invalid_config(
                "snapshot has no \"end\" trailer — truncated mid-write?".to_string(),
            )
        })?;
    let counted = trailer.u64("lines")?;
    if counted != (total - 1) as u64 {
        return Err(EnpropError::invalid_config(format!(
            "snapshot trailer counts {counted} lines but {} precede it — truncated mid-write?",
            total - 1
        )));
    }
    // Header: version + shape checks.
    let header = Line::parse(lines[0], 1)?;
    let version = header.str("sec")?;
    if version != SNAPSHOT_VERSION {
        return Err(EnpropError::invalid_config(format!(
            "snapshot version {version:?} is not the supported {SNAPSHOT_VERSION:?}"
        )));
    }
    let seed = header.u64("seed")?;
    if seed != c.cfg.seed {
        return Err(snap_err(
            1,
            format!("snapshot seed {seed} != configured seed {}", c.cfg.seed),
        ));
    }
    let n_groups: usize = header.int("groups")?;
    let n_nodes: usize = header.int("nodes")?;
    if n_groups != c.groups.len() || n_nodes != c.nodes.len() {
        return Err(snap_err(
            1,
            format!(
                "snapshot cluster shape {n_groups}g/{n_nodes}n != configured {}g/{}n",
                c.groups.len(),
                c.nodes.len()
            ),
        ));
    }
    if header.flag("has_plane")? != c.plane.is_some() {
        return Err(snap_err(
            1,
            "snapshot and config disagree on whether the obs plane is on (obs_window_s)",
        ));
    }
    c.now = header.f64("now")?;
    if !c.now.is_finite() || c.now < 0.0 {
        return Err(snap_err(1, format!("clock {} out of range", c.now)));
    }
    c.seq = header.count("seq")?;
    c.events = header.count("events")?;

    let mut source: Option<SourceState> = None;
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut plane = c.plane.as_ref().map(ObsPlane::state);
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    c.heap.clear();
    c.pending.clear();
    c.inflight.clear();

    for (idx, text) in lines.iter().enumerate().take(total - 1).skip(1) {
        let l = Line::parse(text, idx + 1)?;
        let sec = l.str("sec")?;
        *seen.entry(sec).or_insert(0) += 1;
        match sec {
            "ctl" => {
                c.next_req_id = l.count("next_req_id")?;
                c.arrivals_done = l.flag("arrivals_done")?;
                c.drain_armed = l.flag("drain_armed")?;
                c.shed_mode = l.flag("shed_mode")?;
                c.shed_entries = l.count("shed_entries")?;
                c.cooldown = l.int("cooldown")?;
                c.window_arrival_ops = l.f64("window_arrival_ops")?;
                c.resp_sum = l.f64("resp_sum")?;
                c.emergency_cap_w = l.f64("em_cap")?;
                c.emergency_until_s = l.f64("em_until")?;
                c.emergency_level = l.int("em_level")?;
                c.shed_class_floor = l.int("class_floor")?;
                for (key, v) in c.tally.counters_mut() {
                    *v = l.count(key)?;
                }
            }
            "cnt" => counters.push((l.str("name")?.to_string(), l.u64("total")?)),
            "group" => {
                let gi: usize = l.int("i")?;
                let g = c
                    .groups
                    .get_mut(gi)
                    .ok_or_else(|| snap_err(l.no, format!("group index {gi} out of range")))?;
                let freq: usize = l.int("freq")?;
                if freq >= g.rate_at.len() {
                    return Err(snap_err(l.no, format!("freq_idx {freq} out of range")));
                }
                g.freq_idx = freq;
                let ba = l.u64("ba")?;
                let reopens = l.int("bb")?;
                g.breaker = match l.u64("brk")? {
                    0 => Breaker::Closed { fails: l.fit("ba", ba)? },
                    1 => Breaker::Open { until_s: f64::from_bits(ba), reopens },
                    2 => Breaker::HalfOpen { probe: ba.checked_sub(1), reopens },
                    other => {
                        return Err(snap_err(l.no, format!("unknown breaker state {other}")))
                    }
                };
            }
            "node" => {
                let i: usize = l.int("i")?;
                let n = c
                    .nodes
                    .get_mut(i)
                    .ok_or_else(|| snap_err(l.no, format!("node index {i} out of range")))?;
                n.admin = match l.u64("admin")? {
                    0 => Admin::Active,
                    1 => Admin::Draining,
                    2 => Admin::Deactivated,
                    3 => Admin::Down,
                    other => {
                        return Err(snap_err(l.no, format!("unknown admin state {other}")))
                    }
                };
                n.crashed = l.flag("crashed")?;
                n.unpowered = l.flag("unpowered")?;
                n.stalled_until = l.f64("stalled_until")?;
                n.slowdown = l.f64_min("slowdown", 1.0)?;
                n.slow_until = l.f64("slow_until")?;
                n.queued_ops = l.f64_min("queued_ops", 0.0)?;
                n.epoch = l.u64("epoch")?;
                n.acct_t = l.f64("acct_t")?;
                n.energy_j = l.f64("energy")?;
                n.win_busy_j = l.f64("wb")?;
                n.win_ideal_j = l.f64("wi")?;
                n.win_idle_j = l.f64("wd")?;
                n.down_span_open = l.flag("down_span")?;
                n.queue = l.arr("queue")?.into();
                n.current = if l.flag("cur")? {
                    Some(Running {
                        req: l.u64("cur_req")?,
                        remaining_ops: l.f64_min("cur_rem", 0.0)?,
                        energy_j: l.f64("cur_e")?,
                    })
                } else {
                    None
                };
            }
            "req" => {
                let loc = match l.u64("loc")? {
                    0 => Loc::Pending,
                    1 => Loc::Backoff,
                    2 => {
                        let i: usize = l.int("loc_node")?;
                        if i >= c.nodes.len() {
                            return Err(snap_err(l.no, format!("loc_node {i} out of range")));
                        }
                        Loc::OnNode(i)
                    }
                    other => return Err(snap_err(l.no, format!("unknown req loc {other}"))),
                };
                let exclude = match l.u64("exclude")? {
                    0 => None,
                    e => Some(l.fit("exclude", e - 1)?),
                };
                let req = Req {
                    arrived: l.f64("arrived")?,
                    ops: l.f64_min("ops", 0.0)?,
                    class: l.int("class")?,
                    attempt: l.int("attempt")?,
                    dispatch: l.int("dispatch")?,
                    loc,
                    exclude,
                    traced: l.flag("traced")?,
                };
                c.inflight.insert(l.u64("id")?, req);
            }
            "pending" => c.pending = l.arr("ids")?.into(),
            "sketch" => {
                let s = QuantileSketch::from_state(sketch_of(&l, "")?);
                match l.u64("which")? {
                    0 => c.tick_sketch = s,
                    1 => c.run_sketch = s,
                    other => {
                        return Err(snap_err(l.no, format!("unknown sketch slot {other}")))
                    }
                }
            }
            "plane" | "plane_group" | "series" | "series_win" | "ledger" => {
                let ps = plane.as_mut().ok_or_else(|| {
                    snap_err(l.no, format!("\"{sec}\" section but the obs plane is off"))
                })?;
                restore_plane_line(ps, sec, &l)?;
            }
            "ev" => {
                let ev = ev_of(&l)?;
                check_ev_targets(c, &ev.kind, l.no)?;
                if !ev.t.is_finite() || ev.t < c.now {
                    return Err(snap_err(l.no, format!("event time {} precedes the clock", ev.t)));
                }
                if ev.seq >= c.seq {
                    return Err(snap_err(
                        l.no,
                        format!("event seq {} >= header seq cursor {}", ev.seq, c.seq),
                    ));
                }
                c.heap.push(Reverse(ev));
            }
            "source" => {
                source = Some(match l.u64("kind")? {
                    0 => SourceState::Synthetic {
                        gap: l.words("g")?,
                        size: l.words("s")?,
                        class: l.words("c")?,
                        t: l.f64("t")?,
                        remaining: l.u64("remaining")?,
                    },
                    1 => SourceState::Replay { next: l.int("next")? },
                    other => {
                        return Err(snap_err(l.no, format!("unknown source kind {other}")))
                    }
                });
            }
            other => return Err(snap_err(l.no, format!("unknown section {other:?}"))),
        }
    }

    // Every section appears exactly as often as the writer emits it: a
    // missing one would leave fresh state behind, a repeated one would
    // silently override its twin.
    let mut expected = vec![
        ("ctl", 1),
        ("group", c.groups.len()),
        ("node", c.nodes.len()),
        ("pending", 1),
        ("sketch", 2),
        ("source", 1),
    ];
    if plane.is_some() {
        expected.extend([
            ("plane", 1),
            ("plane_group", c.groups.len()),
            ("series", 1),
            ("ledger", 1),
        ]);
    }
    for (sec, want) in expected {
        let got = seen.get(sec).copied().unwrap_or(0);
        if got != want {
            return Err(EnpropError::invalid_config(format!(
                "snapshot has {got} \"{sec}\" sections, expected {want}"
            )));
        }
    }
    if let (Some(ps), Some(p)) = (&plane, c.plane.as_mut()) {
        p.restore(ps)?;
        c.plane_next_close_s = p.next_close_s();
    }
    let source = source.ok_or_else(|| {
        EnpropError::invalid_config("snapshot has no \"source\" section".to_string())
    })?;
    Ok(Restored { source, counters })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_reader_parses_the_shapes_we_emit() {
        let text = "{\"sec\":\"ctl\",\"a\":7,\"ab\":9,\"xs\":[1,2,3],\"empty\":[]}";
        let l = Line::parse(text, 3).unwrap();
        assert_eq!(l.str("sec").unwrap(), "ctl");
        assert_eq!(l.u64("a").unwrap(), 7);
        assert_eq!(l.u64("ab").unwrap(), 9);
        assert_eq!(l.arr("xs").unwrap(), vec![1, 2, 3]);
        assert_eq!(l.arr("empty").unwrap(), Vec::<u64>::new());
        assert_eq!(l.int::<u8>("ab").unwrap(), 9);
        let err = l.u64("missing").unwrap_err().to_string();
        assert!(err.contains("line 3") && err.contains("missing"), "{err}");
        let err = l.tuples::<2>("xs").unwrap_err().to_string();
        assert!(err.contains("malformed"), "{err}");
        assert!(l.words("xs").is_err());
        let err = Line::parse("{\"sec\":\"ctl\",\"a\":7", 4).err().unwrap().to_string();
        assert!(err.contains("line 4") && err.contains("truncated"), "{err}");
        let big = Line::parse("{\"v\":300}", 1).unwrap();
        let err = big.int::<u8>("v").unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn event_encoding_round_trips_every_kind() {
        let evs = vec![
            Ev { t: 1.25, seq: 0, kind: EvKind::Arrival { ops: 512.5, class: 1 } },
            Ev { t: 2.0, seq: 1, kind: EvKind::Completion { node: 3, epoch: 9 } },
            Ev { t: 2.5, seq: 2, kind: EvKind::Timeout { req: 17, dispatch: 4 } },
            Ev { t: 3.0, seq: 3, kind: EvKind::Redispatch { req: 17 } },
            Ev {
                t: 3.5,
                seq: 4,
                kind: EvKind::Fault { node: 1, kind: FaultKind::Stall { duration_s: 0.75 } },
            },
            Ev { t: 4.0, seq: 5, kind: EvKind::FaultWindow { node: 0, window: 2 } },
            Ev { t: 4.5, seq: 6, kind: EvKind::StallEnd { node: 1 } },
            Ev { t: 5.0, seq: 7, kind: EvKind::StragglerEnd { node: 2 } },
            Ev { t: 5.5, seq: 8, kind: EvKind::Repair { node: 3 } },
            Ev { t: 6.0, seq: 9, kind: EvKind::HealthCheck },
            Ev { t: 6.5, seq: 10, kind: EvKind::ControlTick },
            Ev { t: 7.0, seq: 11, kind: EvKind::DrainDeadline },
            Ev { t: 7.5, seq: 12, kind: EvKind::DomainWindow { window: 5 } },
            Ev {
                t: 8.0,
                seq: 13,
                kind: EvKind::DomainFault {
                    event: DomainEvent {
                        at_s: 0.125,
                        domain: Domain::Pdu(1),
                        kind: DomainFaultKind::PowerEmergency { cap_w: 90.0, duration_s: 30.0 },
                    },
                },
            },
            Ev { t: 8.5, seq: 14, kind: EvKind::EmergencyEnd },
        ];
        for ev in &evs {
            let mut line = String::new();
            ev_line(&mut line, ev);
            let back = ev_of(&Line::parse(line.trim_end(), 1).unwrap()).expect("round trip");
            assert_eq!(back.t.to_bits(), ev.t.to_bits());
            assert_eq!(back.seq, ev.seq);
            // EvKind carries no PartialEq; compare through the encoding.
            let mut again = String::new();
            ev_line(&mut again, &back);
            assert_eq!(again, line);
        }
    }

    #[test]
    fn sketch_state_round_trips_negative_bucket_keys() {
        let s = SketchState {
            alpha: 0.01,
            max_buckets: 64,
            buckets: vec![(-212, 5), (0, 1), (7, 2)],
            low: 1,
            count: 8,
            sum: 1.5,
            min: 0.001,
            max: 2.0,
        };
        for p in ["", "s"] {
            // A series window's own count/sum precede its sketch's.
            let mut out = String::from(if p.is_empty() { "{" } else { "{\"count\":3,\"sum\":0," });
            push_sketch(&mut out, &s, p);
            out.push('}');
            let back = sketch_of(&Line::parse(&out, 1).unwrap(), p).expect("round trip");
            assert_eq!(back, s);
        }
    }
}
