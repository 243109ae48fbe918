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
use std::collections::VecDeque;
use std::fmt::Write as _;

use enprop_faults::{Domain, DomainEvent, DomainFaultKind, EnpropError, FaultKind};
use enprop_obs::{LedgerState, QuantileSketch, SeriesState, SketchState, WindowState};

use crate::arrivals::SourceState;
use crate::controller::{Admin, Breaker, Controller, Ev, EvKind, Loc, Req, Running};
use crate::plane::{PlaneGroupState, PlaneState};

/// Version tag of the snapshot format; bumped on any incompatible change.
pub const SNAPSHOT_VERSION: &str = "enprop-snapshot-v1";

// ---- serialization ---------------------------------------------------------

fn bits(v: f64) -> u64 {
    v.to_bits()
}

fn push_u64s(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn sketch_line(out: &mut String, which: u32, s: &SketchState) {
    let _ = write!(
        out,
        "{{\"sec\":\"sketch\",\"which\":{},\"alpha\":{},\"maxb\":{},\"lowc\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":",
        which,
        bits(s.alpha),
        s.max_buckets,
        s.low,
        s.count,
        bits(s.sum),
        bits(s.min),
        bits(s.max),
    );
    let flat: Vec<u64> = s
        .buckets
        .iter()
        .flat_map(|&(k, n)| [i64::from(k) as u64, n])
        .collect();
    push_u64s(out, &flat);
    out.push_str("}\n");
}

fn sketch_fields(s: &SketchState) -> String {
    let mut f = format!(
        "\"alpha\":{},\"maxb\":{},\"lowc\":{},\"scount\":{},\"ssum\":{},\"smin\":{},\"smax\":{},\"buckets\":",
        bits(s.alpha),
        s.max_buckets,
        s.low,
        s.count,
        bits(s.sum),
        bits(s.min),
        bits(s.max),
    );
    let flat: Vec<u64> = s
        .buckets
        .iter()
        .flat_map(|&(k, n)| [i64::from(k) as u64, n])
        .collect();
    push_u64s(&mut f, &flat);
    f
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
    let _ = writeln!(
        out,
        "{{\"sec\":\"ctl\",\"next_req_id\":{},\"arrivals_done\":{},\"drain_armed\":{},\"shed_mode\":{},\"shed_entries\":{},\"cooldown\":{},\"window_arrival_ops\":{},\"resp_sum\":{},\"em_cap\":{},\"em_until\":{},\"em_level\":{},\"class_floor\":{},\"n_arrivals\":{},\"n_completions\":{},\"n_shed_admission\":{},\"n_shed_retry\":{},\"n_shed_backpressure\":{},\"n_timeouts\":{},\"n_retries\":{},\"n_reroutes\":{},\"n_crashes\":{},\"n_stalls\":{},\"n_stragglers\":{},\"n_repairs\":{},\"n_activations\":{},\"n_deactivations\":{},\"n_dvfs_up\":{},\"n_dvfs_down\":{},\"n_shed_toggles\":{},\"n_rack_crashes\":{},\"n_pdu_losses\":{},\"n_partitions\":{},\"n_power_emergencies\":{},\"n_emergency_actions\":{},\"n_breaker_opens\":{},\"n_breaker_closes\":{}}}",
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
        c.arrivals,
        c.completions,
        c.shed_admission,
        c.shed_retry,
        c.shed_backpressure,
        c.timeouts,
        c.retries,
        c.reroutes,
        c.crashes,
        c.stalls,
        c.stragglers,
        c.repairs,
        c.activations,
        c.deactivations,
        c.dvfs_up,
        c.dvfs_down,
        c.shed_toggles,
        c.rack_crashes,
        c.pdu_losses,
        c.partitions,
        c.power_emergencies,
        c.emergency_actions,
        c.breaker_opens,
        c.breaker_closes,
    );
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
        let q: Vec<u64> = n.queue.iter().copied().collect();
        push_u64s(&mut out, &q);
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
    let p: Vec<u64> = c.pending.iter().copied().collect();
    push_u64s(&mut out, &p);
    out.push_str("}\n");
    sketch_line(&mut out, 0, &c.tick_sketch.state());
    sketch_line(&mut out, 1, &c.run_sketch.state());
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
        let ring: Vec<u64> = ps.burn_ring.iter().flat_map(|&(a, b)| [a, b]).collect();
        push_u64s(&mut out, &ring);
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
            let _ = writeln!(
                out,
                "{{\"sec\":\"series_win\",\"index\":{},\"count\":{},\"sum\":{},{}}}",
                w.index,
                w.count,
                bits(w.sum),
                sketch_fields(&w.sketch),
            );
        }
        out.push_str("{\"sec\":\"ledger\",\"charges\":");
        let ch: Vec<u64> = ps
            .ledger
            .charges
            .iter()
            .flat_map(|&(g, o, j)| [u64::from(g), u64::from(o), bits(j)])
            .collect();
        push_u64s(&mut out, &ch);
        out.push_str(",\"ideal\":");
        let id: Vec<u64> = ps
            .ledger
            .ideal_j
            .iter()
            .flat_map(|&(g, j)| [u64::from(g), bits(j)])
            .collect();
        push_u64s(&mut out, &id);
        out.push_str(",\"completed\":");
        let co: Vec<u64> = ps
            .ledger
            .completed
            .iter()
            .flat_map(|&(g, n)| [u64::from(g), n])
            .collect();
        push_u64s(&mut out, &co);
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
            push_u64s(&mut out, gap);
            out.push_str(",\"s\":");
            push_u64s(&mut out, size);
            out.push_str(",\"c\":");
            push_u64s(&mut out, class);
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

fn snap_err(lineno: usize, msg: impl std::fmt::Display) -> EnpropError {
    EnpropError::invalid_config(format!("snapshot line {lineno}: {msg}"))
}

/// The `"sec"` tag of a snapshot line.
fn sec_of(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"sec\":\"")?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// The decimal `u64` following `"key":` on `line`.
fn num(line: &str, lineno: usize, key: &str) -> Result<u64, EnpropError> {
    let needle = format!("\"{key}\":");
    let at = line
        .find(&needle)
        .ok_or_else(|| snap_err(lineno, format!("missing \"{key}\"")))?;
    let rest = &line[at + needle.len()..];
    let end = rest
        .find(|ch: char| !ch.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| snap_err(lineno, format!("malformed \"{key}\" value (truncated line?)")))
}

/// An f64 that traveled as its bit pattern.
fn fnum(line: &str, lineno: usize, key: &str) -> Result<f64, EnpropError> {
    Ok(f64::from_bits(num(line, lineno, key)?))
}

/// The quoted string following `"key":` on `line`. Snapshot strings are
/// counter names — static identifiers with no escapes — so the first
/// closing quote ends the value.
fn str_of<'l>(line: &'l str, lineno: usize, key: &str) -> Result<&'l str, EnpropError> {
    let needle = format!("\"{key}\":\"");
    let at = line
        .find(&needle)
        .ok_or_else(|| snap_err(lineno, format!("missing \"{key}\" string")))?;
    let rest = &line[at + needle.len()..];
    let end = rest
        .find('"')
        .ok_or_else(|| snap_err(lineno, format!("unterminated \"{key}\" string")))?;
    Ok(&rest[..end])
}

fn flag(line: &str, lineno: usize, key: &str) -> Result<bool, EnpropError> {
    match num(line, lineno, key)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(snap_err(lineno, format!("\"{key}\" must be 0 or 1, got {v}"))),
    }
}

/// The `[a,b,…]` u64 array following `"key":` on `line`.
fn arr(line: &str, lineno: usize, key: &str) -> Result<Vec<u64>, EnpropError> {
    let needle = format!("\"{key}\":[");
    let at = line
        .find(&needle)
        .ok_or_else(|| snap_err(lineno, format!("missing \"{key}\" array")))?;
    let rest = &line[at + needle.len()..];
    let end = rest
        .find(']')
        .ok_or_else(|| snap_err(lineno, format!("unterminated \"{key}\" array")))?;
    let body = &rest[..end];
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|s| {
            s.parse()
                .map_err(|_| snap_err(lineno, format!("malformed \"{key}\" array element")))
        })
        .collect()
}

fn usize_of(v: u64, lineno: usize, what: &str) -> Result<usize, EnpropError> {
    usize::try_from(v).map_err(|_| snap_err(lineno, format!("{what} out of range: {v}")))
}

fn u32_of(v: u64, lineno: usize, what: &str) -> Result<u32, EnpropError> {
    u32::try_from(v).map_err(|_| snap_err(lineno, format!("{what} out of range: {v}")))
}

fn u8_of(v: u64, lineno: usize, what: &str) -> Result<u8, EnpropError> {
    u8::try_from(v).map_err(|_| snap_err(lineno, format!("{what} out of range: {v}")))
}

fn sketch_of(
    line: &str,
    lineno: usize,
    keys: (&str, &str, &str, &str, &str, &str),
) -> Result<SketchState, EnpropError> {
    let (alpha_k, maxb_k, count_k, sum_k, min_k, max_k) = keys;
    let flat = arr(line, lineno, "buckets")?;
    if flat.len() % 2 != 0 {
        return Err(snap_err(lineno, "odd-length \"buckets\" array"));
    }
    let buckets = flat
        .chunks_exact(2)
        .map(|c| {
            let k = i32::try_from(c[0] as i64)
                .map_err(|_| snap_err(lineno, "bucket key out of i32 range"))?;
            Ok((k, c[1]))
        })
        .collect::<Result<Vec<_>, EnpropError>>()?;
    Ok(SketchState {
        alpha: fnum(line, lineno, alpha_k)?,
        max_buckets: usize_of(num(line, lineno, maxb_k)?, lineno, "max_buckets")?,
        buckets,
        low: num(line, lineno, "lowc")?,
        count: num(line, lineno, count_k)?,
        sum: fnum(line, lineno, sum_k)?,
        min: fnum(line, lineno, min_k)?,
        max: fnum(line, lineno, max_k)?,
    })
}

fn ev_of(line: &str, lineno: usize) -> Result<Ev, EnpropError> {
    let t = fnum(line, lineno, "t")?;
    let seq = num(line, lineno, "seq")?;
    let k = num(line, lineno, "k")?;
    let a = num(line, lineno, "a")?;
    let b = num(line, lineno, "b")?;
    let kind = match k {
        0 => EvKind::Arrival {
            ops: f64::from_bits(a),
            class: u8_of(b, lineno, "class")?,
        },
        1 => EvKind::Completion { node: usize_of(a, lineno, "node")?, epoch: b },
        2 => EvKind::Timeout { req: a, dispatch: u32_of(b, lineno, "dispatch")? },
        3 => EvKind::Redispatch { req: a },
        4 => {
            let c = fnum(line, lineno, "c")?;
            let kind = match b {
                0 => FaultKind::Crash,
                1 => FaultKind::Stall { duration_s: c },
                2 => FaultKind::Straggler { slowdown: c },
                other => return Err(snap_err(lineno, format!("unknown fault kind {other}"))),
            };
            EvKind::Fault { node: usize_of(a, lineno, "node")?, kind }
        }
        5 => EvKind::FaultWindow {
            node: usize_of(a, lineno, "node")?,
            window: u32_of(b, lineno, "window")?,
        },
        6 => EvKind::StallEnd { node: usize_of(a, lineno, "node")? },
        7 => EvKind::StragglerEnd { node: usize_of(a, lineno, "node")? },
        8 => EvKind::Repair { node: usize_of(a, lineno, "node")? },
        9 => EvKind::HealthCheck,
        10 => EvKind::ControlTick,
        11 => EvKind::DrainDeadline,
        12 => EvKind::DomainWindow { window: u32_of(a, lineno, "window")? },
        13 => {
            let c = num(line, lineno, "c")?;
            let d = num(line, lineno, "d")?;
            let e = fnum(line, lineno, "e")?;
            let f = fnum(line, lineno, "f")?;
            let domain = match b {
                0 => Domain::Rack(usize_of(c, lineno, "rack")?),
                1 => Domain::Pdu(usize_of(c, lineno, "pdu")?),
                2 => Domain::Cluster,
                other => return Err(snap_err(lineno, format!("unknown domain tag {other}"))),
            };
            let kind = match d {
                0 => DomainFaultKind::RackCrash,
                1 => DomainFaultKind::PduLoss,
                2 => DomainFaultKind::NetworkPartition { duration_s: e },
                3 => DomainFaultKind::PowerEmergency { cap_w: e, duration_s: f },
                other => {
                    return Err(snap_err(lineno, format!("unknown domain fault kind {other}")))
                }
            };
            EvKind::DomainFault { event: DomainEvent { at_s: f64::from_bits(a), domain, kind } }
        }
        14 => EvKind::EmergencyEnd,
        other => return Err(snap_err(lineno, format!("unknown event kind {other}"))),
    };
    Ok(Ev { t, seq, kind })
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

fn rng_state(v: &[u64], lineno: usize, what: &str) -> Result<[u64; 4], EnpropError> {
    <[u64; 4]>::try_from(v)
        .map_err(|_| snap_err(lineno, format!("{what} must have exactly 4 words")))
}

// ---- restore ---------------------------------------------------------------

/// The parsed `"plane"` head line, held until the group/series/ledger
/// sections arrive: `(cur_index, cur_arrivals, cur_shed, cur_breaches,
/// alert, burn_fast, burn_slow, breach ring)`.
type PlaneHead = (u64, u64, u64, u64, bool, f64, f64, Vec<(u64, u64)>);

/// What [`restore`] hands back beyond the controller state it writes in
/// place: the arrival source's cursor and the recorder's aggregate counter
/// totals at checkpoint time.
pub(crate) struct Restored {
    pub source: SourceState,
    pub counters: Vec<(String, u64)>,
}

/// Restore `text` (produced by [`serialize`]) onto `c`, a fresh controller
/// built from the same workload / cluster / plans / config. Returns the
/// arrival source's snapshotted cursor (for the caller to re-seat) and the
/// checkpointed recorder counter totals (for the caller to preload). Any
/// mismatch — truncation, version skew, a different seed or cluster shape
/// — is a typed configuration error.
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
    let last = lines[total - 1];
    if sec_of(last) != Some("end") {
        return Err(EnpropError::invalid_config(
            "snapshot has no \"end\" trailer — truncated mid-write?".to_string(),
        ));
    }
    let counted = num(last, total, "lines")?;
    if counted != (total - 1) as u64 {
        return Err(EnpropError::invalid_config(format!(
            "snapshot trailer counts {counted} lines but {} precede it — truncated mid-write?",
            total - 1
        )));
    }
    // Header: version + shape checks.
    let header = lines[0];
    match sec_of(header) {
        Some(v) if v == SNAPSHOT_VERSION => {}
        Some(v) => {
            return Err(EnpropError::invalid_config(format!(
                "snapshot version {v:?} is not the supported {SNAPSHOT_VERSION:?}"
            )))
        }
        None => return Err(snap_err(1, "missing \"sec\" version tag")),
    }
    let seed = num(header, 1, "seed")?;
    if seed != c.cfg.seed {
        return Err(snap_err(
            1,
            format!("snapshot seed {seed} != configured seed {}", c.cfg.seed),
        ));
    }
    let n_groups = usize_of(num(header, 1, "groups")?, 1, "groups")?;
    let n_nodes = usize_of(num(header, 1, "nodes")?, 1, "nodes")?;
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
    let has_plane = flag(header, 1, "has_plane")?;
    if has_plane != c.plane.is_some() {
        return Err(snap_err(
            1,
            "snapshot and config disagree on whether the obs plane is on (obs_window_s)",
        ));
    }
    c.now = fnum(header, 1, "now")?;
    c.seq = num(header, 1, "seq")?;
    c.events = num(header, 1, "events")?;

    let mut source: Option<SourceState> = None;
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut saw_ctl = false;
    let mut saw_pending = false;
    let mut sketches_seen = 0u32;
    let mut plane_head: Option<PlaneHead> = None;
    let mut plane_groups: Vec<PlaneGroupState> = Vec::new();
    let mut series_head: Option<(f64, f64, usize, u64, f64)> = None;
    let mut series_wins: Vec<WindowState> = Vec::new();
    let mut ledger: Option<LedgerState> = None;
    c.heap.clear();
    c.pending.clear();
    c.inflight.clear();

    for (idx, line) in lines.iter().enumerate().take(total - 1).skip(1) {
        let lineno = idx + 1;
        let sec = sec_of(line).ok_or_else(|| snap_err(lineno, "missing \"sec\" tag"))?;
        match sec {
            "ctl" => {
                saw_ctl = true;
                c.next_req_id = num(line, lineno, "next_req_id")?;
                c.arrivals_done = flag(line, lineno, "arrivals_done")?;
                c.drain_armed = flag(line, lineno, "drain_armed")?;
                c.shed_mode = flag(line, lineno, "shed_mode")?;
                c.shed_entries = num(line, lineno, "shed_entries")?;
                c.cooldown = u32_of(num(line, lineno, "cooldown")?, lineno, "cooldown")?;
                c.window_arrival_ops = fnum(line, lineno, "window_arrival_ops")?;
                c.resp_sum = fnum(line, lineno, "resp_sum")?;
                c.emergency_cap_w = fnum(line, lineno, "em_cap")?;
                c.emergency_until_s = fnum(line, lineno, "em_until")?;
                c.emergency_level = u32_of(num(line, lineno, "em_level")?, lineno, "em_level")?;
                c.shed_class_floor =
                    u8_of(num(line, lineno, "class_floor")?, lineno, "class_floor")?;
                c.arrivals = num(line, lineno, "n_arrivals")?;
                c.completions = num(line, lineno, "n_completions")?;
                c.shed_admission = num(line, lineno, "n_shed_admission")?;
                c.shed_retry = num(line, lineno, "n_shed_retry")?;
                c.shed_backpressure = num(line, lineno, "n_shed_backpressure")?;
                c.timeouts = num(line, lineno, "n_timeouts")?;
                c.retries = num(line, lineno, "n_retries")?;
                c.reroutes = num(line, lineno, "n_reroutes")?;
                c.crashes = num(line, lineno, "n_crashes")?;
                c.stalls = num(line, lineno, "n_stalls")?;
                c.stragglers = num(line, lineno, "n_stragglers")?;
                c.repairs = num(line, lineno, "n_repairs")?;
                c.activations = num(line, lineno, "n_activations")?;
                c.deactivations = num(line, lineno, "n_deactivations")?;
                c.dvfs_up = num(line, lineno, "n_dvfs_up")?;
                c.dvfs_down = num(line, lineno, "n_dvfs_down")?;
                c.shed_toggles = num(line, lineno, "n_shed_toggles")?;
                c.rack_crashes = num(line, lineno, "n_rack_crashes")?;
                c.pdu_losses = num(line, lineno, "n_pdu_losses")?;
                c.partitions = num(line, lineno, "n_partitions")?;
                c.power_emergencies = num(line, lineno, "n_power_emergencies")?;
                c.emergency_actions = num(line, lineno, "n_emergency_actions")?;
                c.breaker_opens = num(line, lineno, "n_breaker_opens")?;
                c.breaker_closes = num(line, lineno, "n_breaker_closes")?;
            }
            "cnt" => {
                counters.push((
                    str_of(line, lineno, "name")?.to_string(),
                    num(line, lineno, "total")?,
                ));
            }
            "group" => {
                let gi = usize_of(num(line, lineno, "i")?, lineno, "group index")?;
                if gi >= c.groups.len() {
                    return Err(snap_err(lineno, format!("group index {gi} out of range")));
                }
                let freq = usize_of(num(line, lineno, "freq")?, lineno, "freq_idx")?;
                if freq >= c.groups[gi].rate_at.len() {
                    return Err(snap_err(lineno, format!("freq_idx {freq} out of range")));
                }
                c.groups[gi].freq_idx = freq;
                let ba = num(line, lineno, "ba")?;
                let bb = u32_of(num(line, lineno, "bb")?, lineno, "reopens")?;
                c.groups[gi].breaker = match num(line, lineno, "brk")? {
                    0 => Breaker::Closed { fails: u32_of(ba, lineno, "fails")? },
                    1 => Breaker::Open { until_s: f64::from_bits(ba), reopens: bb },
                    2 => Breaker::HalfOpen {
                        probe: if ba == 0 { None } else { Some(ba - 1) },
                        reopens: bb,
                    },
                    other => {
                        return Err(snap_err(lineno, format!("unknown breaker state {other}")))
                    }
                };
            }
            "node" => {
                let i = usize_of(num(line, lineno, "i")?, lineno, "node index")?;
                if i >= c.nodes.len() {
                    return Err(snap_err(lineno, format!("node index {i} out of range")));
                }
                let queue: VecDeque<u64> = arr(line, lineno, "queue")?.into_iter().collect();
                let current = if flag(line, lineno, "cur")? {
                    Some(Running {
                        req: num(line, lineno, "cur_req")?,
                        remaining_ops: fnum(line, lineno, "cur_rem")?,
                        energy_j: fnum(line, lineno, "cur_e")?,
                    })
                } else {
                    None
                };
                let n = &mut c.nodes[i];
                n.admin = match num(line, lineno, "admin")? {
                    0 => Admin::Active,
                    1 => Admin::Draining,
                    2 => Admin::Deactivated,
                    3 => Admin::Down,
                    other => {
                        return Err(snap_err(lineno, format!("unknown admin state {other}")))
                    }
                };
                n.crashed = flag(line, lineno, "crashed")?;
                n.unpowered = flag(line, lineno, "unpowered")?;
                n.stalled_until = fnum(line, lineno, "stalled_until")?;
                n.slowdown = fnum(line, lineno, "slowdown")?;
                n.slow_until = fnum(line, lineno, "slow_until")?;
                n.queued_ops = fnum(line, lineno, "queued_ops")?;
                n.epoch = num(line, lineno, "epoch")?;
                n.acct_t = fnum(line, lineno, "acct_t")?;
                n.energy_j = fnum(line, lineno, "energy")?;
                n.win_busy_j = fnum(line, lineno, "wb")?;
                n.win_ideal_j = fnum(line, lineno, "wi")?;
                n.win_idle_j = fnum(line, lineno, "wd")?;
                n.down_span_open = flag(line, lineno, "down_span")?;
                n.queue = queue;
                n.current = current;
            }
            "req" => {
                let id = num(line, lineno, "id")?;
                let loc = match num(line, lineno, "loc")? {
                    0 => Loc::Pending,
                    1 => Loc::Backoff,
                    2 => {
                        let i = usize_of(num(line, lineno, "loc_node")?, lineno, "loc_node")?;
                        if i >= c.nodes.len() {
                            return Err(snap_err(lineno, format!("loc_node {i} out of range")));
                        }
                        Loc::OnNode(i)
                    }
                    other => return Err(snap_err(lineno, format!("unknown req loc {other}"))),
                };
                let exclude = match num(line, lineno, "exclude")? {
                    0 => None,
                    e => Some(usize_of(e - 1, lineno, "exclude")?),
                };
                c.inflight.insert(
                    id,
                    Req {
                        arrived: fnum(line, lineno, "arrived")?,
                        ops: fnum(line, lineno, "ops")?,
                        class: u8_of(num(line, lineno, "class")?, lineno, "class")?,
                        attempt: u32_of(num(line, lineno, "attempt")?, lineno, "attempt")?,
                        dispatch: u32_of(num(line, lineno, "dispatch")?, lineno, "dispatch")?,
                        loc,
                        exclude,
                        traced: flag(line, lineno, "traced")?,
                    },
                );
            }
            "pending" => {
                saw_pending = true;
                c.pending = arr(line, lineno, "ids")?.into_iter().collect();
            }
            "sketch" => {
                let s = sketch_of(line, lineno, ("alpha", "maxb", "count", "sum", "min", "max"))?;
                match num(line, lineno, "which")? {
                    0 => c.tick_sketch = QuantileSketch::from_state(s),
                    1 => c.run_sketch = QuantileSketch::from_state(s),
                    other => {
                        return Err(snap_err(lineno, format!("unknown sketch slot {other}")))
                    }
                }
                sketches_seen += 1;
            }
            "plane" => {
                let flat = arr(line, lineno, "ring")?;
                if flat.len() % 2 != 0 {
                    return Err(snap_err(lineno, "odd-length \"ring\" array"));
                }
                let ring = flat.chunks_exact(2).map(|ch| (ch[0], ch[1])).collect();
                plane_head = Some((
                    num(line, lineno, "cur_index")?,
                    num(line, lineno, "cur_arrivals")?,
                    num(line, lineno, "cur_shed")?,
                    num(line, lineno, "cur_breaches")?,
                    flag(line, lineno, "alert")?,
                    fnum(line, lineno, "bfast")?,
                    fnum(line, lineno, "bslow")?,
                    ring,
                ));
            }
            "plane_group" => {
                plane_groups.push(PlaneGroupState {
                    energy_j: fnum(line, lineno, "energy")?,
                    ideal_j: fnum(line, lineno, "ideal")?,
                    outcome_j: [
                        fnum(line, lineno, "o0")?,
                        fnum(line, lineno, "o1")?,
                        fnum(line, lineno, "o2")?,
                        fnum(line, lineno, "o3")?,
                    ],
                    completions: num(line, lineno, "completions")?,
                });
            }
            "series" => {
                series_head = Some((
                    fnum(line, lineno, "window_s")?,
                    fnum(line, lineno, "alpha")?,
                    usize_of(num(line, lineno, "max_windows")?, lineno, "max_windows")?,
                    num(line, lineno, "evicted_count")?,
                    fnum(line, lineno, "evicted_sum")?,
                ));
            }
            "series_win" => {
                series_wins.push(WindowState {
                    index: num(line, lineno, "index")?,
                    count: num(line, lineno, "count")?,
                    sum: fnum(line, lineno, "sum")?,
                    sketch: sketch_of(
                        line,
                        lineno,
                        ("alpha", "maxb", "scount", "ssum", "smin", "smax"),
                    )?,
                });
            }
            "ledger" => {
                let ch = arr(line, lineno, "charges")?;
                if ch.len() % 3 != 0 {
                    return Err(snap_err(lineno, "odd-shaped \"charges\" array"));
                }
                let charges = ch
                    .chunks_exact(3)
                    .map(|t| {
                        Ok((
                            u16::try_from(t[0])
                                .map_err(|_| snap_err(lineno, "charge group out of range"))?,
                            u8_of(t[1], lineno, "charge outcome")?,
                            f64::from_bits(t[2]),
                        ))
                    })
                    .collect::<Result<Vec<_>, EnpropError>>()?;
                let id = arr(line, lineno, "ideal")?;
                if id.len() % 2 != 0 {
                    return Err(snap_err(lineno, "odd-length \"ideal\" array"));
                }
                let ideal_j = id
                    .chunks_exact(2)
                    .map(|t| {
                        Ok((
                            u16::try_from(t[0])
                                .map_err(|_| snap_err(lineno, "ideal group out of range"))?,
                            f64::from_bits(t[1]),
                        ))
                    })
                    .collect::<Result<Vec<_>, EnpropError>>()?;
                let co = arr(line, lineno, "completed")?;
                if co.len() % 2 != 0 {
                    return Err(snap_err(lineno, "odd-length \"completed\" array"));
                }
                let completed = co
                    .chunks_exact(2)
                    .map(|t| {
                        Ok((
                            u16::try_from(t[0])
                                .map_err(|_| snap_err(lineno, "completed group out of range"))?,
                            t[1],
                        ))
                    })
                    .collect::<Result<Vec<_>, EnpropError>>()?;
                ledger = Some(LedgerState { charges, ideal_j, completed });
            }
            "ev" => {
                let ev = ev_of(line, lineno)?;
                check_ev_targets(c, &ev.kind, lineno)?;
                if ev.seq >= c.seq {
                    return Err(snap_err(
                        lineno,
                        format!("event seq {} >= header seq cursor {}", ev.seq, c.seq),
                    ));
                }
                c.heap.push(Reverse(ev));
            }
            "source" => {
                source = Some(match num(line, lineno, "kind")? {
                    0 => SourceState::Synthetic {
                        gap: rng_state(&arr(line, lineno, "g")?, lineno, "\"g\"")?,
                        size: rng_state(&arr(line, lineno, "s")?, lineno, "\"s\"")?,
                        class: rng_state(&arr(line, lineno, "c")?, lineno, "\"c\"")?,
                        t: fnum(line, lineno, "t")?,
                        remaining: num(line, lineno, "remaining")?,
                    },
                    1 => SourceState::Replay {
                        next: usize_of(num(line, lineno, "next")?, lineno, "next")?,
                    },
                    other => {
                        return Err(snap_err(lineno, format!("unknown source kind {other}")))
                    }
                });
            }
            other => return Err(snap_err(lineno, format!("unknown section {other:?}"))),
        }
    }

    if !saw_ctl {
        return Err(EnpropError::invalid_config(
            "snapshot has no \"ctl\" section".to_string(),
        ));
    }
    if !saw_pending {
        return Err(EnpropError::invalid_config(
            "snapshot has no \"pending\" section".to_string(),
        ));
    }
    if sketches_seen != 2 {
        return Err(EnpropError::invalid_config(format!(
            "snapshot has {sketches_seen} sketch sections, expected 2"
        )));
    }
    if has_plane {
        let (cur_index, cur_arrivals, cur_shed, cur_breaches, alert, burn_fast, burn_slow, ring) =
            plane_head.ok_or_else(|| {
                EnpropError::invalid_config("snapshot has no \"plane\" section".to_string())
            })?;
        let (window_s, alpha, max_windows, evicted_count, evicted_sum) =
            series_head.ok_or_else(|| {
                EnpropError::invalid_config("snapshot has no \"series\" section".to_string())
            })?;
        let ledger = ledger.ok_or_else(|| {
            EnpropError::invalid_config("snapshot has no \"ledger\" section".to_string())
        })?;
        let ps = PlaneState {
            resp: SeriesState {
                window_s,
                alpha,
                max_windows,
                windows: series_wins,
                evicted_count,
                evicted_sum,
            },
            ledger,
            cur_index,
            cur_arrivals,
            cur_shed,
            cur_breaches,
            groups: plane_groups,
            burn_ring: ring,
            alert,
            burn_fast,
            burn_slow,
        };
        let plane = c.plane.as_mut().expect("has_plane checked against c.plane");
        plane.restore(&ps)?;
        c.plane_next_close_s = plane.next_close_s();
    } else {
        c.plane_next_close_s = f64::INFINITY;
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
    fn sec_and_num_parse_the_line_shapes_we_emit() {
        let line = "{\"sec\":\"ctl\",\"a\":7,\"ab\":9,\"xs\":[1,2,3],\"empty\":[]}";
        assert_eq!(sec_of(line), Some("ctl"));
        assert_eq!(num(line, 1, "a").unwrap(), 7);
        assert_eq!(num(line, 1, "ab").unwrap(), 9);
        assert_eq!(arr(line, 1, "xs").unwrap(), vec![1, 2, 3]);
        assert_eq!(arr(line, 1, "empty").unwrap(), Vec::<u64>::new());
        let err = num(line, 3, "missing").unwrap_err().to_string();
        assert!(err.contains("line 3"), "{err}");
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
            let back = ev_of(line.trim_end(), 1).expect("round trip");
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
        let mut out = String::new();
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
        sketch_line(&mut out, 0, &s);
        let back = sketch_of(
            out.trim_end(),
            1,
            ("alpha", "maxb", "count", "sum", "min", "max"),
        )
        .expect("round trip");
        assert_eq!(back.buckets, s.buckets);
        assert_eq!(back.count, s.count);
        assert_eq!(back.sum.to_bits(), s.sum.to_bits());
    }
}
