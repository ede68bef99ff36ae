//! Trace export: converting [`TraceEvent`] streams into Chrome
//! trace-event JSON and JSONL, plus the span accounting the checker
//! uses to certify an export against the engine's attribution ledger.
//!
//! # Chrome track layout (DESIGN.md §10)
//!
//! Each simulated CPU becomes one process (`pid` = CPU index); each
//! virtualization level becomes one thread within it (`tid` = level).
//! An outermost exit renders as a complete ("X") span on the track of
//! the level that exited, with `ts = completed.at - spent` and
//! `dur = spent` taken verbatim from the engine's `Completed` event —
//! so summing the durations of `outermost: true` spans per
//! (level, reason) reproduces `RunStats::cycles_by_reason` *exactly*,
//! which is what the checker's metrics pass certifies. Nested exits
//! (the multiplication itself) render as inner spans on their own
//! level's track, closing at their `Returned` event — the exact
//! instant their round trip finished — so inner spans nest without
//! overlapping and the causal tree ([`causal_forest`]) can partition
//! every outermost span into per-frame self times. Interventions, DVH
//! intercepts, and interrupt deliveries are instant ("i") events.
//!
//! Timestamps are simulated cycles written verbatim; the viewer labels
//! them microseconds, but only relative magnitude matters and cycles
//! keep the export exact.

use crate::trace::TraceEvent;
use dvh_arch::vmx::ExitReason;
use dvh_arch::Cycles;
use dvh_obs::chrome::ChromeTrace;
use dvh_obs::json::Value;
use std::collections::BTreeMap;

/// An exit that has been recorded but whose completion has not yet
/// been seen while scanning the event stream.
struct OpenExit {
    at: Cycles,
    lvl: usize,
    reason: ExitReason,
}

fn span_args(lvl: usize, reason: ExitReason, outermost: bool) -> Vec<(String, Value)> {
    vec![
        ("level".to_string(), Value::Int(lvl as i64)),
        ("reason".to_string(), Value::Str(reason.to_string())),
        ("outermost".to_string(), Value::Bool(outermost)),
    ]
}

/// Converts a trace into a Chrome trace-event document with one
/// process per simulated CPU and one thread per level.
pub fn chrome_trace(events: &[TraceEvent], num_cpus: usize, levels: usize) -> ChromeTrace {
    let mut t = ChromeTrace::new();
    for cpu in 0..num_cpus {
        t.set_process_name(cpu, &format!("cpu{cpu}"));
        for lvl in 1..=levels {
            t.set_thread_name(cpu, lvl, &format!("L{lvl}"));
        }
    }
    // Per-CPU stacks of exits awaiting their completion. Only the
    // outermost exit of a chain gets a `Completed` event, which
    // therefore closes every open exit on that CPU.
    let mut open: Vec<Vec<OpenExit>> = (0..num_cpus).map(|_| Vec::new()).collect();
    for e in events {
        match e {
            TraceEvent::Exit {
                at,
                cpu,
                from_level,
                reason,
                ..
            } => {
                if let Some(stack) = open.get_mut(*cpu) {
                    stack.push(OpenExit {
                        at: *at,
                        lvl: *from_level,
                        reason: *reason,
                    });
                }
            }
            TraceEvent::Returned { at, cpu, .. } => {
                // A nested exit's round trip finished: close its span
                // at the true return time. The bottom stack entry is
                // the outermost exit, which only `Completed` closes.
                if let Some(stack) = open.get_mut(*cpu) {
                    if stack.len() > 1 {
                        let o = stack.pop().expect("len checked above");
                        let dur = (*at - o.at).as_u64();
                        t.span(
                            &format!("exit L{} {}", o.lvl, o.reason),
                            "exit",
                            *cpu,
                            o.lvl,
                            o.at.as_u64(),
                            dur,
                            span_args(o.lvl, o.reason, false),
                        );
                    }
                }
            }
            TraceEvent::Completed {
                at,
                cpu,
                from_level,
                reason,
                spent,
            } => {
                if let Some(stack) = open.get_mut(*cpu) {
                    // Leftover inner exits (possible only when the
                    // bounded buffer evicted their `Returned`) close at
                    // the instant the outermost one resumes.
                    while stack.len() > 1 {
                        let o = stack.pop().expect("len checked above");
                        let dur = (*at - o.at).as_u64();
                        t.span(
                            &format!("exit L{} {}", o.lvl, o.reason),
                            "exit",
                            *cpu,
                            o.lvl,
                            o.at.as_u64(),
                            dur,
                            span_args(o.lvl, o.reason, false),
                        );
                    }
                    // The matching outermost open (absent only when
                    // the trace buffer evicted it).
                    stack.pop();
                }
                // The outermost span takes ts and dur verbatim from
                // the Completed event, guaranteeing span totals equal
                // the attribution ledger even for truncated traces.
                let dur = spent.as_u64();
                t.span(
                    &format!("exit L{} {}", *from_level, *reason),
                    "exit",
                    *cpu,
                    *from_level,
                    at.as_u64().saturating_sub(dur),
                    dur,
                    span_args(*from_level, *reason, true),
                );
            }
            TraceEvent::Intervention {
                at,
                cpu,
                hv_level,
                reason,
            } => {
                t.instant(
                    &format!("intervene L{hv_level}"),
                    "intervention",
                    *cpu,
                    *hv_level,
                    at.as_u64(),
                    vec![("reason".to_string(), Value::Str(reason.to_string()))],
                );
            }
            TraceEvent::DvhIntercept { at, cpu, mechanism } => {
                t.instant(
                    &format!("DVH {mechanism}"),
                    "dvh",
                    *cpu,
                    0,
                    at.as_u64(),
                    vec![(
                        "mechanism".to_string(),
                        Value::Str((*mechanism).to_string()),
                    )],
                );
            }
            TraceEvent::IrqDelivered {
                at,
                cpu,
                vector,
                woke,
            } => {
                t.instant(
                    &format!("irq {vector:#x}"),
                    "irq",
                    *cpu,
                    0,
                    at.as_u64(),
                    vec![
                        ("vector".to_string(), Value::Int(*vector as i64)),
                        ("woke".to_string(), Value::Bool(*woke)),
                    ],
                );
            }
        }
    }
    t
}

/// [`chrome_trace`], serialized.
pub fn chrome_json(events: &[TraceEvent], num_cpus: usize, levels: usize) -> String {
    chrome_trace(events, num_cpus, levels).to_json()
}

/// One JSON object per event, one event per line — the
/// machine-readable sibling of the `Display` text format.
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_value(e).to_json());
        out.push('\n');
    }
    out
}

/// A single trace event as a JSON value.
pub fn event_value(e: &TraceEvent) -> Value {
    let mut members: Vec<(String, Value)> = Vec::new();
    let mut put = |k: &str, v: Value| members.push((k.to_string(), v));
    match e {
        TraceEvent::Exit {
            at,
            cpu,
            from_level,
            reason,
            vmcs_field,
        } => {
            put("type", Value::Str("exit".to_string()));
            put("at", Value::Int(at.as_u64() as i64));
            put("cpu", Value::Int(*cpu as i64));
            put("level", Value::Int(*from_level as i64));
            put("reason", Value::Str(reason.to_string()));
            if let Some(f) = vmcs_field {
                put("vmcs_field", Value::Int(*f as i64));
            }
        }
        TraceEvent::Completed {
            at,
            cpu,
            from_level,
            reason,
            spent,
        } => {
            put("type", Value::Str("completed".to_string()));
            put("at", Value::Int(at.as_u64() as i64));
            put("cpu", Value::Int(*cpu as i64));
            put("level", Value::Int(*from_level as i64));
            put("reason", Value::Str(reason.to_string()));
            put("spent", Value::Int(spent.as_u64() as i64));
        }
        TraceEvent::Returned {
            at,
            cpu,
            from_level,
            reason,
        } => {
            put("type", Value::Str("returned".to_string()));
            put("at", Value::Int(at.as_u64() as i64));
            put("cpu", Value::Int(*cpu as i64));
            put("level", Value::Int(*from_level as i64));
            put("reason", Value::Str(reason.to_string()));
        }
        TraceEvent::Intervention {
            at,
            cpu,
            hv_level,
            reason,
        } => {
            put("type", Value::Str("intervention".to_string()));
            put("at", Value::Int(at.as_u64() as i64));
            put("cpu", Value::Int(*cpu as i64));
            put("level", Value::Int(*hv_level as i64));
            put("reason", Value::Str(reason.to_string()));
        }
        TraceEvent::DvhIntercept { at, cpu, mechanism } => {
            put("type", Value::Str("dvh".to_string()));
            put("at", Value::Int(at.as_u64() as i64));
            put("cpu", Value::Int(*cpu as i64));
            put("mechanism", Value::Str((*mechanism).to_string()));
        }
        TraceEvent::IrqDelivered {
            at,
            cpu,
            vector,
            woke,
        } => {
            put("type", Value::Str("irq".to_string()));
            put("at", Value::Int(at.as_u64() as i64));
            put("cpu", Value::Int(*cpu as i64));
            put("vector", Value::Int(*vector as i64));
            put("woke", Value::Bool(*woke));
        }
    }
    Value::Obj(members)
}

/// Rebuilds the causal forest of a trace: one tree per outermost exit,
/// with every nested exit a child of the exit whose handling caused it
/// (DESIGN.md §11). The bridge between the engine's event vocabulary
/// and the level-agnostic builder in [`dvh_obs::causal`]: `Exit` opens
/// a node, `Returned` closes a nested one, `Completed` closes the
/// outermost — with the root interval taken verbatim from
/// `[at - spent, at]` so root spans reproduce the attribution ledger
/// bit for bit (the trace linter's `cycle-attribution` rule proves
/// `at - spent` is the recorded exit time).
pub fn causal_forest(events: &[TraceEvent], num_cpus: usize) -> dvh_obs::causal::Forest {
    let mut b = dvh_obs::causal::CausalBuilder::new(num_cpus);
    for e in events {
        match e {
            TraceEvent::Exit {
                at,
                cpu,
                from_level,
                reason,
                ..
            } => b.exit(*cpu, at.as_u64(), *from_level, *reason),
            TraceEvent::Returned { at, cpu, .. } => b.returned(*cpu, at.as_u64()),
            TraceEvent::Completed {
                at,
                cpu,
                from_level,
                reason,
                spent,
            } => b.completed(*cpu, at.as_u64(), *from_level, *reason, spent.as_u64()),
            TraceEvent::Intervention { .. }
            | TraceEvent::DvhIntercept { .. }
            | TraceEvent::IrqDelivered { .. } => {}
        }
    }
    b.finish()
}

/// Per-(level, reason) cycle totals of the trace's `Completed` events
/// — what the outermost chrome spans sum to, shaped like
/// [`crate::stats::RunStats::cycles_by_reason`].
pub fn span_cycle_totals(events: &[TraceEvent]) -> BTreeMap<(usize, ExitReason), Cycles> {
    let mut totals: BTreeMap<(usize, ExitReason), Cycles> = BTreeMap::new();
    for e in events {
        if let TraceEvent::Completed {
            from_level,
            reason,
            spent,
            ..
        } = e
        {
            *totals.entry((*from_level, *reason)).or_insert(Cycles::ZERO) += *spent;
        }
    }
    totals
}

/// Sums the durations of `outermost: true` spans in a *parsed* chrome
/// document, keyed by (level, rendered reason). Re-deriving the totals
/// from the serialized JSON (rather than from the events) is what lets
/// the checker certify the export itself, round trip included.
pub fn chrome_outermost_totals(doc: &Value) -> BTreeMap<(usize, String), u64> {
    let mut totals: BTreeMap<(usize, String), u64> = BTreeMap::new();
    let Some(events) = doc.get("traceEvents").and_then(Value::items) else {
        return totals;
    };
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let Some(args) = e.get("args") else { continue };
        if args.get("outermost") != Some(&Value::Bool(true)) {
            continue;
        }
        let (Some(lvl), Some(reason), Some(dur)) = (
            args.get("level").and_then(Value::as_int),
            args.get("reason").and_then(Value::as_str),
            e.get("dur").and_then(Value::as_int),
        ) else {
            continue;
        };
        *totals
            .entry((lvl as usize, reason.to_string()))
            .or_insert(0) += dur as u64;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::world::World;
    use dvh_arch::costs::CostModel;
    use dvh_obs::json;

    fn traced_world() -> (World, Vec<TraceEvent>) {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_tracing(1 << 20);
        w.guest_hypercall(0);
        w.guest_hypercall(0);
        let events = w.take_trace();
        (w, events)
    }

    #[test]
    fn chrome_export_round_trips() {
        let (w, events) = traced_world();
        let text = chrome_json(&events, w.num_cpus(), w.leaf_level());
        let doc = json::parse(&text).expect("export must parse");
        assert_eq!(doc.to_json(), text, "round trip must be the identity");
        assert!(!doc.get("traceEvents").unwrap().items().unwrap().is_empty());
    }

    #[test]
    fn outermost_span_totals_equal_attribution_ledger() {
        let (w, events) = traced_world();
        let text = chrome_json(&events, w.num_cpus(), w.leaf_level());
        let doc = json::parse(&text).unwrap();
        let from_json = chrome_outermost_totals(&doc);
        assert!(!from_json.is_empty());
        let ledger: BTreeMap<_, _> = w
            .stats
            .cycles_by_reason
            .iter()
            .map(|((lvl, reason), c)| ((lvl, reason.to_string()), c.as_u64()))
            .collect();
        assert_eq!(from_json, ledger);
    }

    #[test]
    fn span_totals_helper_matches_ledger() {
        let (w, events) = traced_world();
        let ledger: BTreeMap<_, _> = w.stats.cycles_by_reason.iter().collect();
        assert_eq!(span_cycle_totals(&events), ledger);
    }

    #[test]
    fn nested_spans_are_emitted_for_exit_multiplication() {
        let (w, events) = traced_world();
        let doc = json::parse(&chrome_json(&events, w.num_cpus(), w.leaf_level())).unwrap();
        let spans: Vec<_> = doc
            .get("traceEvents")
            .unwrap()
            .items()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        // A reflected L2 hypercall traps recursively: there must be
        // inner spans beyond the outermost ones.
        assert!(spans
            .iter()
            .any(|s| s.get("args").unwrap().get("outermost") == Some(&Value::Bool(false))));
        // Inner spans sit on their own level's thread track.
        for s in &spans {
            assert_eq!(
                s.get("tid").and_then(Value::as_int),
                s.get("args").unwrap().get("level").and_then(Value::as_int)
            );
        }
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let (_, events) = traced_world();
        let text = jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in lines {
            let v = json::parse(line).expect("every line is a JSON object");
            assert!(v.get("type").and_then(Value::as_str).is_some());
            assert!(v.get("at").and_then(Value::as_int).is_some());
        }
    }
}
