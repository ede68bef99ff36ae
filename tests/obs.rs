//! Integration tests for the dvh-obs observability layer: the Fig. 7
//! L2 netperf scenario, traced and metered end to end.
//!
//! The contract under test is exactness, not plausibility — the
//! metrics registry, the serialized Chrome trace, and the engine's
//! `RunStats` attribution ledger are three independent accountings of
//! the same simulated cycles, and they must agree key for key. The
//! second contract is invisibility: enabling observability must not
//! change a single simulated cycle.

use dvh_checker::metrics_lint::{lint_chrome_export, lint_metrics};
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::trace_export::{
    chrome_json, chrome_outermost_totals, jsonl, span_cycle_totals,
};
use dvh_obs::json::{self, Value};
use dvh_obs::profile::exit_profile;
use dvh_workloads::{run_app, AppId};

const TXNS: u32 = 25;

/// The Fig. 7 "Nested" column running Netperf RR: an L2 VM with
/// paravirtual I/O, the paper's headline 2x-overhead scenario.
fn fig7_l2_netperf() -> Machine {
    let mut m = Machine::build(MachineConfig::baseline(2));
    {
        let w = m.world_mut();
        w.enable_tracing(1 << 20);
        w.enable_metrics();
        w.reset_stats();
    }
    run_app(&mut m, &AppId::NetperfRr.mix(), TXNS);
    m
}

#[test]
fn chrome_export_round_trips_and_matches_ledger_exactly() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let events = w.take_trace();
    assert!(!events.is_empty());

    let text = chrome_json(&events, w.num_cpus(), w.leaf_level());
    let doc = json::parse(&text).expect("chrome export must parse");
    assert_eq!(doc.to_json(), text, "round trip must be the identity");

    // Per-(level, reason) outermost span totals, re-derived from the
    // serialized JSON, equal the attribution ledger — both directions.
    let from_json = chrome_outermost_totals(&doc);
    let ledger = &w.stats.cycles_by_reason;
    assert!(!ledger.is_empty());
    assert_eq!(from_json.len(), ledger.len());
    for ((level, reason), cycles) in ledger {
        assert_eq!(
            from_json.get(&(*level, reason.to_string())).copied(),
            Some(cycles.as_u64()),
            "(L{level}, {reason})"
        );
    }
}

#[test]
fn trace_track_layout_is_one_thread_per_level() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let events = w.take_trace();
    let doc = json::parse(&chrome_json(&events, w.num_cpus(), w.leaf_level())).unwrap();
    for e in doc.get("traceEvents").unwrap().items().unwrap() {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        // A span's thread track is the level it executed at.
        assert_eq!(
            e.get("tid").and_then(Value::as_int),
            e.get("args").unwrap().get("level").and_then(Value::as_int),
        );
    }
}

#[test]
fn metrics_registry_is_the_ledgers_twin() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let reg = w.metrics().expect("metrics enabled");
    assert_eq!(reg.exit_cycle_totals(), w.stats.cycles_by_reason);
    // And the checker's metrics pass certifies the same machine clean.
    assert!(lint_metrics(reg, &w.stats).is_empty());
    let violations = lint_chrome_export(w.trace_events(), w.num_cpus(), w.leaf_level(), &w.stats);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn every_fig7_column_conserves_under_netperf() {
    // Plus the L3 baseline machine: the deepest exit multiplication,
    // where registry and ledger have the most nested exits to agree on.
    let configs = dvh_checker::harness::fig7_configs()
        .into_iter()
        .chain([("l3/nested", MachineConfig::baseline(3))]);
    for (name, config) in configs {
        let mut m = Machine::build(config);
        m.world_mut().enable_metrics();
        run_app(&mut m, &AppId::NetperfRr.mix(), 20);
        let w = m.world_mut();
        let reg = w.metrics().expect("metrics enabled");
        assert_eq!(
            reg.exit_cycle_totals(),
            w.stats.cycles_by_reason,
            "{name}: registry and ledger disagree"
        );
    }
}

#[test]
fn observability_never_perturbs_the_simulation() {
    let bare = {
        let mut m = Machine::build(MachineConfig::baseline(2));
        run_app(&mut m, &AppId::NetperfRr.mix(), TXNS);
        m.world_mut().stats.clone()
    };
    let mut observed = fig7_l2_netperf();
    let w = observed.world_mut();
    assert_eq!(bare.cycles_by_reason, w.stats.cycles_by_reason);
    assert_eq!(bare.total_exits(), w.stats.total_exits());
    assert_eq!(bare.idle_cycles, w.stats.idle_cycles);
}

#[test]
fn profile_rows_sum_to_the_ledger() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let reg = w.metrics().expect("metrics enabled");
    let rows = exit_profile(reg, usize::MAX);
    let row_total: u64 = rows.iter().map(|r| r.cycles).sum();
    let ledger_total: u64 = w.stats.cycles_by_reason.values().map(|c| c.as_u64()).sum();
    assert_eq!(row_total, ledger_total);
    let pct: f64 = rows.iter().map(|r| r.percent).sum();
    assert!((pct - 100.0).abs() < 1e-6, "{pct}");
}

#[test]
fn jsonl_export_covers_every_event() {
    let mut m = fig7_l2_netperf();
    let events = m.world_mut().take_trace();
    let text = jsonl(&events);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len());
    for line in &lines {
        json::parse(line).expect("every jsonl line parses");
    }
    // The in-memory helper and the trace agree too.
    assert_eq!(
        span_cycle_totals(&events),
        m.world_mut().stats.cycles_by_reason
    );
}

#[test]
fn jsonl_round_trip_agrees_with_chrome_export() {
    // Satellite contract: the JSONL stream and the Chrome trace are two
    // serializations of the same events, so pushing the JSONL through
    // `obs::json` and re-deriving totals must agree with the Chrome
    // export on both event count and cycle sum.
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    let events = w.take_trace();
    let (num_cpus, leaf) = (w.num_cpus(), w.leaf_level());

    let mut completed = 0u64;
    let mut spent_sum = 0u64;
    for line in jsonl(&events).lines() {
        let v = json::parse(line).expect("jsonl line parses");
        // Round trip through obs::json is the identity, line by line.
        assert_eq!(v.to_json(), line);
        if v.get("type").and_then(Value::as_str) == Some("completed") {
            completed += 1;
            spent_sum += v.get("spent").and_then(Value::as_int).unwrap() as u64;
        }
    }

    let doc = json::parse(&chrome_json(&events, num_cpus, leaf)).unwrap();
    let mut outermost_spans = 0u64;
    let mut dur_sum = 0u64;
    for e in doc.get("traceEvents").unwrap().items().unwrap() {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        if e.get("args").unwrap().get("outermost") != Some(&Value::Bool(true)) {
            continue;
        }
        outermost_spans += 1;
        dur_sum += e.get("dur").and_then(Value::as_int).unwrap() as u64;
    }

    assert!(completed > 0);
    assert_eq!(
        completed, outermost_spans,
        "one outermost span per completion"
    );
    assert_eq!(spent_sum, dur_sum, "both exports account the same cycles");
}

#[test]
fn device_metrics_export_is_idempotent() {
    let mut m = fig7_l2_netperf();
    let w = m.world_mut();
    w.export_device_metrics();
    let once = w.metrics().unwrap().snapshot();
    w.export_device_metrics();
    let twice = w.metrics().unwrap().snapshot();
    assert_eq!(once, twice, "re-export must not double-count");
    assert!(once.contains("virtqueue_kicks"), "{once}");
}
