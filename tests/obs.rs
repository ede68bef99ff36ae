//! Integration tests for the dvh-obs observability layer: the Fig. 7
//! L2 netperf scenario, traced and metered end to end.
//!
//! The contract under test is exactness, not plausibility. The
//! engine's `RunStats` is the one record of each exit; the metrics
//! registry's engine series are an export of it and must equal its
//! cells exactly, whenever metrics were armed. The serialized Chrome
//! trace and the JSONL stream account the same simulated cycles a
//! second way and must agree with the ledger key for key. The last
//! contract is invisibility: enabling observability must not change a
//! single simulated cycle.

use dvh_checker::metrics_lint::{lint_chrome_export, lint_metrics};
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::trace_export::{
    chrome_json, chrome_outermost_totals, jsonl, span_cycle_totals,
};
use dvh_hypervisor::RunStats;
use dvh_obs::json::{self, Value};
use dvh_obs::metrics::names;
use dvh_obs::profile::exit_profile;
use dvh_obs::{Histogram, MetricKey, MetricsRegistry};
use dvh_workloads::{run_app, AppId};
use std::collections::BTreeMap;

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

/// The registry's histograms named `name`, by key.
fn histograms(reg: &MetricsRegistry, name: &str) -> BTreeMap<MetricKey, Histogram> {
    reg.histograms()
        .filter(|(k, _)| k.name == name)
        .map(|(k, h)| (*k, h.clone()))
        .collect()
}

/// Asserts that the registry's engine series are exactly the ledger's
/// cells: `exit_cycles`, `intervention_cycles`, `dvh_intercepts` and
/// `irq_wake_idle_cycles`, with no key missing and none extra.
fn assert_export_is_the_ledger(reg: &MetricsRegistry, stats: &RunStats, name: &str) {
    let exits: BTreeMap<_, _> = stats
        .cycles_by_reason
        .cells()
        .map(|((level, reason), h)| {
            (
                MetricKey::exit(names::EXIT_CYCLES, level, reason),
                h.clone(),
            )
        })
        .collect();
    assert_eq!(
        histograms(reg, names::EXIT_CYCLES),
        exits,
        "{name}: exit_cycles"
    );
    let interventions: BTreeMap<_, _> = stats
        .interventions
        .cells()
        .filter(|(_, c)| c.reflected.count() > 0)
        .map(|(level, c)| {
            let key = MetricKey::at_level(names::INTERVENTION_CYCLES, level);
            (key, c.reflected.clone())
        })
        .collect();
    assert_eq!(
        histograms(reg, names::INTERVENTION_CYCLES),
        interventions,
        "{name}: intervention_cycles"
    );
    let intercepts: BTreeMap<&str, u64> = reg
        .counters()
        .filter(|(k, _)| k.name == names::DVH_INTERCEPTS)
        .map(|(k, n)| (k.tag.expect("tagged by mechanism"), n))
        .collect();
    let want: BTreeMap<&str, u64> = stats.dvh_intercepts.iter().map(|(&t, &n)| (t, n)).collect();
    assert_eq!(intercepts, want, "{name}: dvh_intercepts");
    let idle = (stats.idle_cycles.count() > 0).then(|| stats.idle_cycles.clone());
    assert_eq!(
        reg.histogram(&MetricKey::plain(names::IRQ_WAKE_IDLE_CYCLES))
            .cloned(),
        idle,
        "{name}: irq_wake_idle_cycles"
    );
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
    assert!(!w.stats.cycles_by_reason.is_empty());
    let ledger: BTreeMap<_, _> = w
        .stats
        .cycles_by_reason
        .iter()
        .map(|((level, reason), cycles)| ((level, reason.to_string()), cycles.as_u64()))
        .collect();
    assert_eq!(chrome_outermost_totals(&doc), ledger);
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
    w.export_device_metrics();
    let reg = w.metrics().expect("metrics enabled");
    assert_export_is_the_ledger(reg, &w.stats, "fig7/nested");
    // And the checker's metrics pass certifies the same machine clean.
    assert!(lint_metrics(reg, &w.stats).is_empty());
    let violations = lint_chrome_export(w.trace_events(), w.num_cpus(), w.leaf_level(), &w.stats);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn every_fig7_column_conserves_under_netperf() {
    // Plus the L3 baseline machine: the deepest exit multiplication,
    // where the export has the most nested exits to carry.
    let configs = dvh_checker::harness::fig7_configs()
        .into_iter()
        .chain([("l3/nested", MachineConfig::baseline(3))]);
    let mut exported = std::collections::BTreeSet::new();
    for (name, config) in configs {
        let mut m = Machine::build(config);
        m.world_mut().enable_metrics();
        run_app(&mut m, &AppId::NetperfRr.mix(), 20);
        let w = m.world_mut();
        let reg = w.take_metrics().expect("metrics enabled");
        assert!(!w.stats.cycles_by_reason.is_empty(), "{name}");
        assert_export_is_the_ledger(&reg, &w.stats, name);
        exported.extend(reg.histograms().map(|(k, _)| k.name));
        exported.extend(reg.counters().map(|(k, _)| k.name));
    }
    // Every engine series was exercised by some column, so the
    // equalities above were not vacuous.
    for series in [
        names::EXIT_CYCLES,
        names::INTERVENTION_CYCLES,
        names::DVH_INTERCEPTS,
        names::IRQ_WAKE_IDLE_CYCLES,
    ] {
        assert!(exported.contains(series), "{series} never exported");
    }
}

#[test]
fn metrics_armed_after_a_run_export_the_whole_ledger_window() {
    // The Table 3 loop on the L3 baseline, run with metrics off: the
    // registry is armed only afterwards, yet reports every exit since
    // the last reset_stats, because it is an export of the ledger.
    let mut m = Machine::build(MachineConfig::baseline(3));
    m.world_mut().reset_stats();
    for _ in 0..20 {
        m.hypercall(0);
        m.program_timer(0);
        if m.vcpus() > 1 {
            m.send_ipi(0, 1);
        }
        m.device_notify(0);
    }
    let w = m.world_mut();
    assert!(w.stats.total_exits() > 10_000);
    w.enable_metrics();
    let reg = w.take_metrics().expect("metrics were enabled");
    assert_export_is_the_ledger(&reg, &w.stats, "l3/table3");
    let (_, p) = dvh_obs::percentiles::exit_percentiles(&reg)
        .into_iter()
        .find(|(level, _)| level.is_none())
        .expect("the export derives exit-latency percentiles");
    assert!(p.p50 <= p.p99, "percentiles must be monotone");

    // A re-export after reset_stats replaces the engine series: the
    // registry covers the ledger's window, not the registry's lifetime.
    w.enable_metrics();
    w.export_device_metrics();
    w.reset_stats();
    let reg = w.take_metrics().expect("metrics were enabled");
    assert!(histograms(&reg, names::EXIT_CYCLES).is_empty());
    assert_export_is_the_ledger(&reg, &w.stats, "l3/after-reset");
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
    let reg = w.take_metrics().expect("metrics enabled");
    let rows = exit_profile(&reg, usize::MAX);
    let row_total: u64 = rows.iter().map(|r| r.cycles).sum();
    let ledger_total = w.stats.total_attributed_cycles().as_u64();
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
    let ledger: BTreeMap<_, _> = m.world().stats.cycles_by_reason.iter().collect();
    assert_eq!(span_cycle_totals(&events), ledger);
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
