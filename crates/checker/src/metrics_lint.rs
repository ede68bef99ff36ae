//! The metrics pass: certifies the dvh-obs observability layer
//! against the exit engine's own accounting.
//!
//! The registry's engine series (`exit_cycles`, `intervention_cycles`,
//! `dvh_intercepts`, `irq_wake_idle_cycles`) are an export of
//! [`RunStats`], not a second record, so there is no registry-to-ledger
//! comparison to make. What remains to certify:
//!
//! - `histogram-consistent`: every histogram's bucket counts sum to
//!   its observation count (the invariant `Histogram::is_consistent`
//!   encodes).
//! - `chrome-round-trip` / `chrome-spans-conserved`: the serialized
//!   Chrome trace document parses back to an identical document, and
//!   its `outermost: true` span durations sum to the attribution
//!   ledger exactly.
//!
//! A violation here means the observability layer is lying about where
//! cycles went — the one failure mode a profiling tool must not have.

use crate::conservation::{drift, frames, ledger_frames};
use crate::{Pass, Violation};
use dvh_hypervisor::trace_export::{chrome_json, chrome_outermost_totals};
use dvh_hypervisor::{RunStats, TraceEvent};
use dvh_obs::json;
use dvh_obs::MetricsRegistry;

/// Checks every histogram's internal consistency. The ledger argument
/// is what the registry was exported from; nothing is compared against
/// it.
pub fn lint_metrics(reg: &MetricsRegistry, _stats: &RunStats) -> Vec<Violation> {
    let mut out = Vec::new();
    for (key, h) in reg.histograms() {
        if !h.is_consistent() {
            out.push(Violation {
                pass: Pass::Metrics,
                rule: "histogram-consistent",
                location: key.to_string(),
                detail: format!(
                    "bucket counts sum to {} but the histogram recorded {} observations",
                    h.buckets().iter().sum::<u64>(),
                    h.count()
                ),
            });
        }
    }
    out
}

/// Serializes the trace as a Chrome document, parses it back, and
/// certifies both the round trip and that the outermost span durations
/// sum to the attribution ledger — the export path itself is what gets
/// checked, not the in-memory events.
pub fn lint_chrome_export(
    events: &[TraceEvent],
    num_cpus: usize,
    levels: usize,
    stats: &RunStats,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let text = chrome_json(events, num_cpus, levels);
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            out.push(Violation {
                pass: Pass::Metrics,
                rule: "chrome-round-trip",
                location: "chrome export".into(),
                detail: format!("serialized trace does not parse: {e}"),
            });
            return out;
        }
    };
    if doc.to_json() != text {
        out.push(Violation {
            pass: Pass::Metrics,
            rule: "chrome-round-trip",
            location: "chrome export".into(),
            detail: "parse(serialize(trace)) is not the identity".into(),
        });
    }

    let spans = frames(chrome_outermost_totals(&doc));
    for d in drift(&spans, &ledger_frames(stats)) {
        let detail = d.describe("outermost chrome spans", "ledger");
        // A span group the ledger lacks faults the export as a whole.
        let (location, detail) = match d.reference {
            None => (
                "chrome export".to_string(),
                format!("{}: {detail}", d.frame),
            ),
            Some(_) => (d.frame, detail),
        };
        out.push(Violation {
            pass: Pass::Metrics,
            rule: "chrome-spans-conserved",
            location,
            detail,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_arch::vmx::ExitReason;
    use dvh_arch::Cycles;
    use dvh_core::{Machine, MachineConfig};

    fn observed_machine() -> Machine {
        let mut m = Machine::build(MachineConfig::dvh(2));
        {
            let w = m.world_mut();
            w.enable_tracing(1 << 20);
            w.enable_metrics();
            w.reset_stats();
        }
        m.hypercall(0);
        m.net_tx(0, 4, 1500);
        m.idle_round(0);
        m
    }

    #[test]
    fn clean_run_has_no_metrics_violations() {
        let mut m = observed_machine();
        let w = m.world_mut();
        w.export_device_metrics();
        let reg = w.metrics().expect("metrics enabled");
        assert!(lint_metrics(reg, &w.stats).is_empty());
        let violations =
            lint_chrome_export(w.trace_events(), w.num_cpus(), w.leaf_level(), &w.stats);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn tampered_ledger_breaks_chrome_span_conservation() {
        let mut m = observed_machine();
        let w = m.world_mut();
        let mut stats = w.stats.clone();
        // One outermost exit the trace never saw, on a key it has...
        let ((level, reason), _) = stats.cycles_by_reason.iter().next().expect("some exits");
        stats.cycles_by_reason.record(level, reason, Cycles::new(1));
        // ...and one on a key it lacks.
        stats.attribute_cycles(3, ExitReason::Hlt, Cycles::new(7));
        let violations = lint_chrome_export(w.trace_events(), w.num_cpus(), w.leaf_level(), &stats);
        let locations: Vec<&str> = violations
            .iter()
            .filter(|v| v.rule == "chrome-spans-conserved")
            .map(|v| v.location.as_str())
            .collect();
        assert_eq!(locations.len(), 2, "{violations:?}");
        assert!(locations.contains(&"L3 Hlt"), "{violations:?}");
        assert!(locations.contains(&format!("L{level} {reason}").as_str()));
    }
}
