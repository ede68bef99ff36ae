//! The one conservation comparison: a derived view of the exit ledger
//! (trace completions, Chrome spans, causal roots, folded lines)
//! against its reference, in both directions, keyed by the frame label
//! `L{level} {reason}` every view prints.

use dvh_hypervisor::RunStats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

/// Cycle totals keyed by frame label `L{level} {reason}`.
pub type FrameTotals = BTreeMap<String, u64>;

/// Keys per-(level, reason) totals by frame label.
pub fn frames<R: Display>(totals: impl IntoIterator<Item = ((usize, R), u64)>) -> FrameTotals {
    totals
        .into_iter()
        .map(|((level, reason), cycles)| (format!("L{level} {reason}"), cycles))
        .collect()
}

/// The engine ledger's outermost-exit cycles
/// ([`RunStats::cycles_by_reason`]) as frame totals.
pub fn ledger_frames(stats: &RunStats) -> FrameTotals {
    frames(stats.cycles_by_reason.iter().map(|(k, c)| (k, c.as_u64())))
}

/// A frame on which a view and its reference disagree; `None` means
/// the frame is absent on that side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// The frame label.
    pub frame: String,
    /// The view's total.
    pub view: Option<u64>,
    /// The reference's total.
    pub reference: Option<u64>,
}

impl Drift {
    /// Both totals, named: `"{view}: N cycles, {reference}: nothing"`.
    pub fn describe(&self, view: &str, reference: &str) -> String {
        let side = |n: Option<u64>| n.map_or("nothing".into(), |n| format!("{n} cycles"));
        format!(
            "{view}: {}, {reference}: {}",
            side(self.view),
            side(self.reference)
        )
    }
}

/// Every frame on which `view` and `reference` disagree, missing and
/// phantom frames included, in frame order.
pub fn drift(view: &FrameTotals, reference: &FrameTotals) -> Vec<Drift> {
    let frames: BTreeSet<&String> = view.keys().chain(reference.keys()).collect();
    frames
        .into_iter()
        .filter_map(|frame| {
            let (v, r) = (view.get(frame).copied(), reference.get(frame).copied());
            (v != r).then(|| Drift {
                frame: frame.clone(),
                view: v,
                reference: r,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_reports_missing_phantom_and_changed_frames() {
        let view = frames([((1, "Hlt"), 5), ((2, "Vmcall"), 9), ((3, "Hlt"), 1)]);
        let reference = frames([((1, "Hlt"), 5), ((2, "Vmcall"), 8), ((2, "Hlt"), 4)]);
        let got: Vec<_> = drift(&view, &reference)
            .into_iter()
            .map(|d| (d.frame, d.view, d.reference))
            .collect();
        assert_eq!(
            got,
            [
                ("L2 Hlt".to_string(), None, Some(4)),
                ("L2 Vmcall".to_string(), Some(9), Some(8)),
                ("L3 Hlt".to_string(), Some(1), None),
            ]
        );
        assert!(drift(&view, &view).is_empty());
        let missing = &drift(&view, &reference)[0];
        assert_eq!(
            missing.describe("trace", "ledger"),
            "trace: nothing, ledger: 4 cycles"
        );
    }
}
