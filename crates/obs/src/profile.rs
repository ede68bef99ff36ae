//! Top-N cycle-attribution profiles: where did the simulated time go,
//! by (level, reason)?
//!
//! The rows come from the [`names::EXIT_CYCLES`] histograms, which
//! the engine exports from its attribution ledger — a profile is a
//! sorted view of the ledger, not a second opinion.

use crate::metrics::{names, MetricsRegistry};

/// One profile row: an outermost-exit population and its cycle cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Level the exits came from.
    pub level: usize,
    /// Architectural reason, rendered.
    pub reason: String,
    /// Outermost exits attributed.
    pub count: u64,
    /// Total cycles attributed.
    pub cycles: u64,
    /// Share of all attributed cycles, in percent.
    pub percent: f64,
}

/// Builds the top-`n` rows by attributed cycles (ties break by
/// (level, reason) key order, so the table is deterministic).
pub fn exit_profile(reg: &MetricsRegistry, n: usize) -> Vec<ProfileRow> {
    let mut rows: Vec<(crate::metrics::MetricKey, ProfileRow)> = Vec::new();
    let mut total: u64 = 0;
    for (key, h) in reg.histograms() {
        if key.name != names::EXIT_CYCLES {
            continue;
        }
        let (Some(level), Some(reason)) = (key.level, key.reason) else {
            continue;
        };
        total = total.saturating_add(h.sum());
        rows.push((
            *key,
            ProfileRow {
                level,
                reason: reason.to_string(),
                count: h.count(),
                cycles: h.sum(),
                percent: 0.0,
            },
        ));
    }
    for (_, row) in &mut rows {
        row.percent = if total == 0 {
            0.0
        } else {
            row.cycles as f64 * 100.0 / total as f64
        };
    }
    // Cycles descending; exact ties break by `MetricKey` order (NOT by
    // the rendered reason string, whose collation can differ), so the
    // table is deterministic regardless of sort stability.
    rows.sort_by(|(ka, a), (kb, b)| b.cycles.cmp(&a.cycles).then_with(|| ka.cmp(kb)));
    rows.truncate(n);
    rows.into_iter().map(|(_, row)| row).collect()
}

/// Renders rows as an aligned table with a totals footer.
pub fn render_profile(rows: &[ProfileRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>10} {:>14} {:>7}",
        "level", "reason", "count", "cycles", "%"
    );
    let mut count = 0u64;
    let mut cycles = 0u64;
    let mut percent = 0.0f64;
    for r in rows {
        let _ = writeln!(
            out,
            "L{:<5} {:<20} {:>10} {:>14} {:>6.1}%",
            r.level, r.reason, r.count, r.cycles, r.percent
        );
        count += r.count;
        cycles = cycles.saturating_add(r.cycles);
        percent += r.percent;
    }
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>10} {:>14} {:>6.1}%",
        "total", "", count, cycles, percent
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_arch::vmx::ExitReason;
    use dvh_arch::Cycles;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.observe_exit(2, ExitReason::Vmcall, Cycles::new(6000));
        m.observe_exit(2, ExitReason::Vmcall, Cycles::new(1000));
        m.observe_exit(2, ExitReason::MsrWrite, Cycles::new(2000));
        m.observe_exit(1, ExitReason::Hlt, Cycles::new(1000));
        m
    }

    #[test]
    fn rows_sorted_by_cycles_with_percent() {
        let rows = exit_profile(&sample(), 10);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].reason, "Vmcall");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].cycles, 7000);
        assert!((rows[0].percent - 70.0).abs() < 1e-9);
        assert_eq!(rows[1].reason, "MsrWrite");
        assert_eq!(rows[2].level, 1);
    }

    #[test]
    fn top_n_truncates() {
        let rows = exit_profile(&sample(), 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cycles, 7000);
    }

    #[test]
    fn render_has_header_and_total() {
        let text = render_profile(&exit_profile(&sample(), 10));
        assert!(text.starts_with("level"), "{text}");
        assert!(text.contains("Vmcall"));
        assert!(text.lines().last().unwrap().starts_with("total"));
        assert!(text.contains("100.0%"), "{text}");
    }

    #[test]
    fn equal_cycle_rows_order_by_key() {
        // Three populations with identical cycle totals: the order must
        // be the `MetricKey` order (level, then reason's architectural
        // order), run after run, truncation or not.
        let mut m = MetricsRegistry::new();
        m.observe_exit(2, ExitReason::Vmcall, Cycles::new(5_000));
        m.observe_exit(1, ExitReason::Hlt, Cycles::new(5_000));
        m.observe_exit(2, ExitReason::MsrWrite, Cycles::new(5_000));
        let rows = exit_profile(&m, 10);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].level, rows[0].reason.as_str()), (1, "Hlt"));
        assert_eq!(rows[1].level, 2);
        assert_eq!(rows[2].level, 2);
        // Reasons at the same level follow key order too, and top-N
        // truncation picks the same winner every time.
        let key = |r: ExitReason| crate::metrics::MetricKey::exit(names::EXIT_CYCLES, 2, r);
        assert!(key(ExitReason::Vmcall) < key(ExitReason::MsrWrite));
        assert_eq!(rows[1].reason, "Vmcall");
        let top = exit_profile(&m, 1);
        assert_eq!((top[0].level, top[0].reason.as_str()), (1, "Hlt"));
    }

    #[test]
    fn empty_registry_profiles_cleanly() {
        let rows = exit_profile(&MetricsRegistry::new(), 5);
        assert!(rows.is_empty());
        let text = render_profile(&rows);
        assert!(text.contains("total"));
    }
}
