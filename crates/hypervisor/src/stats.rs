//! Run statistics: the one record the exit engine keeps of exits,
//! interventions, DVH intercepts and cycle attribution; the metrics
//! registry's engine series are an export of it, never a second copy.

use dvh_arch::vmx::ExitReason;
use dvh_arch::Cycles;
use dvh_obs::metrics::{names, MetricKey};
use dvh_obs::{Histogram, MetricsRegistry};
use std::collections::BTreeMap;
use std::fmt;

/// One row per level in a per-reason [`Ledger`]: a slot for every
/// basic exit reason number (the largest architectural discriminant we
/// model is [`ExitReason::ApicWrite`] = 56).
const REASON_SLOTS: usize = 57;

/// A dense ledger of `T` cells, grown `ROW` cells at a time on first
/// use: what the engine writes on its exit path, a flat `Vec` instead
/// of an ordered map. Per-reason ledgers index it by
/// `level * REASON_SLOTS + reason.number()`, so touched cells (those
/// differing from `T::default()`) iterate in `(level, reason)` order,
/// exactly like the `BTreeMap` they replaced.
#[derive(Debug, Clone, Default)]
pub struct Ledger<T, const ROW: usize> {
    cells: Vec<T>,
}

/// Hardware exit counts by (level, reason).
pub type ExitLedger = Ledger<u64, REASON_SLOTS>;

/// Outermost exits by (level, reason): a cell's count is the exits,
/// its sum the cycles attributed to them (nested traps included), its
/// buckets their latency.
pub type CycleLedger = Ledger<Histogram, REASON_SLOTS>;

/// Guest-hypervisor interventions, indexed by the hypervisor's level.
pub type InterventionLedger = Ledger<InterventionCell, 1>;

impl<T: Default + Clone + PartialEq, const ROW: usize> Ledger<T, ROW> {
    #[inline(always)]
    fn at(&mut self, idx: usize) -> &mut T {
        if idx >= self.cells.len() {
            self.cells.resize((idx / ROW + 1) * ROW, T::default());
        }
        &mut self.cells[idx]
    }

    fn touched(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        let untouched = T::default();
        self.cells
            .iter()
            .enumerate()
            .filter(move |(_, c)| **c != untouched)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.touched().next().is_none()
    }

    fn merge_with(&mut self, other: &Self, add: impl Fn(&mut T, &T)) {
        if self.cells.len() < other.cells.len() {
            self.cells.resize(other.cells.len(), T::default());
        }
        for (dst, src) in self.cells.iter_mut().zip(other.cells.iter()) {
            add(dst, src);
        }
    }
}

impl<T: Default + Clone + PartialEq, const ROW: usize> PartialEq for Ledger<T, ROW> {
    fn eq(&self, other: &Self) -> bool {
        // Trailing untouched rows are representation artifacts, not
        // content; compare touched entries only.
        self.touched().eq(other.touched())
    }
}

impl<T: Default + Clone + Eq, const ROW: usize> Eq for Ledger<T, ROW> {}

fn slot(level: usize, reason: ExitReason) -> usize {
    level * REASON_SLOTS + reason.number() as usize
}

impl<T: Default + Clone + PartialEq> Ledger<T, REASON_SLOTS> {
    fn get_cell(&self, level: usize, reason: ExitReason) -> Option<&T> {
        self.cells.get(slot(level, reason))
    }

    /// Iterates touched `((level, reason), cell)` entries in
    /// `(level, reason)` order.
    pub fn cells(&self) -> impl Iterator<Item = ((usize, ExitReason), &T)> + '_ {
        self.touched().map(|(idx, c)| {
            let reason = ExitReason::from_number((idx % REASON_SLOTS) as u16)
                .expect("ledger row holds only valid reason numbers");
            ((idx / REASON_SLOTS, reason), c)
        })
    }
}

impl ExitLedger {
    /// Increments the counter for (`level`, `reason`).
    #[inline(always)]
    pub fn record(&mut self, level: usize, reason: ExitReason) {
        *self.at(slot(level, reason)) += 1;
    }

    /// Adds `n` exits to the counter for (`level`, `reason`).
    #[inline(always)]
    pub fn add(&mut self, level: usize, reason: ExitReason, n: u64) {
        *self.at(slot(level, reason)) += n;
    }

    /// The count for (`level`, `reason`).
    pub fn get(&self, level: usize, reason: ExitReason) -> u64 {
        self.get_cell(level, reason).copied().unwrap_or(0)
    }

    /// Sum over all levels and reasons.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Iterates touched `((level, reason), count)` entries in
    /// `(level, reason)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, ExitReason), u64)> + '_ {
        self.cells().map(|(key, &n)| (key, n))
    }

    /// Adds every entry of `other` into this ledger.
    pub fn merge(&mut self, other: &ExitLedger) {
        self.merge_with(other, |dst, src| *dst += src);
    }
}

impl CycleLedger {
    /// Records one outermost exit from (`level`, `reason`) that cost
    /// `spent` cycles.
    #[inline(always)]
    pub fn record(&mut self, level: usize, reason: ExitReason, spent: Cycles) {
        self.at(slot(level, reason)).observe(spent.as_u64());
    }

    /// Cycles attributed to (`level`, `reason`).
    pub fn get(&self, level: usize, reason: ExitReason) -> Cycles {
        Cycles::new(self.get_cell(level, reason).map_or(0, Histogram::sum))
    }

    /// Iterates touched `((level, reason), cycles)` entries in
    /// `(level, reason)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, ExitReason), Cycles)> + '_ {
        self.cells().map(|(key, h)| (key, Cycles::new(h.sum())))
    }

    /// Adds every cell of `other` into this ledger.
    pub fn merge(&mut self, other: &CycleLedger) {
        self.merge_with(other, Histogram::merge);
    }
}

impl<'a> IntoIterator for &'a CycleLedger {
    type Item = ((usize, ExitReason), Cycles);
    type IntoIter = Box<dyn Iterator<Item = ((usize, ExitReason), Cycles)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// One level's interventions: exits delivered by
/// [`crate::World::reflect_to`], with their latency, and interrupt
/// relays, which are counted only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterventionCell {
    /// Latency of each reflected exit delivery.
    pub reflected: Histogram,
    /// Interrupt relays.
    pub relayed: u64,
}

impl InterventionLedger {
    /// Records one exit delivered to the hypervisor at `level`, which
    /// took `spent` cycles from reflection to resume.
    #[inline(always)]
    pub fn record(&mut self, level: usize, spent: Cycles) {
        self.at(level).reflected.observe(spent.as_u64());
    }

    /// Records `n` exits delivered to the hypervisor at `level`, each
    /// of which took `spent` cycles.
    #[inline(always)]
    pub fn record_n(&mut self, level: usize, spent: Cycles, n: u64) {
        self.at(level).reflected.observe_n(spent.as_u64(), n);
    }

    /// Records one interrupt relayed through the hypervisor at `level`.
    #[inline(always)]
    pub fn record_relay(&mut self, level: usize) {
        self.at(level).relayed += 1;
    }

    /// Sum over all levels.
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, n)| n).sum()
    }

    /// Iterates touched `(level, cell)` entries in level order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, &InterventionCell)> + '_ {
        self.touched()
    }

    /// Iterates touched `(level, count)` entries in level order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.touched()
            .map(|(level, c)| (level, c.reflected.count() + c.relayed))
    }

    /// Adds every entry of `other` into this ledger.
    pub fn merge(&mut self, other: &InterventionLedger) {
        self.merge_with(other, |dst, src| {
            dst.reflected.merge(&src.reflected);
            dst.relayed += src.relayed;
        });
    }
}

/// Statistics accumulated while a simulated machine runs.
///
/// The exit ledger is the backbone of the test suite: DVH claims are
/// claims about *which exits stop happening* (e.g. with virtual timers
/// enabled, a nested VM's timer writes are never delivered to the guest
/// hypervisor).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Hardware exits, keyed by (exiting level, reason). Every exit
    /// lands at L0 first (single-level architectural support); this
    /// records where it came *from*.
    pub exits: ExitLedger,
    /// Guest-hypervisor interventions, by the intervening hypervisor's
    /// level (1-based) — the root cause of nested overhead the paper
    /// counts: reflected exits with their delivery latency, and
    /// interrupt relays.
    pub interventions: InterventionLedger,
    /// Exits handled entirely by L0 on behalf of a nested VM thanks to
    /// a DVH mechanism.
    pub dvh_intercepts: BTreeMap<&'static str, u64>,
    /// Posted interrupts delivered without any exit.
    pub posted_deliveries: u64,
    /// Interrupts that required exit-based injection.
    pub injected_interrupts: u64,
    /// Cycles a halted vCPU had spent in a low-power state when an
    /// interrupt woke it, one observation per wake (not burned; the sum
    /// is the idle total).
    pub idle_cycles: Histogram,
    /// Cycles burned busy-polling instead of halting (the `idle=poll`
    /// alternative §3.4 contrasts with virtual idle).
    pub burned_idle_cycles: Cycles,
    /// Cycles attributed to each *outermost* exit, by (level, reason):
    /// the full cost of handling that exit, including every nested
    /// trap it caused. Answers "where did the time go?".
    pub cycles_by_reason: CycleLedger,
}

impl RunStats {
    /// Creates empty statistics.
    pub fn new() -> RunStats {
        RunStats::default()
    }

    /// Records a hardware exit from `level` with `reason`.
    #[inline(always)]
    pub fn record_exit(&mut self, level: usize, reason: ExitReason) {
        self.exits.record(level, reason);
    }

    /// Records a DVH interception by mechanism name.
    pub fn record_dvh(&mut self, mechanism: &'static str) {
        *self.dvh_intercepts.entry(mechanism).or_insert(0) += 1;
    }

    /// Attributes `cycles` to the outermost exit (level, reason).
    #[inline(always)]
    pub fn attribute_cycles(&mut self, level: usize, reason: ExitReason, cycles: Cycles) {
        self.cycles_by_reason.record(level, reason, cycles);
    }

    /// Total attributed cycles across all outermost exits.
    pub fn total_attributed_cycles(&self) -> Cycles {
        self.cycles_by_reason.iter().map(|(_, c)| c).sum()
    }

    /// Total hardware exits from all levels.
    pub fn total_exits(&self) -> u64 {
        self.exits.total()
    }

    /// Exits from `level` with `reason`.
    pub fn exits_with(&self, level: usize, reason: ExitReason) -> u64 {
        self.exits.get(level, reason)
    }

    /// Total guest-hypervisor interventions (any level >= 1).
    pub fn total_interventions(&self) -> u64 {
        self.interventions.total()
    }

    /// Total DVH interceptions.
    pub fn total_dvh_intercepts(&self) -> u64 {
        self.dvh_intercepts.values().sum()
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &RunStats) {
        self.exits.merge(&other.exits);
        self.interventions.merge(&other.interventions);
        for (k, v) in &other.dvh_intercepts {
            *self.dvh_intercepts.entry(k).or_insert(0) += v;
        }
        self.posted_deliveries += other.posted_deliveries;
        self.injected_interrupts += other.injected_interrupts;
        self.idle_cycles.merge(&other.idle_cycles);
        self.burned_idle_cycles += other.burned_idle_cycles;
        self.cycles_by_reason.merge(&other.cycles_by_reason);
    }

    /// Writes the engine series into `reg` as absolute values: the
    /// `exit_cycles{level,reason}` and `intervention_cycles{level}`
    /// histograms, the `dvh_intercepts{tag}` counters and the
    /// `irq_wake_idle_cycles` histogram. Series already in `reg` are
    /// replaced, so the registry covers exactly this ledger's window
    /// and re-exporting never double-counts.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        for name in [
            names::EXIT_CYCLES,
            names::INTERVENTION_CYCLES,
            names::DVH_INTERCEPTS,
            names::IRQ_WAKE_IDLE_CYCLES,
        ] {
            reg.remove_series(name);
        }
        for ((level, reason), h) in self.cycles_by_reason.cells() {
            reg.set_histogram(MetricKey::exit(names::EXIT_CYCLES, level, reason), h);
        }
        for (level, c) in self.interventions.cells() {
            if c.reflected.count() > 0 {
                let key = MetricKey::at_level(names::INTERVENTION_CYCLES, level);
                reg.set_histogram(key, &c.reflected);
            }
        }
        for (&tag, &n) in &self.dvh_intercepts {
            reg.set_counter(MetricKey::tagged(names::DVH_INTERCEPTS, tag), n);
        }
        if self.idle_cycles.count() > 0 {
            let key = MetricKey::plain(names::IRQ_WAKE_IDLE_CYCLES);
            reg.set_histogram(key, &self.idle_cycles);
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "exits={} interventions={} dvh={} posted={} injected={}",
            self.total_exits(),
            self.total_interventions(),
            self.total_dvh_intercepts(),
            self.posted_deliveries,
            self.injected_interrupts
        )?;
        for ((level, reason), n) in self.exits.iter() {
            writeln!(f, "  L{level} {reason}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_ledger() {
        let mut s = RunStats::new();
        s.record_exit(2, ExitReason::Vmcall);
        s.record_exit(2, ExitReason::Vmcall);
        s.record_exit(1, ExitReason::Vmresume);
        assert_eq!(s.total_exits(), 3);
        assert_eq!(s.exits_with(2, ExitReason::Vmcall), 2);
        assert_eq!(s.exits_with(3, ExitReason::Vmcall), 0);
    }

    #[test]
    fn interventions_and_dvh() {
        let mut s = RunStats::new();
        s.interventions.record(1, Cycles::new(10));
        s.interventions.record_relay(1);
        s.record_dvh("vtimer");
        assert_eq!(s.total_interventions(), 2);
        assert_eq!(s.total_dvh_intercepts(), 1);
    }

    #[test]
    fn merge_sums() {
        let mut a = RunStats::new();
        a.record_exit(1, ExitReason::Hlt);
        let mut b = RunStats::new();
        b.record_exit(1, ExitReason::Hlt);
        b.posted_deliveries = 3;
        a.merge(&b);
        assert_eq!(a.exits_with(1, ExitReason::Hlt), 2);
        assert_eq!(a.posted_deliveries, 3);
    }

    #[test]
    fn display_lists_reasons() {
        let mut s = RunStats::new();
        s.record_exit(2, ExitReason::Hlt);
        let text = s.to_string();
        assert!(text.contains("L2 Hlt: 1"));
    }
}
