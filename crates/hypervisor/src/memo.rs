//! The exit memo: a reflected exit's whole subtree, replayed as one
//! exact delta (DESIGN.md §9 rule 5).
//!
//! A guest hypervisor's exit handler is a fixed program: every
//! privileged instruction in it traps, and each trap runs the same
//! handler program one level down. So the subtree a reflected exit
//! sets off is a function of the exit alone. The memo runs a subtree
//! once, records its net effect, and replays that effect on every
//! later exit with the same key instead of recursing again:
//!
//! - the exiting CPU's clock advance,
//! - exit-ledger increments, per (level, reason),
//! - intervention latencies, as (level, value, count),
//! - the last arming of the exiting CPU's leaf timer,
//! - the net VMCS writes, each a constant or a pre-state cell plus a
//!   constant.
//!
//! The **pure class** is what the memo may replay: the VMX
//! instructions, `vmcall`, `rdmsr`, the APIC-write family, and `wrmsr`
//! other than the x2APIC ICR. Their subtrees touch nothing but the
//! items above, and only on the exiting CPU. The **key** is the exit's
//! level, reason and qualification, without the `vmwrite` value: a
//! trapped `vmwrite` stores its value only after the trap returns, so
//! the subtree never reads it. Costs, the handler profile and the
//! shadow field set are fixed when the world is built.
//!
//! The memo runs only while nothing observes the world (no tracing, no
//! metrics, no VM-entry checks): those need every event of the
//! recursion, which stays the reference path. It holds at most
//! [`MEMO_CAPACITY`] subtrees; past that, new keys recurse as before.
//! A recording that meets anything outside the pure class (an impure
//! exit, an extension claiming an exit, an event on another CPU) is
//! dropped, never stored.

use crate::world::World;
use dvh_arch::msr;
use dvh_arch::vmx::{ExitQualification, ExitReason};
use dvh_arch::Cycles;

/// Most subtrees the memo holds. Once full, exits with a new key run
/// the recursion; known keys keep replaying.
pub const MEMO_CAPACITY: usize = 4096;

/// Hash-table slots: a power of two, twice the capacity, so linear
/// probes stay short.
const SLOTS: usize = 2 * MEMO_CAPACITY;

/// What identifies a subtree: everything the recursion reads of the
/// exit that starts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    from_level: usize,
    reason: ExitReason,
    vmcs_field: u32,
    msr: u32,
    msr_value: u64,
    raw: u64,
    guest_physical: u64,
}

impl Key {
    fn new(from_level: usize, reason: ExitReason, q: &ExitQualification) -> Key {
        Key {
            from_level,
            reason,
            vmcs_field: q.vmcs_field,
            msr: q.msr,
            msr_value: q.msr_value,
            raw: q.raw,
            guest_physical: q.guest_physical,
        }
    }

    /// The key's home slot (a multiply-rotate hash of its words).
    fn home(&self) -> usize {
        let words = [
            self.from_level as u64 | u64::from(self.reason.number()) << 32,
            u64::from(self.vmcs_field) | u64::from(self.msr) << 32,
            self.msr_value,
            self.raw,
            self.guest_physical,
        ];
        let h = words.iter().fold(0u64, |h, w| {
            (h.rotate_left(23) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        (h >> 40) as usize & (SLOTS - 1)
    }
}

/// Field `field` of the VMCS that the hypervisor at `level` keeps for
/// the exiting CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    level: usize,
    field: u32,
}

/// Where a VMCS write takes its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// A constant.
    Const(u64),
    /// A cell's value plus a constant (wrapping).
    Cell(Cell, u64),
}

impl Src {
    fn plus(self, k: u64) -> Src {
        match self {
            Src::Const(v) => Src::Const(v.wrapping_add(k)),
            Src::Cell(c, j) => Src::Cell(c, j.wrapping_add(k)),
        }
    }
}

/// One VMCS write: `dst` takes the value of `src`.
#[derive(Debug, Clone, Copy)]
struct Write {
    dst: Cell,
    src: Src,
}

/// One event of a subtree being recorded, in the order it happened.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// A hardware exit from (level, reason).
    Exit(usize, ExitReason),
    /// An intervention at a level, with its latency.
    Intervention(usize, Cycles),
    /// The leaf timer was armed with a deadline.
    Arm(u64),
    /// A VMCS write, reading its source at this point.
    Write(Cell, Src),
    /// A stored subtree replayed here.
    Hit(usize),
}

impl Step {
    /// A write of field `f` at `level` from the same field at `src`,
    /// plus `add`.
    pub(crate) fn copy(level: usize, src: usize, f: u32, add: u64) -> Step {
        let cell = |level| Cell { level, field: f };
        Step::Write(cell(level), Src::Cell(cell(src), add))
    }
}

/// A stored subtree: its key and where its effect lives in the arenas.
#[derive(Debug)]
struct Entry {
    key: Key,
    cycles: Cycles,
    arm: Option<u64>,
    exits: (u32, u32),
    interventions: (u32, u32),
    writes: (u32, u32),
}

/// A subtree being recorded.
#[derive(Debug)]
struct Frame {
    key: Key,
    cpu: usize,
    t0: Cycles,
    /// Where its steps start in the journal.
    start: usize,
    tainted: bool,
}

/// The per-world memo table and recorder.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    /// Open-addressing table: 0 = empty, else entry index + 1.
    /// Allocated on first use.
    slots: Vec<u32>,
    entries: Vec<Entry>,
    /// Exit counts by (level, reason).
    exits: Vec<((usize, ExitReason), u64)>,
    /// Intervention counts by (level, latency).
    interventions: Vec<((usize, Cycles), u64)>,
    /// Stored in an order that can be applied one by one: no write
    /// reads a cell an earlier write of the same subtree set.
    writes: Vec<Write>,
    /// Open recordings, innermost last.
    frames: Vec<Frame>,
    /// Steps of the open recordings.
    journal: Vec<Step>,
}

/// How one exit goes through the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// A stored subtree was replayed: nothing left to run.
    Replayed,
    /// Run the recursion and store what it did.
    Record,
    /// Run the recursion only.
    Recurse,
}

impl Memo {
    /// Subtrees stored so far.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Forgets every stored subtree (for when what a subtree does may
    /// have changed, e.g. a new extension).
    pub(crate) fn clear(&mut self) {
        *self = Memo::default();
    }

    /// Records `step` of the exiting CPU `cpu` into the open
    /// recordings, if any.
    #[inline(always)]
    pub(crate) fn note(&mut self, cpu: usize, step: Step) {
        if self.frames.is_empty() {
            return;
        }
        self.note_open(cpu, step);
    }

    #[cold]
    #[inline(never)]
    fn note_open(&mut self, cpu: usize, step: Step) {
        if self.frames.last().is_some_and(|f| f.cpu != cpu) {
            self.taint();
        } else {
            self.journal.push(step);
        }
    }

    /// Marks every open recording as unreplayable.
    #[inline(always)]
    pub(crate) fn taint(&mut self) {
        for f in self.frames.iter_mut() {
            f.tainted = true;
        }
    }

    /// The index of the subtree stored under `key`, if any.
    fn find(&self, key: &Key) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = key.home();
        loop {
            match self.slots[i] {
                0 => return None,
                e if self.entries[e as usize - 1].key == *key => return Some(e as usize - 1),
                _ => i = (i + 1) & (SLOTS - 1),
            }
        }
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= MEMO_CAPACITY
    }

    fn open(&mut self, key: Key, cpu: usize, t0: Cycles) {
        self.frames.push(Frame {
            key,
            cpu,
            t0,
            start: self.journal.len(),
            tainted: false,
        });
    }

    /// Closes the innermost recording at time `t1`: stores its net
    /// effect unless it was tainted, the table filled up meanwhile, or
    /// its writes cannot be ordered for replay. A stored subtree stands
    /// in the enclosing recording as one [`Step::Hit`].
    fn close(&mut self, t1: Cycles) {
        let frame = self.frames.pop().expect("an open recording");
        let stored = if frame.tainted || self.is_full() {
            None
        } else {
            self.store(&frame, t1)
        };
        if self.frames.is_empty() {
            self.journal.clear();
        } else if let Some(idx) = stored {
            self.journal.truncate(frame.start);
            self.journal.push(Step::Hit(idx));
        }
    }

    /// Folds the frame's journal into one net effect and stores it.
    fn store(&mut self, frame: &Frame, t1: Cycles) -> Option<usize> {
        let mut exits = Vec::new();
        let mut interventions = Vec::new();
        let mut arm = None;
        // Each written cell's net value, in terms of the pre-state. An
        // identity write (`pre(dst) + 0`) stays: it marks the field
        // written, which `Vmcs::iter` and so the VMCS digest see.
        let mut net: Vec<Write> = Vec::new();
        let write = |net: &mut Vec<Write>, dst: Cell, src: Src| {
            // Resolve the source against the writes so far.
            let src = match src {
                Src::Cell(c, k) => match net.iter().find(|w| w.dst == c) {
                    Some(w) => w.src.plus(k),
                    None => src,
                },
                Src::Const(_) => src,
            };
            match net.iter_mut().find(|w| w.dst == dst) {
                Some(w) => w.src = src,
                None => net.push(Write { dst, src }),
            }
        };
        for step in &self.journal[frame.start..] {
            match *step {
                Step::Exit(l, r) => tally(&mut exits, (l, r), 1),
                Step::Intervention(l, v) => tally(&mut interventions, (l, v), 1),
                Step::Arm(d) => arm = Some(d),
                Step::Write(dst, src) => write(&mut net, dst, src),
                Step::Hit(idx) => {
                    let e = &self.entries[idx];
                    for &(key, n) in span(&self.exits, e.exits) {
                        tally(&mut exits, key, n);
                    }
                    for &(key, n) in span(&self.interventions, e.interventions) {
                        tally(&mut interventions, key, n);
                    }
                    if e.arm.is_some() {
                        arm = e.arm;
                    }
                    for w in span(&self.writes, e.writes) {
                        write(&mut net, w.dst, w.src);
                    }
                }
            }
        }
        // Lower levels first: sources sit at the written level or
        // above, so in this order no write reads a cell an earlier one
        // set. Refuse to store an effect where that does not hold.
        net.sort_by_key(|w| (w.dst.level, w.dst.field));
        let ordered = net.iter().enumerate().all(|(i, w)| match w.src {
            Src::Cell(c, _) => !net[..i].iter().any(|e| e.dst == c),
            Src::Const(_) => true,
        });
        if !ordered {
            return None;
        }
        let range = |start: usize, len: usize| (start as u32, (start + len) as u32);
        let entry = Entry {
            key: frame.key,
            cycles: t1 - frame.t0,
            arm,
            exits: range(self.exits.len(), exits.len()),
            interventions: range(self.interventions.len(), interventions.len()),
            writes: range(self.writes.len(), net.len()),
        };
        self.exits.extend(exits);
        self.interventions.extend(interventions);
        self.writes.extend(net);
        if self.slots.is_empty() {
            self.slots = vec![0; SLOTS];
        }
        let mut i = entry.key.home();
        while self.slots[i] != 0 {
            i = (i + 1) & (SLOTS - 1);
        }
        self.entries.push(entry);
        self.slots[i] = self.entries.len() as u32;
        Some(self.entries.len() - 1)
    }
}

/// Adds `n` to `key`'s count.
fn tally<K: PartialEq>(counts: &mut Vec<(K, u64)>, key: K, n: u64) {
    match counts.iter_mut().find(|(k, _)| *k == key) {
        Some((_, c)) => *c += n,
        None => counts.push((key, n)),
    }
}

fn span<T>(arena: &[T], (start, end): (u32, u32)) -> &[T] {
    &arena[start as usize..end as usize]
}

/// Whether a subtree started by `reason` stays in the pure class.
fn pure(reason: ExitReason, qual: &ExitQualification) -> bool {
    match reason {
        ExitReason::Vmcall
        | ExitReason::MsrRead
        | ExitReason::ApicWrite
        | ExitReason::ApicAccess
        | ExitReason::EoiInduced => true,
        ExitReason::MsrWrite => qual.msr != msr::IA32_X2APIC_ICR,
        r => r.is_vmx_instruction(),
    }
}

impl World {
    /// Runs one exit's handling (everything [`World::vmexit`] wraps),
    /// through the memo when the exit qualifies. The recursion keeps a
    /// single call site here, so it stays inlined into `vmexit`.
    #[inline(always)]
    pub(crate) fn memo_exit(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: ExitQualification,
    ) {
        let plan = self.memo_plan(from_level, cpu, reason, &qual);
        if plan == Plan::Replayed {
            return;
        }
        self.vmexit_inner(from_level, cpu, reason, qual);
        if plan == Plan::Record {
            let t1 = self.now(cpu);
            self.memo.close(t1);
        }
    }

    /// Decides how the memo takes one exit. Exits it cannot replay
    /// (observed worlds, exits from L1, DVH-claimable `wrmsr`, impure
    /// reasons) pay a few predicted branches.
    #[inline(always)]
    fn memo_plan(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) -> Plan {
        // Reason first: it turns away the DVH-handled and impure exits
        // (the only ones an unobserved DVH machine takes) soonest.
        if !pure(reason, qual) {
            self.memo.taint();
            return Plan::Recurse;
        }
        // Exits from L1 are handled natively by L0: nothing to save.
        // An extension may claim any `wrmsr` (§3.2, §3.3), so with one
        // registered those are not replayed.
        if from_level < 2
            || (reason == ExitReason::MsrWrite && !self.extensions.is_empty())
            || self.trace_on
            || self.metrics_on
            || self.vmentry_checks
        {
            return Plan::Recurse;
        }
        self.memo_lookup(Key::new(from_level, reason, qual), cpu)
    }

    /// Replays the subtree stored under `key`, or opens its recording.
    #[inline(never)]
    fn memo_lookup(&mut self, key: Key, cpu: usize) -> Plan {
        if let Some(idx) = self.memo.find(&key) {
            self.replay(idx, cpu);
            return Plan::Replayed;
        }
        if self.memo.is_full() {
            return Plan::Recurse;
        }
        self.memo.open(key, cpu, self.now(cpu));
        Plan::Record
    }

    /// Applies stored subtree `idx` to `cpu`: exactly what running it
    /// would have done. Allocation-free.
    fn replay(&mut self, idx: usize, cpu: usize) {
        let World {
            memo,
            cpus,
            vmcs,
            stats,
            timers,
            ..
        } = self;
        let e = &memo.entries[idx];
        cpus[cpu].advance(e.cycles);
        for &((level, reason), n) in span(&memo.exits, e.exits) {
            stats.exits.add(level, reason, n);
        }
        for &((level, spent), n) in span(&memo.interventions, e.interventions) {
            stats.interventions.record_n(level, spent, n);
        }
        if let Some(d) = e.arm {
            timers[cpu].arm(d);
        }
        for w in span(&memo.writes, e.writes) {
            let v = match w.src {
                Src::Const(v) => v,
                Src::Cell(c, k) => vmcs[c.level][cpu].read(c.field).wrapping_add(k),
            };
            vmcs[w.dst.level][cpu].write(w.dst.field, v);
        }
        memo.note(cpu, Step::Hit(idx));
    }

    /// Subtrees the exit memo holds (at most [`MEMO_CAPACITY`]).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    // ---- VMCS writes the memo can trace ---------------------------------
    //
    // Every VMCS write on a pure-class path goes through one of these
    // or `hv_vmwrite`, so a recording knows where each value came from.

    /// Sets field `f` of `vmcs[level][cpu]` to the constant `v`.
    #[inline(always)]
    pub(crate) fn vmcs_set(&mut self, level: usize, cpu: usize, f: u32, v: u64) {
        self.vmcs_mut(level, cpu).write(f, v);
        let dst = Cell { level, field: f };
        self.memo.note(cpu, Step::Write(dst, Src::Const(v)));
    }

    /// Copies field `f` of `vmcs[src][cpu]` into `vmcs[dst][cpu]`.
    #[inline(always)]
    pub(crate) fn vmcs_copy(&mut self, dst: usize, src: usize, cpu: usize, f: u32) {
        let v = self.vmcs(src, cpu).read(f);
        self.vmcs_mut(dst, cpu).write(f, v);
        self.memo.note(cpu, Step::copy(dst, src, f, 0));
    }

    /// Arms the leaf timer of `cpu` for `deadline`.
    #[inline(always)]
    pub(crate) fn arm_leaf_timer(&mut self, cpu: usize, deadline: u64) {
        self.timers[cpu].arm(deadline);
        self.memo.note(cpu, Step::Arm(deadline));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use dvh_arch::costs::CostModel;

    fn world(levels: usize) -> World {
        World::new(CostModel::calibrated(), WorldConfig::baseline(levels))
    }

    #[test]
    fn observation_turns_the_memo_off() {
        let observers: [fn(&mut World); 3] = [
            |w| w.enable_tracing(1),
            |w| w.enable_metrics(),
            |w| w.enable_vmentry_checks(),
        ];
        for observe in observers {
            let mut w = world(3);
            observe(&mut w);
            w.guest_hypercall(0);
            w.guest_hypercall(0);
            assert_eq!(w.memo_len(), 0);
        }
        let mut w = world(3);
        w.guest_hypercall(0);
        assert!(w.memo_len() > 0);
    }

    #[test]
    fn only_pure_reflected_exits_are_stored() {
        let mut w = world(3);
        w.send_ipi_to_idle(0, 1);
        w.guest_program_timer(0, 1 << 30);
        w.guest_hlt(2);
        assert!(w.memo_len() > 0);
        for e in &w.memo.entries {
            let qual = ExitQualification {
                msr: e.key.msr,
                ..Default::default()
            };
            assert!(e.key.from_level >= 2, "{:?}", e.key);
            assert!(pure(e.key.reason, &qual), "{:?}", e.key);
        }
    }
}
