//! Determinism and certification tests for the fast-path exit engine
//! and the parallel sweep scheduler.
//!
//! The optimization contract has two halves: the parallel scheduler
//! may only change *when* cells run (outputs byte-identical to
//! serial), and the engine optimizations may only change *how fast*
//! the simulator runs (ledgers bit-identical to the pinned
//! pre-optimization fixture).

use dvh_bench::harness;

#[test]
fn parallel_fig7_csv_is_byte_identical_to_serial() {
    let serial = harness::figure_with_workers(7, 1).expect("figure 7 exists");
    let parallel = harness::figure_with_workers(7, 3).expect("figure 7 exists");
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn parallel_table3_matches_serial() {
    let serial = harness::table3_with_workers(1);
    let parallel = harness::table3_with_workers(4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.config, p.config);
        assert_eq!(
            (s.hypercall, s.dev_notify, s.program_timer, s.send_ipi),
            (p.hypercall, p.dev_notify, p.program_timer, p.send_ipi),
            "{}",
            s.config
        );
    }
}

#[test]
fn figure_csv_has_header_and_seven_app_rows() {
    let fig = harness::figure_with_workers(7, 2).expect("figure 7 exists");
    let csv = fig.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 8, "{csv}");
    assert!(lines[0].starts_with("app,VM,"), "{}", lines[0]);
}

#[test]
fn unknown_figure_is_none() {
    assert!(harness::figure_with_workers(11, 2).is_none());
}

#[test]
fn dense_engine_matches_pinned_pre_optimization_runstats() {
    // The checker's fixture pass replays the standard workload on
    // every Fig. 7 configuration and compares exits, interventions,
    // DVH intercepts, attributed cycles, and the simulated clock
    // against the ledger captured before the dense-VMCS engine
    // landed. Any drift means an optimization changed simulated
    // behavior.
    let violations = dvh_checker::harness::check_pinned_fixture();
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn l0_native_charges_keep_the_trace_timeline() {
    // L0's handler paths are charged as single summed steps; the trace
    // (every event, every timestamp) must be the one the per-primitive
    // engine recorded. Digests captured before the change.
    use dvh_checker::harness::{exercise, fnv1a, FNV_OFFSET, TRACE_CAPACITY};
    use dvh_core::{Machine, MachineConfig};
    use dvh_hypervisor::trace_export;
    let cases = [
        (
            "l3/nested",
            MachineConfig::baseline(3),
            0xafd4_008a_b302_f5fa,
            7_666,
        ),
        (
            "fig10/xen-dvh-vp",
            MachineConfig::dvh_vp(2).with_xen_guest(),
            0xbd5a_c913_e8b5_8fa4,
            552,
        ),
        (
            "l3/nested-dvh",
            MachineConfig::dvh(3),
            0x3ec6_baa8_9de7_b288,
            1_194,
        ),
        (
            "l2/nested-dvh",
            MachineConfig::dvh(2),
            0x27dc_b02f_9f99_26ad,
            74,
        ),
    ];
    for (name, config, digest, events) in cases {
        let mut m = Machine::build(config);
        m.world_mut().enable_tracing(TRACE_CAPACITY);
        exercise(&mut m);
        let w = m.world();
        assert_eq!(w.trace_dropped(), 0, "{name}");
        let jsonl = trace_export::jsonl(w.trace_events());
        let got = (fnv1a(FNV_OFFSET, jsonl.as_bytes()), w.trace_events().len());
        assert_eq!(got, (digest, events), "{name}: (digest, events)");
    }
}

// ---- Exit memo: replay equals recursion -------------------------------
//
// An unobserved world replays reflected subtrees from its exit memo; a
// traced one recurses through every exit. Each test drives both with
// the same inputs and requires identical end states: the full ledger,
// the VMCS digest, every clock, the timers and the halt chains.

mod prng;

use dvh_checker::harness::memo_pair;
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::MEMO_CAPACITY;
use prng::Prng;

fn assert_memo_matches(name: &str, config: &MachineConfig, drive: impl Fn(&mut Machine)) {
    let [memo, recursion] = memo_pair(config, drive);
    assert!(
        memo.diff(&recursion).is_empty(),
        "{name}: {:?} differ between memo and recursion",
        memo.diff(&recursion)
    );
}

#[test]
fn exit_memo_matches_the_recursion_on_every_pinned_config() {
    let violations = dvh_checker::harness::check_memo_matches_recursion();
    assert!(violations.is_empty(), "{violations:#?}");
}

/// One guest-visible operation of a random sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    Hypercall(usize),
    Timer(usize, u64),
    Ipi(usize, usize),
    Notify(usize),
    Tx(usize, u32),
    Rx(usize, u32),
    Blk(usize, bool),
    Idle(usize),
    TimerSleep(usize),
}

impl Op {
    fn random(rng: &mut Prng, vcpus: usize) -> Op {
        let cpu = rng.usize_range(0, vcpus);
        match rng.range(0, 9) {
            0 => Op::Hypercall(cpu),
            // A few deadlines recur, so some timer subtrees replay.
            1 => Op::Timer(cpu, 1 << rng.range(20, 23)),
            2 => Op::Ipi(cpu, (cpu + rng.usize_range(1, vcpus)) % vcpus),
            3 => Op::Notify(cpu),
            4 => Op::Tx(cpu, rng.range(64, 1500) as u32),
            5 => Op::Rx(cpu, rng.range(64, 1500) as u32),
            6 => Op::Blk(cpu, rng.range(0, 2) == 1),
            7 => Op::Idle(cpu),
            _ => Op::TimerSleep(cpu),
        }
    }

    fn apply(self, m: &mut Machine) {
        match self {
            Op::Hypercall(c) => drop(m.hypercall(c)),
            Op::Timer(c, d) => drop(m.world_mut().guest_program_timer(c, d)),
            Op::Ipi(c, d) => drop(m.send_ipi(c, d)),
            Op::Notify(c) => drop(m.device_notify(c)),
            Op::Tx(c, bytes) => drop(m.net_tx(c, 2, bytes)),
            Op::Rx(c, bytes) => drop(m.net_rx(c, bytes)),
            Op::Blk(c, write) => drop(m.blk_io(c, 4096, write)),
            Op::Idle(c) => drop(m.idle_round(c)),
            Op::TimerSleep(c) => drop(m.timer_sleep_round(c)),
        }
    }
}

#[test]
fn exit_memo_matches_the_recursion_on_random_op_sequences() {
    let mut seed = 0;
    for levels in 1..=4 {
        let configs = [
            ("baseline", MachineConfig::baseline(levels)),
            ("dvh", MachineConfig::dvh(levels)),
            ("dvh_vp", MachineConfig::dvh_vp(levels)),
            ("xen", MachineConfig::dvh_vp(levels).with_xen_guest()),
            ("arm", MachineConfig::arm_baseline(levels)),
        ];
        for (name, mut config) in configs {
            seed += 1;
            let mut rng = Prng::new(seed);
            let vcpus = rng.usize_range(2, 5);
            config.world.leaf_vcpus = vcpus;
            let ops: Vec<Op> = (0..12).map(|_| Op::random(&mut rng, vcpus)).collect();
            let label = format!("{name} L{levels} x{vcpus} (seed {seed}): {ops:?}");
            assert_memo_matches(&label, &config, |m| ops.iter().for_each(|op| op.apply(m)));
        }
    }
}

#[test]
fn exit_memo_replays_vmcs_writes_relative_to_the_state_they_meet() {
    use dvh_arch::vmx::field;
    let mut rng = Prng::new(7);
    // Random rewrites of fields the recursion copies and bumps.
    let rewrites: Vec<(usize, u32, u64)> = (0..20)
        .map(|_| {
            let f = [field::GUEST_RIP, field::TSC_OFFSET][rng.usize_range(0, 2)];
            (rng.usize_range(0, 3), f, rng.next_u64())
        })
        .collect();
    assert_memo_matches("l3 rewrites", &MachineConfig::baseline(3), |m| {
        for &(level, f, v) in &rewrites {
            m.world_mut().vmcs_mut(level, 0).write(f, v);
            m.hypercall(0);
            m.program_timer(0);
        }
    });
}

#[test]
fn exit_memo_stays_bounded_over_distinct_timer_deadlines() {
    let drive = |m: &mut Machine| {
        for d in 0..10_000u64 {
            m.world_mut().guest_program_timer(0, 1_000 + d);
        }
    };
    let config = MachineConfig::baseline(3);
    assert_memo_matches("l3 deadlines", &config, drive);
    let mut m = Machine::build(config);
    drive(&mut m);
    assert_eq!(
        m.world().memo_len(),
        MEMO_CAPACITY,
        "the table filled and stopped"
    );
}

#[test]
fn recursion_table_l5_row_matches_the_recursion() {
    // The L5 row as the memo computes it, against fresh machines that
    // trace (memo off) through a tiny ring.
    let rows = harness::recursion_experiment(5);
    let memo = &rows[4];
    let traced = |config: MachineConfig| {
        let mut m = Machine::build(config);
        m.world_mut().enable_tracing(1);
        m
    };
    let mut base = traced(MachineConfig::baseline(5));
    let mut dvh = traced(MachineConfig::dvh(5));
    let recursion = (
        base.hypercall(0).as_u64(),
        base.program_timer(0).as_u64(),
        dvh.program_timer(0).as_u64(),
    );
    assert_eq!((memo.hypercall, memo.timer, memo.timer_dvh), recursion);
    assert_eq!(recursion, (503_352_425, 548_312_110, 3_320));
}

#[test]
fn exit_memo_hits_do_not_allocate() {
    let mut m = Machine::build(MachineConfig::baseline(3));
    for _ in 0..3 {
        m.hypercall(0);
        m.program_timer(0);
    }
    let before = counting::allocations();
    for _ in 0..100 {
        m.hypercall(0);
        m.program_timer(0);
    }
    assert_eq!(counting::allocations() - before, 0);
}

/// Counts this thread's allocations, so tests running in parallel do
/// not disturb each other's counts.
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Allocations this thread has made so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

    struct Counting;

    fn count() {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged; counting touches a const-initialised
    // thread-local and never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;
}
