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
