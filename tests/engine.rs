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
