//! Each test here encodes one *claim the paper makes in prose*, so the
//! reproduction is checked against the text, not just the numbers.

use dvh_core::{Machine, MachineConfig};
use dvh_workloads::{run_app, AppId};

/// §1/abstract: "DVH can ... improve KVM performance by more than an
/// order of magnitude on real application workloads."
#[test]
fn claim_order_of_magnitude_application_gains() {
    // At three levels of virtualization, DVH improves at least one
    // application by >10x (Fig. 9: Memcached, Apache).
    let mix = AppId::Memcached.mix();
    let mut vanilla = Machine::build(MachineConfig::baseline(3));
    let slow = run_app(&mut vanilla, &mix, 150).overhead;
    let mut dvh = Machine::build(MachineConfig::dvh(3));
    let fast = run_app(&mut dvh, &mix, 150).overhead;
    assert!(slow / fast > 10.0, "{slow} / {fast}");
}

/// §1: "In many cases, DVH makes nested virtualization overhead
/// similar to that of non-nested virtualization even for multiple
/// levels of recursive virtualization."
#[test]
fn claim_nested_dvh_close_to_vm() {
    for app in [AppId::NetperfRr, AppId::Memcached, AppId::Hackbench] {
        let mix = app.mix();
        let mut vm = Machine::build(MachineConfig::baseline(1));
        let o_vm = run_app(&mut vm, &mix, 150).overhead;
        let mut l3 = Machine::build(MachineConfig::dvh(3));
        let o_l3 = run_app(&mut l3, &mix, 150).overhead;
        assert!(
            o_l3 <= o_vm * 1.25,
            "{}: L3+DVH {o_l3} vs VM {o_vm}",
            mix.name
        );
    }
}

/// §1: "DVH can provide better performance than device passthrough
/// while at the same time enabling migration of nested VMs."
#[test]
fn claim_beats_passthrough_with_migration() {
    let mix = AppId::Apache.mix();
    let mut pt = Machine::build(MachineConfig::passthrough(2));
    let o_pt = run_app(&mut pt, &mix, 150).overhead;
    let mut dvh = Machine::build(MachineConfig::dvh(2));
    let o_dvh = run_app(&mut dvh, &mix, 150).overhead;
    assert!(o_dvh < o_pt, "DVH {o_dvh} vs passthrough {o_pt}");
    // And migration works for DVH but not passthrough.
    let mut dvh = Machine::build(MachineConfig::dvh(2));
    assert!(dvh_migration::migrate_nested_vm(
        dvh.world_mut(),
        dvh_migration::MigrationConfig::default(),
        |_| {}
    )
    .is_ok());
    let mut pt = Machine::build(MachineConfig::passthrough(2));
    assert!(dvh_migration::migrate_nested_vm(
        pt.world_mut(),
        dvh_migration::MigrationConfig::default(),
        |_| {}
    )
    .is_err());
}

/// §3: "an exit to a guest hypervisor is more expensive than an exit
/// to the host hypervisor by at least a factor of two ... In practice
/// ... much more expensive than a factor of two."
#[test]
fn claim_guest_hypervisor_exits_cost_far_more() {
    let mut l1 = Machine::build(MachineConfig::baseline(1));
    let host_exit = l1.hypercall(0).as_u64();
    let mut l2 = Machine::build(MachineConfig::baseline(2));
    let guest_exit = l2.hypercall(0).as_u64();
    assert!(guest_exit >= 2 * host_exit, "factor-of-two lower bound");
    assert!(guest_exit >= 10 * host_exit, "in practice much more");
}

/// §4 Table 3 discussion: "DVH does not improve nested VM performance
/// for Hypercall as it always requires exiting to the guest
/// hypervisor."
#[test]
fn claim_hypercalls_unaffected() {
    let mut vanilla = Machine::build(MachineConfig::baseline(2));
    let mut dvh = Machine::build(MachineConfig::dvh(2));
    let a = vanilla.hypercall(0).as_u64();
    let b = dvh.hypercall(0).as_u64();
    assert!(b >= a, "DVH {b} must not beat vanilla {a} on hypercalls");
    assert!(dvh.world().stats.total_interventions() > 0);
}

/// §4: "[DVH-DevNotify at L2] incurs noticeably more overhead running
/// a nested VM than running a VM ... a result of the host hypervisor
/// needing to walk the extended page table (EPT)."
#[test]
fn claim_dvh_devnotify_pays_the_ept_walk() {
    let mut l1 = Machine::build(MachineConfig::baseline(1));
    let base = l1.device_notify(0).as_u64();
    let mut dvh = Machine::build(MachineConfig::dvh(2));
    let nested = dvh.device_notify(0).as_u64();
    assert!(nested > 2 * base, "EPT walk must show: {nested} vs {base}");
    assert!(
        nested < 4 * base,
        "but stay the same order: {nested} vs {base}"
    );
}

/// §4: "Since Hackbench does not use I/O, it shows no performance
/// difference between different I/O models."
#[test]
fn claim_hackbench_io_model_independent() {
    let mix = AppId::Hackbench.mix();
    let mut results = Vec::new();
    for cfg in [
        MachineConfig::baseline(2),
        MachineConfig::passthrough(2),
        MachineConfig::dvh_vp(2),
    ] {
        let mut m = Machine::build(cfg);
        results.push(run_app(&mut m, &mix, 150).overhead);
    }
    assert!((results[0] - results[1]).abs() < 1e-9);
    assert!((results[0] - results[2]).abs() < 1e-9);
}

/// §4: virtual idle "only runs the nested VM when it has jobs to run",
/// unlike disabling HLT exits or polling which "simply consume and
/// waste physical CPU cycles".
#[test]
fn claim_virtual_idle_saves_cycles() {
    let mut m = Machine::build(MachineConfig::dvh(2));
    m.world_mut().guest_hlt(0);
    let halted_at = m.now(0);
    let wake_at = halted_at + dvh_core::Cycles::new(5_000_000);
    m.world_mut()
        .deliver_leaf_interrupt(0, 0x33, wake_at, dvh_hypervisor::IrqPath::PostedDirect);
    // The 5M-cycle wait was spent halted, not burned.
    assert!(m.world().stats.idle_cycles.sum() >= 5_000_000);
}

/// §4: paravirtual I/O at L3 is "practically unusable, showing more
/// than two orders of magnitude overhead for multiple workloads such
/// as Memcached and Apache".
#[test]
fn claim_l3_paravirtual_two_orders_of_magnitude() {
    let mut over_100 = 0;
    for app in [AppId::Memcached, AppId::Apache] {
        let mut m = Machine::build(MachineConfig::baseline(3));
        let o = run_app(&mut m, &app.mix(), 100).overhead;
        if o > 60.0 {
            over_100 += 1;
        }
    }
    assert!(
        over_100 >= 2,
        "both Memcached and Apache must collapse at L3"
    );
}

/// §3.5: recursive DVH works at depths beyond what real KVM supports
/// (L3 max), with flat cost.
#[test]
fn claim_recursive_dvh_flat_beyond_kvm_limits() {
    let mut l2 = Machine::build(MachineConfig::dvh(2));
    let base = l2.program_timer(0).as_u64();
    for levels in 4..=5 {
        let mut m = Machine::build(MachineConfig::dvh(levels));
        let c = m.program_timer(0).as_u64();
        assert!(c.abs_diff(base) * 10 <= base, "L{levels}: {c} vs {base}");
    }
}
