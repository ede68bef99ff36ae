//! Virtual idle (§3.4): nested VMs enter and leave low-power mode with
//! only host-hypervisor involvement.
//!
//! Unlike the other mechanisms, virtual idle needs **no new virtual
//! hardware**: it re-uses the architectural ability to configure
//! whether `hlt` traps. The host hypervisor keeps intercepting `hlt`;
//! every guest hypervisor stops. When a nested VM halts, the exit
//! reaches L0, L0 checks the guest hypervisor's VMCS configuration
//! (which it can read, §3.2), sees `hlt` is not intercepted above it,
//! and simply blocks the vCPU itself — waking it directly on the next
//! event. The configuration half lives in
//! [`crate::capability::enable_virtual_idle`]; the architectural
//! reflect-policy half is ordinary nested-virtualization behaviour in
//! the substrate hypervisor.
//!
//! Unlike disabling `hlt` exits everywhere or `idle=poll`, the CPU
//! really halts: cycles are *saved*, not burned ([`should_enable`]
//! discusses the scheduling caveat).

use dvh_hypervisor::World;

/// The scheduling policy of §3.4: virtual idle should be enabled only
/// when the guest hypervisor has no other runnable nested VM on the
/// vCPU. If it does, returning to the guest hypervisor on idle lets it
/// schedule that other nested VM; handing the idle to L0 would stall
/// it.
pub fn should_enable(runnable_nested_vms_on_cpu: usize) -> bool {
    runnable_nested_vms_on_cpu <= 1
}

/// Applies the §3.4 policy to `w`: virtual idle is enabled only when
/// the guest hypervisor has no other runnable nested VM to schedule
/// (see [`should_enable`]); otherwise guest hypervisors keep their
/// `hlt` intercepts so they can run the sibling VM on idle.
pub fn apply_idle_policy(w: &mut World) -> bool {
    if should_enable(w.runnable_sibling_vms as usize + 1) {
        crate::capability::enable_virtual_idle(w);
        true
    } else {
        // Restore the intercepts (idempotent if never cleared).
        for k in 1..w.config.levels {
            for cpu in 0..w.num_cpus() {
                w.vmcs_mut(k, cpu).set_bits(
                    dvh_arch::vmx::field::CPU_BASED_EXEC_CONTROLS,
                    dvh_arch::vmx::ctrl::cpu::HLT_EXITING,
                );
            }
        }
        false
    }
}

/// Measures the halt-to-wake latency for the leaf VM on `cpu`: the
/// vCPU halts, an event arrives immediately, and the vCPU resumes.
/// Returns elapsed cycles on `cpu`.
pub fn halt_wake_round_trip(w: &mut World, cpu: usize) -> dvh_arch::Cycles {
    let t0 = w.now(cpu);
    w.guest_hlt(cpu);
    let t = w.now(cpu);
    w.deliver_leaf_interrupt(cpu, 0x60, t, dvh_hypervisor::IrqPath::PostedDirect);
    w.now(cpu) - t0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::enable_virtual_idle;
    use dvh_arch::costs::CostModel;
    use dvh_hypervisor::{World, WorldConfig};

    #[test]
    fn virtual_idle_keeps_halts_at_l0() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(3));
        enable_virtual_idle(&mut w);
        w.guest_hlt(0);
        // The halt chain must be exactly [0]: no guest hypervisor
        // blocked anything.
        assert_eq!(w.halt_chain(0).unwrap(), &[0]);
        assert_eq!(w.stats.total_interventions(), 0);
    }

    #[test]
    fn vanilla_nested_idle_is_much_slower() {
        let mut vanilla = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        let slow = halt_wake_round_trip(&mut vanilla, 0);

        let mut vidle = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_virtual_idle(&mut vidle);
        let fast = halt_wake_round_trip(&mut vidle, 0);
        assert!(
            slow.as_u64() > 5 * fast.as_u64(),
            "vanilla {slow} vs virtual idle {fast}"
        );
    }

    #[test]
    fn virtual_idle_round_trip_close_to_l1() {
        let mut l1 = World::new(CostModel::calibrated(), WorldConfig::baseline(1));
        let base = halt_wake_round_trip(&mut l1, 0).as_u64();

        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(3));
        enable_virtual_idle(&mut w);
        let nested = halt_wake_round_trip(&mut w, 0).as_u64();
        assert!(
            nested <= base + base / 2,
            "L3 with virtual idle ({nested}) should be near L1 ({base})"
        );
    }

    #[test]
    fn idle_cycles_are_recorded_not_burned() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_virtual_idle(&mut w);
        w.guest_hlt(0);
        let halted_at = w.now(0);
        // Event arrives much later on another CPU's timeline.
        let later = halted_at + dvh_arch::Cycles::new(1_000_000);
        w.deliver_leaf_interrupt(0, 0x60, later, dvh_hypervisor::IrqPath::PostedDirect);
        assert!(w.stats.idle_cycles.sum() >= 1_000_000);
    }

    #[test]
    fn scheduling_policy() {
        assert!(should_enable(0));
        assert!(should_enable(1));
        assert!(!should_enable(2));
    }

    #[test]
    fn policy_disables_vidle_with_sibling_vms() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.runnable_sibling_vms = 1;
        assert!(!apply_idle_policy(&mut w));
        // The guest hypervisor keeps its hlt intercept: halting the
        // nested VM returns control to it so it can run the sibling.
        w.guest_hlt(0);
        assert!(w.stats.total_interventions() > 0);

        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.runnable_sibling_vms = 0;
        assert!(apply_idle_policy(&mut w));
        w.guest_hlt(0);
        assert_eq!(w.stats.total_interventions(), 0);
    }

    #[test]
    fn polling_wakes_instantly_but_burns_the_wait() {
        // §3.4: "those options simply consume and waste physical CPU
        // cycles when the nested VM does nothing. Using virtual idle,
        // the host hypervisor only runs the nested VM when it has jobs
        // to run."
        let wait = dvh_arch::Cycles::new(2_000_000);

        let mut poll = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        poll.poll_idle = true;
        poll.guest_hlt(0);
        assert!(poll.is_polling(0));
        let t = poll.now(0) + wait;
        poll.deliver_leaf_interrupt(0, 0x33, t, dvh_hypervisor::IrqPath::PostedDirect);
        assert!(poll.stats.burned_idle_cycles >= wait);
        assert_eq!(poll.stats.idle_cycles.sum(), 0);
        assert_eq!(poll.stats.total_exits(), 0, "polling never exits");

        let mut vidle = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_virtual_idle(&mut vidle);
        vidle.guest_hlt(0);
        let t = vidle.now(0) + wait;
        vidle.deliver_leaf_interrupt(0, 0x33, t, dvh_hypervisor::IrqPath::PostedDirect);
        assert!(
            vidle.stats.idle_cycles.sum() >= wait.as_u64(),
            "the wait was saved, not burned"
        );
        assert_eq!(vidle.stats.burned_idle_cycles.as_u64(), 0);
    }
}
