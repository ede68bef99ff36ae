//! VM-entry consistency checking: the runtime half of `dvh-checker`.
//!
//! Real hardware validates a VMCS at every VM entry (Intel SDM Vol. 3
//! §26) and refuses inconsistent entries. The simulator models entries
//! as cycle charges, so the equivalent is a *check hook*: every path
//! that simulates a VM entry funnels through [`World::l0_enter`] (L0's
//! entry into vmcs01, the only kind of entry the hardware performs) or
//! [`World::on_vmentry`] (the checks L0 runs on a guest hypervisor's
//! VMCS when it emulates that hypervisor's nested entry), and when
//! checking is enabled each entered VMCS is run through
//! [`dvh_arch::vmx::validate::validate_vmentry`].
//!
//! Checking is off by default and costs one branch per entry. Enable
//! it with [`World::enable_vmentry_checks`]; collected findings are
//! drained with [`World::take_vmentry_findings`].

use crate::world::World;
use dvh_arch::vmx::validate::{validate_vmentry, VmentryViolation};
use dvh_arch::Cycles;
use std::fmt;

/// A VM-entry consistency violation, located in the VMCS hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmentryFinding {
    /// The hypervisor level owning the offending VMCS (`vmcs[level]`
    /// controls the VM at `level + 1`).
    pub level: usize,
    /// The vCPU whose VMCS is inconsistent.
    pub cpu: usize,
    /// The rule that fired, with the field encoding at fault.
    pub violation: VmentryViolation,
}

impl fmt::Display for VmentryFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{} cpu{}: {}", self.level, self.cpu, self.violation)
    }
}

impl World {
    /// Turns on VM-entry consistency checking for every subsequent
    /// simulated entry.
    pub fn enable_vmentry_checks(&mut self) {
        self.vmentry_checks = true;
    }

    /// Whether VM-entry checking is currently enabled.
    pub fn vmentry_checks_enabled(&self) -> bool {
        self.vmentry_checks
    }

    /// Findings collected so far (without draining them).
    pub fn vmentry_findings(&self) -> &[VmentryFinding] {
        &self.vmentry_findings
    }

    /// Drains and returns all collected findings.
    pub fn take_vmentry_findings(&mut self) -> Vec<VmentryFinding> {
        std::mem::take(&mut self.vmentry_findings)
    }

    /// A simulated VM entry into the VMCS owned by `level` on `cpu`:
    /// validates the entered VMCS when checking is enabled. The
    /// disabled path — every entry of a production run — is a single
    /// inlined branch; validation itself stays out of line so it does
    /// not bloat the exit engine's hot loop.
    #[inline(always)]
    pub(crate) fn on_vmentry(&mut self, level: usize, cpu: usize) {
        if !self.vmentry_checks {
            return;
        }
        self.validate_entry(level, cpu);
    }

    /// Out-of-line checking-enabled path of [`World::on_vmentry`].
    #[inline(never)]
    fn validate_entry(&mut self, level: usize, cpu: usize) {
        let caps = self.dvh_advertised;
        let violations = validate_vmentry(self.vmcs(level, cpu), caps);
        self.vmentry_findings
            .extend(violations.into_iter().map(|violation| VmentryFinding {
                level,
                cpu,
                violation,
            }));
    }

    /// L0's VM entry on `cpu`, ending an L0 handler path: `pending`,
    /// the path's summed and not yet charged cost, lands in the same
    /// single charge as the entry (DESIGN.md §9 rule 4), and vmcs01 is
    /// validated when checking is enabled. Every simulated entry from
    /// root mode goes through here instead of charging
    /// `vmentry_from_root` raw, so the consistency checker sees them all.
    #[inline(always)]
    pub fn l0_enter(&mut self, cpu: usize, pending: Cycles) {
        self.compute(cpu, pending + self.costs.vmentry_from_root);
        self.on_vmentry(0, cpu);
    }

    /// Validates every VMCS in the hierarchy as hardware would at the
    /// next VM entry, without running anything. Used by `dvh check`
    /// for a whole-world sweep independent of which entries a workload
    /// happens to exercise.
    pub fn validate_all_vmcs(&self) -> Vec<VmentryFinding> {
        let mut out = Vec::new();
        for level in 0..self.config.levels {
            for cpu in 0..self.config.leaf_vcpus {
                for violation in validate_vmentry(self.vmcs(level, cpu), self.dvh_advertised) {
                    out.push(VmentryFinding {
                        level,
                        cpu,
                        violation,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use dvh_arch::costs::CostModel;
    use dvh_arch::vmx::field;

    #[test]
    fn default_worlds_are_consistent() {
        for levels in 1..=4 {
            let w = World::new(CostModel::calibrated(), WorldConfig::baseline(levels));
            assert!(
                w.validate_all_vmcs().is_empty(),
                "baseline({levels}) hierarchy inconsistent"
            );
            let w = World::new(CostModel::calibrated(), WorldConfig::dvh(levels));
            assert!(w.validate_all_vmcs().is_empty());
        }
    }

    #[test]
    fn checks_off_by_default_and_free() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.guest_hypercall(0);
        assert!(!w.vmentry_checks_enabled());
        assert!(w.vmentry_findings().is_empty());
    }

    #[test]
    fn workload_under_checks_is_clean() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(3));
        w.enable_vmentry_checks();
        w.guest_hypercall(0);
        w.guest_program_timer(0, 1_000_000);
        assert!(w.take_vmentry_findings().is_empty());
    }

    #[test]
    fn tampered_ept_pointer_is_caught_at_entry() {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_vmentry_checks();
        w.vmcs_mut(0, 0).write(field::EPT_POINTER, 0);
        w.guest_hypercall(0);
        let findings = w.take_vmentry_findings();
        assert!(!findings.is_empty());
        let f = &findings[0];
        assert_eq!((f.level, f.cpu), (0, 0));
        assert_eq!(f.violation.rule, "ept-pointer");
        assert!(f.to_string().contains("L0 cpu0"));
    }

    #[test]
    fn nested_entry_validates_guest_hypervisor_vmcs() {
        // Tamper with vmcs11 (L1's VMCS for L2): the violation must be
        // attributed to level 1, caught when L1's vmresume is emulated.
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.enable_vmentry_checks();
        w.vmcs_mut(1, 0).write(field::EPT_POINTER, 0);
        w.guest_hypercall(0);
        let findings = w.take_vmentry_findings();
        assert!(findings.iter().any(|f| f.level == 1));
    }

    #[test]
    fn unadvertised_dvh_control_is_caught() {
        use dvh_arch::vmx::ctrl;
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        w.dvh_advertised = 0;
        w.enable_vmentry_checks();
        w.vmcs_mut(0, 0)
            .set_bits(field::DVH_EXEC_CONTROLS, ctrl::dvh::VIRTUAL_TIMER);
        w.guest_hypercall(0);
        let findings = w.take_vmentry_findings();
        assert!(findings
            .iter()
            .any(|f| f.violation.rule == "dvh-capability"));
    }
}
