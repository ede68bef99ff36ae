//! The calibrated cycle-cost model.
//!
//! Every hardware action in the simulator charges cycles through a
//! [`CostModel`]. The philosophy, per DESIGN.md:
//!
//! * **Single-level costs are calibrated** so that the paper's Table 3
//!   "VM" column is reproduced (Hypercall 1,575 cycles, DevNotify 4,984,
//!   ProgramTimer 2,005, SendIPI 3,273 on the paper's Xeon Silver 4114).
//! * **All nested costs are emergent.** The simulator never looks up an
//!   "L2 hypercall cost"; it runs the guest hypervisor's exit handler and
//!   charges each privileged operation, which recursively traps.
//!
//! The cost model is a plain struct of public fields so experiments can
//! perturb individual costs (e.g. for ablations of faster hardware).

use crate::cycles::Cycles;

/// Cycle costs for every hardware-level action in the simulator.
///
/// Construct with [`CostModel::calibrated`] for the paper-calibrated
/// values, or [`CostModel::uniform`] for a degenerate model useful in
/// unit tests (every action costs the same, so tests can count actions
/// by dividing total time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    // ---- Hardware virtualization transitions -------------------------
    /// A VM exit: guest mode to root mode (hypervisor) transition,
    /// including the hardware state save/load.
    pub vmexit_to_root: Cycles,
    /// A VM entry: root mode to guest mode transition.
    pub vmentry_from_root: Cycles,

    // ---- VMX instructions executed in root mode (natively) -----------
    /// A native `vmread` of one VMCS field.
    pub vmread: Cycles,
    /// A native `vmwrite` of one VMCS field.
    pub vmwrite: Cycles,
    /// A native `vmptrld` (switch current VMCS).
    pub vmptrld: Cycles,
    /// A native `invept`/`invvpid` TLB shootdown of combined mappings.
    pub invept: Cycles,

    // ---- VMX instructions executed in guest mode with VMCS shadowing --
    /// A `vmread` of a *shadowed* field from a guest hypervisor: handled
    /// by hardware against the shadow VMCS without an exit.
    pub shadow_vmread: Cycles,
    /// A `vmwrite` of a shadowed field from a guest hypervisor.
    pub shadow_vmwrite: Cycles,

    // ---- Ordinary privileged instructions -----------------------------
    /// A native `wrmsr`.
    pub wrmsr: Cycles,
    /// Reading the TSC (`rdtsc`), never trapped in our configurations.
    pub rdtsc: Cycles,
    /// Executing `hlt` natively (entering C1).
    pub hlt_enter: Cycles,
    /// Latency from a wake event to the first instruction after `hlt`.
    pub idle_wake: Cycles,

    // ---- Interrupt hardware -------------------------------------------
    /// Issuing a physical IPI / posted-interrupt notification from one
    /// CPU, as seen by the sender (ICR write + interconnect injection).
    pub ipi_send: Cycles,
    /// Receiver-side cost of accepting a posted interrupt into a running
    /// guest without a VM exit (APICv virtual-interrupt delivery).
    pub posted_intr_delivery: Cycles,
    /// Receiver-side cost of taking an ordinary external interrupt in
    /// root mode (IDT vectoring etc.).
    pub external_intr: Cycles,
    /// Cost of injecting an event through the VMCS entry-interruption
    /// field (charged to the injecting hypervisor as part of entry).
    pub event_injection: Cycles,

    // ---- Memory-system costs -------------------------------------------
    /// One memory reference during a hardware page-table or descriptor
    /// walk that misses the caches (EPT walks, VCIMT lookups, PI
    /// descriptor updates from another CPU).
    pub walk_mem_ref: Cycles,
    /// Copying one byte between buffers (amortized, streaming).
    ///
    /// Set so that a ~1500-byte packet copy costs ~500 cycles, roughly a
    /// memcpy at 2.2 GHz with cache-resident data.
    pub copy_per_byte_milli: Cycles,

    // ---- Software path lengths (host hypervisor, run natively) ---------
    /// L0 dispatch from hardware exit to the reason-specific handler.
    pub l0_dispatch: Cycles,
    /// Handling a hypercall that does no work (the paper's Hypercall
    /// microbenchmark body).
    pub hypercall_body: Cycles,
    /// x86 instruction fetch + decode for MMIO emulation.
    pub mmio_decode: Cycles,
    /// Resolving an MMIO GPA to a registered device region (bus lookup).
    pub mmio_bus_lookup: Cycles,
    /// Signalling an ioeventfd/doorbell to a vhost-style backend thread.
    pub ioeventfd_signal: Cycles,
    /// Programming a high-resolution software timer (hrtimer start).
    pub hrtimer_program: Cycles,
    /// Software bookkeeping to emulate an ICR write (decode, find dest).
    pub icr_emulate: Cycles,
    /// Updating a posted-interrupt descriptor (locked or cross-core op).
    pub pi_desc_update: Cycles,
    /// Scheduler cost of blocking a vCPU that executed HLT.
    pub vcpu_block: Cycles,
    /// Scheduler cost of waking a blocked vCPU (before VM entry).
    pub vcpu_kick: Cycles,

    // ---- Nested-virtualization software path lengths --------------------
    /// L0 work to decide whether an exit from a nested VM is handled
    /// locally or reflected to the guest hypervisor (checking vmcs12
    /// controls), excluding the vmreads themselves.
    pub nested_exit_triage: Cycles,
    /// L0 work to construct the synthetic exit state in vmcs12 when
    /// reflecting an exit to a guest hypervisor.
    pub nested_reflect_build: Cycles,
    /// L0 work to merge vmcs12 into vmcs02 when emulating a guest
    /// hypervisor's vmlaunch/vmresume (the "prepare vmcs02" path),
    /// excluding the individual vmwrites.
    pub vmcs02_merge: Cycles,
    /// L0 software emulation body for a trapped VMX instruction from a
    /// guest hypervisor: locating and validating vmcs12, keeping the
    /// shadow/ordinary VMCS caches coherent, and the cache pollution
    /// the paper identifies as a first-order exit cost (§2, citing
    /// SplitX).
    pub vmx_insn_emulate: Cycles,
}

impl CostModel {
    /// The paper-calibrated cost model.
    ///
    /// Values are chosen so that the simulator reproduces the "VM"
    /// column of the paper's Table 3 and so that nested columns emerge
    /// within a few percent of the published values. See
    /// `EXPERIMENTS.md` for the paper-vs-measured table.
    pub fn calibrated() -> CostModel {
        CostModel {
            vmexit_to_root: Cycles::new(700),
            vmentry_from_root: Cycles::new(600),

            vmread: Cycles::new(25),
            vmwrite: Cycles::new(25),
            vmptrld: Cycles::new(130),
            invept: Cycles::new(250),

            shadow_vmread: Cycles::new(45),
            shadow_vmwrite: Cycles::new(55),

            wrmsr: Cycles::new(60),
            rdtsc: Cycles::new(20),
            hlt_enter: Cycles::new(150),
            idle_wake: Cycles::new(450),

            ipi_send: Cycles::new(500),
            posted_intr_delivery: Cycles::new(400),
            external_intr: Cycles::new(300),
            event_injection: Cycles::new(120),

            walk_mem_ref: Cycles::new(360),
            copy_per_byte_milli: Cycles::new(330), // 0.33 cycles/byte

            l0_dispatch: Cycles::new(100),
            hypercall_body: Cycles::new(45),
            mmio_decode: Cycles::new(2_490),
            mmio_bus_lookup: Cycles::new(350),
            ioeventfd_signal: Cycles::new(620),
            hrtimer_program: Cycles::new(430),
            icr_emulate: Cycles::new(160),
            pi_desc_update: Cycles::new(140),
            vcpu_block: Cycles::new(220),
            vcpu_kick: Cycles::new(260),

            nested_exit_triage: Cycles::new(260),
            nested_reflect_build: Cycles::new(420),
            vmcs02_merge: Cycles::new(900),
            vmx_insn_emulate: Cycles::new(1_690),
        }
    }

    /// An ARM64-flavoured cost model (VHE-era KVM/ARM, GICv3/v4).
    ///
    /// Transitions are somewhat cheaper than x86 (no VMCS to reload on
    /// the world-switch path with VHE), system-register accesses are
    /// cheap natively, but there is **no VMCS-shadowing analogue**: a
    /// guest hypervisor's system-register context accesses always trap
    /// (the problem NEVE, the authors' earlier work, addresses in
    /// hardware). Paired with [`crate::vmx::ShadowFieldSet::empty`]
    /// semantics via the ARM hypervisor profile.
    pub fn calibrated_arm() -> CostModel {
        let mut m = CostModel::calibrated();
        m.vmexit_to_root = Cycles::new(550);
        m.vmentry_from_root = Cycles::new(450);
        m.vmread = Cycles::new(15); // mrs
        m.vmwrite = Cycles::new(15); // msr
        m.vmptrld = Cycles::new(90); // vttbr/context switch piece
        m.hlt_enter = Cycles::new(120); // wfi
        m.ipi_send = Cycles::new(450); // ICC_SGI1R + GIC propagation
        m.posted_intr_delivery = Cycles::new(350); // GICv4 vLPI
        m.mmio_decode = Cycles::new(1_600); // ISS-assisted decode is cheaper
        m.vmx_insn_emulate = Cycles::new(1_400); // sysreg emulation for L1
        m
    }

    /// A degenerate model in which every action costs exactly `c`
    /// cycles. Useful in unit tests that want to count actions.
    pub fn uniform(c: u64) -> CostModel {
        let c = Cycles::new(c);
        CostModel {
            vmexit_to_root: c,
            vmentry_from_root: c,
            vmread: c,
            vmwrite: c,
            vmptrld: c,
            invept: c,
            shadow_vmread: c,
            shadow_vmwrite: c,
            wrmsr: c,
            rdtsc: c,
            hlt_enter: c,
            idle_wake: c,
            ipi_send: c,
            posted_intr_delivery: c,
            external_intr: c,
            event_injection: c,
            walk_mem_ref: c,
            copy_per_byte_milli: c,
            l0_dispatch: c,
            hypercall_body: c,
            mmio_decode: c,
            mmio_bus_lookup: c,
            ioeventfd_signal: c,
            hrtimer_program: c,
            icr_emulate: c,
            pi_desc_update: c,
            vcpu_block: c,
            vcpu_kick: c,
            vmx_insn_emulate: c,
            nested_exit_triage: c,
            nested_reflect_build: c,
            vmcs02_merge: c,
        }
    }

    /// Cost of copying `bytes` bytes between buffers.
    ///
    /// ```
    /// use dvh_arch::costs::CostModel;
    /// let m = CostModel::calibrated();
    /// // A full-size Ethernet frame costs on the order of 500 cycles.
    /// let c = m.copy_cost(1500).as_u64();
    /// assert!(c > 300 && c < 700, "copy cost {c}");
    /// ```
    pub fn copy_cost(&self, bytes: u64) -> Cycles {
        Cycles::new(self.copy_per_byte_milli.as_u64().saturating_mul(bytes) / 1000)
    }

    /// Cost of a hardware two-dimensional (nested) EPT walk with
    /// `levels_a` x `levels_b` page-table dimensions.
    ///
    /// A nested walk over two 4-level trees touches up to
    /// `(4+1)*(4+1) - 1 = 24` memory references; this is what makes the
    /// paper's DevNotify-with-DVH cost noticeably more at L2 than L1
    /// (Section 4, Table 3 discussion).
    pub fn nested_walk_cost(&self, levels_a: u64, levels_b: u64) -> Cycles {
        let refs = (levels_a + 1) * (levels_b + 1) - 1;
        self.walk_mem_ref * refs
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_matches_table3_vm_hypercall_skeleton() {
        // VM-level hypercall: exit + dispatch + 2 vmreads + body +
        // 1 vmwrite (advance RIP) + entry should land at 1,575 exactly;
        // the full check lives in the hypervisor crate's tests, but the
        // raw transition budget must leave room for the handler.
        let m = CostModel::calibrated();
        let transitions = m.vmexit_to_root + m.vmentry_from_root;
        assert!(transitions.as_u64() < 1_575);
        assert!(transitions.as_u64() > 1_000);
    }

    #[test]
    fn uniform_counts_actions() {
        let m = CostModel::uniform(10);
        assert_eq!(m.vmread, m.vmcs02_merge);
        assert_eq!(m.vmread.as_u64(), 10);
    }

    #[test]
    fn nested_walk_is_24_refs_for_4x4() {
        let m = CostModel::calibrated();
        assert_eq!(m.nested_walk_cost(4, 4), m.walk_mem_ref * 24);
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let m = CostModel::calibrated();
        let one = m.copy_cost(1_000);
        let two = m.copy_cost(2_000);
        assert_eq!(two, one * 2);
    }

    #[test]
    fn default_is_calibrated() {
        assert_eq!(CostModel::default(), CostModel::calibrated());
    }
}
