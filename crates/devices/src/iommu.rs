//! The physical IOMMU and the virtual IOMMU.
//!
//! The physical IOMMU (VT-d-like) provides per-device DMA remapping
//! domains and posted-interrupt remapping; device passthrough needs it.
//! The **virtual IOMMU** is what the host hypervisor exposes so guest
//! hypervisors can *think* they have passthrough-grade hardware —
//! virtual-passthrough's enabling trick (§3.1): "virtual-passthrough
//! requires the host hypervisor to provide both a virtual I/O device to
//! assign as well as a virtual IOMMU". Guest map/unmap operations on
//! the virtual IOMMU trap; the host folds them into shadow I/O page
//! tables ([`dvh_memory::iommu_pt::ShadowIoTable`]).

use crate::msi::MsiMessage;
use crate::pci::Bdf;
use dvh_memory::iommu_pt::IoTable;
use dvh_memory::{Perms, TranslateErr};
use std::collections::BTreeMap;
use std::fmt;

/// Where a remapped interrupt goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrteTarget {
    /// Posted: update PI descriptor `pi_desc` and notify its CPU —
    /// delivery reaches a running VM without any exit.
    Posted {
        /// Opaque PI-descriptor identifier owned by the hypervisor.
        pi_desc: u32,
    },
    /// Remapped: deliver vector to a CPU in root mode (the hypervisor
    /// then injects it, costing an exit if the target is in guest mode).
    Remapped {
        /// Destination physical CPU.
        dest: u32,
        /// Vector to deliver.
        vector: u8,
    },
}

/// A DMA-remapping and interrupt-remapping unit.
///
/// Used directly as the physical IOMMU, and embedded in
/// [`VirtualIommu`] for the virtual one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Iommu {
    domains: BTreeMap<Bdf, IoTable>,
    irte: BTreeMap<(Bdf, u8), IrteTarget>,
    faults: u64,
}

impl Iommu {
    /// Creates an IOMMU with no domains.
    pub fn new() -> Iommu {
        Iommu::default()
    }

    /// Attaches `bdf` to a fresh (empty) translation domain, detaching
    /// it from any previous one.
    pub fn attach(&mut self, bdf: Bdf) {
        self.domains.insert(bdf, IoTable::new());
    }

    /// Detaches `bdf`; subsequent DMA from it faults.
    pub fn detach(&mut self, bdf: Bdf) -> bool {
        self.domains.remove(&bdf).is_some()
    }

    /// Maps `n` pages for device `bdf`: IOVA page `iova_pfn` →
    /// output page `out_pfn`.
    ///
    /// # Panics
    ///
    /// Panics if the device is not attached; callers must `attach`
    /// first (mirrors the VFIO container flow).
    pub fn map(&mut self, bdf: Bdf, iova_pfn: u64, out_pfn: u64, n: u64, perms: Perms) {
        self.domains
            .get_mut(&bdf)
            .expect("device must be attached before mapping")
            .map(iova_pfn, out_pfn, n, perms);
    }

    /// Unmaps one page from `bdf`'s domain.
    pub fn unmap(&mut self, bdf: Bdf, iova_pfn: u64) -> bool {
        self.domains
            .get_mut(&bdf)
            .map(|d| d.unmap(iova_pfn))
            .unwrap_or(false)
    }

    /// Translates a DMA access from `bdf`, recording faults.
    ///
    /// # Errors
    ///
    /// Fails with [`TranslateErr`] for detached devices or unmapped /
    /// protected IOVAs; a failed DMA is dropped by hardware and the
    /// fault is logged.
    pub fn translate(&mut self, bdf: Bdf, iova_pfn: u64, req: Perms) -> Result<u64, TranslateErr> {
        let dom = match self.domains.get_mut(&bdf) {
            Some(d) => d,
            None => {
                self.faults += 1;
                return Err(TranslateErr::NotMapped { level: 0 });
            }
        };
        match dom.translate(iova_pfn, req) {
            Ok(t) => Ok(t.pfn),
            Err(e) => {
                self.faults += 1;
                Err(e)
            }
        }
    }

    /// Installs an interrupt-remapping entry for `(bdf, vector)`.
    pub fn remap_interrupt(&mut self, bdf: Bdf, vector: u8, target: IrteTarget) {
        self.irte.insert((bdf, vector), target);
    }

    /// Resolves an MSI message from `bdf` through the remapping tables.
    /// Non-remappable messages pass through unchanged as
    /// [`IrteTarget::Remapped`].
    pub fn resolve_msi(&self, bdf: Bdf, msg: MsiMessage) -> IrteTarget {
        if msg.remappable {
            if let Some(t) = self.irte.get(&(bdf, msg.vector)) {
                return *t;
            }
        }
        IrteTarget::Remapped {
            dest: msg.dest,
            vector: msg.vector,
        }
    }

    /// The translation domain of `bdf`, if attached.
    pub fn domain(&self, bdf: Bdf) -> Option<&IoTable> {
        self.domains.get(&bdf)
    }

    /// Mutable domain access.
    pub fn domain_mut(&mut self, bdf: Bdf) -> Option<&mut IoTable> {
        self.domains.get_mut(&bdf)
    }

    /// Lifetime DMA faults.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }
}

impl fmt::Display for Iommu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Iommu({} domains, {} IRTEs, {} faults)",
            self.domains.len(),
            self.irte.len(),
            self.faults
        )
    }
}

/// The virtual IOMMU the host hypervisor exposes to a guest
/// hypervisor.
///
/// Functionally an [`Iommu`], with two differences that matter to the
/// paper's evaluation:
///
/// * every guest `map`/`unmap` is a *trapped* operation (counted here,
///   costed by the hypervisor crate);
/// * posted-interrupt support is optional — QEMU's vIOMMU lacked it,
///   and the paper implemented it ("we also implemented posted
///   interrupt support in the virtual IOMMU ... which is missing in
///   QEMU"); the DVH-VP configuration of Figs. 7–10 runs *without* it,
///   full DVH runs *with* it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VirtualIommu {
    inner: Iommu,
    /// Whether this vIOMMU supports posted interrupts.
    pub posted_interrupts: bool,
    map_ops: u64,
    unmap_ops: u64,
}

impl VirtualIommu {
    /// Creates a vIOMMU; `posted_interrupts` selects the paper's
    /// DVH (true) vs. DVH-VP (false) interrupt path.
    pub fn new(posted_interrupts: bool) -> VirtualIommu {
        VirtualIommu {
            inner: Iommu::new(),
            posted_interrupts,
            map_ops: 0,
            unmap_ops: 0,
        }
    }

    /// Guest hypervisor attaches a device (trapped, but one-time).
    pub fn attach(&mut self, bdf: Bdf) {
        self.inner.attach(bdf);
    }

    /// Guest hypervisor maps pages (trapped operation).
    ///
    /// # Panics
    ///
    /// Panics if the device is not attached, like [`Iommu::map`].
    pub fn map(&mut self, bdf: Bdf, iova_pfn: u64, out_pfn: u64, n: u64, perms: Perms) {
        self.map_ops += 1;
        self.inner.map(bdf, iova_pfn, out_pfn, n, perms);
    }

    /// Guest hypervisor unmaps a page (trapped operation).
    pub fn unmap(&mut self, bdf: Bdf, iova_pfn: u64) -> bool {
        self.unmap_ops += 1;
        self.inner.unmap(bdf, iova_pfn)
    }

    /// Underlying unit (host side: translation, IRTE resolution).
    pub fn unit(&self) -> &Iommu {
        &self.inner
    }

    /// Mutable underlying unit.
    pub fn unit_mut(&mut self) -> &mut Iommu {
        &mut self.inner
    }

    /// Trapped map operations so far.
    pub fn map_op_count(&self) -> u64 {
        self.map_ops
    }

    /// Trapped unmap operations so far.
    pub fn unmap_op_count(&self) -> u64 {
        self.unmap_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bdf() -> Bdf {
        Bdf::new(0, 4, 0)
    }

    #[test]
    fn attach_map_translate() {
        let mut mmu = Iommu::new();
        mmu.attach(bdf());
        mmu.map(bdf(), 0x10, 0x99, 2, Perms::RW);
        assert_eq!(mmu.translate(bdf(), 0x11, Perms::RW).unwrap(), 0x9A);
    }

    #[test]
    fn detached_device_faults() {
        let mut mmu = Iommu::new();
        assert!(mmu.translate(bdf(), 0, Perms::RO).is_err());
        assert_eq!(mmu.fault_count(), 1);
    }

    #[test]
    #[should_panic(expected = "attached")]
    fn map_before_attach_panics() {
        Iommu::new().map(bdf(), 0, 0, 1, Perms::RW);
    }

    #[test]
    fn msi_resolution_prefers_irte() {
        let mut mmu = Iommu::new();
        mmu.remap_interrupt(bdf(), 0x40, IrteTarget::Posted { pi_desc: 7 });
        let t = mmu.resolve_msi(bdf(), MsiMessage::remappable(0, 0x40));
        assert_eq!(t, IrteTarget::Posted { pi_desc: 7 });
        // Legacy messages bypass remapping.
        let t = mmu.resolve_msi(bdf(), MsiMessage::legacy(3, 0x40));
        assert_eq!(
            t,
            IrteTarget::Remapped {
                dest: 3,
                vector: 0x40
            }
        );
    }

    #[test]
    fn unmatched_remappable_message_falls_through() {
        let mmu = Iommu::new();
        let t = mmu.resolve_msi(bdf(), MsiMessage::remappable(5, 0x41));
        assert_eq!(
            t,
            IrteTarget::Remapped {
                dest: 5,
                vector: 0x41
            }
        );
    }

    #[test]
    fn viommu_counts_trapped_ops() {
        let mut v = VirtualIommu::new(false);
        v.attach(bdf());
        v.map(bdf(), 0, 0x100, 8, Perms::RW);
        v.unmap(bdf(), 3);
        assert_eq!(v.map_op_count(), 1);
        assert_eq!(v.unmap_op_count(), 1);
        assert!(!v.posted_interrupts);
    }

    #[test]
    fn detach_then_fault() {
        let mut mmu = Iommu::new();
        mmu.attach(bdf());
        assert!(mmu.detach(bdf()));
        assert!(!mmu.detach(bdf()));
        assert!(mmu.translate(bdf(), 0, Perms::RO).is_err());
    }
}
