//! The round-based pre-copy migration engine.

use crate::bandwidth::Bandwidth;
use dvh_core::migration_cap;
use dvh_core::{Cycles, IoModel, World};
use dvh_memory::sparse::SparseMemory;
use dvh_memory::PAGE_SIZE;
use std::fmt;

/// Configuration for one migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationConfig {
    /// Transfer bandwidth (QEMU default: 268 Mb/s).
    pub bandwidth: Bandwidth,
    /// Stop-and-copy threshold: when at most this many pages remain
    /// dirty, stop the VM and cut over.
    pub downtime_threshold_pages: u64,
    /// Give up (and force cut-over) after this many pre-copy rounds.
    pub max_rounds: u32,
    /// Whether the whole L1 VM (guest hypervisor included) migrates,
    /// rather than the nested VM alone. Roughly doubles the memory
    /// moved (§4).
    pub include_guest_hypervisor: bool,
}

impl Default for MigrationConfig {
    fn default() -> MigrationConfig {
        MigrationConfig {
            bandwidth: Bandwidth::QEMU_DEFAULT,
            downtime_threshold_pages: 8,
            max_rounds: 30,
            include_guest_hypervisor: false,
        }
    }
}

/// Why a migration could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationError {
    /// Physical device passthrough: the hypervisor has no view of the
    /// device state and no dirty tracking for its DMA ("Migration does
    /// not work using passthrough", §4).
    PassthroughNotMigratable,
    /// The virtual-passthrough device lacks the §3.6 migration
    /// capability.
    MissingMigrationCapability,
}

impl fmt::Display for MigrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationError::PassthroughNotMigratable => {
                write!(f, "physical passthrough devices cannot be migrated")
            }
            MigrationError::MissingMigrationCapability => {
                write!(f, "virtual device lacks the PCI migration capability")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

/// One pre-copy round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// Pages transferred this round.
    pub pages: u64,
    /// Time spent transferring them.
    pub time: Cycles,
}

/// The outcome of a migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Per-round page counts and times.
    pub rounds: Vec<Round>,
    /// Pages copied during the stop-and-copy phase.
    pub downtime_pages: u64,
    /// VM downtime (stop-and-copy transfer + device-state transfer).
    pub downtime: Cycles,
    /// Total wall time of the migration.
    pub total_time: Cycles,
    /// Total pages sent across all rounds.
    pub total_pages: u64,
    /// Encapsulated device-state bytes transferred during cut-over.
    pub device_state_bytes: u64,
    /// Whether pre-copy converged before `max_rounds`.
    pub converged: bool,
    /// Whether destination memory verified identical to the source.
    pub verified: bool,
    /// The transferred memory image (what arrived at the destination).
    pub image: SparseMemory,
    /// The encapsulated device state transferred at cut-over, if the
    /// configuration has one to capture.
    pub device_state: Option<migration_cap::DeviceState>,
}

/// Live-migrates the nested VM (or, with
/// [`MigrationConfig::include_guest_hypervisor`], the whole L1 VM)
/// running in `w`, while `workload` keeps executing between rounds and
/// dirtying memory.
///
/// The function really copies pages into a destination memory image and
/// verifies the result, so a faithful transfer is checked, not assumed.
///
/// # Errors
///
/// See [`MigrationError`].
pub fn migrate_nested_vm(
    w: &mut World,
    cfg: MigrationConfig,
    mut workload: impl FnMut(&mut World),
) -> Result<MigrationReport, MigrationError> {
    match w.config.io_model {
        IoModel::Passthrough => return Err(MigrationError::PassthroughNotMigratable),
        IoModel::VirtualPassthrough => {
            if w.virtio[0].pci().migration_cap().is_none() {
                return Err(MigrationError::MissingMigrationCapability);
            }
            migration_cap::enable_dirty_logging(w, 0xA000)
                .map_err(|_| MigrationError::MissingMigrationCapability)?;
        }
        IoModel::Virtio => {
            // The guest hypervisor interposes on all I/O itself; its
            // own logging suffices, no capability needed.
        }
    }

    let mut dest = SparseMemory::new();
    let mut rounds = Vec::new();
    let mut total_pages = 0u64;
    let mut total_time = Cycles::ZERO;

    // Round 0: the full working set (every resident page of the VM).
    // With the guest hypervisor included, its own memory goes too —
    // roughly doubling the transfer (§4).
    let resident = w.host_mem.resident_pfns();
    let hv_factor = if cfg.include_guest_hypervisor { 2 } else { 1 };
    let mut pending: Vec<u64> = resident;
    // Seed the first round even if the guest never touched memory yet.
    if pending.is_empty() {
        pending = vec![w.leaf_host_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN)];
    }
    let mut converged = false;

    for _ in 0..cfg.max_rounds {
        let page_count = pending.len() as u64 * hv_factor;
        let time = cfg.bandwidth.transfer_time(page_count * PAGE_SIZE);
        for pfn in &pending {
            w.host_mem.with_page(*pfn, |p| dest.write_page(*pfn, p));
        }
        rounds.push(Round {
            pages: page_count,
            time,
        });
        w.observe(|m| {
            use dvh_obs::metrics::names;
            use dvh_obs::MetricKey;
            m.observe(MetricKey::plain(names::PRECOPY_ROUND_PAGES), page_count);
            m.observe(MetricKey::plain(names::PRECOPY_ROUND_CYCLES), time.as_u64());
        });
        total_pages += page_count;
        total_time += time;

        // The VM keeps running while we copied; harvest what it (and
        // its devices) dirtied.
        workload(w);
        let dirtied = harvest(w);
        let newly: Vec<u64> = dirtied
            .into_iter()
            .map(|leaf_pfn| w.leaf_host_pfn(leaf_pfn))
            .collect();
        if newly.len() as u64 <= cfg.downtime_threshold_pages {
            pending = newly;
            converged = true;
            break;
        }
        pending = newly;
    }

    // Stop-and-copy: the VM is paused (interrupts queue in its PI
    // descriptors, nothing is lost), the remaining dirty pages and the
    // device state move, and the VM resumes at the destination.
    w.pause_all();
    let (device_state, captured) = match w.config.io_model {
        IoModel::VirtualPassthrough => {
            let s = migration_cap::capture_device_state(w)
                .map_err(|_| MigrationError::MissingMigrationCapability)?;
            (s.len() as u64, Some(s))
        }
        _ => (256, None), // the owner hypervisor's own virtio state
    };
    for pfn in &pending {
        w.host_mem.with_page(*pfn, |p| dest.write_page(*pfn, p));
    }
    let downtime_pages = pending.len() as u64;
    let downtime = cfg
        .bandwidth
        .transfer_time(downtime_pages * PAGE_SIZE + device_state);
    total_pages += downtime_pages;
    total_time += downtime;

    w.resume_all();

    // Verify the destination image matches the source for every page
    // ever transferred.
    let verified = dest
        .resident_pfns()
        .iter()
        .all(|pfn| dest.with_page(*pfn, |a| w.host_mem.with_page(*pfn, |b| a == b)));

    Ok(MigrationReport {
        rounds,
        downtime_pages,
        downtime,
        total_time,
        total_pages,
        device_state_bytes: device_state,
        converged,
        verified,
        image: dest,
        device_state: captured,
    })
}

/// Harvests dirty leaf pages from whatever tracking the configuration
/// provides.
fn harvest(w: &mut World) -> Vec<u64> {
    match w.config.io_model {
        IoModel::VirtualPassthrough => migration_cap::harvest_dirty_pages(w).unwrap_or_default(),
        _ => w.leaf_dirty.harvest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_core::{Machine, MachineConfig};
    use dvh_memory::Gpa;

    fn touch_some_memory(m: &mut Machine) {
        let base = dvh_hypervisor::world::LEAF_BUF_BASE_PFN;
        for i in 0..16u64 {
            m.world_mut()
                .guest_write_memory(0, Gpa::from_pfn(base + i), &[i as u8; 64]);
        }
    }

    #[test]
    fn passthrough_cannot_migrate() {
        let mut m = Machine::build(MachineConfig::passthrough(2));
        let r = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |_| {});
        assert_eq!(r.unwrap_err(), MigrationError::PassthroughNotMigratable);
    }

    #[test]
    fn dvh_nested_vm_migrates_and_verifies() {
        let mut m = Machine::build(MachineConfig::dvh(2));
        touch_some_memory(&mut m);
        let r = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |_| {}).unwrap();
        assert!(r.converged);
        assert!(r.verified);
        assert!(r.total_pages >= 16);
        assert!(r.device_state_bytes > 0);
    }

    #[test]
    fn paravirtual_nested_vm_migrates_too() {
        let mut m = Machine::build(MachineConfig::baseline(2));
        touch_some_memory(&mut m);
        let r = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |_| {}).unwrap();
        assert!(r.converged && r.verified);
    }

    #[test]
    fn dvh_and_paravirtual_times_are_roughly_the_same() {
        // §4: "Migration times for nested VMs using DVH versus
        // paravirtual I/O were roughly the same."
        let mut dvh = Machine::build(MachineConfig::dvh(2));
        touch_some_memory(&mut dvh);
        let t_dvh = migrate_nested_vm(dvh.world_mut(), MigrationConfig::default(), |_| {})
            .unwrap()
            .total_time;

        let mut pv = Machine::build(MachineConfig::baseline(2));
        touch_some_memory(&mut pv);
        let t_pv = migrate_nested_vm(pv.world_mut(), MigrationConfig::default(), |_| {})
            .unwrap()
            .total_time;
        let (lo, hi) = if t_dvh < t_pv {
            (t_dvh, t_pv)
        } else {
            (t_pv, t_dvh)
        };
        assert!(
            hi.as_u64() <= lo.as_u64() * 12 / 10,
            "DVH {t_dvh} vs paravirtual {t_pv}"
        );
    }

    #[test]
    fn including_guest_hypervisor_doubles_cost() {
        // §4: migrating the nested VM with its guest hypervisor "was
        // roughly twice as expensive ... due to the extra memory".
        let mut a = Machine::build(MachineConfig::dvh(2));
        touch_some_memory(&mut a);
        let alone = migrate_nested_vm(a.world_mut(), MigrationConfig::default(), |_| {})
            .unwrap()
            .total_time;

        let mut b = Machine::build(MachineConfig::dvh(2));
        touch_some_memory(&mut b);
        let with_hv = migrate_nested_vm(
            b.world_mut(),
            MigrationConfig {
                include_guest_hypervisor: true,
                ..MigrationConfig::default()
            },
            |_| {},
        )
        .unwrap()
        .total_time;
        let ratio = with_hv.as_u64() as f64 / alone.as_u64() as f64;
        assert!((1.6..=2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dirtying_workload_forces_extra_rounds() {
        let mut m = Machine::build(MachineConfig::dvh(2));
        touch_some_memory(&mut m);
        let mut remaining = 3u32;
        let r = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |w| {
            // Keep dirtying pages for a few rounds, then stop.
            if remaining > 0 {
                remaining -= 1;
                for i in 0..20u64 {
                    w.guest_write_memory(
                        0,
                        Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN + i),
                        &[0xAB; 32],
                    );
                }
            }
        })
        .unwrap();
        assert!(r.rounds.len() >= 3, "rounds: {}", r.rounds.len());
        assert!(r.converged && r.verified);
    }

    #[test]
    fn non_converging_workload_hits_round_cap() {
        let mut m = Machine::build(MachineConfig::dvh(2));
        touch_some_memory(&mut m);
        let cfg = MigrationConfig {
            max_rounds: 5,
            ..MigrationConfig::default()
        };
        let r = migrate_nested_vm(m.world_mut(), cfg, |w| {
            for i in 0..30u64 {
                w.guest_write_memory(
                    0,
                    Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN + i),
                    &[0xCD; 32],
                );
            }
        })
        .unwrap();
        assert!(!r.converged);
        assert_eq!(r.rounds.len(), 5);
        // Forced cut-over still transfers everything faithfully.
        assert!(r.verified);
    }

    #[test]
    fn metrics_capture_precopy_rounds() {
        use dvh_obs::metrics::names;
        use dvh_obs::MetricKey;
        let mut m = Machine::build(MachineConfig::dvh(2));
        m.world_mut().enable_metrics();
        touch_some_memory(&mut m);
        let r = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |_| {}).unwrap();
        let reg = m.world_mut().take_metrics().unwrap();
        let pages = reg
            .histogram(&MetricKey::plain(names::PRECOPY_ROUND_PAGES))
            .expect("round-size histogram populated");
        assert_eq!(pages.count() as usize, r.rounds.len());
        assert_eq!(pages.sum(), r.rounds.iter().map(|x| x.pages).sum::<u64>());
        let cycles = reg
            .histogram(&MetricKey::plain(names::PRECOPY_ROUND_CYCLES))
            .expect("round-time histogram populated");
        assert_eq!(cycles.count() as usize, r.rounds.len());
        assert!(pages.is_consistent() && cycles.is_consistent());
    }

    #[test]
    fn downtime_is_a_small_fraction_of_total() {
        let mut m = Machine::build(MachineConfig::dvh(2));
        for i in 0..200u64 {
            m.world_mut().guest_write_memory(
                0,
                Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN + (i % 60)),
                &[1; 128],
            );
        }
        let r = migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |_| {}).unwrap();
        assert!(r.downtime.as_u64() * 4 < r.total_time.as_u64());
    }
}
