//! The checker harness: runs representative workloads with VM-entry
//! checking and tracing enabled, then runs every pass. This is what
//! `dvh check` executes.

use crate::causal_lint::lint_causal;
use crate::metrics_lint::{lint_chrome_export, lint_metrics};
use crate::source_lint::lint_sources;
use crate::trace_lint::{lint_trace, TraceContext};
use crate::{Report, Violation};
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::{RunStats, World};
use std::path::Path;

/// Trace capacity used by the harness — large enough that no harness
/// workload ever truncates (truncation is itself a violation).
pub const TRACE_CAPACITY: usize = 1 << 20;

/// The paper's Fig. 7 configuration matrix (the default `dvh check`
/// workload set).
pub fn fig7_configs() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("fig7/vm", MachineConfig::baseline(1)),
        ("fig7/vm-pt", MachineConfig::passthrough(1)),
        ("fig7/nested", MachineConfig::baseline(2)),
        ("fig7/nested-pt", MachineConfig::passthrough(2)),
        ("fig7/nested-dvh-vp", MachineConfig::dvh_vp(2)),
        ("fig7/nested-dvh", MachineConfig::dvh(2)),
    ]
}

/// The configurations the pinned fixture covers: the Fig. 7 matrix
/// plus the engine paths it leaves out — an L3 stack with and without
/// DVH, a Xen guest hypervisor (Fig. 10) and KVM/ARM.
pub fn pinned_configs() -> Vec<(&'static str, MachineConfig)> {
    let mut configs = fig7_configs();
    configs.extend([
        ("l3/nested", MachineConfig::baseline(3)),
        ("l3/nested-dvh", MachineConfig::dvh(3)),
        (
            "fig10/xen-dvh-vp",
            MachineConfig::dvh_vp(2).with_xen_guest(),
        ),
        ("arm/nested", MachineConfig::arm_baseline(2)),
    ]);
    configs
}

/// A workload that touches every mechanism the invariants speak about:
/// hypercalls (reflection), timers and IPIs (DVH interception), MMIO
/// doorbells (I/O cascade), network and block I/O, and idle rounds
/// (halt chains and wakeups).
pub fn exercise(m: &mut Machine) {
    m.hypercall(0);
    m.program_timer(0);
    if m.vcpus() > 1 {
        m.send_ipi(0, 1);
    }
    m.device_notify(0);
    m.net_tx(0, 4, 1500);
    m.net_rx(0, 1500);
    m.blk_io(0, 4096, true);
    m.idle_round(0);
    m.timer_sleep_round(0);
    m.hypercall(0);
}

/// One pinned ledger row: what [`exercise`] must produce on a fresh
/// machine of the named configuration (see [`pinned_configs`]).
#[derive(Debug, Clone, Copy)]
pub struct PinnedFixture {
    /// Configuration name (matches [`pinned_configs`]).
    pub name: &'static str,
    /// Total hardware exits.
    pub exits: u64,
    /// Total guest-hypervisor interventions.
    pub interventions: u64,
    /// Total DVH interceptions.
    pub dvh: u64,
    /// Total cycles attributed to outermost exits.
    pub cycles: u64,
    /// CPU 0's simulated clock after the workload.
    pub now0: u64,
    /// [`vmcs_digest`] of the whole VMCS hierarchy after the workload.
    pub vmcs: u64,
}

/// 64-bit FNV-1a of `bytes`, continuing from `hash` (start from
/// [`FNV_OFFSET`]): a compact, exact fingerprint for pinned outputs.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// [`fnv1a`] over every `(level, cpu, field, value)` of every VMCS in
/// `w`, in hierarchy then encoding order.
pub fn vmcs_digest(w: &World) -> u64 {
    let mut h = FNV_OFFSET;
    for level in 0..w.config.levels {
        for cpu in 0..w.num_cpus() {
            h = fnv1a(h, &[level as u8, cpu as u8]);
            for (f, v) in w.vmcs(level, cpu).iter() {
                h = fnv1a(h, &f.to_le_bytes());
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
    }
    h
}

/// The ledger [`exercise`] produced on every pinned configuration
/// *before* the engine's optimizations landed: the Fig. 7 rows before
/// dense VMCS slots, the dense exit ledger and lazy tracing; the L3,
/// Xen and ARM rows and every `vmcs` digest before L0's handler paths
/// were charged natively. The optimizations claim to change how fast
/// the simulator runs and nothing else; this pass holds them to it,
/// bit for bit. A mismatch means an "optimization" changed simulated
/// behavior — reject it.
pub const PINNED: [PinnedFixture; 10] = [
    PinnedFixture {
        name: "fig7/vm",
        exits: 10,
        interventions: 0,
        dvh: 0,
        cycles: 31_761,
        now0: 35_483,
        vmcs: 0xead6_588e_a5cb_5ebf,
    },
    PinnedFixture {
        name: "fig7/vm-pt",
        exits: 8,
        interventions: 0,
        dvh: 0,
        cycles: 19_211,
        now0: 22_388,
        vmcs: 0xead6_588e_a5cb_5ebf,
    },
    PinnedFixture {
        name: "fig7/nested",
        exits: 160,
        interventions: 13,
        dvh: 0,
        cycles: 518_027,
        now0: 490_974,
        vmcs: 0x1c41_454c_63c6_4675,
    },
    PinnedFixture {
        name: "fig7/nested-pt",
        exits: 122,
        interventions: 10,
        dvh: 0,
        cycles: 384_742,
        now0: 355_089,
        vmcs: 0x89f5_9a2c_7af0_9585,
    },
    PinnedFixture {
        name: "fig7/nested-dvh-vp",
        exits: 119,
        interventions: 10,
        dvh: 0,
        cycles: 378_336,
        now0: 350_378,
        vmcs: 0x087a_f5b9_1158_fc95,
    },
    PinnedFixture {
        name: "fig7/nested-dvh",
        exits: 32,
        interventions: 2,
        dvh: 3,
        cycles: 112_981,
        now0: 116_703,
        vmcs: 0x3939_c0e4_3fa3_d6e0,
    },
    PinnedFixture {
        name: "l3/nested",
        exits: 3_682,
        interventions: 304,
        dvh: 0,
        cycles: 12_042_323,
        now0: 11_142_110,
        vmcs: 0xc359_3851_2cb4_df7d,
    },
    PinnedFixture {
        name: "l3/nested-dvh",
        exits: 570,
        interventions: 46,
        dvh: 3,
        cycles: 1_874_151,
        now0: 1_877_873,
        vmcs: 0x327b_98e6_849e_2fd4,
    },
    PinnedFixture {
        name: "fig10/xen-dvh-vp",
        exits: 270,
        interventions: 10,
        dvh: 0,
        cycles: 854_196,
        now0: 776_078,
        vmcs: 0x7668_997e_735c_0af9,
    },
    PinnedFixture {
        name: "arm/nested",
        exits: 250,
        interventions: 13,
        dvh: 0,
        cycles: 648_957,
        now0: 612_204,
        vmcs: 0xdaa7_3d40_cbeb_f8db,
    },
];

/// Runs [`exercise`] on a fresh machine per configuration (checking
/// and tracing off — exactly how the fixture was captured) and
/// compares every ledger total and the VMCS digest against [`PINNED`].
pub fn check_pinned_fixture() -> Vec<Violation> {
    let mut out = Vec::new();
    let configs = pinned_configs();
    for pinned in PINNED {
        let Some((_, config)) = configs.iter().find(|(n, _)| *n == pinned.name) else {
            out.push(Violation {
                pass: crate::Pass::Fixture,
                rule: "pinned-config-exists",
                location: pinned.name.to_string(),
                detail: "pinned fixture has no matching configuration".into(),
            });
            continue;
        };
        let mut m = Machine::build(config.clone());
        exercise(&mut m);
        let w = m.world_mut();
        let got = [
            ("exits", w.stats.total_exits(), pinned.exits),
            (
                "interventions",
                w.stats.total_interventions(),
                pinned.interventions,
            ),
            ("dvh", w.stats.total_dvh_intercepts(), pinned.dvh),
            (
                "cycles",
                w.stats.total_attributed_cycles().as_u64(),
                pinned.cycles,
            ),
            ("now0", w.now(0).as_u64(), pinned.now0),
            ("vmcs", vmcs_digest(w), pinned.vmcs),
        ];
        for (what, actual, expected) in got {
            if actual != expected {
                out.push(Violation {
                    pass: crate::Pass::Fixture,
                    rule: "ledger-matches-pinned",
                    location: pinned.name.to_string(),
                    detail: format!(
                        "{what} = {actual}, pinned pre-optimization fixture says {expected}"
                    ),
                });
            }
        }
    }
    out
}

/// What the exit memo must leave exactly as the recursion does: the
/// whole ledger (histograms included), the VMCS hierarchy, every CPU's
/// clock, and every leaf vCPU's timer and halt chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// The statistics ledger.
    pub stats: RunStats,
    /// [`vmcs_digest`] of the hierarchy.
    pub vmcs: u64,
    /// Each CPU's simulated clock.
    pub now: Vec<u64>,
    /// Each leaf vCPU's armed timer deadline.
    pub timers: Vec<Option<u64>>,
    /// Each leaf vCPU's halt chain (empty = running).
    pub halt_chains: Vec<Vec<usize>>,
}

impl EngineState {
    /// The state of `w`.
    pub fn of(w: &World) -> EngineState {
        let cpus = 0..w.num_cpus();
        EngineState {
            stats: w.stats.clone(),
            vmcs: vmcs_digest(w),
            now: cpus.clone().map(|c| w.now(c).as_u64()).collect(),
            timers: w.timers.iter().map(|t| t.deadline).collect(),
            halt_chains: cpus
                .map(|c| w.halt_chain(c).map_or(Vec::new(), <[usize]>::to_vec))
                .collect(),
        }
    }

    /// Names of the parts that differ from `other`.
    pub fn diff(&self, other: &EngineState) -> Vec<&'static str> {
        [
            ("stats", self.stats == other.stats),
            ("vmcs", self.vmcs == other.vmcs),
            ("now", self.now == other.now),
            ("timers", self.timers == other.timers),
            ("halt_chains", self.halt_chains == other.halt_chains),
        ]
        .into_iter()
        .filter(|(_, same)| !same)
        .map(|(what, _)| what)
        .collect()
    }
}

/// Runs `drive` on two fresh machines of `config` and returns their
/// end states: first unobserved, where the exit memo replays what it
/// can, then traced through a one-event ring, which turns the memo
/// off so that every exit recurses.
pub fn memo_pair(config: &MachineConfig, drive: impl Fn(&mut Machine)) -> [EngineState; 2] {
    [false, true].map(|traced| {
        let mut m = Machine::build(config.clone());
        if traced {
            m.world_mut().enable_tracing(1);
        }
        drive(&mut m);
        EngineState::of(m.world())
    })
}

/// Runs [`exercise`] twice on every pinned configuration with the
/// exit memo on and off (see [`memo_pair`]) and reports any part of
/// the end state that differs.
pub fn check_memo_matches_recursion() -> Vec<Violation> {
    let mut out = Vec::new();
    for (name, config) in pinned_configs() {
        let [memo, recursion] = memo_pair(&config, |m| {
            exercise(m);
            exercise(m);
        });
        let differ = memo.diff(&recursion);
        if !differ.is_empty() {
            out.push(Violation {
                pass: crate::Pass::Fixture,
                rule: "memo-matches-recursion",
                location: name.to_string(),
                detail: format!(
                    "with the exit memo on, {} differ from the recursion's",
                    differ.join(", ")
                ),
            });
        }
    }
    out
}

/// Builds a machine for `config`, arms checking, tracing, and metrics,
/// runs the standard workload, and returns all vmentry-, trace-,
/// metrics-, and causal-pass violations (empty = certified).
pub fn check_machine(config: MachineConfig) -> Vec<Violation> {
    let mut m = Machine::build(config);
    {
        let w = m.world_mut();
        w.enable_tracing(TRACE_CAPACITY);
        w.enable_metrics();
        w.enable_vmentry_checks();
        // Stats and trace must cover the same window for cycle
        // conservation to be exact.
        w.reset_stats();
    }
    exercise(&mut m);
    let w = m.world_mut();
    w.export_device_metrics();
    let mut out = crate::vmentry::check_world(w);
    let ctx = TraceContext::for_world(w);
    out.extend(lint_trace(w.trace_events(), &ctx));
    if let Some(reg) = w.metrics() {
        out.extend(lint_metrics(reg, &w.stats));
    }
    out.extend(lint_chrome_export(
        w.trace_events(),
        w.num_cpus(),
        w.leaf_level(),
        &w.stats,
    ));
    out.extend(lint_causal(
        w.trace_events(),
        w.num_cpus(),
        w.trace_dropped(),
        &w.stats,
    ));
    out
}

/// Runs every pass: vmentry, trace, and metrics over each Fig. 7
/// configuration, the pinned fixture, the exit memo against the
/// recursion on every pinned configuration, and the source lint over
/// `source_root` when given (pass the repo root; `None` skips the
/// source pass, e.g. when running from an installed binary with no
/// checkout around).
pub fn run_all(source_root: Option<&Path>) -> std::io::Result<Report> {
    let mut report = Report::new();
    for (name, config) in fig7_configs() {
        let violations = check_machine(config);
        report.add(
            format!(
                "vmentry+trace+metrics+causal {name}: {} violation(s)",
                violations.len()
            ),
            name,
            violations,
        );
    }
    let pinned = check_pinned_fixture();
    report.add(
        format!(
            "pinned fixture: {} configuration(s), {} violation(s)",
            PINNED.len(),
            pinned.len()
        ),
        "pinned-fixture",
        pinned,
    );
    let memo = check_memo_matches_recursion();
    report.add(
        format!(
            "exit memo vs recursion: {} configuration(s), {} violation(s)",
            PINNED.len(),
            memo.len()
        ),
        "exit-memo",
        memo,
    );
    if let Some(root) = source_root {
        let outcome = lint_sources(root)?;
        report.add(
            format!(
                "source lint: {} files, {} violation(s)",
                outcome.files_scanned,
                outcome.violations.len()
            ),
            "",
            outcome.violations,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fig7_config_is_certified() {
        for (name, config) in fig7_configs() {
            let violations = check_machine(config);
            assert!(violations.is_empty(), "{name}: {:?}", violations);
        }
    }

    #[test]
    fn engine_matches_pinned_pre_optimization_fixture() {
        let violations = check_pinned_fixture();
        assert!(violations.is_empty(), "{violations:?}");
    }
}
