//! The five workloads. Each pass is split into a set-up part
//! (machine builds, warm-up, trace-ring allocation), a timed part, and
//! a verification part that runs after the clock stops.
//!
//! The seed only permutes the order of ops, cells and artifacts; the
//! set of inputs, and so the work done per pass, is the same under
//! every seed.

use crate::check::{fingerprint, stats_digest, Verifier};
use crate::rng::Rng;
use crate::spans::Tracer;
use dvh_bench::harness::{self, Table3Row};
use dvh_checker::causal_lint::lint_causal;
use dvh_checker::metrics_lint::{lint_chrome_export, lint_metrics};
use dvh_checker::trace_lint::{lint_trace, TraceContext};
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::trace_export;
use dvh_migration::{migrate_nested_vm, MigrationConfig, MigrationError};
use dvh_workloads::{run_app, AppId, WorkloadResult};
use std::time::Instant;

/// Each Table 1 op runs this many times per `l3_micro` pass.
pub const OPS_PER_KIND: usize = 1000;
/// Each DVH-handled op runs this many times per `l3_dvh_micro` pass:
/// each costs under 1/100 of a reflected L3 op.
pub const DVH_OPS_PER_KIND: usize = 20_000;
/// Timed units (see [`Laps`]) per micro pass.
const MICRO_UNITS: usize = 16;
/// Each op runs this many times during `l3_micro` warm-up.
const WARMUP_PER_KIND: usize = 10;
/// Each op runs this many times during `l3_dvh_micro` warm-up: about
/// as much simulated work as the `l3_micro` warm-up, so that set-up is
/// not just one machine build.
const DVH_WARMUP_PER_KIND: usize = 2_000;
/// Transactions per `dvh_apps` cell: the harness's own figure size.
pub const APP_TXNS: u32 = harness::APP_TXNS;
/// Transactions of the `observed_l3` run (about 509k trace events).
pub const OBSERVED_TXNS: u32 = 1000;
/// Trace capacity of the `observed_l3` run: large enough that the
/// ring never wraps, so the recorded run is complete.
pub const TRACE_CAPACITY: usize = 1 << 20;
/// Transactions of the small observed run whose Chrome export the
/// chrome lint certifies. The lint parses the document back with
/// `dvh_obs::json::parse`, whose cost grows with the square of the
/// document's length: 0.7 s for the 187 KB of this run, 38 s for the
/// 1.3 MB of 40 transactions, hours for the 38 MB of
/// [`OBSERVED_TXNS`].
pub const CHROME_LINT_TXNS: u32 = 10;
/// Depth of the recursion artifact, as `summary` runs it.
const RECURSION_LEVELS: usize = 5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 ops back to back on an L3 baseline machine.
    L3Micro,
    /// The DVH-handled Table 1 ops back to back on an L3+DVH machine.
    L3DvhMicro,
    /// The seven apps on `dvh(2)` and `dvh(3)`.
    DvhApps,
    /// Everything `summary` regenerates, on the host's workers.
    PaperSweep,
    /// An observed L3 memcached run, exported and linted.
    ObservedL3,
}

impl Workload {
    /// Every workload, in the order the traced suite runs them.
    pub const ALL: [Workload; 5] = [
        Workload::L3Micro,
        Workload::L3DvhMicro,
        Workload::DvhApps,
        Workload::PaperSweep,
        Workload::ObservedL3,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::L3Micro => "l3_micro",
            Workload::L3DvhMicro => "l3_dvh_micro",
            Workload::DvhApps => "dvh_apps",
            Workload::PaperSweep => "paper_sweep",
            Workload::ObservedL3 => "observed_l3",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A Table 1 microbenchmark op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// VM ↔ hypervisor round trip.
    Hypercall,
    /// LAPIC TSC-deadline timer write.
    ProgramTimer,
    /// IPI to vCPU 1, send and receive.
    SendIpi,
    /// virtio doorbell write.
    DeviceNotify,
}

impl Op {
    /// All four ops.
    pub const ALL: [Op; 4] = [
        Op::Hypercall,
        Op::ProgramTimer,
        Op::SendIpi,
        Op::DeviceNotify,
    ];

    /// Metric and span name of the op.
    pub fn name(self) -> &'static str {
        match self {
            Op::Hypercall => "hypercall",
            Op::ProgramTimer => "program_timer",
            Op::SendIpi => "send_ipi",
            Op::DeviceNotify => "device_notify",
        }
    }

    /// Runs the op on vCPU 0 and returns its simulated cycles.
    pub fn apply(self, m: &mut Machine) -> u64 {
        match self {
            Op::Hypercall => m.hypercall(0),
            Op::ProgramTimer => m.program_timer(0),
            Op::SendIpi => m.send_ipi(0, 1),
            Op::DeviceNotify => m.device_notify(0),
        }
        .as_u64()
    }
}

/// One `dvh_apps` cell: an app on `dvh(level)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The application.
    pub app: AppId,
    /// Virtualization level (2 or 3).
    pub level: usize,
    /// `<app>.l<level>_dvh`, the cell's span tag and metric suffix.
    pub tag: &'static str,
}

/// One `paper_sweep` artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// Table 3.
    Table3,
    /// Fig. 7, 8, 9 or 10.
    Figure(u32),
    /// The §4 migration experiment.
    Migration,
    /// The §3.5 recursion experiment.
    Recursion,
}

impl Artifact {
    /// Every artifact `summary` regenerates.
    pub const ALL: [Artifact; 7] = [
        Artifact::Table3,
        Artifact::Figure(7),
        Artifact::Figure(8),
        Artifact::Figure(9),
        Artifact::Figure(10),
        Artifact::Migration,
        Artifact::Recursion,
    ];

    /// Metric and span name of the artifact.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Table3 => "table3",
            Artifact::Figure(7) => "fig7",
            Artifact::Figure(8) => "fig8",
            Artifact::Figure(9) => "fig9",
            Artifact::Figure(10) => "fig10",
            Artifact::Figure(_) => "figure",
            Artifact::Migration => "migration",
            Artifact::Recursion => "recursion",
        }
    }
}

/// The seeded input order of every workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `l3_micro` ops, [`OPS_PER_KIND`] of each kind.
    pub ops: Vec<Op>,
    /// `l3_dvh_micro` ops, [`DVH_OPS_PER_KIND`] of each kind but
    /// `hypercall`, which DVH leaves to the guest hypervisors.
    pub dvh_ops: Vec<Op>,
    /// `dvh_apps` cells.
    pub cells: Vec<Cell>,
    /// `paper_sweep` artifacts.
    pub artifacts: Vec<Artifact>,
    /// `paper_sweep` worker threads.
    pub workers: usize,
}

impl Plan {
    /// The ops of a micro workload.
    pub fn micro_ops(&self, w: Workload) -> &[Op] {
        match w {
            Workload::L3DvhMicro => &self.dvh_ops,
            _ => &self.ops,
        }
    }

    /// The plan for `seed`, sweeping on `workers` threads.
    pub fn new(seed: u64, workers: usize) -> Plan {
        let mut rng = Rng::new(seed);
        let mut ops: Vec<Op> = Op::ALL
            .iter()
            .flat_map(|&op| std::iter::repeat_n(op, OPS_PER_KIND))
            .collect();
        rng.shuffle(&mut ops);
        let mut dvh_ops: Vec<Op> = Op::ALL[1..]
            .iter()
            .flat_map(|&op| std::iter::repeat_n(op, DVH_OPS_PER_KIND))
            .collect();
        rng.shuffle(&mut dvh_ops);
        let mut cells: Vec<Cell> = AppId::ALL
            .iter()
            .flat_map(|&app| {
                [2, 3].map(|level| Cell {
                    app,
                    level,
                    tag: Box::leak(format!("{}.l{level}_dvh", app.cli_name()).into_boxed_str()),
                })
            })
            .collect();
        rng.shuffle(&mut cells);
        let mut artifacts = Artifact::ALL.to_vec();
        rng.shuffle(&mut artifacts);
        Plan {
            ops,
            dvh_ops,
            cells,
            artifacts,
            workers,
        }
    }
}

/// Simulated work one pass did, for the throughput metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Simulated transactions (an `l3_micro` op counts as one).
    pub txns: u64,
    /// Simulated hardware exits (0 where the harness hides them).
    pub exits: u64,
}

/// What set-up built for one pass.
pub enum Prepared {
    /// The warmed-up machine of a micro workload, statistics reset.
    Micro(Workload, Box<Machine>),
    /// One fresh machine per cell, in plan order.
    Apps(Vec<Machine>),
    /// Nothing but a warm-up: the harness builds its own machines.
    Sweep,
    /// Two L3 machines with observability armed and statistics reset:
    /// one for [`OBSERVED_TXNS`], one for [`CHROME_LINT_TXNS`].
    Observed(Box<Machine>, Box<Machine>),
}

/// Builds `cfg` inside a `core.build` span.
pub fn build(cfg: MachineConfig, tag: &'static str, tr: &mut Tracer) -> Machine {
    tr.enter("core.build", tag);
    let m = Machine::build(cfg);
    tr.exit();
    m
}

/// The set-up part of a pass. Its units are the `dvh_apps` machine
/// builds, and the whole set-up for the other workloads.
pub fn prepare(w: Workload, plan: &Plan, tr: &mut Tracer) -> (Prepared, Laps) {
    let mut laps = Laps::start();
    let prep = match w {
        Workload::L3Micro => {
            let mut m = build(MachineConfig::baseline(3), "l3", tr);
            for op in Op::ALL {
                for _ in 0..WARMUP_PER_KIND {
                    op.apply(&mut m);
                }
            }
            m.world_mut().reset_stats();
            Prepared::Micro(w, Box::new(m))
        }
        Workload::L3DvhMicro => {
            let mut m = build(MachineConfig::dvh(3), "l3_dvh", tr);
            for &op in &Op::ALL[1..] {
                for _ in 0..DVH_WARMUP_PER_KIND {
                    op.apply(&mut m);
                }
            }
            m.world_mut().reset_stats();
            Prepared::Micro(w, Box::new(m))
        }
        Workload::DvhApps => Prepared::Apps(
            plan.cells
                .iter()
                .map(|c| {
                    let tag = if c.level == 2 { "l2_dvh" } else { "l3_dvh" };
                    let m = build(MachineConfig::dvh(c.level), tag, tr);
                    laps.lap();
                    m
                })
                .collect(),
        ),
        Workload::PaperSweep => {
            // Warm-up: one Table 3 on the workers starts the threads
            // and faults in the exit engine.
            harness::table3_with_workers(plan.workers);
            Prepared::Sweep
        }
        Workload::ObservedL3 => {
            let mut observed = || {
                let mut m = build(MachineConfig::baseline(3), "l3", tr);
                m.world_mut().enable_observability(TRACE_CAPACITY);
                // Statistics and trace must cover the same window for
                // the lints' conservation rules to be exact.
                m.world_mut().reset_stats();
                Box::new(m)
            };
            Prepared::Observed(observed(), observed())
        }
    };
    if laps.secs.is_empty() {
        laps.lap();
    }
    (prep, laps)
}

/// The Table 1 results of a micro pass.
pub struct MicroOut {
    /// `l3_micro` or `l3_dvh_micro`.
    pub workload: Workload,
    /// The machine after the pass.
    pub machine: Machine,
    /// Simulated cycles of each op, in plan order.
    pub cycles: Vec<u64>,
    /// Per op (traced passes only): exits and interventions it caused.
    pub per_op: Vec<(u64, u64)>,
}

/// The results of a `dvh_apps` pass, in plan order.
pub struct AppsOut {
    /// Each cell's machine after its run.
    pub machines: Vec<Machine>,
    /// Each cell's result.
    pub results: Vec<WorkloadResult>,
}

/// The results of a `paper_sweep` pass.
pub struct SweepOut {
    /// Each artifact's canonical text, in plan order.
    pub texts: Vec<(Artifact, String)>,
    /// Table 3, as measured.
    pub table3: Vec<Table3Row>,
    /// Pages the migration scenarios transferred.
    pub migration_pages: u64,
    /// Whether every migration scenario verified.
    pub migration_verified: bool,
    /// Whether migrating a passthrough VM was refused.
    pub passthrough_refused: bool,
    /// Application transactions the figures simulated.
    pub figure_txns: u64,
}

/// The results of an `observed_l3` pass.
pub struct ObservedOut {
    /// The machine after the run, trace and metrics still attached.
    pub machine: Machine,
    /// The machine of the small run the chrome lint certifies.
    pub small: Machine,
    /// The memcached result.
    pub result: WorkloadResult,
    /// Chrome trace export.
    pub chrome: String,
    /// Byte size of the JSONL export.
    pub jsonl_bytes: usize,
    /// Violations of the trace, metrics, chrome and causal lints.
    pub lints: [usize; 4],
    /// Allocations the five exports made (counted in traced runs).
    pub export_allocs: u64,
}

/// The timed part of a pass.
pub enum Outcome {
    /// `l3_micro`.
    Micro(Box<MicroOut>),
    /// `dvh_apps`.
    Apps(AppsOut),
    /// `paper_sweep`.
    Sweep(Box<SweepOut>),
    /// `observed_l3`.
    Observed(Box<ObservedOut>),
}

/// Host seconds of each unit of a pass's set-up or timed part, in
/// order. The units run one after another: chunks of 1/16 of a micro
/// workload's ops, `dvh_apps` machine builds and cells,
/// `paper_sweep` artifacts, and `observed_l3` stages (the run, each
/// export, each lint).
pub struct Laps {
    last: Instant,
    /// Seconds per unit.
    pub secs: Vec<f64>,
}

impl Laps {
    fn start() -> Laps {
        Laps {
            last: Instant::now(),
            secs: Vec::with_capacity(32),
        }
    }

    /// Ends the current unit.
    fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Runs the timed part of a pass on what [`prepare`] built.
pub fn run(plan: &Plan, prep: Prepared, tr: &mut Tracer) -> (Outcome, Laps) {
    let mut laps = Laps::start();
    let out = match prep {
        Prepared::Micro(w, m) => Outcome::Micro(Box::new(run_micro(plan, w, *m, tr, &mut laps))),
        Prepared::Apps(ms) => Outcome::Apps(run_apps(plan, ms, tr, &mut laps)),
        Prepared::Sweep => Outcome::Sweep(Box::new(run_sweep(plan, tr, &mut laps))),
        Prepared::Observed(m, small) => {
            Outcome::Observed(Box::new(run_observed(*m, *small, tr, &mut laps)))
        }
    };
    (out, laps)
}

fn run_micro(
    plan: &Plan,
    w: Workload,
    mut m: Machine,
    tr: &mut Tracer,
    laps: &mut Laps,
) -> MicroOut {
    let ops = plan.micro_ops(w);
    let span = if w == Workload::L3DvhMicro {
        "core.dvh_op"
    } else {
        "core.op"
    };
    let mut cycles = Vec::with_capacity(ops.len());
    let mut per_op = Vec::new();
    for chunk in ops.chunks(ops.len() / MICRO_UNITS) {
        if tr.is_on() {
            per_op.reserve(chunk.len());
            for &op in chunk {
                let (e0, i0) = exits_interventions(&m);
                tr.enter(span, op.name());
                cycles.push(op.apply(&mut m));
                tr.exit();
                let (e1, i1) = exits_interventions(&m);
                per_op.push((e1 - e0, i1 - i0));
            }
        } else {
            for &op in chunk {
                cycles.push(op.apply(&mut m));
            }
        }
        laps.lap();
    }
    MicroOut {
        workload: w,
        machine: m,
        cycles,
        per_op,
    }
}

fn exits_interventions(m: &Machine) -> (u64, u64) {
    let s = &m.world().stats;
    (s.total_exits(), s.total_interventions())
}

fn run_apps(plan: &Plan, mut machines: Vec<Machine>, tr: &mut Tracer, laps: &mut Laps) -> AppsOut {
    let results = plan
        .cells
        .iter()
        .zip(&mut machines)
        .map(|(c, m)| {
            let mix = c.app.mix();
            tr.enter("workloads.run_app", c.tag);
            let r = run_app(m, &mix, APP_TXNS);
            tr.exit();
            laps.lap();
            r
        })
        .collect();
    AppsOut { machines, results }
}

fn run_sweep(plan: &Plan, tr: &mut Tracer, laps: &mut Laps) -> SweepOut {
    let mut out = SweepOut {
        texts: Vec::new(),
        table3: Vec::new(),
        migration_pages: 0,
        migration_verified: false,
        passthrough_refused: false,
        figure_txns: 0,
    };
    for &a in &plan.artifacts {
        tr.enter("bench.artifact", a.name());
        let text = run_artifact(a, plan.workers, &mut out);
        tr.exit();
        laps.lap();
        out.texts.push((a, text));
    }
    out
}

/// Runs one artifact through the harness and returns its canonical
/// text, filling the structured fields of `out` it produces.
pub fn run_artifact(a: Artifact, workers: usize, out: &mut SweepOut) -> String {
    match a {
        Artifact::Table3 => {
            out.table3 = harness::table3_with_workers(workers);
            out.table3
                .iter()
                .map(|r| {
                    format!(
                        "{} {} {} {} {}\n",
                        r.config, r.hypercall, r.dev_notify, r.program_timer, r.send_ipi
                    )
                })
                .collect()
        }
        Artifact::Figure(n) => {
            let fig = harness::figure_with_workers(n, workers).expect("figures 7-10 are defined");
            out.figure_txns += (fig.rows.len() * fig.columns.len()) as u64 * APP_TXNS as u64;
            fig.to_csv()
        }
        Artifact::Migration => {
            let (rows, note) = harness::migration_experiment();
            let mut pt = Machine::build(MachineConfig::passthrough(2));
            out.passthrough_refused = matches!(
                migrate_nested_vm(pt.world_mut(), MigrationConfig::default(), |_| {}),
                Err(MigrationError::PassthroughNotMigratable)
            );
            out.migration_pages = rows.iter().map(|r| r.pages).sum();
            out.migration_verified = !rows.is_empty() && rows.iter().all(|r| r.verified);
            let mut text: String = rows
                .iter()
                .map(|r| {
                    format!(
                        "{} {:?} {:?} {} {}\n",
                        r.scenario, r.total_secs, r.downtime_ms, r.pages, r.verified
                    )
                })
                .collect();
            text.push_str(note);
            text
        }
        Artifact::Recursion => harness::recursion_experiment(RECURSION_LEVELS)
            .iter()
            .map(|r| format!("{} {} {} {}\n", r.levels, r.hypercall, r.timer, r.timer_dvh))
            .collect(),
    }
}

fn run_observed(
    mut m: Machine,
    mut small: Machine,
    tr: &mut Tracer,
    laps: &mut Laps,
) -> ObservedOut {
    let mix = AppId::Memcached.mix();
    tr.enter("workloads.run_app", "memcached.l3");
    let result = run_app(&mut m, &mix, OBSERVED_TXNS);
    tr.exit();
    laps.lap();
    let w = m.world_mut();
    w.export_device_metrics();
    let w = m.world();
    let events = w.trace_events();
    let (cpus, levels) = (w.num_cpus(), w.leaf_level());
    let reg = w.metrics().expect("observability is armed");

    let allocs = crate::alloc::allocations();
    tr.enter("obs.export", "chrome");
    let chrome = trace_export::chrome_json(events, cpus, levels);
    tr.exit();
    laps.lap();
    tr.enter("obs.export", "jsonl");
    let jsonl = trace_export::jsonl(events);
    tr.exit();
    laps.lap();
    tr.enter("obs.export", "folded");
    let folded = trace_export::causal_forest(events, cpus).folded();
    tr.exit();
    laps.lap();
    tr.enter("obs.export", "snapshot");
    let snapshot = dvh_obs::diff::snapshot_json(reg, "memcached@L3/base");
    tr.exit();
    laps.lap();
    tr.enter("obs.export", "prom");
    let prom = dvh_obs::prom::prometheus(reg);
    tr.exit();
    laps.lap();
    let export_allocs = crate::alloc::allocations() - allocs;

    tr.enter("checker.lint", "trace");
    let l_trace = lint_trace(events, &TraceContext::for_world(w)).len();
    tr.exit();
    laps.lap();
    tr.enter("checker.lint", "metrics");
    let l_metrics = lint_metrics(reg, &w.stats).len();
    tr.exit();
    laps.lap();
    tr.enter("checker.lint", "causal");
    let l_causal = lint_causal(events, cpus, w.trace_dropped(), &w.stats).len();
    tr.exit();
    laps.lap();

    tr.enter("workloads.run_app", "memcached.l3.small");
    run_app(&mut small, &mix, CHROME_LINT_TXNS);
    tr.exit();
    laps.lap();
    let sw = small.world();
    tr.enter("checker.lint", "chrome");
    let l_chrome = lint_chrome_export(sw.trace_events(), cpus, levels, &sw.stats).len();
    tr.exit();
    laps.lap();

    std::hint::black_box((&folded, &snapshot, &prom));
    ObservedOut {
        machine: m,
        small,
        result,
        chrome,
        jsonl_bytes: jsonl.len(),
        lints: [l_trace, l_metrics, l_chrome, l_causal],
        export_allocs,
    }
}

/// Verifies a pass's outputs against `expected.json` and the
/// workload's invariants, and returns the work it simulated.
pub fn verify(plan: &Plan, out: &Outcome, v: &mut Verifier) -> Work {
    match out {
        Outcome::Micro(o) => {
            let (name, ops) = (o.workload.name(), plan.micro_ops(o.workload));
            let stats = &o.machine.world().stats;
            let kinds: Vec<Op> = Op::ALL.into_iter().filter(|op| ops.contains(op)).collect();
            for &op in &kinds {
                let mut seen: Vec<u64> = ops
                    .iter()
                    .zip(&o.cycles)
                    .filter(|(p, _)| **p == op)
                    .map(|(_, c)| *c)
                    .collect();
                seen.sort_unstable();
                seen.dedup();
                v.expect(&format!("{name}.cycles.{}", op.name()), join(&seen));
                if !o.per_op.is_empty() {
                    let mut seen: Vec<(u64, u64)> = ops
                        .iter()
                        .zip(&o.per_op)
                        .filter(|(p, _)| **p == op)
                        .map(|(_, c)| *c)
                        .collect();
                    seen.sort_unstable();
                    seen.dedup();
                    let (e, i): (Vec<u64>, Vec<u64>) = seen.into_iter().unzip();
                    v.expect(&format!("{name}.exits.{}", op.name()), join(&e));
                    v.expect(&format!("{name}.interventions.{}", op.name()), join(&i));
                }
            }
            // The ledger's totals equal the sums of the committed
            // per-op counts.
            let got = (stats.total_exits(), stats.total_interventions());
            let want = kinds.iter().try_fold((0, 0), |(e, i), op| {
                let n = ops.iter().filter(|&p| p == op).count() as u64;
                let per = |what| v.expected_u64(&format!("{name}.{what}.{}", op.name()));
                Some((e + n * per("exits")?, i + n * per("interventions")?))
            });
            if !v.is_blessing() {
                v.check(want == Some(got), || {
                    format!("{name}: ledger (exits, interventions) {got:?}, per-op sums {want:?}")
                });
            }
            v.expect(&format!("{name}.digest"), stats_digest(stats));
            Work {
                txns: o.cycles.len() as u64,
                exits: stats.total_exits(),
            }
        }
        Outcome::Apps(o) => {
            let mut work = Work::default();
            for ((c, m), r) in plan.cells.iter().zip(&o.machines).zip(&o.results) {
                let stats = &m.world().stats;
                v.expect(
                    &format!("dvh_apps.{}", c.tag),
                    format!(
                        "{:?} {:?} {}",
                        r.overhead,
                        r.cycles_per_txn,
                        stats_digest(stats)
                    ),
                );
                work.txns += r.txns as u64;
                work.exits += stats.total_exits();
            }
            work
        }
        Outcome::Sweep(o) => {
            for (a, text) in &o.texts {
                v.expect(&format!("paper_sweep.{}", a.name()), fingerprint(text));
            }
            v.check(o.migration_verified, || {
                "paper_sweep: a migration row did not verify".into()
            });
            v.check(o.passthrough_refused, || {
                "paper_sweep: passthrough migration was not refused".into()
            });
            Work {
                txns: o.figure_txns,
                exits: 0,
            }
        }
        Outcome::Observed(o) => {
            let w = o.machine.world();
            for (lint, n) in ["trace", "metrics", "chrome", "causal"].iter().zip(o.lints) {
                v.check(n == 0, || {
                    format!("observed_l3: {lint} lint: {n} violation(s)")
                });
            }
            let dropped = w.trace_dropped();
            v.check(dropped == 0, || {
                format!("observed_l3: trace ring wrapped, {dropped} events dropped")
            });
            v.expect(
                "observed_l3.result",
                format!("{:?} {:?}", o.result.overhead, o.result.cycles_per_txn),
            );
            v.expect("observed_l3.digest", stats_digest(&w.stats));
            v.expect(
                "observed_l3.small_digest",
                stats_digest(&o.small.world().stats),
            );
            v.expect("observed_l3.trace_events", w.trace_events().len());
            v.expect("observed_l3.chrome_bytes", o.chrome.len());
            v.expect("observed_l3.jsonl_bytes", o.jsonl_bytes);
            Work {
                txns: o.result.txns as u64,
                exits: w.stats.total_exits(),
            }
        }
    }
}

fn join(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}
