//! The traced run's per-layer metrics.
//!
//! One traced pass of every workload, plus short probes of the
//! primitives each crate exports, all timed by spans the benchmark
//! opens around its calls into the simulator. Every per-layer metric
//! is measured on the workload that exercises its layer (see the
//! README's layer map); the suite runs all five, so any traced run
//! reports every metric.

use crate::check::Verifier;
use crate::spans::{durations, total_ns, Span, Tracer};
use crate::workloads::{
    build, prepare, run, verify, Op, Outcome, Plan, Workload, APP_TXNS, OBSERVED_TXNS,
};
use dvh_arch::vmx::{field, ShadowFieldSet, Vmcs, SLOT_ENCODINGS};
use dvh_bench::harness::TABLE3_PAPER;
use dvh_core::{Machine, MachineConfig};
use dvh_devices::vhost::{dma_read_into, dma_write, Identity};
use dvh_devices::virtio::queue::Descriptor;
use dvh_devices::{Bdf, Iommu, VirtQueue};
use dvh_memory::ept::Ept;
use dvh_memory::sparse::SparseMemory;
use dvh_memory::{Gpa, Hpa, Perms, PAGE_SIZE};
use dvh_obs::metrics::names;
use dvh_obs::MetricsRegistry;
use dvh_workloads::{run_app, AppId};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-layer metrics by name: (value, unit).
pub type Layers = BTreeMap<String, (f64, &'static str)>;

fn put(l: &mut Layers, name: impl Into<String>, value: f64, unit: &'static str) {
    l.insert(name.into(), (value, unit));
}

/// The `q` quantile (nearest rank) of `ns`, in microseconds.
fn quantile_us(mut ns: Vec<u64>, q: f64) -> f64 {
    ns.sort_unstable();
    let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64 / 1e3
}

/// Runs one traced pass of `w` inside a `pass` span and verifies it.
/// Returns the pass's spans and outcome.
fn traced_pass<'t>(
    w: Workload,
    plan: &Plan,
    tr: &'t mut Tracer,
    v: &mut Verifier,
) -> (&'t [Span], Outcome, u64) {
    tr.next_iteration();
    let mark = tr.mark();
    tr.enter("pass", w.name());
    let (prep, _) = prepare(w, plan, tr);
    let a0 = crate::alloc::allocations();
    let (out, _) = run(plan, prep, tr);
    let allocs = crate::alloc::allocations() - a0;
    tr.exit();
    verify(plan, &out, v);
    (tr.since(mark), out, allocs)
}

/// The traced suite: every workload once, then the probes.
pub fn suite(plan: &Plan, tr: &mut Tracer, v: &mut Verifier) -> Layers {
    let mut l = Layers::new();
    micro(plan, tr, v, &mut l);
    dvh_micro(plan, tr, v, &mut l);
    apps(plan, tr, v, &mut l);
    sweep(plan, tr, v, &mut l);
    observed(plan, tr, v, &mut l);
    tr.next_iteration();
    probes(plan, tr, &mut l);
    l
}

fn micro(plan: &Plan, tr: &mut Tracer, v: &mut Verifier, l: &mut Layers) {
    let (spans, out, allocs) = traced_pass(Workload::L3Micro, plan, tr, v);
    let Outcome::Micro(o) = out else {
        unreachable!("l3_micro yields a micro outcome")
    };
    let mut op_ns = 0;
    for op in Op::ALL {
        let ns = durations(spans, "core.op", op.name());
        op_ns += ns.iter().sum::<u64>();
        put(
            l,
            format!("core.op_us.{}.p50", op.name()),
            quantile_us(ns.clone(), 0.5),
            "us",
        );
        put(
            l,
            format!("core.op_us.{}.p99", op.name()),
            quantile_us(ns, 0.99),
            "us",
        );
        let (e, i) = plan
            .ops
            .iter()
            .zip(&o.per_op)
            .find(|(p, _)| **p == op)
            .map(|(_, c)| *c)
            .expect("every op kind runs");
        put(
            l,
            format!("hypervisor.exits_per_op.{}", op.name()),
            e as f64,
            "count",
        );
        put(
            l,
            format!("hypervisor.interventions_per_op.{}", op.name()),
            i as f64,
            "count",
        );
    }
    let exits = o.machine.world().stats.total_exits() as f64;
    put(l, "hypervisor.ns_per_exit", op_ns as f64 / exits, "ns");
    put(l, "alloc.per_exit", allocs as f64 / exits, "count");
}

fn dvh_micro(plan: &Plan, tr: &mut Tracer, v: &mut Verifier, l: &mut Layers) {
    let (spans, _, _) = traced_pass(Workload::L3DvhMicro, plan, tr, v);
    for op in [Op::ProgramTimer, Op::SendIpi, Op::DeviceNotify] {
        let ns = durations(spans, "core.dvh_op", op.name());
        put(
            l,
            format!("core.dvh_op_us.{}.p50", op.name()),
            quantile_us(ns, 0.5),
            "us",
        );
    }
}

fn apps(plan: &Plan, tr: &mut Tracer, v: &mut Verifier, l: &mut Layers) {
    let (spans, out, allocs) = traced_pass(Workload::DvhApps, plan, tr, v);
    let Outcome::Apps(mut o) = out else {
        unreachable!("dvh_apps yields an apps outcome")
    };
    for c in &plan.cells {
        let ns = total_ns(spans, "workloads.run_app", c.tag);
        put(
            l,
            format!("workloads.txn_us.{}", c.tag),
            ns as f64 / 1e3 / APP_TXNS as f64,
            "us",
        );
    }
    let (mut l3_intercepts, mut txns) = (0, 0);
    let mut devices = [0u64; 4];
    for (c, m) in plan.cells.iter().zip(&mut o.machines) {
        txns += APP_TXNS as u64;
        if c.level == 3 {
            let stats = &m.world().stats;
            l3_intercepts += stats.total_dvh_intercepts();
            let per_txn = stats.total_exits() as f64 / APP_TXNS as f64;
            put(
                l,
                format!("workloads.exits_per_txn.{}", c.app.cli_name()),
                per_txn,
                "count",
            );
        }
        // Device exports are absolute lifetime counters, so arming the
        // registry after the run still captures the whole run without
        // touching the timed part.
        let w = m.world_mut();
        w.enable_metrics();
        w.export_device_metrics();
        let reg = w.take_metrics().expect("metrics were enabled");
        for (i, name) in [
            names::VHOST_TX_BYTES,
            names::VHOST_RX_BYTES,
            names::VIRTQUEUE_KICKS,
            names::VIRTQUEUE_INTERRUPTS,
        ]
        .into_iter()
        .enumerate()
        {
            devices[i] += counter_sum(&reg, name);
        }
    }
    let l3_txns = (AppId::ALL.len() as u32 * APP_TXNS) as f64;
    put(
        l,
        "core.dvh_intercepts_per_txn",
        l3_intercepts as f64 / l3_txns,
        "count",
    );
    let per = |n: u64| n as f64 / txns as f64;
    put(l, "devices.tx_bytes_per_txn", per(devices[0]), "B");
    put(l, "devices.rx_bytes_per_txn", per(devices[1]), "B");
    put(l, "devices.kicks_per_txn", per(devices[2]), "count");
    put(l, "devices.irqs_per_txn", per(devices[3]), "count");
    put(l, "alloc.per_txn", per(allocs), "count");
}

fn counter_sum(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.counters()
        .filter(|(k, _)| k.name == name)
        .map(|(_, n)| n)
        .sum()
}

fn sweep(plan: &Plan, tr: &mut Tracer, v: &mut Verifier, l: &mut Layers) {
    // Each artifact serially, for its own time; then the sweep on the
    // plan's workers, for the parallel efficiency. Both verify against
    // the same (serial) expectations.
    let serial = Plan {
        workers: 1,
        ..plan.clone()
    };
    let (spans, out, _) = traced_pass(Workload::PaperSweep, &serial, tr, v);
    let Outcome::Sweep(o) = out else {
        unreachable!("paper_sweep yields a sweep outcome")
    };
    let mut serial_s = 0.0;
    let mut migration_ns = 0;
    for &a in &plan.artifacts {
        let ns = total_ns(spans, "bench.artifact", a.name());
        serial_s += ns as f64 / 1e9;
        if a.name() == "migration" {
            migration_ns = ns;
        }
        put(
            l,
            format!("bench.artifact_s.{}", a.name()),
            ns as f64 / 1e9,
            "s",
        );
    }
    put(
        l,
        "migration.experiment_ms",
        migration_ns as f64 / 1e6,
        "ms",
    );
    put(l, "migration.pages", o.migration_pages as f64, "count");
    put(
        l,
        "migration.ns_per_page",
        migration_ns as f64 / o.migration_pages as f64,
        "ns",
    );
    let err = o
        .table3
        .iter()
        .zip(TABLE3_PAPER.iter())
        .flat_map(|(m, p)| {
            [
                (m.hypercall, p.hypercall),
                (m.dev_notify, p.dev_notify),
                (m.program_timer, p.program_timer),
                (m.send_ipi, p.send_ipi),
            ]
        })
        .map(|(m, p)| (m as f64 - p as f64).abs() / p as f64)
        .fold(0.0, f64::max);
    put(l, "accuracy.table3_max_rel_err", err, "ratio");

    let (spans, _, _) = traced_pass(Workload::PaperSweep, plan, tr, v);
    let wall_s = total_ns(spans, "pass", Workload::PaperSweep.name()) as f64 / 1e9;
    put(
        l,
        "bench.parallel_efficiency",
        serial_s / (wall_s * plan.workers as f64),
        "ratio",
    );
}

fn observed(plan: &Plan, tr: &mut Tracer, v: &mut Verifier, l: &mut Layers) {
    // The same memcached run with observability off: the difference is
    // what recording costs.
    let mut bare = build(MachineConfig::baseline(3), "l3", tr);
    let mix = AppId::Memcached.mix();
    tr.enter("workloads.run_app", "memcached.l3.unobserved");
    run_app(&mut bare, &mix, OBSERVED_TXNS);
    tr.exit();
    let bare_ns = tr.since(tr.mark() - 1)[0].dur_ns();

    let (spans, out, _) = traced_pass(Workload::ObservedL3, plan, tr, v);
    let Outcome::Observed(o) = out else {
        unreachable!("observed_l3 yields an observed outcome")
    };
    let events = o.machine.world().trace_events().len() as f64;
    let recorded_ns = total_ns(spans, "workloads.run_app", "memcached.l3");
    put(
        l,
        "obs.record_ns_per_event",
        (recorded_ns as f64 - bare_ns as f64) / events,
        "ns",
    );
    let mut export_ns = 0;
    for fmt in ["chrome", "jsonl", "folded", "snapshot", "prom"] {
        let ns = total_ns(spans, "obs.export", fmt);
        export_ns += ns;
        match fmt {
            "snapshot" | "prom" => put(l, format!("obs.{fmt}_ms"), ns as f64 / 1e6, "ms"),
            _ => put(
                l,
                format!("obs.{fmt}_ns_per_event"),
                ns as f64 / events,
                "ns",
            ),
        }
    }
    put(l, "obs.export_s", export_ns as f64 / 1e9, "s");
    put(l, "obs.trace_events", events, "count");
    put(l, "obs.chrome_bytes", o.chrome.len() as f64, "B");
    put(l, "obs.jsonl_bytes", o.jsonl_bytes as f64, "B");
    put(
        l,
        "alloc.per_event",
        o.export_allocs as f64 / events,
        "count",
    );
    for lint in ["trace", "metrics", "chrome", "causal"] {
        let ns = total_ns(spans, "checker.lint", lint);
        put(l, format!("checker.lint_{lint}_ms"), ns as f64 / 1e6, "ms");
    }
}

/// Times `calls` calls of `f` in one span and returns ns per call.
fn per_call_ns(
    tr: &mut Tracer,
    name: &'static str,
    tag: &'static str,
    calls: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    tr.enter(name, tag);
    for i in 0..calls {
        f(i);
    }
    tr.exit();
    let span = tr.since(tr.mark() - 1)[0];
    span.dur_ns() as f64 / calls as f64
}

fn probes(plan: &Plan, tr: &mut Tracer, l: &mut Layers) {
    const CALLS: usize = 200_000;
    let mut rng = crate::rng::Rng::new(plan.ops.len() as u64);

    // arch: the fields KVM shadows, read and written directly.
    let shadow = ShadowFieldSet::kvm_default();
    let reads: Vec<u32> = SLOT_ENCODINGS
        .iter()
        .copied()
        .filter(|&f| shadow.covers_read(f))
        .collect();
    let writes: Vec<u32> = SLOT_ENCODINGS
        .iter()
        .copied()
        .filter(|&f| shadow.covers_write(f))
        .collect();
    let mut vmcs = Vmcs::new();
    for (i, &f) in reads.iter().chain(&writes).enumerate() {
        vmcs.write(f, i as u64 + 1);
    }
    let ns = per_call_ns(tr, "arch.vmcs_read", "kvm_default", CALLS, |i| {
        black_box(vmcs.read(black_box(reads[i % reads.len()])));
    });
    put(l, "arch.vmcs_read_ns", ns, "ns");
    let ns = per_call_ns(tr, "arch.vmcs_write", "kvm_default", CALLS, |i| {
        vmcs.write(black_box(writes[i % writes.len()]), black_box(i as u64));
    });
    black_box(&vmcs);
    put(l, "arch.vmcs_write_ns", ns, "ns");

    // memory: EPT classification of random RAM pages, and 4 KiB copies.
    const PAGES: u64 = 4096;
    let mut ept = Ept::new();
    ept.map_ram(Gpa::new(0), Hpa::from_pfn(0x10_0000), PAGES);
    let gpas: Vec<Gpa> = (0..PAGES)
        .map(|_| Gpa::from_pfn(rng.next_u64() % PAGES))
        .collect();
    let ns = per_call_ns(tr, "memory.ept_access", "ram", CALLS, |i| {
        black_box(ept.access(gpas[i % gpas.len()], Perms::RW));
    });
    put(l, "memory.ept_access_ns", ns, "ns");
    let page = vec![0xA5u8; PAGE_SIZE as usize];
    let mut mem = SparseMemory::new();
    const COPIES: usize = 20_000;
    let ns = per_call_ns(tr, "memory.write_page", "4KiB", COPIES, |i| {
        mem.write_page(i as u64 % 256, black_box(&page));
    });
    put(l, "memory.page_write_ns", ns, "ns");
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    let ns = per_call_ns(tr, "memory.read_into", "4KiB", COPIES, |i| {
        mem.read_into(Gpa::from_pfn(i as u64 % 256), &mut buf);
        black_box(&buf);
    });
    put(l, "memory.page_read_ns", ns, "ns");

    // devices: a one-descriptor virtqueue round trip, vhost DMA of
    // 64 KiB through the identity translation, IOMMU translation.
    let mut q = VirtQueue::new(256);
    let ns = per_call_ns(tr, "devices.virtq_roundtrip", "1x1500B", CALLS, |i| {
        let desc = Descriptor {
            addr: Gpa::from_pfn(0x100 + i as u64 % 64),
            len: 1500,
            device_writes: false,
        };
        let head = q.add_chain(vec![desc]).expect("queue drains every round");
        let chain = q.pop_avail().expect("chain was just added");
        q.push_used(chain.head, 0);
        let used = q.pop_used().expect("chain was just completed");
        debug_assert_eq!(used.head, head);
        black_box(used);
    });
    put(l, "devices.virtq_roundtrip_ns", ns, "ns");
    const DMA_KIB: usize = 64;
    const DMAS: usize = 2_000;
    let payload = vec![0x5Au8; DMA_KIB * 1024];
    let mut dma_mem = SparseMemory::new();
    dma_mem.write(Gpa::from_pfn(0x100), &payload);
    let mut dma_buf = vec![0u8; DMA_KIB * 1024];
    let ns = per_call_ns(tr, "devices.dma_read_into", "64KiB", DMAS, |_| {
        dma_read_into(&dma_mem, &mut Identity, Gpa::from_pfn(0x100), &mut dma_buf)
            .expect("identity translation never faults");
        black_box(&dma_buf);
    });
    put(
        l,
        "devices.dma_read_ns_per_kib",
        ns / DMA_KIB as f64,
        "ns/KiB",
    );
    let ns = per_call_ns(tr, "devices.dma_write", "64KiB", DMAS, |_| {
        dma_write(
            &mut dma_mem,
            &mut Identity,
            Gpa::from_pfn(0x100),
            black_box(&payload),
            None,
        )
        .expect("identity translation never faults");
    });
    put(
        l,
        "devices.dma_write_ns_per_kib",
        ns / DMA_KIB as f64,
        "ns/KiB",
    );
    let bdf = Bdf::new(0, 3, 0);
    let mut iommu = Iommu::new();
    iommu.attach(bdf);
    iommu.map(bdf, 0, 0x1000, 512, Perms::RW);
    let iovas: Vec<u64> = (0..512).map(|_| rng.next_u64() % 512).collect();
    let ns = per_call_ns(tr, "devices.iommu_translate", "mapped", CALLS, |i| {
        black_box(iommu.translate(bdf, iovas[i % iovas.len()], Perms::RO))
            .expect("every probed page is mapped");
    });
    put(l, "devices.iommu_translate_ns", ns, "ns");

    // hypervisor: a guest hypervisor's vmread, shadowed at L1 and
    // reflected to L1 from L2.
    let mut m = Machine::build(MachineConfig::baseline(3));
    let w = m.world_mut();
    let ns = per_call_ns(tr, "hypervisor.hv_vmread", "L1", CALLS, |_| {
        black_box(w.hv_vmread(1, 0, field::GUEST_RIP));
    });
    put(l, "hypervisor.vmread_ns.L1", ns, "ns");
    let ns = per_call_ns(tr, "hypervisor.hv_vmread", "L2", CALLS / 20, |_| {
        black_box(w.hv_vmread(2, 0, field::GUEST_RIP));
    });
    put(l, "hypervisor.vmread_ns.L2", ns, "ns");

    // core: machine builds.
    const BUILDS: usize = 40;
    for (cfg, tag) in [
        (MachineConfig::baseline(3), "l3"),
        (MachineConfig::dvh(3), "l3_dvh"),
    ] {
        let mark = tr.mark();
        for _ in 0..BUILDS {
            black_box(build(cfg.clone(), tag, tr));
        }
        let ns = durations(tr.since(mark), "core.build", tag);
        put(
            l,
            format!("core.build_us.{tag}"),
            quantile_us(ns, 0.5),
            "us",
        );
    }
}
