//! Engine-level conservation checks on the Table 3 microbenchmark loop
//! at L3, the deepest and most exit-dense machine the evaluation uses.
//! Host cost is measured by `perfbench/`; these tests pin only the
//! simulated, deterministic side of that loop.

#[cfg(test)]
mod tests {
    use dvh_core::{Machine, MachineConfig};

    /// Runs `iters` rounds of the Table 3 loop on the L3 baseline with
    /// the dvh-obs registry recording, and returns the machine.
    fn metered_l3_loop(iters: u32) -> Machine {
        let mut m = Machine::build(MachineConfig::baseline(3));
        // Warm up the machine's lazily-grown ledgers, then measure from
        // a clean ledger so the totals cover exactly the loop below.
        for _ in 0..5 {
            m.hypercall(0);
            m.program_timer(0);
            m.device_notify(0);
        }
        m.world_mut().reset_stats();
        m.world_mut().enable_metrics();
        for _ in 0..iters {
            m.hypercall(0);
            m.program_timer(0);
            if m.vcpus() > 1 {
                m.send_ipi(0, 1);
            }
            m.device_notify(0);
        }
        m
    }

    #[test]
    fn metrics_leg_conserves_against_ledger() {
        let m = metered_l3_loop(20);
        let reg = m.world().metrics().expect("metrics were enabled");
        let p = dvh_obs::percentiles::exit_percentiles(reg)
            .into_iter()
            .find(|(level, _)| level.is_none())
            .map(|(_, p)| p)
            .expect("metrics leg derives exit-latency percentiles");
        assert!(p.p50 <= p.p99, "percentiles must be monotone");
        assert!(m.world().stats.total_exits() > 10_000);
        assert_eq!(
            reg.exit_cycle_totals(),
            m.world().stats.cycles_by_reason,
            "exit-cycle histogram totals must equal the attribution ledger"
        );
    }
}
