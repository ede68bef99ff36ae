//! The §3.5 recursion experiment (extension beyond the paper's L3):
//! vanilla exit multiplication keeps compounding with depth, while
//! recursive DVH stays flat. Real KVM cannot run more than three
//! levels; the simulator can.

use dvh_bench::harness::recursion_experiment;

fn main() {
    println!("Exit multiplication vs recursive DVH (cycles)");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>10}",
        "levels", "Hypercall", "ProgramTimer", "Timer+DVH", "growth"
    );
    let rows = recursion_experiment(8);
    let mut prev = None;
    for r in &rows {
        let growth = prev
            .map(|p: u64| format!("{:.1}x", r.hypercall as f64 / p as f64))
            .unwrap_or_else(|| "-".into());
        println!(
            "L{:<7} {:>14} {:>14} {:>14} {:>10}",
            r.levels, r.hypercall, r.timer, r.timer_dvh, growth
        );
        prev = Some(r.hypercall);
    }
}
