//! Command implementations for the `dvh` binary.

use crate::args::{CliConfig, Command, ProfileFormat, TraceFormat};
use crate::results::{to_csv, ResultFile};
use dvh_core::Machine;
use dvh_hypervisor::trace_export;
use dvh_migration::{migrate_nested_vm, MigrationConfig};
use dvh_obs::causal::render_multiplication;
use dvh_obs::percentiles::{exit_percentiles, render_percentiles};
use dvh_obs::profile::{exit_profile, render_profile};
use dvh_workloads::{run_app, run_micro, AppId};

/// Executes a parsed command, writing human or CSV output to `out`.
///
/// # Errors
///
/// Returns a message for I/O failures or unusable inputs (e.g. a
/// non-migratable configuration).
pub fn execute(cmd: Command, out: &mut dyn std::io::Write) -> Result<(), String> {
    let w = |out: &mut dyn std::io::Write, s: String| {
        out.write_all(s.as_bytes()).map_err(|e| e.to_string())
    };
    match cmd {
        Command::Help => w(out, crate::args::USAGE.to_string()),
        Command::Micro {
            level,
            config,
            iters,
            csv,
        } => {
            let mut m = Machine::build(config.machine_config(level));
            let r = run_micro(&mut m, iters);
            if csv {
                w(
                    out,
                    format!(
                        "benchmark,level,config,cycles\nhypercall,{level},{config},{}\n\
                         devnotify,{level},{config},{}\nprogramtimer,{level},{config},{}\n\
                         sendipi,{level},{config},{}\n",
                        r.hypercall, r.dev_notify, r.program_timer, r.send_ipi
                    ),
                )
            } else {
                w(
                    out,
                    format!(
                        "L{level} {config} microbenchmarks (cycles):\n\
                          Hypercall:    {:>9}\n  DevNotify:    {:>9}\n\
                          ProgramTimer: {:>9}\n  SendIPI:      {:>9}\n",
                        r.hypercall, r.dev_notify, r.program_timer, r.send_ipi
                    ),
                )
            }
        }
        Command::App {
            app,
            level,
            config,
            runs,
            txns,
            csv,
        } => {
            let mix = app.mix();
            // Artifact style: several independent runs, each a column.
            let samples: Vec<Vec<f64>> = (0..3)
                .map(|chunk| {
                    (0..runs)
                        .map(|_| {
                            let mut m = Machine::build(config.machine_config(level));
                            // Different chunks use different txn counts
                            // so per-run variation is visible (the
                            // simulator itself is deterministic).
                            run_app(&mut m, &mix, txns + chunk * 16).overhead
                        })
                        .collect()
                })
                .collect();
            if csv {
                w(out, to_csv(mix.name, &samples))
            } else {
                let flat = samples[0][0];
                w(
                    out,
                    format!(
                        "{} at L{level} ({config}): overhead {:.2}x vs native ({})\n",
                        mix.name,
                        flat,
                        app.native_baseline()
                    ),
                )
            }
        }
        Command::Apps {
            level,
            config,
            txns,
            csv,
        } => {
            if csv {
                w(out, "app,level,config,overhead\n".to_string())?;
            }
            for app in AppId::ALL {
                let mix = app.mix();
                let mut m = Machine::build(config.machine_config(level));
                let r = run_app(&mut m, &mix, txns);
                if csv {
                    w(
                        out,
                        format!("{},{level},{config},{:.4}\n", mix.name, r.overhead),
                    )?;
                } else {
                    w(out, format!("{:<16} {:>6.2}x\n", mix.name, r.overhead))?;
                }
            }
            Ok(())
        }
        Command::Migrate {
            config,
            with_hypervisor,
        } => {
            let mut m = Machine::build(config.machine_config(2));
            for i in 0..32u64 {
                m.world_mut().guest_write_memory(
                    0,
                    dvh_memory::Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN + i % 60),
                    &[i as u8; 128],
                );
            }
            let cfg = MigrationConfig {
                include_guest_hypervisor: with_hypervisor,
                ..MigrationConfig::default()
            };
            match migrate_nested_vm(m.world_mut(), cfg, |_| {}) {
                Ok(r) => w(
                    out,
                    format!(
                        "migrated: {} pages in {:.3} s, downtime {:.2} ms, verified: {}\n",
                        r.total_pages,
                        r.total_time.as_secs_f64(),
                        r.downtime.as_secs_f64() * 1e3,
                        r.verified
                    ),
                ),
                Err(e) => Err(format!("migration failed: {e}")),
            }
        }
        Command::Trace {
            op,
            app,
            txns,
            level,
            config,
            format,
        } => {
            let mut m = Machine::build(config.machine_config(level));
            m.world_mut().enable_tracing(1 << 20);
            match app {
                Some(app) => {
                    run_app(&mut m, &app.mix(), txns);
                }
                None => {
                    run_named_op(&mut m, &op)?;
                }
            }
            let events = m.world_mut().take_trace();
            match format {
                TraceFormat::Text => {
                    for e in &events {
                        w(out, format!("{e}\n"))?;
                    }
                    Ok(())
                }
                TraceFormat::Chrome => {
                    let world = m.world();
                    w(
                        out,
                        trace_export::chrome_json(&events, world.num_cpus(), world.leaf_level()),
                    )?;
                    w(out, "\n".to_string())
                }
                TraceFormat::Jsonl => w(out, trace_export::jsonl(&events)),
            }
        }
        Command::Profile {
            op,
            app,
            txns,
            level,
            config,
            top,
            snapshot,
            format,
        } => {
            let obs = observe_workload(&op, app, txns, level, config)?;
            match format {
                ProfileFormat::Folded => {
                    // Pure folded-stack lines, pipeable straight into a
                    // flamegraph renderer — no header, no footer.
                    let forest = trace_export::causal_forest(&obs.events, obs.num_cpus);
                    w(out, forest.folded())
                }
                ProfileFormat::Table => {
                    w(out, obs.header)?;
                    w(out, render_profile(&exit_profile(&obs.reg, top)))?;
                    let rows = exit_percentiles(&obs.reg);
                    if !rows.is_empty() {
                        w(out, "\noutermost-exit latency (cycles):\n".to_string())?;
                        w(out, render_percentiles(&rows))?;
                    }
                    let forest = trace_export::causal_forest(&obs.events, obs.num_cpus);
                    let factors = forest.multiplication_factors();
                    if !factors.is_empty() {
                        w(
                            out,
                            "\nexit multiplication (from the causal tree):\n".to_string(),
                        )?;
                        w(out, render_multiplication(&factors))?;
                    }
                    if snapshot {
                        w(out, "\n".to_string())?;
                        w(out, obs.reg.snapshot())?;
                    }
                    Ok(())
                }
            }
        }
        Command::ObsSnapshot {
            op,
            app,
            txns,
            level,
            config,
            out: out_path,
            prom,
        } => {
            let workload = match app {
                Some(a) => format!("{}@L{level}/{config}", a.mix().name),
                None => format!("{op}@L{level}/{config}"),
            };
            let obs = observe_workload(&op, app, txns, level, config)?;
            let text = if prom {
                dvh_obs::prom::prometheus(&obs.reg)
            } else {
                let mut s = dvh_obs::diff::snapshot_json(&obs.reg, &workload);
                s.push('\n');
                s
            };
            match out_path {
                Some(path) => {
                    std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
                    w(out, format!("wrote {path}\n"))
                }
                None => w(out, text),
            }
        }
        Command::ObsDiff {
            baseline,
            current,
            threshold,
            json,
        } => {
            let load = |path: &str| -> Result<dvh_obs::json::Value, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                dvh_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let base = load(&baseline)?;
            let cur = load(&current)?;
            let report = dvh_obs::diff::diff(&base, &cur, dvh_obs::diff::DiffConfig { threshold })?;
            if json {
                let mut s = report.to_json().to_json();
                s.push('\n');
                w(out, s)?;
            } else {
                w(out, report.to_text())?;
            }
            let regressed = report.regressions().len();
            if regressed == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{regressed} metric(s) regressed beyond {:.0}%",
                    threshold * 100.0
                ))
            }
        }
        Command::Explain { op, level, config } => {
            let mut m = Machine::build(config.machine_config(level));
            let cost = run_named_op(&mut m, &op)?;
            w(
                out,
                format!(
                    "{op} at L{level} ({config}): {cost}
{}",
                    dvh_core::analysis::explain(m.world())
                ),
            )
        }
        Command::Sweep { figure, workers } => {
            let workers = if workers == 0 {
                dvh_bench::parallel::available_workers()
            } else {
                workers
            };
            let fig = dvh_bench::harness::figure_with_workers(figure, workers)
                .expect("validated at parse time");
            w(out, fig.to_csv())
        }
        Command::Check { source_root } => {
            let root = source_root.map(std::path::PathBuf::from);
            let report = dvh_checker::harness::run_all(root.as_deref())
                .map_err(|e| format!("source lint failed: {e}"))?;
            w(out, report.to_string())?;
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!(
                    "{} invariant violation(s)",
                    report.violations.len()
                ))
            }
        }
        Command::Results { files } => {
            if files.is_empty() {
                return Err("results requires at least one file".into());
            }
            for path in files {
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let r = ResultFile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                let avgs: Vec<String> =
                    r.run_averages().iter().map(|a| format!("{a:.2}")).collect();
                w(
                    out,
                    format!(
                        "{}: {} runs, per-run averages [{}], best(max) {:.2}, best(min) {:.2}\n",
                        r.name,
                        r.runs(),
                        avgs.join(", "),
                        r.best(true),
                        r.best(false)
                    ),
                )?;
            }
            Ok(())
        }
    }
}

/// A workload run with the full observability stack armed: the trace
/// events, the metrics registry (device metrics exported), and a
/// one-line header describing what ran.
struct Observed {
    header: String,
    events: Vec<dvh_hypervisor::TraceEvent>,
    num_cpus: usize,
    reg: dvh_obs::MetricsRegistry,
}

/// Runs the profile/obs-snapshot workload (one named op, or a full
/// application benchmark) on a fresh machine with tracing and metrics
/// on. Observability never advances simulated time, so the reported
/// costs and overheads are identical to an unobserved run.
fn observe_workload(
    op: &str,
    app: Option<AppId>,
    txns: u32,
    level: usize,
    config: CliConfig,
) -> Result<Observed, String> {
    let mut m = Machine::build(config.machine_config(level));
    m.world_mut().enable_observability(1 << 20);
    let header = match app {
        Some(app) => {
            let overhead = run_app(&mut m, &app.mix(), txns).overhead;
            format!(
                "{} at L{level} ({config}): overhead {overhead:.2}x vs native\n",
                app.mix().name
            )
        }
        None => {
            let cost = run_named_op(&mut m, op)?;
            format!("{op} at L{level} ({config}): {cost}\n")
        }
    };
    m.world_mut().export_device_metrics();
    let events = m.world_mut().take_trace();
    let num_cpus = m.world().num_cpus();
    let reg = m.world_mut().take_metrics().unwrap_or_default();
    Ok(Observed {
        header,
        events,
        num_cpus,
        reg,
    })
}

fn run_named_op(m: &mut Machine, op: &str) -> Result<dvh_core::Cycles, String> {
    Ok(match op {
        "hypercall" => m.hypercall(0),
        "timer" => m.program_timer(0),
        "ipi" => m.send_ipi(0, 1),
        "devnotify" => m.device_notify(0),
        other => return Err(format!("unknown op '{other}'")),
    })
}

/// Convenience used by tests: execute and capture output.
pub fn execute_to_string(cmd: Command) -> Result<String, String> {
    let mut buf = Vec::new();
    execute(cmd, &mut buf)?;
    String::from_utf8(buf).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::CliConfig;

    #[test]
    fn check_command_is_clean_without_sources() {
        let out = execute_to_string(Command::Check { source_root: None }).unwrap();
        assert!(out.contains("all invariants hold"), "{out}");
        assert!(out.contains("fig7/nested-dvh"));
        assert!(!out.contains("source lint"));
    }

    #[test]
    fn check_command_runs_source_lint_on_repo() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let out = execute_to_string(Command::Check {
            source_root: Some(root.into()),
        })
        .unwrap();
        assert!(out.contains("source lint"), "{out}");
        assert!(out.contains("all invariants hold"), "{out}");
    }

    #[test]
    fn micro_command_produces_table() {
        let out = execute_to_string(Command::Micro {
            level: 1,
            config: CliConfig::Base,
            iters: 2,
            csv: false,
        })
        .unwrap();
        assert!(out.contains("Hypercall"));
        assert!(out.contains("L1 base"));
    }

    #[test]
    fn micro_csv_has_four_rows() {
        let out = execute_to_string(Command::Micro {
            level: 2,
            config: CliConfig::Dvh,
            iters: 1,
            csv: true,
        })
        .unwrap();
        assert_eq!(out.lines().count(), 5); // header + 4 benchmarks
        assert!(out.contains("programtimer,2,dvh,"));
    }

    #[test]
    fn app_csv_round_trips_through_results_parser() {
        let out = execute_to_string(Command::App {
            app: AppId::Hackbench,
            level: 2,
            config: CliConfig::Base,
            runs: 2,
            txns: 40,
            csv: true,
        })
        .unwrap();
        let parsed = ResultFile::parse(&out).unwrap();
        assert_eq!(parsed.name, "Hackbench");
        assert_eq!(parsed.runs(), 2);
        assert!(parsed.best(false) >= 1.0);
    }

    #[test]
    fn apps_lists_all_seven() {
        let out = execute_to_string(Command::Apps {
            level: 1,
            config: CliConfig::Base,
            txns: 40,
            csv: false,
        })
        .unwrap();
        assert_eq!(out.lines().count(), 7);
    }

    #[test]
    fn migrate_passthrough_fails_cleanly() {
        let err = execute_to_string(Command::Migrate {
            config: CliConfig::Passthrough,
            with_hypervisor: false,
        })
        .unwrap_err();
        assert!(err.contains("passthrough"));
    }

    #[test]
    fn migrate_dvh_succeeds() {
        let out = execute_to_string(Command::Migrate {
            config: CliConfig::Dvh,
            with_hypervisor: false,
        })
        .unwrap();
        assert!(out.contains("verified: true"));
    }

    #[test]
    fn results_requires_files() {
        assert!(execute_to_string(Command::Results { files: vec![] }).is_err());
    }

    #[test]
    fn explain_shows_attribution() {
        let out = execute_to_string(Command::Explain {
            op: "timer".into(),
            level: 2,
            config: CliConfig::Base,
        })
        .unwrap();
        assert!(out.contains("interventions"));
        assert!(out.contains("MsrWrite"));
    }

    fn trace_cmd(format: TraceFormat) -> Command {
        Command::Trace {
            op: "timer".into(),
            app: None,
            txns: 40,
            level: 2,
            config: CliConfig::Base,
            format,
        }
    }

    #[test]
    fn trace_lists_events() {
        let out = execute_to_string(trace_cmd(TraceFormat::Text)).unwrap();
        assert!(out.lines().count() > 10);
        assert!(out.contains("exit L2 MsrWrite"));
    }

    #[test]
    fn trace_chrome_round_trips_through_parser() {
        let out = execute_to_string(trace_cmd(TraceFormat::Chrome)).unwrap();
        let doc = dvh_obs::json::parse(out.trim_end()).expect("chrome export must parse");
        assert_eq!(doc.to_json(), out.trim_end());
        let spans = trace_export::chrome_outermost_totals(&doc);
        assert!(!spans.is_empty());
    }

    #[test]
    fn trace_jsonl_lines_parse() {
        let out = execute_to_string(trace_cmd(TraceFormat::Jsonl)).unwrap();
        assert!(out.lines().count() > 10);
        for line in out.lines() {
            dvh_obs::json::parse(line).expect("every jsonl line must parse");
        }
    }

    #[test]
    fn trace_app_runs_a_benchmark() {
        let out = execute_to_string(Command::Trace {
            op: "timer".into(),
            app: Some(AppId::NetperfRr),
            txns: 5,
            level: 2,
            config: CliConfig::Base,
            format: TraceFormat::Text,
        })
        .unwrap();
        assert!(out.lines().count() > 50);
    }

    #[test]
    fn profile_op_shows_attribution_table() {
        let out = execute_to_string(Command::Profile {
            op: "timer".into(),
            app: None,
            txns: 40,
            level: 2,
            config: CliConfig::Base,
            top: 10,
            snapshot: false,
            format: ProfileFormat::Table,
        })
        .unwrap();
        assert!(out.contains("timer at L2 (base)"), "{out}");
        assert!(out.contains("MsrWrite"), "{out}");
        assert!(out.contains("total"), "{out}");
        // The table now carries the derived views too: latency
        // percentiles and the emergent multiplication factors.
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("exit multiplication"), "{out}");
    }

    #[test]
    fn profile_folded_is_flamegraph_ready() {
        let out = execute_to_string(Command::Profile {
            op: "timer".into(),
            app: None,
            txns: 40,
            level: 2,
            config: CliConfig::Base,
            top: 10,
            snapshot: false,
            format: ProfileFormat::Folded,
        })
        .unwrap();
        assert!(!out.is_empty());
        for line in out.lines() {
            // Every line is `path cycles` with a numeric tail and a
            // root frame naming a level.
            let (path, cycles) = line.rsplit_once(' ').expect("folded line shape");
            assert!(cycles.parse::<u64>().is_ok(), "{line}");
            assert!(path.starts_with('L'), "{line}");
        }
        // Nested config: some stack has depth > 1.
        assert!(out.lines().any(|l| l.contains(';')), "{out}");
    }

    #[test]
    fn obs_snapshot_self_diff_is_clean() {
        let dir = std::env::temp_dir().join("dvh-obs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let snap_cmd = || Command::ObsSnapshot {
            op: "timer".into(),
            app: None,
            txns: 40,
            level: 2,
            config: CliConfig::Base,
            out: Some(path.to_string_lossy().into_owned()),
            prom: false,
        };
        execute_to_string(snap_cmd()).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        execute_to_string(snap_cmd()).unwrap();
        assert_eq!(
            first,
            std::fs::read_to_string(&path).unwrap(),
            "snapshots must be deterministic"
        );
        let out = execute_to_string(Command::ObsDiff {
            baseline: path.to_string_lossy().into_owned(),
            current: path.to_string_lossy().into_owned(),
            threshold: 0.25,
            json: false,
        })
        .unwrap();
        assert!(out.contains("0 regression(s)"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn obs_snapshot_prom_exports_histograms() {
        let out = execute_to_string(Command::ObsSnapshot {
            op: "timer".into(),
            app: None,
            txns: 40,
            level: 2,
            config: CliConfig::Base,
            out: None,
            prom: true,
        })
        .unwrap();
        assert!(out.contains("# TYPE dvh_exit_cycles histogram"), "{out}");
        assert!(out.contains("le=\"+Inf\""), "{out}");
    }

    #[test]
    fn obs_diff_flags_missing_file() {
        assert!(execute_to_string(Command::ObsDiff {
            baseline: "/nonexistent/base.json".into(),
            current: "/nonexistent/cur.json".into(),
            threshold: 0.25,
            json: false,
        })
        .is_err());
    }

    #[test]
    fn profile_app_with_snapshot_is_deterministic() {
        let run = || {
            execute_to_string(Command::Profile {
                op: "timer".into(),
                app: Some(AppId::NetperfRr),
                txns: 10,
                level: 2,
                config: CliConfig::Dvh,
                top: 5,
                snapshot: true,
                format: ProfileFormat::Table,
            })
            .unwrap()
        };
        let out = run();
        assert!(out.contains("Netperf RR at L2 (dvh)"), "{out}");
        assert!(out.contains("histogram"), "{out}");
        assert_eq!(out, run(), "profile output must be deterministic");
    }

    #[test]
    fn profile_rejects_unknown_op() {
        assert!(execute_to_string(Command::Profile {
            op: "frob".into(),
            app: None,
            txns: 40,
            level: 2,
            config: CliConfig::Base,
            top: 10,
            snapshot: false,
            format: ProfileFormat::Table,
        })
        .is_err());
    }

    #[test]
    fn explain_rejects_unknown_op() {
        assert!(execute_to_string(Command::Explain {
            op: "frob".into(),
            level: 2,
            config: CliConfig::Base,
        })
        .is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = execute_to_string(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }
}
