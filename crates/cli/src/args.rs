//! Argument parsing for the `dvh` binary (dependency-free, artifact
//! style: small fixed vocabulary).
//!
//! [`USAGE`] is the grammar. Each `dvh ...` entry declares its
//! subcommand's flags: `[--flag]` is a switch, `--flag X` or
//! `[--flag X]` takes a value, and `<...>` admits positionals. [`parse`]
//! rejects an unknown flag, a stray positional, a missing value and a
//! repeated flag, so the help text and the parser cannot drift apart.

use dvh_core::MachineConfig;
use dvh_workloads::AppId;
use std::fmt;
use std::ops::RangeBounds;
use std::str::FromStr;

/// The VM configuration vocabulary of the paper's artifact
/// (`run-vm.py`'s second option): `base`, `passthrough`, `dvh-vp`,
/// `dvh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliConfig {
    /// Paravirtual I/O ("base" in the artifact).
    Base,
    /// Physical device passthrough.
    Passthrough,
    /// DVH virtual-passthrough only.
    DvhVp,
    /// Full DVH.
    Dvh,
}

impl CliConfig {
    /// The artifact vocabulary, default first; `pt` is shorthand for
    /// `passthrough`.
    const NAMES: &'static [(&'static str, CliConfig)] = &[
        ("base", CliConfig::Base),
        ("passthrough", CliConfig::Passthrough),
        ("pt", CliConfig::Passthrough),
        ("dvh-vp", CliConfig::DvhVp),
        ("dvh", CliConfig::Dvh),
    ];

    /// Parses the artifact vocabulary.
    pub fn parse(s: &str) -> Result<CliConfig, ParseError> {
        pick("config", s, Self::NAMES)
    }

    /// Builds the machine configuration at `level`.
    pub fn machine_config(self, level: usize) -> MachineConfig {
        match self {
            CliConfig::Base => MachineConfig::baseline(level),
            CliConfig::Passthrough => MachineConfig::passthrough(level),
            CliConfig::DvhVp => MachineConfig::dvh_vp(level),
            CliConfig::Dvh => MachineConfig::dvh(level),
        }
    }
}

impl fmt::Display for CliConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, _) = Self::NAMES
            .iter()
            .find(|(_, c)| c == self)
            .expect("every config is named");
        f.write_str(name)
    }
}

/// Output format for `dvh trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One human-readable line per event (the default).
    Text,
    /// A Chrome trace-event JSON document (load in `about:tracing`
    /// or Perfetto; one process per simulated CPU, one thread track
    /// per virtualization level).
    Chrome,
    /// One JSON object per line.
    Jsonl,
}

/// Output format for `dvh profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFormat {
    /// The top-N attribution table plus latency percentiles (the
    /// default).
    Table,
    /// Folded-stack flamegraph lines rebuilt from the causal tree of
    /// every outermost exit (`flamegraph.pl`-compatible).
    Folded,
}

/// What `trace`, `profile` and `obs snapshot` run: one named
/// operation, or a full application benchmark when `app` is given.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Operation: hypercall|timer|ipi|devnotify (ignored when `app` is
    /// given).
    pub op: String,
    /// Run a full application benchmark instead of one operation.
    pub app: Option<AppId>,
    /// Transactions when running an application.
    pub txns: u32,
    /// Virtualization level.
    pub level: usize,
    /// VM configuration.
    pub config: CliConfig,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the Table 1 microbenchmarks.
    Micro {
        /// Virtualization level (1..).
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Iterations to average.
        iters: u32,
        /// Emit CSV instead of a table.
        csv: bool,
    },
    /// Run one application benchmark.
    App {
        /// Which application.
        app: AppId,
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Independent runs (artifact style: take the best average).
        runs: u32,
        /// Transactions per run.
        txns: u32,
        /// Emit CSV.
        csv: bool,
    },
    /// Run all seven application benchmarks.
    Apps {
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Transactions per benchmark.
        txns: u32,
        /// Emit CSV.
        csv: bool,
    },
    /// Run the migration experiment.
    Migrate {
        /// VM configuration.
        config: CliConfig,
        /// Migrate the guest hypervisor along with the nested VM.
        with_hypervisor: bool,
    },
    /// Aggregate CSV result files (like the artifact's `results.py`).
    Results {
        /// Files to aggregate.
        files: Vec<String>,
    },
    /// Explain where one operation's cycles go (cost attribution).
    Explain {
        /// Operation: hypercall|timer|ipi|devnotify.
        op: String,
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
    },
    /// Regenerate a paper figure as CSV (7, 8, 9, or 10).
    Sweep {
        /// Figure number.
        figure: u32,
        /// Worker threads (0 = one per host core). The CSV is
        /// byte-identical at any worker count.
        workers: usize,
    },
    /// Dump the full event trace of one operation or application run.
    Trace {
        /// What to run.
        target: Target,
        /// Output format.
        format: TraceFormat,
    },
    /// Profile cycle attribution: top-N (level, reason) rows from the
    /// dvh-obs metrics registry.
    Profile {
        /// What to run.
        target: Target,
        /// Rows to show.
        top: usize,
        /// Also dump the deterministic full-registry snapshot.
        snapshot: bool,
        /// Output format.
        format: ProfileFormat,
    },
    /// Write (or print) an observability snapshot document for
    /// later differential analysis.
    ObsSnapshot {
        /// What to run.
        target: Target,
        /// Where to write the JSON (`None` = stdout).
        out: Option<String>,
        /// Emit Prometheus text exposition format instead of the
        /// snapshot JSON.
        prom: bool,
    },
    /// Compare two observability snapshots with per-metric relative
    /// thresholds.
    ObsDiff {
        /// Baseline snapshot path.
        baseline: String,
        /// Current snapshot path.
        current: String,
        /// Regression threshold as a fraction (0.25 = 25%).
        threshold: f64,
        /// Emit the JSON report instead of text.
        json: bool,
    },
    /// Run the dvh-checker invariant passes.
    Check {
        /// Repo root for the source-lint pass; `None` skips it.
        source_root: Option<String>,
    },
    /// Print usage.
    Help,
}

/// A command-line parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// Looks `s` up in a vocabulary table.
fn pick<T: Copy>(what: &str, s: &str, table: &[(&str, T)]) -> Result<T, ParseError> {
    let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
    let i = names.iter().position(|name| *name == s).ok_or_else(|| {
        ParseError(format!(
            "unknown {what} '{s}' (expected {})",
            names.join("|")
        ))
    })?;
    Ok(table[i].1)
}

/// One subcommand's arguments, checked against its [`USAGE`] entry.
struct Args<'a> {
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(&'a str, Option<&'a str>)>,
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Checks `argv` against the flags and positionals `entry`
    /// declares.
    fn scan(cmd: &str, entry: &str, argv: &'a [String]) -> Result<Args<'a>, ParseError> {
        let words: Vec<&str> = entry.split_whitespace().collect();
        // Some(takes a value) for a declared flag.
        let declared = |flag: &str| {
            words.iter().enumerate().find_map(|(i, w)| {
                let w = w.trim_start_matches('[');
                let name = w.trim_end_matches(']');
                (name == flag).then(|| {
                    name.len() == w.len()
                        && words
                            .get(i + 1)
                            .is_some_and(|next| !next.starts_with(['[', '-', '|']))
                })
            })
        };
        let mut args = Args {
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut rest = argv.iter().map(String::as_str).peekable();
        while let Some(a) = rest.next() {
            if !a.starts_with('-') {
                if !entry.contains('<') {
                    return Err(ParseError(format!("unexpected argument '{a}' for {cmd}")));
                }
                args.positionals.push(a);
                continue;
            }
            let takes_value =
                declared(a).ok_or_else(|| ParseError(format!("unknown flag '{a}' for {cmd}")))?;
            if args.has(a) {
                return Err(ParseError(format!("{a} given twice")));
            }
            let value = match rest.peek() {
                _ if !takes_value => None,
                Some(v) if !v.starts_with("--") => rest.next(),
                _ => return Err(ParseError(format!("{a} expects a value"))),
            };
            args.flags.push((a, value));
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == flag)?.1
    }

    /// A number parsed at `T`'s width, `default` when absent.
    fn num<T, R>(&self, flag: &str, default: T, range: R) -> Result<T, ParseError>
    where
        T: FromStr + PartialOrd,
        T::Err: fmt::Display,
        R: RangeBounds<T> + fmt::Debug,
    {
        let Some(v) = self.value(flag) else {
            return Ok(default);
        };
        let n: T = v
            .parse()
            .map_err(|e| ParseError(format!("{flag} '{v}': {e}")))?;
        if !range.contains(&n) {
            return Err(ParseError(format!(
                "{flag} must be in {range:?}, got '{v}'"
            )));
        }
        Ok(n)
    }

    /// A word from `table`; its first word is the default.
    fn pick<T: Copy>(&self, flag: &str, table: &[(&str, T)]) -> Result<T, ParseError> {
        self.value(flag).map_or(Ok(table[0].1), |s| {
            pick(flag.trim_start_matches('-'), s, table)
        })
    }

    /// An application name, `None` when absent.
    fn app(&self, flag: &str) -> Result<Option<AppId>, ParseError> {
        let names = AppId::ALL.map(AppId::cli_name).join("|");
        let parse = |s: &str| {
            AppId::parse(s)
                .ok_or_else(|| ParseError(format!("unknown app '{s}' (expected {names})")))
        };
        self.value(flag).map(parse).transpose()
    }

    fn config(&self) -> Result<CliConfig, ParseError> {
        self.pick("--config", CliConfig::NAMES)
    }

    fn target(&self) -> Result<Target, ParseError> {
        Ok(Target {
            op: self.value("--op").unwrap_or("timer").to_string(),
            app: self.app("--app")?,
            txns: self.num("--txns", 40, 1..)?,
            level: self.num("--level", 2, 1..)?,
            config: self.config()?,
        })
    }
}

/// The `dvh ...` entries of [`USAGE`], each with its continuation
/// lines and without the leading `dvh`.
fn entries() -> impl Iterator<Item = &'static str> {
    USAGE.split("\n  dvh ").skip(1).map(str::trim_end)
}

/// The subcommand words an entry starts with (`micro`, `obs diff`).
fn path(entry: &str) -> impl Iterator<Item = &str> {
    entry
        .split_whitespace()
        .take_while(|w| !w.starts_with(['[', '-', '<']))
}

/// Finds the entry whose subcommand words begin `argv`; returns it
/// with the number of words it consumed.
fn lookup(argv: &[String]) -> Result<(&'static str, usize), ParseError> {
    for entry in entries() {
        let n = path(entry).count();
        if argv.len() >= n && path(entry).zip(argv).all(|(w, a)| w == a) {
            return Ok((entry, n));
        }
    }
    let first = argv.first().map_or("", String::as_str);
    let subs: Vec<&str> = entries()
        .filter(|e| path(e).next() == Some(first))
        .filter_map(|e| path(e).nth(1))
        .collect();
    Err(ParseError(match subs.is_empty() {
        true => format!("unknown command '{first}'"),
        false => format!(
            "unknown command '{}' (expected {first} {})",
            argv[..argv.len().min(2)].join(" "),
            subs.join("|")
        ),
    }))
}

/// The usage of `argv`'s subcommand: its [`USAGE`] entry, every entry
/// sharing its first word when it names no single one, or all of
/// [`USAGE`] when it names no subcommand at all.
pub fn usage_of(argv: &[String]) -> String {
    let first = argv.first().map(String::as_str);
    let lines: String = match lookup(argv) {
        Ok((entry, _)) => format!("  dvh {entry}\n"),
        Err(_) => entries()
            .filter(|e| path(e).next() == first)
            .map(|e| format!("  dvh {e}\n"))
            .collect(),
    };
    match lines.is_empty() {
        true => USAGE.to_string(),
        false => format!("USAGE:\n{lines}"),
    }
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] for unknown subcommands, flags, or values.
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        return Ok(Command::Help);
    }
    let (entry, n) = lookup(argv)?;
    let cmd = argv[..n].join(" ");
    let a = Args::scan(&cmd, entry, &argv[n..])?;
    Ok(match cmd.as_str() {
        "micro" => Command::Micro {
            level: a.num("--level", 2, 1..)?,
            config: a.config()?,
            iters: a.num("--iters", 10, 1..)?,
            csv: a.has("--csv"),
        },
        "app" => Command::App {
            app: a
                .app("--name")?
                .ok_or_else(|| ParseError("app requires --name <benchmark>".into()))?,
            level: a.num("--level", 2, 1..)?,
            config: a.config()?,
            runs: a.num("--runs", 3, 1..)?,
            txns: a.num("--txns", 400, 1..)?,
            csv: a.has("--csv"),
        },
        "apps" => Command::Apps {
            level: a.num("--level", 2, 1..)?,
            config: a.config()?,
            txns: a.num("--txns", 400, 1..)?,
            csv: a.has("--csv"),
        },
        "migrate" => Command::Migrate {
            config: a.config()?,
            with_hypervisor: a.has("--with-hypervisor"),
        },
        "results" => Command::Results {
            files: a.positionals.iter().map(|f| f.to_string()).collect(),
        },
        "explain" => Command::Explain {
            op: a.value("--op").unwrap_or("timer").to_string(),
            level: a.num("--level", 2, 1..)?,
            config: a.config()?,
        },
        "sweep" => Command::Sweep {
            figure: a.pick("--figure", &[("7", 7), ("8", 8), ("9", 9), ("10", 10)])?,
            workers: a.num("--workers", 0, 0..)?,
        },
        "trace" => Command::Trace {
            target: a.target()?,
            format: a.pick(
                "--format",
                &[
                    ("text", TraceFormat::Text),
                    ("chrome", TraceFormat::Chrome),
                    ("jsonl", TraceFormat::Jsonl),
                ],
            )?,
        },
        "profile" => Command::Profile {
            target: a.target()?,
            top: a.num("--top", 10, 0..)?,
            snapshot: a.has("--snapshot"),
            format: a.pick(
                "--format",
                &[
                    ("table", ProfileFormat::Table),
                    ("folded", ProfileFormat::Folded),
                ],
            )?,
        },
        "obs snapshot" => Command::ObsSnapshot {
            target: a.target()?,
            out: a.value("--out").map(str::to_string),
            prom: a.has("--prom"),
        },
        "obs diff" => {
            let [baseline, current] = a.positionals[..] else {
                return Err(ParseError(
                    "obs diff requires exactly two files: <baseline.json> <current.json>".into(),
                ));
            };
            Command::ObsDiff {
                baseline: baseline.to_string(),
                current: current.to_string(),
                threshold: a.num("--threshold", 25.0, 0.0..=1000.0)? / 100.0,
                json: a.has("--json"),
            }
        }
        "check" => Command::Check {
            source_root: (!a.has("--no-source"))
                .then(|| a.value("--source-root").unwrap_or(".").to_string()),
        },
        "help" => Command::Help,
        other => unreachable!("USAGE entry '{other}' has no parser arm"),
    })
}

/// The usage text, and the grammar [`parse`] checks input against.
pub const USAGE: &str = "\
dvh — DVH nested-virtualization simulator (ASPLOS 2020 reproduction)

USAGE:
  dvh micro   [--level N] [--config base|passthrough|dvh-vp|dvh] [--iters N] [--csv]
  dvh app     --name rr|stream|maerts|apache|memcached|mysql|hackbench
              [--level N] [--config ...] [--runs N] [--txns N] [--csv]
  dvh apps    [--level N] [--config ...] [--txns N] [--csv]
  dvh migrate [--config ...] [--with-hypervisor]
  dvh results <file.csv> ...
  dvh explain [--op hypercall|timer|ipi|devnotify] [--level N] [--config ...]
  dvh sweep   [--figure 7|8|9|10] [--workers N]
  dvh trace   [--op hypercall|timer|ipi|devnotify | --app NAME [--txns N]]
              [--level N] [--config ...] [--format text|chrome|jsonl]
  dvh profile [--op hypercall|timer|ipi|devnotify | --app NAME [--txns N]]
              [--level N] [--config ...] [--top N] [--snapshot]
              [--format table|folded]
  dvh obs snapshot [--op ... | --app NAME [--txns N]] [--level N] [--config ...]
              [--out FILE] [--prom]
  dvh obs diff <baseline.json> <current.json> [--threshold PCT] [--json]
  dvh check   [--source-root DIR] [--no-source]
  dvh help
";

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_micro_defaults() {
        let c = parse(&v(&["micro"])).unwrap();
        assert_eq!(
            c,
            Command::Micro {
                level: 2,
                config: CliConfig::Base,
                iters: 10,
                csv: false
            }
        );
    }

    #[test]
    fn parse_app_with_flags() {
        let c = parse(&v(&[
            "app", "--name", "apache", "--level", "3", "--config", "dvh-vp", "--runs", "5", "--csv",
        ]))
        .unwrap();
        match c {
            Command::App {
                app,
                level,
                config,
                runs,
                csv,
                ..
            } => {
                assert_eq!(app, dvh_workloads::AppId::Apache);
                assert_eq!(level, 3);
                assert_eq!(config, CliConfig::DvhVp);
                assert_eq!(runs, 5);
                assert!(csv);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(parse(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn app_requires_name() {
        assert!(parse(&v(&["app"])).is_err());
    }

    #[test]
    fn bad_number_errors() {
        assert!(parse(&v(&["micro", "--level", "two"])).is_err());
    }

    #[test]
    fn config_vocabulary_round_trips() {
        for c in [
            CliConfig::Base,
            CliConfig::Passthrough,
            CliConfig::DvhVp,
            CliConfig::Dvh,
        ] {
            assert_eq!(CliConfig::parse(&c.to_string()).unwrap(), c);
        }
        assert!(CliConfig::parse("vmx").is_err());
    }

    #[test]
    fn all_app_aliases_parse() {
        for name in [
            "rr",
            "stream",
            "maerts",
            "apache",
            "memcached",
            "mysql",
            "hackbench",
            "netperf-rr",
        ] {
            assert!(parse(&v(&["app", "--name", name])).is_ok(), "{name}");
        }
    }

    #[test]
    fn parse_trace_formats_and_targets() {
        match parse(&v(&["trace", "--format", "chrome", "--app", "rr"])).unwrap() {
            Command::Trace { format, target } => {
                assert_eq!(format, TraceFormat::Chrome);
                assert_eq!(target.app, Some(dvh_workloads::AppId::NetperfRr));
                assert_eq!(target.txns, 40);
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["trace"])).unwrap() {
            Command::Trace { format, target } => {
                assert_eq!(format, TraceFormat::Text);
                assert_eq!(target.app, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["trace", "--format", "svg"])).is_err());
        assert!(parse(&v(&["trace", "--app", "frob"])).is_err());
    }

    #[test]
    fn parse_profile_defaults_and_flags() {
        match parse(&v(&["profile"])).unwrap() {
            Command::Profile {
                target,
                top,
                snapshot,
                ..
            } => {
                assert_eq!(target.op, "timer");
                assert_eq!(top, 10);
                assert!(!snapshot);
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&[
            "profile",
            "--app",
            "apache",
            "--top",
            "3",
            "--snapshot",
        ]))
        .unwrap()
        {
            Command::Profile {
                target,
                top,
                snapshot,
                ..
            } => {
                assert_eq!(target.app, Some(dvh_workloads::AppId::Apache));
                assert_eq!(top, 3);
                assert!(snapshot);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_profile_formats() {
        match parse(&v(&["profile", "--format", "folded", "--app", "rr"])).unwrap() {
            Command::Profile { format, target, .. } => {
                assert_eq!(format, ProfileFormat::Folded);
                assert_eq!(target.app, Some(dvh_workloads::AppId::NetperfRr));
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["profile"])).unwrap() {
            Command::Profile { format, .. } => assert_eq!(format, ProfileFormat::Table),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["profile", "--format", "svg"])).is_err());
    }

    #[test]
    fn parse_obs_snapshot() {
        match parse(&v(&[
            "obs",
            "snapshot",
            "--app",
            "rr",
            "--txns",
            "25",
            "--out",
            "snap.json",
        ]))
        .unwrap()
        {
            Command::ObsSnapshot { target, out, prom } => {
                assert_eq!(target.app, Some(dvh_workloads::AppId::NetperfRr));
                assert_eq!(target.txns, 25);
                assert_eq!(out.as_deref(), Some("snap.json"));
                assert!(!prom);
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["obs", "snapshot", "--prom"])).unwrap() {
            Command::ObsSnapshot { prom, .. } => assert!(prom),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["obs"])).is_err());
        assert!(parse(&v(&["obs", "frobnicate"])).is_err());
    }

    #[test]
    fn parse_obs_diff_is_strict() {
        assert_eq!(
            parse(&v(&["obs", "diff", "base.json", "cur.json"])).unwrap(),
            Command::ObsDiff {
                baseline: "base.json".into(),
                current: "cur.json".into(),
                threshold: 0.25,
                json: false,
            }
        );
        match parse(&v(&[
            "obs",
            "diff",
            "a.json",
            "b.json",
            "--threshold",
            "10",
            "--json",
        ]))
        .unwrap()
        {
            Command::ObsDiff {
                threshold, json, ..
            } => {
                assert!((threshold - 0.10).abs() < 1e-12);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        // A CI gate rejects what it does not understand.
        assert!(parse(&v(&["obs", "diff", "a.json"])).is_err());
        assert!(parse(&v(&["obs", "diff", "a.json", "b.json", "c.json"])).is_err());
        assert!(parse(&v(&["obs", "diff", "a.json", "b.json", "--bogus"])).is_err());
        assert!(parse(&v(&["obs", "diff", "a.json", "b.json", "--threshold"])).is_err());
        assert!(parse(&v(&[
            "obs",
            "diff",
            "a.json",
            "b.json",
            "--threshold",
            "nope"
        ]))
        .is_err());
    }

    #[test]
    fn documented_command_lines_parse() {
        // Every `dvh` line the docs show: `-p dvh-cli -- ...` or
        // `$ dvh ...`, joined across a trailing `\`, cut at `|` or `>`.
        let mut checked = 0;
        for doc in [include_str!("../../../README.md"), include_str!("lib.rs")] {
            for line in doc.replace("\\\n", " ").lines() {
                let line = line.trim_start_matches("//!").trim();
                let Some(cmd) = line
                    .split_once("-p dvh-cli --")
                    .map(|(_, cmd)| cmd)
                    .or_else(|| line.strip_prefix("$ dvh"))
                else {
                    continue;
                };
                let cmd = cmd.split(['|', '>']).next().unwrap_or_default();
                let argv = v(&cmd.split_whitespace().collect::<Vec<_>>());
                assert!(parse(&argv).is_ok(), "{line}: {:?}", parse(&argv));
                checked += 1;
            }
        }
        assert!(
            checked >= 15,
            "only {checked} documented command lines found"
        );
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_check_variants() {
        assert_eq!(
            parse(&v(&["check"])).unwrap(),
            Command::Check {
                source_root: Some(".".into())
            }
        );
        assert_eq!(
            parse(&v(&["check", "--source-root", "/tmp/repo"])).unwrap(),
            Command::Check {
                source_root: Some("/tmp/repo".into())
            }
        );
        assert_eq!(
            parse(&v(&["check", "--no-source"])).unwrap(),
            Command::Check { source_root: None }
        );
        // check is a CI gate: it rejects what it does not understand.
        assert!(parse(&v(&["check", "--bogus"])).is_err());
        assert!(parse(&v(&["check", "--source-root"])).is_err());
    }
}
