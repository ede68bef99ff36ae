//! Host-cost benchmark of the DVH simulator.
//!
//! ```text
//! perfbench --workload <l3_micro|l3_dvh_micro|dvh_apps|paper_sweep|observed_l3>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --bless
//! ```
//!
//! An untraced run (`--trace 0`) repeats passes of one workload for
//! `--seconds` and reports the end-to-end metrics. A traced run
//! (`--trace 1`) runs the traced suite for the per-layer metrics, then
//! alternates traced and untraced passes of the workload for
//! `--seconds` to measure what tracing costs, and writes its spans to
//! `out/`. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. `--bless`
//! regenerates `expected.json` from a serial run.
//!
//! Simulated statistics are deterministic, so they are never metrics:
//! every one is verified against `expected.json`, and a mismatch is
//! counted in `failed`.

mod alloc;
mod check;
mod layers;
mod rng;
mod spans;
mod workloads;

use check::{parse_expected, Verifier, EXPECTED_FILE};
use dvh_obs::json::Value;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{prepare, run, verify, Plan, Work, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The committed expectations every run verifies against.
const EXPECTED: &str = include_str!("../expected.json");

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Where the traced run writes its spans.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_none() && !a.bless {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Host times of one pass.
struct PassTimes {
    /// Seconds of each unit of the set-up.
    setup_units: Vec<f64>,
    wall: Duration,
    /// Seconds of each unit of the timed part.
    units: Vec<f64>,
    work: Work,
}

/// One pass of `w`: set-up and run timed separately, verification
/// after the clock stops.
fn timed_pass(w: Workload, plan: &Plan, tr: &mut Tracer, v: &mut Verifier) -> PassTimes {
    let (prep, setup_laps) = prepare(w, plan, tr);
    let t1 = Instant::now();
    let (out, laps) = run(plan, prep, tr);
    let t2 = Instant::now();
    let work = verify(plan, &out, v);
    PassTimes {
        setup_units: setup_laps.secs,
        wall: t2 - t1,
        units: laps.secs,
        work,
    }
}

/// `xs` sorted, as (fastest, median, slowest).
fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    (s[0], median, s[n - 1])
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Metrics by name: (value, unit).
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Lowers each of `fastest` to the matching time in `units`.
fn keep_fastest(fastest: &mut Vec<f64>, units: &[f64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(units);
    }
    for (f, u) in fastest.iter_mut().zip(units) {
        *f = f.min(*u);
    }
}

/// Set-ups timed before the first pass, on top of each pass's own.
const SETUP_REPEATS: usize = 20;

/// The untraced run: passes of `w` for `seconds`.
///
/// A pass is deterministic, so host noise can only add time to it. On
/// a shared host that noise comes in bursts and phases that slow a
/// pass by up to 2x. So `wall_s` and `setup_s` sum, over the units a
/// pass runs one after another, each unit's fastest time in the run.
/// That estimates the program's cost far more steadily than a median,
/// which tracks the noise the run landed in.
fn untraced(w: Workload, plan: &Plan, seconds: f64, v: &mut Verifier) -> Result<Metrics, String> {
    let (mut walls, mut first) = (Vec::new(), None);
    let (mut fastest_setup, mut fastest_units) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for _ in 0..SETUP_REPEATS {
        let (_, laps) = prepare(w, plan, &mut Tracer::off());
        keep_fastest(&mut fastest_setup, &laps.secs);
    }
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let p = timed_pass(w, plan, &mut Tracer::off(), v);
        keep_fastest(&mut fastest_setup, &p.setup_units);
        keep_fastest(&mut fastest_units, &p.units);
        walls.push(p.wall.as_secs_f64());
        let first = *first.get_or_insert(p.work);
        v.check(p.work == first, || {
            format!(
                "{}: pass simulated {:?}, first pass {first:?}",
                w.name(),
                p.work
            )
        });
    }
    let work = first.expect("at least one pass ran");
    let (fastest, median, slowest) = spread(&walls);
    let wall: f64 = fastest_units.iter().sum();
    eprintln!(
        "perfbench {}: {} passes in {:.1} s, {} txns and {} exits per pass",
        w.name(),
        walls.len(),
        start.elapsed().as_secs_f64(),
        work.txns,
        work.exits
    );
    eprintln!("  pass wall_s: fastest {fastest:.6} median {median:.6} slowest {slowest:.6}");
    if work.exits > 0 {
        eprintln!("  sim_exits_per_s {} 1/s", work.exits as f64 / wall);
    }
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (fastest_setup.iter().sum(), "s"));
    m.insert("wall_s".into(), (wall, "s"));
    m.insert("txns_per_s".into(), (work.txns as f64 / wall, "1/s"));
    m.insert("peak_rss_mb".into(), (peak_rss_mib()?, "MiB"));
    Ok(m)
}

/// The traced run: the traced suite, then traced and untraced passes
/// of `w` alternated for `seconds` to measure tracing's overhead.
fn traced(
    w: Workload,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    v: &mut Verifier,
) -> Result<Metrics, String> {
    alloc::arm();
    let mut tr = Tracer::on();
    let mut m = layers::suite(plan, &mut tr, v);
    let (mut bare, mut with) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while with.is_empty() || start.elapsed().as_secs_f64() < seconds {
        bare.push(
            timed_pass(w, plan, &mut Tracer::off(), v)
                .wall
                .as_secs_f64(),
        );
        with.push(timed_pass(w, plan, &mut Tracer::on(), v).wall.as_secs_f64());
    }
    m.insert(
        "tracing.overhead".into(),
        (spread(&with).0 / spread(&bare).0, "ratio"),
    );

    let spans = tr.spans().expect("the suite traces");
    eprintln!("self time by span (suite):");
    eprintln!(
        "  {:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in spans.by_name() {
        eprintln!(
            "  {name:<28} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/spans-{}-{seed}.json", w.name());
    std::fs::write(&path, spans.to_chrome()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("spans written to {path}");
    Ok(m)
}

/// Regenerates `expected.json` from a serial run of every workload.
fn bless() -> Result<(), String> {
    let mut v = Verifier::blessing();
    let plan = Plan::new(DEFAULT_SEED, 1);
    layers::suite(&plan, &mut Tracer::on(), &mut v);
    // The serial untraced passes run last, so their values are kept.
    for w in Workload::ALL {
        timed_pass(w, &plan, &mut Tracer::off(), &mut v);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(EXPECTED_FILE);
    let text = v.blessed_json().expect("a blessing verifier");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} ({} values)", path.display(), v.attempted);
    Ok(())
}

fn main_result() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.bless {
        return bless();
    }
    let w = args.workload.expect("checked by parse_args");
    let expected = parse_expected(EXPECTED).map_err(|e| format!("{EXPECTED_FILE}: {e}"))?;
    let mut v = Verifier::new(expected);
    let plan = Plan::new(args.seed, dvh_bench::parallel::available_workers());
    let metrics = if args.trace {
        traced(w, &plan, args.seed, args.seconds, &mut v)?
    } else {
        untraced(w, &plan, args.seconds, &mut v)?
    };
    for (name, (value, unit)) in &metrics {
        eprintln!("  {name} {value} {unit}");
    }
    eprintln!(
        "  fail_rate {} ({} of {} checks failed)",
        v.failed as f64 / v.attempted as f64,
        v.failed,
        v.attempted
    );
    for note in &v.notes {
        eprintln!("  FAILED {note}");
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, (value, unit))| {
            let m = vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ];
            (name, Value::Obj(m))
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(v.failed == 0)),
        ("attempted".into(), Value::Int(v.attempted as i64)),
        ("failed".into(), Value::Int(v.failed as i64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

fn main() -> ExitCode {
    match main_result() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Op, Outcome};

    fn expected() -> BTreeMap<String, String> {
        parse_expected(EXPECTED).expect("expected.json parses")
    }

    #[test]
    fn tampered_expectation_is_counted_as_a_failure() {
        let plan = Plan::new(DEFAULT_SEED, 1);
        let mut v = Verifier::new(expected());
        timed_pass(Workload::L3Micro, &plan, &mut Tracer::off(), &mut v);
        assert_eq!(v.failed, 0, "{:?}", v.notes);

        let mut tampered = expected();
        tampered.insert("l3_micro.cycles.hypercall".into(), "1".into());
        let mut v = Verifier::new(tampered);
        timed_pass(Workload::L3Micro, &plan, &mut Tracer::off(), &mut v);
        assert_eq!(v.failed, 1, "{:?}", v.notes);
        assert!(v.notes[0].contains("l3_micro.cycles.hypercall"));
    }

    #[test]
    fn seeds_reorder_inputs_but_not_results() {
        let (a, b) = (Plan::new(DEFAULT_SEED, 1), Plan::new(9001, 1));
        assert_ne!(a.ops, b.ops);
        assert_ne!(a.cells, b.cells);
        let per_op = |plan: &Plan, w: Workload| {
            let (prep, _) = prepare(w, plan, &mut Tracer::off());
            let (Outcome::Micro(o), _) = run(plan, prep, &mut Tracer::off()) else {
                unreachable!()
            };
            let mut by_op: BTreeMap<Op, Vec<u64>> = BTreeMap::new();
            for (op, c) in plan.micro_ops(w).iter().zip(o.cycles) {
                by_op.entry(*op).or_default().push(c);
            }
            by_op
        };
        for w in [Workload::L3Micro, Workload::L3DvhMicro] {
            assert_eq!(per_op(&a, w), per_op(&b, w));
        }
        let per_cell = |plan: &Plan| {
            let (prep, _) = prepare(Workload::DvhApps, plan, &mut Tracer::off());
            let (Outcome::Apps(o), _) = run(plan, prep, &mut Tracer::off()) else {
                unreachable!()
            };
            plan.cells
                .iter()
                .zip(&o.machines)
                .zip(&o.results)
                .map(|((c, m), r)| (c.tag, (*r, check::stats_text(&m.world().stats))))
                .collect::<BTreeMap<_, _>>()
        };
        assert_eq!(per_cell(&a), per_cell(&b));
    }
}
