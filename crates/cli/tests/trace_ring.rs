//! A causal view rebuilt from a wrapped trace ring is partial, and
//! `dvh` says so on stderr; runs that fit the ring stay silent.

use std::process::{Command, Output};

fn dvh(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dvh"))
        .args(line.split_whitespace())
        .output()
        .expect("dvh runs")
}

const WRAPPING: &str = "profile --app rr --level 3 --config base --txns 1000";

/// Runs `line`, requires exit 0 and exactly the one warning line on
/// stderr, and returns stdout with the dropped-event count.
fn run_wrapped(line: &str) -> (String, u64) {
    let out = dvh(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "dvh {line}: {stderr}");
    let dropped = stderr
        .strip_prefix("warning: trace ring wrapped: ")
        .and_then(|rest| rest.strip_suffix(" events dropped; causal views are partial\n"))
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("dvh {line}: unexpected stderr: {stderr}"));
    assert!(dropped > 0);
    (String::from_utf8_lossy(&out.stdout).into_owned(), dropped)
}

#[test]
fn wrapped_ring_warns_once_and_keeps_folded_stdout_pipeable() {
    let (stdout, _) = run_wrapped(&format!("{WRAPPING} --format folded"));
    // Every stdout line is still `frame;frame;... cycles`.
    assert!(!stdout.is_empty());
    for line in stdout.lines() {
        let (path, cycles) = line.rsplit_once(' ').expect("`path cycles` shape");
        assert!(path.starts_with('L'), "{line}");
        cycles.parse::<u64>().expect("cycle count parses");
    }
}

#[test]
fn wrapped_ring_marks_the_multiplication_table_partial() {
    let (stdout, dropped) = run_wrapped(WRAPPING);
    let header =
        format!("exit multiplication (from the causal tree) (partial: {dropped} events dropped):");
    assert!(stdout.lines().any(|l| l == header), "{stdout}");
}

#[test]
fn runs_that_fit_the_ring_print_nothing_on_stderr() {
    for line in [
        "profile --app rr --level 2 --config base --txns 25 --format folded",
        "profile --app rr --level 2 --config base --txns 25",
        "obs snapshot --app rr --level 2 --config base --txns 25",
        "trace --op timer --level 3 --config base --format jsonl",
    ] {
        let out = dvh(line);
        assert_eq!(out.status.code(), Some(0), "dvh {line}");
        assert!(
            out.stderr.is_empty(),
            "dvh {line}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("partial"), "dvh {line}");
    }
}
