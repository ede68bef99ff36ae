//! Every malformed command line exits 2 with a one-line error instead
//! of panicking, being silently ignored, or running with other
//! settings than the ones typed.

use std::process::Command;

const REJECTED: &[&str] = &[
    // Zero and truncated counts that would reach the engine.
    "micro --iters 0",
    "micro --level 0",
    "micro --iters 4294967296",
    "app --name rr --txns 0",
    "app --name rr --runs 0",
    "apps --txns 0",
    "trace --app rr --txns 0",
    "profile --app rr --txns 0",
    "obs snapshot --app rr --txns 0",
    // Typos: an unknown flag, a stray word, a missing value, a
    // repeated flag.
    "micro --lvel 3",
    "micro 3",
    "micro --level",
    "micro --config dvh --config base",
    "explain --op",
    // One unknown flag per subcommand.
    "micro --bogus",
    "app --name rr --bogus",
    "apps --bogus",
    "migrate --bogus",
    "results --bogus",
    "explain --bogus",
    "sweep --bogus",
    "trace --bogus",
    "profile --bogus",
    "obs snapshot --bogus",
    "obs diff a.json b.json --bogus",
    "check --bogus",
    "help --bogus",
];

#[test]
fn malformed_command_lines_exit_2_without_panicking() {
    for line in REJECTED {
        let out = Command::new(env!("CARGO_BIN_EXE_dvh"))
            .args(line.split_whitespace())
            .output()
            .expect("dvh runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "dvh {line}: {stderr}");
        assert!(stderr.starts_with("error: "), "dvh {line}: {stderr}");
        assert!(!stderr.contains("panicked"), "dvh {line}: {stderr}");
        assert!(out.stdout.is_empty(), "dvh {line} wrote to stdout");
    }
}
