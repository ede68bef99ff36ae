//! Output verification. Every simulated statistic the benchmark sees
//! is compared with a committed expectation (`expected.json`) or with
//! an invariant; a mismatch is counted as a failure, never a panic, so
//! it reaches `failed` and `fail_rate`.

use dvh_hypervisor::RunStats;
use dvh_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Committed expectations, relative to the benchmark's directory.
pub const EXPECTED_FILE: &str = "expected.json";

/// Failures kept verbatim for the report; the rest are only counted.
const KEPT_NOTES: usize = 20;

/// Counts checks and failures against the expectations.
#[derive(Debug, Default)]
pub struct Verifier {
    expected: BTreeMap<String, String>,
    /// With `Some`, checks record the value seen instead of comparing
    /// (regenerating `expected.json`).
    blessed: Option<BTreeMap<String, String>>,
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first failures, described.
    pub notes: Vec<String>,
}

impl Verifier {
    /// A verifier comparing against `expected`.
    pub fn new(expected: BTreeMap<String, String>) -> Verifier {
        Verifier {
            expected,
            ..Verifier::default()
        }
    }

    /// A verifier that records every keyed value it is shown.
    pub fn blessing() -> Verifier {
        Verifier {
            blessed: Some(BTreeMap::new()),
            ..Verifier::default()
        }
    }

    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < KEPT_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Checks that `actual` equals the committed value under `key`.
    pub fn expect(&mut self, key: &str, actual: impl ToString) {
        let actual = actual.to_string();
        if let Some(b) = &mut self.blessed {
            self.attempted += 1;
            b.insert(key.to_string(), actual);
            return;
        }
        let want = self.expected.get(key).cloned();
        self.check(want.as_ref() == Some(&actual), || {
            format!("{key}: expected {want:?}, got {actual:?}")
        });
    }

    /// Whether this verifier records instead of comparing.
    pub fn is_blessing(&self) -> bool {
        self.blessed.is_some()
    }

    /// The committed value under `key`, as an integer.
    pub fn expected_u64(&self, key: &str) -> Option<u64> {
        self.expected.get(key)?.parse().ok()
    }

    /// The recorded values, as the text of `expected.json`.
    pub fn blessed_json(&self) -> Option<String> {
        let b = self.blessed.as_ref()?;
        let members = b
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        Some(Value::Obj(members).to_json() + "\n")
    }
}

/// Parses `expected.json`: one object of string values.
pub fn parse_expected(text: &str) -> Result<BTreeMap<String, String>, String> {
    match json::parse(text)? {
        Value::Obj(members) => members
            .into_iter()
            .map(|(k, v)| match v {
                Value::Str(s) => Ok((k, s)),
                other => Err(format!("{k}: expected a string, found {other:?}")),
            })
            .collect(),
        _ => Err("expected.json must hold one object".into()),
    }
}

/// 64-bit FNV-1a of `text`, in hex: a compact, exact fingerprint.
pub fn fingerprint(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The canonical text of a run's simulated statistics: exits by level
/// and reason, interventions by level, DVH intercepts by mechanism,
/// and attributed cycles by outermost exit. Idle cycles are left out:
/// how long vCPU 1 sleeps between IPIs depends on the op order, which
/// the seed sets.
pub fn stats_text(s: &RunStats) -> String {
    let mut t = String::new();
    for ((level, reason), n) in s.exits.iter() {
        let _ = write!(t, "exit L{level} {reason:?} {n};");
    }
    for (level, n) in s.interventions.iter() {
        let _ = write!(t, "intervention L{level} {n};");
    }
    for (mech, n) in &s.dvh_intercepts {
        let _ = write!(t, "dvh {mech} {n};");
    }
    for ((level, reason), c) in &s.cycles_by_reason {
        let _ = write!(t, "cycles L{level} {reason:?} {};", c.as_u64());
    }
    t
}

/// [`fingerprint`] of [`stats_text`]: the digest of a run.
pub fn stats_digest(s: &RunStats) -> String {
    fingerprint(&stats_text(s))
}
