//! # dvh-checker
//!
//! Static analysis and invariant verification for the DVH simulator's
//! exit engine. Four passes, all runnable from `dvh check` and from
//! the test suite:
//!
//! 1. **VM-entry consistency** ([`vmentry`]): every simulated VM entry
//!    validates the entered VMCS against Intel SDM §26-style rules
//!    (posted-interrupt descriptor and vector, shadow-VMCS link
//!    pointer, secondary-control activation, EPT pointer, DVH
//!    capability gating), reporting violations with the owning level
//!    and field encoding.
//! 2. **Trace linting** ([`trace_lint`]): a pass over the
//!    [`dvh_hypervisor::TraceEvent`] log proving structural invariants
//!    of the exit engine — well-formed exit/intervention nesting,
//!    per-CPU time monotonicity, bounded reflection depth, exact cycle
//!    conservation against the [`dvh_hypervisor::RunStats`] ledger, no
//!    reflection of shadowed VMCS accesses, and no reflection after a
//!    DVH interception.
//! 3. **Source linting** ([`source_lint`]): std-only lints over
//!    `crates/*/src` for project-specific hazards — load-bearing
//!    `debug_assert!` in exit-path code, raw VMCS container indexing
//!    that bypasses the tracked accessors, and unchecked level-keyed
//!    indexing in hypervisor dispatch paths.
//! 4. **Metrics certification** ([`metrics_lint`]): every histogram
//!    must be internally consistent, and the serialized Chrome trace
//!    export must round-trip with outermost span durations summing to
//!    [`dvh_hypervisor::RunStats::cycles_by_reason`].
//! 5. **Causal conservation** ([`causal_lint`]): certifies the
//!    causality layer (`dvh_obs::causal`) that rebuilds each outermost
//!    exit's tree of nested traps — root spans must reproduce the
//!    attribution ledger bit for bit, tree geometry must partition
//!    (children inside parents, siblings non-overlapping), the forest
//!    must hold exactly one node per counted hardware exit, and the
//!    folded flamegraph text must re-parse to the same totals.
//!
//! Every per-(level, reason) comparison against the ledger goes
//! through [`conservation`].
//!
//! The [`harness`] module ties the first two passes to representative
//! workloads (the paper's Fig. 7 configurations) for `dvh check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal_lint;
pub mod conservation;
pub mod harness;
pub mod metrics_lint;
pub mod source_lint;
pub mod trace_lint;
pub mod vmentry;

use std::fmt;

/// Which checker pass produced a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// VM-entry consistency checking.
    Vmentry,
    /// Trace-log invariant linting.
    Trace,
    /// Source-code linting.
    Source,
    /// Pinned-fixture certification (simulated results must be
    /// bit-for-bit identical to the pre-optimization engine's).
    Fixture,
    /// Metrics-conservation certification (the dvh-obs registry and
    /// trace export must agree with the engine's attribution ledger).
    Metrics,
    /// Causal-conservation certification (the causal forest rebuilt
    /// from the trace must reproduce the attribution ledger and
    /// partition exactly).
    Causal,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Vmentry => "vmentry",
            Pass::Trace => "trace",
            Pass::Source => "source",
            Pass::Fixture => "fixture",
            Pass::Metrics => "metrics",
            Pass::Causal => "causal",
        })
    }
}

/// One invariant violation found by any pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The pass that found it.
    pub pass: Pass,
    /// Stable kebab-case rule identifier.
    pub rule: &'static str,
    /// Where: "L1 cpu0 field 0x2016", "event #42", or "file:line".
    pub location: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] {}: {}",
            self.pass, self.rule, self.location, self.detail
        )
    }
}

/// The combined result of a checker run.
#[derive(Debug, Default)]
pub struct Report {
    /// One human-readable line per pass/workload executed.
    pub ran: Vec<String>,
    /// Everything found, in discovery order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Whether every pass came back clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records that a pass ran, with its violations; `scope` prefixes
    /// each violation's location so reports from multiple workloads
    /// stay attributable.
    pub fn add(&mut self, ran: String, scope: &str, violations: Vec<Violation>) {
        self.ran.push(ran);
        self.violations.extend(violations.into_iter().map(|mut v| {
            if !scope.is_empty() {
                v.location = format!("{scope}: {}", v.location);
            }
            v
        }));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.ran {
            writeln!(f, "  {line}")?;
        }
        if self.is_clean() {
            writeln!(f, "dvh-checker: all invariants hold")
        } else {
            for v in &self.violations {
                writeln!(f, "{v}")?;
            }
            writeln!(
                f,
                "dvh-checker: {} violation(s) found",
                self.violations.len()
            )
        }
    }
}
