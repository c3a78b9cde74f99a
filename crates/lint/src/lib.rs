//! Semantic static analysis of EDGE hyperblocks and whole programs.
//!
//! [`Block::new`](clp_isa::Block) enforces *structural* invariants —
//! operand counts, dangling targets, acyclic dataflow. This crate checks
//! the *semantic* contract the TRIPS/TFlex microarchitecture relies on
//! and that the paper's Scale toolchain guaranteed at compile time:
//!
//! 1. **Predicate paths** ([`LintCode::NoFiringExit`] family): every
//!    assignment of the block's predicate conditions fires exactly one
//!    exit, resolves every register write and store slot exactly once,
//!    and contradictory predicates are flagged as dead code.
//! 2. **LSID order** ([`LintCode::DuplicateLsid`] family): load/store IDs
//!    are consistent with dataflow order and store→load forwarding cannot
//!    deadlock.
//! 3. **Dead dataflow** ([`LintCode::DeadDataflow`]): results that reach
//!    no write/store/branch sink waste issue-window slots.
//! 4. **Placement cost** ([`LintCode::DeepFanoutTree`],
//!    [`LintCode::LongOperandRoute`]): fanout-tree depth and operand
//!    routes whose mesh hop distance exceeds a threshold.
//! 5. **Whole-program checks** ([`LintCode::UnreachableBlock`]
//!    family): registers are defined before use across the block graph,
//!    every block is reachable, and some halt is.
//!
//! Entry points: [`lint_block`] for one hyperblock, [`lint_program`] for
//! an [`EdgeProgram`]. A diagnostic's severity is its rule's
//! ([`LintCode::severity`]); [`render`] produces rustc-style text and
//! [`LintReport::to_json`] machine-readable output.
//!
//! The predicate analysis is *sound for compiled code*: an
//! Error-severity diagnostic is only emitted for a concrete predicate
//! assignment on which the defect provably occurs. Distinct predicate
//! conditions are treated as independent, which matches the exit
//! partition produced by if-conversion; hand-written blocks with
//! correlated tests can in principle produce a pessimistic path, which
//! is why exhaustive-only checks are downgraded and witnesses always
//! name the offending assignment.

#![warn(missing_docs)]

use clp_isa::{Block, BlockAddr, EdgeProgram};
use serde_json::{json, ToValue, Value};
use std::fmt;

mod bound;
mod dataflow;
mod graph;
mod lsid;
mod placement;
mod predicate;
mod program;
mod render;

pub use bound::{bound_block, bound_program, lint_bounds, BlockBound, ProgramBound, Resource};
pub use render::{render, render_report};

/// How severe a diagnostic is. `Error` means the block can deadlock,
/// commit twice, or otherwise break block-atomic execution; `Warn` means
/// the code is almost certainly wrong or wasteful but will still run;
/// `Info` is advisory (performance, analysis coverage).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious but executable.
    Warn,
    /// Breaks the execution contract.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

impl ToValue for Severity {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

macro_rules! lint_codes {
    ($( $(#[$meta:meta])* $variant:ident = ($code:literal, $slug:literal, $sev:ident, $what:literal); )+) => {
        /// Stable identifier of one lint rule.
        ///
        /// The numeric code groups rules by analysis: `L0xx` predicate
        /// paths, `L1xx` LSID order, `L2xx` dead dataflow, `L3xx`
        /// placement cost, `L4xx` whole-program, `L5xx` static cycle
        /// bounds.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LintCode {
            $( $(#[$meta])* $variant, )+
        }

        impl LintCode {
            /// Every defined lint code, in numeric order.
            pub const ALL: &'static [LintCode] = &[ $(LintCode::$variant),+ ];

            /// The stable `Lnnn` code string.
            #[must_use]
            pub fn code(self) -> &'static str {
                match self { $(LintCode::$variant => $code),+ }
            }

            /// The human-readable kebab-case rule name.
            #[must_use]
            pub fn slug(self) -> &'static str {
                match self { $(LintCode::$variant => $slug),+ }
            }

            /// The severity of every diagnostic this rule emits.
            #[must_use]
            pub fn severity(self) -> Severity {
                match self { $(LintCode::$variant => Severity::$sev),+ }
            }

            /// One-line description of what the rule catches.
            #[must_use]
            pub fn describes(self) -> &'static str {
                match self { $(LintCode::$variant => $what),+ }
            }
        }
    };
}

lint_codes! {
    /// A predicate assignment on which no exit branch can fire: the
    /// block never produces its branch output and the machine deadlocks.
    NoFiringExit = ("L001", "no-firing-exit", Error,
        "a predicate path on which no exit branch fires (block deadlock)");
    /// A predicate assignment on which two or more exit branches fire.
    MultipleFiringExits = ("L002", "multiple-firing-exits", Error,
        "a predicate path on which more than one exit branch fires");
    /// A register write whose operand slot receives two tokens on one
    /// path.
    DoubleWrite = ("L003", "double-write", Error,
        "a register write delivered more than one value on one path");
    /// A register write that never receives its operand on some path, so
    /// the block's register outputs never resolve.
    StarvedWrite = ("L004", "starved-write", Error,
        "a register write that receives no value or null on some path (block deadlock)");
    /// A store LSID left unresolved (no store fired, no null) on some
    /// path.
    UnresolvedStore = ("L005", "unresolved-store", Error,
        "a store slot that is neither stored to nor nullified on some path (block deadlock)");
    /// A store LSID resolved twice on one path.
    DoubleStore = ("L006", "double-store", Error,
        "a store slot resolved more than once on one path");
    /// An instruction that cannot fire on any predicate assignment.
    DeadPredicatePath = ("L007", "dead-predicate-path", Warn,
        "an instruction whose predicates are contradictory: it fires on no path");
    /// A non-write operand slot receiving two tokens on one path.
    OperandRace = ("L008", "operand-race", Warn,
        "an operand slot delivered more than one token on one path");
    /// The predicate space was sampled, not enumerated.
    PredicateSpaceTruncated = ("L009", "predicate-space-truncated", Info,
        "too many predicate conditions to enumerate; paths were sampled");
    /// A store-nullifying `null` with dataflow targets, which the
    /// microarchitecture never delivers.
    NullStoreFanout = ("L010", "null-store-fanout", Warn,
        "a store-nullifying null has dataflow targets, which are never delivered");
    /// Two memory operations sharing an LSID that can fire together.
    DuplicateLsid = ("L101", "duplicate-lsid", Error,
        "a load and another memory op share an LSID and can fire on the same path");
    /// Dataflow order contradicting LSID (program) order.
    LsidOrderInversion = ("L102", "lsid-order-inversion", Warn,
        "a memory op feeds an operation with a lower LSID: dataflow and memory order disagree");
    /// A store that transitively depends on a load it must forward to.
    ForwardingCycle = ("L103", "forwarding-cycle", Error,
        "a store depends on an overlapping later-LSID load that must read its value");
    /// A result that reaches no write/store/branch sink.
    DeadDataflow = ("L201", "dead-dataflow", Warn,
        "an instruction whose result reaches no register write, store, or branch");
    /// A mov fanout tree deeper than the configured threshold.
    DeepFanoutTree = ("L301", "deep-fanout-tree", Info,
        "a mov fanout tree deeper than the configured limit");
    /// An operand route longer than the configured mesh hop threshold.
    LongOperandRoute = ("L302", "long-operand-route", Info,
        "an operand route whose mesh hop distance exceeds the configured limit");
    /// A block unreachable from the entry or any materialized address.
    UnreachableBlock = ("L402", "unreachable-block", Warn,
        "a block unreachable from the entry block or any address-taken block");
    /// A register read not dominated by a write on every path.
    MaybeUninitRead = ("L403", "maybe-uninit-read", Warn,
        "a register read not preceded by a write on every path from the entry");
    /// No reachable halt exit: the program cannot terminate.
    NoHaltExit = ("L404", "no-halt-exit", Warn,
        "no halt exit is reachable from the entry block");
    /// A block whose static bound is set by per-core issue bandwidth
    /// rather than its dataflow height.
    IssueBoundBlock = ("L501", "issue-bound-block", Info,
        "a block whose static cycle bound is set by per-core issue bandwidth, not dataflow height");
    /// Placement stretching the static critical path past the
    /// configured threshold over the placement-free height.
    PlacementInflatedPath = ("L502", "placement-inflated-path", Info,
        "mesh routing inflates the static critical path beyond the configured margin");
    /// A block whose static bound is set by one operand-network link.
    NocBoundBlock = ("L503", "noc-bound-block", Info,
        "a block whose static cycle bound is set by a single operand-network link");
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.code(), self.slug())
    }
}

impl ToValue for LintCode {
    fn to_value(&self) -> Value {
        Value::String(self.code().to_string())
    }
}

/// Where a diagnostic points: optionally a block, optionally an
/// instruction index within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Span {
    /// The block the diagnostic is about, if any.
    pub block: Option<BlockAddr>,
    /// The instruction index within the block, if any.
    pub inst: Option<usize>,
}

impl Span {
    /// A span naming a whole block.
    #[must_use]
    pub fn block(addr: BlockAddr) -> Self {
        Span {
            block: Some(addr),
            inst: None,
        }
    }

    /// A span naming one instruction of a block.
    #[must_use]
    pub fn inst(addr: BlockAddr, inst: usize) -> Self {
        Span {
            block: Some(addr),
            inst: Some(inst),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.block, self.inst) {
            (Some(b), Some(i)) => write!(f, "block @{b:#x}, i{i}"),
            (Some(b), None) => write!(f, "block @{b:#x}"),
            (None, Some(i)) => write!(f, "i{i}"),
            (None, None) => f.write_str("<program>"),
        }
    }
}

/// One finding of the linter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired; its [`LintCode::severity`] is the diagnostic's.
    pub code: LintCode,
    /// What the diagnostic points at.
    pub span: Span,
    /// The primary message.
    pub message: String,
    /// Additional notes (witness predicate assignments, related
    /// instructions).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new diagnostic.
    #[must_use]
    pub fn new(code: LintCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches a note.
    #[must_use]
    fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl ToValue for Diagnostic {
    fn to_value(&self) -> Value {
        json!({
            "code": (self.code),
            "name": (self.code.slug()),
            "severity": (self.code.severity()),
            "block": (self.span.block),
            "inst": (self.span.inst),
            "message": (self.message),
            "notes": (self.notes)
        })
    }
}

/// Per-run linter configuration: the composition the placement lints
/// assume. The analyses' thresholds are constants of their modules.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Composition size assumed by the placement lints.
    pub placement_cores: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            placement_cores: 32,
        }
    }
}

/// `diags` in report order: by span, then code, then message.
fn sorted(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| (a.span, a.code, &a.message).cmp(&(b.span, b.code, &b.message)));
    diags
}

/// The diagnostics produced by one lint run.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LintReport {
    /// All diagnostics, ordered by span then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of diagnostics at the given severity.
    #[must_use]
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == sev)
            .count()
    }

    /// Number of error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Whether any error-severity diagnostic was produced.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the run produced no diagnostics at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serializes the report as machine-parseable JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

impl ToValue for LintReport {
    fn to_value(&self) -> Value {
        json!({
            "errors": (self.error_count()),
            "warnings": (self.count(Severity::Warn)),
            "infos": (self.count(Severity::Info)),
            "diagnostics": (self.diagnostics)
        })
    }
}

/// The working state of the per-block analyses, kept across the blocks
/// of a program so that linting a block allocates nothing but its
/// diagnostics.
#[derive(Default)]
struct Scratch {
    graph: graph::BlockGraph,
    predicate: predicate::Scratch,
    mem_ops: Vec<lsid::MemOp>,
}

/// Runs every per-block analysis on `block`, adding the findings to
/// `diags`.
fn collect_block(block: &Block, cfg: &LintConfig, s: &mut Scratch, diags: &mut Vec<Diagnostic>) {
    s.graph.rebuild(block);
    let g = &s.graph;
    let facts = predicate::analyze(block, g, &mut s.predicate, diags);
    lsid::analyze(block, g, &facts, &mut s.mem_ops, diags);
    dataflow::analyze(block, g, diags);
    placement::analyze(block, g, cfg, diags);
}

/// Lints a single hyperblock with the given configuration.
///
/// Runs the predicate-path, LSID, dead-dataflow, and placement analyses;
/// whole-program rules require [`lint_program`].
#[must_use]
pub fn lint_block(block: &Block, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    collect_block(block, cfg, &mut Scratch::default(), &mut diags);
    sorted(diags)
}

/// Lints every block of a program plus the whole-program rules.
#[must_use]
pub fn lint_program(p: &EdgeProgram, cfg: &LintConfig) -> LintReport {
    let mut diags = Vec::new();
    let mut scratch = Scratch::default();
    for (_, block) in p.iter() {
        collect_block(block, cfg, &mut scratch, &mut diags);
    }
    program::analyze(p, &mut diags);
    LintReport {
        diagnostics: sorted(diags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_parse_back() {
        // A report names a rule by its code and its slug, and each of
        // the two names that rule alone.
        for &c in LintCode::ALL {
            let v = Diagnostic::new(c, Span::default(), "m").to_value();
            let named = |k: &&LintCode| {
                v["code"].as_str() == Some(k.code()) || v["name"].as_str() == Some(k.slug())
            };
            let back: Vec<LintCode> = LintCode::ALL.iter().filter(named).copied().collect();
            assert_eq!(back, [c]);
            assert!(!c.describes().is_empty());
        }
    }

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert_eq!(Severity::Warn.to_string(), "warning");
    }

    #[test]
    fn report_json_is_parseable() {
        let report = LintReport {
            diagnostics: vec![Diagnostic::new(
                LintCode::NoFiringExit,
                Span::inst(0x1000, 3),
                "no exit fires",
            )
            .with_note("on predicate assignment i1=0")],
        };
        let v: Value = serde_json::from_str(&report.to_json()).expect("valid json");
        assert_eq!(v["errors"].as_u64(), Some(1));
        let d = &v["diagnostics"][0];
        assert_eq!(d["code"].as_str(), Some("L001"));
        assert_eq!(d["block"].as_u64(), Some(0x1000));
        assert_eq!(d["inst"].as_u64(), Some(3));
    }
}
