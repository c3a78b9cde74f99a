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
//! 5. **Whole-program checks** ([`LintCode::DanglingBranchTarget`]
//!    family): branch targets resolve, registers are defined before use
//!    across the block graph, and every block is reachable.
//!
//! Entry points: [`lint_block`] for one hyperblock, [`lint_program`] for
//! an [`EdgeProgram`]. Severity of each code can be raised, lowered, or
//! silenced through [`LintConfig`]; [`render`] produces rustc-style text
//! and [`LintReport::to_json`] machine-readable output.
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
use serde::{Serialize, Value};
use serde_json::json;
use std::collections::BTreeMap;
use std::fmt;

mod bound;
mod dataflow;
mod graph;
mod lsid;
mod placement;
mod predicate;
mod program;
mod render;

pub use bound::{
    bound_block, bound_curve_samples, bound_program, lint_bounds, BlockBound, BoundMachine,
    ProgramBound, Resource,
};
pub use render::{render, render_in, render_report};

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

impl Serialize for Severity {
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

            /// The severity this rule carries unless overridden by
            /// [`LintConfig`].
            #[must_use]
            pub fn default_severity(self) -> Severity {
                match self { $(LintCode::$variant => Severity::$sev),+ }
            }

            /// One-line description of what the rule catches.
            #[must_use]
            pub fn describes(self) -> &'static str {
                match self { $(LintCode::$variant => $what),+ }
            }

            /// Parses either a `Lnnn` code or a rule slug.
            #[must_use]
            pub fn from_code(s: &str) -> Option<Self> {
                match s {
                    $( $code | $slug => Some(LintCode::$variant), )+
                    _ => None,
                }
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
    /// A block whose memory slots exceed one LSQ bank's capacity: under
    /// the minimum (1-core) composition every slot maps to the same
    /// bank, so the age-based overflow eviction could never make the
    /// oldest block fit — it would be un-flushable.
    LsqUnflushableBlock = ("L104", "lsq-unflushable-block", Info,
        "a block with more memory slots than one LSQ bank: un-flushable under 1-core composition");
    /// A result that reaches no write/store/branch sink.
    DeadDataflow = ("L201", "dead-dataflow", Warn,
        "an instruction whose result reaches no register write, store, or branch");
    /// A mov fanout tree deeper than the configured threshold.
    DeepFanoutTree = ("L301", "deep-fanout-tree", Info,
        "a mov fanout tree deeper than the configured limit");
    /// An operand route longer than the configured mesh hop threshold.
    LongOperandRoute = ("L302", "long-operand-route", Info,
        "an operand route whose mesh hop distance exceeds the configured limit");
    /// A branch naming a block that does not exist in the program.
    DanglingBranchTarget = ("L401", "dangling-branch-target", Error,
        "a branch whose static target block does not exist in the program");
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

impl Serialize for LintCode {
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
    /// Which rule fired.
    pub code: LintCode,
    /// Effective severity after [`LintConfig`] overrides.
    pub severity: Severity,
    /// What the diagnostic points at.
    pub span: Span,
    /// The primary message.
    pub message: String,
    /// Additional notes (witness predicate assignments, related
    /// instructions).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new diagnostic at the rule's default severity.
    #[must_use]
    pub fn new(code: LintCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        json!({
            "code": (self.code),
            "name": (self.code.slug()),
            "severity": (self.severity),
            "block": (self.span.block),
            "inst": (self.span.inst),
            "message": (self.message),
            "notes": (self.notes)
        })
    }
}

/// Per-run linter configuration: severity overrides and analysis
/// thresholds.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Severity overrides per code: `Some(sev)` re-levels the rule,
    /// `None` silences it entirely.
    pub levels: BTreeMap<LintCode, Option<Severity>>,
    /// Maximum number of free predicate conditions enumerated
    /// exhaustively (`2^n` paths); blocks with more are sampled.
    pub max_pred_vars: u32,
    /// Number of sampled predicate assignments when enumeration is
    /// infeasible.
    pub pred_samples: u32,
    /// Composition size assumed by the placement lints.
    pub placement_cores: usize,
    /// Mesh hop distance above which an operand route is flagged.
    pub max_route_hops: u32,
    /// Mov-tree depth above which a fanout tree is flagged.
    pub max_fanout_depth: u32,
    /// Per-bank LSQ capacity assumed by the overflow-flushability lint:
    /// a block using more memory slots than this cannot be the sole
    /// resident of a 1-core composition's only bank. The default matches
    /// the simulator's 44-entry banks, which exceed the 32-LSID
    /// architectural budget — so only a lowered threshold (modeling a
    /// smaller LSQ) ever fires on a valid block.
    pub lsq_entries: usize,
    /// Percentage by which placement may inflate a block's static
    /// critical path over its placement-free height before
    /// [`LintCode::PlacementInflatedPath`] fires.
    pub bound_inflation_pct: u32,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            levels: BTreeMap::new(),
            max_pred_vars: 12,
            pred_samples: 2048,
            placement_cores: 32,
            max_route_hops: 6,
            max_fanout_depth: 4,
            lsq_entries: 44,
            bound_inflation_pct: 50,
        }
    }
}

impl LintConfig {
    /// Silences a rule.
    pub fn allow(&mut self, code: LintCode) -> &mut Self {
        self.levels.insert(code, None);
        self
    }

    /// Forces a rule to a severity.
    pub fn set_level(&mut self, code: LintCode, severity: Severity) -> &mut Self {
        self.levels.insert(code, Some(severity));
        self
    }

    /// The effective severity of a rule, `None` if silenced.
    #[must_use]
    pub fn severity_of(&self, code: LintCode) -> Option<Severity> {
        match self.levels.get(&code) {
            Some(over) => *over,
            None => Some(code.default_severity()),
        }
    }

    fn apply(&self, mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags.retain_mut(|d| match self.severity_of(d.code) {
            Some(sev) => {
                d.severity = sev;
                true
            }
            None => false,
        });
        diags.sort_by(|a, b| (a.span, a.code, &a.message).cmp(&(b.span, b.code, &b.message)));
        diags
    }
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
            .filter(|d| d.severity == sev)
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

impl Serialize for LintReport {
    fn to_value(&self) -> Value {
        json!({
            "errors": (self.error_count()),
            "warnings": (self.count(Severity::Warn)),
            "infos": (self.count(Severity::Info)),
            "diagnostics": (self.diagnostics)
        })
    }
}

fn collect_block(block: &Block, cfg: &LintConfig) -> Vec<Diagnostic> {
    let g = graph::BlockGraph::new(block);
    let (mut diags, facts) = predicate::analyze(block, &g, cfg);
    diags.extend(lsid::analyze(block, &g, &facts, cfg));
    diags.extend(dataflow::analyze(block, &g));
    diags.extend(placement::analyze(block, &g, cfg));
    diags
}

/// Lints a single hyperblock with the given configuration.
///
/// Runs the predicate-path, LSID, dead-dataflow, and placement analyses;
/// whole-program rules require [`lint_program`].
#[must_use]
pub fn lint_block(block: &Block, cfg: &LintConfig) -> Vec<Diagnostic> {
    cfg.apply(collect_block(block, cfg))
}

/// Lints every block of a program plus the whole-program rules.
#[must_use]
pub fn lint_program(p: &EdgeProgram, cfg: &LintConfig) -> LintReport {
    let mut diags = Vec::new();
    for (_, block) in p.iter() {
        diags.extend(collect_block(block, cfg));
    }
    diags.extend(program::analyze(p));
    LintReport {
        diagnostics: cfg.apply(diags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_parse_back() {
        let mut seen = std::collections::BTreeSet::new();
        for &c in LintCode::ALL {
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            assert_eq!(LintCode::from_code(c.code()), Some(c));
            assert_eq!(LintCode::from_code(c.slug()), Some(c));
            assert!(!c.describes().is_empty());
        }
        assert_eq!(LintCode::from_code("L999"), None);
    }

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert_eq!(Severity::Warn.to_string(), "warning");
    }

    #[test]
    fn config_overrides_apply() {
        let mut cfg = LintConfig::default();
        cfg.allow(LintCode::DeadDataflow);
        cfg.set_level(LintCode::DeepFanoutTree, Severity::Error);
        assert_eq!(cfg.severity_of(LintCode::DeadDataflow), None);
        assert_eq!(
            cfg.severity_of(LintCode::DeepFanoutTree),
            Some(Severity::Error)
        );
        let diags = vec![
            Diagnostic::new(LintCode::DeadDataflow, Span::default(), "dead"),
            Diagnostic::new(LintCode::DeepFanoutTree, Span::default(), "deep"),
        ];
        let out = cfg.apply(diags);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Error);
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
