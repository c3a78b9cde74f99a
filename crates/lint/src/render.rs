//! Rustc-style plain-text rendering of diagnostics, quoting the
//! disassembly of the offending instruction.

use crate::{Diagnostic, LintReport, Severity};
use clp_isa::{Block, EdgeProgram};
use std::fmt::Write as _;

/// Renders one diagnostic without source context.
#[must_use]
pub fn render(d: &Diagnostic) -> String {
    render_in(d, None)
}

/// Renders one diagnostic, quoting the instruction from `block` when the
/// span names one.
#[must_use]
fn render_in(d: &Diagnostic, block: Option<&Block>) -> String {
    let mut out = String::new();
    let (sev, code) = (d.code.severity(), d.code.code());
    let _ = writeln!(out, "{sev}[{code}]: {}", d.message);
    let _ = writeln!(out, "  --> {}", d.span);
    if let (Some(i), Some(b)) = (d.span.inst, block) {
        if let Some(inst) = b.instructions().get(i) {
            let label = format!("i{i}");
            let text = inst.to_string();
            let _ = writeln!(out, "   |");
            let _ = writeln!(out, "   | {label}: {text}");
            let _ = writeln!(
                out,
                "   | {}{}",
                " ".repeat(label.len() + 2),
                "^".repeat(text.chars().count().max(1))
            );
        }
    }
    for note in &d.notes {
        let _ = writeln!(out, "   = note: {note}");
    }
    out
}

/// Renders a whole report, resolving spans against the program's blocks,
/// followed by a one-line summary.
#[must_use]
pub fn render_report(report: &LintReport, program: Option<&EdgeProgram>) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let block = d.span.block.and_then(|a| program.and_then(|p| p.block(a)));
        out.push_str(&render_in(d, block));
    }
    let _ = writeln!(
        out,
        "{} error{}, {} warning{}, {} info",
        report.error_count(),
        if report.error_count() == 1 { "" } else { "s" },
        report.count(Severity::Warn),
        if report.count(Severity::Warn) == 1 {
            ""
        } else {
            "s"
        },
        report.count(Severity::Info),
    );
    out
}
