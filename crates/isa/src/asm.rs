//! A small textual assembly format for hyperblocks.
//!
//! Useful for tests, debugging dumps, and golden files. The format is
//! line-oriented:
//!
//! ```text
//! block @0x1000 {
//!   i0: read r0 -> i2.L
//!   i1: read r1 -> i2.R
//!   i2: add -> i3.L
//!   i3: write r2
//!   i4: bro halt e0
//! }
//! ```
//!
//! Predicated instructions carry a `p_t`/`p_f` prefix; immediates are
//! `#n`, LSIDs `lsN`, registers `rN`, exits `eN`, static branch targets
//! `@0x...`, and dataflow targets `-> iN.L|R|P`.

use crate::{
    Block, BlockError, BranchInfo, BranchKind, EdgeProgram, InstId, Instruction, Lsid, Opcode,
    Operand, PredSense, Reg, Target,
};
use std::fmt;

/// Failure to parse assembly text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// Syntactic problem.
    Syntax {
        /// The 1-based line to blame; `None` for a missing entry, header
        /// or `}`, and for a program that does not validate.
        line: Option<usize>,
        /// Human-readable description.
        message: String,
    },
    /// The parsed instructions do not form a valid block.
    Invalid {
        /// The violated block invariant.
        error: BlockError,
        /// Source line of the offending instruction, when the error
        /// names one (see [`BlockError::primary_inst`]).
        line: Option<usize>,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Syntax { line, message } => {
                if let Some(line) = line {
                    write!(f, "line {line}: ")?;
                }
                f.write_str(message)
            }
            AsmError::Invalid {
                error,
                line: Some(line),
            } => write!(f, "line {line}: invalid block: {error}"),
            AsmError::Invalid { error, line: None } => write!(f, "invalid block: {error}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<BlockError> for AsmError {
    fn from(error: BlockError) -> Self {
        AsmError::Invalid { error, line: None }
    }
}

/// Renders a block in the textual assembly format.
#[must_use]
pub fn format_block(block: &Block) -> String {
    let mut out = format!("block @{:#x} {{\n", block.address());
    for (i, inst) in block.instructions().iter().enumerate() {
        out.push_str(&format!("  i{i}: "));
        match inst.pred {
            Some(PredSense::OnTrue) => out.push_str("p_t "),
            Some(PredSense::OnFalse) => out.push_str("p_f "),
            None => {}
        }
        out.push_str(inst.opcode.mnemonic());
        if let Some(b) = &inst.branch {
            out.push_str(&format!(" {} e{}", b.kind, b.exit_id));
            if let Some(t) = b.target {
                out.push_str(&format!(" @{t:#x}"));
            }
        }
        if let Some(r) = inst.reg {
            out.push_str(&format!(" {r}"));
        }
        if inst.opcode.has_immediate() {
            out.push_str(&format!(" #{}", inst.imm));
        }
        if let Some(l) = inst.lsid {
            out.push_str(&format!(" {l}"));
        }
        let targets: Vec<String> = inst.targets().map(|t| t.to_string()).collect();
        if !targets.is_empty() {
            out.push_str(" -> ");
            out.push_str(&targets.join(" "));
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

fn syntax(line: impl Into<Option<usize>>, message: impl Into<String>) -> AsmError {
    AsmError::Syntax {
        line: line.into(),
        message: message.into(),
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_target(tok: &str) -> Option<Target> {
    let (inst, slot) = tok.split_once('.')?;
    let idx: usize = inst.strip_prefix('i')?.parse().ok()?;
    if idx >= crate::MAX_BLOCK_INSTRUCTIONS {
        return None;
    }
    let operand = match slot {
        "L" => Operand::Left,
        "R" => Operand::Right,
        "P" => Operand::Pred,
        _ => return None,
    };
    Some(Target::new(InstId::new(idx), operand))
}

/// Parses a block from the textual assembly format.
///
/// # Errors
///
/// Returns [`AsmError::Syntax`] for malformed text and
/// [`AsmError::Invalid`] if the instructions violate block invariants.
pub fn parse_block(text: &str) -> Result<Block, AsmError> {
    parse_block_at(text, 0)
}

/// [`parse_block`] with a line offset, so blocks embedded in a larger
/// source (see [`parse_program`]) report absolute line numbers.
fn parse_block_at(text: &str, offset: usize) -> Result<Block, AsmError> {
    let mut address: Option<u64> = None;
    let mut insts: Vec<Instruction> = Vec::new();
    // Source line each parsed instruction came from, for error spans.
    let mut inst_lines: Vec<usize> = Vec::new();
    let mut saw_close = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = offset + lineno + 1;
        let code = raw.split(';').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        if let Some(rest) = code.strip_prefix("block") {
            let rest = rest.trim();
            let rest = rest
                .strip_suffix('{')
                .ok_or_else(|| syntax(line, "expected '{' after block header"))?
                .trim();
            let addr = rest
                .strip_prefix('@')
                .and_then(parse_u64)
                .ok_or_else(|| syntax(line, "expected '@<address>'"))?;
            address = Some(addr);
            continue;
        }
        if code == "}" {
            saw_close = true;
            continue;
        }

        let (label, body) = code
            .split_once(':')
            .ok_or_else(|| syntax(line, "expected 'iN:' label"))?;
        let expect_idx: usize = label
            .trim()
            .strip_prefix('i')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| syntax(line, "bad instruction label"))?;
        if expect_idx != insts.len() {
            return Err(syntax(
                line,
                format!(
                    "label i{expect_idx} out of order (expected i{})",
                    insts.len()
                ),
            ));
        }

        let mut toks = body.split_whitespace().peekable();
        let mut pred = None;
        match toks.peek() {
            Some(&"p_t") => {
                pred = Some(PredSense::OnTrue);
                toks.next();
            }
            Some(&"p_f") => {
                pred = Some(PredSense::OnFalse);
                toks.next();
            }
            _ => {}
        }
        let mnem = toks
            .next()
            .ok_or_else(|| syntax(line, "missing mnemonic"))?;
        let opcode = Opcode::from_mnemonic(mnem)
            .ok_or_else(|| syntax(line, format!("unknown mnemonic '{mnem}'")))?;
        let mut inst = Instruction::new(opcode);
        inst.pred = pred;

        let mut branch_kind: Option<BranchKind> = None;
        let mut exit_id: Option<u8> = None;
        let mut branch_target: Option<u64> = None;
        if opcode == Opcode::Bro {
            let kind_tok = toks
                .next()
                .ok_or_else(|| syntax(line, "bro needs a branch kind"))?;
            branch_kind = Some(match kind_tok {
                "br" => BranchKind::Branch,
                "call" => BranchKind::Call,
                "ret" => BranchKind::Return,
                "seq" => BranchKind::Seq,
                "halt" => BranchKind::Halt,
                other => return Err(syntax(line, format!("unknown branch kind '{other}'"))),
            });
        }

        let mut expecting_targets = false;
        for tok in toks {
            if tok == "->" {
                expecting_targets = true;
            } else if expecting_targets {
                let t =
                    parse_target(tok).ok_or_else(|| syntax(line, format!("bad target '{tok}'")))?;
                if !inst.push_target(t) {
                    return Err(syntax(line, "more than two targets"));
                }
            } else if let Some(imm) = tok.strip_prefix('#') {
                inst.imm = imm
                    .parse()
                    .map_err(|_| syntax(line, format!("bad immediate '{tok}'")))?;
            } else if let Some(ls) = tok.strip_prefix("ls") {
                let n: usize = ls
                    .parse()
                    .map_err(|_| syntax(line, format!("bad lsid '{tok}'")))?;
                if n >= crate::MAX_BLOCK_LSIDS {
                    return Err(syntax(line, format!("lsid {n} out of range")));
                }
                inst.lsid = Some(Lsid::new(n));
            } else if let Some(r) = tok.strip_prefix('r') {
                let n: usize = r
                    .parse()
                    .map_err(|_| syntax(line, format!("bad register '{tok}'")))?;
                if n >= crate::NUM_ARCH_REGS {
                    return Err(syntax(line, format!("register {n} out of range")));
                }
                inst.reg = Some(Reg::new(n));
            } else if let Some(e) = tok.strip_prefix('e') {
                exit_id = Some(
                    e.parse()
                        .map_err(|_| syntax(line, format!("bad exit '{tok}'")))?,
                );
            } else if let Some(t) = tok.strip_prefix('@') {
                branch_target =
                    Some(parse_u64(t).ok_or_else(|| syntax(line, format!("bad target '{tok}'")))?);
            } else {
                return Err(syntax(line, format!("unexpected token '{tok}'")));
            }
        }

        if let Some(kind) = branch_kind {
            inst.branch = Some(BranchInfo {
                exit_id: exit_id.ok_or_else(|| syntax(line, "bro needs an exit id"))?,
                kind,
                target: branch_target,
            });
        }
        insts.push(inst);
        inst_lines.push(line);
    }

    let address = address.ok_or_else(|| syntax(None, "missing 'block @<addr> {' header"))?;
    if !saw_close {
        return Err(syntax(None, "missing closing '}'"));
    }
    Block::from_instructions(address, insts).map_err(|error| {
        let line = error
            .primary_inst()
            .and_then(|i| inst_lines.get(i).copied());
        AsmError::Invalid { error, line }
    })
}

/// Renders a whole program: blocks in address order, preceded by an
/// `entry` directive.
#[must_use]
pub fn format_program(program: &EdgeProgram) -> String {
    let mut out = format!("entry @{:#x}\n\n", program.entry());
    for (_, block) in program.iter() {
        out.push_str(&format_block(block));
        out.push('\n');
    }
    out
}

/// Parses a whole program produced by [`format_program`].
///
/// # Errors
///
/// Returns [`AsmError`] for malformed text, invalid blocks, or program
/// validation failures (the latter a syntax error with no line).
pub fn parse_program(text: &str) -> Result<EdgeProgram, AsmError> {
    let mut entry: Option<u64> = None;
    let mut builder = crate::ProgramBuilder::new();
    let mut current = String::new();
    let mut depth = 0usize;
    let mut block_start = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = raw.split(';').next().unwrap_or("").trim();
        if depth == 0 {
            if code.is_empty() {
                continue;
            }
            if let Some(rest) = code.strip_prefix("entry") {
                entry = Some(
                    rest.trim()
                        .strip_prefix('@')
                        .and_then(parse_u64)
                        .ok_or_else(|| syntax(line, "expected 'entry @<address>'"))?,
                );
                continue;
            }
            if code.starts_with("block") {
                depth = 1;
                block_start = lineno;
                current.clear();
                current.push_str(raw);
                current.push('\n');
                continue;
            }
            return Err(syntax(line, format!("unexpected '{code}'")));
        }
        current.push_str(raw);
        current.push('\n');
        if code == "}" {
            depth = 0;
            let block = parse_block_at(&current, block_start)?;
            builder
                .add_block(block)
                .map_err(|e| syntax(line, e.to_string()))?;
        }
    }
    let entry = entry.ok_or_else(|| syntax(None, "missing 'entry @<address>'"))?;
    builder
        .finish(entry)
        .map_err(|e| syntax(None, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockBuilder;

    fn sample_block() -> Block {
        let mut b = BlockBuilder::new(0x1000);
        let x = b.read(Reg::new(0));
        let y = b.read(Reg::new(1));
        let cmp = b.op2(Opcode::Tlt, x, y);
        b.set_pred(Some((cmp, PredSense::OnTrue)));
        let big = b.movi(100);
        b.set_pred(Some((cmp, PredSense::OnFalse)));
        let small = b.movi(-5);
        b.set_pred(None);
        let w = b.write_id(Reg::new(2));
        b.connect(big, w, Operand::Left);
        b.connect(small, w, Operand::Left);
        let addr = b.movi(256);
        b.store(addr, x, 0);
        b.branch(BranchKind::Branch, Some(0x1000), 0);
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_through_text() {
        let blk = sample_block();
        let text = format_block(&blk);
        let parsed = parse_block(&text).unwrap();
        assert_eq!(parsed, blk);
    }

    #[test]
    fn parse_rejects_unknown_mnemonic() {
        let err = parse_block("block @0x0 {\n  i0: zorp\n}\n").unwrap_err();
        assert!(
            matches!(err, AsmError::Syntax { line: Some(2), .. }),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_out_of_order_labels() {
        let err = parse_block("block @0x0 {\n  i1: bro halt e0\n}\n").unwrap_err();
        assert!(matches!(err, AsmError::Syntax { .. }));
    }

    #[test]
    fn parse_rejects_invalid_block() {
        // A lone write has no producer: structurally parses, fails validation.
        let err = parse_block("block @0x0 {\n  i0: write r0\n  i1: bro halt e0\n}\n").unwrap_err();
        // The validation error points back at the offending source line.
        assert!(
            matches!(
                err,
                AsmError::Invalid {
                    error: BlockError::UnfedOperand { inst: 0, .. },
                    line: Some(2),
                }
            ),
            "{err:?}"
        );
        assert!(
            err.to_string().starts_with("line 2: invalid block:"),
            "{err}"
        );
    }

    #[test]
    fn invalid_block_without_culprit_has_no_line() {
        // NoExit names no instruction, so there is no line to point at.
        let err = parse_block("block @0x0 {\n  i0: movi #1\n}\n").unwrap_err();
        assert!(
            matches!(
                err,
                AsmError::Invalid {
                    error: BlockError::NoExit,
                    line: None,
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn program_parse_reports_absolute_lines() {
        // The bad instruction is in the *second* block; the reported line
        // must be absolute in the program source, not block-relative.
        let text = "entry @0x1000\n\
                    block @0x1000 {\n\
                      i0: bro seq e0 @0x2000\n\
                    }\n\
                    block @0x2000 {\n\
                      i0: write r0\n\
                      i1: bro halt e0\n\
                    }\n";
        let err = parse_program(text).unwrap_err();
        assert!(
            matches!(err, AsmError::Invalid { line: Some(6), .. }),
            "{err:?}"
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n; a comment\nblock @0x40 {\n\n  i0: bro halt e0 ; inline\n}\n";
        let blk = parse_block(text).unwrap();
        assert_eq!(blk.address(), 0x40);
        assert_eq!(blk.len(), 1);
    }

    #[test]
    fn display_error_messages() {
        let e = syntax(3, "oops");
        assert_eq!(e.to_string(), "line 3: oops");
    }

    #[test]
    fn program_roundtrip_through_text() {
        let mut pb = crate::ProgramBuilder::new();
        let mut b0 = BlockBuilder::new(0x1000);
        let v = b0.movi(9);
        b0.write(Reg::new(1), v);
        b0.branch(BranchKind::Seq, Some(0x1200), 0);
        pb.add_block(b0.finish().unwrap()).unwrap();
        let mut b1 = BlockBuilder::new(0x1200);
        b1.branch(BranchKind::Halt, None, 0);
        pb.add_block(b1.finish().unwrap()).unwrap();
        let program = pb.finish(0x1000).unwrap();

        let text = format_program(&program);
        let parsed = parse_program(&text).expect("parses");
        assert_eq!(parsed, program);
    }

    #[test]
    fn program_parse_rejects_missing_entry() {
        let err = parse_program("block @0x0 {\n  i0: bro halt e0\n}\n").unwrap_err();
        assert!(err.to_string().contains("entry"));
    }

    #[test]
    fn program_parse_rejects_dangling_target() {
        let text = "entry @0x0\nblock @0x0 {\n  i0: bro br e0 @0x999\n}\n";
        let err = parse_program(text).unwrap_err();
        assert!(
            matches!(err, AsmError::Syntax { line: None, .. }),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "block 0x0 branches to nonexistent 0x999");
    }
}
