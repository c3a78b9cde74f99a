//! EDGE assembly tour: build a hyperblock by hand with the block
//! builder, print its textual assembly, round-trip it through the
//! parser, and show how composition reinterprets instruction IDs as
//! placement coordinates.
//!
//! ```sh
//! cargo run --release --example edge_assembly
//! ```

use clp::isa::{asm, BlockBuilder, BranchKind, Opcode, PredSense, Reg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // r3 = (r1 < r2) ? r1*2 : r2+1, then loop back to ourselves.
    let mut b = BlockBuilder::new(0x4000);
    let x = b.read(Reg::new(1));
    let y = b.read(Reg::new(2));
    let cmp = b.op2(Opcode::Tlt, x, y);
    b.set_pred(Some((cmp, PredSense::OnTrue)));
    let two = b.movi(2);
    let doubled = b.op2(Opcode::Mul, x, two);
    b.set_pred(Some((cmp, PredSense::OnFalse)));
    let bumped = b.op1i(Opcode::Addi, y, 1);
    b.set_pred(None);
    let w = b.write_id(Reg::new(3));
    b.connect(doubled, w, clp::isa::Operand::Left);
    b.connect(bumped, w, clp::isa::Operand::Left);
    b.branch(BranchKind::Branch, Some(0x4000), 0);
    let block = b.finish()?;

    println!("=== textual assembly ===");
    let text = asm::format_block(&block);
    print!("{text}");

    // Round-trip through the parser.
    let parsed = asm::parse_block(&text)?;
    assert_eq!(parsed, block);

    println!("=== composition reinterprets the same target bits ===");
    for n_cores in [1usize, 4, 32] {
        let placements: Vec<String> = block
            .instructions()
            .iter()
            .enumerate()
            .take(6)
            .map(|(i, _)| {
                let id = clp::isa::InstId::new(i);
                format!(
                    "i{i}->core{}slot{}",
                    id.core_of(n_cores),
                    id.slot_of(n_cores)
                )
            })
            .collect();
        println!("{n_cores:>2} cores: {}", placements.join(" "));
    }
    Ok(())
}
