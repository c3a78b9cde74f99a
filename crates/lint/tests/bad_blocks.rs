//! One hand-written bad block per analysis: each must be structurally
//! valid (accepted by `Block::from_instructions`) yet caught by the
//! expected lint code.

use clp_isa::asm::{parse_block, parse_program};
use clp_isa::{Block, InstId, Instruction, Opcode, Operand, Reg, Target};
use clp_lint::{lint_block, lint_program, LintCode, LintConfig, Severity};

fn block(text: &str) -> Block {
    parse_block(text).expect("structurally valid block")
}

fn codes_of(diags: &[clp_lint::Diagnostic]) -> Vec<LintCode> {
    diags.iter().map(|d| d.code).collect()
}

fn assert_caught(diags: &[clp_lint::Diagnostic], code: LintCode) {
    assert!(
        diags.iter().any(|d| d.code == code),
        "expected {code}, got {:?}",
        codes_of(diags)
    );
}

// ---- analysis 1: predicate paths -----------------------------------------

#[test]
fn predicate_path_with_no_firing_exit() {
    // The only exit is predicated on a read; when the register is zero
    // no exit fires and the block can never commit.
    let b = block(
        "block @0x1000 {
           i0: read r1 -> i1.P
           i1: p_t bro halt e0
         }",
    );
    let diags = lint_block(&b, &LintConfig::default());
    assert_caught(&diags, LintCode::NoFiringExit);
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::NoFiringExit && d.code.severity() == Severity::Error));
}

#[test]
fn two_exits_fire_on_one_path() {
    let b = block(
        "block @0x1000 {
           i0: bro halt e0
           i1: bro halt e1
         }",
    );
    assert_caught(
        &lint_block(&b, &LintConfig::default()),
        LintCode::MultipleFiringExits,
    );
}

#[test]
fn write_starved_on_false_path() {
    // The write's only producer is predicated; on the false path the
    // register output never resolves.
    let b = block(
        "block @0x1000 {
           i0: read r1 -> i1.P
           i1: p_t movi #7 -> i2.L
           i2: write r2
           i3: bro halt e0
         }",
    );
    assert_caught(
        &lint_block(&b, &LintConfig::default()),
        LintCode::StarvedWrite,
    );
}

#[test]
fn write_delivered_twice() {
    let b = block(
        "block @0x1000 {
           i0: movi #1 -> i2.L
           i1: movi #2 -> i2.L
           i2: write r2
           i3: bro halt e0
         }",
    );
    assert_caught(
        &lint_block(&b, &LintConfig::default()),
        LintCode::DoubleWrite,
    );
}

#[test]
fn store_slot_unresolved_on_false_path() {
    let b = block(
        "block @0x1000 {
           i0: read r1 -> i2.P
           i1: movi #256 -> i2.L -> i2.R
           i2: p_t st #0 ls0
           i3: bro halt e0
         }",
    );
    let diags = lint_block(&b, &LintConfig::default());
    assert_caught(&diags, LintCode::UnresolvedStore);
    // The value operand of the store is also starved? No: predicated-off
    // stores consume; the *slot* is the issue. The fix is a null on the
    // complementary predicate:
    let fixed = block(
        "block @0x1000 {
           i0: read r1 -> i2.P -> i3.P
           i1: movi #256 -> i2.L -> i2.R
           i2: p_t st #0 ls0
           i3: p_f null ls0
           i4: bro halt e0
         }",
    );
    let diags = lint_block(&fixed, &LintConfig::default());
    assert!(
        !diags.iter().any(|d| d.code.severity() == Severity::Error),
        "nullified store should be clean, got {:?}",
        codes_of(&diags)
    );
}

#[test]
fn store_slot_resolved_twice() {
    let b = block(
        "block @0x1000 {
           i0: movi #256 -> i1.L -> i1.R
           i1: st #0 ls0
           i2: null ls0
           i3: bro halt e0
         }",
    );
    assert_caught(
        &lint_block(&b, &LintConfig::default()),
        LintCode::DoubleStore,
    );
}

#[test]
fn contradictory_predicates_are_dead() {
    // i2 requires the predicate true *and* false via a mov chain: it can
    // never fire.
    let b = block(
        "block @0x1000 {
           i0: read r1 -> i1.P -> i2.P
           i1: p_t movi #1 -> i3.L
           i2: p_f movi #2 -> i3.L
           i3: write r2
           i4: bro halt e0
           i5: read r2 -> i6.P -> i6.L
           i6: p_t mov -> i7.P
           i7: p_f movi #9
         }",
    );
    // i6 delivers only when r2 is truthy... i7 wants pred false, but the
    // mov forwards the truthy value: contradiction, i7 never fires.
    let diags = lint_block(&b, &LintConfig::default());
    assert!(
        diags
            .iter()
            .any(|d| d.code == LintCode::DeadPredicatePath && d.span.inst == Some(7)),
        "expected dead i7, got {:?}",
        codes_of(&diags)
    );
}

#[test]
fn too_many_predicate_conditions_are_sampled() {
    // Thirteen independent conditions, one past the enumeration limit:
    // the paths are sampled, and the report says so.
    let mut text = "block @0x1000 {\n".to_string();
    for k in 0..13 {
        text += &format!("i{k}: read r{} -> i{}.P\n", k + 1, k + 13);
    }
    for k in 13..26 {
        text += &format!("i{k}: p_t movi #1\n");
    }
    text += "i26: bro halt e0\n}";
    assert_caught(
        &lint_block(&block(&text), &LintConfig::default()),
        LintCode::PredicateSpaceTruncated,
    );
}

#[test]
fn a_store_nullifying_null_with_targets() {
    let b = block(
        "block @0x1000 {
           i0: null ls0 -> i1.L
           i1: write r1
           i2: bro halt e0
         }",
    );
    assert_caught(
        &lint_block(&b, &LintConfig::default()),
        LintCode::NullStoreFanout,
    );
}

// ---- analysis 2: LSID order ----------------------------------------------

#[test]
fn duplicate_lsid_loads_conflict() {
    let b = block(
        "block @0x1000 {
           i0: movi #256 -> i1.L -> i2.L
           i1: ld #0 ls0 -> i3.L
           i2: ld #8 ls0 -> i3.R
           i3: add -> i4.L
           i4: write r1
           i5: bro halt e0
         }",
    );
    assert_caught(
        &lint_block(&b, &LintConfig::default()),
        LintCode::DuplicateLsid,
    );
}

#[test]
fn store_load_forwarding_cycle() {
    // The store (ls0) takes its value from a load (ls1) of the same
    // address: the load must observe the older store, which waits on the
    // load.
    let b = block(
        "block @0x1000 {
           i0: movi #256 -> i1.L -> i2.L
           i1: ld #0 ls1 -> i2.R
           i2: st #0 ls0
           i3: bro halt e0
         }",
    );
    let diags = lint_block(&b, &LintConfig::default());
    assert_caught(&diags, LintCode::ForwardingCycle);
    assert_caught(&diags, LintCode::LsidOrderInversion);
}

// ---- analysis 3: dead dataflow -------------------------------------------

#[test]
fn dead_result_is_flagged() {
    let b = block(
        "block @0x1000 {
           i0: movi #42
           i1: bro halt e0
         }",
    );
    let diags = lint_block(&b, &LintConfig::default());
    assert!(
        diags
            .iter()
            .any(|d| d.code == LintCode::DeadDataflow && d.span.inst == Some(0)),
        "expected dead i0, got {:?}",
        codes_of(&diags)
    );
}

// ---- analysis 4: placement cost ------------------------------------------

#[test]
fn long_operand_route_and_deep_fanout() {
    // i0 (core 0, mesh corner) feeds i31 (core 31, opposite corner of
    // the 4x8 region): 10 hops on a 32-core composition.
    let mut insts = vec![Instruction::new(Opcode::Movi); 32];
    insts[0].imm = 1;
    insts[0].targets[0] = Some(Target::new(InstId::new(31), Operand::Left));
    insts[31] = Instruction::new(Opcode::Write);
    insts[31].reg = Some(Reg::new(1));
    let mut halt = Instruction::new(Opcode::Bro);
    halt.branch = Some(clp_isa::BranchInfo {
        exit_id: 0,
        kind: clp_isa::BranchKind::Halt,
        target: None,
    });
    insts.push(halt);
    let b = Block::from_instructions(0x1000, insts).expect("valid block");
    assert_caught(
        &lint_block(&b, &LintConfig::default()),
        LintCode::LongOperandRoute,
    );

    let deep = block(
        "block @0x1000 {
           i0: movi #1 -> i1.L
           i1: mov -> i2.L
           i2: mov -> i3.L
           i3: mov -> i4.L
           i4: mov -> i5.L
           i5: mov -> i6.L
           i6: write r1
           i7: bro halt e0
         }",
    );
    assert_caught(
        &lint_block(&deep, &LintConfig::default()),
        LintCode::DeepFanoutTree,
    );
}

// ---- analysis 5: whole program -------------------------------------------

#[test]
fn unreachable_block_and_uninit_read() {
    let p = parse_program(
        "entry @0x1000
         block @0x1000 {
           i0: read r50 -> i1.L
           i1: write r1
           i2: bro halt e0
         }
         block @0x2000 {
           i0: bro halt e0
         }",
    )
    .expect("valid program");
    let report = lint_program(&p, &LintConfig::default());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::UnreachableBlock && d.span.block == Some(0x2000)));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::MaybeUninitRead && d.span.inst == Some(0)));
}

#[test]
fn program_that_cannot_halt() {
    let p = parse_program(
        "entry @0x1000
         block @0x1000 {
           i0: bro br e0 @0x1000
         }",
    )
    .expect("valid program");
    let report = lint_program(&p, &LintConfig::default());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::NoHaltExit));
}

// ---- static cycle bounds -------------------------------------------------

#[test]
fn stores_fed_across_one_link_are_noc_bound() {
    // On two cores, even slots and even registers sit on core 0 and odd
    // slots on core 1: each store on core 1 takes both operands from a
    // core-0 register bank, so eight stores push sixteen operands
    // through the one 0->1 link, two a cycle, while core 1 issues two
    // stores a cycle and the dataflow is two reads deep.
    let mut text = "entry @0x1000\nblock @0x1000 {\n".to_string();
    for k in 0..8 {
        text += &format!(
            "i{}: read r{} -> i{}.L -> i{}.R\n",
            2 * k,
            2 * k + 2,
            2 * k + 1,
            2 * k + 1
        );
        text += &format!("i{}: st #0 ls{k}\n", 2 * k + 1);
    }
    text += "i16: bro halt e0\n}";
    let p = parse_program(&text).expect("valid program");
    let cfg = LintConfig { placement_cores: 2 };
    assert_caught(&clp_lint::lint_bounds(&p, &cfg), LintCode::NocBoundBlock);
}
