//! Lint soundness: the error-severity diagnostics in `clp-lint` claim a
//! block *cannot* execute correctly (an exit never fires, a write or
//! store slot deadlocks, memory order is ambiguous). So on randomly
//! generated programs that provably run clean — the reference
//! interpreter terminates and the self-checking workload verifies — the
//! linter must report **zero errors**. Warnings and infos are heuristic
//! and allowed.
//!
//! The generator (see `tests/common/mod.rs`) covers predicated
//! hyperblocks (if-conversion of diamonds), multi-exit blocks
//! (conditional early returns, rotated loops), and disambiguated memory
//! traffic, so this exercises every block-level analysis on realistic
//! codegen output.

mod common;

use clp::compiler::{compile, interpret, CompileOptions};
use clp::lint::{lint_program, LintConfig, Severity};
use common::{arb_stmt, build_workload, Stmt};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn clean_programs_have_zero_error_lints(
        stmts in prop::collection::vec(arb_stmt(3), 1..8),
        seeds in prop::collection::vec(-50i64..50, 1..4),
    ) {
        let w = build_workload(&stmts, &seeds);

        // Prove the program runs clean before holding the linter to it.
        let mut image = w.initial_image();
        let golden = interpret(&w.program, &w.args, &mut image, 50_000_000)
            .expect("generated programs terminate");
        prop_assert!(golden.ret.is_some());

        let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
        let report = lint_program(&edge, &LintConfig::default());
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
            .collect();
        prop_assert!(
            errors.is_empty(),
            "sound lints fired on a clean program: {errors:#?}"
        );
    }
}

#[test]
fn generator_reaches_predicated_and_multi_exit_blocks() {
    // The soundness property is only meaningful if the generator really
    // produces the shapes the lints reason about. Build a directed
    // program and check the compiled output has them.
    let stmts = vec![
        Stmt::If {
            cond: 0,
            then_s: vec![Stmt::Store(1, 2), Stmt::Const(3)],
            else_s: vec![Stmt::Store(2, 1)],
        },
        Stmt::IfRet { cond: 1, val: 0 },
        Stmt::Loop {
            trips: 3,
            body: vec![Stmt::Bin(clp::isa::Opcode::Add, 0, 1)],
        },
    ];
    let w = build_workload(&stmts, &[7, 9]);
    let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
    let predicated = edge
        .iter()
        .any(|(_, b)| b.instructions().iter().any(|i| i.pred.is_some()));
    let multi_exit = edge.iter().any(|(_, b)| b.exits().len() >= 2);
    assert!(predicated, "no predicated instructions generated");
    assert!(multi_exit, "no multi-exit blocks generated");

    let report = lint_program(&edge, &LintConfig::default());
    assert_eq!(
        report.error_count(),
        0,
        "directed program lints clean:\n{}",
        clp::lint::render_report(&report, Some(&edge))
    );
}
