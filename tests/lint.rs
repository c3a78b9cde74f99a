//! The linter's two contracts with the outside. The machine-readable
//! diagnostics format is pinned byte for byte on a fixture: tools (editor
//! integrations, scripts) parse this JSON, so field names, ordering
//! and severity strings change only deliberately, never by accident. And
//! every built-in workload compiles to an EDGE program with **zero
//! error-severity** diagnostics: error lints are sound (they name a real
//! deadlock or memory-order violation on a real path), so a failure there
//! means codegen regressed, not that the linter is noisy. The same
//! compiled suite also holds the ISA to what it executes: every opcode
//! appears in some kernel.

use clp::core::compile_workload;
use clp::isa::asm::parse_program;
use clp::isa::Opcode;
use clp::lint::{lint_program, render_report, LintCode, LintConfig, Severity};
use clp::workloads::suite;
use serde_json::Value;

const FIXTURE: &str = "entry @0x1000
block @0x1000 {
  i0: read r1 -> i3.P
  i1: movi #42
  i2: movi #256 -> i3.L -> i3.R
  i3: p_t st #0 ls0
  i4: bro halt e0
}
";

const GOLDEN: &str = r#"{
  "errors": 1,
  "warnings": 1,
  "infos": 0,
  "diagnostics": [
    {
      "code": "L201",
      "name": "dead-dataflow",
      "severity": "warning",
      "block": 4096,
      "inst": 1,
      "message": "result of movi reaches no register write, store, or branch",
      "notes": [
        "the instruction occupies an issue-window slot for no effect"
      ]
    },
    {
      "code": "L005",
      "name": "unresolved-store",
      "severity": "error",
      "block": 4096,
      "inst": 3,
      "message": "store slot ls0 is neither stored nor nullified on this path; the block's store outputs never resolve",
      "notes": [
        "on predicate assignment i0(read)=0"
      ]
    }
  ]
}"#;

#[test]
fn diagnostics_json_is_pinned() {
    let program = parse_program(FIXTURE).expect("fixture parses");
    let report = lint_program(&program, &LintConfig::default());
    assert_eq!(report.to_json(), GOLDEN);
}

#[test]
fn golden_is_valid_json_with_the_expected_shape() {
    // Guard the guard: the pinned text itself must parse, and the
    // summary counts must agree with the diagnostics array.
    let v = serde_json::from_str(GOLDEN).expect("golden parses");
    let Value::Object(fields) = &v else {
        panic!("golden is not an object")
    };
    let get = |k: &str| {
        fields
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, val)| val)
            .unwrap_or_else(|| panic!("missing field {k}"))
    };
    let Value::Array(diags) = get("diagnostics") else {
        panic!("diagnostics is not an array")
    };
    assert_eq!(diags.len(), 2);
    assert_eq!(get("errors").as_u64(), Some(1));
    assert_eq!(get("warnings").as_u64(), Some(1));
}

#[test]
fn full_suite_lints_with_zero_errors() {
    let mut checked = 0;
    for w in suite::all() {
        let cw = compile_workload(&w).expect("suite workloads compile");
        let report = lint_program(&cw.edge, &LintConfig::default());
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "{}: {} error lint(s):\n{}",
            w.name,
            errors.len(),
            render_report(&report, Some(&cw.edge))
        );
        checked += 1;
    }
    assert!(checked >= 20, "suite unexpectedly small: {checked}");
}

/// The ISA is cut down to what its workloads execute: an opcode no
/// compiled suite kernel contains is dead weight in the table, the
/// evaluator and the linter, so it goes (or a kernel starts using it).
#[test]
fn every_opcode_appears_in_a_compiled_suite_kernel() {
    let mut used = Vec::new();
    for w in suite::all() {
        let cw = compile_workload(&w).expect("suite workloads compile");
        for (_, block) in cw.edge.iter() {
            used.extend(block.instructions().iter().map(|inst| inst.opcode));
        }
    }
    let unused: Vec<&str> = Opcode::ALL
        .iter()
        .filter(|op| !used.contains(op))
        .map(|op| op.mnemonic())
        .collect();
    assert!(
        unused.is_empty(),
        "opcodes no compiled suite kernel contains: {}",
        unused.join(", ")
    );
}

#[test]
fn known_benign_warnings_only() {
    // The suite is allowed exactly two warning classes today: L403
    // (path-insensitive maybe-uninit reads of caller scratch registers)
    // and L201 (dead codegen artifacts). Anything new should be looked
    // at, not silently accumulated.
    let allowed = [
        LintCode::MaybeUninitRead,
        LintCode::DeadDataflow,
        LintCode::DeepFanoutTree,
        LintCode::LongOperandRoute,
    ];
    for w in suite::all() {
        let cw = compile_workload(&w).expect("compiles");
        let report = lint_program(&cw.edge, &LintConfig::default());
        for d in &report.diagnostics {
            assert!(
                allowed.contains(&d.code),
                "{}: unexpected diagnostic class {}: {}",
                w.name,
                d.code,
                d.message
            );
        }
    }
}
