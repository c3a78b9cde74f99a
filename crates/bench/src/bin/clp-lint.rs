//! Standalone linter CLI: semantic static analysis of EDGE programs.
//!
//! ```sh
//! # Lint one built-in workload (compiled for 32 cores by default):
//! cargo run --release -p clp-bench --bin clp-lint -- mcf
//! # Lint the whole built-in suite:
//! cargo run --release -p clp-bench --bin clp-lint -- --suite
//! # Lint an assembled program from disk:
//! cargo run --release -p clp-bench --bin clp-lint -- --asm prog.edge
//! ```
//!
//! The L5xx bound lints' notes name the binding resource (dataflow
//! height vs issue bandwidth vs NoC link) per block. `clp-lint --help`
//! lists the flags and every lint code with its severity. Exits 1 on an
//! error-severity diagnostic, 2 on usage or input errors.

use clp_core::cli::{self, die, or_die, Flag, Spec, SUITE};
use clp_core::compile_workload;
use clp_isa::asm;
use clp_lint::{lint_program, render_report, LintCode, LintConfig, LintReport};
use clp_workloads::{suite, Workload};

#[rustfmt::skip]
const FLAGS: [Flag; 5] = [
    SUITE,
    Flag::value("--asm", "FILE", "also lint an assembled program from disk"),
    Flag::switch("--json", "emit the machine-readable diagnostics report"),
    Flag::switch("--bound", "add the L5xx static-cycle-bound lints"),
    Flag::value("--cores", "N", "composition size the placement/bound lints assume (default 32)"),
];

fn main() {
    let mut codes = "lint codes:\n".to_string();
    for &c in LintCode::ALL {
        codes.push_str(&format!(
            "  {} {:28} {:7} {}\n",
            c.code(),
            c.slug(),
            c.severity().to_string(),
            c.describes()
        ));
    }
    let spec = Spec {
        prog: "clp-lint",
        about:
            "Semantic static analysis of EDGE programs; exits 1 on an error-severity diagnostic.",
        positionals: &["[WORKLOAD...]"],
        flags: &FLAGS,
        epilog: &codes,
    };
    let args = spec.parse_env();
    let cfg = LintConfig {
        placement_cores: or_die(args.num("--cores", 1..)).unwrap_or(32),
    };
    let workloads: Vec<Workload> = match (args.positionals(), args.switch(SUITE.name)) {
        ([], true) => suite::all(),
        (names, false) => names.iter().map(|n| or_die(cli::workload(n))).collect(),
        _ => die("pass workload names or --suite, not both"),
    };
    let (json, bound) = (args.switch("--json"), args.switch("--bound"));

    // (label, program) pairs to lint.
    let mut programs = Vec::new();
    if let Some(path) = args.text("--asm") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(format!("cannot read `{path}`: {e}")));
        let prog = asm::parse_program(&text).unwrap_or_else(|e| die(format!("{path}: {e}")));
        programs.push((path, prog));
    }
    for w in &workloads {
        let cw = compile_workload(w)
            .unwrap_or_else(|e| die(format!("{} does not compile: {e:?}", w.name)));
        programs.push((w.name.to_string(), cw.edge));
    }
    if programs.is_empty() {
        die("nothing to lint: pass workload names, --suite, or --asm FILE");
    }

    let mut merged = LintReport::default();
    let mut failed = false;
    for (label, prog) in &programs {
        let mut report = lint_program(prog, &cfg);
        if bound {
            report.diagnostics.extend(clp_lint::lint_bounds(prog, &cfg));
        }
        if json {
            merged.diagnostics.extend(report.diagnostics.clone());
        } else if report.is_empty() {
            println!("{label}: clean");
        } else {
            print!("{label}:\n{}", render_report(&report, Some(prog)));
        }
        failed |= report.has_errors();
    }
    if json {
        println!("{}", merged.to_json());
    }
    std::process::exit(i32::from(failed));
}
