//! Pins, on the built `clp-serve` binary, what its flag table refuses.

use std::process::Command;

/// The clp-scope sampling interval is `ScopeOptions::default()`'s, not
/// a flag: naming it is a usage error like any unknown flag.
#[test]
fn the_scope_interval_is_not_a_flag() {
    let gone = concat!("--scope", "-period");
    let out = Command::new(env!("CARGO_BIN_EXE_clp-serve"))
        .args(["--scope", gone, "100"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("clp-serve starts");
    assert_eq!(out.status.code(), Some(2));
    let want = format!("clp-serve: unknown flag `{gone}` (--help for usage)\n");
    assert_eq!(String::from_utf8_lossy(&out.stderr), want);
    assert!(out.stdout.is_empty(), "nothing ran");
}

/// A count of zero workers, queue slots, degradation depth or ticks
/// between arrivals is refused, not raised to one.
#[test]
fn zero_counts_are_usage_errors() {
    for flag in ["--workers", "--queue-cap", "--degrade-at", "--mean-gap"] {
        let out = Command::new(env!("CARGO_BIN_EXE_clp-serve"))
            .args([flag, "0"])
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("clp-serve starts");
        assert_eq!(out.status.code(), Some(2), "{flag} 0");
        let want = format!("clp-serve: {flag} wants a number >= 1, got `0` (--help for usage)\n");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want);
        assert!(out.stdout.is_empty(), "{flag} 0: nothing ran");
    }
}
