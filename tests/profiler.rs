//! clp-prof acceptance tests: the cycle-accounting layer is exact
//! (per-block buckets tile the fetch-to-commit span), bounded (the
//! critical path never exceeds elapsed cycles), deterministic, and free
//! (profiled and unprofiled runs produce bit-identical cycle counts).

mod common;

use clp::core::{
    compile_workload, run_compiled, run_compiled_observed, ObsOptions, ProcessorConfig,
};
use clp::obs::{Bucket, ProfileReport};
use clp::workloads::suite;
use proptest::prelude::*;

fn profiled(name: &str, cfg: &ProcessorConfig) -> (u64, ProfileReport) {
    let cw = compile_workload(&suite::by_name(name).unwrap()).unwrap();
    let obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let r = run_compiled_observed(&cw, cfg, &obs).expect("runs");
    (r.stats.cycles, r.profile.expect("profile present"))
}

fn check_invariants(report: &ProfileReport, cycles: u64) {
    assert_eq!(report.elapsed, cycles);
    assert!(
        report.crit_path_cycles() <= report.elapsed,
        "critical path {} exceeds elapsed {}",
        report.crit_path_cycles(),
        report.elapsed
    );
    for (pi, pp) in report.procs.iter().enumerate() {
        assert!(pp.blocks > 0, "proc {pi} committed no blocks");
        // Per-block top-down buckets sum exactly to the summed
        // fetch-to-commit spans (the walk tiles each span).
        assert_eq!(
            pp.block_buckets.total(),
            pp.block_cycles,
            "proc {pi}: block buckets do not tile the block spans"
        );
        // Run-level commit-pull accounting sums to the final commit
        // cycle, which is bounded by the elapsed time.
        assert_eq!(
            pp.run_buckets.total(),
            pp.crit_path_cycles,
            "proc {pi}: run buckets do not sum to the critical path"
        );
        assert!(pp.crit_path_cycles <= report.elapsed);
    }
    // Per-core attribution is exactly the run-level book, re-binned.
    let core_total: u64 = report.core_cycles.iter().sum();
    let run_total: u64 = report.procs.iter().map(|p| p.run_buckets.total()).sum();
    assert_eq!(core_total, run_total);
}

/// Buckets sum to spans and the critical path is bounded, across the
/// suite and composition sizes (including TRIPS centralized control).
#[test]
fn buckets_tile_spans_across_the_suite() {
    for name in ["conv", "tblook", "bezier", "genalg"] {
        for n in [1usize, 4, 16] {
            let (cycles, report) = profiled(name, &ProcessorConfig::tflex(n));
            check_invariants(&report, cycles);
        }
    }
    let (cycles, report) = profiled("conv", &ProcessorConfig::trips());
    check_invariants(&report, cycles);
}

/// Same seed, same configuration: the full breakdown (JSON schema
/// included) is identical between runs.
#[test]
fn profile_is_deterministic() {
    for name in ["conv", "equake"] {
        let (c1, r1) = profiled(name, &ProcessorConfig::tflex(8));
        let (c2, r2) = profiled(name, &ProcessorConfig::tflex(8));
        assert_eq!(c1, c2, "{name} cycles drifted between runs");
        assert_eq!(
            r1.to_json_value(),
            r2.to_json_value(),
            "{name} breakdown drifted between runs"
        );
    }
}

/// The dense link table reads out as the sorted map it replaced: links
/// strictly ascending by `(from, to)`, no zero entry, and every
/// run-level operand-network cycle spread onto exactly one link.
#[test]
fn link_cycles_are_ascending_nonzero_and_conserved() {
    for (name, n) in [("conv", 16usize), ("gzip", 16), ("bezier", 32)] {
        let (_, report) = profiled(name, &ProcessorConfig::tflex(n));
        let links = &report.link_cycles;
        assert!(!links.is_empty(), "{name} x{n}: no critical mesh link");
        for w in links.windows(2) {
            assert!(w[0].0 < w[1].0, "{name} x{n}: {:?} before {:?}", w[0], w[1]);
        }
        assert!(
            links.iter().all(|&(_, c)| c > 0),
            "{name} x{n}: a zero link"
        );
        let on_links: u64 = links.iter().map(|&(_, c)| c).sum();
        let noc = report.procs.iter();
        let noc: u64 = noc.map(|p| p.run_buckets.get(Bucket::OperandNoc)).sum();
        assert_eq!(on_links, noc, "{name} x{n}: link cycles != operand_noc");
    }
}

/// Profiling is observation only: enabling it leaves every cycle count
/// bit-identical, including against the pre-fault-layer goldens that
/// gate the fig5/TRIPS numbers.
#[test]
fn profiling_never_perturbs_cycle_counts() {
    let goldens: [(&str, usize, u64); 3] = [
        ("conv", 4, 9_383),
        ("conv", 32, 7_085),
        ("bezier", 32, 5_012),
    ];
    for (name, cores, want) in goldens {
        let cfg = ProcessorConfig::tflex(cores);
        let cw = compile_workload(&suite::by_name(name).unwrap()).unwrap();
        let off = run_compiled(&cw, &cfg).expect("runs");
        let (on_cycles, _) = profiled(name, &cfg);
        assert_eq!(off.stats.cycles, want, "{name} x{cores} golden drifted");
        assert_eq!(
            on_cycles, want,
            "{name} x{cores}: profiling perturbed the cycle count"
        );
    }
    // TRIPS golden too (centralized control path).
    let cw = compile_workload(&suite::by_name("conv").unwrap()).unwrap();
    let off = run_compiled(&cw, &ProcessorConfig::trips()).expect("runs");
    let (on_cycles, _) = profiled("conv", &ProcessorConfig::trips());
    assert_eq!(off.stats.cycles, 7_672);
    assert_eq!(on_cycles, 7_672);
}

/// The profile also lands in the stats registry under `profile/`.
#[test]
fn profile_appears_in_the_snapshot() {
    let cw = compile_workload(&suite::by_name("conv").unwrap()).unwrap();
    let obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(4), &obs).expect("runs");
    assert!(r.snapshot.expect("profile/elapsed") > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tiling invariant holds for arbitrary generated programs, not
    /// just the hand-written suite.
    #[test]
    fn buckets_tile_spans_on_generated_programs(
        stmts in prop::collection::vec(common::arb_stmt(2), 1..6),
        seeds in prop::collection::vec(-50i64..50, 1..4),
    ) {
        let w = common::build_workload(&stmts, &seeds);
        let cw = compile_workload(&w).unwrap();
        let obs = ObsOptions { profile: true, ..ObsOptions::default() };
        for n in [1usize, 4] {
            let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(n), &obs).expect("runs");
            let report = r.profile.expect("profile present");
            prop_assert_eq!(report.elapsed, r.stats.cycles);
            prop_assert!(report.crit_path_cycles() <= report.elapsed);
            for pp in &report.procs {
                prop_assert_eq!(pp.block_buckets.total(), pp.block_cycles);
                prop_assert_eq!(pp.run_buckets.total(), pp.crit_path_cycles);
            }
        }
    }
}
