//! Figure 10: weighted speedup of multiprogrammed workloads on the
//! composable TFlex array versus fixed-granularity CMPs and the
//! hypothetical symmetric flexible CMP (VB CMP).
//!
//! Methodology follows §7: per-benchmark speedup-versus-cores curves come
//! from the Figure 6 sweep of the 12 hand-optimized benchmarks; an
//! optimal dynamic program assigns 32 cores to each workload mix.
//!
//! Paper shape: the best fixed granularity shifts with workload size
//! (CMP-16 for 2 threads down to CMP-2 for 12-16); TFlex beats the best
//! fixed CMP by ~26% on average (max ~47%) and the symmetric VB CMP by
//! ~6%; the allocation-fraction table shows mixed granularities within
//! one workload size.

use super::{warn_dropped, Ctx};
use crate::{save_json, sweep_suite_resilient, CellFailure, SWEEP_SIZES};
use clp_alloc::{
    fixed_cmp, granularity_fractions, optimal_clp, variable_best_cmp, Allocation, SpeedupCurve,
};
use clp_workloads::suite;
use serde::Serialize;
use std::collections::BTreeMap;

/// Deterministic workload mixes: `count` benchmarks per mix, rotating
/// through the 12-benchmark list from different offsets.
fn mixes(curves: &[SpeedupCurve], count: usize, n_mixes: usize) -> Vec<Vec<SpeedupCurve>> {
    (0..n_mixes)
        .map(|m| {
            (0..count)
                .map(|k| curves[(m * 5 + k * 7 + k * k) % curves.len()].clone())
                .collect()
        })
        .collect()
}

#[derive(Serialize)]
struct SizePoint {
    threads: usize,
    tflex: f64,
    vb_cmp: f64,
    cmp: BTreeMap<usize, f64>,
    best_cmp_granularity: usize,
    tflex_over_best_cmp_pct: f64,
}

#[derive(Serialize)]
struct Out {
    points: Vec<SizePoint>,
    failures: Vec<CellFailure>,
}

pub(super) fn run(ctx: &mut Ctx) -> Option<String> {
    // Measure the 12 hand-optimized speedup curves (Figure 6 data).
    let (rows, failures) = sweep_suite_resilient(&suite::hand_optimized(), &SWEEP_SIZES);
    warn_dropped(&failures);
    ctx.failed_cells += failures.len();
    let curves: Vec<SpeedupCurve> = rows
        .iter()
        .map(|r| {
            let samples: Vec<(usize, f64)> =
                SWEEP_SIZES.iter().map(|&n| (n, r.speedup_at(n))).collect();
            SpeedupCurve::new(r.workload.name, &samples)
        })
        .collect();

    println!("speedup curves (normalized to 1 core):");
    for c in &curves {
        print!("  {:<8}", c.name);
        for &n in &SWEEP_SIZES {
            print!(" x{n}:{:>5.2}", c.at(n));
        }
        println!();
    }
    println!();

    let sizes = [2usize, 4, 6, 8, 12, 16];
    let granularities = [2usize, 4, 8, 16];
    let n_mixes = 6;
    let mut out = Vec::new();
    let mut all_tflex_allocs: BTreeMap<usize, Vec<Allocation>> = BTreeMap::new();
    println!(
        "{:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>7}",
        "threads", "CMP-2", "CMP-4", "CMP-8", "CMP-16", "VB-CMP", "TFlex", "best-CMP", "gain"
    );
    for &count in &sizes {
        let mut sums: BTreeMap<usize, f64> = granularities.iter().map(|&g| (g, 0.0)).collect();
        let mut vb_sum = 0.0;
        let mut tflex_sum = 0.0;
        for mix in mixes(&curves, count, n_mixes) {
            for &g in &granularities {
                *sums.get_mut(&g).expect("present") += fixed_cmp(&mix, g).weighted_speedup;
            }
            vb_sum += variable_best_cmp(&mix).weighted_speedup;
            let a = optimal_clp(&mix);
            tflex_sum += a.weighted_speedup;
            all_tflex_allocs.entry(count).or_default().push(a);
        }
        let n = n_mixes as f64;
        let cmp: BTreeMap<usize, f64> = sums.iter().map(|(&g, &s)| (g, s / n)).collect();
        let (best_g, best_cmp) = cmp
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&g, &v)| (g, v))
            .expect("nonempty");
        let tflex = tflex_sum / n;
        let vb = vb_sum / n;
        println!(
            "{:>7} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>9} {:>6.1}%",
            count,
            cmp[&2],
            cmp[&4],
            cmp[&8],
            cmp[&16],
            vb,
            tflex,
            format!("CMP-{best_g}"),
            100.0 * (tflex / best_cmp - 1.0)
        );
        out.push(SizePoint {
            threads: count,
            tflex,
            vb_cmp: vb,
            cmp,
            best_cmp_granularity: best_g,
            tflex_over_best_cmp_pct: 100.0 * (tflex / best_cmp - 1.0),
        });
    }

    // Averages and the allocation-fraction table.
    let avg_gain = out.iter().map(|p| p.tflex_over_best_cmp_pct).sum::<f64>() / out.len() as f64;
    let max_gain = out
        .iter()
        .map(|p| p.tflex_over_best_cmp_pct)
        .fold(f64::MIN, f64::max);
    let avg_vb_gain = out
        .iter()
        .map(|p| 100.0 * (p.tflex / p.vb_cmp - 1.0))
        .sum::<f64>()
        / out.len() as f64;
    println!();
    println!(
        "TFlex over best fixed CMP: avg {avg_gain:+.1}% max {max_gain:+.1}% (paper: +26% avg, +47% max)"
    );
    println!("TFlex over symmetric VB CMP: {avg_vb_gain:+.1}% (paper: +6%)");
    println!();
    println!("allocation fractions by workload size (Figure 10's table):");
    for (count, allocs) in &all_tflex_allocs {
        let fr = granularity_fractions(allocs);
        print!("  {count:>2} threads:");
        for (g, f) in fr {
            print!("  {g}c:{:.0}%", 100.0 * f);
        }
        println!();
    }

    save_json(
        "fig10.json",
        &Out {
            points: out,
            failures,
        },
    );
    ctx.obs.save_sweep_snapshots(&rows);
    Some(format!(
        "Fig 10  TFlex over best fixed CMP: avg {avg_gain:+.1}% max {max_gain:+.1}% \
         (paper +26%/+47%)"
    ))
}
