//! # clp-alloc — core allocation for multiprogrammed workloads
//!
//! Implements the Figure 10 methodology: given per-benchmark
//! speedup-versus-cores curves (measured by the Figure 6 sweep), find the
//! assignment of a 32-core TFlex chip to a multiprogrammed workload that
//! maximizes *weighted speedup* — by optimal dynamic programming for the
//! fully composable CLP, by exhaustive choice of a single granularity for
//! the symmetric "variable best" CMP (VB CMP), and by fixed granularity
//! for conventional CMP-N configurations.
//!
//! Weighted speedup follows Snavely & Tullsen: each application's
//! performance is normalized to its performance running *alone at its
//! best configuration*, and the workload's WS is the sum over
//! applications.

#![warn(missing_docs)]

use std::collections::BTreeMap;

/// Legal composition sizes on the 32-core chip.
pub const SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Total cores on the chip.
const TOTAL_CORES: usize = 32;

/// A benchmark's measured speedup as a function of composition size,
/// normalized to its own single-core performance.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeedupCurve {
    /// Benchmark name.
    pub name: String,
    /// `speedup[cores]` for each power-of-two size.
    pub speedup: BTreeMap<usize, f64>,
}

impl SpeedupCurve {
    /// Builds a curve from `(cores, speedup)` samples.
    ///
    /// # Panics
    ///
    /// Panics if a sample uses an illegal size or no samples are given.
    #[must_use]
    pub fn new(name: &str, samples: &[(usize, f64)]) -> Self {
        assert!(!samples.is_empty(), "empty curve");
        let speedup: BTreeMap<usize, f64> = samples.iter().copied().collect();
        for &c in speedup.keys() {
            assert!(SIZES.contains(&c), "illegal composition size {c}");
        }
        SpeedupCurve {
            name: name.to_owned(),
            speedup,
        }
    }

    /// Builds an *analytic* curve from static cycle bounds: the sample
    /// at `n` cores is `bound(1) / bound(n)`. Because clp-bound's
    /// per-size bounds are each sound lower bounds on real cycles, the
    /// resulting curve sketches the best speedup shape the dataflow and
    /// resource structure admits — an upper envelope to compare the
    /// measured Figure 6 sweep against, computed without simulation.
    ///
    /// # Panics
    ///
    /// Panics if a sample uses an illegal size, no samples are given,
    /// or no sample at 1 core (the normalization base) is present.
    #[must_use]
    pub fn analytic(name: &str, bounds: &[(usize, u64)]) -> Self {
        let base = bounds
            .iter()
            .find(|&&(c, _)| c == 1)
            .map(|&(_, b)| b)
            .expect("analytic curve needs a 1-core bound");
        let samples: Vec<(usize, f64)> = bounds
            .iter()
            .map(|&(c, b)| (c, base as f64 / b.max(1) as f64))
            .collect();
        SpeedupCurve::new(name, &samples)
    }

    /// Speedup at `cores` (must be a sampled size).
    ///
    /// # Panics
    ///
    /// Panics if `cores` was not sampled.
    #[must_use]
    pub fn at(&self, cores: usize) -> f64 {
        *self
            .speedup
            .get(&cores)
            .unwrap_or_else(|| panic!("'{}' has no sample at {cores} cores", self.name))
    }

    /// The composition size with the highest speedup (the per-application
    /// BEST configuration of Figure 6).
    #[must_use]
    pub fn best_size(&self) -> usize {
        *self
            .speedup
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("nonempty")
            .0
    }

    /// The speedup at the best size.
    #[must_use]
    pub fn best_speedup(&self) -> f64 {
        self.at(self.best_size())
    }

    /// Normalized performance at `cores`: `speedup(cores) /
    /// best_speedup` (the app's share of its alone-at-best performance).
    #[must_use]
    pub fn normalized(&self, cores: usize) -> f64 {
        self.at(cores) / self.best_speedup()
    }
}

/// One workload's evaluation under some machine organization.
#[derive(Clone, Debug, PartialEq)]
pub struct Allocation {
    /// Cores given to each application (0 = not run).
    pub cores: Vec<usize>,
    /// Achieved weighted speedup.
    pub weighted_speedup: f64,
}

/// Optimal CLP allocation: maximizes weighted speedup over all ways to
/// give each application a power-of-two composition with at most 32
/// cores in total (dynamic programming, as in the paper's §7).
///
/// # Examples
///
/// ```
/// use clp_alloc::{optimal_clp, SpeedupCurve, SIZES};
///
/// let scalable = SpeedupCurve::new("fp", &SIZES.map(|c| (c, c as f64)));
/// let serial = SpeedupCurve::new("int", &SIZES.map(|c| (c, 1.0)));
/// let a = optimal_clp(&[scalable, serial]);
/// assert!(a.cores[0] > a.cores[1], "the scalable app gets more cores");
/// ```
///
/// Every application must receive at least one core; if the workload has
/// more than 32 applications the surplus is dropped (matching the
/// paper's constant-WS convention for over-committed machines).
#[must_use]
pub fn optimal_clp(curves: &[SpeedupCurve]) -> Allocation {
    let n = curves.len().min(TOTAL_CORES);
    // dp[i][c] = best WS for the first i apps using exactly <= c cores.
    let mut dp = vec![vec![f64::NEG_INFINITY; TOTAL_CORES + 1]; n + 1];
    let mut choice = vec![vec![0usize; TOTAL_CORES + 1]; n + 1];
    dp[0].fill(0.0);
    #[allow(clippy::needless_range_loop)] // dp[i][c] and dp[i-1][c-s] indexings
    for i in 1..=n {
        for c in 0..=TOTAL_CORES {
            for &s in &SIZES {
                if s > c {
                    break;
                }
                let v = dp[i - 1][c - s] + curves[i - 1].normalized(s);
                if v > dp[i][c] {
                    dp[i][c] = v;
                    choice[i][c] = s;
                }
            }
        }
    }
    let mut cores = vec![0usize; curves.len()];
    let mut c = TOTAL_CORES;
    for i in (1..=n).rev() {
        let s = choice[i][c];
        cores[i - 1] = s;
        c -= s;
    }
    Allocation {
        weighted_speedup: dp[n][TOTAL_CORES].max(0.0),
        cores,
    }
}

/// A fixed CMP with `32 / granularity` processors of `granularity` cores
/// each (the paper's CMP-N). Applications beyond the processor count are
/// not run (their WS contribution stays at the value achieved by the
/// first `procs`, per the paper's constant-WS assumption).
///
/// # Panics
///
/// Panics if `granularity` is not a legal size.
#[must_use]
pub fn fixed_cmp(curves: &[SpeedupCurve], granularity: usize) -> Allocation {
    assert!(SIZES.contains(&granularity));
    let procs = TOTAL_CORES / granularity;
    let mut cores = vec![0usize; curves.len()];
    let mut ws = 0.0;
    for (i, curve) in curves.iter().enumerate().take(procs) {
        cores[i] = granularity;
        ws += curve.normalized(granularity);
    }
    Allocation {
        cores,
        weighted_speedup: ws,
    }
}

/// The hypothetical symmetric flexible CMP ("VB CMP"): picks the single
/// best granularity for the workload, but every processor must have the
/// same size and every application must fit.
#[must_use]
pub fn variable_best_cmp(curves: &[SpeedupCurve]) -> Allocation {
    SIZES
        .iter()
        .filter(|&&g| TOTAL_CORES / g >= curves.len().min(TOTAL_CORES))
        .map(|&g| fixed_cmp(curves, g))
        .max_by(|a, b| a.weighted_speedup.total_cmp(&b.weighted_speedup))
        .unwrap_or_else(|| fixed_cmp(curves, 1))
}

/// Fraction of applications assigned each granularity (the table under
/// Figure 10).
#[must_use]
pub fn granularity_fractions(allocs: &[Allocation]) -> BTreeMap<usize, f64> {
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    let mut total = 0usize;
    for a in allocs {
        for &c in &a.cores {
            if c > 0 {
                *counts.entry(c).or_default() += 1;
                total += 1;
            }
        }
    }
    counts
        .into_iter()
        .map(|(g, n)| (g, n as f64 / total.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(name: &str, per_core_gain: f64, saturation: usize) -> SpeedupCurve {
        // Speedup grows like min(cores, saturation)^gain.
        let samples: Vec<(usize, f64)> = SIZES
            .iter()
            .map(|&c| {
                let eff = (c.min(saturation)) as f64;
                (c, eff.powf(per_core_gain))
            })
            .collect();
        SpeedupCurve::new(name, &samples)
    }

    #[test]
    fn analytic_curve_normalizes_to_one_core_bound() {
        // bound(1)/bound(n): halving the cycle floor doubles the
        // sketched speedup; a floor that *grows* with cores (mesh hops
        // outpacing the resource spread) dips below 1.
        let c = SpeedupCurve::analytic("x", &[(1, 40), (2, 20), (4, 10), (8, 50)]);
        assert!((c.at(1) - 1.0).abs() < 1e-12);
        assert!((c.at(2) - 2.0).abs() < 1e-12);
        assert!((c.at(4) - 4.0).abs() < 1e-12);
        assert!((c.at(8) - 0.8).abs() < 1e-12);
        assert_eq!(c.best_size(), 4);
    }

    #[test]
    fn analytic_curve_guards_zero_bounds() {
        // A degenerate 0-cycle sample clamps to 1 rather than dividing
        // by zero.
        let c = SpeedupCurve::analytic("x", &[(1, 8), (2, 0)]);
        assert!((c.at(2) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn best_size_found() {
        let c = SpeedupCurve::new(
            "x",
            &[(1, 1.0), (2, 1.8), (4, 2.5), (8, 2.2), (16, 1.9), (32, 1.4)],
        );
        assert_eq!(c.best_size(), 4);
        assert!((c.best_speedup() - 2.5).abs() < 1e-12);
        assert!((c.normalized(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dp_matches_brute_force_small() {
        let curves = vec![
            curve("hi", 0.8, 32),
            curve("med", 0.5, 8),
            curve("low", 0.15, 2),
        ];
        let dp = optimal_clp(&curves);
        // Brute force over all size triples.
        let mut best = f64::NEG_INFINITY;
        for &a in &SIZES {
            for &b in &SIZES {
                for &c in &SIZES {
                    if a + b + c <= TOTAL_CORES {
                        let ws = curves[0].normalized(a)
                            + curves[1].normalized(b)
                            + curves[2].normalized(c);
                        best = best.max(ws);
                    }
                }
            }
        }
        assert!(
            (dp.weighted_speedup - best).abs() < 1e-9,
            "dp {} vs brute {}",
            dp.weighted_speedup,
            best
        );
        assert!(dp.cores.iter().sum::<usize>() <= 32);
    }

    #[test]
    fn dp_gives_more_cores_to_scalable_apps() {
        let curves = vec![curve("scales", 0.9, 32), curve("serial", 0.05, 2)];
        let a = optimal_clp(&curves);
        assert!(
            a.cores[0] > a.cores[1],
            "scalable app should get more: {:?}",
            a.cores
        );
    }

    #[test]
    fn clp_beats_or_ties_every_fixed_cmp() {
        let curves = vec![
            curve("a", 0.8, 32),
            curve("b", 0.4, 8),
            curve("c", 0.1, 2),
            curve("d", 0.6, 16),
        ];
        let clp = optimal_clp(&curves).weighted_speedup;
        for &g in &SIZES {
            let cmp = fixed_cmp(&curves, g).weighted_speedup;
            assert!(clp >= cmp - 1e-9, "CLP {clp} must dominate CMP-{g} {cmp}");
        }
        let vb = variable_best_cmp(&curves).weighted_speedup;
        assert!(clp >= vb - 1e-9);
    }

    #[test]
    fn fixed_cmp_caps_at_processor_count() {
        let curves: Vec<SpeedupCurve> = (0..4).map(|i| curve(&format!("w{i}"), 0.5, 8)).collect();
        // CMP-16 has two processors: only two apps run.
        let a = fixed_cmp(&curves, 16);
        assert_eq!(a.cores.iter().filter(|&&c| c > 0).count(), 2);
    }

    #[test]
    fn vb_cmp_requires_fitting_all_apps() {
        let curves: Vec<SpeedupCurve> = (0..8).map(|i| curve(&format!("w{i}"), 0.7, 32)).collect();
        let a = variable_best_cmp(&curves);
        // 8 apps: granularity at most 4.
        assert!(a.cores.iter().all(|&c| c <= 4 && c > 0));
    }

    #[test]
    fn fractions_sum_to_one() {
        let curves = vec![curve("a", 0.8, 32), curve("b", 0.1, 2)];
        let a = optimal_clp(&curves);
        let fr = granularity_fractions(&[a]);
        let total: f64 = fr.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
