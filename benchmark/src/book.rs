//! The timing estimators: a total is a sum over timed units of one
//! figure per unit, never the time of one whole pass.
//!
//! On a small shared host the *median* pass moves 8–27 % between
//! back-to-back runs of one binary, because one preempted cell inflates
//! the whole pass. Per unit, two figures stand that:
//!
//! * the **fastest** wall time over all passes (`clp-bench --time`'s
//!   convention, fastest of `--reps`, applied per cell), which the
//!   per-layer metrics use. It discards every disturbed sample, but not a
//!   host that is slow for the whole run;
//! * the **lower quartile** of the unit's speed-normalised CPU times
//!   (reference nanoseconds, see [`crate::calib`]), which the end-to-end
//!   metrics use. The quotient has noise on both sides: a disturbed unit
//!   reads high, and a disturbed speed sample makes its neighbour read
//!   low. The first kind is the common one and only ever adds, so the
//!   better samples are the lower ones; the minimum itself would collect
//!   the second kind. In six 30 s runs on a noisy hour the sum of minima
//!   of the quotient spread 6 %, of medians 3.7 %, of lower quartiles
//!   1.7 %.

use std::collections::BTreeMap;

/// What a timing belongs to: one kernel at one composition size.
/// `cores` is 0 for work that has no size (compile, lint, probes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub kernel: u16,
    pub cores: u16,
}

impl Key {
    /// Key of a unit that is not tied to a kernel.
    pub const GLOBAL: Key = Key {
        kernel: u16::MAX,
        cores: 0,
    };

    pub fn kernel(kernel: usize) -> Self {
        Key::cell(kernel, 0)
    }

    pub fn cell(kernel: usize, cores: usize) -> Self {
        Key {
            kernel: u16::try_from(kernel).expect("kernel index fits u16"),
            cores: u16::try_from(cores).expect("core count fits u16"),
        }
    }
}

/// Fastest total and fastest self time of one (name, key) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Best {
    total_ns: u64,
    self_ns: u64,
}

/// Fastest-per-unit timings, grouped by span or unit name.
#[derive(Debug, Default)]
pub struct Book {
    best: BTreeMap<(&'static str, Key), Best>,
    /// Every speed-normalised sample of a (name, key) pair, in
    /// reference nanoseconds.
    samples: BTreeMap<(&'static str, Key), Vec<f64>>,
}

impl Book {
    /// Records one sample whose self time is its whole duration.
    pub fn record(&mut self, name: &'static str, key: Key, ns: u64) {
        self.record_span(name, key, ns, ns);
    }

    /// Records one sample of a span with children: `total_ns` is the
    /// span's duration, `self_ns` what its children do not cover.
    pub fn record_span(&mut self, name: &'static str, key: Key, total_ns: u64, self_ns: u64) {
        let b = self.best.entry((name, key)).or_insert(Best {
            total_ns: u64::MAX,
            self_ns: u64::MAX,
        });
        b.total_ns = b.total_ns.min(total_ns);
        b.self_ns = b.self_ns.min(self_ns);
    }

    /// Records one speed-normalised sample, in reference nanoseconds.
    pub fn record_ref(&mut self, name: &'static str, key: Key, ref_ns: f64) {
        self.samples.entry((name, key)).or_default().push(ref_ns);
    }

    /// Sum over keys of the lower-quartile sample recorded under `name`,
    /// in reference nanoseconds.
    pub fn typical_ref_ns(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| lower_quartile(v))
            .sum()
    }

    fn sum_by(&self, name: &str, keep: impl Fn(Key) -> bool, pick: impl Fn(&Best) -> u64) -> u64 {
        self.best
            .iter()
            .filter(|((n, k), _)| *n == name && keep(*k))
            .map(|(_, b)| pick(b))
            .sum()
    }

    /// Sum over keys of the fastest duration recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.total_ns_where(name, |_| true)
    }

    /// Like [`Book::total_ns`], over the keys `keep` accepts.
    pub fn total_ns_where(&self, name: &str, keep: impl Fn(Key) -> bool) -> u64 {
        self.sum_by(name, keep, |b| b.total_ns)
    }

    /// Sum over keys of the fastest self time recorded under `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.sum_by(name, |_| true, |b| b.self_ns)
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The sample a quarter of the way up the sorted `values`.
fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 4]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic passes over four units; pass 2 is preempted on unit 1
    /// and pass 4 is slow throughout. The fastest-sum ignores both, the
    /// median pass does not.
    #[test]
    fn fastest_sum_ignores_injected_slow_passes() {
        let base = [100u64, 250, 40, 900];
        let mut book = Book::default();
        let mut passes = Vec::new();
        for pass in 0..7u64 {
            let mut pass_ns = 0;
            for (unit, &b) in base.iter().enumerate() {
                let jitter = (pass * 7 + unit as u64 * 3) % 5;
                let slow = match (pass, unit) {
                    (2, 1) => 4000,
                    (4, _) => b / 2,
                    _ => 0,
                };
                // Every unit sees its base time on at least one pass.
                let ns = if pass == 6 { b } else { b + jitter + slow };
                book.record("cell", Key::cell(unit, 1), ns);
                pass_ns += ns;
            }
            passes.push(pass_ns as f64);
        }
        assert_eq!(book.total_ns("cell"), base.iter().sum::<u64>());
        assert!(median(&passes) > base.iter().sum::<u64>() as f64);
        assert_eq!(book.total_ns("other"), 0);
    }

    /// Synthetic normalised samples of three units over 12 passes. A
    /// disturbed unit reads high (often) and a disturbed speed sample
    /// makes a unit read low (seldom); the sum of lower quartiles stands
    /// both, the sum of minima collects the low ones and the sum of
    /// medians the high ones.
    #[test]
    fn quartile_sum_stands_outliers_on_either_side() {
        let base = [1000.0, 250.0, 4000.0];
        let mut book = Book::default();
        let mut samples = vec![Vec::new(); 3];
        for pass in 0..12 {
            for (unit, &b) in base.iter().enumerate() {
                let sample = match (pass + unit) % 12 {
                    0 => b * 0.8,
                    1..=4 => b,
                    _ => b * 1.4,
                };
                book.record_ref("cell", Key::cell(unit, 1), sample);
                samples[unit].push(sample);
            }
        }
        let total: f64 = base.iter().sum();
        assert_eq!(book.typical_ref_ns("cell"), total);
        let minima: f64 = samples
            .iter()
            .map(|v| v.iter().copied().fold(f64::MAX, f64::min))
            .sum();
        let medians: f64 = samples.iter().map(|v| median(v)).sum();
        assert!(minima < total && medians > total);
        assert_eq!(book.typical_ref_ns("other"), 0.0);
    }

    #[test]
    fn totals_and_self_times_are_minimised_independently() {
        let mut book = Book::default();
        book.record_span("core.cell", Key::cell(0, 4), 100, 30);
        book.record_span("core.cell", Key::cell(0, 4), 90, 40);
        book.record_span("core.cell", Key::cell(1, 16), 10, 10);
        assert_eq!(book.total_ns("core.cell"), 100);
        assert_eq!(book.self_ns("core.cell"), 40);
        assert_eq!(book.total_ns_where("core.cell", |k| k.cores == 16), 10);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
