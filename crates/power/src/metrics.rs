//! Efficiency metrics used by the evaluation figures.

/// Area efficiency: `1 / (cycles × mm²)` (Figure 7).
#[must_use]
pub fn perf_per_area(cycles: u64, area_mm2: f64) -> f64 {
    if cycles == 0 || area_mm2 <= 0.0 {
        0.0
    } else {
        1.0 / (cycles as f64 * area_mm2)
    }
}

/// Power efficiency: `performance² / Watt` (Figure 8), with performance
/// measured as `1/cycles`.
#[must_use]
pub fn perf2_per_watt(cycles: u64, watts: f64) -> f64 {
    if cycles == 0 || watts <= 0.0 {
        0.0
    } else {
        let p = 1.0 / cycles as f64;
        p * p / watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_guards() {
        assert_eq!(perf_per_area(0, 10.0), 0.0);
        assert_eq!(perf_per_area(10, 0.0), 0.0);
        assert_eq!(perf2_per_watt(0, 1.0), 0.0);
        assert_eq!(perf2_per_watt(10, 0.0), 0.0);
    }

    #[test]
    fn faster_is_better() {
        assert!(perf_per_area(100, 10.0) > perf_per_area(100, 20.0));
        assert!(perf2_per_watt(100, 2.0) > perf2_per_watt(100, 4.0));
        // perf² rewards speed quadratically: half the cycles at double
        // the power is still a win.
        assert!(perf2_per_watt(100, 4.0) > perf2_per_watt(200, 2.0));
    }
}
