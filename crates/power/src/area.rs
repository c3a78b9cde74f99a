//! Component area model at 130 nm (Table 2).
//!
//! Estimated from the constraint the paper states: a 130 nm 18 mm x 18 mm
//! die accommodates 8 TFlex cores with 1.5 MB of L2, and an 8-core TFlex
//! processor has the same area (and issue width) as one TRIPS processor.

/// Area of one microarchitectural component in mm² at 130 nm.
struct ComponentArea {
    /// Component name.
    name: &'static str,
    /// Area of the component in one TFlex core.
    tflex_core: f64,
    /// Area of the corresponding structures in one TRIPS processor
    /// (16 tiles plus centralized control), for the Table 2 comparison.
    trips_processor: f64,
}

/// The component breakdown, in Table 2's row order. Every area sum
/// walks it in this order.
const COMPONENTS: [ComponentArea; 9] = [
    ComponentArea {
        name: "register file",
        tflex_core: 0.45,
        trips_processor: 3.6,
    },
    ComponentArea {
        name: "instruction cache",
        tflex_core: 0.90,
        trips_processor: 7.0,
    },
    ComponentArea {
        name: "data cache",
        tflex_core: 1.10,
        trips_processor: 7.2,
    },
    ComponentArea {
        name: "load/store queues",
        tflex_core: 0.95,
        trips_processor: 6.4,
    },
    ComponentArea {
        name: "next-block predictor",
        tflex_core: 0.60,
        trips_processor: 2.4,
    },
    ComponentArea {
        name: "issue window + INT ALUs",
        tflex_core: 3.20,
        trips_processor: 24.0,
    },
    ComponentArea {
        name: "FP units",
        tflex_core: 1.40,
        // TRIPS carries one FPU per tile: twice the FP area of
        // an 8-core TFlex processor (§6.3).
        trips_processor: 22.4,
    },
    ComponentArea {
        name: "operand/control routers",
        tflex_core: 0.70,
        trips_processor: 5.0,
    },
    ComponentArea {
        name: "block control + misc",
        tflex_core: 0.80,
        trips_processor: 3.5,
    },
];

/// L2 area per megabyte.
const L2_MM2_PER_MB: f64 = 25.0;

/// The per-core / per-processor area table: `COMPONENTS` and
/// `L2_MM2_PER_MB`.
///
/// The evaluation uses one 130 nm estimate, so the type has no fields.
/// It only keeps `benchmark/` compiling (`AreaModel::at_130nm()`) and is
/// removed by the benchmark PR of ROADMAP 1(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AreaModel;

impl AreaModel {
    /// The 130 nm estimates used throughout the evaluation.
    #[must_use]
    pub fn at_130nm() -> Self {
        AreaModel
    }

    /// Area of one TFlex core in mm².
    #[must_use]
    fn tflex_core_mm2(&self) -> f64 {
        COMPONENTS.iter().map(|c| c.tflex_core).sum()
    }

    /// Area of an `n`-core TFlex logical processor (cores only; the L2 is
    /// a shared chip resource excluded from per-processor efficiency, as
    /// in Figure 7).
    #[must_use]
    pub fn tflex_mm2(&self, n_cores: usize) -> f64 {
        self.tflex_core_mm2() * n_cores as f64
    }

    /// Area of one TRIPS processor in mm².
    #[must_use]
    pub fn trips_mm2(&self) -> f64 {
        COMPONENTS.iter().map(|c| c.trips_processor).sum()
    }

    /// Renders the Table 2 area columns.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::from(
            "Table 2 (area, mm^2 @ 130nm)\n  component                    TFlex core   8-core TFlex   TRIPS proc\n",
        );
        for c in &COMPONENTS {
            out.push_str(&format!(
                "  {:<28} {:>10.2} {:>14.2} {:>12.2}\n",
                c.name,
                c.tflex_core,
                c.tflex_core * 8.0,
                c.trips_processor
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>10.2} {:>14.2} {:>12.2}\n",
            "TOTAL",
            self.tflex_core_mm2(),
            self.tflex_core_mm2() * 8.0,
            self.trips_mm2()
        ));
        out
    }
}

/// Whole-die area: `n_cores` TFlex cores plus `l2_mb` of L2.
#[must_use]
pub fn chip_area_mm2(n_cores: usize, l2_mb: f64) -> f64 {
    AreaModel.tflex_mm2(n_cores) + L2_MM2_PER_MB * l2_mb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_cores_and_l2_fit_the_18mm_die() {
        let die = chip_area_mm2(8, 1.5);
        assert!(
            die < 18.0 * 18.0,
            "8 cores + 1.5MB = {die:.1} must fit 324mm²"
        );
        assert!(die > 100.0, "the floorplan should not be absurdly small");
    }

    #[test]
    fn trips_processor_matches_8_tflex_cores_approximately() {
        // §6.1: "an eight-core TFlex processor, which has the same area
        // and issue width as the TRIPS processor".
        let m = AreaModel::at_130nm();
        let ratio = m.trips_mm2() / m.tflex_mm2(8);
        assert!(
            (0.85..=1.15).contains(&ratio),
            "TRIPS/8-core area ratio {ratio:.2}"
        );
    }

    #[test]
    fn trips_fp_area_is_double() {
        let fp = COMPONENTS.iter().find(|c| c.name == "FP units").unwrap();
        let ratio = fp.trips_processor / (fp.tflex_core * 8.0);
        assert!((1.8..=2.2).contains(&ratio), "FP ratio {ratio:.2}");
    }

    #[test]
    fn table_renders_all_components() {
        let m = AreaModel::at_130nm();
        let t = m.table();
        for c in &COMPONENTS {
            assert!(t.contains(c.name), "missing {}", c.name);
        }
        assert!(t.contains("TOTAL"));
    }
}
