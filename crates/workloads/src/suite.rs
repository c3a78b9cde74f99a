//! The benchmark suite registry.

use crate::{eembc, hand, spec_fp, spec_int, versabench, Workload, WorkloadClass};

/// One suite kernel: its name and the function that builds it.
#[derive(Clone, Copy, Debug)]
pub struct Kernel {
    /// The workload's name ([`Workload::name`]).
    pub name: &'static str,
    /// Builds the workload.
    pub build: fn() -> Workload,
}

const fn kernel(name: &'static str, build: fn() -> Workload) -> Kernel {
    Kernel { name, build }
}

/// All 26 kernels, in the paper's Figure 6 grouping: hand-optimized,
/// EEMBC, Versabench, SPEC INT, then SPEC FP. A name can be looked up, or
/// drawn, without building any workload.
pub const KERNELS: [Kernel; 26] = [
    kernel("conv", hand::conv),
    kernel("ct", hand::ct),
    kernel("genalg", hand::genalg),
    kernel("a2time", eembc::a2time),
    kernel("autocor", eembc::autocor),
    kernel("basefp", eembc::basefp),
    kernel("bezier", eembc::bezier),
    kernel("dither", eembc::dither),
    kernel("rspeed", eembc::rspeed),
    kernel("tblook", eembc::tblook),
    kernel("802.11b", versabench::dot11b),
    kernel("8b10b", versabench::b8b10),
    kernel("gzip", spec_int::gzip),
    kernel("bzip2", spec_int::bzip2),
    kernel("mcf", spec_int::mcf),
    kernel("parser", spec_int::parser),
    kernel("twolf", spec_int::twolf),
    kernel("vpr", spec_int::vpr),
    kernel("gcc", spec_int::gcc),
    kernel("perlbmk", spec_int::perlbmk),
    kernel("swim", spec_fp::swim),
    kernel("mgrid", spec_fp::mgrid),
    kernel("applu", spec_fp::applu),
    kernel("art", spec_fp::art),
    kernel("equake", spec_fp::equake),
    kernel("ammp", spec_fp::ammp),
];

/// All 26 workloads, in [`KERNELS`] order.
#[must_use]
pub fn all() -> Vec<Workload> {
    KERNELS.iter().map(|k| (k.build)()).collect()
}

/// Looks a workload up by name, building only that one.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    KERNELS.iter().find(|k| k.name == name).map(|k| (k.build)())
}

/// The 12 hand-optimized benchmarks used by the multiprogramming study
/// (Figure 10): hand kernels + EEMBC + Versabench.
#[must_use]
pub fn hand_optimized() -> Vec<Workload> {
    all()
        .into_iter()
        .filter(|w| {
            matches!(
                w.class,
                WorkloadClass::HandOptimized | WorkloadClass::Eembc | WorkloadClass::Versabench
            )
        })
        .collect()
}

/// The 14 compiled (SPEC-like) benchmarks.
#[must_use]
pub fn compiled() -> Vec<Workload> {
    all()
        .into_iter()
        .filter(|w| matches!(w.class, WorkloadClass::SpecInt | WorkloadClass::SpecFp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_table_names_every_workload_in_suite_order() {
        let built: Vec<&str> = all().iter().map(|w| w.name).collect();
        let table: Vec<&str> = KERNELS.iter().map(|k| k.name).collect();
        assert_eq!(table, built);
        for k in &KERNELS {
            assert_eq!(by_name(k.name).map(|w| w.name), Some(k.name));
        }
        assert!(by_name("fmradio").is_none());
    }
}
