//! Figures 6–9, all read off the suite matrix (`Ctx::suite`: 26
//! benchmarks × six composition sizes + TRIPS).
//!
//! * **Figure 6**: speedup of TFlex compositions (2–32 cores) and TRIPS
//!   over a single TFlex core, per benchmark, plus AVG and BEST. Paper
//!   shape: 16-core TFlex averages ~3.5x over one core; BEST adds ~13%
//!   more (~4x); 8-core TFlex beats TRIPS by ~19%; BEST beats TRIPS by
//!   ~42%.
//! * **Figure 7**: area efficiency — performance per area, `1/(cycles x
//!   mm²)`, normalized to one TFlex core. Paper shape: peaks at one or
//!   two cores for most benchmarks; beyond two cores performance grows
//!   more slowly than area.
//! * **Figure 8**: power efficiency — performance²/Watt, normalized to
//!   one TFlex core. Paper shape: the most power-efficient fixed
//!   composition is 8 cores; picking per-application BEST adds ~22%;
//!   fixed 8-core TFlex is ~1.64x more power-efficient than TRIPS.
//! * **Figure 9**: overheads of the distributed protocols — (a)
//!   per-block fetch-latency and (b) per-block commit-latency components
//!   as a function of composition size. Paper shape: prediction+tag are
//!   constant; hand-off and fetch-command distribution grow with core
//!   count; dispatch time shrinks as fetch bandwidth scales. For commit,
//!   handshaking grows with distance while the architectural-state
//!   update shrinks with added bandwidth.

use super::Ctx;
use crate::matrix::{Row, SWEEP_SIZES};
use crate::{geomean, save_json, CellFailure};
use clp_core::RunOutcome;
use clp_power::{perf2_per_watt, perf_per_area};
use clp_sim::{CommitLatencyBreakdown, FetchLatencyBreakdown};
use serde_json::{json, ToValue, Value};

/// A figure's JSON document: its rows and the cells the matrix dropped.
fn document<R: ToValue>(rows: &[R], failures: &[CellFailure]) -> Value {
    json!({"rows": (rows), "failures": (failures)})
}

pub(super) fn fig6(ctx: &mut Ctx) -> Option<String> {
    let suite = ctx.suite();
    let rows = suite.by_ilp();

    println!("Figure 6: speedup over one TFlex core");
    println!(
        "{:<10} {:>4} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "benchmark", "ilp", "x2", "x4", "x8", "x16", "x32", "TRIPS", "BESTn", "BEST"
    );
    let mut out = Vec::new();
    for r in &rows {
        let s: Vec<(usize, f64)> = SWEEP_SIZES.iter().map(|&n| (n, r.speedup_at(n))).collect();
        let trips_speedup = r.cycles_at(1) as f64 / r.trips.cycles() as f64;
        println!(
            "{:<10} {:>4} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6} {:>6.2}",
            r.workload.name,
            format!("{:?}", r.workload.ilp).to_lowercase(),
            r.speedup_at(2),
            r.speedup_at(4),
            r.speedup_at(8),
            r.speedup_at(16),
            r.speedup_at(32),
            trips_speedup,
            r.best_size(),
            r.best_speedup(),
        );
        out.push(json!({
            "name": (r.workload.name),
            "ilp": (format!("{:?}", r.workload.ilp)),
            "speedups": s,
            "trips": trips_speedup,
            "best_size": (r.best_size()),
            "best": (r.best_speedup())
        }));
    }

    println!();
    let avg_at = |n| geomean(&rows.iter().map(|r| r.speedup_at(n)).collect::<Vec<_>>());
    for &n in &SWEEP_SIZES[1..] {
        println!("AVG  x{n:<2}: {:.2}", avg_at(n));
    }
    let avg_best = geomean(&rows.iter().map(|r| r.best_speedup()).collect::<Vec<_>>());
    let avg_trips = geomean(
        &rows
            .iter()
            .map(|r| r.cycles_at(1) as f64 / r.trips.cycles() as f64)
            .collect::<Vec<_>>(),
    );
    let vs_trips = |r: &&Row| r.trips.cycles() as f64 / r.cycles_at(8) as f64;
    let avg8_vs_trips = geomean(&rows.iter().map(vs_trips).collect::<Vec<_>>());
    let best_vs_trips = geomean(
        &rows
            .iter()
            .map(|r| r.trips.cycles() as f64 / r.cycles_at(r.best_size()) as f64)
            .collect::<Vec<_>>(),
    );
    println!("AVG  BEST: {avg_best:.2}  (paper: ~4x, +13% over the best fixed size)");
    println!("AVG  TRIPS: {avg_trips:.2}");
    println!("8-core TFlex vs TRIPS: {avg8_vs_trips:.2}x  (paper: ~1.19x)");
    println!("BEST TFlex  vs TRIPS: {best_vs_trips:.2}x  (paper: ~1.42x)");

    save_json("fig6.json", &document(&out, &suite.failures));
    ctx.obs.save_sweep_snapshots(&rows);
    Some(format!(
        "Fig 6   AVG x16 speedup {:.2} (paper ~3.5); BEST {avg_best:.2} (paper ~4)",
        avg_at(16)
    ))
}

struct EfficiencyRow {
    name: &'static str,
    /// `(cores, efficiency normalized to 1 core)`.
    efficiency: Vec<(usize, f64)>,
    trips: f64,
    peak_size: usize,
}

impl ToValue for EfficiencyRow {
    fn to_value(&self) -> Value {
        json!({
            "name": (self.name),
            "efficiency": (self.efficiency),
            "trips": (self.trips),
            "peak_size": (self.peak_size)
        })
    }
}

/// Prints the per-benchmark table Figures 7 and 8 share — `metric` of
/// every composition and of TRIPS, normalized to one TFlex core, and
/// the peak size — and returns its rows.
fn efficiency_table(
    title: &str,
    rows: &[&Row],
    metric: impl Fn(&RunOutcome) -> f64,
) -> Vec<EfficiencyRow> {
    println!("{title}");
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  {:>5}",
        "benchmark", "x1", "x2", "x4", "x8", "x16", "x32", "TRIPS", "peak"
    );
    let mut out = Vec::new();
    for r in rows {
        let base = metric(&r.at(1).outcome);
        let eff: Vec<(usize, f64)> = r
            .tflex
            .iter()
            .map(|c| (c.cores, metric(&c.outcome) / base))
            .collect();
        let trips_eff = metric(&r.trips) / base;
        let peak = eff
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| *n)
            .expect("swept");
        print!("{:<10}", r.workload.name);
        for (_, e) in &eff {
            print!(" {e:>6.2}");
        }
        println!(" {trips_eff:>6.2}  {peak:>5}");
        out.push(EfficiencyRow {
            name: r.workload.name,
            efficiency: eff,
            trips: trips_eff,
            peak_size: peak,
        });
    }
    println!();
    out
}

/// Suite geomean of the efficiency at `n` cores.
fn avg_at(out: &[EfficiencyRow], n: usize) -> f64 {
    let at = |r: &EfficiencyRow| r.efficiency.iter().find(|(c, _)| *c == n).expect("swept").1;
    geomean(&out.iter().map(at).collect::<Vec<_>>())
}

/// Suite geomean of each benchmark's best efficiency.
fn avg_best(out: &[EfficiencyRow]) -> f64 {
    let best = |r: &EfficiencyRow| r.efficiency.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    geomean(&out.iter().map(best).collect::<Vec<_>>())
}

fn avg_trips(out: &[EfficiencyRow]) -> f64 {
    geomean(&out.iter().map(|r| r.trips).collect::<Vec<_>>())
}

pub(super) fn fig7(ctx: &mut Ctx) -> Option<String> {
    let suite = ctx.suite();
    let rows = suite.by_ilp();
    let out = efficiency_table(
        "Figure 7: performance/area normalized to one TFlex core",
        &rows,
        |o| perf_per_area(o.cycles(), o.area_mm2),
    );
    for &n in &SWEEP_SIZES {
        println!("AVG x{n:<2}: {:.2}", avg_at(&out, n));
    }
    let peaks_small = out.iter().filter(|r| r.peak_size <= 2).count();
    let n = out.len();
    println!("peak at 1-2 cores for {peaks_small}/{n} benchmarks (paper: most)");
    println!(
        "best-per-app/TRIPS area efficiency: {:.2}x (paper: ~3.4x)",
        avg_best(&out) / avg_trips(&out)
    );

    save_json("fig7.json", &document(&out, &suite.failures));
    ctx.obs.save_sweep_snapshots(&rows);
    Some(format!(
        "Fig 7   perf/area peaks at 1-2 cores for {peaks_small}/{n} benchmarks (paper: most)"
    ))
}

pub(super) fn fig8(ctx: &mut Ctx) -> Option<String> {
    let suite = ctx.suite();
    let rows = suite.by_ilp();
    let out = efficiency_table(
        "Figure 8: performance^2/Watt normalized to one TFlex core",
        &rows,
        |o| perf2_per_watt(o.cycles(), o.power.total()),
    );
    let mut best_fixed = (0usize, f64::MIN);
    for &n in &SWEEP_SIZES {
        let avg = avg_at(&out, n);
        if avg > best_fixed.1 {
            best_fixed = (n, avg);
        }
        println!("AVG x{n:<2}: {avg:.2}");
    }
    println!(
        "best fixed composition: {} cores (paper: 8); BEST/best-fixed: {:+.0}% (paper: +22%)",
        best_fixed.0,
        100.0 * (avg_best(&out) / best_fixed.1 - 1.0)
    );
    println!(
        "8-core TFlex vs TRIPS: {:.2}x (paper: ~1.64x)",
        avg_at(&out, 8) / avg_trips(&out)
    );

    save_json("fig8.json", &document(&out, &suite.failures));
    ctx.obs.save_sweep_snapshots(&rows);
    None
}

struct Point {
    cores: usize,
    fetch: FetchLatencyBreakdown,
    commit: CommitLatencyBreakdown,
}

impl ToValue for Point {
    fn to_value(&self) -> Value {
        let (f, c) = (&self.fetch, &self.commit);
        json!({
            "cores": (self.cores),
            "fetch": {
                "prediction": (f.prediction),
                "tag_access": (f.tag_access),
                "hand_off": (f.hand_off),
                "fetch_distribution": (f.fetch_distribution),
                "dispatch": (f.dispatch)
            },
            "commit": {"handshake": (c.handshake), "arch_update": (c.arch_update)}
        })
    }
}

pub(super) fn fig9(ctx: &mut Ctx) -> Option<String> {
    let suite = ctx.suite();
    let rows: Vec<&Row> = suite.rows.iter().collect();
    let mut series = Vec::new();
    for &n in &SWEEP_SIZES {
        let mut fetch = FetchLatencyBreakdown::default();
        let mut commit = CommitLatencyBreakdown::default();
        let count = rows.len() as f64;
        for r in &rows {
            // Figure inputs come through the stats registry, addressed by
            // stable path rather than struct-field plucking.
            let snap = &r.at(n).outcome.snapshot;
            fetch.prediction += snap.expect("proc0/fetch_latency/prediction") / count;
            fetch.tag_access += snap.expect("proc0/fetch_latency/tag_access") / count;
            fetch.hand_off += snap.expect("proc0/fetch_latency/hand_off") / count;
            fetch.fetch_distribution +=
                snap.expect("proc0/fetch_latency/fetch_distribution") / count;
            fetch.dispatch += snap.expect("proc0/fetch_latency/dispatch") / count;
            commit.handshake += snap.expect("proc0/commit_latency/handshake") / count;
            commit.arch_update += snap.expect("proc0/commit_latency/arch_update") / count;
        }
        series.push(Point {
            cores: n,
            fetch,
            commit,
        });
    }

    println!("Figure 9a: distributed fetch latency per block (cycles, suite average)");
    println!(
        "{:>5} {:>10} {:>5} {:>9} {:>10} {:>9} {:>7}",
        "cores", "predict", "tag", "hand-off", "fetch-dist", "dispatch", "total"
    );
    for p in &series {
        println!(
            "{:>5} {:>10.1} {:>5.1} {:>9.1} {:>10.1} {:>9.1} {:>7.1}",
            p.cores,
            p.fetch.prediction,
            p.fetch.tag_access,
            p.fetch.hand_off,
            p.fetch.fetch_distribution,
            p.fetch.dispatch,
            p.fetch.total()
        );
    }
    println!();
    println!("Figure 9b: distributed commit latency per block (cycles, suite average)");
    println!(
        "{:>5} {:>10} {:>12} {:>7}",
        "cores", "handshake", "arch-update", "total"
    );
    for p in &series {
        println!(
            "{:>5} {:>10.1} {:>12.1} {:>7.1}",
            p.cores,
            p.commit.handshake,
            p.commit.arch_update,
            p.commit.total()
        );
    }

    save_json(
        "fig9.json",
        &json!({"series": series, "failures": (suite.failures)}),
    );
    ctx.obs.save_sweep_snapshots(&rows);
    None
}
