//! clp-fig: regenerate the paper's tables and figures by name.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-fig -- list       # the registry
//! cargo run --release -p clp-bench --bin clp-fig -- fig6       # one figure
//! cargo run --release -p clp-bench --bin clp-fig -- fig9 --stats-json s.json
//! cargo run --release -p clp-bench --bin clp-fig -- all        # EXPERIMENTS.md's list
//! ```
//!
//! Each named figure prints what the paper reports and writes its JSON
//! under `target/clp-results/` (see [`clp_bench::figs`]). `all` runs the
//! regeneration list in order — the suite matrix behind Figures 5–10
//! and Table 2 is measured once — and closes with the
//! paper-versus-measured table. `--stats-json` dumps the stats snapshot
//! of every cell a figure read; it applies to the figures `list` marks
//! `[obs]`, exactly one at a time.
//!
//! Exit codes: 0 = regenerated, 1 = some suite cell failed (its row is
//! dropped from the figures and reported on stderr), 2 = usage error or
//! an unwritable output.

use clp_bench::figs::{self, Ctx, FigObs, Figure, OBS_FLAGS, REGISTRY};
use clp_bench::results_dir;
use clp_core::cli::{die, write_or_die, Spec};

const SPEC: Spec = Spec {
    prog: "clp-fig",
    about: "Regenerates the paper's tables and figures; `list` names them, `all` runs \
            EXPERIMENTS.md's list and the paper-vs-measured table.",
    positionals: &["NAME..."],
    flags: &OBS_FLAGS,
    epilog: "",
};

fn main() {
    let args = SPEC.parse_env();
    let obs = FigObs {
        stats_json: args.text("--stats-json"),
    };
    let names = args.positionals();
    if names == ["list"] {
        for f in &REGISTRY {
            let obs = if f.takes_obs { "[obs]" } else { "" };
            println!("{:<26}{:<6}{}", f.name, obs, f.what);
        }
        return;
    }
    // `None` is `all`.
    let picked: Option<Vec<&Figure>> = (names != ["all"]).then(|| {
        let pick = |name: &String| {
            let f = figs::by_name(name).unwrap_or_else(|| {
                die(format!(
                    "unknown figure `{name}`; `clp-fig list` names them"
                ))
            });
            if obs.stats_json.is_some() && !f.takes_obs {
                die(format!("{name} takes no --stats-json"));
            }
            f
        };
        names.iter().map(pick).collect()
    });
    // Fail on an unwritable output now, not after the sweep.
    if let Some(path) = &obs.stats_json {
        if picked.as_ref().is_none_or(|p| p.len() != 1) {
            die("--stats-json wants exactly one figure name");
        }
        write_or_die(path, "");
    }
    let _ = results_dir();
    let mut ctx = Ctx::new(obs);
    match picked {
        None => figs::run_all(&mut ctx),
        Some(picked) => picked.iter().for_each(|f| {
            (f.run)(&mut ctx);
        }),
    }
    if ctx.failed_cells > 0 {
        eprintln!("clp-fig: {} suite cell(s) failed", ctx.failed_cells);
        std::process::exit(1);
    }
}
