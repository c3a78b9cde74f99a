//! clp-hostbench — the host-side benchmark of the CLP simulator stack.
//!
//! ```text
//! clp-hostbench --workload W --seed S --seconds T --trace 0|1 [--set FILE]
//! clp-hostbench compare A.json B.json
//! ```
//!
//! A run sets the workload up, repeats passes over its fixed unit list
//! until `T` seconds have gone by since the process started, checks every
//! pass's outputs, and prints every metric of its mode by name with its
//! unit; the last line of standard output is the result as one JSON
//! object. Layers are timed from outside, around calls into their public
//! functions; the end-to-end timings are CPU time against the host's
//! speed at that moment (`calib`). See `README.md` for the metrics and
//! the noise protocol.

mod book;
mod calib;
mod compare;
mod manifest;
mod probes;
mod spans;
mod workloads;

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Bench, Outcome, Workload};

/// The repository root: `BENCHMARK.json` and the committed goldens live
/// one level above this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// A result-set file this run's result is appended to.
    set: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut set) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value `{value}` (0 or 1)")),
                });
            }
            "--set" => set = Some(PathBuf::from(value)),
            _ => return Err(format!("unexpected argument `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        set,
    })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The result object: the contract's four keys.
fn result_object(opts: &Options, out: &Outcome) -> Result<Value, String> {
    let defs = if opts.traced {
        manifest::PER_LAYER
    } else {
        manifest::END_TO_END
    };
    if let Some(stray) = out
        .values
        .keys()
        .find(|k| !defs.iter().any(|d| d.name == **k))
    {
        return Err(format!("metric `{stray}` is not in the binary's own table"));
    }
    let metrics = defs
        .iter()
        .map(|d| {
            let value = out
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
            let entry = Value::Object(vec![
                ("value".to_string(), Value::Float(*value)),
                ("unit".to_string(), Value::String(d.unit.to_string())),
            ]);
            Ok((d.name.to_string(), entry))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Value::Object(vec![
        ("correct".to_string(), Value::Bool(out.failed == 0)),
        ("attempted".to_string(), Value::UInt(out.attempted)),
        ("failed".to_string(), Value::UInt(out.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]))
}

/// The result with where it came from, as kept in `benchmark/out/`.
fn with_provenance(result: &Value, opts: &Options, out: &Outcome) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut fields = vec![
        (
            "workload".to_string(),
            Value::String(opts.workload.name().to_string()),
        ),
        ("trace".to_string(), Value::UInt(u64::from(opts.traced))),
        ("seed".to_string(), Value::UInt(opts.seed)),
        ("seconds".to_string(), Value::UInt(opts.seconds)),
        ("passes".to_string(), Value::UInt(out.passes as u64)),
        (
            "pass_spread_pct".to_string(),
            Value::Float(out.pass_spread_pct),
        ),
        (
            "wall_fastest_s".to_string(),
            Value::Float(out.wall_fastest_s),
        ),
        ("host_speed_x".to_string(), Value::Float(out.host_speed_x)),
        (
            "host_speed_spread_pct".to_string(),
            Value::Float(out.host_speed_spread_pct),
        ),
        (
            "pass_wall_s".to_string(),
            Value::Array(out.pass_log.iter().map(|p| Value::Float(p.0)).collect()),
        ),
        (
            "pass_host_speed_x".to_string(),
            Value::Array(out.pass_log.iter().map(|p| Value::Float(p.1)).collect()),
        ),
        ("nproc".to_string(), Value::UInt(nproc)),
        (
            "rustc".to_string(),
            Value::String(env!("HOSTBENCH_RUSTC").to_string()),
        ),
    ];
    if let Value::Object(result) = result {
        fields.extend(result.iter().cloned());
    }
    Value::Object(fields)
}

/// Appends `run` to the `runs` list of the result-set file `path`.
fn append_to_set(path: &Path, run: Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => compare::runs_of(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    runs.push(run);
    let doc = Value::Object(vec![("runs".to_string(), Value::Array(runs))]);
    let text = serde_json::to_string_pretty(&doc).expect("serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run(opts: &Options, started: Instant) -> Result<(), String> {
    if std::env::var_os("CLP_SIM_THREADS").is_some() {
        return Err(
            "CLP_SIM_THREADS is set: it changes every run's threading, unset it".to_string(),
        );
    }
    if cfg!(debug_assertions) {
        return Err("built with debug assertions: build with --release".to_string());
    }
    let root = repo_root();
    let manifest_path = root.join("BENCHMARK.json");
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    manifest::load(&manifest_text)?;

    let mut bench = Bench::new(opts.workload, opts.seed, opts.traced, &root)?;
    bench.run_passes(started + Duration::from_secs(opts.seconds))?;
    let out = bench.finish(peak_rss_mb()?);
    let result = result_object(opts, &out)?;

    let out_dir = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let stem = format!("{}.trace{}", opts.workload.name(), u8::from(opts.traced));
    let record = with_provenance(&result, opts, &out);
    let record_path = out_dir.join(format!("{stem}.json"));
    let text = serde_json::to_string_pretty(&record).expect("serializes");
    std::fs::write(&record_path, text + "\n")
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    if let Some(trace) = &out.trace_json {
        let path = out_dir.join(format!("{}.trace.json", opts.workload.name()));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(set) = &opts.set {
        append_to_set(set, record)?;
    }

    println!(
        "clp-hostbench: {} seed {} trace {}: {} passes, {} attempted, {} failed",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.traced),
        out.passes,
        out.attempted,
        out.failed
    );
    for (name, m) in result["metrics"].as_object().into_iter().flatten() {
        let value = m["value"].as_f64().unwrap_or(f64::NAN);
        println!(
            "  {name:<28} {value:>16.6} {}",
            m["unit"].as_str().unwrap_or("")
        );
    }
    println!("{}", serde_json::to_string(&result).expect("serializes"));
    Ok(())
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare::compare_files(&repo_root(), Path::new(a), Path::new(b)),
            _ => Err("usage: clp-hostbench compare A.json B.json".to_string()),
        }
    } else {
        parse_options(&args)
            .and_then(|opts| run(&opts, started))
            .map(|()| true)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("clp-hostbench: {e}");
            std::process::exit(2);
        }
    }
}
