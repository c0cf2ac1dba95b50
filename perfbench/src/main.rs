//! The repository benchmark. One run measures one workload for about
//! `--seconds`, checks every output it produced, prints the workload's
//! figures as `name value unit` lines, and ends with one JSON line:
//! the end-to-end metrics of `BENCHMARK.json` (`--trace 0`) or its
//! per-layer metrics (`--trace 1`).
//!
//! All timing happens here, around calls into the program's public
//! functions and binaries; the program itself is not instrumented.
//! Every simulated cell starts with empty caches. The modelled design
//! has no real-hardware reference in the repository, so simulated
//! figures are reported as unvalidated, with no error figure.
//!
//! Run it through `run.py`, which builds everything first.

mod digests;
mod layers;
mod serve;
mod simfull;
mod sweep;
mod util;

use serde::Deserialize;
use std::path::PathBuf;
use util::Report;

/// What every workload receives.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: drives trace generation and job seeds.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where `exp-all` and `ccx` were built.
    pub bin_dir: PathBuf,
    /// This run's scratch directory (emptied at start).
    pub work_dir: PathBuf,
}

#[derive(Debug, Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct Spec {
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn required<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    arg(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing or malformed {flag}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: String = required(&args, "--workload");
    let bench_dir = PathBuf::from(required::<String>(&args, "--bench-dir"));
    let ctx = Ctx {
        seed: required(&args, "--seed"),
        seconds: required(&args, "--seconds"),
        trace: required::<u8>(&args, "--trace") == 1,
        bin_dir: PathBuf::from(required::<String>(&args, "--bin-dir")),
        work_dir: util::fresh_dir(&PathBuf::from(required::<String>(&args, "--work-dir"))),
    };
    let spec: Spec = serde_json::from_str(
        &std::fs::read_to_string("BENCHMARK.json").expect("reading BENCHMARK.json"),
    )
    .expect("parsing BENCHMARK.json");
    let mut digests = digests::Digests::load(
        bench_dir.join("digests.txt"),
        ctx.seed,
        args.iter().any(|a| a == "--bless"),
    );

    let mut rep = Report::default();
    match workload.as_str() {
        "sim-full" => simfull::run(&ctx, &mut digests, &mut rep),
        "sweep-tiny" => sweep::run(&ctx, &mut digests, &mut rep),
        "serve-mixed" => serve::run(&ctx, &mut digests, &mut rep),
        other => panic!("unknown workload {other:?}"),
    }

    let prov = ccraft_telemetry::manifest::Provenance::capture();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "info workload={workload} seed={} seconds={} trace={} host={} rustc={:?} commit={} nproc={nproc}",
        ctx.seed, ctx.seconds, ctx.trace as u8, prov.hostname, prov.rustc, prov.git_commit
    );
    println!("info simulated figures come from an unvalidated model; caches start empty");
    for (name, (value, unit)) in &rep.end_to_end {
        println!("{name} {value} {unit}");
    }
    for (name, value, unit) in &rep.figures {
        println!("{name} {value} {unit}");
    }
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ratio ({}/{})",
        rep.failed, rep.attempted
    );

    let (wanted, measured) = if ctx.trace {
        (&spec.per_layer, &rep.per_layer)
    } else {
        (&spec.end_to_end, &rep.end_to_end)
    };
    for name in measured.keys() {
        assert!(
            wanted.iter().any(|m| &m.name == name),
            "metric {name} is not listed in BENCHMARK.json"
        );
    }
    let mut metrics = Vec::new();
    for m in wanted {
        // A per-layer metric of a layer this workload does not exercise
        // reads 0; every end-to-end metric is measured on every workload.
        let value = match measured.get(&m.name) {
            Some(&(v, unit)) => {
                assert_eq!(unit, m.unit, "unit of {}", m.name);
                v
            }
            None if ctx.trace => 0.0,
            None => panic!("end-to-end metric {} was not measured", m.name),
        };
        assert!(value.is_finite(), "{} is not finite", m.name);
        if ctx.trace {
            println!("{} {value} {}", m.name, m.unit);
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
}
