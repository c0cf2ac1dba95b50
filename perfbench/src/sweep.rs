//! `sweep-tiny`: regenerating the evaluation, as one
//! `exp-all --size tiny --threads 2` pass (746 cells, 19 experiments).
//! Per-cell harness overhead dominates here: trace generation, the
//! checkpoint rewritten after every cell under a mutex, matrix tails.

use crate::digests::Digests;
use crate::util::{self, duplicate_shares, median, secs, Reaped, Report};
use crate::Ctx;
use ccraft_harness::checkpoint::{self, CellRecord, Checkpoint, Session};
use ccraft_harness::experiments as exp;
use ccraft_harness::metrics::{self, MetricsRegistry};
use ccraft_harness::{store, Error, ExpOptions};
use ccraft_sim::stats::SimStats;
use ccraft_workloads::{SizeClass, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of the sweep (no more than the benchmark host's 2).
const THREADS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// An `exp-all` pass that takes longer than this has hung.
const PASS_LIMIT: Duration = Duration::from_secs(150);

type Experiment = fn(&ExpOptions) -> Result<(), Error>;

/// The experiments `exp-all` runs, in its order.
const EXPERIMENTS: [(&str, Experiment); 19] = [
    ("config_table", exp::config_table::run),
    ("workload_table", exp::workload_table::run),
    ("motivation", exp::motivation::run),
    ("rowhit", exp::rowhit::run),
    ("main_result", exp::main_result::run),
    ("ecchit", exp::ecchit::run),
    ("ablation", exp::ablation::run),
    ("sens_ratio", exp::sens_ratio::run),
    ("sens_l2", exp::sens_l2::run),
    ("sens_ecccap", exp::sens_ecccap::run),
    ("sens_channels", exp::sens_channels::run),
    ("hbm", exp::hbm::run),
    ("energy", exp::energy::run),
    ("frugal", exp::frugal::run),
    ("scheduler", exp::scheduler::run),
    ("reliability", exp::reliability::run),
    ("faults", exp::faults::run),
    ("storage", exp::storage::run),
    ("tagged", exp::tagged::run),
];

/// One `exp-all` pass into a fresh `results`; returns its wall seconds.
fn exp_all(ctx: &Ctx, results: &Path) -> Option<f64> {
    util::fresh_dir(results);
    let log = |name: &str| {
        std::fs::File::create(results.with_file_name(name)).expect("creating exp-all log")
    };
    let t = Instant::now();
    let child = Command::new(ctx.bin_dir.join("exp-all"))
        .args(["--size", "tiny", "--threads", &THREADS.to_string()])
        .args(["--seed", &ctx.seed.to_string()])
        .env("CCRAFT_RESULTS", results)
        .env("CCRAFT_PROGRESS", "0")
        .stdin(Stdio::null())
        .stdout(log("exp-all.out"))
        .stderr(log("exp-all.err"))
        .spawn()
        .expect("spawning exp-all");
    let status = Reaped(child).wait_timeout(PASS_LIMIT)?;
    let wall = secs(t);
    status.success().then_some(wall)
}

/// The sweep's durable outputs other than the run bookkeeping
/// (manifest, checkpoint): name -> verified payload.
fn outputs(results: &Path) -> BTreeMap<String, Option<Vec<u8>>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(results)
        .expect("listing results")
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().to_string();
        if name.ends_with(".csv") {
            let payload = store::read_verified(&entry.path())
                .ok()
                .filter(|v| v.verified)
                .map(|v| v.payload);
            out.insert(name, payload);
        }
    }
    out
}

fn load_checkpoint(results: &Path) -> Option<Checkpoint> {
    let (text, verified) = store::read_verified_string(&results.join("checkpoint.json")).ok()?;
    verified.then(|| serde_json::from_str(&text).ok()).flatten()
}

/// Generates the 13 tiny traces every cell of the sweep starts from;
/// returns their total accesses.
fn generate(seed: u64) -> u64 {
    Workload::ALL
        .iter()
        .map(|w| w.generate(SizeClass::Tiny, seed).total_accesses())
        .sum()
}

pub fn run(ctx: &Ctx, digests: &mut Digests, rep: &mut Report) {
    let mut setup = Vec::new();
    let mut accesses = 0;
    for _ in 0..SETUP_REPS {
        let cpu = util::thread_cpu_ns();
        accesses = std::hint::black_box(generate(ctx.seed));
        setup.push((util::thread_cpu_ns() - cpu) as f64 / 1e9);
    }
    rep.e2e("setup_s", median(&setup), "s");

    let results = ctx.work_dir.join("results");
    let t = Instant::now();
    let mut walls = Vec::new();
    loop {
        let wall = exp_all(ctx, &results);
        rep.check(wall.is_some(), || "exp-all failed or hung".to_string());
        let Some(wall) = wall else { break };
        walls.push(wall);
        if secs(t) * (walls.len() + 1) as f64 / walls.len() as f64 > ctx.seconds {
            break;
        }
    }
    let sweep_wall = median(&walls);
    rep.figure("sweep_wall_s", sweep_wall, "s");
    rep.figure("passes", walls.len() as f64, "count");
    // The pass's wall time also carries fsync latency and run-queue
    // waits on the shared host; its CPU time is the steadier gauge.
    let (cpu, peak) = util::children_usage();
    rep.e2e("work_s", cpu / walls.len() as f64, "s");
    rep.e2e("peak_rss_mb", peak, "MiB");

    // Oracle on the last pass's outputs.
    let files = outputs(&results);
    for (name, payload) in &files {
        rep.check(payload.is_some(), || {
            format!("{name}: crc footer does not verify")
        });
        if let Some(p) = payload {
            digests.check(rep, &format!("sweep-tiny/{name}"), &util::digest_bytes(p));
        }
    }
    digests.finish(rep, "sweep-tiny/", |_| true);
    let ckpt = load_checkpoint(&results);
    rep.check(ckpt.is_some(), || "checkpoint.json unreadable".to_string());
    let cells: Vec<CellRecord> = ckpt.map(|c| c.cells).unwrap_or_default();
    for c in &cells {
        let timed_out = c.stats.as_ref().is_some_and(|s| s.timed_out);
        rep.check(c.is_ok() && !timed_out, || {
            format!("cell {} is {}", c.key, c.status)
        });
        if let (Some(s), true) = (&c.stats, c.key.ends_with("/no-protection")) {
            let ecc = util::ecc_transactions(s);
            rep.check(ecc == 0, || {
                format!("{}: {ecc} ECC DRAM transactions", c.key)
            });
        }
    }
    rep.figure("cells", cells.len() as f64, "count");
    let stats: Vec<&SimStats> = cells.iter().filter_map(|c| c.stats.as_ref()).collect();
    let (dup_cells, dup_cycles) = duplicate_shares(&stats);
    rep.figure("duplicate_cell_frac", dup_cells, "ratio");

    if !ctx.trace {
        return;
    }
    rep.layer("harness.duplicate_cell_frac", dup_cells, "ratio");
    rep.layer("harness.duplicate_cycle_frac", dup_cycles, "ratio");
    let cycles: u64 = stats.iter().map(|s| s.cycles).sum();
    rep.layer("sim.mcycles_simulated", cycles as f64 / 1e6, "Mcycles");
    rep.layer("workloads.generate_ms", median(&setup) * 1e3, "ms");
    rep.layer("workloads.accesses", accesses as f64, "count");

    traced_in_process(ctx, &files, sweep_wall, rep);
    replay_checkpoint(ctx, &cells, rep);
}

/// The same sweep in process, one span per experiment, with a
/// checkpoint session and a metrics registry installed as
/// `run_experiment` installs them.
fn traced_in_process(
    ctx: &Ctx,
    untraced: &BTreeMap<String, Option<Vec<u8>>>,
    untraced_wall: f64,
    rep: &mut Report,
) {
    let results = util::fresh_dir(&ctx.work_dir.join("traced"));
    std::env::set_var("CCRAFT_RESULTS", &results);
    let opts = ExpOptions {
        size: SizeClass::Tiny,
        seed: ctx.seed,
        threads: THREADS,
        ..ExpOptions::default()
    };
    let fingerprint = ccraft_harness::runner::experiment_fingerprint("exp-all", &opts);
    checkpoint::install(Session::start(
        &fingerprint,
        results.join("checkpoint.json"),
        false,
    ));
    let registry = Arc::new(MetricsRegistry::new());
    metrics::install(Arc::clone(&registry));
    let t = Instant::now();
    util::with_stdout_to(&ctx.work_dir.join("traced.out"), || {
        for (id, body) in EXPERIMENTS {
            let span = Instant::now();
            let ok = body(&opts).is_ok();
            rep.check(ok, || format!("experiment {id} failed in process"));
            rep.layer(&format!("harness.exp.{id}_s"), secs(span), "s");
        }
    });
    let wall = secs(t);
    checkpoint::clear();
    metrics::clear();
    rep.check(outputs(&results) == *untraced, || {
        "in-process outputs differ from exp-all's".to_string()
    });
    rep.layer(
        "telemetry.profile_overhead_pct",
        100.0 * (wall - untraced_wall) / untraced_wall,
        "%",
    );

    // Per-cell wall times, from the registry's cumulative histogram.
    let text = registry.render();
    let value = |line: &str| line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
    let mut buckets = Vec::new();
    let (mut count, mut sum) = (0.0, 0.0);
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("ccraft_cell_seconds_bucket{le=\"") {
            let le = rest.split('"').next().and_then(|b| b.parse::<f64>().ok());
            if let (Some(le), Some(n)) = (le, value(line)) {
                buckets.push((le, n));
            }
        } else if line.starts_with("ccraft_cell_seconds_count ") {
            count = value(line).unwrap_or(0.0);
        } else if line.starts_with("ccraft_cell_seconds_sum ") {
            sum = value(line).unwrap_or(0.0);
        }
    }
    for (q, name) in [(0.5, "harness.cell_ms_p50"), (0.95, "harness.cell_ms_p95")] {
        rep.layer(name, 1e3 * bucket_quantile(&buckets, count, q), "ms");
    }
    rep.layer(
        "harness.worker_busy_frac",
        sum / (THREADS as f64 * wall),
        "ratio",
    );
}

/// Quantile `q` of a cumulative histogram, interpolating linearly
/// inside the bucket that holds it.
fn bucket_quantile(buckets: &[(f64, f64)], count: f64, q: f64) -> f64 {
    let rank = q * count;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, n) in buckets {
        if n >= rank && n > below {
            return lo + (le - lo) * (rank - below) / (n - below);
        }
        (lo, below) = (le, n);
    }
    lo
}

/// Replays the sweep's cell records through a fresh checkpoint session,
/// which rewrites the whole checkpoint durably after every record.
fn replay_checkpoint(ctx: &Ctx, cells: &[CellRecord], rep: &mut Report) {
    let dir = util::fresh_dir(&ctx.work_dir.join("replay"));
    let path = dir.join("checkpoint.json");
    let mut session = Session::start("replay", path.clone(), false);
    let (mut ms, mut bytes) = (0.0, 0u64);
    for c in cells {
        let t = Instant::now();
        let ok = session.record(c.clone()).is_ok();
        ms += util::millis(t);
        rep.check(ok, || format!("checkpoint record of {} failed", c.key));
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    }
    rep.layer("checkpoint.record_ms_total", ms, "ms");
    rep.layer("checkpoint.bytes_written", bytes as f64, "bytes");
}
