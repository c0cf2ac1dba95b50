//! `serve-mixed`: the experiment service. A `ccx serve` daemon on a
//! prewarmed cache and one closed-loop client alternating two kinds of
//! job. The cell cache and the store do most of the work here.
//!
//! - warm: resubmit one of `K` prewarmed 13x4 tiny sweeps; all 52 cells
//!   hit (reads);
//! - miss: the same sweep with one seed override to a fresh seed; 51
//!   hits plus one simulate-and-durable-insert (writes).
//!
//! The client polls `GET /jobs/<id>` every `POLL`, not at `ccx submit`'s
//! 50 ms interval, which would quantise a ~27 ms warm job to ~56 ms and
//! hide any cache-layer change.

use crate::digests::Digests;
use crate::util::{self, duplicate_shares, median, quantile, samples_for, secs, Reaped, Report};
use crate::Ctx;
use ccraft_core::factory::{run_scheme, SchemeKind};
use ccraft_harness::cellcache::{CacheEntry, ResultCache};
use ccraft_harness::report::Table;
use ccraft_harness::store;
use ccraft_serve::{fetch_csv, http_request, submit_job, JobSpec, JobView, SeedOverride};
use ccraft_sim::config::GpuConfig;
use ccraft_sim::stats::SimStats;
use ccraft_workloads::{SizeClass, Workload};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Prewarmed sweeps.
const K: u64 = 2;
/// Status poll interval.
const POLL: Duration = Duration::from_micros(500);
/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The daemon keeps every job in memory, so its footprint grows with
/// the jobs served: peak RSS is read after this many jobs, which every
/// run reaches (each class needs 200 samples for its p95).
const RSS_AT_JOBS: usize = 400;
/// Miss jobs whose CSV digests are committed (the first ones of a run).
const MISS_DIGESTS: u64 = 64;
/// Cells a miss job re-simulates, in rotation: the cheapest tiny cells,
/// so a miss job is the cache write path plus one short simulation.
const MISS_CELLS: [(&str, &str); 8] = [
    ("histogram", "no-protection"),
    ("gemm", "inline-naive"),
    ("histogram", "ecc-cache"),
    ("gemm", "cachecraft"),
    ("histogram", "inline-naive"),
    ("gemm", "no-protection"),
    ("histogram", "cachecraft"),
    ("gemm", "ecc-cache"),
];

fn sweep_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_000).wrapping_add(k)
}

fn miss_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(1_000_000).wrapping_add(1_000 + j)
}

fn sweep_spec(seed: u64, k: u64) -> JobSpec {
    JobSpec {
        size: "tiny".to_string(),
        seed: sweep_seed(seed, k),
        ..JobSpec::default()
    }
}

/// A sweep's cells in the daemon's order (workload-major, headline
/// scheme order) with their `run_scheme` stats.
type Sweep = Vec<(Workload, SchemeKind, SimStats)>;

fn cell_stats(cfg: &GpuConfig, w: Workload, s: SchemeKind, seed: u64) -> SimStats {
    run_scheme(cfg, s, &w.generate(SizeClass::Tiny, seed))
}

fn expected_sweep(cfg: &GpuConfig, seed: u64) -> Sweep {
    Workload::ALL
        .iter()
        .flat_map(|&w| SchemeKind::headline(cfg).map(|s| (w, s)))
        .map(|(w, s)| (w, s, cell_stats(cfg, w, s, seed)))
        .collect()
}

/// The job CSV the daemon must serve for `cells` (its column layout).
fn expected_csv(cells: &[(Workload, SchemeKind, &SimStats, &str)]) -> Vec<u8> {
    let mut table = Table::new(vec![
        "workload",
        "scheme",
        "cycles",
        "exec_cycles",
        "ipc",
        "l2_hit_rate",
        "row_hit_rate",
        "dram_bytes",
        "mean_read_latency",
        "cache",
    ]);
    for (w, s, st, cache) in cells {
        table.row(vec![
            w.name().to_string(),
            s.name().to_string(),
            st.cycles.to_string(),
            st.exec_cycles.to_string(),
            format!("{:.6}", st.ipc()),
            format!("{:.6}", st.l2_hit_rate()),
            format!("{:.6}", st.row_hit_rate()),
            st.dram_bytes().to_string(),
            format!("{:.4}", st.mean_read_latency),
            cache.to_string(),
        ]);
    }
    table.to_csv().into_bytes()
}

struct Daemon {
    proc: Reaped,
    addr: String,
}

/// Starts `ccx serve` on `cache`; returns it with the seconds from spawn
/// until `/healthz` answers. The port is picked free just before the
/// spawn; if another process takes it first, the daemon exits and the
/// start is retried on a new port.
fn start_daemon(ctx: &Ctx, cache: &Path) -> (Daemon, f64) {
    for _ in 0..3 {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("finding a free port")
            .port();
        let addr = format!("127.0.0.1:{port}");
        let log = std::fs::File::create(ctx.work_dir.join(format!("serve-{port}.log")))
            .expect("creating daemon log");
        let t = Instant::now();
        let child = Command::new(ctx.bin_dir.join("ccx"))
            .args(["serve", "--addr", &addr, "--cache-dir"])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawning ccx serve");
        let mut proc = Reaped(child);
        while proc.0.try_wait().ok().flatten().is_none() {
            if matches!(http_request(&addr, "GET", "/healthz", None), Ok((200, _))) {
                return (Daemon { proc, addr }, secs(t));
            }
            assert!(secs(t) < 30.0, "ccx serve did not come up on {addr}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    panic!("ccx serve exited before answering, three times");
}

/// One job from POST to verified CSV download.
struct Job {
    warm: bool,
    k: u64,
    /// Miss jobs: (index, workload, scheme) of the re-simulated cell.
    miss: Option<(u64, Workload, SchemeKind)>,
    total_ms: f64,
    post_ms: f64,
    run_ms: f64,
    csv_ms: f64,
    view: Option<JobView>,
    csv: Option<Vec<u8>>,
}

fn run_job(addr: &str, spec: &JobSpec) -> (Option<JobView>, Option<Vec<u8>>, [f64; 3]) {
    let t = Instant::now();
    let Ok(id) = submit_job(addr, spec) else {
        return (None, None, [0.0; 3]);
    };
    let post = util::millis(t);
    let view = loop {
        let Ok((200, body)) = http_request(addr, "GET", &format!("/jobs/{id}"), None) else {
            break None;
        };
        let Ok(view) = serde_json::from_str::<JobView>(&String::from_utf8_lossy(&body)) else {
            break None;
        };
        if view.status != "queued" && view.status != "running" {
            break Some(view);
        }
        std::thread::sleep(POLL);
    };
    let run = util::millis(t);
    let csv = view
        .as_ref()
        .and_then(|_| fetch_csv(addr, &id).ok())
        .map(|(p, _)| p);
    let total = util::millis(t);
    (view, csv, [post, run - post, total - run])
}

/// The closed loop: alternate warm and miss jobs for `seconds`, and
/// until each class has enough samples for its p95.
fn closed_loop(
    ctx: &Ctx,
    daemon: &Daemon,
    cfg: &GpuConfig,
    first_j: u64,
    seconds: f64,
    rss: &mut Option<f64>,
) -> Vec<Job> {
    let addr = &daemon.addr;
    let mut jobs = Vec::new();
    let t = Instant::now();
    let mut j = first_j;
    let need = samples_for(0.95) * 2;
    let mut daemon_ok = true;
    while daemon_ok && (secs(t) < seconds || (jobs.len() < need && secs(t) < 3.0 * seconds)) {
        let k = j % K;
        let (w, s) = MISS_CELLS[(j % MISS_CELLS.len() as u64) as usize];
        let miss = (
            j,
            Workload::from_name(w).expect("known workload"),
            SchemeKind::headline(cfg)
                .into_iter()
                .find(|k| k.name() == s)
                .expect("headline scheme"),
        );
        for warm in [true, false] {
            let mut spec = sweep_spec(ctx.seed, k);
            if !warm {
                spec.seed_overrides = vec![SeedOverride {
                    workload: w.to_string(),
                    scheme: s.to_string(),
                    seed: miss_seed(ctx.seed, j),
                }];
            }
            let (view, csv, [post_ms, run_ms, csv_ms]) = run_job(addr, &spec);
            if rss.is_none() && jobs.len() + 1 == RSS_AT_JOBS {
                *rss = Some(util::peak_rss_mib(&daemon.proc.pid()));
            }
            daemon_ok &= view.is_some();
            jobs.push(Job {
                warm,
                k,
                miss: (!warm).then_some(miss),
                total_ms: post_ms + run_ms + csv_ms,
                post_ms,
                run_ms,
                csv_ms,
                view,
                csv,
            });
        }
        j += 1;
    }
    jobs
}

pub fn run(ctx: &Ctx, digests: &mut Digests, rep: &mut Report) {
    let cfg = GpuConfig::gddr6();

    // Prewarm: the daemon simulates the K sweeps into an empty cache
    // while the benchmark computes the same cells with `run_scheme`.
    let prewarm = util::fresh_dir(&ctx.work_dir.join("prewarm"));
    let expected: Vec<Sweep> = {
        let (daemon, _) = start_daemon(ctx, &prewarm);
        let ids: Vec<_> = (0..K)
            .map(|k| submit_job(&daemon.addr, &sweep_spec(ctx.seed, k)).expect("prewarm submit"))
            .collect();
        let expected: Vec<Sweep> = (0..K)
            .map(|k| expected_sweep(&cfg, sweep_seed(ctx.seed, k)))
            .collect();
        for (id, sweep) in ids.iter().zip(&expected) {
            let view = ccraft_serve::wait_for_job(&daemon.addr, id, false).ok();
            let csv = fetch_csv(&daemon.addr, id).ok().map(|(p, _)| p);
            let want: Vec<_> = sweep
                .iter()
                .map(|(w, s, st)| (*w, *s, st, "miss"))
                .collect();
            rep.check(
                view.is_some_and(|v| v.misses == 52) && csv == Some(expected_csv(&want)),
                || format!("prewarm job {id} does not match run_scheme"),
            );
        }
        expected
    };

    let cache = ctx.work_dir.join("cache");
    util::copy_dir(&prewarm, &cache);
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        drop(daemon.take());
        let (d, s) = start_daemon(ctx, &cache);
        setup.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one daemon start");
    rep.e2e("setup_s", median(&setup), "s");

    let t = Instant::now();
    let mut rss = None;
    let cpu = util::process_cpu_s(&daemon.proc.pid());
    let mut jobs = closed_loop(ctx, &daemon, &cfg, 0, ctx.seconds, &mut rss);
    let loop_s = secs(t);
    let cpu_per_job = (util::process_cpu_s(&daemon.proc.pid()) - cpu) / jobs.len() as f64;
    rep.figure("daemon_cpu_ms_per_job", cpu_per_job * 1e3, "ms");
    let untraced_mean = loop_s / jobs.len() as f64;
    // One unit of work is a warm job plus the miss job after it.
    let pairs: Vec<f64> = jobs
        .chunks(2)
        .map(|p| p.iter().map(|j| j.total_ms).sum::<f64>() / 1e3)
        .collect();
    rep.e2e("work_s", median(&pairs), "s");
    rep.figure("jobs_per_s", jobs.len() as f64 / loop_s, "1/s");
    if ctx.trace {
        // The traced loop reports per-phase spans; its mean job time
        // against the untraced loop's is the tracing overhead.
        let next_j = jobs.len() as u64 / 2;
        let t = Instant::now();
        let traced = closed_loop(ctx, &daemon, &cfg, next_j, ctx.seconds / 2.0, &mut rss);
        let traced_mean = secs(t) / traced.len() as f64;
        rep.layer(
            "telemetry.profile_overhead_pct",
            100.0 * (traced_mean - untraced_mean) / untraced_mean,
            "%",
        );
        for (warm, class) in [(true, "warm"), (false, "miss")] {
            let of = |f: fn(&Job) -> f64| -> f64 {
                median(
                    &traced
                        .iter()
                        .filter(|j| j.warm == warm)
                        .map(f)
                        .collect::<Vec<_>>(),
                )
            };
            rep.layer(&format!("serve.post_ms.{class}"), of(|j| j.post_ms), "ms");
            rep.layer(&format!("serve.run_ms.{class}"), of(|j| j.run_ms), "ms");
            rep.layer(
                &format!("serve.csv_fetch_ms.{class}"),
                of(|j| j.csv_ms),
                "ms",
            );
        }
        jobs.extend(traced);
    }
    let rss = rss.unwrap_or_else(|| util::peak_rss_mib(&daemon.proc.pid()));
    rep.e2e("peak_rss_mb", rss, "MiB");
    drop(daemon);

    for (warm, class) in [(true, "warm"), (false, "miss")] {
        let ms: Vec<f64> = jobs
            .iter()
            .filter(|j| j.warm == warm)
            .map(|j| j.total_ms)
            .collect();
        rep.figure(&format!("job_ms_p50.{class}"), median(&ms), "ms");
        rep.figure(&format!("job_ms_p95.{class}"), quantile(&ms, 0.95), "ms");
        rep.figure(&format!("samples.{class}"), ms.len() as f64, "count");
        let of = |f: fn(&JobView) -> u64| -> f64 {
            let class: Vec<&JobView> = jobs
                .iter()
                .filter(|j| j.warm == warm)
                .filter_map(|j| j.view.as_ref())
                .collect();
            class.iter().map(|v| f(v)).sum::<u64>() as f64 / class.len().max(1) as f64
        };
        let hit_share = of(|v| v.hits) / of(|v| v.cells).max(1.0);
        rep.figure(&format!("cache_hit_share.{class}"), hit_share, "ratio");
        if ctx.trace {
            rep.layer(
                &format!("serve.cache_hit_share.{class}"),
                hit_share,
                "ratio",
            );
            rep.layer(
                &format!("serve.cells_simulated_per_job.{class}"),
                of(|v| v.simulated),
                "count",
            );
        }
    }

    // Oracle, after the timed loop: hit/miss counts, crc footers (checked
    // by `fetch_csv`), rows equal to `run_scheme`, committed digests.
    let mut served: Vec<SimStats> = Vec::new();
    for job in &jobs {
        let sweep = &expected[job.k as usize];
        let resim = job
            .miss
            .map(|(j, w, s)| (j, w, s, cell_stats(&cfg, w, s, miss_seed(ctx.seed, j))));
        let cells: Vec<_> = sweep
            .iter()
            .map(|(w, s, st)| match &resim {
                Some((_, mw, ms, mst)) if mw == w && ms == s => (*w, *s, mst, "miss"),
                _ => (*w, *s, st, "hit"),
            })
            .collect();
        served.extend(cells.iter().map(|c| c.2.clone()));
        let (hits, misses) = if job.warm { (52, 0) } else { (51, 1) };
        let counts = job
            .view
            .as_ref()
            .map(|v| (v.status.as_str(), v.hits, v.misses));
        rep.check(counts == Some(("done", hits, misses)), || {
            format!("job (warm {}) status/hits/misses {counts:?}", job.warm)
        });
        rep.check(
            job.csv.as_deref() == Some(&expected_csv(&cells)[..]),
            || {
                format!(
                    "job (warm {}, sweep {}) CSV differs from run_scheme",
                    job.warm, job.k
                )
            },
        );
        if let Some(csv) = &job.csv {
            match resim {
                None => digests.check(
                    rep,
                    &format!("serve-mixed/warm-{}", job.k),
                    &util::digest_bytes(csv),
                ),
                Some((j, ..)) if j < MISS_DIGESTS => digests.check(
                    rep,
                    &format!("serve-mixed/miss-{j:03}"),
                    &util::digest_bytes(csv),
                ),
                Some(_) => {}
            }
        }
    }
    let misses = jobs.iter().filter(|j| !j.warm).count() as u64;
    digests.finish(rep, "serve-mixed/", |name| {
        name.strip_prefix("serve-mixed/miss-")
            .and_then(|j| j.parse::<u64>().ok())
            .is_none_or(|j| j < misses)
    });

    if ctx.trace {
        let refs: Vec<&SimStats> = served.iter().collect();
        let (dup_cells, dup_cycles) = duplicate_shares(&refs);
        rep.layer("harness.duplicate_cell_frac", dup_cells, "ratio");
        rep.layer("harness.duplicate_cycle_frac", dup_cycles, "ratio");
        cellcache_microdriver(ctx, &prewarm, rep);
    }
}

/// Times `ResultCache::open`, `lookup` and `insert`, and the store's
/// verified read, on a fresh copy of the prewarmed cache.
fn cellcache_microdriver(ctx: &Ctx, prewarm: &Path, rep: &mut Report) {
    let dir = ctx.work_dir.join("cache-micro");
    util::copy_dir(prewarm, &dir);
    let open_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ResultCache::open(&dir).expect("opening cache"));
            util::millis(t)
        })
        .collect();
    rep.layer("cellcache.open_ms", median(&open_ms), "ms");

    let mut read_us = Vec::new();
    let mut entries: Vec<CacheEntry> = Vec::new();
    for file in std::fs::read_dir(&dir).expect("listing cache").flatten() {
        let t = Instant::now();
        let text = store::read_verified(&file.path())
            .ok()
            .filter(|v| v.verified);
        read_us.push(util::millis(t) * 1e3);
        rep.check(text.is_some(), || {
            format!("{}: crc footer does not verify", file.path().display())
        });
        let parsed =
            text.and_then(|v| serde_json::from_str(&String::from_utf8_lossy(&v.payload)).ok());
        rep.check(parsed.is_some(), || {
            format!("{}: not a cache entry", file.path().display())
        });
        entries.extend(parsed);
    }
    rep.layer("store.read_verified_us", median(&read_us), "us");

    let cache = ResultCache::open(&dir).expect("opening cache");
    let t = Instant::now();
    let hits = entries
        .iter()
        .filter(|e| cache.lookup(&e.key).is_some())
        .count();
    rep.layer(
        "cellcache.lookup_us",
        util::millis(t) * 1e3 / entries.len() as f64,
        "us",
    );
    rep.layer(
        "cellcache.hit_ratio",
        hits as f64 / entries.len() as f64,
        "ratio",
    );
    let t = Instant::now();
    for e in &entries {
        let mut key = e.key.clone();
        key.seed = key.seed.wrapping_add(1 << 40);
        let ok = cache.insert(&key, &e.stats, e.sim_threads).is_ok();
        rep.check(ok, || format!("insert of {} failed", key.digest()));
    }
    rep.layer(
        "cellcache.insert_ms",
        util::millis(t) / entries.len() as f64,
        "ms",
    );
}
