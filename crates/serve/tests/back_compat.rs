//! Artifacts written before the single-threaded cycle loop became the
//! only one still load. They carry fields that no longer exist — a
//! manifest's global and per-cell `sim_threads`, a checkpoint record's
//! `sim_threads`, a profile's `shards`/`shard_epochs`/`shard_sm_wait_ns`,
//! a schema-2 bench record's `sim_threads`/`sweep`, a job spec's
//! `sim_threads` — and the readers ignore unknown keys.

use ccraft_harness::checkpoint::Checkpoint;
use ccraft_harness::perfdiff::{perf_diff, BenchRecord, DiffOptions};
use ccraft_serve::{http_request, wait_for_job, JobSpec, ServeState, Server};
use ccraft_telemetry::manifest::RunManifest;
use ccraft_telemetry::profiler::ProfileReport;
use serde::Deserialize;
use std::path::PathBuf;

const MANIFEST: &str = include_str!("fixtures/manifest_sim_threads.json");

type Check = fn(&str) -> Result<(), String>;

fn parse<T: Deserialize>(text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(|e| format!("parse: {e}"))
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccraft-back-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn manifest(text: &str) -> Result<(), String> {
    let m: RunManifest = parse(text)?;
    ensure(
        m.experiment == "ccx-run" && m.cells.len() == 1 && m.cells[0].cache == "uncached",
        "manifest fields lost",
    )
}

fn checkpoint(text: &str) -> Result<(), String> {
    let c: Checkpoint = parse(text)?;
    ensure(
        c.cells.len() == 1 && c.cells[0].attempts == 2 && c.cells[0].cache == "miss",
        "checkpoint record fields lost",
    )
}

fn profile(text: &str) -> Result<(), String> {
    let p: ProfileReport = parse(text)?;
    ensure(
        p.cells.len() == 1 && p.cells[0].profile.channels.len() == 8,
        "profile fields lost",
    )
}

/// A schema-2 record loads, and `ccx perf-diff` compares it against a
/// schema-3 one: the old headline wall was the single-threaded run.
fn bench(text: &str) -> Result<(), String> {
    let old: BenchRecord = parse(text)?;
    ensure(old.wall_time_secs > 0.0, "bench wall lost")?;
    let (a, b) = (scratch("bench-a"), scratch("bench-b"));
    let write = |path: PathBuf, body: &str| std::fs::write(path, body).map_err(|e| e.to_string());
    write(a.join("manifest.json"), MANIFEST)?;
    write(a.join("BENCH_20261001-000000.json"), text)?;
    let mut current = RunManifest::new("ccx-run");
    current.size = "tiny".to_string();
    current.seed = 1;
    write(b.join("manifest.json"), &current.to_json())?;
    let new = BenchRecord {
        schema: 3,
        wall_time_secs: 36.0,
        cells: 746,
        cells_per_sec: 746.0 / 36.0,
        ..old
    };
    let new = serde_json::to_string(&new).map_err(|e| e.to_string())?;
    write(b.join("BENCH_20261002-000000.json"), &new)?;
    let report = perf_diff(&a, &b, &DiffOptions::default()).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
    ensure(
        report
            .rows
            .iter()
            .any(|r| r.metric == "bench_wall_time_secs" && r.a == 37.2 && !r.regressed),
        "perf-diff did not compare the bench walls",
    )
}

/// The daemon accepts the old job JSON and runs the sweep.
fn job(text: &str) -> Result<(), String> {
    let spec: JobSpec = parse(text)?;
    ensure(spec.workloads == ["vecadd"], "job spec fields lost")?;
    let dir = scratch("job");
    let state = ServeState::open(&dir).map_err(|e| e.to_string())?;
    let server = Server::bind("127.0.0.1:0", state).map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    let (status, body) =
        http_request(&addr, "POST", "/jobs", Some(text.as_bytes())).map_err(|e| e.to_string())?;
    ensure(status == 200, &String::from_utf8_lossy(&body))?;
    #[derive(Deserialize)]
    struct Submitted {
        job: String,
    }
    let reply: Submitted = parse(&String::from_utf8_lossy(&body))?;
    let view = wait_for_job(&addr, &reply.job, false).map_err(|e| e.to_string())?;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    ensure(
        view.status == "done" && view.simulated == 1,
        "job did not run",
    )
}

#[test]
fn artifacts_with_removed_fields_still_load() {
    let cases: [(&str, &str, Check); 5] = [
        ("manifest", MANIFEST, manifest),
        (
            "checkpoint",
            include_str!("fixtures/checkpoint_sim_threads.json"),
            checkpoint,
        ),
        (
            "profile",
            include_str!("fixtures/profile_shards.json"),
            profile,
        ),
        (
            "bench record",
            include_str!("fixtures/bench_schema2.json"),
            bench,
        ),
        (
            "job spec",
            include_str!("fixtures/job_sim_threads.json"),
            job,
        ),
    ];
    let failed: Vec<String> = cases
        .iter()
        .filter_map(|(name, text, check)| check(text).err().map(|e| format!("{name}: {e}")))
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}
