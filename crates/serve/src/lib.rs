//! # ccraft-serve — persistent experiment service with a content-addressed result cache
//!
//! A warm daemon (`ccx serve`) that accepts sweep submissions over a
//! std-only HTTP API and answers them from a durable, content-addressed
//! cell result cache (`ccraft_harness::cellcache`). Cache hits skip
//! simulation entirely, so a repeated identical sweep costs O(changed
//! cells): the second submission of the same [`JobSpec`] re-simulates
//! nothing and returns byte-identical CSVs.
//!
//! ## API
//!
//! | Method | Path                 | Meaning                                     |
//! |--------|----------------------|---------------------------------------------|
//! | GET    | `/healthz`           | liveness probe (`ok`)                       |
//! | GET    | `/cache`             | cache counters + entry count (JSON)         |
//! | GET    | `/metrics`           | Prometheus text: jobs, latency, hits/misses, cells simulated |
//! | POST   | `/jobs`              | submit a [`JobSpec`] (JSON body) → job id   |
//! | GET    | `/jobs/<id>`         | job status summary (JSON)                   |
//! | GET    | `/jobs/<id>/events`  | per-cell progress log (JSON array; `?from=N` skips the first N) |
//! | GET    | `/jobs/<id>/manifest`| the job's `RunManifest` (JSON)              |
//! | GET    | `/jobs/<id>/csv`     | results CSV in durable encoding (crc32 footer; verify with `ccraft_harness::store`) |
//!
//! The listener reuses the `ccraft_harness::metrics` idiom — plain
//! `std::net::TcpListener`, one short-lived thread per connection, just
//! enough HTTP/1.1 for `curl` — because the vendored dependency set has
//! no HTTP crates. Each submitted job executes on its own thread through
//! the harness matrix engine with a cache-aware cell body, so many
//! clients can share one warm process.
//!
//! ## Cache keys
//!
//! A cell result is keyed by everything that determines it: scheme (with
//! full config), workload, machine, size, effective seed, canonical
//! inject spec, cargo feature flags, and the code version captured from
//! [`ccraft_telemetry::manifest::Provenance`] at daemon startup (see
//! `ccraft_harness::cellcache` for the digest definition).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ccraft_core::cachecraft::CacheCraftConfig;
use ccraft_core::factory::SchemeKind;
use ccraft_harness::cellcache::{CellKey, CellStore, ResultCache};
use ccraft_harness::metrics::{self, Histogram, MetricsRegistry, Stopwatch};
use ccraft_harness::report::Table;
use ccraft_harness::runner::{run_cell, run_matrix_cells_with_body, CellBody};
use ccraft_harness::{CacheDisposition, CellOutcome, Error, ExpOptions};
use ccraft_sim::config::GpuConfig;
use ccraft_sim::faults::FaultConfig;
use ccraft_telemetry::manifest::{CellManifest, Provenance, RunManifest};
use ccraft_workloads::{SizeClass, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Overrides the sweep seed for one `workload/scheme` cell, so a client
/// can re-run exactly one cell of an otherwise-cached sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedOverride {
    /// Workload short name.
    pub workload: String,
    /// Scheme short name.
    pub scheme: String,
    /// Seed for that cell.
    pub seed: u64,
}

/// One sweep submission: the JSON body of `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Workload names, or `["all"]`.
    #[serde(default)]
    pub workloads: Vec<String>,
    /// Scheme names, or `["all"]`.
    #[serde(default)]
    pub schemes: Vec<String>,
    /// Machine name (`gddr6` | `hbm2`).
    #[serde(default = "default_machine")]
    pub machine: String,
    /// Size class (`tiny` | `small` | `full`).
    #[serde(default = "default_size")]
    pub size: String,
    /// Base seed for every cell.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Fault-injection spec (e.g. `symbol:1e-6`), if any.
    #[serde(default)]
    pub inject: Option<String>,
    /// Per-cell seed overrides.
    #[serde(default)]
    pub seed_overrides: Vec<SeedOverride>,
}

fn default_machine() -> String {
    "gddr6".to_string()
}
fn default_size() -> String {
    "small".to_string()
}
fn default_seed() -> u64 {
    1
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            workloads: vec!["all".to_string()],
            schemes: vec!["all".to_string()],
            machine: default_machine(),
            size: default_size(),
            seed: default_seed(),
            inject: None,
            seed_overrides: Vec::new(),
        }
    }
}

/// Resolves a scheme short name against a machine config. Shared by the
/// daemon and the `ccx` front end so both accept the same vocabulary.
pub fn scheme_by_name(name: &str, cfg: &GpuConfig) -> Option<SchemeKind> {
    match name {
        "no-protection" | "off" => Some(SchemeKind::NoProtection),
        "inline-naive" | "naive" => Some(SchemeKind::InlineNaive { coverage: 8 }),
        "ecc-cache" => Some(SchemeKind::EccCache {
            coverage: 8,
            capacity_per_mc: 16 << 10,
        }),
        "cachecraft" => Some(SchemeKind::CacheCraft(CacheCraftConfig::for_machine(cfg))),
        _ => None,
    }
}

/// Resolves a machine name to its config.
pub fn machine_by_name(name: &str) -> Option<GpuConfig> {
    match name {
        "gddr6" => Some(GpuConfig::gddr6()),
        "hbm2" => Some(GpuConfig::hbm2()),
        _ => None,
    }
}

/// Resolves a size-class name.
pub fn size_by_name(name: &str) -> Option<SizeClass> {
    match name {
        "tiny" => Some(SizeClass::Tiny),
        "small" => Some(SizeClass::Small),
        "full" => Some(SizeClass::Full),
        _ => None,
    }
}

/// A resolved, validated job spec.
struct ResolvedSpec {
    cfg: GpuConfig,
    size: SizeClass,
    workloads: Vec<Workload>,
    schemes: Vec<SchemeKind>,
    inject: Option<FaultConfig>,
}

fn resolve_spec(spec: &JobSpec) -> Result<ResolvedSpec, Error> {
    let cfg = machine_by_name(&spec.machine)
        .ok_or_else(|| Error::Config(format!("unknown machine {:?}", spec.machine)))?;
    let size = size_by_name(&spec.size)
        .ok_or_else(|| Error::Config(format!("unknown size {:?}", spec.size)))?;
    let workloads: Vec<Workload> =
        if spec.workloads.is_empty() || spec.workloads.iter().any(|w| w == "all") {
            Workload::ALL.to_vec()
        } else {
            spec.workloads
                .iter()
                .map(|w| {
                    Workload::from_name(w)
                        .ok_or_else(|| Error::Config(format!("unknown workload {w:?}")))
                })
                .collect::<Result<_, _>>()?
        };
    let schemes: Vec<SchemeKind> =
        if spec.schemes.is_empty() || spec.schemes.iter().any(|s| s == "all") {
            SchemeKind::headline(&cfg).to_vec()
        } else {
            spec.schemes
                .iter()
                .map(|s| {
                    scheme_by_name(s, &cfg)
                        .ok_or_else(|| Error::Config(format!("unknown scheme {s:?}")))
                })
                .collect::<Result<_, _>>()?
        };
    let inject = match &spec.inject {
        None => None,
        Some(s) => Some(
            FaultConfig::parse(s)
                .map_err(Error::Config)?
                .with_seed(spec.seed),
        ),
    };
    Ok(ResolvedSpec {
        cfg,
        size,
        workloads,
        schemes,
        inject,
    })
}

/// Status summary of one job, as served by `GET /jobs/<id>`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobView {
    /// Job id.
    pub id: String,
    /// `queued` | `running` | `done` | `failed`.
    pub status: String,
    /// Error message when `status == "failed"`.
    #[serde(default)]
    pub error: String,
    /// Total cells in the sweep.
    pub cells: u64,
    /// Cells served from the result cache.
    pub hits: u64,
    /// Cells that missed the cache.
    pub misses: u64,
    /// Cells actually simulated (cache misses + uncached failures).
    pub simulated: u64,
    /// Number of progress events so far.
    pub events: u64,
}

/// One job's full in-memory state.
#[derive(Debug)]
struct Job {
    view: JobView,
    events: Vec<String>,
    /// Durable-encoded CSV (crc32 footer included), ready for download.
    csv: Vec<u8>,
    manifest_json: String,
}

impl Job {
    fn new(id: String) -> Job {
        Job {
            view: JobView {
                id,
                status: "queued".to_string(),
                error: String::new(),
                cells: 0,
                hits: 0,
                misses: 0,
                simulated: 0,
                events: 0,
            },
            events: Vec::new(),
            csv: Vec::new(),
            manifest_json: String::new(),
        }
    }

    fn push_event(&mut self, line: String) {
        self.events.push(line);
        self.view.events = self.events.len() as u64;
    }
}

/// Upper bounds (seconds) of the submit→done job latency histogram.
const JOB_SECONDS_BUCKETS: [f64; 12] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 10.0, 60.0, 600.0,
];

/// Daemon-wide job and cache counters, served on `GET /metrics`.
#[derive(Debug)]
struct ServeCounters {
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cells_simulated: AtomicU64,
    job_seconds: Histogram,
}

/// Shared daemon state: the cell store, the job table, and the
/// provenance captured once at startup (every cell key embeds it).
#[derive(Debug)]
pub struct ServeState {
    cells: Arc<CellStore>,
    jobs: Mutex<BTreeMap<String, Arc<Mutex<Job>>>>,
    next_job: AtomicU64,
    /// Startup provenance, with the daemon's feature flags.
    provenance: Provenance,
    registry: Arc<MetricsRegistry>,
    counters: ServeCounters,
}

fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ServeState {
    /// Opens the cache directory, captures provenance, and installs the
    /// process-global metrics registry that the matrix engine updates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the cache directory cannot be opened.
    pub fn open(cache_dir: &std::path::Path) -> Result<Arc<ServeState>, Error> {
        let mut provenance = Provenance::capture();
        if cfg!(feature = "check-invariants") {
            provenance.features.push("check-invariants".to_string());
        }
        let registry = Arc::new(MetricsRegistry::new());
        metrics::install(Arc::clone(&registry));
        Ok(Arc::new(ServeState {
            cells: Arc::new(CellStore::new(Some(ResultCache::open(cache_dir)?))),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
            provenance,
            registry,
            counters: ServeCounters {
                jobs_done: AtomicU64::new(0),
                jobs_failed: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                cells_simulated: AtomicU64::new(0),
                job_seconds: Histogram::new(&JOB_SECONDS_BUCKETS),
            },
        }))
    }

    /// The cell store: an in-memory memo over the durable cache (for
    /// tests and the `/cache` endpoint).
    pub fn cache(&self) -> &CellStore {
        &self.cells
    }

    /// Submits a job: validates the spec, registers it, and spawns its
    /// executor thread. Returns the job id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the spec does not resolve (unknown
    /// workload/scheme/machine/size or malformed inject spec).
    pub fn submit(self: &Arc<Self>, spec: JobSpec) -> Result<String, Error> {
        // Resolve eagerly so a bad spec fails the POST, not the job.
        let resolved = resolve_spec(&spec)?;
        let submitted = Stopwatch::start();
        let id = format!("job-{}", self.next_job.fetch_add(1, Ordering::Relaxed));
        let job = Arc::new(Mutex::new(Job::new(id.clone())));
        lock_clean(&job).view.cells = (resolved.workloads.len() * resolved.schemes.len()) as u64;
        lock_clean(&self.jobs).insert(id.clone(), Arc::clone(&job));
        let state = Arc::clone(self);
        let thread_job = Arc::clone(&job);
        let spawned = std::thread::Builder::new()
            .name(format!("ccraft-{id}"))
            .spawn(move || state.execute(&thread_job, &spec, resolved, submitted));
        if let Err(e) = spawned {
            let mut j = lock_clean(&job);
            j.view.status = "failed".to_string();
            j.view.error = format!("failed to spawn executor: {e}");
            self.count_job(&j.view, submitted);
        }
        Ok(id)
    }

    /// Adds a finished job to the `/metrics` counters. Called under the
    /// job's lock, so a client that sees the job finished sees it
    /// counted.
    fn count_job(&self, view: &JobView, submitted: Stopwatch) {
        let c = &self.counters;
        let finished = if view.status == "done" {
            &c.jobs_done
        } else {
            &c.jobs_failed
        };
        finished.fetch_add(1, Ordering::Relaxed);
        c.cache_hits.fetch_add(view.hits, Ordering::Relaxed);
        c.cache_misses.fetch_add(view.misses, Ordering::Relaxed);
        c.cells_simulated
            .fetch_add(view.simulated, Ordering::Relaxed);
        c.job_seconds.observe(submitted.elapsed_secs());
    }

    /// The `/metrics` exposition: the matrix engine's registry plus the
    /// daemon's job and cache counters.
    fn render_metrics(&self) -> String {
        let mut out = self.registry.render();
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        for (name, help, value) in [
            (
                "ccraft_serve_jobs_done_total",
                "Jobs finished with every cell ok.",
                load(&c.jobs_done),
            ),
            (
                "ccraft_serve_jobs_failed_total",
                "Jobs finished with a failed cell or that could not start.",
                load(&c.jobs_failed),
            ),
            (
                "ccraft_serve_cache_hits_total",
                "Cells of finished jobs served from the cell store.",
                load(&c.cache_hits),
            ),
            (
                "ccraft_serve_cache_misses_total",
                "Cells of finished jobs that missed the cell store.",
                load(&c.cache_misses),
            ),
            (
                "ccraft_serve_cells_simulated_total",
                "Cells of finished jobs that were simulated.",
                load(&c.cells_simulated),
            ),
        ] {
            metrics::render_metric(&mut out, "counter", name, help, value);
        }
        c.job_seconds.render_into(
            &mut out,
            "ccraft_serve_job_seconds",
            "Job latency from submission to completion.",
        );
        out
    }

    /// Looks a job up by id.
    fn job(&self, id: &str) -> Option<Arc<Mutex<Job>>> {
        lock_clean(&self.jobs).get(id).cloned()
    }

    /// The cache key for one cell of a job.
    fn cell_key(
        &self,
        spec: &JobSpec,
        scheme: SchemeKind,
        workload: Workload,
        seed: u64,
    ) -> CellKey {
        CellKey {
            scheme: format!("{scheme:?}"),
            workload: workload.name().to_string(),
            machine: spec.machine.clone(),
            size: spec.size.clone(),
            seed,
            inject: spec
                .inject
                .as_deref()
                .and_then(|s| FaultConfig::parse(s).ok())
                .map_or_else(|| "none".to_string(), |fc| fc.canonical_spec()),
            features: self.provenance.features.clone(),
            code_version: self.provenance.code_version(),
        }
    }

    /// Runs one job to completion on the calling thread: the matrix
    /// engine looks every cell up in the cell store, simulates the
    /// misses and stores their results.
    fn execute(
        self: &Arc<Self>,
        job: &Arc<Mutex<Job>>,
        spec: &JobSpec,
        resolved: ResolvedSpec,
        submitted: Stopwatch,
    ) {
        {
            let mut j = lock_clean(job);
            j.view.status = "running".to_string();
            j.push_event(format!(
                "job started: {} workloads x {} schemes, size {}, seed {}",
                resolved.workloads.len(),
                resolved.schemes.len(),
                spec.size,
                spec.seed
            ));
        }
        let base_opts = ExpOptions {
            size: resolved.size,
            seed: spec.seed,
            threads: 1,
            inject: resolved.inject,
            ..ExpOptions::default()
        };
        let keys: Vec<CellKey> = resolved
            .workloads
            .iter()
            .flat_map(|&w| resolved.schemes.iter().map(move |&s| (w, s)))
            .map(|(w, s)| self.cell_key(spec, s, w, cell_seed(spec, w, s)))
            .collect();
        let body_job = Arc::clone(job);
        let body_spec = spec.clone();
        let cfg = resolved.cfg;
        let body: Arc<CellBody> = Arc::new(move |_, workload, scheme| {
            let cell = format!("{}/{}", workload.name(), scheme.name());
            lock_clean(&body_job).push_event(format!("cell {cell}: cache miss, simulating"));
            let cell_opts = ExpOptions {
                seed: cell_seed(&body_spec, workload, scheme),
                ..base_opts
            };
            // The injection seed derives from the cell index; use a
            // stable per-identity index so the result is independent of
            // the sweep's shape (the cache key must fully determine the
            // result).
            run_cell(&cfg, &cell_opts, stable_cell_index(&cell), workload, scheme)
        });
        let outcomes = run_matrix_cells_with_body(
            &resolved.workloads,
            &resolved.schemes,
            &base_opts,
            body,
            Some((Arc::clone(&self.cells), keys.clone())),
        );

        let mut j = lock_clean(job);
        for (o, key) in outcomes.iter().zip(&keys) {
            let event = match (&o.cache, o.as_error()) {
                (_, Some(e)) => format!("cell {}: {e}", o.cell_name()),
                (CacheDisposition::Hit, None) => {
                    format!("cell {}: cache hit ({})", o.cell_name(), key.digest())
                }
                _ => format!("cell {}: simulated", o.cell_name()),
            };
            j.push_event(event);
            match o.cache {
                CacheDisposition::Hit => j.view.hits += 1,
                CacheDisposition::Miss => j.view.misses += 1,
                CacheDisposition::Uncached => {}
            }
        }
        // Misses simulated successfully + failures that consumed attempts.
        j.view.simulated = outcomes
            .iter()
            .filter(|o| o.cache != CacheDisposition::Hit && o.attempts > 0)
            .count() as u64;
        let failed: Vec<&CellOutcome> = outcomes.iter().filter(|o| !o.status.is_ok()).collect();
        j.csv = ccraft_harness::store::encode(job_csv(&outcomes).as_bytes());
        j.manifest_json = job_manifest_json(self, spec, &outcomes);
        if failed.is_empty() {
            j.view.status = "done".to_string();
        } else {
            j.view.status = "failed".to_string();
            j.view.error = format!(
                "{} cell(s) failed: {}",
                failed.len(),
                failed
                    .iter()
                    .map(|o| o.cell_name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let line = format!(
            "job finished: cells={} hits={} misses={} simulated={} status={}",
            j.view.cells, j.view.hits, j.view.misses, j.view.simulated, j.view.status
        );
        j.push_event(line);
        self.count_job(&j.view, submitted);
    }
}

/// The seed of one cell of a job: its override, or the sweep's seed.
fn cell_seed(spec: &JobSpec, workload: Workload, scheme: SchemeKind) -> u64 {
    spec.seed_overrides
        .iter()
        .find(|o| o.workload == workload.name() && o.scheme == scheme.name())
        .map_or(spec.seed, |o| o.seed)
}

/// FNV-1a of the cell identity, used as a stable per-cell index for
/// injection seed derivation (independent of matrix position).
fn stable_cell_index(cell: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in cell.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h as usize
}

/// Renders a deterministic results CSV over the sweep's successful cells.
fn job_csv(outcomes: &[CellOutcome]) -> String {
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
    for o in outcomes {
        let Some(stats) = &o.stats else { continue };
        table.row(vec![
            o.workload.name().to_string(),
            o.scheme.name().to_string(),
            stats.cycles.to_string(),
            stats.exec_cycles.to_string(),
            format!("{:.6}", stats.ipc()),
            format!("{:.6}", stats.l2_hit_rate()),
            format!("{:.6}", stats.row_hit_rate()),
            stats.dram_bytes().to_string(),
            format!("{:.4}", stats.mean_read_latency),
            o.cache.as_str().to_string(),
        ]);
    }
    table.to_csv()
}

/// Builds the job's manifest JSON: per-cell cache disposition plus the
/// sweep parameters.
fn job_manifest_json(state: &ServeState, spec: &JobSpec, outcomes: &[CellOutcome]) -> String {
    let mut manifest = RunManifest::new("ccraft-serve");
    manifest.provenance = state.provenance.clone();
    manifest.size = spec.size.clone();
    manifest.seed = spec.seed;
    manifest.threads = 1;
    for o in outcomes {
        let status = match &o.status {
            s if s.is_ok() => "ok".to_string(),
            ccraft_harness::CellStatus::TimedOut { .. } => "timeout".to_string(),
            _ => "failed".to_string(),
        };
        manifest.record_cell(CellManifest {
            cell: o.cell_name(),
            cache: o.cache.as_str().to_string(),
            status,
        });
    }
    manifest.note(
        "cache_entries",
        state.cells.durable().map_or(0, ResultCache::len) as f64,
    );
    manifest.stamp();
    serde_json::to_string_pretty(&manifest).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

// ---------------------------------------------------------------------
// The HTTP listener (same idiom as `ccraft_harness::metrics`).

/// A running `ccraft-serve` daemon; dropping (or [`Server::shutdown`])
/// stops the listener thread. Job executor threads run to completion
/// independently.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port) and serves `state` until
    /// shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the listener cannot bind.
    pub fn bind(addr: &str, state: Arc<ServeState>) -> Result<Server, Error> {
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::io(format!("binding {addr}"), e))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::io("resolving bound address".to_string(), e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let conn_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("ccraft-serve".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let state = Arc::clone(&conn_state);
                        let _ = std::thread::Builder::new()
                            .name("ccraft-serve-conn".to_string())
                            .spawn(move || serve_connection(stream, &state));
                    }
                }
            })
            .map_err(|e| Error::io("spawning listener thread".to_string(), e))?;
        Ok(Server {
            addr: local,
            stop,
            handle: Some(handle),
            state,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared daemon state.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops the listener thread and waits for it.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_inner();
        }
    }
}

/// Largest accepted request head, in bytes.
const MAX_HEAD: usize = 1 << 20;
/// Largest accepted request body, in bytes.
const MAX_BODY: usize = 1 << 24;

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Request {
    /// Method, e.g. `GET`.
    method: String,
    /// Request target, query string included.
    path: String,
    /// Exactly `Content-Length` bytes of body.
    body: Vec<u8>,
}

/// Why bytes do not form a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestError {
    /// The head's blank line, or part of the body, has not arrived yet.
    Incomplete,
    /// The head is longer than the daemon accepts.
    HeadTooLarge,
    /// The request line is not `METHOD TARGET HTTP/x`.
    BadRequestLine,
    /// A `Content-Length` that is not one decimal number, or two that
    /// disagree.
    BadContentLength,
    /// The declared body is longer than the daemon accepts.
    BodyTooLarge,
}

impl RequestError {
    /// The HTTP status line answering this error.
    fn status(self) -> &'static str {
        match self {
            RequestError::HeadTooLarge => "431 Request Header Fields Too Large",
            RequestError::BodyTooLarge => "413 Content Too Large",
            RequestError::Incomplete
            | RequestError::BadRequestLine
            | RequestError::BadContentLength => "400 Bad Request",
        }
    }
}

/// Parses one request from the bytes received so far. Returns
/// [`RequestError::Incomplete`] when more bytes are needed; bytes past
/// the declared body are ignored.
///
/// # Errors
///
/// A [`RequestError`] naming what is malformed or missing.
fn parse_request(buf: &[u8]) -> Result<Request, RequestError> {
    let Some(header_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Err(if buf.len() > MAX_HEAD {
            RequestError::HeadTooLarge
        } else {
            RequestError::Incomplete
        });
    };
    if header_end > MAX_HEAD {
        return Err(RequestError::HeadTooLarge);
    }
    let head = String::from_utf8_lossy(&buf[..header_end]);
    let mut lines = head.split("\r\n");
    let mut request = lines.next().unwrap_or_default().split(' ');
    let (Some(method), Some(path), Some(version), None) = (
        request.next(),
        request.next(),
        request.next(),
        request.next(),
    ) else {
        return Err(RequestError::BadRequestLine);
    };
    let token = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_graphic());
    if !token(method) || !path.starts_with('/') || !token(path) || !version.starts_with("HTTP/") {
        return Err(RequestError::BadRequestLine);
    }
    let mut content_length: Option<usize> = None;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        if !name.trim().eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        let n = value
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| value.parse::<usize>().ok())
            .flatten()
            .ok_or(RequestError::BadContentLength)?;
        if content_length.is_some_and(|prev| prev != n) {
            return Err(RequestError::BadContentLength);
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(RequestError::BodyTooLarge);
    }
    let body = buf
        .get(header_end + 4..header_end + 4 + content_length)
        .ok_or(RequestError::Incomplete)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: body.to_vec(),
    })
}

/// Reads one HTTP/1.1 request (head plus `Content-Length` body) from
/// `stream`. `None` when the peer closed or stalled before sending
/// anything.
fn read_request(stream: &mut TcpStream) -> Option<Result<Request, RequestError>> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match parse_request(&buf) {
            Err(RequestError::Incomplete) => {}
            parsed => return Some(parsed),
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            // Closed or timed out mid-request: answer what arrived.
            _ if buf.is_empty() => return None,
            _ => return Some(Err(RequestError::Incomplete)),
        }
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &[u8]) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
}

fn respond_json(stream: &mut TcpStream, status: &str, body: String) {
    respond(stream, status, "application/json", body.as_bytes());
}

/// Routes one connection.
fn serve_connection(mut stream: TcpStream, state: &Arc<ServeState>) {
    let Request { method, path, body } = match read_request(&mut stream) {
        None => return,
        Some(Ok(request)) => request,
        Some(Err(e)) => {
            return respond_json(
                &mut stream,
                e.status(),
                format!("{{\"error\":\"bad request: {e:?}\"}}"),
            )
        }
    };
    // Strip a query string; only /events uses one.
    let (route, query) = path.split_once('?').unwrap_or((path.as_str(), ""));
    match (method.as_str(), route) {
        ("GET", "/healthz") => respond(&mut stream, "200 OK", "text/plain", b"ok\n"),
        ("GET", "/cache") => {
            let durable = state.cells.durable();
            let c = durable.map(ResultCache::counters).unwrap_or_default();
            let json = serde_json::to_string_pretty(&c).unwrap_or_default();
            // counters() has no entry count; splice it in as a sibling.
            let json = json.replacen(
                '{',
                &format!(
                    "{{\n  \"entries\": {},",
                    durable.map_or(0, ResultCache::len)
                ),
                1,
            );
            respond_json(&mut stream, "200 OK", json);
        }
        ("GET", "/metrics") => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            state.render_metrics().as_bytes(),
        ),
        ("POST", "/jobs") => {
            let spec: JobSpec = match serde_json::from_str(&String::from_utf8_lossy(&body)) {
                Ok(s) => s,
                Err(e) => {
                    return respond_json(
                        &mut stream,
                        "400 Bad Request",
                        format!("{{\"error\":\"bad job spec: {e}\"}}"),
                    )
                }
            };
            match state.submit(spec) {
                Ok(id) => respond_json(&mut stream, "200 OK", format!("{{\"job\":\"{id}\"}}")),
                Err(e) => respond_json(
                    &mut stream,
                    "400 Bad Request",
                    format!("{{\"error\":\"{e}\"}}"),
                ),
            }
        }
        ("GET", route) if route.starts_with("/jobs/") => {
            let rest = &route["/jobs/".len()..];
            let (id, sub) = rest.split_once('/').unwrap_or((rest, ""));
            let Some(job) = state.job(id) else {
                return respond_json(
                    &mut stream,
                    "404 Not Found",
                    "{\"error\":\"no such job\"}".to_string(),
                );
            };
            let j = lock_clean(&job);
            match sub {
                "" => {
                    let json = serde_json::to_string_pretty(&j.view).unwrap_or_default();
                    respond_json(&mut stream, "200 OK", json);
                }
                "events" => {
                    let from: usize = query
                        .split('&')
                        .filter_map(|kv| kv.split_once('='))
                        .find(|(k, _)| *k == "from")
                        .and_then(|(_, v)| v.parse().ok())
                        .unwrap_or(0);
                    let slice: Vec<String> = j.events.iter().skip(from).cloned().collect();
                    let json = serde_json::to_string_pretty(&slice).unwrap_or_default();
                    respond_json(&mut stream, "200 OK", json);
                }
                "manifest" => {
                    if j.manifest_json.is_empty() {
                        respond_json(
                            &mut stream,
                            "404 Not Found",
                            "{\"error\":\"job not finished\"}".to_string(),
                        );
                    } else {
                        respond_json(&mut stream, "200 OK", j.manifest_json.clone());
                    }
                }
                "csv" => {
                    if j.csv.is_empty() {
                        respond_json(
                            &mut stream,
                            "404 Not Found",
                            "{\"error\":\"job not finished\"}".to_string(),
                        );
                    } else {
                        respond(&mut stream, "200 OK", "text/csv", &j.csv);
                    }
                }
                _ => respond_json(
                    &mut stream,
                    "404 Not Found",
                    "{\"error\":\"not found\"}".to_string(),
                ),
            }
        }
        _ => respond_json(
            &mut stream,
            "404 Not Found",
            "{\"error\":\"not found\"}".to_string(),
        ),
    }
}

// ---------------------------------------------------------------------
// Client side (used by `ccx submit` and the e2e tests).

/// Sends one HTTP request and returns `(status code, body bytes)`.
///
/// # Errors
///
/// Returns [`Error::Io`] on connection failures and [`Error::Config`]
/// on malformed responses.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Vec<u8>), Error> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| Error::io(format!("connecting to {addr}"), e))?;
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| Error::io(format!("sending {method} {path}"), e))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| Error::io(format!("reading {method} {path} response"), e))?;
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| Error::Config(format!("malformed response to {method} {path}")))?;
    let head = String::from_utf8_lossy(&response[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::Config(format!("no status line in response to {method} {path}")))?;
    Ok((status, response[header_end + 4..].to_vec()))
}

/// Submits `spec` to a daemon at `addr` and returns the job id.
///
/// # Errors
///
/// Propagates transport errors; [`Error::Config`] when the daemon
/// rejects the spec.
pub fn submit_job(addr: &str, spec: &JobSpec) -> Result<String, Error> {
    let body = serde_json::to_string(spec)
        .map_err(|e| Error::Config(format!("serializing job spec: {e}")))?;
    let (status, response) = http_request(addr, "POST", "/jobs", Some(body.as_bytes()))?;
    let text = String::from_utf8_lossy(&response).to_string();
    if status != 200 {
        return Err(Error::Config(format!("submit rejected ({status}): {text}")));
    }
    #[derive(Deserialize)]
    struct SubmitResponse {
        #[serde(default)]
        job: String,
    }
    let value: SubmitResponse = serde_json::from_str(&text)
        .map_err(|e| Error::Config(format!("malformed submit response: {e}")))?;
    if value.job.is_empty() {
        return Err(Error::Config(format!(
            "submit response missing job id: {text}"
        )));
    }
    Ok(value.job)
}

/// First and longest pause between two status polls of
/// [`wait_for_job`]: the pause doubles from the first to the longest, so
/// a job that finishes in a few milliseconds is seen within about as
/// long, and a long job costs the daemon at most 20 polls a second.
const POLL_PAUSE: (Duration, Duration) = (Duration::from_millis(1), Duration::from_millis(50));

/// Polls `GET /jobs/<id>` until the job leaves `queued`/`running`,
/// printing progress events as they appear when `progress` is set.
/// Polls back off from 1 ms to 50 ms apart.
///
/// # Errors
///
/// Propagates transport errors; [`Error::Config`] on malformed status.
pub fn wait_for_job(addr: &str, id: &str, progress: bool) -> Result<JobView, Error> {
    let mut seen = 0usize;
    let mut pause = POLL_PAUSE.0;
    loop {
        if progress {
            let (status, body) =
                http_request(addr, "GET", &format!("/jobs/{id}/events?from={seen}"), None)?;
            if status == 200 {
                if let Ok(events) =
                    serde_json::from_str::<Vec<String>>(&String::from_utf8_lossy(&body))
                {
                    for e in &events {
                        eprintln!("  {e}");
                    }
                    seen += events.len();
                }
            }
        }
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(Error::Config(format!(
                "job {id} vanished ({status}): {}",
                String::from_utf8_lossy(&body)
            )));
        }
        let view: JobView = serde_json::from_str(&String::from_utf8_lossy(&body))
            .map_err(|e| Error::Config(format!("malformed job status: {e}")))?;
        if view.status != "queued" && view.status != "running" {
            return Ok(view);
        }
        // lint: allow(wall-clock) reason=client-side poll interval while waiting on the daemon; host-side only, never inside simulated time
        std::thread::sleep(pause);
        pause = (pause * 2).min(POLL_PAUSE.1);
    }
}

/// Downloads and checksum-verifies a finished job's CSV. Returns the
/// *decoded* payload (footer stripped) plus the raw durable bytes.
///
/// # Errors
///
/// [`Error::Corrupt`] when the footer is missing or does not verify;
/// transport errors otherwise.
pub fn fetch_csv(addr: &str, id: &str) -> Result<(Vec<u8>, Vec<u8>), Error> {
    let (status, raw) = http_request(addr, "GET", &format!("/jobs/{id}/csv"), None)?;
    if status != 200 {
        return Err(Error::Config(format!(
            "csv download failed ({status}): {}",
            String::from_utf8_lossy(&raw)
        )));
    }
    let payload = ccraft_harness::store::strip_footer(&raw);
    if payload.len() == raw.len() {
        return Err(Error::corrupt(
            format!("/jobs/{id}/csv"),
            "durable checksum footer missing".to_string(),
        ));
    }
    let expected = ccraft_harness::store::footer_for(payload);
    if !raw.ends_with(expected.as_bytes()) {
        return Err(Error::corrupt(
            format!("/jobs/{id}/csv"),
            "crc32 footer mismatch".to_string(),
        ));
    }
    Ok((payload.to_vec(), raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccraft-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> JobSpec {
        JobSpec {
            workloads: vec!["vecadd".to_string(), "saxpy".to_string()],
            schemes: vec!["no-protection".to_string(), "cachecraft".to_string()],
            machine: "gddr6".to_string(),
            size: "tiny".to_string(),
            seed: 1,
            inject: None,
            seed_overrides: Vec::new(),
        }
    }

    #[test]
    fn job_spec_round_trips_through_json() {
        let mut spec = tiny_spec();
        spec.inject = Some("symbol:1e-6".to_string());
        spec.seed_overrides.push(SeedOverride {
            workload: "vecadd".to_string(),
            scheme: "cachecraft".to_string(),
            seed: 9,
        });
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: JobSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(spec, back);
        // Defaults fill an empty body.
        let sparse: JobSpec = serde_json::from_str("{}").expect("defaults");
        assert_eq!(sparse.machine, "gddr6");
        assert_eq!(sparse.seed, 1);
        assert!(sparse.inject.is_none());
    }

    #[test]
    fn bad_specs_fail_submit_eagerly() {
        let dir = temp_cache("badspec");
        let state = ServeState::open(&dir).expect("open state");
        let bad = JobSpec {
            workloads: vec!["nosuch".to_string()],
            ..tiny_spec()
        };
        assert!(state.submit(bad).is_err());
        let bad = JobSpec {
            machine: "pcie".to_string(),
            ..tiny_spec()
        };
        assert!(state.submit(bad).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resubmitted_sweep_is_fully_cached_and_byte_identical() {
        let dir = temp_cache("resubmit");
        let state = ServeState::open(&dir).expect("open state");
        let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let addr = server.addr().to_string();

        let id1 = submit_job(&addr, &tiny_spec()).expect("submit 1");
        let v1 = wait_for_job(&addr, &id1, false).expect("wait 1");
        assert_eq!(v1.status, "done", "{v1:?}");
        assert_eq!(v1.cells, 4);
        assert_eq!(v1.hits, 0);
        assert_eq!(v1.misses, 4);
        assert_eq!(v1.simulated, 4);
        let (csv1, raw1) = fetch_csv(&addr, &id1).expect("csv 1");
        assert!(csv1.starts_with(b"workload,scheme,"), "csv header present");

        // The identical sweep again: zero cells re-simulated, CSV
        // byte-identical (modulo the per-cell cache column flipping from
        // miss to hit — so compare the durable payloads with that column
        // normalized out... no: the cache column is provenance, so the
        // raw payloads differ there by design; assert the *data* columns
        // match byte-for-byte instead).
        let id2 = submit_job(&addr, &tiny_spec()).expect("submit 2");
        let v2 = wait_for_job(&addr, &id2, false).expect("wait 2");
        assert_eq!(v2.status, "done", "{v2:?}");
        assert_eq!(v2.hits, 4);
        assert_eq!(v2.misses, 0);
        assert_eq!(v2.simulated, 0, "nothing re-simulated");
        let (csv2, _raw2) = fetch_csv(&addr, &id2).expect("csv 2");
        let strip_cache = |b: &[u8]| {
            String::from_utf8_lossy(b)
                .lines()
                .map(|l| {
                    l.rsplit_once(',')
                        .map_or_else(|| l.to_string(), |(d, _)| d.to_string())
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip_cache(&csv1),
            strip_cache(&csv2),
            "cached sweep returns byte-identical data"
        );
        assert!(!raw1.is_empty());

        // Changing one cell's seed re-runs exactly that cell.
        let mut spec3 = tiny_spec();
        spec3.seed_overrides.push(SeedOverride {
            workload: "saxpy".to_string(),
            scheme: "cachecraft".to_string(),
            seed: 2,
        });
        let id3 = submit_job(&addr, &spec3).expect("submit 3");
        let v3 = wait_for_job(&addr, &id3, false).expect("wait 3");
        assert_eq!(v3.status, "done", "{v3:?}");
        assert_eq!(v3.hits, 3, "three cells still cached");
        assert_eq!(v3.misses, 1, "exactly the overridden cell missed");
        assert_eq!(v3.simulated, 1);

        // The manifest records per-cell dispositions.
        let (status, manifest) =
            http_request(&addr, "GET", &format!("/jobs/{id2}/manifest"), None).expect("manifest");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&manifest).to_string();
        assert!(text.contains("\"cache\": \"hit\""), "{text}");

        // /cache reflects the traffic.
        let (status, cache) = http_request(&addr, "GET", "/cache", None).expect("cache");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&cache).to_string();
        assert!(text.contains("\"entries\": 5"), "{text}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_surface_serves_health_events_and_404s() {
        let dir = temp_cache("http");
        let state = ServeState::open(&dir).expect("open state");
        let server = Server::bind("127.0.0.1:0", state).expect("bind");
        let addr = server.addr().to_string();

        let (status, body) = http_request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");
        let (status, _) = http_request(&addr, "GET", "/jobs/nope", None).expect("missing job");
        assert_eq!(status, 404);
        let (status, _) = http_request(&addr, "GET", "/bogus", None).expect("bogus route");
        assert_eq!(status, 404);
        let (status, body) = http_request(&addr, "POST", "/jobs", Some(b"{\"machine\":\"pcie\"}"))
            .expect("bad spec");
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

        // Events stream incrementally with ?from=.
        let spec = JobSpec {
            workloads: vec!["vecadd".to_string()],
            schemes: vec!["no-protection".to_string()],
            ..tiny_spec()
        };
        let id = submit_job(&addr, &spec).expect("submit");
        let v = wait_for_job(&addr, &id, false).expect("wait");
        assert_eq!(v.status, "done");
        let (status, body) =
            http_request(&addr, "GET", &format!("/jobs/{id}/events"), None).expect("events");
        assert_eq!(status, 200);
        let events: Vec<String> =
            serde_json::from_str(&String::from_utf8_lossy(&body)).expect("events json");
        assert!(events.len() >= 3, "{events:?}");
        assert!(
            events.iter().any(|e| e.contains("cache miss")),
            "{events:?}"
        );
        let (status, body) = http_request(
            &addr,
            "GET",
            &format!("/jobs/{id}/events?from={}", events.len()),
            None,
        )
        .expect("events tail");
        assert_eq!(status, 200);
        let tail: Vec<String> =
            serde_json::from_str(&String::from_utf8_lossy(&body)).expect("tail json");
        assert!(tail.is_empty(), "{tail:?}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_sweeps_cache_and_replay_deterministically() {
        let dir = temp_cache("inject");
        let state = ServeState::open(&dir).expect("open state");
        let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let addr = server.addr().to_string();
        let spec = JobSpec {
            workloads: vec!["vecadd".to_string()],
            schemes: vec!["no-protection".to_string(), "cachecraft".to_string()],
            inject: Some("symbol:1.0".to_string()),
            ..tiny_spec()
        };
        let id1 = submit_job(&addr, &spec).expect("submit 1");
        let v1 = wait_for_job(&addr, &id1, false).expect("wait 1");
        assert_eq!(v1.status, "done", "{v1:?}");
        assert_eq!(v1.misses, 2);
        let id2 = submit_job(&addr, &spec).expect("submit 2");
        let v2 = wait_for_job(&addr, &id2, false).expect("wait 2");
        assert_eq!(v2.hits, 2, "injected cells are cacheable too");
        assert_eq!(v2.simulated, 0);
        // An injected sweep differs from the fault-free one in the key.
        let clean = JobSpec {
            inject: None,
            ..spec.clone()
        };
        let id3 = submit_job(&addr, &clean).expect("submit 3");
        let v3 = wait_for_job(&addr, &id3, false).expect("wait 3");
        assert_eq!(v3.misses, 2, "inject spec reaches the cache key");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The value of one single-sample metric in a `/metrics` body.
    fn metric(text: &str, name: &str) -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
    }

    #[test]
    fn metrics_count_hits_misses_and_simulated_cells() {
        let dir = temp_cache("metrics");
        let spec = JobSpec {
            workloads: vec!["vecadd".to_string()],
            ..tiny_spec()
        };
        // Prewarm in one daemon, then restart over the same cache.
        {
            let state = ServeState::open(&dir).expect("open state");
            let server = Server::bind("127.0.0.1:0", state).expect("bind");
            let addr = server.addr().to_string();
            let id = submit_job(&addr, &spec).expect("prewarm");
            assert_eq!(wait_for_job(&addr, &id, false).expect("wait").misses, 2);
            server.shutdown();
        }
        let state = ServeState::open(&dir).expect("reopen state");
        let server = Server::bind("127.0.0.1:0", state).expect("bind");
        let addr = server.addr().to_string();
        let warm = submit_job(&addr, &spec).expect("warm job");
        let v = wait_for_job(&addr, &warm, false).expect("wait warm");
        assert_eq!((v.hits, v.misses, v.simulated), (2, 0, 0), "{v:?}");
        let mut one_miss = spec.clone();
        one_miss.seed_overrides.push(SeedOverride {
            workload: "vecadd".to_string(),
            scheme: "cachecraft".to_string(),
            seed: 77,
        });
        let miss = submit_job(&addr, &one_miss).expect("one-miss job");
        let v = wait_for_job(&addr, &miss, false).expect("wait miss");
        assert_eq!((v.hits, v.misses, v.simulated), (1, 1, 1), "{v:?}");

        let (status, body) = http_request(&addr, "GET", "/metrics", None).expect("metrics");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&body).to_string();
        assert_eq!(metric(&text, "ccraft_serve_jobs_done_total"), 2.0);
        assert_eq!(metric(&text, "ccraft_serve_jobs_failed_total"), 0.0);
        assert_eq!(metric(&text, "ccraft_serve_cache_hits_total"), 3.0);
        assert_eq!(metric(&text, "ccraft_serve_cache_misses_total"), 1.0);
        assert_eq!(metric(&text, "ccraft_serve_cells_simulated_total"), 1.0);
        assert_eq!(metric(&text, "ccraft_serve_job_seconds_count"), 2.0);
        assert!(
            text.contains("ccraft_serve_job_seconds_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        // The matrix engine's registry is rendered too.
        assert!(text.contains("ccraft_cells_completed_total"), "{text}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_provenance_is_the_daemons_startup_capture() {
        let dir = temp_cache("provenance");
        let state = ServeState::open(&dir).expect("open state");
        let startup = state.provenance.clone();
        assert_eq!(startup.rustc, ccraft_telemetry::manifest::BUILD_RUSTC);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let addr = server.addr().to_string();
        let spec = JobSpec {
            workloads: vec!["vecadd".to_string()],
            schemes: vec!["no-protection".to_string()],
            ..tiny_spec()
        };
        let id = submit_job(&addr, &spec).expect("submit");
        assert_eq!(
            wait_for_job(&addr, &id, false).expect("wait").status,
            "done"
        );
        let (status, body) =
            http_request(&addr, "GET", &format!("/jobs/{id}/manifest"), None).expect("manifest");
        assert_eq!(status, 200);
        let manifest: RunManifest =
            serde_json::from_str(&String::from_utf8_lossy(&body)).expect("manifest json");
        assert_eq!(manifest.provenance.rustc, startup.rustc);
        assert_eq!(manifest.provenance.git_commit, startup.git_commit);
        // The job's cell key carries the same code version.
        let entry = std::fs::read_dir(&dir)
            .expect("list cache")
            .flatten()
            .find(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .expect("one cache entry");
        let (text, _) =
            ccraft_harness::store::read_verified_string(&entry.path()).expect("read entry");
        let entry: ccraft_harness::cellcache::CacheEntry =
            serde_json::from_str(&text).expect("entry json");
        assert_eq!(
            entry.key.code_version,
            format!(
                "{} @ {}",
                manifest.provenance.rustc, manifest.provenance.git_commit
            )
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// SplitMix64: a seeded, dependency-free generator for the fuzzers.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Fragments that steer mutations toward parser edge cases.
    const SPLICES: &[&[u8]] = &[
        b"\r\n",
        b"\r\n\r\n",
        b":",
        b" ",
        b"Content-Length: ",
        b"Content-Length: 99999999999999999999999",
        b"Content-Length: -1",
        b"Content-Length: 5\r\nContent-Length: 6",
        b"\0",
        b"\xff\xfe",
        b"{",
        b"}",
        b"[",
        b"\"",
        b"\\u12",
        b"1e999",
        b"-",
        b"null",
        b"\"all\"",
        b"\"seed\":18446744073709551616",
        b"\"inject\":\"symbol:nan\"",
        b"\"inject\":\":::\"",
    ];

    /// One random edit: flip, insert, delete, splice, duplicate or
    /// truncate.
    fn mutate(rng: &mut Mix, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        for _ in 0..=rng.below(3) {
            let at = rng.below(out.len() + 1);
            match rng.below(6) {
                0 if at < out.len() => out[at] ^= 1 << rng.below(8),
                1 => out.insert(at, rng.next() as u8),
                2 if at < out.len() => {
                    out.remove(at);
                }
                3 => {
                    let s = SPLICES[rng.below(SPLICES.len())];
                    out.splice(at..at, s.iter().copied());
                }
                4 => {
                    let end = (at + rng.below(16)).min(out.len());
                    let piece = out[at..end].to_vec();
                    out.splice(at..at, piece);
                }
                _ => out.truncate(at),
            }
        }
        out
    }

    fn spec_corpus() -> Vec<String> {
        let mut full = tiny_spec();
        full.inject = Some("symbol:1e-6".to_string());
        full.seed_overrides.push(SeedOverride {
            workload: "vecadd".to_string(),
            scheme: "cachecraft".to_string(),
            seed: 9,
        });
        vec![
            serde_json::to_string(&tiny_spec()).expect("spec json"),
            serde_json::to_string(&full).expect("spec json"),
            "{}".to_string(),
            r#"{"workloads":["all"],"schemes":["all"],"size":"full"}"#.to_string(),
        ]
    }

    /// Parses a job body the way `POST /jobs` does, up to the point of
    /// submitting it: Ok when the daemon would accept it.
    fn check_spec(body: &[u8]) -> Result<(), String> {
        let spec: JobSpec =
            serde_json::from_str(&String::from_utf8_lossy(body)).map_err(|e| e.to_string())?;
        resolve_spec(&spec).map(|_| ()).map_err(|e| e.to_string())
    }

    #[test]
    fn mutated_requests_and_job_specs_never_panic() {
        let mut rng = Mix(0x5eed_f022);
        let mut requests: Vec<Vec<u8>> = vec![
            b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n".to_vec(),
            b"GET /jobs/job-1/events?from=3 HTTP/1.1\r\n\r\n".to_vec(),
            b"GET /metrics HTTP/1.0\r\nAccept: */*\r\n\r\n".to_vec(),
        ];
        for body in spec_corpus() {
            requests.push(
                format!(
                    "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes(),
            );
        }
        for r in &requests {
            assert!(parse_request(r).is_ok(), "{}", String::from_utf8_lossy(r));
        }
        let (mut parsed, mut specs_ok) = (0, 0);
        for case in 0..20_000 {
            let seed = &requests[case % requests.len()];
            let input = mutate(&mut rng, seed);
            let outcome = std::panic::catch_unwind(|| match parse_request(&input) {
                Ok(req) => Some(check_spec(&req.body).is_ok()),
                Err(e) => {
                    assert!(e.status().starts_with('4'), "{e:?} -> {}", e.status());
                    None
                }
            });
            match outcome {
                Ok(Some(spec_ok)) => {
                    parsed += 1;
                    specs_ok += usize::from(spec_ok);
                }
                Ok(None) => {}
                Err(_) => panic!(
                    "case {case} panicked on {:?}",
                    String::from_utf8_lossy(&input)
                ),
            }
        }
        // The mutations exercise both outcomes of both parsers.
        assert!(parsed > 1_000 && parsed < 19_000, "{parsed} parsed");
        assert!(specs_ok > 100, "{specs_ok} accepted specs");

        let corpus = spec_corpus();
        for case in 0..20_000 {
            let input = mutate(&mut rng, corpus[case % corpus.len()].as_bytes());
            if std::panic::catch_unwind(|| check_spec(&input)).is_err() {
                panic!(
                    "spec case {case} panicked on {:?}",
                    String::from_utf8_lossy(&input)
                );
            }
        }
    }

    #[test]
    fn request_parser_reports_typed_errors() {
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\n"),
            Err(RequestError::Incomplete)
        );
        assert_eq!(
            parse_request(b"GET  / HTTP/1.1\r\n\r\n"),
            Err(RequestError::BadRequestLine)
        );
        assert_eq!(
            parse_request(b"GET nope HTTP/1.1\r\n\r\n"),
            Err(RequestError::BadRequestLine)
        );
        assert_eq!(
            parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: x\r\n\r\n"),
            Err(RequestError::BadContentLength)
        );
        assert_eq!(
            parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 2\r\n\r\n"),
            Err(RequestError::BadContentLength)
        );
        assert_eq!(
            parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(RequestError::BodyTooLarge)
        );
        assert_eq!(
            parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}"),
            Err(RequestError::Incomplete)
        );
        let req = parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}extra")
            .expect("complete request");
        assert_eq!(req.body, b"{}");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(
            parse_request(&vec![b'a'; MAX_HEAD + 1]),
            Err(RequestError::HeadTooLarge)
        );
    }
}
