//! Per-run cell store and the final experiment checkpoint.
//!
//! Every experiment run owns one *cell store*, held in the
//! process-global [`Session`] that [`crate::runner::run_experiment`]
//! installs, so every matrix call inside an experiment body goes through
//! it without threading a handle through each experiment's signature.
//! Cells are keyed by a [`crate::cellcache::CellKey`] digest of
//! everything that determines their result (see
//! [`crate::runner::cell_key`]). The run keeps:
//!
//! * a [`CellStore`]: an **in-memory memo** (digest → result) that lets
//!   a later matrix — or a later cell of the same matrix — reuse a
//!   result this run already has instead of simulating it again, over a
//!   **durable layer** at `results/cells/`, a [`ResultCache`] holding
//!   one checksummed file per distinct successful cell, written as the
//!   cell completes;
//! * **`results/checkpoint.json`**, written once when the session ends
//!   ([`finish`]/[`clear`]), holding a [`CellRecord`] for every cell of
//!   the run, reused ones included.
//!
//! `--resume` reopens the run's `results/cells/`: a cell whose digest is
//! already there replays its stored result without executing. Replay is
//! by digest, so a changed size, seed, machine or inject spec simply
//! misses. A run without `--resume` starts with an empty `results/cells/`.
//!
//! Record keys are `m<call>/<workload>/<column>/<scheme>`: experiments
//! may invoke the matrix runner several times (calls are numbered in
//! execution order), and one matrix may hold several variants of one
//! scheme name, told apart by their scheme column.

use crate::cellcache::{CellStore, ResultCache};
use crate::error::Error;
use ccraft_sim::stats::SimStats;
use ccraft_telemetry::manifest::Provenance;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Format version of `checkpoint.json`.
pub const CHECKPOINT_SCHEMA: u32 = 1;

/// Name of the durable cell-store directory, a sibling of
/// `checkpoint.json`.
pub const CELLS_DIR: &str = "cells";

/// Cell completed successfully.
pub const STATUS_OK: &str = "ok";
/// Cell panicked (message recorded).
pub const STATUS_FAILED: &str = "failed";
/// Cell exceeded its watchdog timeout.
pub const STATUS_TIMEOUT: &str = "timeout";

/// Outcome of one recorded matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// `m<call>/<workload>/<column>/<scheme>` identifier.
    pub key: String,
    /// One of [`STATUS_OK`] / [`STATUS_FAILED`] / [`STATUS_TIMEOUT`].
    pub status: String,
    /// Panic or timeout message, for failed cells.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub message: Option<String>,
    /// Execution attempts consumed (0 for a cell reused from the cell
    /// store).
    pub attempts: u32,
    /// Per-attempt outcome log (`"attempt 1: failed: <msg>"`, ...),
    /// recorded so a post-mortem can see *how* a cell reached its final
    /// status. Absent in checkpoints from before this field existed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub history: Vec<String>,
    /// The cell's results, for successful cells.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<SimStats>,
    /// Cell-store disposition (`"hit"` / `"miss"` / `"uncached"`);
    /// empty in checkpoints from before the cache existed.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub cache: String,
}

impl CellRecord {
    /// `true` when the cell completed and its stats are present.
    pub fn is_ok(&self) -> bool {
        self.status == STATUS_OK && self.stats.is_some()
    }
}

/// On-disk checkpoint contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version.
    pub schema: u32,
    /// Experiment configuration this checkpoint belongs to.
    pub fingerprint: String,
    /// Every recorded cell, in completion order.
    pub cells: Vec<CellRecord>,
}

/// A live experiment run: its cell store and the records of every cell.
#[derive(Debug)]
pub struct Session {
    path: PathBuf,
    checkpoint: Checkpoint,
    matrix_calls: u32,
    /// Matrix cells requested so far, reused and skipped ones included.
    requested: usize,
    /// Non-fatal problems hit while opening the cell store; surfaced in
    /// the run manifest.
    warnings: Vec<String>,
    /// The run's cell store; memo-only when `results/cells/` could not
    /// be opened.
    cells: Arc<CellStore>,
}

impl Session {
    /// Opens a session whose checkpoint will be written to `path` and
    /// whose durable cell store lives in the sibling [`CELLS_DIR`].
    ///
    /// With `resume`, the existing cell store is reopened and its cells
    /// become reusable; without, it is emptied first. A store that cannot
    /// be opened leaves the session memo-only (with a warning).
    pub fn start(fingerprint: &str, path: PathBuf, resume: bool) -> Self {
        let mut warnings = Vec::new();
        let dir = path.with_file_name(CELLS_DIR);
        if !resume && dir.exists() {
            if let Err(e) = std::fs::remove_dir_all(&dir) {
                warnings.push(format!("emptying cell store {}: {e}", dir.display()));
            }
        }
        let durable = match ResultCache::open(&dir) {
            Ok(cache) => Some(cache),
            Err(e) => {
                warnings.push(format!(
                    "cell store unavailable ({e}); results are not durable"
                ));
                None
            }
        };
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        Session {
            path,
            checkpoint: Checkpoint {
                schema: CHECKPOINT_SCHEMA,
                fingerprint: fingerprint.to_string(),
                cells: Vec::new(),
            },
            matrix_calls: 0,
            requested: 0,
            warnings,
            cells: Arc::new(CellStore::new(durable)),
        }
    }

    /// Key prefix for the next matrix call (`m0`, `m1`, ...) of a matrix
    /// of `cells` cells, which are counted as requested.
    pub fn next_matrix_prefix(&mut self, cells: usize) -> String {
        let p = format!("m{}", self.matrix_calls);
        self.matrix_calls += 1;
        self.requested += cells;
        p
    }

    /// Code version for cell keys: `rustc @ git commit` of the process's
    /// one provenance capture, which the run manifest records too.
    pub fn code_version(&self) -> String {
        Provenance::capture().code_version()
    }

    /// The run's cell store, shared with the matrix workers, which read
    /// and fill it outside the session lock.
    pub fn cell_store(&self) -> Arc<CellStore> {
        Arc::clone(&self.cells)
    }

    /// Records one completed cell, replacing any previous record with the
    /// same key. Records stay in memory until [`Session::save`].
    ///
    /// # Errors
    ///
    /// Never fails today; callers handle the `Result` so recording may
    /// become fallible without an API change.
    pub fn record(&mut self, record: CellRecord) -> Result<(), Error> {
        self.checkpoint.cells.retain(|c| c.key != record.key);
        self.checkpoint.cells.push(record);
        Ok(())
    }

    /// All recorded cells.
    pub fn cells(&self) -> &[CellRecord] {
        &self.checkpoint.cells
    }

    /// Matrix cells requested so far.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Messages of every non-ok cell, for the run manifest.
    pub fn failure_messages(&self) -> Vec<String> {
        self.checkpoint
            .cells
            .iter()
            .filter(|c| !c.is_ok())
            .map(|c| {
                format!(
                    "cell {} {}: {}",
                    c.key,
                    c.status,
                    c.message.as_deref().unwrap_or("(no message)")
                )
            })
            .collect()
    }

    /// Path of the checkpoint file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Non-fatal problems hit while opening the cell store, for the run
    /// manifest.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Cells whose final status is not ok — the quarantined cells of a
    /// degraded run.
    pub fn failed_cells(&self) -> usize {
        self.checkpoint.cells.iter().filter(|c| !c.is_ok()).count()
    }

    /// Writes the checkpoint durably through [`crate::store`]: checksum
    /// footer, temp file + fsync + atomic rename + directory fsync.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the checkpoint file cannot be written.
    pub fn save(&self) -> Result<(), Error> {
        let json = serde_json::to_string_pretty(&self.checkpoint)
            .map_err(|e| Error::config(format!("serializing checkpoint: {e}")))?;
        crate::store::write_durable(&self.path, json.as_bytes())
    }
}

/// The process-global active session, if any.
static CURRENT: Mutex<Option<Arc<Mutex<Session>>>> = Mutex::new(None);

fn lock_current() -> std::sync::MutexGuard<'static, Option<Arc<Mutex<Session>>>> {
    // A poisoned registry lock only means some thread panicked mid-swap;
    // the Option inside is still valid.
    CURRENT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `session` as the process-global session, returning the shared
/// handle. Replaces any previous session.
pub fn install(session: Session) -> Arc<Mutex<Session>> {
    let handle = Arc::new(Mutex::new(session));
    *lock_current() = Some(Arc::clone(&handle));
    handle
}

/// Ends the global session: removes it and writes its checkpoint, once.
/// Does nothing when no session is installed.
///
/// # Errors
///
/// Returns [`Error::Io`] when the checkpoint file cannot be written.
pub fn finish() -> Result<(), Error> {
    let Some(handle) = lock_current().take() else {
        return Ok(());
    };
    let session = handle.lock().unwrap_or_else(PoisonError::into_inner);
    session.save()
}

/// [`finish`], reporting a checkpoint-write failure on stderr.
pub fn clear() {
    if let Err(e) = finish() {
        eprintln!("warning: failed to write checkpoint: {e}");
    }
}

/// The currently-installed session, if any.
pub fn current() -> Option<Arc<Mutex<Session>>> {
    lock_current().clone()
}

/// Serializes tests that touch the process-global session (or run
/// matrices, which consult it), so parallel test threads don't record
/// cells into each other's sessions.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellcache::CellKey;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ccraft-checkpoint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ok_record(key: &str) -> CellRecord {
        CellRecord {
            key: key.to_string(),
            status: STATUS_OK.to_string(),
            message: None,
            attempts: 1,
            history: vec!["attempt 1: ok".to_string()],
            stats: Some(sample_stats()),
            cache: String::new(),
        }
    }

    fn sample_stats() -> SimStats {
        SimStats {
            kernel: "k".into(),
            scheme: "s".into(),
            cycles: 10,
            exec_cycles: 8,
            timed_out: false,
            ops: 4,
            accesses: 4,
            l1_read_hits: 0,
            l1_read_misses: 0,
            l2_read_hits: 0,
            l2_read_misses: 0,
            l2_fills: 0,
            l2_writebacks: 0,
            dram: [1, 0, 0, 0],
            row_hits: 0,
            row_empties: 0,
            row_conflicts: 0,
            refreshes: 0,
            mean_read_latency: 0.0,
            protection: Default::default(),
            latency_hist: None,
            timeline: None,
            faults: None,
        }
    }

    fn sample_key(seed: u64) -> CellKey {
        CellKey {
            scheme: "NoProtection".to_string(),
            workload: "vecadd".to_string(),
            machine: "tiny".to_string(),
            size: "tiny".to_string(),
            seed,
            inject: "none".to_string(),
            features: Vec::new(),
            code_version: "test".to_string(),
        }
    }

    fn read_back(path: &Path) -> Checkpoint {
        let (text, verified) = crate::store::read_verified_string(path).unwrap();
        assert!(verified, "checkpoint must carry a valid checksum footer");
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn records_stay_in_memory_until_saved() {
        let path = tmpdir("roundtrip").join("checkpoint.json");
        let mut s = Session::start("exp/small/1", path.clone(), false);
        s.record(ok_record("m0/vecadd/0/cachecraft")).unwrap();
        s.record(CellRecord {
            key: "m0/spmv/0/cachecraft".into(),
            status: STATUS_FAILED.into(),
            message: Some("boom".into()),
            attempts: 2,
            history: vec![
                "attempt 1: failed: boom".to_string(),
                "attempt 2: failed: boom".to_string(),
            ],
            stats: None,
            cache: String::new(),
        })
        .unwrap();
        assert!(!path.exists(), "recording must not write the checkpoint");
        assert_eq!(s.failed_cells(), 1);
        let msgs = s.failure_messages();
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("boom"), "{msgs:?}");

        s.save().unwrap();
        let cp = read_back(&path);
        assert_eq!(cp.fingerprint, "exp/small/1");
        assert_eq!(cp.cells.len(), 2);
        // Attempt history round-trips through the durable store.
        let failed = cp.cells.iter().find(|c| !c.is_ok()).unwrap();
        assert_eq!(failed.history.len(), 2);
        assert!(
            failed.history[0].contains("attempt 1"),
            "{:?}",
            failed.history
        );
    }

    #[test]
    fn resume_reopens_the_cell_store_and_a_fresh_start_empties_it() {
        let path = tmpdir("cells").join("checkpoint.json");
        let s = Session::start("f", path.clone(), false);
        let store = s.cell_store();
        let durable = store.durable().expect("cell store opens");
        assert_eq!(durable.dir(), path.with_file_name(CELLS_DIR));
        store.insert(&sample_key(1), &sample_stats()).unwrap();
        drop(s);

        let resumed = Session::start("f", path.clone(), true).cell_store();
        let hit = resumed
            .lookup(&sample_key(1))
            .expect("resume sees the entry");
        assert_eq!(hit.stats, sample_stats());
        assert!(resumed.lookup(&sample_key(2)).is_none());

        let fresh = Session::start("f", path, false).cell_store();
        assert!(fresh.lookup(&sample_key(1)).is_none());
        assert!(fresh.durable().unwrap().is_empty());
    }

    #[test]
    fn records_replace_same_key() {
        let path = tmpdir("replace").join("checkpoint.json");
        let mut s = Session::start("f", path, false);
        s.record(CellRecord {
            key: "m0/a/0/b".into(),
            status: STATUS_TIMEOUT.into(),
            message: Some("timed out after 1s".into()),
            attempts: 1,
            history: Vec::new(),
            stats: None,
            cache: String::new(),
        })
        .unwrap();
        s.record(ok_record("m0/a/0/b")).unwrap();
        assert_eq!(s.cells().len(), 1);
        assert!(s.cells()[0].is_ok());
    }

    #[test]
    fn matrix_prefixes_count_up_and_requested_cells_add_up() {
        let path = tmpdir("prefix").join("checkpoint.json");
        let mut s = Session::start("f", path, false);
        assert_eq!(s.next_matrix_prefix(4), "m0");
        assert_eq!(s.next_matrix_prefix(6), "m1");
        assert_eq!(s.requested(), 10);
    }

    #[test]
    fn global_install_and_clear_writes_the_checkpoint_once() {
        let _guard = test_guard();
        let path = tmpdir("global").join("checkpoint.json");
        let handle = install(Session::start("f", path.clone(), false));
        let got = current().expect("session installed");
        assert!(Arc::ptr_eq(&handle, &got));
        lock_current_session(&got)
            .record(ok_record("m0/a/0/b"))
            .unwrap();
        assert!(!path.exists());
        clear();
        assert!(current().is_none());
        assert_eq!(read_back(&path).cells.len(), 1);
        // With no session installed, finishing is a no-op.
        finish().unwrap();
    }

    fn lock_current_session(s: &Arc<Mutex<Session>>) -> std::sync::MutexGuard<'_, Session> {
        s.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
