//! Process-level crash-resilience: kill a running experiment binary and
//! resume it through its cell store, `results/cells/`.
//!
//! Drives the actual `exp-faults` executable (not an in-process harness),
//! so the whole chain is exercised: option parsing, the global session,
//! durable per-cell writes surviving a SIGKILL, `--resume` replaying
//! finished cells by digest, and the checkpoint written at the end.

use ccraft_harness::checkpoint::{Checkpoint, CELLS_DIR};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Cells exp-faults runs: SWEEP_SUBSET (6 workloads) × 4 headline schemes.
/// Every cell has its own injection seed, so all 24 are distinct.
const TOTAL_CELLS: usize = 24;

fn read_checkpoint(path: &Path) -> Option<Checkpoint> {
    // Checkpoints carry a checksum footer; read through the store
    // (which also verifies it — a torn write must never parse).
    let (text, _verified) = ccraft_harness::store::read_verified_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// The entries of the cell store under `results`: one `<digest>.json`
/// per completed distinct cell (temp files of an interrupted write are
/// not entries).
fn stored_cells(results: &Path) -> Vec<PathBuf> {
    let Ok(dir) = std::fs::read_dir(results.join(CELLS_DIR)) else {
        return Vec::new();
    };
    dir.flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".json"))
                .is_some_and(|d| d.len() == 32 && d.bytes().all(|b| b.is_ascii_hexdigit()))
        })
        .collect()
}

/// Every cell-store entry a kill left behind must verify: each is
/// written whole (temp file + fsync + rename) or not at all.
fn assert_entries_verify(results: &Path) {
    for entry in stored_cells(results) {
        let v = ccraft_harness::store::read_verified(&entry).expect("cell entry readable");
        assert!(
            v.verified,
            "{} must carry a valid checksum footer",
            entry.display()
        );
    }
}

fn ok_cells(cp: &Checkpoint) -> usize {
    cp.cells.iter().filter(|c| c.is_ok()).count()
}

#[test]
fn killed_experiment_resumes_from_checkpoint() {
    let dir = std::env::temp_dir().join(format!("ccraft-kill-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint_path = dir.join("checkpoint.json");
    let exe = env!("CARGO_BIN_EXE_exp-faults");
    let base_args = ["--size", "tiny", "--threads", "1", "--seed", "3"];

    // First run: kill it as soon as some (but not all) cells are in the
    // cell store. Single-threaded tiny cells take long enough that the
    // poll wins the race in practice; if the run still finishes first,
    // the resume below degenerates to "skip everything", which is also a
    // valid round-trip.
    let mut child = Command::new(exe)
        .args(base_args)
        .env("CCRAFT_RESULTS", &dir)
        .env("CCRAFT_PROGRESS", "0")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn exp-faults");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut first_run_completed = false;
    loop {
        if stored_cells(&dir).len() >= 2 {
            break;
        }
        if child.try_wait().expect("poll child").is_some() {
            first_run_completed = true;
            break;
        }
        assert!(Instant::now() < deadline, "first run made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    if !first_run_completed {
        child.kill().expect("kill exp-faults");
        let _ = child.wait();
    }

    assert_entries_verify(&dir);
    let cells_after_kill = stored_cells(&dir).len();
    assert!(cells_after_kill >= 2, "kill happened after >= 2 cells");
    if !first_run_completed {
        assert!(
            cells_after_kill < TOTAL_CELLS,
            "kill should interrupt mid-run (got all {TOTAL_CELLS} cells)"
        );
    }

    // Second run resumes: it must skip everything already in the cell
    // store and finish the rest.
    let out = Command::new(exe)
        .args(base_args)
        .arg("--resume")
        .env("CCRAFT_RESULTS", &dir)
        .env("CCRAFT_PROGRESS", "0")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run exp-faults --resume");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume run failed: {stderr}");
    let skipped: usize = stderr
        .lines()
        .find_map(|l| {
            l.strip_prefix("resume: skipping ")
                .and_then(|rest| rest.split('/').next())
                .and_then(|n| n.parse().ok())
        })
        .expect("resume run reports skipped cells");
    assert!(
        skipped >= cells_after_kill,
        "resume must skip at least the {cells_after_kill} cells present at kill time, skipped {skipped}"
    );
    assert!(skipped <= TOTAL_CELLS);

    // Final checkpoint: the full matrix, all ok.
    let final_cp = read_checkpoint(&checkpoint_path).expect("final checkpoint");
    assert_eq!(final_cp.cells.len(), TOTAL_CELLS);
    assert_eq!(ok_cells(&final_cp), TOTAL_CELLS);
    // Cells executed by the resume run = total - skipped; together with
    // the skipped set they cover the matrix exactly once. The fingerprint
    // carries the canonical inject spec ("none" here: the fault
    // experiment configures injection per cell, not via --inject).
    assert_eq!(final_cp.fingerprint, "exp-faults/tiny/3/none");
    assert_eq!(stored_cells(&dir).len(), TOTAL_CELLS);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generalizes the single-kill test into a sweep: SIGKILL the experiment
/// at several different cell-store depths, resuming after each, and
/// assert the final `--resume` leaves a complete, checksum-valid results
/// directory — every CSV verifies through the store and the checkpoint
/// holds the whole matrix.
#[test]
fn kill_point_sweep_recovers_at_every_depth() {
    let dir = std::env::temp_dir().join(format!("ccraft-kill-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint_path = dir.join("checkpoint.json");
    let exe = env!("CARGO_BIN_EXE_exp-faults");
    let base_args = ["--size", "tiny", "--threads", "1", "--seed", "5"];

    // Kill once the cell store first reaches each of these depths. A fast
    // machine may blow past a target (or finish); both degrade safely.
    let mut completed = false;
    for (round, target) in [1usize, 4, 9].into_iter().enumerate() {
        let mut cmd = Command::new(exe);
        cmd.args(base_args);
        if round > 0 {
            cmd.arg("--resume");
        }
        let mut child = cmd
            .env("CCRAFT_RESULTS", &dir)
            .env("CCRAFT_PROGRESS", "0")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn exp-faults");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if stored_cells(&dir).len() >= target {
                break;
            }
            if child.try_wait().expect("poll child").is_some() {
                completed = true;
                break;
            }
            assert!(
                Instant::now() < deadline,
                "round {round} made no progress toward {target} cells"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        if completed {
            break;
        }
        child.kill().expect("kill exp-faults");
        let _ = child.wait();
        // Whatever survived each kill must already be valid entries:
        // atomic rename means we never observe a torn file.
        assert_entries_verify(&dir);
    }

    // Final resume runs the remainder to completion.
    let out = Command::new(exe)
        .args(base_args)
        .arg("--resume")
        .env("CCRAFT_RESULTS", &dir)
        .env("CCRAFT_PROGRESS", "0")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .expect("final resume");
    assert!(out.status.success(), "final resume failed");
    let final_cp = read_checkpoint(&checkpoint_path).expect("final checkpoint");
    assert_eq!(ok_cells(&final_cp), TOTAL_CELLS);
    assert_eq!(final_cp.fingerprint, "exp-faults/tiny/5/none");

    // The resumed run rewrote complete, checksum-valid CSVs.
    let csvs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        .collect();
    assert!(!csvs.is_empty(), "exp-faults must emit at least one CSV");
    for entry in csvs {
        let v = ccraft_harness::store::read_verified(&entry.path()).expect("CSV readable");
        assert!(
            v.verified,
            "{:?} must carry a valid checksum footer",
            entry.file_name()
        );
        assert!(!v.payload.is_empty());
    }
    // No quarantine files: SIGKILL must never corrupt the store's files.
    let corrupt: Vec<_> = [dir.clone(), dir.join(CELLS_DIR)]
        .iter()
        .flat_map(|d| std::fs::read_dir(d).unwrap().filter_map(|e| e.ok()))
        .filter(|e| e.file_name().to_string_lossy().contains(".corrupt-"))
        .collect();
    assert!(corrupt.is_empty(), "kill left corrupt files: {corrupt:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_of_a_complete_run_executes_nothing() {
    let dir = std::env::temp_dir().join(format!("ccraft-full-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exe = env!("CARGO_BIN_EXE_exp-faults");
    let base_args = ["--size", "tiny", "--threads", "2", "--seed", "9"];

    let run = |resume: bool| {
        let mut cmd = Command::new(exe);
        cmd.args(base_args);
        if resume {
            cmd.arg("--resume");
        }
        cmd.env("CCRAFT_RESULTS", &dir)
            .env("CCRAFT_PROGRESS", "0")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run exp-faults")
    };
    let first = run(false);
    assert!(first.status.success());
    let second = run(true);
    assert!(second.status.success());
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains(&format!("resume: skipping {TOTAL_CELLS}/{TOTAL_CELLS}")),
        "complete run must be skipped wholesale: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads a summary note from the run manifest under `results`.
fn manifest_note(results: &Path, name: &str) -> f64 {
    let (text, _) = ccraft_harness::store::read_verified_string(&results.join("manifest.json"))
        .expect("manifest readable");
    let manifest: ccraft_telemetry::manifest::RunManifest =
        serde_json::from_str(&text).expect("manifest parses");
    manifest
        .summary
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("manifest lacks note {name}"))
}

#[test]
fn manifest_accounts_for_reused_cells_and_resume_simulates_nothing() {
    // exp-sens-ecccap runs 4 capacity matrices of SWEEP_SUBSET (6
    // workloads) × 3 schemes; `no-protection` repeats in all four, so 72
    // cells are requested and 6 × (1 + 4 + 4) = 54 are distinct.
    let dir = std::env::temp_dir().join(format!("ccraft-cell-accounting-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exe = env!("CARGO_BIN_EXE_exp-sens-ecccap");
    let run = |resume: bool| {
        let mut cmd = Command::new(exe);
        cmd.args(["--size", "tiny", "--threads", "2", "--seed", "4"]);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd
            .env("CCRAFT_RESULTS", &dir)
            .env("CCRAFT_PROGRESS", "0")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .expect("run exp-sens-ecccap");
        assert!(out.status.success(), "exp-sens-ecccap failed");
    };
    let csv = dir.join("f10_ecc_capacity.csv");

    run(false);
    assert_eq!(manifest_note(&dir, "cells_requested"), 72.0);
    assert_eq!(manifest_note(&dir, "cells_simulated"), 54.0);
    assert_eq!(manifest_note(&dir, "cells_reused"), 18.0);
    assert_eq!(manifest_note(&dir, "checkpoint_cells"), 72.0);
    assert_eq!(stored_cells(&dir).len(), 54);
    let cp = read_checkpoint(&dir.join("checkpoint.json")).expect("checkpoint");
    let keys: std::collections::BTreeSet<&str> = cp.cells.iter().map(|c| c.key.as_str()).collect();
    assert_eq!(keys.len(), 72, "record keys must be unique");
    assert_eq!(ok_cells(&cp), 72);
    let first_csv = std::fs::read(&csv).expect("csv written");

    run(true);
    assert_eq!(manifest_note(&dir, "cells_simulated"), 0.0);
    assert_eq!(manifest_note(&dir, "cells_reused"), 72.0);
    assert_eq!(std::fs::read(&csv).expect("csv rewritten"), first_csv);
    let _ = std::fs::remove_dir_all(&dir);
}
