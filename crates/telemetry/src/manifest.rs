//! Run manifests: a `manifest.json` written next to every experiment's
//! results, recording what produced them.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Build/host provenance captured into the manifest so tools like
/// `ccx perf-diff` can refuse to compare runs from different toolchains
/// or machines. Every field degrades to `"unknown"` (or empty) when the
/// probe fails — provenance capture must never fail a run.
///
/// The compiler version is recorded when the crate is built; the git
/// state and hostname are probed once per process (see
/// [`Provenance::capture`]), so a long-running daemon reports the state
/// it started with.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Provenance {
    /// `rustc -V` of the toolchain that built the binary.
    #[serde(default)]
    pub rustc: String,
    /// `git rev-parse HEAD` of the working tree, with a `-dirty` suffix
    /// when the tree had uncommitted changes; `"unknown"` outside a repo.
    #[serde(default)]
    pub git_commit: String,
    /// Hostname the run executed on.
    #[serde(default)]
    pub hostname: String,
    /// Cargo feature flags that alter runtime behavior (e.g.
    /// `check-invariants`), pushed by the caller — the library cannot see
    /// the binary's feature set.
    #[serde(default)]
    pub features: Vec<String>,
}

/// `rustc -V` of the compiler that built this crate, recorded by
/// `build.rs` (`"unknown"` when the build could not run it).
pub const BUILD_RUSTC: &str = env!("CCRAFT_RUSTC_VERSION");

/// The process's one provenance capture.
static CAPTURED: OnceLock<Provenance> = OnceLock::new();

/// Subprocesses spawned by provenance probes in this process.
static PROBES: AtomicU64 = AtomicU64::new(0);

impl Provenance {
    /// The process's build/host provenance: [`BUILD_RUSTC`] plus the git
    /// commit and hostname, probed on the first call and reused by every
    /// later one, so only the first call spawns subprocesses. `features`
    /// is left empty for the caller to fill.
    pub fn capture() -> Self {
        CAPTURED
            .get_or_init(|| Provenance {
                rustc: BUILD_RUSTC.to_string(),
                git_commit: capture_git_commit(),
                hostname: capture_hostname(),
                features: Vec::new(),
            })
            .clone()
    }

    /// `rustc @ git commit`: the code version every cell-cache key
    /// embeds.
    pub fn code_version(&self) -> String {
        format!("{} @ {}", self.rustc, self.git_commit)
    }

    /// True when nothing was captured (used to omit the manifest field).
    pub fn is_empty(&self) -> bool {
        self == &Provenance::default()
    }
}

/// Runs a command and returns its successful output, if any.
fn run_probe(cmd: &str, args: &[&str]) -> Option<std::process::Output> {
    PROBES.fetch_add(1, Ordering::Relaxed);
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
}

/// Runs a command and returns its trimmed stdout, or `"unknown"`.
fn probe_cmd(cmd: &str, args: &[&str]) -> String {
    run_probe(cmd, args)
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn capture_git_commit() -> String {
    let commit = probe_cmd("git", &["rev-parse", "HEAD"]);
    if commit == "unknown" {
        return commit;
    }
    // `git status --porcelain` prints nothing when the tree is clean.
    let dirty = run_probe("git", &["status", "--porcelain"]).is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{commit}-dirty")
    } else {
        commit
    }
}

fn capture_hostname() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| probe_cmd("uname", &["-n"]))
}

/// Per-cell execution provenance: what actually happened to one matrix
/// cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellManifest {
    /// Cell identifier (`m<call>/<workload>/<scheme>` or
    /// `<workload>/<scheme>`).
    pub cell: String,
    /// Result-cache disposition: `"hit"` (served from the
    /// content-addressed cache, no simulation), `"miss"` (simulated and
    /// inserted), or `"uncached"` (no cache in play).
    #[serde(default)]
    pub cache: String,
    /// Final cell status (`"ok"` / `"failed"` / `"timeout"`).
    #[serde(default)]
    pub status: String,
}

/// Description of one completed experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Experiment name (e.g. `"f4-main"` or `"ccx-run"`).
    pub experiment: String,
    /// The argv the run was invoked with.
    pub command: Vec<String>,
    /// Size class the run used (`tiny` / `small` / `full`).
    pub size: String,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_secs: f64,
    /// Completion time, milliseconds since the Unix epoch.
    pub completed_unix_ms: u64,
    /// Free-form telemetry summary (metric name, value), e.g. matrix
    /// cell counts or headline latency percentiles.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub summary: Vec<(String, f64)>,
    /// Files written by the run, relative to the results directory.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub outputs: Vec<String>,
    /// Non-fatal problems the run survived: failed or timed-out matrix
    /// cells (with their panic messages), skipped artifacts, and similar.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub warnings: Vec<String>,
    /// Per-cell execution provenance (cache disposition, status). Empty in manifests from before it existed.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub cells: Vec<CellManifest>,
    /// Build/host provenance; absent in manifests from before it existed.
    #[serde(default, skip_serializing_if = "Provenance::is_empty")]
    pub provenance: Provenance,
}

impl RunManifest {
    /// Creates a manifest skeleton for an experiment; the caller fills
    /// in timing, summary and outputs as the run proceeds.
    pub fn new(experiment: &str) -> Self {
        RunManifest {
            experiment: experiment.to_string(),
            command: std::env::args().collect(),
            size: String::new(),
            seed: 0,
            threads: 0,
            wall_time_secs: 0.0,
            completed_unix_ms: 0,
            summary: Vec::new(),
            outputs: Vec::new(),
            warnings: Vec::new(),
            cells: Vec::new(),
            provenance: Provenance::default(),
        }
    }

    /// Records one cell's execution provenance.
    pub fn record_cell(&mut self, cell: CellManifest) {
        self.cells.push(cell);
    }

    /// Adds a named metric to the summary.
    pub fn note(&mut self, name: &str, value: f64) {
        self.summary.push((name.to_string(), value));
    }

    /// Records a written output file.
    pub fn output(&mut self, path: &str) {
        self.outputs.push(path.to_string());
    }

    /// Records a non-fatal problem (e.g. a failed matrix cell).
    pub fn warn(&mut self, message: impl Into<String>) {
        self.warnings.push(message.into());
    }

    /// Stamps the completion time from the system clock and fills in the
    /// process's provenance ([`Provenance::capture`]) if the caller has
    /// not already set it (feature flags already pushed into
    /// `provenance` are preserved).
    pub fn stamp(&mut self) {
        self.completed_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        if self.provenance.rustc.is_empty() {
            let features = std::mem::take(&mut self.provenance.features);
            self.provenance = Provenance::capture();
            self.provenance.features = features;
        }
    }

    /// Serializes the manifest as pretty JSON.
    // Serializing a plain-old-data struct cannot fail; a panic here means
    // the derive or the vendored serde_json is broken.
    #[allow(clippy::expect_used)]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let mut m = RunManifest::new("f4-main");
        m.size = "tiny".to_string();
        m.seed = 42;
        m.threads = 4;
        m.wall_time_secs = 1.25;
        m.note("cells", 8.0);
        m.output("f4_main.csv");
        m.warn("cell m0/spmv/cachecraft failed: boom");
        m.stamp();
        let json = m.to_json();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        assert!(back.completed_unix_ms > 0);
        assert_eq!(back.warnings.len(), 1);
        // stamp() captured provenance; fields are never empty strings.
        assert!(!back.provenance.rustc.is_empty());
        assert!(!back.provenance.git_commit.is_empty());
        assert!(!back.provenance.hostname.is_empty());
    }

    #[test]
    fn empty_sections_are_omitted() {
        let m = RunManifest::new("x");
        let json = m.to_json();
        assert!(!json.contains("summary"));
        assert!(!json.contains("outputs"));
        assert!(!json.contains("warnings"));
        assert!(!json.contains("provenance"));
    }

    #[test]
    fn stamp_preserves_caller_features() {
        let mut m = RunManifest::new("x");
        m.provenance.features = vec!["check-invariants".to_string()];
        m.stamp();
        assert_eq!(m.provenance.features, vec!["check-invariants"]);
        assert!(!m.provenance.rustc.is_empty());
    }

    #[test]
    fn a_second_capture_probes_nothing() {
        let first = Provenance::capture();
        let probes = PROBES.load(Ordering::Relaxed);
        let second = Provenance::capture();
        assert_eq!(PROBES.load(Ordering::Relaxed), probes);
        assert_eq!(first, second);
        assert_eq!(first.rustc, BUILD_RUSTC);
        assert_eq!(
            first.code_version(),
            format!("{} @ {}", first.rustc, first.git_commit)
        );
    }

    #[test]
    fn build_time_rustc_has_the_version_form() {
        // `rustc X.Y.Z (<hash> <date>)`, optionally with a channel
        // suffix on the version (`1.80.0-nightly`).
        let rest = BUILD_RUSTC
            .strip_prefix("rustc ")
            .unwrap_or_else(|| panic!("{BUILD_RUSTC:?}"));
        let (version, detail) = rest
            .split_once(' ')
            .unwrap_or_else(|| panic!("{BUILD_RUSTC:?}"));
        let numbers = version.split('-').next().unwrap_or_default();
        let parts: Vec<&str> = numbers.split('.').collect();
        assert_eq!(parts.len(), 3, "{BUILD_RUSTC:?}");
        assert!(
            parts.iter().all(|p| p.parse::<u32>().is_ok()),
            "{BUILD_RUSTC:?}"
        );
        assert!(
            detail.starts_with('(') && detail.ends_with(')'),
            "{BUILD_RUSTC:?}"
        );
    }

    #[test]
    fn manifests_without_provenance_still_parse() {
        let json = r#"{
            "experiment": "old",
            "command": ["exp-all"],
            "size": "tiny",
            "seed": 1,
            "threads": 2,
            "wall_time_secs": 0.5,
            "completed_unix_ms": 123
        }"#;
        let m: RunManifest = serde_json::from_str(json).unwrap();
        assert!(m.provenance.is_empty());
    }
}
