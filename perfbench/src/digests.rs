//! The committed output oracle: digests of every result the benchmark
//! produces at the default seed, one `name digest` pair per line.
//!
//! At the default seed every digest must match; a speed-only change
//! leaves them all unchanged. `--bless` rewrites the workload's lines
//! from the current run instead of checking them (only at the default
//! seed, after a deliberate model change).

use crate::util::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed the committed digests were produced at.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug)]
pub struct Digests {
    path: PathBuf,
    committed: BTreeMap<String, String>,
    /// Checking (or blessing) is active: the run uses the default seed.
    active: bool,
    bless: bool,
    seen: BTreeMap<String, String>,
}

impl Digests {
    pub fn load(path: PathBuf, seed: u64, bless: bool) -> Digests {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let committed = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (name, digest) = l
                    .rsplit_once(' ')
                    .unwrap_or_else(|| panic!("malformed digest line {l:?}"));
                (name.to_string(), digest.to_string())
            })
            .collect();
        assert!(
            !bless || seed == DEFAULT_SEED,
            "--bless requires --seed {DEFAULT_SEED}"
        );
        Digests {
            path,
            committed,
            active: seed == DEFAULT_SEED,
            bless,
            seen: BTreeMap::new(),
        }
    }

    /// Checks `digest` against the committed one for `name` (default
    /// seed only; other seeds rely on the self-consistency checks).
    pub fn check(&mut self, rep: &mut Report, name: &str, digest: &str) {
        if !self.active {
            return;
        }
        self.seen.insert(name.to_string(), digest.to_string());
        if self.bless {
            return;
        }
        let want = self.committed.get(name);
        rep.check(want.map(String::as_str) == Some(digest), || {
            format!("digest of {name}: got {digest}, committed {want:?}")
        });
    }

    /// Checks that the run produced every committed digest under
    /// `prefix` whose name `produced` accepts, or (when blessing)
    /// replaces those lines with this run's.
    pub fn finish(&mut self, rep: &mut Report, prefix: &str, produced: impl Fn(&str) -> bool) {
        if !self.active {
            return;
        }
        let ours = |n: &String| n.starts_with(prefix) && produced(n);
        if self.bless {
            self.committed.retain(|n, _| !n.starts_with(prefix));
            self.committed.extend(self.seen.clone());
            let mut text = String::from(
                "# Digests (FNV-1a 64) of every benchmark result at --seed 1.\n\
                 # Regenerate with --bless only after a deliberate model change.\n",
            );
            for (name, digest) in &self.committed {
                text.push_str(&format!("{name} {digest}\n"));
            }
            std::fs::write(&self.path, text)
                .unwrap_or_else(|e| panic!("writing {}: {e}", self.path.display()));
            return;
        }
        for name in self.committed.keys().filter(|n| ours(n)) {
            rep.check(self.seen.contains_key(name), || {
                format!("committed result {name} was not produced")
            });
        }
    }
}
