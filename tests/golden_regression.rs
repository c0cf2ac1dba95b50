//! Golden regression: pinned end-to-end statistics.
//!
//! The simulator is fully deterministic, so these exact values must
//! reproduce on any platform. If a deliberate model change shifts them,
//! re-baseline *and* re-run the full evaluation (EXPERIMENTS.md) in the
//! same change.

use cachecraft::schemes::factory::{run_scheme, run_scheme_profiled, SchemeKind};
use cachecraft::sim::config::GpuConfig;
use cachecraft::sim::SimStats;
use cachecraft::telemetry::TelemetryConfig;
use cachecraft::workloads::{SizeClass, Workload};

#[test]
fn pinned_stats_vecadd_tiny() {
    let cfg = GpuConfig::tiny();
    let trace = Workload::VecAdd.generate(SizeClass::Tiny, 1);
    let expect: [(&str, u64, u64, [u64; 4]); 4] = [
        ("no-protection", 32675, 32492, [16384, 8192, 0, 0]),
        ("inline-naive", 66240, 65585, [16384, 8192, 24576, 8192]),
        ("ecc-cache", 43125, 42425, [16384, 8192, 3072, 984]),
        ("cachecraft", 38168, 37838, [16384, 8192, 2345, 1307]),
    ];
    for (kind, (name, cycles, exec, dram)) in SchemeKind::headline(&cfg).into_iter().zip(expect) {
        let s = run_scheme(&cfg, kind, &trace);
        assert_eq!(kind.name(), name);
        assert_eq!(s.cycles, cycles, "{name}: total cycles drifted");
        assert_eq!(s.exec_cycles, exec, "{name}: exec cycles drifted");
        assert_eq!(s.dram, dram, "{name}: DRAM traffic drifted");
    }
}

/// FNV-1a 64 over the JSON serialization of `stats`, which covers every
/// counter: the same digest `perfbench` pins its cells with.
fn digest(stats: &SimStats) -> u64 {
    let json = serde_json::to_string(stats).expect("SimStats serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `SimStats` digest of every workload under every headline scheme on
/// `GpuConfig::tiny()`, `SizeClass::Tiny`, seed 1 (workload-major, in
/// `Workload::ALL` and `SchemeKind::headline` order).
const CORPUS: [(&str, &str, u64); 52] = [
    ("vecadd", "no-protection", 0x4a52fa2999ce0220),
    ("vecadd", "inline-naive", 0x408243cd9d9faa8a),
    ("vecadd", "ecc-cache", 0x5216e6e36409916c),
    ("vecadd", "cachecraft", 0x32195b2ac1381a83),
    ("triad", "no-protection", 0xcecfa7340feb3e66),
    ("triad", "inline-naive", 0x7fffa7e565ca15ba),
    ("triad", "ecc-cache", 0x0ab3d44828dd89ff),
    ("triad", "cachecraft", 0x3e930290e82cf0de),
    ("saxpy", "no-protection", 0x85ca936358cdfddc),
    ("saxpy", "inline-naive", 0xd046a5df29b62165),
    ("saxpy", "ecc-cache", 0x52f6084ff041ad5a),
    ("saxpy", "cachecraft", 0x2c21ee32027bb985),
    ("reduction", "no-protection", 0x20744cd6720464f6),
    ("reduction", "inline-naive", 0xce153812ed076cba),
    ("reduction", "ecc-cache", 0x9d4b26d6a31c449b),
    ("reduction", "cachecraft", 0x2906b19a5bffc124),
    ("gemm", "no-protection", 0x8464e5068c281303),
    ("gemm", "inline-naive", 0x53d08b4341d0c444),
    ("gemm", "ecc-cache", 0xe826b447108e255d),
    ("gemm", "cachecraft", 0x0718fbf5f7276191),
    ("stencil2d", "no-protection", 0x718c8aaf73f80a11),
    ("stencil2d", "inline-naive", 0x7e4f2727d01c75c1),
    ("stencil2d", "ecc-cache", 0x882845d2ab48d325),
    ("stencil2d", "cachecraft", 0x055f3d36b3f98e32),
    ("conv2d", "no-protection", 0xdf5a64fca1eb12fc),
    ("conv2d", "inline-naive", 0x65ada1332cb5e1fb),
    ("conv2d", "ecc-cache", 0x7eae193d27d3cfa0),
    ("conv2d", "cachecraft", 0x56e1da35d7955cae),
    ("transpose", "no-protection", 0x0ca6ee43644bb8d5),
    ("transpose", "inline-naive", 0x14cc7338d876404e),
    ("transpose", "ecc-cache", 0x7f66d1abd8ea38a4),
    ("transpose", "cachecraft", 0x4d96f45e2052bc04),
    ("kmeans", "no-protection", 0x225c80e2a455f485),
    ("kmeans", "inline-naive", 0x8826988a6090d574),
    ("kmeans", "ecc-cache", 0x3e8b6dfe393327b5),
    ("kmeans", "cachecraft", 0x112b7354e36ba7a0),
    ("spmv", "no-protection", 0xbc506974c7f35cf7),
    ("spmv", "inline-naive", 0xfa9467a37bd9d19e),
    ("spmv", "ecc-cache", 0x84a0f17adab222c8),
    ("spmv", "cachecraft", 0x13415e7272042bd0),
    ("bfs", "no-protection", 0xab1d2dcfdcba0415),
    ("bfs", "inline-naive", 0x0ce5c1fbf63fc343),
    ("bfs", "ecc-cache", 0x32229875a16e6847),
    ("bfs", "cachecraft", 0x797babe1c960069c),
    ("histogram", "no-protection", 0x5566918c61aa35ee),
    ("histogram", "inline-naive", 0x0fb7769f407123d4),
    ("histogram", "ecc-cache", 0x5252fd6a27c5b3a4),
    ("histogram", "cachecraft", 0x03b4f83ed1346e55),
    ("montecarlo", "no-protection", 0x2368dcbe31890678),
    ("montecarlo", "inline-naive", 0x3f18cb090834fb12),
    ("montecarlo", "ecc-cache", 0x87b8282a449c1820),
    ("montecarlo", "cachecraft", 0x32dc9b5c12adc6a1),
];

/// The full golden corpus: a change anywhere in the model shows up as a
/// digest mismatch naming the workload and scheme that drifted.
#[test]
fn golden_corpus_stats_are_pinned() {
    let cfg = GpuConfig::tiny();
    let mut pins = CORPUS.iter();
    let mut drifted = Vec::new();
    for wl in Workload::ALL {
        let trace = wl.generate(SizeClass::Tiny, 1);
        for kind in SchemeKind::headline(&cfg) {
            let &(name, scheme, want) = pins.next().expect("one pin per cell");
            assert_eq!((wl.name(), kind.name()), (name, scheme), "pin table order");
            let got = digest(&run_scheme(&cfg, kind, &trace));
            if got != want {
                drifted.push(format!(
                    "{name}/{scheme}: {got:#018x} != pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(pins.next().is_none(), "pin table has extra rows");
    assert!(drifted.is_empty(), "stats drifted:\n{}", drifted.join("\n"));
}

/// `SimStats` digests on `GpuConfig::gddr6()`, `SizeClass::Tiny`, seed 1,
/// for the irregular kernels under every headline scheme. With 24 warps
/// and 16 L1 MSHRs per SM, these runs spend most SM cycles blocked on
/// MSHRs and most slice cycles idle, the states the cycle loop sleeps
/// through; the tiny machine's 4 warps per SM rarely get there.
const GDDR6_PINS: [(&str, &str, u64); 12] = [
    ("spmv", "no-protection", 0xd361abfe0c4e7e12),
    ("spmv", "inline-naive", 0x861c5365a1932570),
    ("spmv", "ecc-cache", 0x24cf08e138fc0ca0),
    ("spmv", "cachecraft", 0xc98d64da13f15c0e),
    ("bfs", "no-protection", 0x02cee4afbd3d0922),
    ("bfs", "inline-naive", 0xf8e1727bbe94bd85),
    ("bfs", "ecc-cache", 0xdfbf6600256ee716),
    ("bfs", "cachecraft", 0x5cbd746beda65880),
    ("histogram", "no-protection", 0x25292b270517c9ab),
    ("histogram", "inline-naive", 0x9d99a2c57e0b25db),
    ("histogram", "ecc-cache", 0x0064a11e0597bb60),
    ("histogram", "cachecraft", 0xf0ab2a7220bb04d6),
];

#[test]
fn gddr6_memory_bound_stats_are_pinned() {
    let cfg = GpuConfig::gddr6();
    let mut pins = GDDR6_PINS.iter();
    let mut drifted = Vec::new();
    for wl in [Workload::Spmv, Workload::Bfs, Workload::Histogram] {
        let trace = wl.generate(SizeClass::Tiny, 1);
        for kind in SchemeKind::headline(&cfg) {
            let &(name, scheme, want) = pins.next().expect("one pin per cell");
            assert_eq!((wl.name(), kind.name()), (name, scheme), "pin table order");
            let got = digest(&run_scheme(&cfg, kind, &trace));
            if got != want {
                drifted.push(format!(
                    "{name}/{scheme}: {got:#018x} != pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(pins.next().is_none(), "pin table has extra rows");
    assert!(drifted.is_empty(), "stats drifted:\n{}", drifted.join("\n"));
}

/// Runs cut short by `max_cycles` on `GpuConfig::gddr6()`, tiny, seed 1:
/// (workload, scheme, `max_cycles`, `SimStats` digest, DRAM busy cycles
/// summed over channels). The cut lands while SMs are blocked and
/// slices hold queued requests, so every cycle up to the timeout counts.
const TIMED_OUT_PINS: [(&str, &str, u64, u64, u64); 3] = [
    ("spmv", "no-protection", 4_000, 0x60575f3f7f3022fa, 1676),
    ("spmv", "cachecraft", 4_000, 0x7864bb7081873ae9, 1778),
    ("bfs", "inline-naive", 20_000, 0xd5774187725ea488, 48088),
];

#[test]
fn timed_out_gddr6_runs_are_pinned() {
    let full = GpuConfig::gddr6();
    for (name, scheme, max_cycles, want, want_busy) in TIMED_OUT_PINS {
        let wl = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .expect("known workload");
        let kind = SchemeKind::headline(&full)
            .into_iter()
            .find(|k| k.name() == scheme)
            .expect("headline scheme");
        let cfg = GpuConfig { max_cycles, ..full };
        let out = run_scheme_profiled(
            &cfg,
            kind,
            &wl.generate(SizeClass::Tiny, 1),
            &TelemetryConfig::disabled(),
            None,
            true,
        );
        assert!(out.stats.timed_out, "{name}/{scheme} finished");
        assert_eq!(out.stats.cycles, max_cycles, "{name}/{scheme}");
        assert_eq!(digest(&out.stats), want, "{name}/{scheme}: stats drifted");
        let busy: u64 = out
            .profile
            .expect("profile attached")
            .channels
            .iter()
            .map(|c| c.busy_cycles)
            .sum();
        assert_eq!(busy, want_busy, "{name}/{scheme}: DRAM busy cycles drifted");
    }
}
