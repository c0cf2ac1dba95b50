//! `sim-full`: one-off full-size cells, as `ccx run --size full` runs
//! them. Six kernels x the four headline schemes on gddr6, serially on
//! one thread. The cycle loop does all of the work here.

use crate::digests::Digests;
use crate::util::{self, duplicate_shares, median, secs, thread_cpu_ns, Report};
use crate::Ctx;
use ccraft_core::factory::SchemeKind;
use ccraft_sim::config::GpuConfig;
use ccraft_sim::dram::MapOrder;
use ccraft_sim::protection::ProtectionScheme;
use ccraft_sim::stats::SimStats;
use ccraft_sim::trace::KernelTrace;
use ccraft_telemetry::profiler::SimProfile;
use ccraft_telemetry::TelemetryConfig;
use ccraft_workloads::{SizeClass, Workload};
use std::time::Instant;

/// Kernels dominated by L2 hits and streaming write-backs (the ECC
/// read-modify-write and reconstruction paths).
const REGULAR: [Workload; 3] = [Workload::Gemm, Workload::Stencil2D, Workload::Triad];
/// Low-locality kernels bound by the memory controller and DRAM, heavy
/// on ECC fetches.
const IRREGULAR: [Workload; 3] = [Workload::Spmv, Workload::Bfs, Workload::Histogram];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Passes over the cells per run, at least; more while they fit in
/// `--seconds`. Each cell's cost is its cheapest pass: other tenants of
/// the host slow it down by up to 1.7x, in bursts.
const MIN_PASSES: usize = 2;
/// Profiler components, as `SimProfile` names them; `other` also takes
/// the flush and idle-probe buckets.
const COMPONENTS: [&str; 7] = ["sm", "l1", "xbar", "l2", "mc", "dram", "other"];

struct Kernel {
    workload: Workload,
    regular: bool,
    trace: KernelTrace,
}

/// One cell's result and host cost.
struct Cell {
    kernel: usize,
    scheme: SchemeKind,
    stats: SimStats,
    cpu_ns: u64,
    wall_ns: u64,
    profile: Option<SimProfile>,
}

impl Cell {
    fn prof(&self) -> &SimProfile {
        self.profile
            .as_ref()
            .expect("profiled run returns a profile")
    }
}

fn kernels(seed: u64) -> Vec<Kernel> {
    REGULAR
        .iter()
        .map(|&w| (w, true))
        .chain(IRREGULAR.iter().map(|&w| (w, false)))
        .map(|(workload, regular)| Kernel {
            workload,
            regular,
            trace: workload.generate(SizeClass::Full, seed),
        })
        .collect()
}

/// One fresh (empty-cache) scheme instance per cell, kernel-major.
fn schemes(cfg: &GpuConfig, n_kernels: usize) -> Vec<Box<dyn ProtectionScheme>> {
    (0..n_kernels)
        .flat_map(|_| SchemeKind::headline(cfg).map(|k| k.build(cfg)))
        .collect()
}

/// Runs every cell once, serially, on the calling thread.
fn pass(
    cfg: &GpuConfig,
    ks: &[Kernel],
    mut built: Vec<Box<dyn ProtectionScheme>>,
    profile: bool,
) -> Vec<Cell> {
    let kinds = SchemeKind::headline(cfg);
    let mut cells = Vec::new();
    for (i, k) in ks.iter().enumerate() {
        for (j, &scheme) in kinds.iter().enumerate() {
            let s = built[i * kinds.len() + j].as_mut();
            let (cpu0, wall0) = (thread_cpu_ns(), Instant::now());
            let out = ccraft_sim::gpu::simulate_profiled(
                cfg,
                MapOrder::RoBaCo,
                &k.trace,
                s,
                &TelemetryConfig::disabled(),
                None,
                profile,
            );
            cells.push(Cell {
                kernel: i,
                scheme,
                stats: out.stats,
                cpu_ns: thread_cpu_ns() - cpu0,
                wall_ns: wall0.elapsed().as_nanos() as u64,
                profile: out.profile,
            });
        }
    }
    built.clear();
    cells
}

/// Host ns per simulated cycle over one class of cells, given each
/// cell's cost in ns.
fn ns_per_cycle(ks: &[Kernel], cells: &[Cell], regular: bool, cost_ns: &[u64]) -> f64 {
    let (mut ns, mut cycles) = (0, 0);
    for (c, cost) in cells.iter().zip(cost_ns) {
        if ks[c.kernel].regular == regular {
            ns += cost;
            cycles += c.stats.cycles;
        }
    }
    ns as f64 / cycles as f64
}

fn cell_name(ks: &[Kernel], c: &Cell) -> String {
    format!("{}/{}", ks[c.kernel].workload.name(), c.scheme.name())
}

pub fn run(ctx: &Ctx, digests: &mut Digests, rep: &mut Report) {
    let cfg = GpuConfig::gddr6();

    // Set-up: generate the traces and build the schemes, several times.
    let mut setup = Vec::new();
    let mut generate_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let cpu = thread_cpu_ns();
        let ks = kernels(ctx.seed);
        generate_ms.push((thread_cpu_ns() - cpu) as f64 / 1e6);
        let built = schemes(&cfg, ks.len());
        setup.push((thread_cpu_ns() - cpu) as f64 / 1e9);
        prepared = Some((ks, built));
    }
    let (ks, built) = prepared.expect("at least one set-up");
    rep.e2e("setup_s", median(&setup), "s");

    // Whole passes while the next one still fits in the run's budget.
    let t = Instant::now();
    let mut passes = vec![pass(&cfg, &ks, built, false)];
    while passes.len() < MIN_PASSES
        || secs(t) * (passes.len() + 1) as f64 / passes.len() as f64 <= ctx.seconds
    {
        passes.push(pass(&cfg, &ks, schemes(&cfg, ks.len()), false));
    }
    let first = &passes[0];

    // Oracle: committed digests at the default seed, and invariants that
    // hold on any seed.
    for c in first {
        let name = cell_name(&ks, c);
        digests.check(
            rep,
            &format!("sim-full/{name}"),
            &util::digest_stats(&c.stats),
        );
        rep.check(!c.stats.timed_out, || format!("{name} timed out"));
        if c.scheme == SchemeKind::NoProtection {
            let ecc = util::ecc_transactions(&c.stats);
            rep.check(ecc == 0, || format!("{name}: {ecc} ECC DRAM transactions"));
        }
    }
    digests.finish(rep, "sim-full/", |_| true);
    for (i, p) in passes.iter().enumerate().skip(1) {
        for (a, b) in first.iter().zip(p) {
            rep.check(a.stats == b.stats, || {
                format!("{} differs in pass {i}", cell_name(&ks, a))
            });
        }
    }

    // Each cell's cost in its cheapest pass.
    let cheapest = |cost: fn(&Cell) -> u64| -> Vec<u64> {
        (0..first.len())
            .map(|i| passes.iter().map(|p| cost(&p[i])).min().unwrap_or(0))
            .collect()
    };
    let (cpu_ns, wall_ns) = (cheapest(|c| c.cpu_ns), cheapest(|c| c.wall_ns));
    rep.e2e("work_s", cpu_ns.iter().sum::<u64>() as f64 / 1e9, "s");
    rep.figure("passes", passes.len() as f64, "count");
    for (regular, class) in [(true, "regular"), (false, "irregular")] {
        rep.figure(
            &format!("host_ns_per_cycle.{class}"),
            ns_per_cycle(&ks, first, regular, &cpu_ns),
            "ns/cycle",
        );
        rep.figure(
            &format!("host_wall_ns_per_cycle.{class}"),
            ns_per_cycle(&ks, first, regular, &wall_ns),
            "ns/cycle",
        );
    }

    // Simulated results (unvalidated model; no error figure exists).
    let by_scheme = |kind: &str| -> Vec<&SimStats> {
        first
            .iter()
            .filter(|c| c.scheme.name() == kind)
            .map(|c| &c.stats)
            .collect()
    };
    let (cc, np) = (by_scheme("cachecraft"), by_scheme("no-protection"));
    let log_sum: f64 = cc
        .iter()
        .zip(&np)
        .map(|(c, n)| (c.ipc() / n.ipc()).ln())
        .sum();
    rep.figure(
        "sim_cc_norm_perf",
        (log_sum / cc.len() as f64).exp(),
        "ratio",
    );
    let ecc: u64 = cc.iter().map(|s| util::ecc_transactions(s)).sum();
    let total: u64 = cc.iter().map(|s| s.dram.iter().sum::<u64>()).sum();
    rep.figure(
        "sim_cc_ecc_traffic_pct",
        100.0 * ecc as f64 / total as f64,
        "%",
    );

    let peak = util::peak_rss_mib("self");
    rep.e2e("peak_rss_mb", peak, "MiB");

    if !ctx.trace {
        return;
    }
    // Traced: the same cells under the profiler, which must not change
    // any statistic.
    let traced = pass(&cfg, &ks, schemes(&cfg, ks.len()), true);
    for (a, b) in first.iter().zip(&traced) {
        rep.check(a.stats == b.stats, || {
            format!("{}: profiled stats differ", cell_name(&ks, a))
        });
    }
    let untraced_cpu = first.iter().map(|c| c.cpu_ns).sum::<u64>() as f64;
    let traced_cpu = traced.iter().map(|c| c.cpu_ns).sum::<u64>() as f64;
    rep.layer(
        "telemetry.profile_overhead_pct",
        100.0 * (traced_cpu - untraced_cpu) / untraced_cpu,
        "%",
    );
    for comp in COMPONENTS {
        let ns: Vec<u64> = traced
            .iter()
            .map(|c| match comp {
                "other" => ["other", "flush", "idle_probe"]
                    .iter()
                    .map(|n| c.prof().component_ns(n))
                    .sum(),
                _ => c.prof().component_ns(comp),
            })
            .collect();
        for (regular, class) in [(true, "regular"), (false, "irregular")] {
            rep.layer(
                &format!("sim.{comp}_ns_per_cycle.{class}"),
                ns_per_cycle(&ks, &traced, regular, &ns),
                "ns/cycle",
            );
        }
    }
    let (mut sleep, mut scan) = (
        ccraft_telemetry::profiler::MemoStats::default(),
        ccraft_telemetry::profiler::MemoStats::default(),
    );
    let (mut skipped, mut cycles) = (0u64, 0u64);
    for c in &traced {
        let p = c.prof();
        sleep.merge(&p.sm_sleep);
        scan.merge(&p.scan_memo);
        skipped += p.idle_cycles_skipped;
        cycles += c.stats.cycles;
    }
    rep.layer("sim.sleep_memo_hit", sleep.hit_rate(), "ratio");
    rep.layer("sim.scan_memo_hit", scan.hit_rate(), "ratio");
    rep.layer(
        "sim.idle_skip_frac",
        skipped as f64 / cycles as f64,
        "ratio",
    );
    rep.layer("sim.mcycles_simulated", cycles as f64 / 1e6, "Mcycles");
    rep.layer("workloads.generate_ms", median(&generate_ms), "ms");
    rep.layer(
        "workloads.accesses",
        ks.iter().map(|k| k.trace.total_accesses()).sum::<u64>() as f64,
        "count",
    );

    // Modelled counters of the cachecraft cells: they move the simulated
    // figures and no host metric.
    let sum = |f: &dyn Fn(&SimStats) -> u64| cc.iter().map(|s| f(s)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let l1_hits = sum(&|s| s.l1_read_hits);
    rep.layer(
        "l1.hit_rate",
        ratio(l1_hits, l1_hits + sum(&|s| s.l1_read_misses)),
        "ratio",
    );
    let l2_hits = sum(&|s| s.l2_read_hits);
    rep.layer(
        "l2.hit_rate",
        ratio(l2_hits, l2_hits + sum(&|s| s.l2_read_misses)),
        "ratio",
    );
    let rows = sum(&|s| s.row_hits + s.row_empties + s.row_conflicts);
    rep.layer(
        "dram.row_hit_rate",
        ratio(sum(&|s| s.row_hits), rows),
        "ratio",
    );
    rep.layer(
        "dram.ecc_traffic_frac",
        ratio(ecc as f64, total as f64),
        "ratio",
    );
    let fetch_hits = sum(&|s| s.protection.ecc_fetch_hits);
    rep.layer(
        "core.ecc_fetch_hit_rate",
        ratio(
            fetch_hits,
            fetch_hits + sum(&|s| s.protection.ecc_demand_fetches),
        ),
        "ratio",
    );
    rep.layer(
        "core.fragment_store_hits",
        sum(&|s| s.protection.fragment_store_hits),
        "count",
    );
    rep.layer(
        "core.rmw_writebacks",
        sum(&|s| s.protection.rmw_writebacks),
        "count",
    );

    let all: Vec<&SimStats> = first.iter().map(|c| &c.stats).collect();
    let (dup_cells, dup_cycles) = duplicate_shares(&all);
    rep.layer("harness.duplicate_cell_frac", dup_cells, "ratio");
    rep.layer("harness.duplicate_cycle_frac", dup_cycles, "ratio");

    crate::layers::run(rep);
}
