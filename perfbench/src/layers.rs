//! Sim component microdrivers: each component is driven alone through
//! its public push/tick/pop API, as a cross-check on the profiler's
//! per-component split of `sim-full`.

use crate::util::{median, Report};
use ccraft_sim::config::GpuConfig;
use ccraft_sim::dram::{DramChannel, MapOrder};
use ccraft_sim::l1::{L1Access, L1Cache};
use ccraft_sim::l2::L2Slice;
use ccraft_sim::mem_ctrl::{DramRequest, DramTag, MemCtrl};
use ccraft_sim::msg::{L2Request, L2Response};
use ccraft_sim::protection::{ChannelInterleave, NoProtection};
use ccraft_sim::types::{AccessKind, Cycle, LogicalAtom, PhysLoc, SmId, TrafficClass};
use ccraft_sim::xbar::Crossbar;
use std::hint::black_box;
use std::time::Instant;

/// Operations per timed repetition.
const OPS: u64 = 20_000;
/// Timed repetitions per driver; the median is reported.
const REPS: usize = 5;

/// Median host ns per operation of `drive`, which performs `OPS`
/// operations and returns a value kept alive against dead-code removal.
fn ns_per_op(mut drive: impl FnMut() -> u64) -> f64 {
    black_box(drive());
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(drive());
            t.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&runs)
}

/// Reads over a footprint that fits the L1, so steady state is the
/// hit path; the few misses are answered on the next cycle.
fn l1_probes(cfg: &GpuConfig) -> u64 {
    let mut l1 = L1Cache::new(SmId(0), &cfg.l1);
    let footprint = cfg.l1.capacity_bytes / 64;
    let mut pending: Vec<L2Request> = Vec::new();
    let (mut pushed, mut done, mut now): (u64, u64, Cycle) = (0, 0, 0);
    while done < OPS {
        while pushed < OPS && l1.can_accept() {
            l1.push(L1Access {
                warp: (pushed % 32) as u16,
                atom: LogicalAtom((pushed * 7) % footprint),
                kind: AccessKind::Read,
            });
            pushed += 1;
        }
        for req in pending.drain(..) {
            l1.accept_response(L2Response {
                loc: req.loc,
                dest: req.src,
                l1_mshr: req.l1_mshr,
            });
        }
        l1.tick(
            now,
            &mut |a: LogicalAtom| PhysLoc::new(0, a.0),
            &mut |req| {
                pending.push(req);
                true
            },
        );
        done += l1.drain_completions().count() as u64;
        now += 1;
    }
    now
}

/// Every SM sends one request per cycle to a rotating slice; each slice
/// bounces what it receives straight back as a response. A hop is one
/// delivered request or response.
fn xbar_hops(cfg: &GpuConfig) -> u64 {
    let (sms, slices) = (cfg.core.sms, cfg.mem.channels);
    let mut xbar = Crossbar::new(&cfg.xbar, sms, slices);
    let mut delivered = Vec::new();
    let mut arrived: Vec<L2Request> = Vec::new();
    let (mut hops, mut sent, mut now): (u64, u64, Cycle) = (0, 0, 0);
    while hops < OPS {
        for sm in 0..sms {
            let req = L2Request {
                loc: PhysLoc::new(((sent + u64::from(sm)) % u64::from(slices)) as u16, sent),
                kind: AccessKind::Read,
                src: SmId(sm),
                l1_mshr: 0,
            };
            if xbar.try_send_request(req, now) {
                sent += 1;
            }
        }
        for slice in 0..slices {
            xbar.deliver_requests(slice, now, &mut |req| {
                arrived.push(req);
                true
            });
        }
        for req in arrived.drain(..) {
            hops += 1;
            xbar.send_response(
                L2Response {
                    loc: req.loc,
                    dest: req.src,
                    l1_mshr: req.l1_mshr,
                },
                now,
            );
        }
        for sm in 0..sms {
            xbar.deliver_responses_into(sm, now, &mut delivered);
            hops += delivered.len() as u64;
        }
        now += 1;
    }
    now
}

/// Reads through one L2 slice. `footprint` small: after the first pass
/// every read hits. `footprint` zero: every read touches a new line, so
/// each access takes the miss path through the slice's MC and DRAM.
fn l2_accesses(cfg: &GpuConfig, footprint: u64) -> u64 {
    let mut scheme = NoProtection::new(ChannelInterleave::new(
        cfg.mem.channels,
        cfg.mem.interleave_atoms,
    ));
    let mut slice = L2Slice::new(cfg, 0, MapOrder::RoBaCo, 0);
    let mut resp = Vec::new();
    let (mut pushed, mut got, mut now): (u64, u64, Cycle) = (0, 0, 0);
    while got < OPS {
        while pushed < OPS && slice.can_accept() {
            let atom = if footprint == 0 {
                pushed * 4
            } else {
                pushed % footprint
            };
            slice.push(L2Request {
                loc: PhysLoc::new(0, atom),
                kind: AccessKind::Read,
                src: SmId(0),
                l1_mshr: 0,
            });
            pushed += 1;
        }
        slice.tick(&mut scheme, now);
        slice.pop_responses_into(now, &mut resp);
        got += resp.len() as u64;
        now += 1;
    }
    now
}

/// Row-hit / row-conflict mix for the DRAM-side drivers: even requests
/// stream through a row, odd ones jump by a large stride.
fn mixed_atom(i: u64) -> u64 {
    if i.is_multiple_of(2) {
        i / 2
    } else {
        (i / 2) * 977 % (OPS * 8)
    }
}

/// FR-FCFS scheduling of a mixed row-hit / conflict read stream.
fn mc_requests(cfg: &GpuConfig) -> u64 {
    let mut mc = MemCtrl::new(&cfg.mem, MapOrder::RoBaCo);
    let (mut pushed, mut done, mut now): (u64, u64, Cycle) = (0, 0, 0);
    while done < OPS {
        while pushed < OPS && mc.can_accept_read() {
            mc.push(
                DramRequest {
                    atom: mixed_atom(pushed),
                    class: TrafficClass::DataRead,
                    tag: DramTag::DemandData { mshr: 0 },
                },
                now,
            );
            pushed += 1;
        }
        mc.tick(now);
        done += mc.pop_completions(now).len() as u64;
        now += 1;
    }
    now
}

/// Bank and bus timing checks plus state commit, in arrival order.
fn dram_commits(cfg: &GpuConfig) -> u64 {
    let mut ch = DramChannel::new(&cfg.mem, MapOrder::RoBaCo);
    let (mut committed, mut now): (u64, Cycle) = (0, 0);
    while committed < OPS {
        ch.tick_refresh(now);
        if ch.try_issue(mixed_atom(committed), false, now).is_some() {
            committed += 1;
        } else {
            now += 1;
        }
    }
    now
}

/// Runs every microdriver on the `sim-full` machine.
pub fn run(rep: &mut Report) {
    let cfg = GpuConfig::gddr6();
    rep.layer("l1.ns_per_probe", ns_per_op(|| l1_probes(&cfg)), "ns");
    rep.layer("xbar.ns_per_hop", ns_per_op(|| xbar_hops(&cfg)), "ns");
    rep.layer(
        "l2.ns_per_access.hit",
        ns_per_op(|| l2_accesses(&cfg, 256)),
        "ns",
    );
    rep.layer(
        "l2.ns_per_access.miss",
        ns_per_op(|| l2_accesses(&cfg, 0)),
        "ns",
    );
    rep.layer(
        "mem_ctrl.ns_per_request",
        ns_per_op(|| mc_requests(&cfg)),
        "ns",
    );
    rep.layer("dram.ns_per_commit", ns_per_op(|| dram_commits(&cfg)), "ns");
}
