//! Isolated per-operation probes of the layers the workloads lean on,
//! called through their public APIs at the sizes the workloads use.
//! Each probe times a batch of operations several times and reports
//! the median cost of one operation.

use std::hint::black_box;

use asan_apps::dfa::LiteralDfa;
use asan_apps::md5::md5;
use asan_mem::{AccessKind, Cache, CacheConfig, HierarchyConfig, MemoryHierarchy};
use asan_net::packet::crc32;
use asan_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::stats::Summary;

/// Spread of the event-time deltas the queue probes push: a bit past
/// the calendar queue's 67 µs ring, so some events take the overflow
/// path as they do in the simulations.
const QUEUE_HORIZON_PS: u64 = 100_000_000;

/// Runs every probe; returns `(metric name, nanoseconds per operation)`.
/// `small` cuts the repetitions for quick runs.
pub fn run_all(clock: &dyn Fn() -> f64, seed: u64, small: bool) -> Vec<(&'static str, f64)> {
    let reps = if small { 3 } else { 15 };
    let mut rng = SimRng::from_seed(seed);
    let mut bytes = vec![0u8; 64 * 1024];
    rng.fill_bytes(&mut bytes);
    let kb = (bytes.len() / 1024) as u64;
    let dfa = LiteralDfa::new(b"Big Red Bear");

    let mut out = Vec::new();
    for (name, depth) in [
        ("sim.queue.ns_per_op.d128", 128),
        ("sim.queue.ns_per_op.d8192", 8192),
    ] {
        let mut hold = queue_hold(depth, seed);
        out.push((name, per_op(clock, reps, 16_384, &mut hold)));
    }
    out.push((
        "mem.cache.ns_per_access",
        per_op(clock, reps, 16_384, &mut cache_probe(seed)),
    ));
    out.push((
        "mem.hierarchy.ns_per_load",
        per_op(clock, reps, 4096, &mut hierarchy_probe()),
    ));
    out.push((
        "net.crc32.ns_per_kb",
        per_op(clock, reps, kb, &mut || u64::from(crc32(0, &bytes))),
    ));
    out.push((
        "apps.dfa.ns_per_kb",
        per_op(clock, reps, kb, &mut || dfa.count(&bytes) as u64),
    ));
    out.push((
        "apps.md5.ns_per_kb",
        per_op(clock, reps, kb, &mut || u64::from(md5(&bytes)[0])),
    ));
    out.push((
        "sim.rng.ns_per_draw",
        per_op(clock, reps, 65_536, &mut || {
            (0..65_536).fold(0u64, |acc, _| acc ^ rng.next_u64())
        }),
    ));
    out
}

/// Median nanoseconds per operation of `batch`, which performs `ops`
/// operations per call; one untimed call warms caches first.
fn per_op(clock: &dyn Fn() -> f64, reps: usize, ops: u64, batch: &mut dyn FnMut() -> u64) -> f64 {
    black_box(batch());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = clock();
            black_box(batch());
            (clock() - t0) * 1e9 / ops as f64
        })
        .collect();
    Summary::of(&samples).median
}

/// A queue holding `depth` events; each batch call pops the earliest
/// and pushes a successor 16 384 times, so the depth stays constant.
fn queue_hold(depth: usize, seed: u64) -> impl FnMut() -> u64 {
    let mut rng = SimRng::from_seed(seed ^ depth as u64);
    let mut q = EventQueue::new();
    for i in 0..depth as u64 {
        q.push(
            SimTime::ZERO + SimDuration::from_ps(rng.below(QUEUE_HORIZON_PS)),
            i,
        );
    }
    move || {
        let mut acc = 0u64;
        for _ in 0..16_384 {
            let (t, v) = q.pop().expect("the queue always holds `depth` events");
            acc ^= v;
            q.push(t + SimDuration::from_ps(1 + rng.below(QUEUE_HORIZON_PS)), v);
        }
        acc
    }
}

/// Reads over a working set twice the host L1D, so accesses mix hits
/// and misses.
fn cache_probe(seed: u64) -> impl FnMut() -> u64 {
    let cfg = CacheConfig::host_l1d();
    let span = 2 * cfg.size_bytes;
    let mut cache = Cache::new(cfg);
    let mut rng = SimRng::from_seed(seed);
    let addrs: Vec<u64> = (0..16_384).map(|_| rng.below(span) & !7).collect();
    move || {
        addrs
            .iter()
            .filter(|&&a| cache.access(a, AccessKind::Read).hit)
            .count() as u64
    }
}

/// Streaming loads through the host hierarchy (L1, L2, TLB, DRAM).
fn hierarchy_probe() -> impl FnMut() -> u64 {
    let mut m = MemoryHierarchy::new(HierarchyConfig::host());
    let mut now = SimTime::ZERO;
    let mut addr = 0u64;
    move || {
        let mut stall = 0u64;
        for _ in 0..4096 {
            let out = m.load(addr, now);
            stall += out.stall.as_ps();
            addr += 64;
            now = now + out.stall + SimDuration::from_ns(1);
        }
        stall
    }
}
