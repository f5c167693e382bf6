//! Whole-cluster statistics report.
//!
//! Gathers the low-level counters every component already keeps — cache
//! and TLB hit ratios, DRAM page behaviour, link utilization and credit
//! stalls, disk seeks, buffer-file occupancy, ATB traffic — into one
//! structured snapshot, so a run can be *explained*, not just timed.
//! (The paper's analyses lean on exactly these quantities: "the cache
//! stall time comprises a significant part of the total execution time —
//! 27.6% for the normal+pref case".)

use std::fmt;

use asan_net::NodeId;
use asan_sim::faults::{fnv1a_fold, FaultStats};

/// Cache counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheSnapshot {
    /// Demand accesses.
    pub accesses: u64,
    /// Misses among them.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheSnapshot {
    /// Miss ratio (0 if never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One CPU's memory-system behaviour.
#[derive(Debug, Clone, Default)]
pub struct CpuSnapshot {
    /// Instructions retired.
    pub instructions: u64,
    /// L1 data cache.
    pub l1d: CacheSnapshot,
    /// L1 instruction cache.
    pub l1i: CacheSnapshot,
    /// Unified L2, if present.
    pub l2: Option<CacheSnapshot>,
    /// DRAM page hits/misses behind this CPU.
    pub dram_page_hits: u64,
    /// DRAM row activations.
    pub dram_page_misses: u64,
}

/// One host's statistics.
#[derive(Debug, Clone)]
pub struct HostSnapshot {
    /// Node ID.
    pub node: NodeId,
    /// CPU + memory counters.
    pub cpu: CpuSnapshot,
    /// Messages sent / received through the HCA.
    pub hca_sends: u64,
    /// Completions consumed.
    pub hca_recvs: u64,
}

/// One active switch's statistics.
#[derive(Debug, Clone)]
pub struct SwitchSnapshot {
    /// Node ID.
    pub node: NodeId,
    /// Handler invocations dispatched.
    pub invocations: u64,
    /// Active payload bytes in / out.
    pub bytes_in: u64,
    /// Bytes emitted by handlers.
    pub bytes_out: u64,
    /// Buffer-file allocations and how many had to wait.
    pub buffer_allocs: u64,
    /// Allocations that waited for a release.
    pub buffer_waits: u64,
    /// Peak buffers in flight.
    pub buffer_peak: u64,
    /// ATB translations that hit.
    pub atb_hits: u64,
    /// ATB misses (unmapped addresses probed).
    pub atb_misses: u64,
    /// Per-CPU memory counters.
    pub cpus: Vec<CpuSnapshot>,
}

/// One storage array's statistics.
#[derive(Debug, Clone)]
pub struct StorageSnapshot {
    /// TCA node ID.
    pub node: NodeId,
    /// Bytes read/written per disk.
    pub disk_bytes: Vec<u64>,
    /// Seeks per disk.
    pub disk_seeks: Vec<u64>,
    /// SCSI bursts carried.
    pub bus_bursts: u64,
    /// SCSI bytes carried.
    pub bus_bytes: u64,
}

/// Fabric-level statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricSnapshot {
    /// Total bytes carried summed over every link hop.
    pub link_bytes: u64,
    /// Sends that stalled for a credit.
    pub credit_stalls: u64,
}

/// The full cluster snapshot.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-host entries.
    pub hosts: Vec<HostSnapshot>,
    /// Per-switch entries.
    pub switches: Vec<SwitchSnapshot>,
    /// Per-storage-array entries.
    pub storage: Vec<StorageSnapshot>,
    /// Fabric totals.
    pub fabric: FabricSnapshot,
    /// Fault-injection counters (all zero when no plan was armed).
    pub faults: FaultStats,
    /// Events the simulation processed.
    pub events: u64,
}

impl ClusterStats {
    /// FNV-1a digest over every counter in a fixed canonical order.
    /// Two runs with the same seed and fault plan must produce
    /// identical digests — the CI determinism check compares exactly
    /// this value.
    pub fn digest(&self) -> u64 {
        let ClusterStats {
            hosts,
            switches,
            storage,
            fabric,
            faults,
            events,
        } = self;
        let fold = |h: u64, vs: &[u64]| vs.iter().fold(h, |h, &v| fnv1a_fold(h, v));
        let fold_cpu = |h: u64, c: &CpuSnapshot| {
            let CpuSnapshot {
                instructions,
                l1d,
                l1i,
                l2,
                dram_page_hits,
                dram_page_misses,
            } = c;
            let mut h = fnv1a_fold(h, *instructions);
            for s in [l1d, l1i].into_iter().chain(l2.as_ref()) {
                let CacheSnapshot {
                    accesses,
                    misses,
                    writebacks,
                } = *s;
                h = fold(h, &[accesses, misses, writebacks]);
            }
            fold(h, &[*dram_page_hits, *dram_page_misses])
        };
        let mut h = fnv1a_fold(0xcbf2_9ce4_8422_2325, *events);
        for HostSnapshot {
            node,
            cpu,
            hca_sends,
            hca_recvs,
        } in hosts
        {
            h = fnv1a_fold(h, u64::from(node.0));
            h = fold_cpu(h, cpu);
            h = fold(h, &[*hca_sends, *hca_recvs]);
        }
        for SwitchSnapshot {
            node,
            invocations,
            bytes_in,
            bytes_out,
            buffer_allocs,
            buffer_waits,
            buffer_peak,
            atb_hits,
            atb_misses,
            cpus,
        } in switches
        {
            h = fold(
                h,
                &[
                    u64::from(node.0),
                    *invocations,
                    *bytes_in,
                    *bytes_out,
                    *buffer_allocs,
                    *buffer_waits,
                    *buffer_peak,
                    *atb_hits,
                    *atb_misses,
                ],
            );
            for c in cpus {
                h = fold_cpu(h, c);
            }
        }
        for StorageSnapshot {
            node,
            disk_bytes,
            disk_seeks,
            bus_bursts,
            bus_bytes,
        } in storage
        {
            h = fnv1a_fold(h, u64::from(node.0));
            h = fold(h, disk_bytes);
            h = fold(h, disk_seeks);
            h = fold(h, &[*bus_bursts, *bus_bytes]);
        }
        let FabricSnapshot {
            link_bytes,
            credit_stalls,
        } = *fabric;
        h = fold(h, &[link_bytes, credit_stalls]);
        fnv1a_fold(h, faults.digest())
    }
}

impl fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cluster statistics ({} events)", self.events)?;
        for h in &self.hosts {
            writeln!(
                f,
                "  host {}: {} instr | L1D miss {:.2}% | L2 miss {:.2}% | DRAM page-hit {:.1}% | HCA {}tx/{}rx",
                h.node,
                h.cpu.instructions,
                h.cpu.l1d.miss_ratio() * 100.0,
                h.cpu.l2.map_or(0.0, |l2| l2.miss_ratio() * 100.0),
                page_hit_pct(&h.cpu),
                h.hca_sends,
                h.hca_recvs,
            )?;
        }
        for s in &self.switches {
            writeln!(
                f,
                "  switch {}: {} invocations | {} B in / {} B out | buffers peak {} ({} waits/{} allocs) | ATB {}h/{}m",
                s.node,
                s.invocations,
                s.bytes_in,
                s.bytes_out,
                s.buffer_peak,
                s.buffer_waits,
                s.buffer_allocs,
                s.atb_hits,
                s.atb_misses,
            )?;
            for (i, c) in s.cpus.iter().enumerate() {
                writeln!(
                    f,
                    "    sp{}: {} instr | D$ miss {:.2}% | I$ miss {:.2}%",
                    i,
                    c.instructions,
                    c.l1d.miss_ratio() * 100.0,
                    c.l1i.miss_ratio() * 100.0,
                )?;
            }
        }
        for st in &self.storage {
            writeln!(
                f,
                "  storage {}: disks {:?} B ({:?} seeks) | bus {} bursts / {} B",
                st.node, st.disk_bytes, st.disk_seeks, st.bus_bursts, st.bus_bytes,
            )?;
        }
        writeln!(
            f,
            "  fabric: {} B over links, {} credit stalls",
            self.fabric.link_bytes, self.fabric.credit_stalls
        )?;
        write!(f, "  faults: {}", self.faults)
    }
}

/// Snapshots one cache level's counters.
pub(crate) fn snap_cache(c: &asan_mem::Cache) -> CacheSnapshot {
    CacheSnapshot {
        accesses: c.stats().accesses(),
        misses: c.stats().misses.get(),
        writebacks: c.stats().writebacks.get(),
    }
}

/// Snapshots one CPU's memory-system counters.
pub(crate) fn snap_cpu(cpu: &asan_cpu::Cpu) -> CpuSnapshot {
    let m = cpu.memory();
    CpuSnapshot {
        instructions: cpu.instructions(),
        l1d: snap_cache(m.l1d()),
        l1i: snap_cache(m.l1i()),
        l2: m.l2().map(snap_cache),
        dram_page_hits: m.dram().stats().page_hits.get(),
        dram_page_misses: m.dram().stats().page_misses.get(),
    }
}

fn page_hit_pct(c: &CpuSnapshot) -> f64 {
    let total = c.dram_page_hits + c.dram_page_misses;
    if total == 0 {
        0.0
    } else {
        c.dram_page_hits as f64 / total as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_zero() {
        assert_eq!(CacheSnapshot::default().miss_ratio(), 0.0);
        let c = CacheSnapshot {
            accesses: 4,
            misses: 1,
            writebacks: 0,
        };
        assert!((c.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_renders_all_sections() {
        let stats = ClusterStats {
            hosts: vec![HostSnapshot {
                node: NodeId(1),
                cpu: CpuSnapshot {
                    instructions: 100,
                    l1d: CacheSnapshot {
                        accesses: 10,
                        misses: 5,
                        writebacks: 1,
                    },
                    l1i: CacheSnapshot::default(),
                    l2: Some(CacheSnapshot {
                        accesses: 5,
                        misses: 1,
                        writebacks: 0,
                    }),
                    dram_page_hits: 3,
                    dram_page_misses: 1,
                },
                hca_sends: 2,
                hca_recvs: 3,
            }],
            switches: vec![SwitchSnapshot {
                node: NodeId(0),
                invocations: 7,
                bytes_in: 512,
                bytes_out: 256,
                buffer_allocs: 9,
                buffer_waits: 1,
                buffer_peak: 3,
                atb_hits: 20,
                atb_misses: 2,
                cpus: vec![CpuSnapshot::default()],
            }],
            storage: vec![StorageSnapshot {
                node: NodeId(2),
                disk_bytes: vec![100, 200],
                disk_seeks: vec![1, 0],
                bus_bursts: 4,
                bus_bytes: 300,
            }],
            fabric: FabricSnapshot {
                link_bytes: 1024,
                credit_stalls: 0,
            },
            faults: FaultStats::default(),
            events: 42,
        };
        let text = stats.to_string();
        for needle in [
            "42 events",
            "host n1",
            "L1D miss 50.00%",
            "switch n0: 7 invocations",
            "storage n2",
            "1024 B over links",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
