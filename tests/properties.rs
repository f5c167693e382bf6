//! Property-style tests on the simulator's core data structures and the
//! benchmarks' algorithmic kernels.
//!
//! Each property runs against a deterministic sweep of randomized
//! inputs drawn from the simulator's own seeded [`SimRng`] — no
//! external property-testing dependency, same reproducibility: a
//! failure prints the case index, and re-running replays the identical
//! sequence.

use std::collections::{BTreeMap, BTreeSet};

use asan_apps::data;
use asan_apps::dfa::LiteralDfa;
use asan_apps::md5::{md5, md5_interleaved, Md5};
use asan_core::atb::Atb;
use asan_core::buffer::{BufId, DataBuffer, LINE_BYTES};
use asan_mem::cache::{AccessKind, Cache, CacheConfig};
use asan_net::{packetize, reassemble, HandlerId, Header, NodeId, ReassembleError, MTU};
use asan_sim::{EventQueue, SimRng, SimTime};

/// Runs `body` over `cases` deterministic cases seeded from `label`.
fn sweep(label: &str, cases: usize, mut body: impl FnMut(usize, &mut SimRng)) {
    for case in 0..cases {
        let mut rng = SimRng::from_seed(
            SimRng::from_label(label).next_u64()
                ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        body(case, &mut rng);
    }
}

fn random_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let mut v = vec![0u8; rng.below(max_len as u64 + 1) as usize];
    rng.fill_bytes(&mut v);
    v
}

/// The event queue is a stable priority queue: popping yields times in
/// non-decreasing order, FIFO among equal times.
#[test]
fn event_queue_is_stable_priority_queue() {
    sweep("event-queue", 50, |case, rng| {
        let n = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, (orig, idx))) = q.pop() {
            assert_eq!(t, SimTime::from_ns(orig), "case {case}");
            if let Some((lt, lidx)) = last {
                assert!(t >= lt, "case {case}");
                if t == lt {
                    assert!(idx > lidx, "case {case}: FIFO violated among equal times");
                }
            }
            last = Some((t, idx));
        }
    });
}

/// A cache never reports a hit for a line it has not seen, and always
/// hits a line just accessed (temporal safety of LRU).
#[test]
fn cache_hit_iff_recently_resident() {
    sweep("cache-hit", 30, |case, rng| {
        let n = rng.range(1, 500) as usize;
        let mut c = Cache::new(CacheConfig {
            name: "prop",
            size_bytes: 1024,
            line_bytes: 32,
            assoc: 2,
        });
        let mut ever: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..n {
            let a = rng.below(1 << 16);
            let line = a / 32;
            let out = c.access(a, AccessKind::Read);
            if out.hit {
                assert!(ever.contains(&line), "case {case}: hit on never-seen line");
            }
            ever.insert(line);
            // Immediate re-access must hit.
            assert!(c.access(a, AccessKind::Read).hit, "case {case}");
        }
    });
}

/// Write-back integrity: every dirty line is either resident or was
/// reported as a writeback exactly once.
#[test]
fn cache_never_loses_dirty_lines() {
    sweep("cache-dirty", 30, |case, rng| {
        let n = rng.range(1, 500) as usize;
        let mut c = Cache::new(CacheConfig {
            name: "prop",
            size_bytes: 512,
            line_bytes: 32,
            assoc: 2,
        });
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..n {
            let a = rng.below(1 << 14);
            let line_base = a / 32 * 32;
            let out = c.access(a, AccessKind::Write);
            if let Some(wb) = out.writeback {
                assert!(
                    dirty.remove(&wb),
                    "case {case}: write-back of non-dirty line {wb:#x}"
                );
            }
            dirty.insert(line_base);
        }
        // Every remaining dirty line must still be resident.
        for &d in &dirty {
            assert!(c.probe(d), "case {case}: dirty line {d:#x} vanished");
        }
    });
}

/// Packetize ∘ reassemble is the identity for any payload.
#[test]
fn packetize_reassemble_roundtrip() {
    sweep("roundtrip", 50, |case, rng| {
        let data = random_bytes(rng, 5000);
        let pkts = packetize(NodeId(1), NodeId(2), Some(HandlerId::new(7)), 0x1000, &data);
        let back = reassemble(&pkts).expect("in order");
        assert_eq!(back, data, "case {case}");
    });
}

/// Any single flipped payload bit breaks the packet's ICRC, and the
/// flow is rejected as `Corrupt` — never silently reassembled.
#[test]
fn corrupted_packet_never_silently_reassembled() {
    sweep("icrc-corrupt", 60, |case, rng| {
        let mut data = random_bytes(rng, 4 * MTU);
        if data.is_empty() {
            data.push(rng.next_u64() as u8);
        }
        let mut pkts = packetize(NodeId(1), NodeId(2), None, 0, &data);
        let victim = rng.below(pkts.len() as u64) as usize;
        let bit = rng.next_u64() as usize;
        pkts[victim].corrupt_payload_bit(bit);
        assert!(!pkts[victim].icrc_ok(), "case {case}: flip not detected");
        assert_eq!(
            reassemble(&pkts),
            Err(ReassembleError::Corrupt(victim as u32)),
            "case {case}: corruption must surface, not concatenate"
        );
    });
}

/// A dropped packet leaves a sequence gap that reassembly reports as
/// out-of-order at exactly the first missing position.
#[test]
fn dropped_packet_detected_as_sequence_gap() {
    sweep("icrc-drop", 40, |case, rng| {
        let len = rng.range(2, 6) as usize * MTU;
        let data = {
            let mut v = vec![0u8; len];
            rng.fill_bytes(&mut v);
            v
        };
        let mut pkts = packetize(NodeId(1), NodeId(2), None, 0, &data);
        let victim = rng.below(pkts.len() as u64 - 1) as usize; // keep ≥2
        pkts.remove(victim);
        let err = reassemble(&pkts).unwrap_err();
        assert_eq!(
            err,
            ReassembleError::OutOfOrder(victim as u32 + 1),
            "case {case}: gap at {victim} not reported"
        );
    });
}

/// A duplicated packet breaks the sequence and is rejected — the
/// receiver never double-counts a stripe.
#[test]
fn duplicated_packet_detected() {
    sweep("icrc-dup", 40, |case, rng| {
        let len = rng.range(2, 6) as usize * MTU;
        let data = {
            let mut v = vec![0u8; len];
            rng.fill_bytes(&mut v);
            v
        };
        let mut pkts = packetize(NodeId(1), NodeId(2), None, 0, &data);
        let victim = rng.below(pkts.len() as u64) as usize;
        let dup = pkts[victim].clone();
        pkts.insert(victim, dup);
        assert!(
            matches!(reassemble(&pkts), Err(ReassembleError::OutOfOrder(_))),
            "case {case}: duplicate silently accepted"
        );
    });
}

/// Corrupting any single byte of a packet's wire image changes the
/// CRC32 over it (error detection at the wire level).
#[test]
fn wire_image_crc_catches_byte_flips() {
    use asan_net::crc32;
    sweep("wire-crc", 40, |case, rng| {
        let data = {
            let mut v = vec![0u8; rng.range(1, 1500) as usize];
            rng.fill_bytes(&mut v);
            v
        };
        let pkts = packetize(NodeId(4), NodeId(5), Some(HandlerId::new(3)), 0x40, &data);
        for p in &pkts {
            let mut wire_len = p.wire_bytes();
            // The wire image includes header + payload + ICRC.
            assert!(wire_len > p.payload.len() as u64, "case {case}");
            // Flipping one payload byte must change the payload CRC.
            if p.payload.is_empty() {
                continue;
            }
            let mut copy = p.payload.to_vec();
            let i = rng.below(copy.len() as u64) as usize;
            copy[i] ^= 1 << rng.below(8);
            assert_ne!(
                crc32(0, &copy),
                crc32(0, &p.payload),
                "case {case}: collision"
            );
            wire_len -= 1; // silence unused-assignment lint on last loop
            let _ = wire_len;
        }
    });
}

/// Header encode/decode round-trips for all field values.
#[test]
fn header_roundtrip() {
    sweep("header", 200, |case, rng| {
        let h = Header {
            src: NodeId(rng.next_u64() as u16),
            dst: NodeId(rng.next_u64() as u16),
            len: rng.below(513) as u16,
            handler: if rng.chance(0.5) {
                Some(HandlerId::new(rng.below(64) as u8))
            } else {
                None
            },
            addr: rng.next_u32(),
            seq: rng.next_u32(),
        };
        assert_eq!(Header::decode(&h.encode()).unwrap(), h, "case {case}");
    });
}

/// The ATB translates exactly the mapped windows and deallocation frees
/// exactly the windows below the given address.
#[test]
fn atb_translation_partial_order() {
    sweep("atb", 60, |case, rng| {
        let n = rng.range(1, 16) as usize;
        let windows: Vec<u32> = (0..n).map(|_| rng.below(64) as u32).collect();
        let cut = rng.below(70) as u32;
        let mut atb = Atb::new();
        let mut mapped = BTreeMap::new();
        for (i, &w) in windows.iter().enumerate() {
            let base = w * 512;
            let old = atb.map(base, BufId(i as u8));
            if let Some(_prev) = old {
                // Direct-mapped conflict replaced an entry.
                mapped.retain(|&b, _| !(b != base && (b / 512) % 16 == (base / 512) % 16));
            }
            mapped.insert(base, BufId(i as u8));
        }
        for (&base, &buf) in &mapped {
            assert_eq!(atb.probe(base + 100), Some((buf, 100)), "case {case}");
        }
        let freed = atb.deallocate_below(cut * 512);
        for (&base, &buf) in &mapped {
            if base + 512 <= cut * 512 {
                assert!(freed.contains(&buf), "case {case}");
                assert_eq!(atb.probe(base), None, "case {case}");
            } else {
                assert_eq!(atb.probe(base), Some((buf, 0)), "case {case}");
            }
        }
    });
}

/// A data buffer's line valid times are monotone and end exactly at
/// the last-byte time.
#[test]
fn line_schedule_monotone() {
    sweep("line-sched", 60, |case, rng| {
        let len = rng.range(1, 513) as usize;
        let start = rng.below(1000);
        let span = rng.range(1, 2000);
        let s0 = SimTime::from_ns(start);
        let s1 = SimTime::from_ns(start + span);
        let mut b = DataBuffer::new();
        b.fill(&vec![0xEE; len], s0, s1);
        let sched: Vec<SimTime> = (0..len.div_ceil(LINE_BYTES))
            .map(|l| b.valid_at(l * LINE_BYTES).unwrap())
            .collect();
        for w in sched.windows(2) {
            assert!(w[0] <= w[1], "case {case}");
        }
        assert_eq!(*sched.last().unwrap(), s1, "case {case}");
        assert_eq!(b.all_valid_at(), Some(s1), "case {case}");
    });
}

/// MD5 incremental updates equal one-shot hashing for any chunking.
#[test]
fn md5_chunking_invariance() {
    sweep("md5-chunk", 40, |case, rng| {
        let data = random_bytes(rng, 4096);
        let oneshot = md5(&data);
        let mut h = Md5::new();
        let mut rest: &[u8] = &data;
        let cuts = rng.below(20) as usize;
        for _ in 0..cuts {
            if rest.is_empty() {
                break;
            }
            let take = (rng.range(1, 128) as usize).min(rest.len());
            h.update(&rest[..take]);
            rest = &rest[take..];
        }
        h.update(rest);
        assert_eq!(h.finalize(), oneshot, "case {case}");
    });
}

/// K-way interleaved MD5 is deterministic and equals the explicit
/// per-chain construction.
#[test]
fn md5_interleave_matches_manual() {
    sweep("md5-interleave", 30, |case, rng| {
        let data = random_bytes(rng, 4096);
        let k = rng.range(1, 5) as usize;
        let unit = 512;
        let fast = md5_interleaved(&data, k, unit);
        // Manual: distribute chunks round-robin.
        let mut chains: Vec<Vec<u8>> = vec![Vec::new(); k];
        for (i, chunk) in data.chunks(unit).enumerate() {
            chains[i % k].extend_from_slice(chunk);
        }
        let mut outer = Md5::new();
        for c in chains {
            outer.update(&md5(&c));
        }
        assert_eq!(outer.finalize(), fast, "case {case}");
    });
}

/// The literal DFA finds exactly the occurrences a naive scan finds.
#[test]
fn dfa_equals_naive() {
    sweep("dfa", 40, |case, rng| {
        let n = rng.below(2000) as usize;
        let hay: Vec<u8> = (0..n).map(|_| rng.below(4) as u8).collect();
        let pattern = [1u8, 0, 1];
        let dfa = LiteralDfa::new(&pattern);
        let naive = hay.windows(3).filter(|w| *w == pattern).count();
        assert_eq!(dfa.count(&hay), naive, "case {case}");
    });
}

/// Vector addition is commutative on the reduction lanes.
#[test]
fn vector_add_abelian() {
    sweep("vec-add", 40, |case, rng| {
        let mk = |s: u64| {
            let mut r = SimRng::from_seed(s);
            let mut v = vec![0u8; 512];
            r.fill_bytes(&mut v);
            v
        };
        let (a, b) = (mk(rng.next_u64()), mk(rng.next_u64()));
        let mut ab = a.clone();
        data::vector_add(&mut ab, &b);
        let mut ba = b.clone();
        data::vector_add(&mut ba, &a);
        assert_eq!(ab, ba, "case {case}");
    });
}

/// Sort bucketing maps every key to a valid node and respects the range
/// order.
#[test]
fn sort_bucket_valid_and_ordered() {
    sweep("sort-bucket", 40, |case, rng| {
        let n = rng.range(1, 200) as usize;
        let p = rng.range(1, 16) as usize;
        let keys: Vec<[u8; 10]> = (0..n)
            .map(|_| {
                let mut k = [0u8; 10];
                rng.fill_bytes(&mut k);
                k
            })
            .collect();
        let mut pairs: Vec<(u16, usize)> = keys
            .iter()
            .map(|k| {
                let b = data::sort_bucket(k, p);
                assert!(b < p, "case {case}");
                (u16::from_be_bytes([k[0], k[1]]), b)
            })
            .collect();
        pairs.sort();
        for w in pairs.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "case {case}: bucket order violates key order"
            );
        }
    });
}

/// A link conserves serialization time: N equal packets arrive no
/// faster than the wire allows, and arrivals are monotone.
#[test]
fn link_serialization_conserved() {
    use asan_net::link::{Link, LinkConfig};
    sweep("link-serial", 40, |case, rng| {
        let n = rng.range(1, 100) as usize;
        let wire = rng.range(16, 2000);
        let cfg = LinkConfig::paper();
        let mut l = Link::new(cfg);
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let t = l.send(wire, SimTime::ZERO);
            l.note_drain(t.done);
            assert!(t.done >= last, "case {case}: arrival regressed");
            last = t.done;
        }
        let min_time = asan_sim::SimDuration::transfer(wire, cfg.bytes_per_sec) * n as u64;
        assert!(
            last >= SimTime::ZERO + min_time,
            "case {case}: {n} x {wire} B finished before the wire could carry them"
        );
        assert_eq!(l.bytes_carried(), wire * n as u64, "case {case}");
    });
}

/// A storage read's packet schedule covers exactly the requested bytes,
/// is monotone, and respects the aggregate media rate.
#[test]
fn storage_schedule_sound() {
    use asan_io::storage::{Storage, StorageConfig};
    sweep("storage-sched", 30, |case, rng| {
        let offset = rng.below(1 << 20);
        let len = rng.range(1, 1 << 20);
        let cfg = StorageConfig::paper();
        let mut s = Storage::new(cfg);
        let sched = s.read_stream(offset, len, SimTime::ZERO);
        let total: u64 = sched.packet_len.iter().map(|&l| l as u64).sum();
        assert_eq!(total, len, "case {case}: bytes not conserved");
        for w in sched.packet_ready.windows(2) {
            assert!(w[0] <= w[1], "case {case}: schedule not monotone");
        }
        // Aggregate rate bound: both disks flat out.
        let aggregate = cfg.disk.bytes_per_sec * cfg.num_disks as u64;
        let min = asan_sim::SimDuration::transfer(len / 2, aggregate);
        assert!(
            sched.complete >= SimTime::ZERO + min,
            "case {case}: faster than the platters"
        );
    });
}

/// The buffer administrator never exceeds its capacity: at any sampled
/// instant the number of live buffers is at most the file size, and
/// every allocation eventually succeeds.
#[test]
fn dba_capacity_respected() {
    use asan_core::dba::BufferAdmin;
    sweep("dba-capacity", 30, |case, rng| {
        let n = rng.range(1, 100) as usize;
        let mut a = BufferAdmin::new(4);
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            let gap = rng.range(1, 1000);
            let hold = rng.range(1, 500);
            t += asan_sim::SimDuration::from_ns(gap);
            let (id, granted) = a.alloc(t);
            assert!(granted >= t, "case {case}");
            a.release(id, granted + asan_sim::SimDuration::from_ns(hold));
            assert!(a.busy_count(granted) <= 4, "case {case}");
        }
    });
}

/// CPU accounting is exact: the busy/stall/idle breakdown always sums
/// to the local clock, under any interleaving of operations.
#[test]
fn cpu_breakdown_conserves_time() {
    use asan_cpu::{Cpu, CpuConfig};
    sweep("cpu-breakdown", 30, |case, rng| {
        let n = rng.range(1, 200) as usize;
        let mut c = Cpu::new(CpuConfig::host());
        let mut addr = 0x1000_0000u64;
        for _ in 0..n {
            match rng.below(5) {
                0 => c.compute(37),
                1 => c.load(addr),
                2 => c.store(addr + 64),
                3 => c.prefetch(addr + 128),
                _ => {
                    let t = c.now() + asan_sim::SimDuration::from_ns(100);
                    c.idle_until(t);
                }
            }
            addr += 4096;
        }
        assert_eq!(
            c.breakdown().total(),
            c.now().since(SimTime::ZERO),
            "case {case}"
        );
    });
}

/// ustar headers always checksum-validate and store the size field
/// correctly, for any name and size.
#[test]
fn ustar_header_valid() {
    use asan_apps::tar_fmt;
    sweep("ustar", 60, |case, rng| {
        let name_len = rng.range(1, 99) as usize;
        let size = rng.below(1 << 33);
        let name: String = "f".repeat(name_len);
        let h = tar_fmt::ustar_header(&name, size, 12345);
        assert!(tar_fmt::checksum_ok(&h), "case {case}");
        // Parse the octal size field back.
        let parsed = h[124..135]
            .iter()
            .fold(0u64, |acc, &b| acc * 8 + (b - b'0') as u64);
        assert_eq!(parsed, size, "case {case}");
    });
}

/// The MPEG frame scanner conserves bytes globally under any chunking:
/// total segment bytes equal the stream length (up to a trailing
/// incomplete header).
#[test]
fn frame_scanner_conserves_bytes() {
    use asan_apps::data::{mpeg_stream, FrameScanner};
    sweep("mpeg-frames", 25, |case, rng| {
        let total = rng.range(1000, 50_000) as usize;
        let chunk = rng.range(7, 4096) as usize;
        let stream = mpeg_stream(total);
        let mut sc = FrameScanner::new();
        let mut covered = 0usize;
        for c in stream.chunks(chunk) {
            covered += sc.feed(c).into_iter().map(|(_, n)| n).sum::<usize>();
        }
        assert!(covered <= total, "case {case}");
        assert!(total - covered < 16, "case {case}: lost more than a header");
    });
}

/// Every generated fat tree is connected with symmetric shortest
/// routes: for any pair of nodes a route exists in both directions and
/// has the same hop count, hosts reach their leaf in one hop, and no
/// path exceeds the tree's diameter (up to the root and back down).
#[test]
fn fat_tree_routes_connected_and_symmetric() {
    use asan_net::topo::TopoSpec;
    sweep("fat-tree-routes", 25, |case, rng| {
        let radix = 2 * rng.range(2, 5) as usize; // even radix 4..8
        let hosts = rng.range(2, 40) as usize;
        let tcas = rng.below(3) as usize;
        let spec = TopoSpec::fat_tree(radix, hosts, tcas);
        let (fabric, map) = spec.try_build().expect("fat tree must build");
        let n = fabric.num_nodes();
        // Levels: hosts -> leaves -> ... -> root. Diameter bounds any
        // shortest path at twice the host depth.
        let depth = fabric.path_len(map.hosts[0], map.root);
        for a in 0..n as u16 {
            for b in 0..n as u16 {
                let (a, b) = (NodeId(a), NodeId(b));
                let fwd = fabric.path_len(a, b); // panics if disconnected
                let rev = fabric.path_len(b, a);
                assert_eq!(fwd, rev, "case {case}: asymmetric route {a:?}<->{b:?}");
                assert!(fwd <= 2 * depth, "case {case}: path beyond diameter");
                assert_eq!(fwd == 0, a == b, "case {case}");
            }
        }
        for (&h, &leaf) in map.hosts.iter().zip(&map.host_leaf) {
            assert_eq!(
                fabric.path_len(h, leaf),
                1,
                "case {case}: host not on its leaf"
            );
        }
    });
}

/// Fabric transmissions are causal: with non-decreasing ready times on
/// one flow, arrivals are non-decreasing too.
#[test]
fn fabric_arrivals_monotone() {
    use asan_net::topo::single_switch_cluster;
    sweep("fabric-causal", 30, |case, rng| {
        let n = rng.range(1, 100) as usize;
        let (mut f, hosts, tcas, _) = single_switch_cluster(1, 1);
        let mut ready = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for i in 0..n {
            let w = rng.range(16, 528);
            ready += asan_sim::SimDuration::from_ns((i % 7) as u64 * 100);
            let d = f.transmit(w, tcas[0], hosts[0], ready);
            assert!(d.arrival >= last_arrival, "case {case}: arrival regressed");
            assert!(d.header_at <= d.arrival, "case {case}");
            assert!(d.payload_start <= d.arrival, "case {case}");
            last_arrival = d.arrival;
        }
    });
}
