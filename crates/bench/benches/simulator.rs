//! Criterion benchmarks of the simulator's hot paths and of representative
//! end-to-end experiments (wall-clock cost of running the reproduction, as
//! opposed to the simulated times the `table*`/`figure*` binaries report).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use asvm::{AsvmMsg, FrameBody, FrameCombiner, Lru};
use cluster::ManagerKind;
use machvm::{MemObjId, PageIdx};
use rand::{rngs::StdRng, SeedableRng};
use svmsim::{Dur, EventQueue, Machine, MachineConfig, NodeId, Stats, Time};
use workloads::{
    copy_chain_probe, em3d_run, fault_probe, run_pattern, CopyChainSpec, Em3dSpec, FaultProbeSpec,
    Pattern, ProbeAccess, Zipf,
};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1000u64 {
                // Scatter times so the heap actually works.
                q.push(Time::from_nanos((i * 7919) % 10_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

fn bench_event_queue_preallocated(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k_prealloc", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(1000);
            for i in 0..1000u64 {
                q.push(Time::from_nanos((i * 7919) % 10_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    // The per-message counter update, both ways: the cold string-keyed
    // lookup and the interned-id fast path the event loop actually uses.
    let mut g = c.benchmark_group("stats");
    g.bench_function("bump_by_key_1k", |b| {
        let mut s = Stats::new();
        // Populate a realistic number of distinct counters first.
        for k in [
            "net.messages",
            "net.bytes",
            "disk.reads",
            "disk.writes",
            "faults.raised",
            "faults.completed",
            "norma.messages",
            "sts.messages",
            "pageouts",
            "forks",
        ] {
            s.bump(k);
        }
        b.iter(|| {
            for _ in 0..1000 {
                s.bump(black_box("sts.messages"));
            }
            black_box(s.counter("sts.messages"))
        })
    });
    g.bench_function("bump_by_id_1k", |b| {
        let mut s = Stats::new();
        for k in [
            "net.messages",
            "net.bytes",
            "disk.reads",
            "disk.writes",
            "faults.raised",
            "faults.completed",
            "norma.messages",
            "sts.messages",
            "pageouts",
            "forks",
        ] {
            s.bump(k);
        }
        let id = s.counter_id("sts.messages");
        b.iter(|| {
            for _ in 0..1000 {
                s.bump_id(black_box(id));
            }
            black_box(s.counter_value(id))
        })
    });
    g.finish();
}

fn bench_mesh_routing(c: &mut Criterion) {
    let machine = Machine::new(MachineConfig::paragon(64));
    c.bench_function("wire_time_all_pairs_64", |b| {
        b.iter(|| {
            let mut acc = Dur::ZERO;
            for a in machine.mesh.node_ids() {
                for z in machine.mesh.node_ids() {
                    acc += machine.wire_time(a, z, 8224);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_fault_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_probe");
    g.sample_size(20);
    g.bench_function("asvm_write_8_readers", |b| {
        b.iter(|| {
            black_box(fault_probe(FaultProbeSpec {
                kind: ManagerKind::asvm(),
                read_copies: 8,
                faulter_has_copy: false,
                access: ProbeAccess::Write,
            }))
        })
    });
    g.bench_function("xmm_write_8_readers", |b| {
        b.iter(|| {
            black_box(fault_probe(FaultProbeSpec {
                kind: ManagerKind::xmm(),
                read_copies: 8,
                faulter_has_copy: false,
                access: ProbeAccess::Write,
            }))
        })
    });
    g.finish();
}

fn bench_copy_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("copy_chain");
    g.sample_size(20);
    g.bench_function("asvm_chain4", |b| {
        b.iter(|| {
            black_box(copy_chain_probe(CopyChainSpec {
                kind: ManagerKind::asvm(),
                chain_len: 4,
                region_pages: 16,
            }))
        })
    });
    g.bench_function("xmm_chain4", |b| {
        b.iter(|| {
            black_box(copy_chain_probe(CopyChainSpec {
                kind: ManagerKind::xmm(),
                chain_len: 4,
                region_pages: 16,
            }))
        })
    });
    g.finish();
}

fn bench_frame_combiner(c: &mut Criterion) {
    // The coalescing hot path: one push per protocol send, one drain per
    // scheduling step (see crates/core/src/coalesce.rs).
    let mut g = c.benchmark_group("coalesce");
    g.bench_function("combiner_push_drain_64x4", |b| {
        b.iter(|| {
            let mut cb = FrameCombiner::new(16);
            let mut frames = 0u32;
            for i in 0..64u32 {
                let msg = AsvmMsg::Invalidate {
                    mobj: MemObjId(1),
                    page: PageIdx(i),
                    from: NodeId(0),
                };
                if cb.push(NodeId((i % 4) as u16 + 1), msg).is_some() {
                    frames += 1;
                }
            }
            for (_, body) in cb.drain() {
                frames += 1;
                black_box(body.subframes());
            }
            black_box(frames)
        })
    });
    g.bench_function("body_hints_and_payload_16", |b| {
        b.iter(|| {
            let mut body = FrameBody::single(AsvmMsg::Invalidate {
                mobj: MemObjId(1),
                page: PageIdx(0),
                from: NodeId(0),
            });
            for i in 0..16u32 {
                // Half the pushes dedupe against an existing entry.
                body.push_hint((MemObjId(1), PageIdx(i % 8), NodeId((i % 3) as u16)));
            }
            black_box(body.payload_bytes(8192))
        })
    });
    g.finish();
}

fn bench_patterns(c: &mut Criterion) {
    let mut g = c.benchmark_group("patterns");
    g.sample_size(10);
    g.bench_function("migratory_8n", |b| {
        b.iter(|| {
            black_box(run_pattern(
                ManagerKind::asvm(),
                8,
                32,
                Pattern::Migratory { rounds: 2 },
            ))
        })
    });
    g.finish();
}

fn bench_em3d(c: &mut Criterion) {
    let mut g = c.benchmark_group("em3d");
    g.sample_size(10);
    g.bench_function("asvm_8n_16k_2iter", |b| {
        b.iter(|| {
            let mut spec = Em3dSpec::paper(ManagerKind::asvm(), 8, 16_000);
            spec.iterations = 2;
            black_box(em3d_run(spec))
        })
    });
    g.finish();
}

fn bench_lru(c: &mut Criterion) {
    // The owner-hint cache at its default capacity, fed a Zipf(0.9) page
    // stream over twice as many pages: hot pages hit, the tail misses and
    // evicts — the mix every forwarding decision sees.
    const CAP: usize = 4096;
    let zipf = Zipf::new(2 * CAP, 0.9);
    let mut rng = StdRng::seed_from_u64(1996);
    let keys: Vec<PageIdx> = (0..8192)
        .map(|_| PageIdx(zipf.sample(&mut rng) as u32))
        .collect();
    let mut warm: Lru<PageIdx, NodeId> = Lru::new(CAP);
    for (i, k) in keys.iter().enumerate() {
        warm.insert(*k, NodeId(i as u16));
    }
    let mut g = c.benchmark_group("lru");
    g.bench_function("get_8k_cap4096", |b| {
        let mut lru = warm.clone();
        b.iter(|| {
            let mut hits = 0u32;
            for k in &keys {
                hits += u32::from(lru.get(black_box(k)).is_some());
            }
            black_box(hits)
        })
    });
    g.bench_function("peek_8k_cap4096", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for k in &keys {
                hits += u32::from(warm.peek(black_box(k)).is_some());
            }
            black_box(hits)
        })
    });
    g.bench_function("insert_8k_cap4096", |b| {
        let mut lru = warm.clone();
        b.iter(|| {
            for (i, k) in keys.iter().enumerate() {
                lru.insert(*black_box(k), NodeId(i as u16));
            }
            black_box(lru.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_preallocated,
    bench_stats,
    bench_lru,
    bench_mesh_routing,
    bench_fault_probe,
    bench_copy_chain,
    bench_frame_combiner,
    bench_patterns,
    bench_em3d
);
criterion_main!(benches);
