//! Fault-injection coverage: the ASVM retry channel must hide message
//! drops, duplications and delays from the coherence protocol, and must
//! fail *cleanly* (retry exhaustion, never a hang) when a link is truly
//! dead. Reliability model: `docs/RELIABILITY.md`.
//!
//! The CI fault-matrix job runs this file under two fixed seeds via the
//! `ASVM_FAULTS_SEED` environment variable (default 1996); every fault
//! plan in here folds that seed in, so both runs exercise different
//! injected schedules with the same assertions.

mod common;

use cluster::{ManagerKind, ScriptProgram, Ssi, Step};
use common::{run_trace_faulted, with_trace_dump, TraceOp};
use machvm::{Access, Inherit};
use proptest::prelude::*;
use svmsim::{Dur, FaultPlan, LinkFaults, MachineConfig, NodeId};
use transport::Transport;
use workloads::{run_pattern_faulted, Pattern};

/// Base seed for every fault plan in this file (CI matrix: 1996, 777).
fn fault_seed() -> u64 {
    std::env::var("ASVM_FAULTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1996)
}

fn trace_strategy(nodes: u16, pages: u32, max_ops: usize) -> impl Strategy<Value = Vec<TraceOp>> {
    prop::collection::vec(
        (0..nodes, 0..pages, any::<bool>()).prop_map(|(node, page, write)| TraceOp {
            node,
            page,
            write,
        }),
        1..max_ops,
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Convergence under randomized fault plans: any barrier-sequenced
    /// trace, run under random drop/duplicate/delay rates, still satisfies
    /// the sequential reference on every in-band read and every final
    /// page — no lost pages, no duplicate-apply. Rates stay below the
    /// retry-exhaustion regime (~6 % loss with 6 attempts leaves the
    /// per-frame failure odds around 1e-8).
    #[test]
    fn randomized_fault_plans_converge_to_the_reference(
        ops in trace_strategy(3, 4, 12),
        drop_ppm in 0u32..60_000,
        dup_ppm in 0u32..30_000,
        delay_ppm in 0u32..30_000,
    ) {
        let salt = ((drop_ppm as u64) << 40) ^ ((dup_ppm as u64) << 20) ^ delay_ppm as u64;
        let plan = FaultPlan::seeded(fault_seed() ^ salt)
            .with_drop_ppm(drop_ppm)
            .with_dup_ppm(dup_ppm)
            .with_delay(delay_ppm, Dur::from_millis(2));
        run_trace_faulted(ManagerKind::asvm(), 3, 4, &ops, plan);
    }
}

/// A scripted 100 %-loss link kills every retry: exhaustion must feed the
/// failure detector (the dead peer becomes suspected), and the request
/// watchdog must then carry the stranded reader to completion through the
/// terminal pager re-fetch — a degraded-but-finished run, never a hang.
/// Also the regression test for `Ssi::link_failures` draining: a second
/// poll must come back empty instead of re-reporting the same failures.
#[test]
fn total_loss_exhausts_retries_cleanly() {
    let mut cfg = MachineConfig::paragon(2);
    cfg.faults = FaultPlan::seeded(fault_seed()).with_link(
        NodeId(1),
        NodeId(0),
        LinkFaults {
            drop_ppm: 1_000_000,
            ..LinkFaults::NONE
        },
    );
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), 7);
    let mobj = ssi.create_object(NodeId(0), 2, false);
    let writer = ssi.alloc_task();
    let reader = ssi.alloc_task();
    for (t, n) in [(writer, 0u16), (reader, 1u16)] {
        ssi.map_shared(
            t,
            NodeId(n),
            0,
            mobj,
            NodeId(0),
            2,
            Access::Write,
            Inherit::Share,
        );
    }
    ssi.finalize();
    ssi.set_barrier_parties(2);
    ssi.enable_trace(96);
    ssi.spawn(
        NodeId(0),
        writer,
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 0,
                value: 7,
            },
            Step::Barrier(0),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(1),
        reader,
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(0),
            // This fault's PageReq leaves node 1 for the home node over
            // the dead link; every transmission is dropped.
            Step::Read { va_page: 0 },
            Step::Done,
        ])),
    );
    with_trace_dump(&mut ssi, |ssi| {
        ssi.run(50_000_000)
            .expect("exhaustion quiesces, never hangs");
        assert!(
            ssi.stats().counter("asvm.retry.exhausted") >= 1,
            "retries must exhaust"
        );
        // Exhaustion evidence reaches the failure detector…
        assert!(
            ssi.stats().counter("cluster.suspect.count") >= 1,
            "exhaustion must raise suspicion"
        );
        // …and the watchdog's terminal rung re-fetches from the pager
        // (reachable over reliable NORMA-IPC), so the reader finishes —
        // with pager-stale data, which is the documented trade
        // (docs/RELIABILITY.md), hence no value assertion here.
        assert!(
            ssi.stats().counter("asvm.recover.refetch") >= 1,
            "the stranded read must fall back to the pager"
        );
        assert!(
            ssi.all_done(),
            "recovery must carry the reader to completion"
        );
        let failures = ssi.link_failures();
        assert!(!failures.is_empty(), "link failure must be recorded");
        assert_eq!(failures[0].peer, NodeId(0), "the dead link points home");
        // Draining semantics: the first poll consumed the records.
        assert!(
            ssi.link_failures().is_empty(),
            "link_failures must drain, not re-copy"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Killing a static ownership-manager node mid-run: a randomly chosen
    /// compute node (which holds the static manager role for its share of
    /// pages) goes permanently dark at a random point in the first 30 ms.
    /// The survivors' barrier-sequenced trace must still converge to the
    /// sequential reference — rehash of the dead manager's roles, watchdog
    /// re-issue and ownership reconstruction all have to work — with no
    /// hung pending requests at quiescence.
    #[test]
    fn static_manager_death_converges_to_the_reference(
        ops in trace_strategy(3, 4, 10),
        victim in 1u16..4,
        dark_ms in 1u64..30,
    ) {
        use svmsim::Time;
        common::run_trace_with_victim(
            4,
            4,
            &ops,
            NodeId(victim),
            Time::from_nanos(dark_ms * 1_000_000),
            fault_seed() ^ (dark_ms << 16) ^ victim as u64,
        );
    }
}

/// Same seed, same plan, same workload: every statistic of a faulted run
/// is reproducible — the fault stream comes from its own seeded generator.
#[test]
fn faulted_runs_are_deterministic() {
    let plan = || {
        FaultPlan::seeded(fault_seed())
            .with_drop_ppm(30_000)
            .with_dup_ppm(10_000)
            .with_delay(10_000, Dur::from_millis(1))
    };
    let run = || {
        let out = run_pattern_faulted(
            ManagerKind::asvm(),
            4,
            8,
            Pattern::Migratory { rounds: 3 },
            plan(),
        );
        (
            out.completed,
            out.outcome.faults,
            out.outcome.messages,
            out.outcome.events,
            out.outcome.elapsed_s.to_bits(),
            out.dropped,
            out.duplicated,
            out.delayed,
            out.resent,
            out.exhausted,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two identically-seeded faulted runs diverged");
    assert!(a.0, "faulted migratory run completes");
    assert!(a.5 > 0, "3% loss must drop something");
    assert!(a.8 > 0, "drops must provoke retransmissions");
}

/// An inactive plan — even a seeded one — changes nothing: the fault RNG
/// is never consulted, so results are identical to `FaultPlan::none()`
/// (the stdout byte-identity check in CI relies on this).
#[test]
fn inactive_plans_do_not_perturb_runs() {
    let run = |plan: FaultPlan| {
        let out = run_pattern_faulted(
            ManagerKind::asvm(),
            4,
            8,
            Pattern::ProducerConsumer { rounds: 2 },
            plan,
        );
        (
            out.outcome.faults,
            out.outcome.messages,
            out.outcome.events,
            out.outcome.elapsed_s.to_bits(),
        )
    };
    let baseline = run(FaultPlan::none());
    // Seeded but all rates zero: is_active() is false, nothing changes.
    let seeded = run(FaultPlan::seeded(fault_seed()));
    assert_eq!(baseline, seeded, "inactive seeded plan perturbed the run");
}

/// Duplicate-heavy traffic: every duplicated frame must be suppressed by
/// the receiver (the protocol would double-apply otherwise), and the
/// coherence checks still hold. XMM control traffic rides reliable
/// NORMA-IPC, so the same trace under XMM is unaffected by the plan.
#[test]
fn duplicates_are_suppressed_not_applied() {
    let plan = FaultPlan::seeded(fault_seed().wrapping_mul(3))
        .with_dup_ppm(200_000)
        .with_delay(100_000, Dur::from_millis(1));
    let ops: Vec<TraceOp> = (0..10)
        .map(|i| TraceOp {
            node: (i % 3) as u16,
            page: (i % 2) as u32,
            write: i % 3 != 2,
        })
        .collect();
    run_trace_faulted(ManagerKind::asvm(), 3, 2, &ops, plan.clone());
    run_trace_faulted(ManagerKind::xmm(), 3, 2, &ops, plan.clone());

    // Counter-level check: the duplicates actually happened and were
    // caught at the receiver.
    let out = run_pattern_faulted(
        ManagerKind::asvm(),
        4,
        8,
        Pattern::Migratory { rounds: 3 },
        plan,
    );
    assert!(out.completed);
    assert!(out.duplicated > 0, "20% dup rate must duplicate something");
}

/// A dropped *coalesced* frame retries and converges exactly like its
/// unbatched equivalent: the whole multi-subframe body is one ARQ unit —
/// one sequence number, one fault decision, one retransmission — so loss
/// of a frame carrying a readahead burst is recovered wholesale. Both
/// arms run the same plan; both must complete through retransmission,
/// and the coalesced arm must actually have been merging when hit.
#[test]
fn dropped_coalesced_frames_retry_and_converge() {
    let plan = || {
        FaultPlan::seeded(fault_seed() ^ 0xC0A1)
            .with_drop_ppm(30_000)
            .with_dup_ppm(10_000)
    };
    let base = asvm::AsvmConfig::with_readahead(8);
    let off = run_pattern_faulted(
        ManagerKind::Asvm(base),
        4,
        16,
        Pattern::ProducerConsumer { rounds: 3 },
        plan(),
    );
    let on = run_pattern_faulted(
        ManagerKind::Asvm(base.coalesced()),
        4,
        16,
        Pattern::ProducerConsumer { rounds: 3 },
        plan(),
    );
    assert!(off.completed, "unbatched arm completes under 3% loss");
    assert!(on.completed, "coalesced arm completes under 3% loss");
    assert!(
        on.outcome.coalesce_merged > 0,
        "the coalesced arm must have merged subframes while being hit"
    );
    assert!(
        on.dropped > 0,
        "the plan must have dropped coalesced frames"
    );
    assert!(
        on.resent > 0,
        "dropped coalesced frames must be retransmitted as whole bodies"
    );
    assert_eq!(
        off.exhausted, 0,
        "loss rate stays below the exhaustion regime (off arm)"
    );
    assert_eq!(
        on.exhausted, 0,
        "loss rate stays below the exhaustion regime (on arm)"
    );
}

/// A scripted blackout window delays progress but, once it lifts, retries
/// push the workload through to completion.
#[test]
fn blackout_window_recovers_after_it_lifts() {
    use svmsim::Time;
    let plan = FaultPlan::seeded(fault_seed() ^ 0xB1AC).with_blackout(
        NodeId(1),
        Time::ZERO,
        Time::ZERO + Dur::from_millis(20),
    );
    let out = run_pattern_faulted(
        ManagerKind::asvm(),
        4,
        8,
        Pattern::Migratory { rounds: 2 },
        plan,
    );
    assert!(out.completed, "workload must finish after the blackout");
    assert!(out.dropped > 0, "the blackout must have eaten messages");
    assert!(out.resent > 0, "recovery happens through retransmission");
}

/// A heartbeat tick on NORMA-IPC beacons every peer at 450 µs of send CPU
/// each, so on sixteen nodes (6.75 ms per 5 ms period) any CPU the
/// watchdog then charges carries the node's clock past the tick's next
/// period. The tick must re-arm at its own end, not in the past (a debug
/// assertion in `Ctx::post_self`). Beacons alone saturate the message
/// processors at this size (every node ends up suspecting every other),
/// so the run is cut at an event budget instead of waiting for the tasks.
#[test]
fn heartbeat_rearm_survives_slow_beacons() {
    const NODES: u16 = 16;
    let mut cfg = MachineConfig::paragon(NODES);
    cfg.faults = FaultPlan::seeded(fault_seed() ^ 0x4EA7).with_drop_ppm(20_000);
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), 7);
    ssi.set_asvm_transport(Transport::NORMA);
    let mobj = ssi.create_object(NodeId(0), 2, false);
    let tasks: Vec<_> = (0..NODES)
        .map(|n| {
            let t = ssi.alloc_task();
            ssi.map_shared(
                t,
                NodeId(n),
                0,
                mobj,
                NodeId(0),
                2,
                Access::Write,
                Inherit::Share,
            );
            t
        })
        .collect();
    ssi.finalize();
    for (n, t) in tasks.into_iter().enumerate() {
        ssi.spawn(
            NodeId(n as u16),
            t,
            Box::new(ScriptProgram::new(vec![
                Step::Write {
                    va_page: n as u64 % 2,
                    value: n as u64,
                },
                Step::Read { va_page: 0 },
                Step::Done,
            ])),
        );
    }
    // Completion is not the point here; the budget only bounds the run.
    let _ = ssi.run(20_000);
    let beacons = ssi.stats().counter("cluster.hb");
    assert!(
        beacons >= 20 * u64::from(NODES) * u64::from(NODES - 1),
        "heartbeats kept re-arming for at least 20 periods ({beacons} beacons)"
    );
}
