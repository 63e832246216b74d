//! One repetition of a workload: set-up (input generation, cluster build,
//! warm-up), the measured closed-loop run, and the output checks.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use cluster::{check_asvm_invariants, ManagerKind, Program, Ssi};
use machvm::{Access, Inherit, MemObjId, TaskId};
use svmsim::{MachineConfig, NodeId, Stats, Time};

use crate::shape::{
    em3d_patterns, em3d_placement, scan_thinks, zipf_inputs, Em3dInit, Em3dScript, ScanScript,
    Shape, ZipfScript,
};
use crate::task::{Probe, Task};
use crate::trace::{wrap_engines, EngineLedger};

/// Events one repetition may process before it counts as livelocked.
const EVENT_BUDGET: u64 = 200_000_000;

/// Nearest-rank quantile `permille`/1000 of ascending `sorted`, reported
/// only when at least one sample lies above its rank (so p50 needs 2
/// samples, p99 100 and p99.9 1000); `None` otherwise.
pub fn quantile(sorted: &[u64], permille: u64) -> Option<u64> {
    let n = sorted.len() as u64;
    if n == 0 || n * (1000 - permille) < 1000 {
        return None;
    }
    let rank = (n * permille).div_ceil(1000);
    Some(sorted[rank.max(1) as usize - 1])
}

/// Median of host timings (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Every simulated quantity a repetition produces. All integers, so two
/// runs agree bit for bit or not at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimCounts {
    /// Events of the measured phase.
    pub events: u64,
    /// Events since the cluster was built, warm-up included.
    pub events_total: u64,
    /// Start of the measured phase to the last task's finish, ns.
    pub makespan_ns: u64,
    /// Reads and writes issued.
    pub accesses: u64,
    /// Accesses that stalled (latency samples).
    pub stalls: u64,
    /// Sum of stall latencies, ns.
    pub stall_sum_ns: u64,
    /// Stall latency p50 / p99 / p99.9, ns.
    pub stall_pct_ns: [Option<u64>; 3],
    /// `faults.completed`.
    pub faults: u64,
    /// Largest per-compute-node engine state, bytes.
    pub state_max_bytes: u64,
    /// Mean per-compute-node engine state, bytes.
    pub state_mean_bytes: u64,
    /// Event-queue high-water mark.
    pub queue_peak: u64,
    /// Event-queue pushes that outgrew its reservation.
    pub queue_grow: u64,
    /// ASVM protocol messages, all kinds (`asvm.msg.*`).
    pub asvm_msgs: u64,
    /// `asvm.msg.page_req`.
    pub page_reqs: u64,
    /// `asvm.msg.invalidate`.
    pub invalidations: u64,
    /// `asvm.forward.loop_trip`.
    pub loop_trips: u64,
    /// Wire messages (`net.messages`).
    pub frames: u64,
    /// Wire messages carrying a page.
    pub page_frames: u64,
    /// Wire bytes (`net.bytes`).
    pub net_bytes: u64,
    /// `disk.reads`.
    pub disk_reads: u64,
    /// Pager data requests (`emmi.req.data_request`).
    pub data_requests: u64,
    /// Pages sent out of a node's memory (`pageouts`).
    pub pageouts: u64,
    /// Pages of all shared objects.
    pub shared_pages: u64,
}

impl SimCounts {
    fn read(ssi: &Ssi, start: Time, end: Time, probe: &Probe, events: u64, pages: u64) -> Self {
        let s: &Stats = ssi.stats();
        let mut stalls = probe.stalls_ns.borrow().clone();
        stalls.sort_unstable();
        let compute: Vec<NodeId> = ssi.world.machine().compute_nodes().collect();
        let states: Vec<u64> = compute
            .iter()
            .map(|&id| ssi.node(id).engine.state_bytes())
            .collect();
        SimCounts {
            events,
            events_total: ssi.world.events_processed(),
            makespan_ns: end.since(start).as_nanos(),
            accesses: probe.accesses.get(),
            stalls: stalls.len() as u64,
            stall_sum_ns: stalls.iter().sum(),
            stall_pct_ns: [500, 990, 999].map(|q| quantile(&stalls, q)),
            faults: s.counter("faults.completed"),
            state_max_bytes: states.iter().copied().max().unwrap_or(0),
            state_mean_bytes: states.iter().sum::<u64>() / states.len().max(1) as u64,
            queue_peak: ssi.world.queue_peak() as u64,
            queue_grow: ssi.world.queue_grow_events(),
            asvm_msgs: s
                .counters()
                .filter(|(k, _)| k.starts_with("asvm.msg."))
                .map(|(_, v)| v)
                .sum(),
            page_reqs: s.counter("asvm.msg.page_req"),
            invalidations: s.counter("asvm.msg.invalidate"),
            loop_trips: s.counter("asvm.forward.loop_trip"),
            frames: s.counter("net.messages"),
            page_frames: s.counter("sts.page_messages") + s.counter("norma.page_messages"),
            net_bytes: s.counter("net.bytes"),
            disk_reads: s.counter("disk.reads"),
            data_requests: s.counter("emmi.req.data_request"),
            pageouts: s.counter("pageouts"),
            shared_pages: pages,
        }
    }
}

/// Host-side timings of a traced repetition.
#[derive(Debug, Default)]
pub struct HostTrace {
    /// Host ns of every `World::step` call that ran an event.
    pub step_ns: Vec<u64>,
    /// Engine entry-point spans.
    pub engine: Rc<EngineLedger>,
    /// Host ns inside the benchmark's `Program::step`.
    pub program_ns: u64,
}

/// The outcome of one repetition.
#[derive(Debug)]
pub struct Rep {
    /// Set-up host time, seconds.
    pub setup_s: f64,
    /// Measured-phase host time, seconds, the reference work excluded.
    pub host_s: f64,
    /// Median duration of the reference work run during the measured
    /// phase, seconds (`None` for a warm-up).
    pub ref_s: Option<f64>,
    /// Simulated results.
    pub sim: SimCounts,
    /// Accesses the inputs call for.
    pub attempted: u64,
    /// Accesses that failed their checks.
    pub failed: u64,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// Host spans (traced repetitions only).
    pub trace: Option<HostTrace>,
}

impl Rep {
    /// Measured-phase host time in units of the reference work run
    /// alongside it: the host time with this machine's speed of the
    /// moment divided out.
    pub fn host_rel(&self) -> f64 {
        self.host_s / self.ref_s.expect("a timed repetition")
    }
}

struct Launch {
    node: NodeId,
    task: TaskId,
    program: Box<dyn Program>,
}

/// A built and warmed-up cluster, ready for the measured phase.
struct Prepared {
    ssi: Ssi,
    launches: Vec<Launch>,
    probe: Rc<Probe>,
    planned: u64,
    pages: u64,
    problems: Vec<String>,
}

/// Builds a cluster of `nodes` ASVM nodes with `objects` shared objects
/// of `pages` pages each, homed on node 0, mapped writable back to back
/// from page 0 by one task per node.
fn build(
    nodes: u16,
    objects: u32,
    pages: u32,
    populated: bool,
    seed: u64,
) -> (Ssi, Vec<TaskId>, Vec<MemObjId>) {
    let mut ssi = Ssi::with_machine(MachineConfig::paragon(nodes), ManagerKind::asvm(), seed);
    let home = NodeId(0);
    let mobjs: Vec<MemObjId> = (0..objects)
        .map(|_| ssi.create_object(home, pages, populated))
        .collect();
    let tasks: Vec<TaskId> = (0..nodes)
        .map(|i| {
            let t = ssi.alloc_task();
            for (k, &mobj) in mobjs.iter().enumerate() {
                let va = k as u64 * pages as u64;
                ssi.map_shared(
                    t,
                    NodeId(i),
                    va,
                    mobj,
                    home,
                    pages,
                    Access::Write,
                    Inherit::Share,
                );
            }
            t
        })
        .collect();
    ssi.finalize();
    ssi.set_barrier_parties(nodes as u32);
    (ssi, tasks, mobjs)
}

/// Host time between two runs of [`reference_work`] in a measured phase.
const REF_EVERY: Duration = Duration::from_secs(1);
/// Map operations of one [`reference_work`] (some 60 ms, a map of ~10 MB).
const REF_OPS: u64 = 250_000;

/// A fixed piece of host work that shares no code with the simulator:
/// building an ordered map of pseudo-random keys, with removals, big
/// enough to miss in cache as the simulator's node tables do. Run every
/// [`REF_EVERY`] of a measured phase, its duration tracks how fast this
/// shared machine runs at that moment, so run times can be read relative
/// to it.
pub fn reference_work() -> Duration {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let mut key = 1u64;
    for i in 0..REF_OPS {
        key = key
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(key >> 40, i);
        if i % 3 == 0 {
            map.remove(&((key >> 41) << 1));
        }
    }
    black_box(map.len());
    t0.elapsed()
}

/// Steps the world until it drains; `false` if it exceeded the budget.
/// With `step_ns`, times every step that ran an event. With `refs`, runs
/// [`reference_work`] before the first step and again every
/// [`REF_EVERY`], recording each duration.
fn drive(
    ssi: &mut Ssi,
    mut step_ns: Option<&mut Vec<u64>>,
    mut refs: Option<&mut Vec<Duration>>,
) -> bool {
    let limit = ssi.world.events_processed() + EVENT_BUDGET;
    let mut next_ref = Instant::now();
    for n in 0u64.. {
        if let Some(refs) = refs.as_deref_mut() {
            if n % 1024 == 0 && Instant::now() >= next_ref {
                refs.push(reference_work());
                next_ref = Instant::now() + REF_EVERY;
            }
        }
        let t0 = step_ns.is_some().then(Instant::now);
        if !ssi.world.step() {
            break;
        }
        if let (Some(t0), Some(samples)) = (t0, step_ns.as_deref_mut()) {
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        if ssi.world.events_processed() > limit {
            return false;
        }
    }
    true
}

fn prepare(shape: &Shape, seed: u64, traced: bool) -> Prepared {
    let probe = Probe::new(traced);
    let mut launches = Vec::new();
    let mut planned = 0u64;
    let mut problems = Vec::new();
    let pages;
    let ssi = match shape {
        Shape::Em3d(s) => {
            let patterns = em3d_patterns(s, seed);
            let placement = em3d_placement(s, seed);
            pages = s.region_pages() as u64;
            let (mut ssi, tasks, _) = build(s.nodes, 1, s.region_pages(), false, seed);
            // Warm-up: every node first-touches its own block.
            let init_probe = Probe::new(false);
            for (p, &node) in patterns.iter().zip(&placement) {
                let script = Em3dInit::new(p.own_pages.clone());
                let prog = Box::new(Task::new(script, Rc::clone(&init_probe)));
                ssi.spawn(NodeId(node), tasks[node as usize], prog);
            }
            if !drive(&mut ssi, None, None) {
                problems.push("the warm-up exceeded its event budget".to_string());
            }
            ssi.world.stats_mut().reset();
            for (p, node) in patterns.into_iter().zip(placement) {
                planned +=
                    (p.own_pages.len() + p.remote_pages.len()) as u64 * 2 * s.iterations as u64;
                let script = Em3dScript::new(p, s.iterations);
                launches.push(Launch {
                    node: NodeId(node),
                    task: tasks[node as usize],
                    program: Box::new(Task::new(script, Rc::clone(&probe))),
                });
            }
            ssi
        }
        Shape::ZipfRw(s) => {
            assert!(s.pages <= 1 << 16, "zipf-rw stamps hold a 16-bit page");
            let inputs = zipf_inputs(s, seed);
            pages = s.pages as u64;
            let (ssi, tasks, _) = build(s.nodes, 1, s.pages, false, seed);
            let written = Rc::new(RefCell::new(HashSet::new()));
            for (i, ops) in inputs.into_iter().enumerate() {
                planned += ops.len() as u64;
                let script = ZipfScript::new(i as u16, ops, s.think, Rc::clone(&written));
                launches.push(Launch {
                    node: NodeId(i as u16),
                    task: tasks[i],
                    program: Box::new(Task::new(script, Rc::clone(&probe))),
                });
            }
            ssi
        }
        Shape::ScanEvict(s) => {
            let thinks = scan_thinks(s, seed);
            pages = s.file_pages as u64 * s.passes as u64;
            let (ssi, tasks, files) = build(s.nodes, s.passes, s.file_pages, true, seed);
            for (i, think) in thinks.into_iter().enumerate() {
                planned += s.file_pages as u64 * s.passes as u64;
                let script = ScanScript::new(files.clone(), s.file_pages, think);
                launches.push(Launch {
                    node: NodeId(i as u16),
                    task: tasks[i],
                    program: Box::new(Task::new(script, Rc::clone(&probe))),
                });
            }
            ssi
        }
    };
    Prepared {
        ssi,
        launches,
        probe,
        planned,
        pages,
        problems,
    }
}

/// How a repetition is timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timing {
    /// The first repetition of a process: it grows the heap (peak memory
    /// is read after it) and is checked like any other, but its host
    /// times are cold and it runs no reference work.
    Warmup,
    /// Host times, with the reference work run alongside.
    Plain,
    /// [`Timing::Plain`] plus the host spans: engine wrapper, per-step
    /// and per-program-step timers.
    Traced,
}

/// Runs one repetition of `shape` from `seed`.
pub fn run_rep(shape: &Shape, seed: u64, timing: Timing) -> Rep {
    let traced = timing == Timing::Traced;
    let t0 = Instant::now();
    let Prepared {
        mut ssi,
        launches,
        probe,
        planned,
        pages,
        mut problems,
    } = prepare(shape, seed, traced);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut trace = traced.then(HostTrace::default);
    if let Some(t) = &trace {
        wrap_engines(&mut ssi, &t.engine);
    }
    let start = ssi.world.now();
    let events0 = ssi.world.events_processed();
    let placed: Vec<(NodeId, TaskId)> = launches.iter().map(|l| (l.node, l.task)).collect();

    let mut refs = (timing != Timing::Warmup).then(Vec::new);
    let t1 = Instant::now();
    for l in launches {
        ssi.spawn(l.node, l.task, l.program);
    }
    let drained = drive(
        &mut ssi,
        trace.as_mut().map(|t| &mut t.step_ns),
        refs.as_mut(),
    );
    let refs = refs.unwrap_or_default();
    let host_s = (t1.elapsed() - refs.iter().sum::<Duration>()).as_secs_f64();
    let ref_s = (!refs.is_empty())
        .then(|| median(&refs.iter().map(Duration::as_secs_f64).collect::<Vec<_>>()));

    if !drained {
        problems.push(format!("exceeded the budget of {EVENT_BUDGET} events"));
    }
    if !ssi.all_done() {
        problems.push("a task did not finish".to_string());
    }
    let invariants = catch_unwind(AssertUnwindSafe(|| check_asvm_invariants(&ssi)));
    if invariants.is_err() {
        problems.push("ASVM invariants violated at quiescence".to_string());
    }
    if probe.accesses.get() != planned {
        problems.push(format!(
            "issued {} accesses, inputs call for {planned}",
            probe.accesses.get()
        ));
    }
    // A run that broke counts every access as failed; otherwise only the
    // reads the model forbids do.
    let bad_reads = probe.bad_reads.get();
    let failed = if problems.is_empty() {
        bad_reads
    } else {
        planned
    };
    if bad_reads > 0 {
        problems.push(format!(
            "{bad_reads} reads returned a value the model forbids"
        ));
    }

    let end = placed
        .iter()
        .filter_map(|&(n, t)| ssi.node(n).task_finished(t))
        .max()
        .unwrap_or(start);
    let events = ssi.world.events_processed() - events0;
    let sim = SimCounts::read(&ssi, start, end, &probe, events, pages);
    if let Some(t) = &mut trace {
        t.program_ns = probe.program_ns.get();
    }
    Rep {
        setup_s,
        host_s,
        ref_s,
        sim,
        attempted: planned,
        failed,
        problems,
        trace,
    }
}
