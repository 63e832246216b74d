//! The cluster node: kernel VM + coherence engine + pagers + task driver,
//! bound to the simulation event loop.
//!
//! Protocol work is delegated to the node's [`CoherenceEngine`]; everything
//! the engine wants done comes back as [`EngineFx`] and flows through one
//! interpreter (`ClusterNode::interpret`), which is the only place that
//! chooses transports, routes pager traffic, counts per-message-kind
//! statistics and records the protocol trace.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use asvm::{AsvmMsg, AsvmNode, FrameBody, LinkReceiver, LinkSender, RetryConfig, TimeoutVerdict};
use machvm::{
    Access, EmmiToKernel, EmmiToPager, Inherit, MemObjId, PageData, TaskId, VmEffect, VmObjId,
    VmSystem,
};
use pager::{DefaultPager, FilePager, PagerIn};
use svmsim::{Ctx, Dur, NodeBehavior, NodeId, NodeKind, Time, TraceRing};
use transport::Transport;
use xmm::{XmmBacking, XmmNode};

use crate::engine::{CoherenceEngine, EngineEffect, EngineFx, ProtoEvent, ProtocolMsg, TraceDir};
use crate::msg::{ForkEntry, ForkMsg, Msg, ObjInfo};
use crate::program::{Program, Step, TaskEnv};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskStatus {
    Running,
    WaitingFault,
    WaitingBarrier(u32),
    WaitingFork,
    WaitingLock,
    Done,
}

/// A child-side fork waiting for its copy notifications to settle.
struct DeferredFork {
    child: TaskId,
    program: Box<dyn Program>,
    waiting: std::collections::BTreeSet<MemObjId>,
    parent_node: NodeId,
    parent_task: TaskId,
}

/// One (re)transmission of an ASVM frame on the retry channel. The body
/// holds one subframe on the classic path and the whole coalesced batch
/// when [`asvm::CoalesceCfg`] is enabled — either way it is one sequenced
/// ARQ unit.
struct FrameTx {
    seq: u64,
    body: FrameBody,
    payload: u32,
    kind: &'static str,
    timeout: Dur,
}

/// One ASVM frame that exhausted its retries: the link is considered
/// dead and the failure is surfaced instead of hanging the protocol.
#[derive(Clone, Copy, Debug)]
pub struct LinkFailure {
    /// The unreachable peer.
    pub peer: NodeId,
    /// Sequence number of the abandoned frame.
    pub seq: u64,
    /// Statistics key of the abandoned protocol message.
    pub kind: &'static str,
    /// When the sender gave up.
    pub at: Time,
}

struct TaskState {
    program: Box<dyn Program>,
    repeat: Option<Step>,
    status: TaskStatus,
    last_read: Option<u64>,
    started: Time,
    finished: Option<Time>,
}

/// One node of the simulated multicomputer.
pub struct ClusterNode {
    /// This node's id.
    pub id: NodeId,
    /// The kernel VM system.
    pub vm: VmSystem,
    /// The coherence engine (ASVM or XMM behind one trait).
    pub engine: Box<dyn CoherenceEngine>,
    /// File pager (I/O nodes only).
    pub file_pager: Option<FilePager>,
    /// Default pager (I/O nodes only).
    pub default_pager: Option<DefaultPager>,
    tasks: BTreeMap<TaskId, TaskState>,
    /// Barrier coordination (node 0 only).
    pub barrier_parties: u32,
    barrier_counts: BTreeMap<u32, u32>,
    barrier_waiting: BTreeMap<u32, Vec<TaskId>>,
    next_mobj: u32,
    next_pseudo_task: u32,
    deferred_forks: Vec<DeferredFork>,
    /// Tasks waiting for a range-lock grant, keyed by (object, range).
    lock_waiters: BTreeMap<(MemObjId, u32, u32), TaskId>,
    /// Transport carrying ASVM protocol messages (STS by default; NORMA
    /// for the transport ablation — the state machines are identical).
    pub asvm_transport: Transport,
    /// Tasks that have finished on this node.
    pub tasks_done: u32,
    /// Protocol event trace, recorded only when installed
    /// ([`crate::Ssi::enable_trace`]).
    pub trace: Option<TraceRing<ProtoEvent>>,
    /// Retry/timeout policy of the ASVM frame channel (used only while
    /// the machine's fault plan is active).
    pub retry_cfg: RetryConfig,
    /// Sender halves of the per-peer ASVM retry channels. Each sequenced
    /// unit is a [`FrameBody`]: a singleton on the classic path, a whole
    /// coalesced batch when coalescing is on.
    link_tx: BTreeMap<NodeId, LinkSender<FrameBody>>,
    /// Receiver halves of the per-peer ASVM retry channels.
    link_rx: BTreeMap<NodeId, LinkReceiver<FrameBody>>,
    /// Message coalescing configuration (default off; set by the harness
    /// through [`ClusterNode::set_coalesce`]).
    coalesce: asvm::CoalesceCfg,
    /// Per-destination frame combiner, drained at the end of every
    /// scheduling step while coalescing is enabled.
    combiner: asvm::FrameCombiner,
    /// Peers this node already paid one-time link setup for (RDMA queue
    /// pair + memory registration; empty on connectionless backends).
    rdma_links: BTreeSet<NodeId>,
    /// Frames abandoned after retry exhaustion, in order of occurrence.
    pub link_failures: Vec<LinkFailure>,
    /// Failure detector: when each compute peer was last heard from
    /// (heartbeat arrivals; lazily baselined at our first tick).
    last_heard: BTreeMap<NodeId, Time>,
    /// Compute peers this node currently suspects dead.
    pub suspects: BTreeSet<NodeId>,
    /// Peers that announced graceful completion — silence from them is
    /// expected, not evidence.
    farewelled: BTreeSet<NodeId>,
    /// Drained [`EngineFx`] shells reused across engine calls, so the
    /// per-message hot path allocates nothing in steady state. A pool
    /// (not a single slot) because `interpret` re-enters through
    /// `fault_completed`.
    fx_pool: Vec<EngineFx>,
    /// Drained VM-effect sinks (same recycling discipline).
    effects_pool: Vec<machvm::Effects>,
    /// Drained drain-loop work queues.
    vmq_pool: Vec<VecDeque<machvm::Effects>>,
}

/// Failure-detector beacon period (active fault plans only).
const HB_PERIOD: Dur = Dur::from_millis(5);
/// Silence beyond this (8 missed beacons) turns into suspicion. Generous
/// against 10% loss: eight consecutive independent drops have probability
/// 1e-8 per peer-window.
const HB_SUSPECT_AFTER: Dur = Dur::from_millis(40);

impl ClusterNode {
    /// Builds a node.
    pub fn new(
        id: NodeId,
        vm: VmSystem,
        engine: Box<dyn CoherenceEngine>,
        kind: NodeKind,
        page_size: u32,
    ) -> Self {
        let (file_pager, default_pager) = match kind {
            NodeKind::Io => (
                Some(FilePager::new(page_size)),
                Some(DefaultPager::new(page_size, 1 << 40)),
            ),
            NodeKind::Compute => (None, None),
        };
        ClusterNode {
            id,
            vm,
            engine,
            file_pager,
            default_pager,
            tasks: BTreeMap::new(),
            barrier_parties: 0,
            barrier_counts: BTreeMap::new(),
            barrier_waiting: BTreeMap::new(),
            next_mobj: 1,
            next_pseudo_task: 1,
            deferred_forks: Vec::new(),
            lock_waiters: BTreeMap::new(),
            asvm_transport: Transport::STS,
            tasks_done: 0,
            trace: None,
            retry_cfg: RetryConfig::default(),
            link_tx: BTreeMap::new(),
            link_rx: BTreeMap::new(),
            coalesce: asvm::CoalesceCfg::default(),
            combiner: asvm::FrameCombiner::default(),
            rdma_links: BTreeSet::new(),
            link_failures: Vec::new(),
            last_heard: BTreeMap::new(),
            suspects: BTreeSet::new(),
            farewelled: BTreeSet::new(),
            fx_pool: Vec::new(),
            effects_pool: Vec::new(),
            vmq_pool: Vec::new(),
        }
    }

    /// The ASVM instance, if this node runs ASVM.
    pub fn asvm(&self) -> Option<&AsvmNode> {
        self.engine.as_asvm()
    }

    /// Mutable ASVM instance, if this node runs ASVM.
    pub fn asvm_mut(&mut self) -> Option<&mut AsvmNode> {
        self.engine.as_asvm_mut()
    }

    /// The XMM instance, if this node runs XMM.
    pub fn xmm(&self) -> Option<&XmmNode> {
        self.engine.as_xmm()
    }

    /// Mutable XMM instance, if this node runs XMM.
    pub fn xmm_mut(&mut self) -> Option<&mut XmmNode> {
        self.engine.as_xmm_mut()
    }

    /// Installs a task with its program (does not start it; post a
    /// [`Msg::Resume`] to kick it off).
    pub fn install_task(&mut self, task: TaskId, program: Box<dyn Program>, now: Time) {
        if !self.vm.has_task(task) {
            self.vm.create_task(task);
        }
        self.tasks.insert(
            task,
            TaskState {
                program,
                repeat: None,
                status: TaskStatus::Running,
                last_read: None,
                started: now,
                finished: None,
            },
        );
    }

    /// True if every installed task has finished.
    pub fn all_tasks_done(&self) -> bool {
        self.tasks.values().all(|t| t.status == TaskStatus::Done)
    }

    /// Completion time of `task`, if it finished.
    pub fn task_finished(&self, task: TaskId) -> Option<Time> {
        self.tasks.get(&task).and_then(|t| t.finished)
    }

    /// Wall-clock runtime of `task` (install to finish), if it finished.
    pub fn task_runtime(&self, task: TaskId) -> Option<svmsim::Dur> {
        let t = self.tasks.get(&task)?;
        Some(t.finished?.since(t.started))
    }

    /// Allocates a runtime memory object id unique to this node.
    fn alloc_mobj(&mut self) -> MemObjId {
        let m = MemObjId(((self.id.0 as u32 + 1) << 20) | self.next_mobj);
        self.next_mobj += 1;
        m
    }

    fn alloc_pseudo_task(&mut self) -> TaskId {
        let t = TaskId(0x8000_0000 | ((self.id.0 as u32) << 16) | self.next_pseudo_task);
        self.next_pseudo_task += 1;
        t
    }

    // --- The effect interpreter --------------------------------------------

    /// Records a protocol event if a trace ring is installed.
    fn record_trace(&mut self, now: Time, dir: TraceDir, peer: NodeId, msg: &ProtocolMsg) {
        if let Some(ring) = &mut self.trace {
            ring.push(ProtoEvent {
                time: now,
                node: self.id,
                peer,
                dir,
                kind: msg.stat_key(),
                mobj: msg.mobj(),
                page: msg.page(),
            });
        }
    }

    /// [`ClusterNode::record_trace`] for a bare ASVM message — used where
    /// subframes of a coalesced frame are traced individually without
    /// rebuilding a `ProtocolMsg` per subframe.
    fn record_trace_asvm(&mut self, now: Time, dir: TraceDir, peer: NodeId, msg: &AsvmMsg) {
        if let Some(ring) = &mut self.trace {
            ring.push(ProtoEvent {
                time: now,
                node: self.id,
                peer,
                dir,
                kind: msg.stat_key(),
                mobj: msg.mobj(),
                page: msg.page(),
            });
        }
    }

    /// Installs the coalescing configuration (harness setup, before any
    /// traffic), sizing the combiner to the configured frame capacity.
    pub fn set_coalesce(&mut self, cfg: asvm::CoalesceCfg) {
        self.coalesce = cfg;
        self.combiner = asvm::FrameCombiner::new(cfg.max_subframes);
    }

    /// The single pager-request send site: every EMMI request to a real
    /// pager — manager-issued or anonymous-memory — leaves through here,
    /// tagged with its per-call-kind counter.
    fn send_pager_req(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pager_node: NodeId,
        reply_to: NodeId,
        mobj: MemObjId,
        obj: VmObjId,
        call: EmmiToPager,
    ) {
        let payload = pager_payload(&call, self.vm.page_size());
        let kind = call.stat_key();
        let pin = PagerIn {
            from_node: reply_to,
            obj,
            mobj,
            call,
        };
        Transport::NORMA.send_tagged(ctx, pager_node, payload, kind, Msg::PagerReq(pin));
    }

    /// Sends one protocol message, choosing the transport and counting the
    /// per-message-kind statistic.
    fn send_protocol(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId, msg: ProtocolMsg) {
        self.record_trace(ctx.now(), TraceDir::Send, dst, &msg);
        let ps = self.vm.page_size();
        let payload = msg.payload_bytes(ps);
        let kind = msg.stat_key();
        match msg {
            ProtocolMsg::Asvm { from, msg } => {
                // Remote sends take, in order of preference: a one-sided
                // read posting (RDMA backend, eligible request), the frame
                // combiner (coalescing enabled — buffered per destination
                // and flushed as one wire frame per peer at the end of
                // this scheduling step), the per-link retry channel (an
                // active fault plan, on backends whose reliability is in
                // software), or the classic direct path, byte-identical
                // to pre-fault builds. Loopback always goes direct. NORMA
                // (XMMI, EMMI, fork) stays on the reliable path in all
                // cases — it models Mach's guaranteed kernel-to-kernel
                // IPC.
                if dst != self.id
                    && self.asvm_transport.one_sided_reads()
                    && msg.one_sided_read_candidate(self.id)
                {
                    // Post the read as a one-sided pull: header-only on
                    // the wire, served by the target's NIC with zero host
                    // occupancy there. Travels the fault seam un-ARQ'd —
                    // a lost posting stalls only the requester, whose
                    // watchdog re-issues it (marked `recovering`, which
                    // forces the two-sided path on the retry).
                    self.charge_link_setup(ctx, dst);
                    if msg.is_speculative_req() {
                        // Speculative reads ride the same one-sided path;
                        // the counter keeps the prefetcher's share of NIC
                        // traffic visible.
                        ctx.stats().bump("transport.rdma.prefetch_read");
                    }
                    self.asvm_transport
                        .send_one_sided(ctx, dst, kind, || Msg::RdmaRead {
                            from,
                            msg: msg.clone(),
                        });
                } else if dst != self.id
                    && self.coalesce_enabled_for(msg.mobj())
                    && self.asvm_transport.supports_coalescing()
                {
                    if let Some(full) = self.combiner.push(dst, msg) {
                        // Frame hit its subframe capacity: send it now so
                        // order is preserved.
                        self.send_frame_body(ctx, dst, full);
                    }
                } else if dst != self.id
                    && ctx.machine().config.faults.is_active()
                    && self.asvm_transport.per_link_arq()
                {
                    let body = FrameBody::single(msg);
                    let seq =
                        self.link_tx
                            .entry(dst)
                            .or_default()
                            .enqueue(body.clone(), payload, kind);
                    let timeout = self.retry_cfg.timeout_for(0);
                    self.transmit_frame(
                        ctx,
                        dst,
                        FrameTx {
                            seq,
                            body,
                            payload,
                            kind,
                            timeout,
                        },
                    );
                } else {
                    // Two-sided control traffic on a fabric-reliable
                    // backend (`per_link_arq() == false`) also lands
                    // here under an active fault plan: hardware
                    // retransmission makes the link lossless, so it
                    // takes the reliable path by construction.
                    if dst != self.id {
                        self.charge_link_setup(ctx, dst);
                    }
                    self.asvm_transport.send_tagged(
                        ctx,
                        dst,
                        payload,
                        kind,
                        Msg::Asvm { from, msg },
                    );
                }
            }
            ProtocolMsg::Xmm(m) => {
                Transport::NORMA.send_tagged(ctx, dst, payload, kind, Msg::Xmm(m));
            }
        }
    }

    /// Whether protocol sends for `mobj` should go through the frame
    /// combiner: the object's own configuration where the engine has one
    /// (so per-object overrides and runtime policy switches take effect),
    /// the node-level default otherwise (XMM, or an object not registered
    /// here). Identical to the node-level switch whenever every object was
    /// registered with the cluster-wide configuration.
    fn coalesce_enabled_for(&self, mobj: MemObjId) -> bool {
        match self.engine.as_asvm().and_then(|a| a.object_cfg(mobj)) {
            Some(cfg) => cfg.coalesce.enabled,
            None => self.coalesce.enabled,
        }
    }

    /// Charges the backend's one-time per-peer link setup (queue pair
    /// creation + memory registration) on first contact with `dst`. Free
    /// on the connectionless Paragon transports, so the classic paths are
    /// untouched.
    fn charge_link_setup(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId) {
        let setup = self
            .asvm_transport
            .link_setup_cpu(&ctx.machine().config.cost);
        if setup.is_zero() || !self.rdma_links.insert(dst) {
            return;
        }
        ctx.stats().bump("transport.rdma.link_setup");
        ctx.charge_msg_cpu(setup);
    }

    /// Resolves a one-sided read after the engine processed it.
    ///
    /// The NIC can complete the read by itself exactly when the engine's
    /// entire answer is one plain copy-grant back to the requester (no
    /// ownership handover, no forwarding hop, no pager dispatch, no
    /// invalidation fan-out). In that case the host's protocol-handler
    /// CPU is cancelled — the request was served out of registered memory
    /// without this node's event handler running — and the grant leaves
    /// as a zero-send-CPU [`Msg::RdmaReadReply`]. Any VM work the engine
    /// queued (downgrading a writable mapping so the registered copy is
    /// stable) still runs on the host *before* the reply departs: DMA
    /// cannot outrun the shootdown.
    ///
    /// Every other outcome falls back to the two-sided path: the NIC
    /// raises the request to the host (charging the interrupt-driven
    /// receive cost its delivery envelope skipped) and the effects are
    /// interpreted normally, so protocol state stays identical across
    /// backends.
    fn finish_rdma_read(&mut self, ctx: &mut Ctx<'_, Msg>, requester: NodeId, fx: &mut EngineFx) {
        let nic_served = fx.out.len() == 1
            && matches!(
                &fx.out[0],
                EngineEffect::Protocol {
                    dst,
                    msg: ProtocolMsg::Asvm {
                        msg: AsvmMsg::Grant {
                            ownership: false,
                            pull_snapshot: false,
                            ..
                        },
                        ..
                    },
                } if *dst == requester
            );
        if !nic_served {
            ctx.stats().bump("transport.rdma.read_fallback");
            let recv = ctx.machine().config.cost.rdma_ctrl_recv_cpu;
            ctx.charge_msg_cpu(recv);
            self.run_fx(ctx, fx);
            return;
        }
        let Some(EngineEffect::Protocol { dst, msg: pm }) = fx.out.pop() else {
            unreachable!("nic_served matched a single Protocol effect");
        };
        fx.cpu = Dur::ZERO;
        ctx.stats().bump("transport.rdma.read_served");
        // Drain the residual effects first (hint bumps, the mapping
        // downgrade): the reply may not depart before the host finished
        // making the page stable.
        self.run_fx(ctx, fx);
        self.record_trace(ctx.now(), TraceDir::Send, dst, &pm);
        let ProtocolMsg::Asvm { from, msg } = pm else {
            unreachable!("nic_served matched an ASVM grant");
        };
        let payload = msg.payload_bytes(self.vm.page_size());
        let kind = msg.stat_key();
        let transport = self.asvm_transport;
        transport.send_one_sided_reply(ctx, dst, payload, kind, || Msg::RdmaReadReply {
            from,
            msg: msg.clone(),
        });
    }

    /// Puts one (re)transmission of frame `seq` on the lossy wire and arms
    /// its retry timer. With coalescing off the wire format is the classic
    /// single-message [`Msg::AsvmFrame`] (byte-identical to pre-coalescing
    /// builds); with it on, the whole body travels as one
    /// [`Msg::AsvmBatchFrame`] — one fault decision, one sequence number.
    fn transmit_frame(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId, frame: FrameTx) {
        let from = self.id;
        let FrameTx {
            seq,
            body,
            payload,
            kind,
            timeout,
        } = frame;
        // Wire-format choice: a body that actually coalesced anything —
        // several subframes, or piggybacked hints — must travel as a
        // batch frame even when the node-level switch is off (per-object
        // coalescing). With everything off, bodies are always hint-less
        // singletons and the classic format is byte-identical to
        // pre-coalescing builds.
        if self.coalesce.enabled || body.subframes() > 1 || !body.hints.is_empty() {
            let subframes = body.subframes();
            self.asvm_transport
                .send_coalesced_lossy(ctx, dst, subframes, payload, || Msg::AsvmBatchFrame {
                    from,
                    seq,
                    body: body.clone(),
                });
        } else {
            let msg = &body.msgs[0];
            self.asvm_transport
                .send_lossy(ctx, dst, payload, kind, || Msg::AsvmFrame {
                    from,
                    seq,
                    msg: msg.clone(),
                });
        }
        let at = ctx.now() + timeout;
        ctx.post_self(at, Msg::RetryTick { dst, seq });
    }

    /// Sends one coalesced frame body to `dst`: attaches piggybacked
    /// owner hints, counts the logical per-kind and `asvm.coalesce.*`
    /// statistics, and puts the frame on the wire — through the ARQ
    /// channel as one sequenced unit when the fault plan is active,
    /// directly otherwise.
    fn send_frame_body(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId, mut body: FrameBody) {
        // Every data/ack subframe piggybacks the sender's current owner
        // view for its page, so the receiver's dynamic hint cache stays
        // warm without dedicated OwnerHint traffic. Computed at flush
        // time — after the engine finished handling the event — so the
        // hints reflect post-transition truth. Telling the destination
        // about itself is useless; skip those.
        if self.coalesce.piggyback_hints {
            if let Some(eng) = self.engine.as_asvm() {
                let mut hints = Vec::new();
                for m in &body.msgs {
                    if !(m.carries_data() || m.is_ack_class()) {
                        continue;
                    }
                    if let Some(page) = m.page() {
                        let mobj = m.mobj();
                        if let Some(owner) = eng.owner_view(mobj, page) {
                            if owner != dst {
                                hints.push((mobj, page, owner));
                            }
                        }
                    }
                }
                for h in hints {
                    body.push_hint(h);
                }
                // Prefetch hint tier: beyond the pages this frame already
                // addresses, attach the sender's owner view for the pages
                // it predicts `dst` will fault on *next* (per-peer demand
                // stream detector), so the peer's dynamic hint cache is
                // warm before the fault even happens. Zero extra frames —
                // only hint bytes on a frame already flowing.
                let mut window = Vec::new();
                let mut seen: Vec<MemObjId> = Vec::new();
                for m in &body.msgs {
                    let mobj = m.mobj();
                    if seen.contains(&mobj) {
                        continue;
                    }
                    seen.push(mobj);
                    eng.prefetch_hint_window(mobj, dst, &mut window);
                }
                if !window.is_empty() {
                    ctx.stats().add("asvm.prefetch.hint", window.len() as u64);
                    for h in window {
                        body.push_hint(h);
                    }
                }
            }
        }
        let ps = self.vm.page_size();
        let payload = body.payload_bytes(ps);
        let subframes = body.subframes();
        // Logical accounting is per *subframe* — the asvm.msg.* counters
        // mean the same thing with coalescing on or off. The frame itself
        // and the coalescing wins get their own counters; messages per
        // fault is (Σ asvm.msg.* − merged) / faults.completed.
        for m in &body.msgs {
            ctx.stats().bump(m.stat_key());
        }
        ctx.stats().bump("asvm.frames");
        if subframes > 1 {
            ctx.stats()
                .add("asvm.coalesce.merged", (subframes - 1) as u64);
        }
        let acks = body.acks_riding_data();
        if acks > 0 {
            ctx.stats().add("asvm.coalesce.piggyback_ack", acks as u64);
        }
        if !body.hints.is_empty() {
            ctx.stats()
                .add("asvm.coalesce.piggyback_hint", body.hints.len() as u64);
        }
        let from = self.id;
        if ctx.machine().config.faults.is_active() {
            let kind = body.msgs[0].stat_key();
            let seq = self
                .link_tx
                .entry(dst)
                .or_default()
                .enqueue(body.clone(), payload, kind);
            let timeout = self.retry_cfg.timeout_for(0);
            self.transmit_frame(
                ctx,
                dst,
                FrameTx {
                    seq,
                    body,
                    payload,
                    kind,
                    timeout,
                },
            );
        } else {
            self.asvm_transport.send_coalesced(
                ctx,
                dst,
                subframes,
                payload,
                Msg::AsvmBatch { from, body },
            );
        }
    }

    /// Drains the frame combiner at the end of a scheduling step: one
    /// coalesced frame per destination, in destination order.
    fn flush_coalesced(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.combiner.is_empty() {
            return;
        }
        for (dst, body) in self.combiner.drain() {
            self.send_frame_body(ctx, dst, body);
        }
    }

    /// Delivers one arriving frame body: applies piggybacked owner hints
    /// (first — a subframe carrying fresher truth overwrites them), then
    /// handles every subframe in order, exactly like the equivalent
    /// sequence of singleton frames.
    fn deliver_body(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, body: FrameBody) {
        if !body.hints.is_empty() {
            if let Some(eng) = self.engine.as_asvm_mut() {
                let mut applied = 0u64;
                for (mobj, page, owner) in &body.hints {
                    if eng.apply_owner_hint(*mobj, *page, *owner) {
                        applied += 1;
                    }
                }
                if applied > 0 {
                    ctx.stats().add("asvm.coalesce.hint_applied", applied);
                }
            }
        }
        for m in body.msgs {
            let pm = ProtocolMsg::Asvm { from, msg: m };
            self.record_trace(ctx.now(), TraceDir::Recv, from, &pm);
            let mut fx = self.take_fx();
            self.engine
                .handle_protocol(ctx.now(), &mut self.vm, pm, &mut fx);
            self.run_fx(ctx, &mut fx);
            self.put_fx(fx);
        }
    }

    /// Handles a sender-side retry timer firing for frame `seq` to `dst`.
    fn on_retry_tick(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId, seq: u64) {
        let cfg = self.retry_cfg;
        let verdict = self.link_tx.entry(dst).or_default().on_timeout(seq, &cfg);
        match verdict {
            TimeoutVerdict::Stale => {}
            TimeoutVerdict::Resend {
                msg: body,
                payload,
                kind,
                next_timeout,
            } => {
                ctx.stats().bump("asvm.retry.timeout");
                ctx.stats().bump("asvm.retry.resent");
                let now = ctx.now();
                for m in &body.msgs {
                    self.record_trace_asvm(now, TraceDir::Send, dst, m);
                }
                self.transmit_frame(
                    ctx,
                    dst,
                    FrameTx {
                        seq,
                        body,
                        payload,
                        kind,
                        timeout: next_timeout,
                    },
                );
            }
            TimeoutVerdict::Exhausted { kind } => {
                ctx.stats().bump("asvm.retry.exhausted");
                self.link_failures.push(LinkFailure {
                    peer: dst,
                    seq,
                    kind,
                    at: ctx.now(),
                });
                // Retry exhaustion is direct evidence the peer is gone —
                // stronger and often earlier than heartbeat silence.
                self.suspect_peer(ctx, dst);
            }
        }
    }

    // --- Failure detector (docs/RELIABILITY.md) -----------------------------

    /// One heartbeat/watchdog period: beacon to every compute peer over
    /// the lossy path, suspect peers silent too long, and let the engine
    /// re-issue stalled requests. Self-rescheduling while work remains;
    /// armed by the harness only when the fault plan is active.
    fn on_hb_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let me = self.id;
        let peers: Vec<NodeId> = ctx.machine().compute_nodes().filter(|n| *n != me).collect();
        for n in &peers {
            self.asvm_transport
                .send_lossy(ctx, *n, 0, "cluster.hb", || Msg::Heartbeat { from: me });
        }
        let mut newly = Vec::new();
        for n in &peers {
            if self.farewelled.contains(n) || self.suspects.contains(n) {
                continue;
            }
            // Lazily baseline at our first tick, so suspicion always
            // means "silent for the full window while we listened". Not
            // `now.since(at)`: arrival stamps carry receive-side CPU
            // charges, so they can sit slightly past this tick's delivery
            // time.
            let at = *self.last_heard.entry(*n).or_insert(now);
            if now > at + HB_SUSPECT_AFTER {
                newly.push(*n);
            }
        }
        for n in newly {
            self.suspect_peer(ctx, n);
        }
        let mut fx = self.take_fx();
        self.engine.on_watchdog(now, &mut self.vm, &mut fx);
        self.run_fx(ctx, &mut fx);
        self.put_fx(fx);
        if !self.all_tasks_done() {
            // The beacons and watchdog work above can run this tick's CPU
            // past its next period (many peers on a slow transport); the
            // next tick then starts as soon as this one ends.
            ctx.post_self((now + HB_PERIOD).max(ctx.now()), Msg::HbTick);
        }
    }

    /// Marks `peer` suspected and lets the engine unwind everything that
    /// waits on it. Idempotent.
    fn suspect_peer(&mut self, ctx: &mut Ctx<'_, Msg>, peer: NodeId) {
        if peer == self.id || !self.suspects.insert(peer) {
            return;
        }
        ctx.stats().bump("cluster.suspect.count");
        if let Some(ring) = &mut self.trace {
            ring.push(ProtoEvent {
                time: ctx.now(),
                node: self.id,
                peer,
                dir: TraceDir::Recv,
                kind: "cluster.suspect",
                mobj: MemObjId(0),
                page: None,
            });
        }
        let mut fx = self.take_fx();
        self.engine
            .peer_suspected(ctx.now(), &mut self.vm, peer, &mut fx);
        self.run_fx(ctx, &mut fx);
        self.put_fx(fx);
    }

    /// Interprets one engine effect batch in place: charges CPU, performs
    /// the sends and completions in order, and queues the VM effects for
    /// draining. The sink comes back drained (vector capacities intact)
    /// so the caller can return it to the shell pool.
    fn interpret(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        fx: &mut EngineFx,
        q: &mut VecDeque<machvm::Effects>,
    ) {
        if !fx.cpu.is_zero() {
            ctx.charge_msg_cpu(fx.cpu);
            fx.cpu = Dur::ZERO;
        }
        for k in fx.bumps.drain(..) {
            ctx.stats().bump(k);
        }
        for eff in fx.out.drain(..) {
            match eff {
                EngineEffect::Pager {
                    pager_node,
                    reply_to,
                    mobj,
                    obj,
                    call,
                } => self.send_pager_req(ctx, pager_node, reply_to, mobj, obj, call),
                EngineEffect::Protocol { dst, msg } => self.send_protocol(ctx, dst, msg),
                EngineEffect::CopySettled(mobj) => self.copy_settled(ctx, mobj),
                EngineEffect::LockGranted(mobj, range) => {
                    let key = (mobj, range.first.0, range.count);
                    if let Some(task) = self.lock_waiters.remove(&key) {
                        if let Some(st) = self.tasks.get_mut(&task) {
                            if st.status == TaskStatus::WaitingLock {
                                st.status = TaskStatus::Running;
                            }
                        }
                        let now = ctx.now();
                        ctx.post_self(now, Msg::Resume(task));
                    }
                }
            }
        }
        let vm = std::mem::replace(&mut fx.vm, self.effects_pool.pop().unwrap_or_default());
        q.push_back(vm);
    }

    /// A drained [`EngineFx`] shell to write the next engine call into.
    fn take_fx(&mut self) -> EngineFx {
        self.fx_pool.pop().unwrap_or_default()
    }

    /// Returns a drained shell to the pool.
    fn put_fx(&mut self, fx: EngineFx) {
        debug_assert!(fx.out.is_empty() && fx.bumps.is_empty() && fx.cpu.is_zero());
        self.fx_pool.push(fx);
    }

    /// A recycled empty VM-effect sink (capacity retained from prior use).
    fn take_effects(&mut self) -> machvm::Effects {
        self.effects_pool.pop().unwrap_or_default()
    }

    /// Interprets an effect batch and drains everything it triggers.
    fn run_fx(&mut self, ctx: &mut Ctx<'_, Msg>, fx: &mut EngineFx) {
        let mut q = self.vmq_pool.pop().unwrap_or_default();
        self.interpret(ctx, fx, &mut q);
        self.drain_queue(ctx, &mut q);
        self.vmq_pool.push(q);
    }

    /// Processes a batch of VM effects (and everything they trigger) to
    /// completion.
    fn drain(&mut self, ctx: &mut Ctx<'_, Msg>, first: machvm::Effects) {
        let mut q = self.vmq_pool.pop().unwrap_or_default();
        q.push_back(first);
        self.drain_queue(ctx, &mut q);
        self.vmq_pool.push(q);
    }

    fn drain_queue(&mut self, ctx: &mut Ctx<'_, Msg>, q: &mut VecDeque<machvm::Effects>) {
        while let Some(mut fx) = q.pop_front() {
            if !fx.cpu.is_zero() {
                ctx.charge_msg_cpu(fx.cpu);
                fx.cpu = Dur::ZERO;
            }
            for eff in fx.out.drain(..) {
                self.apply_vm_effect(ctx, eff, q);
            }
            self.effects_pool.push(fx);
        }
    }

    fn apply_vm_effect(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        eff: VmEffect,
        q: &mut VecDeque<machvm::Effects>,
    ) {
        match eff {
            VmEffect::FaultDone {
                task,
                fault,
                started,
            } => {
                let latency = ctx.now().since(started);
                ctx.stats().sample("fault.ms", latency);
                ctx.stats().record("fault.latency", latency);
                ctx.stats().bump("faults.completed");
                let mut fx = self.take_fx();
                if self
                    .engine
                    .fault_completed(ctx.now(), &mut self.vm, task, fault, &mut fx)
                {
                    self.interpret(ctx, &mut fx, q);
                } else {
                    let now = ctx.now();
                    ctx.post_self(now, Msg::Resume(task));
                }
                self.put_fx(fx);
            }
            VmEffect::ToPager { obj, backing, call } => match backing {
                machvm::Backing::External(mobj) => {
                    if self.engine.mobj_of(obj).is_none() {
                        panic!("EMMI for unmanaged external object {obj:?} ({mobj:?})");
                    }
                    let mut fx = self.take_fx();
                    self.engine
                        .handle_emmi(ctx.now(), &mut self.vm, obj, call, &mut fx);
                    self.interpret(ctx, &mut fx, q);
                    self.put_fx(fx);
                }
                machvm::Backing::Anonymous => {
                    // Node-private anonymous memory pages out to the default
                    // pager on this node's I/O node.
                    let io = ctx.machine().io_node_for(self.id);
                    let me = self.id;
                    self.send_pager_req(ctx, io, me, MemObjId(0), obj, call);
                }
            },
            VmEffect::CopyCreated { source, .. } => {
                let mut fx = self.take_fx();
                self.engine
                    .copy_created(ctx.now(), &mut self.vm, source, &mut fx);
                self.interpret(ctx, &mut fx, q);
                self.put_fx(fx);
            }
            VmEffect::EvictExternal {
                obj,
                page,
                data,
                dirty,
                ..
            } => {
                let mut fx = self.take_fx();
                self.engine
                    .handle_evict(ctx.now(), &mut self.vm, obj, page, data, dirty, &mut fx);
                self.interpret(ctx, &mut fx, q);
                self.put_fx(fx);
            }
        }
    }

    /// A copy notification settled: release any fork waiting on it.
    fn copy_settled(&mut self, ctx: &mut Ctx<'_, Msg>, mobj: MemObjId) {
        let mut ready = Vec::new();
        for df in &mut self.deferred_forks {
            df.waiting.remove(&mobj);
            if df.waiting.is_empty() {
                ready.push(df.child);
            }
        }
        let done: Vec<DeferredFork> = {
            let mut rest = Vec::new();
            let mut done = Vec::new();
            for df in self.deferred_forks.drain(..) {
                if ready.contains(&df.child) {
                    done.push(df);
                } else {
                    rest.push(df);
                }
            }
            self.deferred_forks = rest;
            done
        };
        for df in done {
            self.complete_fork(ctx, df);
        }
    }

    /// Installs the child task and tells the parent its fork returned.
    fn complete_fork(&mut self, ctx: &mut Ctx<'_, Msg>, df: DeferredFork) {
        self.install_task(df.child, df.program, ctx.now());
        let now = ctx.now();
        ctx.post_self(now, Msg::Resume(df.child));
        Transport::NORMA.send(
            ctx,
            df.parent_node,
            0,
            Msg::ForkDone {
                parent_task: df.parent_task,
            },
        );
    }

    // --- Task driver ----------------------------------------------------------

    fn run_task(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId) {
        loop {
            let Some(st) = self.tasks.get_mut(&task) else {
                return;
            };
            if st.status != TaskStatus::Running {
                return;
            }
            let step = match st.repeat.take() {
                Some(s) => s,
                None => {
                    let mut env = TaskEnv {
                        task,
                        node: self.id,
                        now: ctx.now(),
                        last_read: st.last_read,
                    };
                    st.program.step(&mut env)
                }
            };
            match step {
                Step::Compute(d) => {
                    let done = ctx.charge_compute(d);
                    ctx.post_self(done, Msg::Resume(task));
                    return;
                }
                Step::Touch { va_page, access } => {
                    if !self.ensure_access(
                        ctx,
                        task,
                        va_page,
                        access,
                        Step::Touch { va_page, access },
                    ) {
                        return;
                    }
                }
                Step::Read { va_page } => {
                    // Fused access-check + read: one translation walk on the
                    // (overwhelmingly common) hit path instead of two.
                    if let Some(data) = self.vm.try_read_page(ctx.now(), task, va_page) {
                        self.tasks.get_mut(&task).unwrap().last_read = Some(data.word());
                        self.note_hit_access(ctx, task, va_page, false);
                    } else if self.fault_for(
                        ctx,
                        task,
                        va_page,
                        Access::Read,
                        Step::Read { va_page },
                    ) {
                        // The fault resolved locally (zero-fill / copy-up).
                        let v = self.vm.read_page(ctx.now(), task, va_page).word();
                        self.tasks.get_mut(&task).unwrap().last_read = Some(v);
                    } else {
                        return;
                    }
                }
                Step::Write { va_page, value } => {
                    if self
                        .vm
                        .try_write_page(ctx.now(), task, va_page, PageData::Word(value))
                    {
                        self.note_hit_access(ctx, task, va_page, true);
                    } else {
                        if !self.fault_for(
                            ctx,
                            task,
                            va_page,
                            Access::Write,
                            Step::Write { va_page, value },
                        ) {
                            return;
                        }
                        self.vm
                            .write_page(ctx.now(), task, va_page, PageData::Word(value));
                    }
                }
                Step::LockRange { va_page, pages } => {
                    let (mobj, range) = self.resolve_range(task, va_page, pages);
                    let me = self.id;
                    let mut afx = asvm::Fx::new();
                    self.engine
                        .as_asvm_mut()
                        .expect("range locks require an ASVM cluster")
                        .lock_range(mobj, range, &mut afx);
                    let granted = afx
                        .lock_granted
                        .iter()
                        .any(|(m, r)| *m == mobj && *r == range);
                    if !granted {
                        self.lock_waiters
                            .insert((mobj, range.first.0, range.count), task);
                        let st = self.tasks.get_mut(&task).unwrap();
                        st.status = TaskStatus::WaitingLock;
                    }
                    let mut fx = EngineFx::from_asvm(me, afx);
                    self.run_fx(ctx, &mut fx);
                    if !granted {
                        return;
                    }
                }
                Step::UnlockRange { va_page, pages } => {
                    let (mobj, range) = self.resolve_range(task, va_page, pages);
                    let me = self.id;
                    let mut afx = asvm::Fx::new();
                    self.engine
                        .as_asvm_mut()
                        .expect("range locks require an ASVM cluster")
                        .unlock_range(mobj, range, &mut afx);
                    let mut fx = EngineFx::from_asvm(me, afx);
                    self.run_fx(ctx, &mut fx);
                }
                Step::Barrier(id) => {
                    let st = self.tasks.get_mut(&task).unwrap();
                    st.status = TaskStatus::WaitingBarrier(id);
                    self.barrier_waiting.entry(id).or_default().push(task);
                    let coord = NodeId(0);
                    Transport::STS.send(ctx, coord, 0, Msg::Barrier { id });
                    return;
                }
                Step::Fork {
                    child,
                    node,
                    program,
                } => {
                    // fork() is synchronous: the parent suspends until the
                    // child's address space (and the copy notifications it
                    // triggers) settle.
                    self.fork_to(ctx, task, child, node, program);
                    let st = self.tasks.get_mut(&task).unwrap();
                    st.status = TaskStatus::WaitingFork;
                    return;
                }
                Step::Done => {
                    let st = self.tasks.get_mut(&task).unwrap();
                    st.status = TaskStatus::Done;
                    st.finished = Some(ctx.now());
                    self.tasks_done += 1;
                    ctx.stats().bump("tasks.done");
                    // Our heartbeats stop with the tick loop; a reliable
                    // farewell keeps peers from reading that as death.
                    if self.all_tasks_done()
                        && ctx.machine().config.faults.is_active()
                        && self.engine.as_asvm().is_some()
                    {
                        let me = self.id;
                        for n in ctx.machine().compute_nodes().collect::<Vec<_>>() {
                            if n != me {
                                Transport::STS.send(ctx, n, 0, Msg::Farewell { from: me });
                            }
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Tells the ASVM prefetcher about a demand access that hit in local
    /// memory (no fault): a speculative fill covering the page settles —
    /// as a prefetch hit when read, as wasted when a write clobbered it
    /// unread — and detector-gated streams top their window back up on
    /// read hits. Gated on `wants_access_notes` so runs without any
    /// prefetch-configured object pay exactly one boolean test per hit.
    fn note_hit_access(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId, va_page: u64, write: bool) {
        if !self
            .engine
            .as_asvm()
            .is_some_and(|a| a.wants_access_notes())
        {
            return;
        }
        let Some(entry) = self.vm.address_map(task).lookup(va_page) else {
            return;
        };
        let (obj, page) = (entry.object, entry.object_page(va_page));
        let me = self.id;
        let mut afx = asvm::Fx::new();
        self.engine.as_asvm_mut().unwrap().prefetch_note_access(
            ctx.now(),
            &mut self.vm,
            obj,
            page,
            write,
            &mut afx,
        );
        let mut fx = EngineFx::from_asvm(me, afx);
        self.run_fx(ctx, &mut fx);
    }

    /// Translates a task-relative page range to `(object, object range)`.
    fn resolve_range(&self, task: TaskId, va_page: u64, pages: u32) -> (MemObjId, asvm::PageRange) {
        let entry = self
            .vm
            .address_map(task)
            .lookup(va_page)
            .expect("lock range outside mappings");
        let first = entry.object_page(va_page);
        let mobj = self
            .engine
            .mobj_of(entry.object)
            .expect("range locks need a managed region");
        (
            mobj,
            asvm::PageRange {
                first,
                count: pages,
            },
        )
    }

    /// Ensures `task` can access `va_page`; on a miss, starts the fault and
    /// suspends. Returns true if the access may proceed now.
    fn ensure_access(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        task: TaskId,
        va_page: u64,
        access: Access,
        retry: Step,
    ) -> bool {
        if self.vm.can_access(task, va_page, access) {
            self.note_hit_access(ctx, task, va_page, access == Access::Write);
            return true;
        }
        self.fault_for(ctx, task, va_page, access, retry)
    }

    /// The fault half of [`ClusterNode::ensure_access`], for callers that
    /// have already established the access misses (via the fused
    /// `try_read_page`/`try_write_page` ops). Returns `true` if the fault
    /// resolved immediately and the step can proceed now.
    fn fault_for(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        task: TaskId,
        va_page: u64,
        access: Access,
        retry: Step,
    ) -> bool {
        ctx.stats().bump("faults.raised");
        let mut fx = self.take_effects();
        let outcome = self.vm.fault(ctx.now(), task, va_page, access, &mut fx);
        match outcome {
            machvm::FaultOutcome::Hit => {
                self.drain(ctx, fx);
                true
            }
            machvm::FaultOutcome::Pending(_) => {
                let st = self.tasks.get_mut(&task).unwrap();
                st.repeat = Some(retry);
                st.status = TaskStatus::WaitingFault;
                self.drain(ctx, fx);
                false
            }
        }
    }

    // --- Fork ----------------------------------------------------------------------

    fn fork_to(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        parent: TaskId,
        child: TaskId,
        node: NodeId,
        program: Box<dyn Program>,
    ) {
        ctx.stats().bump("forks");
        let entries: Vec<machvm::MapEntry> = self.vm.address_map(parent).entries().to_vec();
        let fes = if self.engine.as_asvm().is_some() {
            self.fork_entries_asvm(ctx, &entries)
        } else {
            self.fork_entries_xmm(ctx, parent, &entries)
        };
        Transport::NORMA.send(
            ctx,
            node,
            256,
            Msg::Fork(Box::new(ForkMsg {
                child,
                program,
                entries: fes,
                parent_node: self.id,
                parent_task: parent,
            })),
        );
    }

    fn fork_entries_asvm(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        entries: &[machvm::MapEntry],
    ) -> Vec<ForkEntry> {
        let mut fes = Vec::new();
        for e in entries {
            match e.inherit {
                Inherit::None => {}
                Inherit::Share => {
                    let mobj = self
                        .engine
                        .mobj_of(e.object)
                        .expect("Share-inherited region must be ASVM-managed");
                    let info = self.obj_info_asvm(mobj);
                    fes.push(ForkEntry::Share {
                        va_page: e.va_page,
                        pages: e.pages,
                        prot: e.prot,
                        inherit: e.inherit,
                        mobj,
                        info,
                    });
                }
                Inherit::Copy => {
                    let mobj = self.asvmize(ctx, e.object);
                    let info = self.obj_info_asvm(mobj);
                    fes.push(ForkEntry::CopyAsvm {
                        va_page: e.va_page,
                        pages: e.pages,
                        prot: e.prot,
                        source_mobj: mobj,
                        info,
                    });
                }
            }
        }
        fes
    }

    fn fork_entries_xmm(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        parent: TaskId,
        entries: &[machvm::MapEntry],
    ) -> Vec<ForkEntry> {
        // Snapshot the parent's address space into a pseudo task;
        // internal pagers serve the copies (paper §2.3.3).
        let pseudo = self.alloc_pseudo_task();
        let mut fx = machvm::Effects::new();
        self.vm.fork_local(ctx.now(), parent, pseudo, &mut fx);
        self.drain(ctx, fx);
        let mut fes = Vec::new();
        for e in entries {
            match e.inherit {
                Inherit::None => {}
                Inherit::Share => {
                    let x = self.engine.as_xmm().expect("XMM fork path");
                    let mobj = x
                        .mobj_of(e.object)
                        .expect("Share-inherited region must be XMM-managed");
                    let xo = x.object(mobj);
                    let XmmBacking::RealPager { node: pn } = xo.backing else {
                        panic!("shared mapping of internal-pager object")
                    };
                    let info = ObjInfo {
                        size_pages: xo.size_pages,
                        home: xo.manager,
                        pager_node: pn,
                        cfg: asvm::AsvmConfig::default(),
                        peer: None,
                        source: None,
                    };
                    fes.push(ForkEntry::Share {
                        va_page: e.va_page,
                        pages: e.pages,
                        prot: e.prot,
                        inherit: e.inherit,
                        mobj,
                        info,
                    });
                }
                Inherit::Copy => {
                    let x = self.engine.as_xmm().expect("XMM fork path");
                    if let Some(m) = x.mobj_of(e.object) {
                        // Inherited-memory *chains* are fine (the
                        // object is backed by an internal pager);
                        // combining truly shared (real-pager)
                        // memory with inheritance is NMK13's
                        // semantic gap and unsupported.
                        assert!(
                            matches!(x.object(m).backing, XmmBacking::InternalPager { .. }),
                            "NMK13 XMM cannot combine shared and inherited memory \
                             (the semantic gap the paper notes)"
                        );
                    }
                    let mobj = self.alloc_mobj();
                    self.engine
                        .as_xmm_mut()
                        .expect("XMM fork path")
                        .register_internal_pager(mobj, pseudo, e.va_page);
                    fes.push(ForkEntry::CopyXmm {
                        va_page: e.va_page,
                        pages: e.pages,
                        prot: e.prot,
                        mobj,
                        ip_node: self.id,
                    });
                }
            }
        }
        fes
    }

    fn obj_info_asvm(&self, mobj: MemObjId) -> ObjInfo {
        let o = self.asvm().expect("ASVM fork path").object(mobj);
        ObjInfo {
            size_pages: o.size_pages,
            home: o.home,
            pager_node: o.pager_node,
            cfg: o.cfg,
            peer: o.peer,
            source: o.source,
        }
    }

    /// Ensures a VM object is ASVM-managed, assigning it a memory object id
    /// and adopting its resident pages as owned here.
    fn asvmize(&mut self, ctx: &mut Ctx<'_, Msg>, obj: VmObjId) -> MemObjId {
        if let Some(m) = self.engine.mobj_of(obj) {
            return m;
        }
        let mobj = self.alloc_mobj();
        let me = self.id;
        let size = self.vm.object(obj).size_pages;
        let source_mobj = self
            .vm
            .object(obj)
            .shadow
            .and_then(|s| self.engine.mobj_of(s));
        let pager_node = ctx.machine().io_node_for(me);
        self.vm.associate(obj, mobj);
        let mut afx = asvm::Fx::new();
        let a = self.engine.as_asvm_mut().expect("asvmize on ASVM cluster");
        a.register_object(
            mobj,
            obj,
            size,
            me,
            pager_node,
            asvm::AsvmConfig::default(),
            &mut afx,
        );
        // Adopt resident pages: this node owns everything it already has.
        let resident: Vec<(machvm::PageIdx, Access)> = self
            .vm
            .object(obj)
            .pages
            .iter()
            .map(|(p, rp)| (p, rp.prot))
            .collect();
        {
            let a = self.engine.as_asvm_mut().expect("asvmize on ASVM cluster");
            asvm::declare_copy_link(a, mobj, source_mobj, source_mobj.map(|_| me));
            let o = a.object_mut(mobj);
            for (p, prot) in resident {
                let mut pi = asvm::PageInfo::new(prot, true, o.version);
                pi.dirty = true;
                o.pages.insert(p, pi);
            }
        }
        if let Some(sm) = source_mobj {
            let a = self.engine.as_asvm_mut().expect("asvmize on ASVM cluster");
            let src = a.object_mut(sm);
            if !src.copies.contains(&mobj) {
                src.copies.push(mobj);
            }
        }
        let mut fx = EngineFx::from_asvm(me, afx);
        self.run_fx(ctx, &mut fx);
        mobj
    }

    /// Child-side fork processing.
    fn do_fork_child(&mut self, ctx: &mut Ctx<'_, Msg>, fm: ForkMsg) {
        let child = fm.child;
        let mut waiting: std::collections::BTreeSet<MemObjId> = Default::default();
        self.vm.create_task(child);
        for fe in fm.entries {
            match fe {
                ForkEntry::Share {
                    va_page,
                    pages,
                    prot,
                    inherit,
                    mobj,
                    info,
                } => {
                    let vo = self.ensure_object(ctx, mobj, &info);
                    self.vm
                        .map_object(child, va_page, pages, vo, 0, prot, inherit);
                }
                ForkEntry::CopyAsvm {
                    va_page,
                    pages,
                    prot,
                    source_mobj,
                    info,
                } => {
                    // Paper §3.7: establish a shared mapping of the source,
                    // then create a local copy through the VM; the resulting
                    // CopyCreated effect broadcasts the version bump, and
                    // the fork completes only when every member settled it.
                    let src_vo = self.ensure_object(ctx, source_mobj, &info);
                    let mut fx = machvm::Effects::new();
                    let copy = self.vm.copy_delayed(src_vo, &mut fx);
                    self.vm
                        .map_object(child, va_page, pages, copy, 0, prot, Inherit::Copy);
                    waiting.insert(source_mobj);
                    self.drain(ctx, fx);
                }
                ForkEntry::CopyXmm {
                    va_page,
                    pages,
                    prot,
                    mobj,
                    ip_node,
                } => {
                    let vo = self
                        .vm
                        .create_object(pages, machvm::Backing::External(mobj));
                    self.engine
                        .as_xmm_mut()
                        .expect("CopyXmm entry on XMM cluster")
                        .register_object(
                            mobj,
                            vo,
                            pages,
                            ip_node,
                            XmmBacking::InternalPager { node: ip_node },
                        );
                    self.vm
                        .map_object(child, va_page, pages, vo, 0, prot, Inherit::Copy);
                }
            }
        }
        let df = DeferredFork {
            child,
            program: fm.program,
            waiting,
            parent_node: fm.parent_node,
            parent_task: fm.parent_task,
        };
        if df.waiting.is_empty() {
            self.complete_fork(ctx, df);
        } else {
            self.deferred_forks.push(df);
        }
    }

    /// Ensures the local representation of `mobj` exists; returns its VM
    /// object.
    fn ensure_object(&mut self, ctx: &mut Ctx<'_, Msg>, mobj: MemObjId, info: &ObjInfo) -> VmObjId {
        if self.engine.as_asvm().is_some() {
            if let Some(o) = self
                .asvm()
                .and_then(|a| a.objects().find(|o| o.mobj == mobj))
            {
                return o.vm_obj;
            }
            let vo = self
                .vm
                .create_object(info.size_pages, machvm::Backing::External(mobj));
            let me = self.id;
            let mut afx = asvm::Fx::new();
            let a = self.engine.as_asvm_mut().expect("ASVM ensure_object");
            a.register_object(
                mobj,
                vo,
                info.size_pages,
                info.home,
                info.pager_node,
                info.cfg,
                &mut afx,
            );
            asvm::declare_copy_link(a, mobj, info.source, info.peer);
            let mut fx = EngineFx::from_asvm(me, afx);
            self.run_fx(ctx, &mut fx);
            vo
        } else {
            let x = self.engine.as_xmm().expect("XMM ensure_object");
            if x.has_object(mobj) {
                return x.object(mobj).vm_obj;
            }
            let vo = self
                .vm
                .create_object(info.size_pages, machvm::Backing::External(mobj));
            self.engine
                .as_xmm_mut()
                .expect("XMM ensure_object")
                .register_object(
                    mobj,
                    vo,
                    info.size_pages,
                    info.home,
                    XmmBacking::RealPager {
                        node: info.pager_node,
                    },
                );
            vo
        }
    }

    // --- Pageout --------------------------------------------------------------------

    fn pageout(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let mut guard = 0u32;
        while self.vm.over_capacity() > 0 {
            guard += 1;
            if guard > 4096 {
                break; // Nothing evictable right now; try after the next event.
            }
            let Some((obj, page)) = self.vm.select_victim() else {
                break;
            };
            ctx.stats().bump("pageouts");
            let mut fx = self.take_effects();
            self.vm.evict(ctx.now(), obj, page, &mut fx);
            self.drain(ctx, fx);
        }
    }
}

/// Payload size of an EMMI call on the wire.
fn pager_payload(call: &EmmiToPager, page_size: u32) -> u32 {
    match call {
        EmmiToPager::DataReturn { .. } => page_size,
        _ => 0,
    }
}

impl NodeBehavior<Msg> for ClusterNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::Asvm { from, msg } => {
                let pm = ProtocolMsg::Asvm { from, msg };
                self.record_trace(ctx.now(), TraceDir::Recv, from, &pm);
                let mut fx = self.take_fx();
                self.engine
                    .handle_protocol(ctx.now(), &mut self.vm, pm, &mut fx);
                self.run_fx(ctx, &mut fx);
                self.put_fx(fx);
            }
            Msg::RdmaRead { from, msg } => {
                // One-sided read posting: the engine computes the same
                // state transition an `Msg::Asvm` PageReq would (parity
                // across backends), but delivery charged zero host CPU
                // here — whether that holds depends on what the engine
                // wanted done, resolved by `finish_rdma_read`.
                let pm = ProtocolMsg::Asvm { from, msg };
                self.record_trace(ctx.now(), TraceDir::Recv, from, &pm);
                let mut fx = self.take_fx();
                self.engine
                    .handle_protocol(ctx.now(), &mut self.vm, pm, &mut fx);
                self.finish_rdma_read(ctx, from, &mut fx);
                self.put_fx(fx);
            }
            Msg::RdmaReadReply { from, msg } => {
                // Completion of a one-sided read: the grant lands in the
                // requester's registered buffer and is handled exactly
                // like its two-sided twin (the completion CPU was part of
                // the delivery envelope).
                let pm = ProtocolMsg::Asvm { from, msg };
                self.record_trace(ctx.now(), TraceDir::Recv, from, &pm);
                let mut fx = self.take_fx();
                self.engine
                    .handle_protocol(ctx.now(), &mut self.vm, pm, &mut fx);
                self.run_fx(ctx, &mut fx);
                self.put_fx(fx);
            }
            Msg::AsvmFrame { from, seq, msg } => {
                // Ack every arrival — including duplicates, whose original
                // ack may itself have been lost. The ack travels the same
                // lossy wire; a lost ack simply provokes a retransmission.
                let me = self.id;
                self.asvm_transport
                    .send_lossy(ctx, from, 0, "asvm.retry.ack", || Msg::AsvmAck {
                        from: me,
                        seq,
                    });
                let accepted = self
                    .link_rx
                    .entry(from)
                    .or_default()
                    .accept(seq, FrameBody::single(msg));
                if accepted.duplicate {
                    ctx.stats().bump("asvm.retry.dup_drop");
                } else if accepted.deliver.is_empty() {
                    ctx.stats().bump("asvm.retry.buffered");
                }
                for b in accepted.deliver {
                    self.deliver_body(ctx, from, b);
                }
            }
            Msg::AsvmBatch { from, body } => {
                self.deliver_body(ctx, from, body);
            }
            Msg::AsvmBatchFrame { from, seq, body } => {
                // Same ack-everything discipline as the singleton frame
                // channel: the whole batch is one sequenced unit.
                let me = self.id;
                self.asvm_transport
                    .send_lossy(ctx, from, 0, "asvm.retry.ack", || Msg::AsvmAck {
                        from: me,
                        seq,
                    });
                let accepted = self.link_rx.entry(from).or_default().accept(seq, body);
                if accepted.duplicate {
                    ctx.stats().bump("asvm.retry.dup_drop");
                } else if accepted.deliver.is_empty() {
                    ctx.stats().bump("asvm.retry.buffered");
                }
                for b in accepted.deliver {
                    self.deliver_body(ctx, from, b);
                }
            }
            Msg::AsvmAck { from, seq } => {
                if self.link_tx.entry(from).or_default().ack(seq) {
                    ctx.stats().bump("asvm.retry.acked");
                }
            }
            Msg::RetryTick { dst, seq } => {
                self.on_retry_tick(ctx, dst, seq);
            }
            Msg::Heartbeat { from } => {
                self.last_heard.insert(from, ctx.now());
                if self.suspects.remove(&from) {
                    ctx.stats().bump("cluster.suspect.cleared");
                    let mut fx = self.take_fx();
                    self.engine
                        .peer_cleared(ctx.now(), &mut self.vm, from, &mut fx);
                    self.run_fx(ctx, &mut fx);
                    self.put_fx(fx);
                }
            }
            Msg::HbTick => {
                self.on_hb_tick(ctx);
            }
            Msg::Farewell { from } => {
                // Graceful completion: stop expecting heartbeats. Existing
                // suspicion (from retry exhaustion) deliberately stands —
                // a farewell does not make the link reachable again.
                self.farewelled.insert(from);
                self.last_heard.remove(&from);
            }
            Msg::Xmm(m) => {
                let pm = ProtocolMsg::Xmm(m);
                // XMMI messages carry no sender; record the node itself.
                let me = self.id;
                self.record_trace(ctx.now(), TraceDir::Recv, me, &pm);
                let mut fx = self.take_fx();
                self.engine
                    .handle_protocol(ctx.now(), &mut self.vm, pm, &mut fx);
                self.run_fx(ctx, &mut fx);
                self.put_fx(fx);
            }
            Msg::PagerReq(pin) => {
                let cost = ctx.machine().config.cost.pager_handle;
                ctx.charge_msg_cpu(cost);
                let ps = self.vm.page_size();
                let outs = {
                    // The disk closure borrows ctx; split pagers out first.
                    let now = ctx.now();
                    if pin.mobj == MemObjId(0) {
                        let pgr = self
                            .default_pager
                            .as_mut()
                            .expect("default pager request on compute node");
                        let mut disk = |op, pos, len| ctx.disk_access(op, pos, len);
                        pgr.handle(now, pin, &mut disk)
                    } else {
                        let pgr = self
                            .file_pager
                            .as_mut()
                            .expect("file pager request on compute node");
                        let mut disk = |op, pos, len| ctx.disk_access(op, pos, len);
                        pgr.handle(now, pin, &mut disk)
                    }
                };
                for out in outs {
                    let payload = match &out.reply {
                        EmmiToKernel::DataSupply { .. } => ps,
                        _ => 0,
                    };
                    let costs = Transport::NORMA.costs(&ctx.machine().config.cost, payload);
                    ctx.stats().bump(Transport::NORMA.stat_key());
                    ctx.stats().bump(out.reply.stat_key());
                    if payload > 0 {
                        ctx.stats().bump("norma.page_messages");
                    }
                    ctx.send_after(
                        out.ready_at,
                        out.to_node,
                        costs,
                        Msg::PagerReply {
                            obj: out.obj,
                            reply: out.reply,
                        },
                    );
                }
            }
            Msg::PagerReply { obj, reply } => {
                if self.engine.mobj_of(obj).is_some() {
                    let mut fx = self.take_fx();
                    self.engine
                        .handle_pager_reply(ctx.now(), &mut self.vm, obj, reply, &mut fx);
                    self.run_fx(ctx, &mut fx);
                    self.put_fx(fx);
                } else {
                    // Plain anonymous memory refetched from the default pager.
                    let mut fx = self.take_effects();
                    self.vm.kernel_call(ctx.now(), obj, reply, &mut fx);
                    self.drain(ctx, fx);
                }
            }
            Msg::Resume(task) => {
                if let Some(st) = self.tasks.get_mut(&task) {
                    if st.status == TaskStatus::WaitingFault {
                        st.status = TaskStatus::Running;
                    }
                    self.run_task(ctx, task);
                }
            }
            Msg::Fork(fm) => {
                self.do_fork_child(ctx, *fm);
            }
            Msg::ForkDone { parent_task } => {
                if let Some(st) = self.tasks.get_mut(&parent_task) {
                    if st.status == TaskStatus::WaitingFork {
                        st.status = TaskStatus::Running;
                    }
                    self.run_task(ctx, parent_task);
                }
            }
            Msg::Barrier { id } => {
                assert_eq!(self.id, NodeId(0), "barrier messages go to node 0");
                let c = self.barrier_counts.entry(id).or_insert(0);
                *c += 1;
                if *c >= self.barrier_parties {
                    self.barrier_counts.remove(&id);
                    for n in ctx.machine().compute_nodes().collect::<Vec<_>>() {
                        if n == self.id {
                            let now = ctx.now();
                            ctx.post_self(now, Msg::BarrierGo { id });
                        } else {
                            Transport::STS.send(ctx, n, 0, Msg::BarrierGo { id });
                        }
                    }
                }
            }
            Msg::BarrierGo { id } => {
                let tasks = self.barrier_waiting.remove(&id).unwrap_or_default();
                for t in tasks {
                    if let Some(st) = self.tasks.get_mut(&t) {
                        if st.status == TaskStatus::WaitingBarrier(id) {
                            st.status = TaskStatus::Running;
                        }
                    }
                    self.run_task(ctx, t);
                }
            }
        }
        self.pageout(ctx);
        // End of the scheduling step: everything the engines emitted
        // while handling this event (pageout included) leaves as one
        // coalesced frame per destination. No-op with coalescing off.
        self.flush_coalesced(ctx);
    }
}
