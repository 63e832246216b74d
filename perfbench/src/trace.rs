//! Host-time spans recorded from outside the simulator: a timing wrapper
//! around each node's coherence engine, keyed by entry point and by
//! protocol message kind.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use asvm::AsvmNode;
use cluster::{CoherenceEngine, EngineFx, ProtocolMsg, Ssi};
use machvm::VmSystem;
use machvm::{EmmiToKernel, EmmiToPager, FaultId, MemObjId, PageData, PageIdx, TaskId, VmObjId};
use svmsim::{NodeId, Time};
use xmm::XmmNode;

/// Calls and host nanoseconds per engine entry point, shared by the
/// wrappers of every node.
#[derive(Debug, Default)]
pub struct EngineLedger {
    spans: RefCell<BTreeMap<&'static str, (u64, u64)>>,
}

impl EngineLedger {
    fn add(&self, key: &'static str, ns: u64) {
        let mut spans = self.spans.borrow_mut();
        let e = spans.entry(key).or_insert((0, 0));
        e.0 += 1;
        e.1 += ns;
    }

    /// `(calls, ns)` of one entry point or protocol kind.
    pub fn get(&self, key: &str) -> (u64, u64) {
        self.spans.borrow().get(key).copied().unwrap_or((0, 0))
    }

    /// Host nanoseconds across every engine call.
    pub fn total_ns(&self) -> u64 {
        self.spans.borrow().values().map(|&(_, ns)| ns).sum()
    }

    /// Adds `other`'s spans to this ledger.
    pub fn merge(&self, other: &EngineLedger) {
        let mut spans = self.spans.borrow_mut();
        for (k, &(calls, ns)) in other.spans.borrow().iter() {
            let e = spans.entry(k).or_insert((0, 0));
            e.0 += calls;
            e.1 += ns;
        }
    }
}

/// A [`CoherenceEngine`] that forwards every call to the engine it wraps
/// and charges the handler entry points' host time to a shared ledger.
/// Telemetry and lookups (`name`, `mobj_of`, `state_bytes`, downcasts)
/// are forwarded untimed.
pub struct TimedEngine {
    inner: Box<dyn CoherenceEngine>,
    ledger: Rc<EngineLedger>,
}

impl TimedEngine {
    fn timed<R>(&mut self, key: &'static str, f: impl FnOnce(&mut dyn CoherenceEngine) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        self.ledger.add(key, t0.elapsed().as_nanos() as u64);
        r
    }
}

/// Wraps the engine of every node of `ssi` in a [`TimedEngine`] charging
/// `ledger`.
pub fn wrap_engines(ssi: &mut Ssi, ledger: &Rc<EngineLedger>) {
    let cost = ssi.world.machine().config.cost.clone();
    let ids: Vec<NodeId> = ssi.world.machine().mesh.node_ids().collect();
    for id in ids {
        let node = ssi.world.node_mut(id);
        // A fresh engine holds the slot for the instant the real one is
        // moved into its wrapper.
        let inner = std::mem::replace(&mut node.engine, Box::new(AsvmNode::new(id, cost.clone())));
        node.engine = Box::new(TimedEngine {
            inner,
            ledger: Rc::clone(ledger),
        });
    }
}

impl CoherenceEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mobj_of(&self, obj: VmObjId) -> Option<MemObjId> {
        self.inner.mobj_of(obj)
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn handle_emmi(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        call: EmmiToPager,
        out: &mut EngineFx,
    ) {
        self.timed("emmi", |e| e.handle_emmi(now, vm, obj, call, out));
    }

    fn handle_protocol(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        msg: ProtocolMsg,
        out: &mut EngineFx,
    ) {
        let key = msg.stat_key();
        self.timed(key, |e| e.handle_protocol(now, vm, msg, out));
    }

    fn handle_pager_reply(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        reply: EmmiToKernel,
        out: &mut EngineFx,
    ) {
        self.timed("pager_reply", |e| {
            e.handle_pager_reply(now, vm, obj, reply, out)
        });
    }

    fn handle_evict(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        out: &mut EngineFx,
    ) {
        self.timed("evict", |e| {
            e.handle_evict(now, vm, obj, page, data, dirty, out)
        });
    }

    fn copy_created(&mut self, now: Time, vm: &mut VmSystem, source: VmObjId, out: &mut EngineFx) {
        self.timed("copy_created", |e| e.copy_created(now, vm, source, out));
    }

    fn fault_completed(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        task: TaskId,
        fault: FaultId,
        out: &mut EngineFx,
    ) -> bool {
        self.timed("fault_completed", |e| {
            e.fault_completed(now, vm, task, fault, out)
        })
    }

    fn peer_suspected(&mut self, now: Time, vm: &mut VmSystem, peer: NodeId, out: &mut EngineFx) {
        self.timed("peer_suspected", |e| e.peer_suspected(now, vm, peer, out));
    }

    fn peer_cleared(&mut self, now: Time, vm: &mut VmSystem, peer: NodeId, out: &mut EngineFx) {
        self.timed("peer_cleared", |e| e.peer_cleared(now, vm, peer, out));
    }

    fn on_watchdog(&mut self, now: Time, vm: &mut VmSystem, out: &mut EngineFx) {
        self.timed("watchdog", |e| e.on_watchdog(now, vm, out));
    }

    fn as_asvm(&self) -> Option<&AsvmNode> {
        self.inner.as_asvm()
    }

    fn as_asvm_mut(&mut self) -> Option<&mut AsvmNode> {
        self.inner.as_asvm_mut()
    }

    fn as_xmm(&self) -> Option<&XmmNode> {
        self.inner.as_xmm()
    }

    fn as_xmm_mut(&mut self) -> Option<&mut XmmNode> {
        self.inner.as_xmm_mut()
    }
}
