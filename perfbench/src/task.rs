//! The benchmark's own [`Program`]: a closed-loop task that issues one
//! access at a time, times every stalled access from issue to resume, and
//! checks every value it reads against the workload's model.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use cluster::{Program, Step, TaskEnv};
use svmsim::{Dur, Time};

/// One operation of a workload script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read a page's stamp.
    Read(u64),
    /// Overwrite a page's stamp.
    Write(u64, u64),
    /// Compute (think) for a while.
    Think(Dur),
    /// Wait for every task at barrier `id`.
    Barrier(u32),
    /// The script is finished.
    Done,
}

/// A workload's per-task access script.
pub trait Script {
    /// The next operation; called only after the previous one completed.
    fn next_op(&mut self) -> Op;

    /// Whether `value` is a legal result of the read of `page` the script
    /// issued last (checked before the next [`Script::next_op`]).
    fn allows(&self, page: u64, value: u64) -> bool;
}

/// What every task of one repetition reports, shared by all tasks.
#[derive(Debug, Default)]
pub struct Probe {
    /// Issue-to-resume latency of every stalled access, simulated ns.
    pub stalls_ns: RefCell<Vec<u64>>,
    /// Reads and writes issued.
    pub accesses: Cell<u64>,
    /// Reads that returned a value the model does not allow.
    pub bad_reads: Cell<u64>,
    /// Host time spent inside [`Program::step`] (traced runs only).
    pub program_ns: Cell<u64>,
    /// Whether [`Program::step`] is timed.
    pub traced: bool,
}

impl Probe {
    /// A fresh probe; `traced` times every program step on the host.
    pub fn new(traced: bool) -> Rc<Probe> {
        Rc::new(Probe {
            traced,
            ..Probe::default()
        })
    }
}

#[derive(Clone, Copy)]
enum Pending {
    None,
    Read { page: u64, issued: Time },
    Write { issued: Time },
}

/// Runs a [`Script`] as a cluster task.
pub struct Task<S> {
    script: S,
    probe: Rc<Probe>,
    pending: Pending,
}

impl<S: Script> Task<S> {
    /// Wraps `script`, reporting into `probe`.
    pub fn new(script: S, probe: Rc<Probe>) -> Task<S> {
        Task {
            script,
            probe,
            pending: Pending::None,
        }
    }

    fn settle(&mut self, env: &TaskEnv) {
        let issued = match self.pending {
            Pending::None => return,
            Pending::Read { page, issued } => {
                let ok = env.last_read.is_some_and(|v| self.script.allows(page, v));
                if !ok {
                    self.probe.bad_reads.set(self.probe.bad_reads.get() + 1);
                }
                issued
            }
            Pending::Write { issued } => issued,
        };
        self.pending = Pending::None;
        let waited = env.now.since(issued);
        if !waited.is_zero() {
            self.probe.stalls_ns.borrow_mut().push(waited.as_nanos());
        }
    }

    fn advance(&mut self, env: &mut TaskEnv) -> Step {
        self.settle(env);
        match self.script.next_op() {
            Op::Read(page) => {
                self.count_access();
                self.pending = Pending::Read {
                    page,
                    issued: env.now,
                };
                Step::Read { va_page: page }
            }
            Op::Write(page, value) => {
                self.count_access();
                self.pending = Pending::Write { issued: env.now };
                Step::Write {
                    va_page: page,
                    value,
                }
            }
            Op::Think(d) => Step::Compute(d),
            Op::Barrier(id) => Step::Barrier(id),
            Op::Done => Step::Done,
        }
    }

    fn count_access(&self) {
        self.probe.accesses.set(self.probe.accesses.get() + 1);
    }
}

impl<S: Script> Program for Task<S> {
    fn step(&mut self, env: &mut TaskEnv) -> Step {
        if !self.probe.traced {
            return self.advance(env);
        }
        let t0 = Instant::now();
        let step = self.advance(env);
        let ns = t0.elapsed().as_nanos() as u64;
        self.probe.program_ns.set(self.probe.program_ns.get() + ns);
        step
    }
}
