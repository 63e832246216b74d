//! The three workloads: their shapes, their seeded inputs and their
//! per-task scripts.
//!
//! Every workload is a closed loop with one task per compute node: a task
//! issues its next access only after the previous one resumed, as a
//! faulting thread blocks. Inputs are generated from the seed alone; the
//! simulated cluster only ever sees the generated scripts.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};
use std::rc::Rc;

use machvm::{MemObjId, PageIdx};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use svmsim::Dur;

use crate::task::{Op, Script};

/// The benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's EM3D kernel, weak-scaled to 1024 nodes.
    Em3d,
    /// Zipf-popular reads and writes on one shared zero-fill object.
    ZipfRw,
    /// Sequential read passes over disk-backed files, each 3.6x one
    /// node's memory, one file per pass.
    ScanEvict,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Em3d, Workload::ZipfRw, Workload::ScanEvict];

    /// The name the command line and the report use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Em3d => "em3d-1024",
            Workload::ZipfRw => "zipf-rw",
            Workload::ScanEvict => "scan-evict",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Bytes per EM3D cell (fixed by the paper).
pub const CELL_BYTES: u64 = 224;
/// Floating-point cost per EM3D edge evaluation (the paper's calibration).
pub const EDGE_COST: Dur = Dur::from_nanos(568);
const PAGE_BYTES: u64 = 8192;

/// EM3D (Table 3), weak-scaled: fixed cells per node.
#[derive(Clone, Copy, Debug)]
pub struct Em3dShape {
    /// Compute nodes.
    pub nodes: u16,
    /// Cells per node.
    pub cells_per_node: u64,
    /// Edges per cell.
    pub edges_per_cell: u32,
    /// Share of edges that lead to a ring neighbour's cell.
    pub pct_remote: f64,
    /// Locality window, in cells, for remote edge targets.
    pub window: u32,
    /// Computation iterations (two barrier-separated halves each).
    pub iterations: u32,
    /// Place the blocks on a seeded permutation of the mesh nodes instead
    /// of block `i` on node `i`.
    pub scatter: bool,
}

impl Em3dShape {
    /// Total cells.
    pub fn cells(&self) -> u64 {
        self.cells_per_node * self.nodes as u64
    }

    /// Pages of the shared region.
    pub fn region_pages(&self) -> u32 {
        self.cells().div_ceil(PAGE_BYTES / CELL_BYTES) as u32
    }
}

/// One node's share of the EM3D graph.
#[derive(Clone, Debug)]
pub struct Em3dPattern {
    /// Pages holding the node's own cells (written every half).
    pub own_pages: Vec<u64>,
    /// Neighbour pages the node's edges read (read every half).
    pub remote_pages: Vec<u64>,
    /// Floating-point work per half iteration.
    pub compute_per_half: Dur,
}

/// Generates the EM3D graph: cells in blocks, `pct_remote` of the edges
/// aimed at the facing block edge of a ring neighbour, within `window`
/// cells. Draw for draw the generator of the repository's `em3d`
/// workload, so both produce the same graph from the same seed.
pub fn em3d_patterns(shape: &Em3dShape, seed: u64) -> Vec<Em3dPattern> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = shape.nodes as u64;
    let cells = shape.cells();
    let cpn = cells / n;
    let block_end = |i: u64| if i == n - 1 { cells } else { (i + 1) * cpn };
    (0..n)
        .map(|i| {
            let (first, last) = (i * cpn, block_end(i));
            let own: BTreeSet<u64> = (first * CELL_BYTES / PAGE_BYTES
                ..=last.saturating_sub(1) * CELL_BYTES / PAGE_BYTES)
                .collect();
            let mut remote = BTreeSet::new();
            if n > 1 {
                let refs =
                    ((last - first) as f64 * shape.edges_per_cell as f64 * shape.pct_remote) as u64;
                for _ in 0..refs {
                    let up: bool = rng.gen();
                    let nb = if up { (i + 1) % n } else { (i + n - 1) % n };
                    let (nb_first, nb_last) = (nb * cpn, block_end(nb));
                    let w = (shape.window as u64).min(nb_last - nb_first);
                    let off = rng.gen_range(0..w.max(1));
                    let cell = if up {
                        nb_first + off
                    } else {
                        nb_last - 1 - off
                    };
                    let page = cell * CELL_BYTES / PAGE_BYTES;
                    if !own.contains(&page) {
                        remote.insert(page);
                    }
                }
            }
            Em3dPattern {
                own_pages: own.into_iter().collect(),
                remote_pages: remote.into_iter().collect(),
                compute_per_half: Dur::from_nanos(
                    (last - first) * shape.edges_per_cell as u64 * EDGE_COST.as_nanos(),
                ),
            }
        })
        .collect()
}

/// The node each EM3D block runs on: block `i` on node `i`, or a seeded
/// permutation when the shape scatters (ring neighbours then sit a
/// seed-dependent number of mesh hops apart).
pub fn em3d_placement(shape: &Em3dShape, seed: u64) -> Vec<u16> {
    let mut nodes: Vec<u16> = (0..shape.nodes).collect();
    if shape.scatter {
        // A stream of its own, so the graph draws stay those of the
        // repository's generator.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca7_7e5d);
        for i in (1..nodes.len()).rev() {
            nodes.swap(i, rng.gen_range(0..i + 1));
        }
    }
    nodes
}

/// The stamp EM3D writes to `page` in phase `phase` (phase 0 is the
/// first-touch initialisation, phase `h + 1` the `h`-th half iteration).
pub fn em3d_stamp(phase: u32, page: u64) -> u64 {
    ((phase as u64) << 32) | page
}

/// First-touch initialisation: write phase 0 to every own page.
pub struct Em3dInit {
    pages: std::vec::IntoIter<u64>,
}

impl Em3dInit {
    /// Initialises `own_pages`.
    pub fn new(own_pages: Vec<u64>) -> Em3dInit {
        Em3dInit {
            pages: own_pages.into_iter(),
        }
    }
}

impl Script for Em3dInit {
    fn next_op(&mut self) -> Op {
        match self.pages.next() {
            Some(p) => Op::Write(p, em3d_stamp(0, p)),
            None => Op::Done,
        }
    }

    fn allows(&self, _page: u64, _value: u64) -> bool {
        false
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    ReadRemote,
    WriteOwn,
    Compute,
    Barrier,
}

/// The EM3D computation loop of one node: each half iteration reads the
/// remote pages, writes the own pages, computes and meets a barrier.
pub struct Em3dScript {
    pattern: Em3dPattern,
    halves: u32,
    half: u32,
    idx: usize,
    stage: Stage,
}

impl Em3dScript {
    /// The loop over `iterations` iterations of `pattern`.
    pub fn new(pattern: Em3dPattern, iterations: u32) -> Em3dScript {
        Em3dScript {
            pattern,
            halves: iterations * 2,
            half: 0,
            idx: 0,
            stage: Stage::ReadRemote,
        }
    }
}

impl Script for Em3dScript {
    fn next_op(&mut self) -> Op {
        loop {
            if self.half >= self.halves {
                return Op::Done;
            }
            match self.stage {
                Stage::ReadRemote => {
                    if let Some(&p) = self.pattern.remote_pages.get(self.idx) {
                        self.idx += 1;
                        return Op::Read(p);
                    }
                    self.stage = Stage::WriteOwn;
                    self.idx = 0;
                }
                Stage::WriteOwn => {
                    if let Some(&p) = self.pattern.own_pages.get(self.idx) {
                        self.idx += 1;
                        return Op::Write(p, em3d_stamp(self.half + 1, p));
                    }
                    self.stage = Stage::Compute;
                }
                Stage::Compute => {
                    self.stage = Stage::Barrier;
                    return Op::Think(self.pattern.compute_per_half);
                }
                Stage::Barrier => {
                    let id = self.half;
                    self.half += 1;
                    self.idx = 0;
                    self.stage = Stage::ReadRemote;
                    return Op::Barrier(id);
                }
            }
        }
    }

    /// A neighbour may or may not have written its pages for this half
    /// yet, but the barrier keeps it out of the next one.
    fn allows(&self, page: u64, value: u64) -> bool {
        value == em3d_stamp(self.half, page) || value == em3d_stamp(self.half + 1, page)
    }
}

/// Zipf-popular reads and writes on one shared zero-fill object.
#[derive(Clone, Copy, Debug)]
pub struct ZipfShape {
    /// Compute nodes.
    pub nodes: u16,
    /// Pages of the shared object.
    pub pages: u32,
    /// Zipf exponent of page popularity.
    pub skew: f64,
    /// Share of accesses that write.
    pub write_share: f64,
    /// Think time after every access.
    pub think: Dur,
    /// Accesses per node.
    pub ops_per_node: u32,
}

/// A uniform draw from `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates each node's `(page, is_write)` sequence: popularity ranks
/// are Zipf(`skew`) and scattered over the object by a seeded
/// permutation, so the hot pages move with the seed.
pub fn zipf_inputs(shape: &ZipfShape, seed: u64) -> Vec<Vec<(u32, bool)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = shape.pages as usize;
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 0..n {
        total += 1.0 / ((rank + 1) as f64).powf(shape.skew);
        cum.push(total);
    }
    let mut page_of: Vec<u32> = (0..shape.pages).collect();
    for i in (1..n).rev() {
        page_of.swap(i, rng.gen_range(0..i + 1));
    }
    (0..shape.nodes)
        .map(|_| {
            (0..shape.ops_per_node)
                .map(|_| {
                    let x = unit(&mut rng) * total;
                    let rank = cum.partition_point(|&c| c <= x).min(n - 1);
                    (page_of[rank], unit(&mut rng) < shape.write_share)
                })
                .collect()
        })
        .collect()
}

/// Values every zipf-rw task has issued as writes, shared by the tasks.
pub type Written = Rc<RefCell<HashSet<u64>>>;

/// One node's zipf-rw loop: access, think, access, think, ...
pub struct ZipfScript {
    node: u16,
    ops: Vec<(u32, bool)>,
    next: usize,
    think: Dur,
    thinking: bool,
    written: Written,
}

impl ZipfScript {
    /// The loop of `node` over `ops`.
    pub fn new(node: u16, ops: Vec<(u32, bool)>, think: Dur, written: Written) -> ZipfScript {
        ZipfScript {
            node,
            ops,
            next: 0,
            think,
            thinking: false,
            written,
        }
    }

    /// A value no other write of the run uses: writer, sequence, page.
    fn stamp(&self, page: u32) -> u64 {
        ((self.node as u64 + 1) << 48) | ((self.next as u64) << 16) | page as u64
    }
}

impl Script for ZipfScript {
    fn next_op(&mut self) -> Op {
        if std::mem::take(&mut self.thinking) {
            return Op::Think(self.think);
        }
        let Some(&(page, write)) = self.ops.get(self.next) else {
            return Op::Done;
        };
        self.thinking = true;
        let op = if write {
            let v = self.stamp(page);
            self.written.borrow_mut().insert(v);
            Op::Write(page as u64, v)
        } else {
            Op::Read(page as u64)
        };
        self.next += 1;
        op
    }

    /// Zero (never written) or a value some task already wrote there.
    fn allows(&self, page: u64, value: u64) -> bool {
        value == 0 || (value & 0xFFFF == page && self.written.borrow().contains(&value))
    }
}

/// Sequential read passes over disk-backed files, one file per pass.
#[derive(Clone, Copy, Debug)]
pub struct ScanShape {
    /// Compute nodes.
    pub nodes: u16,
    /// Pages of each file.
    pub file_pages: u32,
    /// Passes, barrier-separated; pass `k` reads file `k`.
    pub passes: u32,
    /// Upper bound of the think time after each read.
    pub max_think: Dur,
}

/// Each node's think time after each page of a pass, drawn from the seed.
pub fn scan_thinks(shape: &ScanShape, seed: u64) -> Vec<Vec<Dur>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max = shape.max_think.as_nanos().max(1);
    (0..shape.nodes)
        .map(|_| {
            (0..shape.file_pages)
                .map(|_| Dur::from_nanos(rng.gen_range(0..max)))
                .collect()
        })
        .collect()
}

/// One node's scan: one stride-1 read pass per file, thinking after each
/// page, with a barrier between passes.
pub struct ScanScript {
    files: Vec<MemObjId>,
    file_pages: u32,
    think: Vec<Dur>,
    pass: usize,
    next: u32,
    thinking: bool,
}

impl ScanScript {
    /// Scans `files`, mapped back to back from page 0, one per pass.
    pub fn new(files: Vec<MemObjId>, file_pages: u32, think: Vec<Dur>) -> ScanScript {
        ScanScript {
            files,
            file_pages,
            think,
            pass: 0,
            next: 0,
            thinking: false,
        }
    }
}

impl Script for ScanScript {
    fn next_op(&mut self) -> Op {
        if std::mem::take(&mut self.thinking) {
            return Op::Think(self.think[self.next as usize - 1]);
        }
        if self.next < self.file_pages {
            self.next += 1;
            self.thinking = true;
            return Op::Read(self.pass as u64 * self.file_pages as u64 + self.next as u64 - 1);
        }
        self.next = 0;
        self.pass += 1;
        if self.pass >= self.files.len() {
            return Op::Done;
        }
        Op::Barrier(self.pass as u32 - 1)
    }

    /// The file's on-disk contents: nothing writes it.
    fn allows(&self, page: u64, value: u64) -> bool {
        let fp = self.file_pages as u64;
        let mobj = self.files[(page / fp) as usize];
        value == pager::file_stamp(mobj, PageIdx((page % fp) as u32))
    }
}

/// A workload at a given size.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `em3d-1024`.
    Em3d(Em3dShape),
    /// `zipf-rw`.
    ZipfRw(ZipfShape),
    /// `scan-evict`.
    ScanEvict(ScanShape),
}

impl Shape {
    /// The benchmark's size of `w`.
    pub fn full(w: Workload) -> Shape {
        match w {
            Workload::Em3d => Shape::Em3d(Em3dShape {
                nodes: 1024,
                cells_per_node: 200,
                edges_per_cell: 6,
                pct_remote: 0.20,
                window: 100,
                iterations: 10,
                scatter: true,
            }),
            Workload::ZipfRw => Shape::ZipfRw(ZipfShape {
                nodes: 64,
                pages: 2048,
                skew: 0.9,
                write_share: 0.20,
                think: Dur::from_micros(200),
                ops_per_node: 12000,
            }),
            Workload::ScanEvict => Shape::ScanEvict(ScanShape {
                nodes: 32,
                file_pages: 4096,
                passes: 3,
                max_think: Dur::from_micros(200),
            }),
        }
    }

    /// A small size of `w` with the same structure, for tests.
    pub fn tiny(w: Workload) -> Shape {
        match Shape::full(w) {
            Shape::Em3d(s) => Shape::Em3d(Em3dShape {
                nodes: 8,
                iterations: 2,
                ..s
            }),
            Shape::ZipfRw(s) => Shape::ZipfRw(ZipfShape {
                nodes: 4,
                pages: 64,
                ops_per_node: 100,
                ..s
            }),
            Shape::ScanEvict(s) => Shape::ScanEvict(ScanShape {
                nodes: 4,
                file_pages: 96,
                passes: 2,
                ..s
            }),
        }
    }
}
