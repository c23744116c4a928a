//! The one dependence scan, behind both the scheduler's dependence graph
//! (`wts-deps`) and the [`PipelineSim`](crate::PipelineSim).

use wts_ir::{Inst, Reg, RegTable};

/// Why one instruction must stay ordered after another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Read-after-write through a register.
    True,
    /// Write-after-read through a register.
    Anti,
    /// Write-after-write through a register.
    Output,
    /// Ordering between may-aliasing memory accesses.
    Memory,
    /// Ordering against a control transfer (branch, call, return).
    Control,
    /// Ordering against a hazardous instruction (PEI, GC point,
    /// thread-switch point, yield point) that disallows reordering.
    Hazard,
}

/// How a consumer of the scan treats one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Barrier {
    /// An ordinary instruction.
    None,
    /// A side exit: ordered against earlier branch barriers and against
    /// side-effecting or hazardous instructions only, so pure register
    /// computation may cross it.
    Branch,
    /// Ordered against everything: every instruction since the previous
    /// full barrier precedes it, and every later instruction follows it.
    Full,
}

/// Receives the edges of a [`DepScan`], instruction by instruction.
pub trait DepSink {
    /// `from -> to`, where `to` is the instruction being scanned and
    /// `from < to`. The same pair may be reported more than once, under
    /// the same or another kind; the first report is the strongest.
    fn edge(&mut self, from: u32, to: u32, kind: DepKind);

    /// Every edge into the instruction being scanned has been reported.
    fn end_inst(&mut self);
}

/// Sentinel for "none" in the scan's `u32` index fields.
const NONE: u32 = u32::MAX;

/// Per-register scan state: the last instruction that defined the
/// register and the head/tail (in `reader_pool`) of the list of its uses
/// since that def, in use order.
#[derive(Clone, Copy, Default)]
struct RegScan {
    def: u32,
    head: u32,
    tail: u32,
}

impl RegScan {
    /// A register the current sequence has not touched yet.
    const UNTOUCHED: RegScan = RegScan { def: NONE, head: NONE, tail: NONE };
}

/// Reusable dependence-scan state.
///
/// The scan visits one instruction at a time and reports every edge
/// *into* that instruction, in a fixed order: true, then output and anti
/// per def, then memory (out of stores, then out of loads), then barrier
/// edges. Its consumers differ only in the [`Barrier`] classifier they
/// pass and in what their [`DepSink`] keeps: `wts-deps`' `GraphBuilder`
/// dedups the edges into CSR adjacency, and the simulator flags each as
/// a completion or an issue constraint. Its scratch — the per-register
/// last def and reader table (a [`RegTable`], cleared per sequence by an
/// epoch bump) over a shared reader pool, and the store, load and barrier
/// work lists — is allocated once and reused, so a steady-state scan
/// performs no heap allocation.
#[derive(Default)]
pub struct DepScan {
    /// Per-register last def and reader list.
    regs: RegTable<RegScan>,
    /// Linked-list pool backing the per-register reader lists:
    /// `(reader index, next pool slot)`.
    reader_pool: Vec<(u32, u32)>,
    stores: Vec<u32>,
    /// Loads not yet covered by a later store.
    pending_loads: Vec<u32>,
    since_barrier: Vec<u32>,
}

impl DepScan {
    /// Walks `insts` once in program order, reporting every dependence
    /// edge to `sink`; `classify` names each instruction's barrier role.
    pub fn scan<S: DepSink>(&mut self, insts: &[Inst], classify: impl Fn(&Inst) -> Barrier, sink: &mut S) {
        self.regs.clear();
        self.reader_pool.clear();
        self.stores.clear();
        self.pending_loads.clear();
        self.since_barrier.clear();
        // Full barriers chain everything between consecutive barriers;
        // branch barriers chain only with each other and with
        // side-effecting or hazardous instructions.
        let mut last_barrier: Option<(u32, DepKind)> = None;
        let mut last_branch: Option<u32> = None;

        for (idx, inst) in insts.iter().enumerate() {
            let i = u32::try_from(idx).expect("scanned sequences are far below u32::MAX insts");
            let op = inst.opcode();

            for &u in inst.uses() {
                let scan = self.regs.get(u).unwrap_or(RegScan::UNTOUCHED);
                if scan.def != NONE {
                    sink.edge(scan.def, i, DepKind::True);
                }
                self.push_reader(u, scan, i);
            }
            for &d in inst.defs() {
                let scan = self.regs.get(d).unwrap_or(RegScan::UNTOUCHED);
                if scan.def != NONE {
                    sink.edge(scan.def, i, DepKind::Output);
                }
                let mut cursor = scan.head;
                while cursor != NONE {
                    let (r, next) = self.reader_pool[cursor as usize];
                    if r != i {
                        sink.edge(r, i, DepKind::Anti);
                    }
                    cursor = next;
                }
            }
            if let Some(m) = inst.mem_ref() {
                for &s in &self.stores {
                    if m.may_alias(insts[s as usize].mem_ref().expect("stores carry mem refs")) {
                        sink.edge(s, i, DepKind::Memory);
                    }
                }
                if op.is_store() {
                    // A store retires only the pending loads it covers:
                    // every later store that aliases one of those also
                    // aliases this store, so the path load -> this store ->
                    // later store orders it. Clearing the whole list would
                    // let a later store to an uncovered load's slot move
                    // above the load.
                    self.pending_loads.retain(|&l| {
                        let lm = insts[l as usize].mem_ref().expect("loads carry mem refs");
                        if m.may_alias(lm) {
                            sink.edge(l, i, DepKind::Memory);
                        }
                        !m.covers(lm)
                    });
                }
            }

            if let Some((b, kind)) = last_barrier {
                sink.edge(b, i, kind);
            }
            let effectful = |inst: &Inst| inst.opcode().has_side_effect() || inst.is_hazardous();
            match classify(inst) {
                Barrier::Branch => {
                    if let Some(br) = last_branch {
                        sink.edge(br, i, DepKind::Control);
                    }
                    for &p in &self.since_barrier {
                        if effectful(&insts[p as usize]) {
                            sink.edge(p, i, DepKind::Control);
                        }
                    }
                    last_branch = Some(i);
                    self.since_barrier.push(i);
                }
                Barrier::Full => {
                    let kind = if op.is_control() { DepKind::Control } else { DepKind::Hazard };
                    for &p in &self.since_barrier {
                        sink.edge(p, i, kind);
                    }
                    last_barrier = Some((i, kind));
                    last_branch = None;
                    self.since_barrier.clear();
                }
                Barrier::None => {
                    if let Some(br) = last_branch.filter(|_| effectful(inst)) {
                        sink.edge(br, i, DepKind::Control);
                    }
                    self.since_barrier.push(i);
                }
            }

            for &d in inst.defs() {
                self.regs.set(d, RegScan { def: i, head: NONE, tail: NONE });
            }
            if op.is_store() {
                self.stores.push(i);
            } else if op.is_load() {
                self.pending_loads.push(i);
            }
            sink.end_inst();
        }
    }

    /// Appends `i` to `reg`'s reader list, whose current state is `scan`.
    fn push_reader(&mut self, reg: Reg, scan: RegScan, i: u32) {
        let slot = u32::try_from(self.reader_pool.len()).expect("reader pool outgrew u32 indices");
        self.reader_pool.push((i, NONE));
        let scan = if scan.head == NONE {
            RegScan { head: slot, tail: slot, ..scan }
        } else {
            self.reader_pool[scan.tail as usize].1 = slot;
            RegScan { tail: slot, ..scan }
        };
        self.regs.set(reg, scan);
    }
}
