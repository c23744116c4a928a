//! The dependence graph itself.
//!
//! Predecessors are stored compressed sparse row (CSR): one flat edge
//! array plus an offset table, so a node's predecessors are a contiguous
//! slice in the order the scan recorded them. Successors are one bit row
//! per instruction, `⌈n/64⌉` words each, so a successor walk visits
//! targets in ascending order and an edge test is one bit. Graphs are
//! produced by a reusable [`GraphBuilder`] that drives `wts-machine`'s
//! [`DepScan`] — the same scan that orders the pipeline simulator. The
//! scan emits edges grouped by target, so the predecessor array needs no
//! sort, and the bit rows deduplicate edges as they are recorded.

use wts_ir::Inst;
use wts_machine::{Barrier, DepKind, DepScan, DepSink};

/// A dependence DAG over the instructions of one basic block.
///
/// Nodes are instruction indices in original program order; every edge
/// points from a lower to a higher index, so the graph is acyclic by
/// construction. Parallel edges of different kinds between the same pair
/// are collapsed, keeping the first (strongest) kind recorded.
///
/// `preds(i)` is a slice of one flat `(source, kind)` array indexed
/// through an offset table, in discovery order (the order the dependence
/// scan recorded them). `succs(i)` walks row `i` of a successor bit
/// matrix (`⌈n/64⌉` words per row) and yields targets in ascending
/// order; the rows hold exactly the predecessor edges, mirrored, and the
/// kinds live only in the predecessor array. Downstream consumers —
/// notably the list scheduler's ready-list insertion — rely on both
/// orders for bit-identical schedules.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    n: usize,
    /// Words per successor row.
    words: usize,
    pred_off: Vec<u32>,
    preds: Vec<(u32, DepKind)>,
    /// Row `i` is `succ_rows[i * words..(i + 1) * words]`; bit `j` of it
    /// is set when `i -> j` is an edge.
    succ_rows: Vec<u64>,
}

impl DepGraph {
    /// An empty graph, ready to be filled by
    /// [`GraphBuilder::build_into`]. Equivalent to building from zero
    /// instructions.
    pub fn empty() -> DepGraph {
        DepGraph::default()
    }

    /// Builds the DAG for `insts` (one block's instructions, program order).
    ///
    /// Convenience for one-shot use; batch callers should reuse a
    /// [`GraphBuilder`] across blocks instead.
    pub fn build(insts: &[Inst]) -> DepGraph {
        let mut g = DepGraph::empty();
        GraphBuilder::new().build_into(insts, false, &mut g);
        g
    }

    /// Builds a *speculative* DAG for superblock scheduling: branches
    /// order only with other side-effecting instructions (memory writes,
    /// calls, hazards, control), so pure register computation may move
    /// across the superblock's internal side exits. This models trace
    /// scheduling with compensation code (Fisher 1981), which the paper
    /// cites as the enabling technique and leaves as future work (§3.1).
    pub fn build_speculative(insts: &[Inst]) -> DepGraph {
        let mut g = DepGraph::empty();
        GraphBuilder::new().build_into(insts, true, &mut g);
        g
    }

    /// Number of instructions (nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the block was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Predecessors of `i` (instructions that must come before it).
    #[inline]
    pub fn preds(&self, i: usize) -> &[(u32, DepKind)] {
        &self.preds[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Successors of `i` (instructions that must come after it), in
    /// ascending order.
    #[inline]
    pub fn succs(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        // Every successor is above `i`, so the walk starts at the word
        // that holds bit `i + 1`; the words before it are zero.
        let first = (i + 1) / 64;
        let words = &self.succ_rows[i * self.words + first..(i + 1) * self.words];
        Bits { words, base: first * 64, cur: words.first().copied().unwrap_or(0) }
    }

    /// True when an edge `from -> to` exists (any kind).
    #[inline]
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        from < self.n && to < self.n && self.succ_rows[from * self.words + to / 64] & (1 << (to % 64)) != 0
    }

    /// Total number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.preds.len()
    }

    /// True when `order` is a permutation of `0..len` that respects every
    /// edge (each node appears after all its predecessors).
    pub fn respects(&self, order: &[usize]) -> bool {
        if order.len() != self.n {
            return false;
        }
        let mut pos = vec![usize::MAX; self.n];
        for (p, &i) in order.iter().enumerate() {
            if i >= self.n || pos[i] != usize::MAX {
                return false;
            }
            pos[i] = p;
        }
        for i in 0..self.n {
            for &(p, _) in self.preds(i) {
                if pos[p as usize] > pos[i] {
                    return false;
                }
            }
        }
        true
    }

    /// Indices whose predecessors are all in `scheduled` (given as a
    /// boolean membership mask) and that are not themselves scheduled.
    pub fn ready(&self, scheduled: &[bool]) -> Vec<usize> {
        assert_eq!(scheduled.len(), self.n, "mask length mismatch");
        (0..self.n).filter(|&i| !scheduled[i] && self.preds(i).iter().all(|&(p, _)| scheduled[p as usize])).collect()
    }
}

/// The set bits of a successor row, lowest first.
struct Bits<'a> {
    /// The row's words from the current one on.
    words: &'a [u64],
    /// Bit index of `words[0]`'s lowest bit.
    base: usize,
    /// `words[0]` with the bits already yielded cleared.
    cur: u64,
}

impl Iterator for Bits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.words = self.words.get(1..).filter(|rest| !rest.is_empty())?;
            self.base += 64;
            self.cur = self.words[0];
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.base + bit)
    }
}

/// Reusable graph-building state: the shared [`DepScan`] plus the
/// scan's sink.
///
/// The scan visits one instruction at a time and reports every edge
/// *into* that instruction, so edges arrive grouped by target in
/// discovery order — which is already the CSR predecessor array. Each
/// recorded edge also sets its bit in the source's successor row, and
/// that bit drops parallel edges as they arrive: a pair whose bit is
/// already set keeps the first (strongest) kind. No pass sorts, counts
/// or hashes.
///
/// All scratch — the scan's register table and work lists, and the
/// graph's arrays — is allocated once and reused, so building the
/// graphs of a whole method performs no steady-state heap allocation.
///
/// # Examples
///
/// ```
/// use wts_deps::{DepGraph, GraphBuilder};
/// use wts_ir::{Inst, Opcode, Reg};
///
/// let block = [Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(1)];
/// let mut builder = GraphBuilder::new();
/// let mut graph = DepGraph::empty();
/// builder.build_into(&block, false, &mut graph);
/// assert_eq!(graph.len(), 1);
/// assert_eq!(builder.last_edge_count(), graph.edge_count());
/// ```
pub struct GraphBuilder {
    scan: DepScan,
    last_edges: usize,
}

/// The builder's [`DepSink`]: records each new edge in the predecessor
/// array and the successor rows, and closes each target's slice.
struct GraphSink<'a> {
    preds: &'a mut Vec<(u32, DepKind)>,
    pred_off: &'a mut Vec<u32>,
    succ_rows: &'a mut [u64],
    words: usize,
}

impl DepSink for GraphSink<'_> {
    /// Records `from -> to` unless that pair already has an edge (the
    /// first kind recorded wins).
    #[inline]
    fn edge(&mut self, from: u32, to: u32, kind: DepKind) {
        debug_assert!(from < to, "dependence edges must follow program order");
        let (from_idx, to_idx) = (from as usize, to as usize);
        let word = &mut self.succ_rows[from_idx * self.words + to_idx / 64];
        let bit = 1 << (to_idx % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.preds.push((from, kind));
        }
    }

    #[inline]
    fn end_inst(&mut self) {
        self.pred_off.push(u32::try_from(self.preds.len()).expect("edge list outgrew u32 offsets"));
    }
}

impl GraphBuilder {
    /// A fresh builder. Its buffers grow on demand (the register table
    /// up to [`Reg::dense_limit`](wts_ir::Reg::dense_limit) entries) and
    /// are then reused across blocks, so construction is cheap and
    /// steady-state builds allocate nothing.
    pub fn new() -> GraphBuilder {
        GraphBuilder { scan: DepScan::default(), last_edges: 0 }
    }

    /// Number of edges in the most recently built graph. Lets callers
    /// that only need the edge count (e.g. work-proxy accounting) avoid
    /// keeping the graph alive.
    #[inline]
    pub fn last_edge_count(&self) -> usize {
        self.last_edges
    }

    /// Runs the dependence scan for one block's instructions, replacing
    /// `out`'s contents. `out`'s allocations are reused.
    ///
    /// Control transfers and hazardous instructions are full barriers. In
    /// speculative mode plain branches (not calls or returns, which
    /// clobber machine state) are branch barriers instead, so pure
    /// register computation may cross a superblock's internal side exits.
    pub fn build_into(&mut self, insts: &[Inst], speculative: bool, out: &mut DepGraph) {
        let n = insts.len();
        out.n = n;
        out.words = n.div_ceil(64);
        out.preds.clear();
        out.pred_off.clear();
        out.pred_off.push(0);
        out.succ_rows.clear();
        out.succ_rows.resize(n * out.words, 0);
        let classify = |inst: &Inst| {
            let op = inst.opcode();
            let full = if speculative { op.is_call() || op.is_return() } else { op.is_control() };
            if speculative && op.is_branch() {
                Barrier::Branch
            } else if full || inst.is_hazardous() {
                Barrier::Full
            } else {
                Barrier::None
            }
        };
        let mut sink = GraphSink {
            preds: &mut out.preds,
            pred_off: &mut out.pred_off,
            succ_rows: &mut out.succ_rows,
            words: out.words,
        };
        self.scan.scan(insts, classify, &mut sink);
        self.last_edges = out.preds.len();
    }
}

impl Default for GraphBuilder {
    fn default() -> GraphBuilder {
        GraphBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{Hazards, MemRef, MemSpace, Opcode, Reg};

    impl DepGraph {
        /// Kind of the edge `from -> to`, if present.
        fn edge_kind(&self, from: usize, to: usize) -> Option<DepKind> {
            self.preds(to).iter().find(|&&(p, _)| p as usize == from).map(|&(_, kind)| kind)
        }
    }

    fn add(def: u16, a: u16, b: u16) -> Inst {
        Inst::new(Opcode::Add).def(Reg::gpr(def)).use_(Reg::gpr(a)).use_(Reg::gpr(b))
    }

    fn load(def: u16, slot: u32) -> Inst {
        Inst::new(Opcode::Lwz).def(Reg::gpr(def)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot))
    }

    fn store(src: u16, slot: u32) -> Inst {
        Inst::new(Opcode::Stw).use_(Reg::gpr(src)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot))
    }

    #[test]
    fn empty_graph() {
        let g = DepGraph::build(&[]);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert!(g.respects(&[]));
    }

    #[test]
    fn true_dependence() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 1, 9)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::True));
    }

    #[test]
    fn anti_dependence() {
        // i0 reads r1; i1 overwrites r1.
        let g = DepGraph::build(&[add(2, 1, 1), add(1, 9, 9)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Anti));
    }

    #[test]
    fn output_dependence() {
        let g = DepGraph::build(&[add(1, 9, 9), add(1, 8, 8)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Output));
    }

    #[test]
    fn independent_instructions_have_no_edge() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 8, 8)]);
        assert_eq!(g.edge_count(), 0);
        assert!(g.respects(&[1, 0]));
    }

    #[test]
    fn memory_edges_respect_aliasing() {
        let g = DepGraph::build(&[store(1, 0), load(2, 0), load(3, 8)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Memory), "aliasing load after store");
        assert!(!g.has_edge(0, 2), "disjoint slots are independent");
        assert!(!g.has_edge(1, 2), "loads do not order with loads");
    }

    #[test]
    fn store_after_load_is_ordered() {
        let g = DepGraph::build(&[load(2, 0), store(1, 0)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Memory));
    }

    /// Regression: every store used to retire every pending load, so the
    /// second store to slot 1 got no edge from the load of slot 1 and
    /// could be scheduled above it (`[2, 0, 1]` was accepted).
    #[test]
    fn a_store_to_another_slot_does_not_retire_a_pending_load() {
        let insts = [load(1, 1), store(2, 2), store(3, 1)];
        let g = DepGraph::build(&insts);
        assert_eq!(g.edge_kind(0, 2), Some(DepKind::Memory), "load of slot 1 orders the store to slot 1");
        assert!(!g.respects(&[2, 0, 1]));
        assert!(!DepGraph::build_speculative(&insts).respects(&[2, 0, 1]));
        // A covering store still retires the load: the later store is
        // ordered through it.
        let covered = DepGraph::build(&[load(1, 1), store(2, 1), store(3, 1)]);
        assert!(!covered.has_edge(0, 2) && covered.has_edge(0, 1) && covered.has_edge(1, 2));
    }

    #[test]
    fn unknown_slot_aliases_everything_in_space() {
        let g = DepGraph::build(&[
            store(1, 0),
            Inst::new(Opcode::Lwz).def(Reg::gpr(2)).use_(Reg::gpr(30)).mem(MemRef::unknown(MemSpace::Heap)),
        ]);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn branch_orders_with_everything() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 8, 8), Inst::new(Opcode::Bc).use_(Reg::cr(0))]);
        assert_eq!(g.edge_kind(0, 2), Some(DepKind::Control));
        assert_eq!(g.edge_kind(1, 2), Some(DepKind::Control));
        assert!(g.respects(&[1, 0, 2]));
        assert!(!g.respects(&[0, 2, 1]));
    }

    #[test]
    fn call_is_a_barrier_both_ways() {
        let g = DepGraph::build(&[add(1, 9, 9), Inst::new(Opcode::Bl).def(Reg::lr()), add(2, 8, 8)]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2), "barrier chaining keeps the graph sparse");
        assert!(!g.respects(&[2, 1, 0]));
        assert!(g.respects(&[0, 1, 2]));
    }

    #[test]
    fn hazard_disallows_reordering() {
        let pei = Inst::new(Opcode::Lwz)
            .def(Reg::gpr(5))
            .use_(Reg::gpr(30))
            .mem(MemRef::slot(MemSpace::Heap, 4))
            .hazard(Hazards::PEI);
        let g = DepGraph::build(&[add(1, 9, 9), pei, add(2, 8, 8)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Hazard));
        assert_eq!(g.edge_kind(1, 2), Some(DepKind::Hazard));
    }

    #[test]
    fn ready_tracks_scheduled_mask() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 1, 9), add(3, 8, 8)]);
        assert_eq!(g.ready(&[false, false, false]), vec![0, 2]);
        assert_eq!(g.ready(&[true, false, false]), vec![1, 2]);
        assert_eq!(g.ready(&[true, true, true]), Vec::<usize>::new());
    }

    #[test]
    fn respects_rejects_non_permutations() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 8, 8)]);
        assert!(!g.respects(&[0]));
        assert!(!g.respects(&[0, 0]));
        assert!(!g.respects(&[0, 5]));
    }

    #[test]
    fn speculative_lets_alu_cross_branches() {
        let insts = vec![add(1, 9, 9), Inst::new(Opcode::Bc).use_(Reg::cr(0)), add(2, 8, 8)];
        let normal = DepGraph::build(&insts);
        assert!(normal.has_edge(0, 1) && normal.has_edge(1, 2));
        let spec = DepGraph::build_speculative(&insts);
        assert!(!spec.has_edge(0, 1), "pure add may sink below the branch");
        assert!(!spec.has_edge(1, 2), "pure add may hoist above the branch");
        assert!(spec.respects(&[0, 2, 1]));
        assert!(spec.respects(&[1, 0, 2]));
    }

    #[test]
    fn speculative_keeps_stores_ordered_with_branches() {
        let insts = vec![store(1, 0), Inst::new(Opcode::Bc).use_(Reg::cr(0)), store(2, 4)];
        let spec = DepGraph::build_speculative(&insts);
        assert!(spec.has_edge(0, 1), "stores may not sink below a side exit");
        assert!(spec.has_edge(1, 2), "stores may not hoist above a side exit");
    }

    #[test]
    fn speculative_keeps_branches_ordered() {
        let insts = vec![Inst::new(Opcode::Bc).use_(Reg::cr(0)), add(1, 9, 9), Inst::new(Opcode::Bc).use_(Reg::cr(0))];
        let spec = DepGraph::build_speculative(&insts);
        assert!(spec.has_edge(0, 2), "side exits stay in order");
        assert!(!spec.has_edge(0, 1));
    }

    #[test]
    fn speculative_calls_remain_full_barriers() {
        let insts = vec![add(1, 9, 9), Inst::new(Opcode::Bl).def(Reg::lr()), add(2, 8, 8)];
        let spec = DepGraph::build_speculative(&insts);
        assert!(spec.has_edge(0, 1));
        assert!(spec.has_edge(1, 2));
    }

    #[test]
    fn speculative_hazards_remain_full_barriers() {
        let pei = Inst::new(Opcode::NullCheck).use_(Reg::gpr(5)).hazard(Hazards::PEI);
        let insts = vec![add(1, 9, 9), pei, add(2, 8, 8)];
        let spec = DepGraph::build_speculative(&insts);
        assert!(spec.has_edge(0, 1));
        assert!(spec.has_edge(1, 2));
    }

    #[test]
    fn edges_are_deduplicated() {
        // i1 both truly depends on r1 and anti-depends via r2... build a
        // case with two reasons for the same edge.
        let i0 = Inst::new(Opcode::Add).def(Reg::gpr(1)).def(Reg::gpr(2)).use_(Reg::gpr(9)).use_(Reg::gpr(9));
        let i1 = add(3, 1, 2);
        let g = DepGraph::build(&[i0, i1]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn dedup_keeps_the_first_kind_recorded() {
        // i1 truly depends on i0 via r1 (recorded while scanning uses)
        // and anti-depends via r9 (recorded later, while scanning defs):
        // the True edge, recorded first, wins.
        let i0 = Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(9)).use_(Reg::gpr(9));
        let i1 = Inst::new(Opcode::Add).def(Reg::gpr(9)).use_(Reg::gpr(1)).use_(Reg::gpr(1));
        let g = DepGraph::build(&[i0, i1]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::True));
    }

    #[test]
    fn builder_reuse_across_blocks_is_clean() {
        // Same builder, different blocks: no state may leak between runs.
        let mut builder = GraphBuilder::new();
        let mut g = DepGraph::empty();

        builder.build_into(&[add(1, 9, 9), add(2, 1, 9)], false, &mut g);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::True));
        assert_eq!(builder.last_edge_count(), 1);

        // A block reusing the same registers with no dependence: the old
        // last-def/reader entries must not leak in.
        builder.build_into(&[add(1, 9, 9), add(2, 8, 8)], false, &mut g);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(builder.last_edge_count(), 0);

        builder.build_into(&[store(1, 0), load(2, 0)], false, &mut g);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Memory));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn builder_matches_one_shot_builds() {
        let blocks: Vec<Vec<Inst>> = vec![
            vec![add(1, 9, 9), add(2, 1, 9), store(2, 0), load(3, 0)],
            vec![load(1, 4), Inst::new(Opcode::Bc).use_(Reg::cr(0)), add(2, 1, 1)],
            vec![],
            vec![add(1, 1, 1)],
        ];
        let mut builder = GraphBuilder::new();
        let mut g = DepGraph::empty();
        for block in &blocks {
            for &speculative in &[false, true] {
                builder.build_into(block, speculative, &mut g);
                let fresh = if speculative { DepGraph::build_speculative(block) } else { DepGraph::build(block) };
                assert_eq!(g.edge_count(), fresh.edge_count());
                for i in 0..block.len() {
                    assert_eq!(g.preds(i), fresh.preds(i));
                    assert!(g.succs(i).eq(fresh.succs(i)));
                }
            }
        }
    }
}
