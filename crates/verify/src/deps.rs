//! Analysis 1: dependence soundness and completeness.
//!
//! [`oracle_edges`] re-derives the exact dependence-edge set a block (or
//! speculative superblock trace) must carry, straight from each
//! instruction's def/use/memref sets and the barrier rules documented in
//! `wts-deps` — using deliberately naive data structures (hash maps and
//! growable vectors, no dense tables, no epoch reuse, no CSR packing, no
//! bit rows). [`check_dependences`] then demands that the production
//! [`DepGraph`] has *exactly* the oracle's edges: a missing edge is an
//! unsoundness error (an illegal reordering would go undetected), an
//! extra edge is a lost-parallelism warning, and a kind disagreement is a
//! warning. The graph's encoding itself is audited for internal
//! consistency (the successor bit rows mirror the predecessor lists,
//! edges point forward, counts agree).

use crate::diag::{Analysis, Diagnostic, UnitCtx};
use std::collections::{HashMap, HashSet};
use wts_deps::{DepGraph, DepKind};
use wts_ir::{Inst, Reg};

/// Lowercase kind name for messages (`DepKind` has no Display).
fn kind_name(kind: DepKind) -> &'static str {
    match kind {
        DepKind::True => "true",
        DepKind::Anti => "anti",
        DepKind::Output => "output",
        DepKind::Memory => "memory",
        DepKind::Control => "control",
        DepKind::Hazard => "hazard",
    }
}

/// Recomputes the dependence edges of `insts` from first principles.
///
/// Edges are returned as `(from, to, kind)` with `from < to`, in the
/// chronological order they are first established — when two rules
/// produce an edge between the same pair, the first kind wins, matching
/// the graph builder's dedup contract.
pub fn oracle_edges(insts: &[Inst], speculative: bool) -> Vec<(usize, usize, DepKind)> {
    let mut edges: Vec<(usize, usize, DepKind)> = Vec::new();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let record = |edges: &mut Vec<(usize, usize, DepKind)>,
                  seen: &mut HashSet<(usize, usize)>,
                  from: usize,
                  to: usize,
                  kind: DepKind| {
        if from != to && seen.insert((from, to)) {
            edges.push((from, to, kind));
        }
    };

    let mut last_def: HashMap<Reg, usize> = HashMap::new();
    let mut readers: HashMap<Reg, Vec<usize>> = HashMap::new();
    let mut stores: Vec<usize> = Vec::new();
    let mut loads_since_store: Vec<usize> = Vec::new();
    let mut since_barrier: Vec<usize> = Vec::new();
    let mut last_barrier: Option<usize> = None;
    let mut last_branch: Option<usize> = None;

    for (i, inst) in insts.iter().enumerate() {
        let op = inst.opcode();

        // Register flow: a use reads the last writer (true), a def orders
        // after the previous writer (output) and after every reader since
        // that writer (anti).
        for u in inst.uses() {
            if let Some(&d) = last_def.get(u) {
                record(&mut edges, &mut seen, d, i, DepKind::True);
            }
            readers.entry(*u).or_default().push(i);
        }
        for d in inst.defs() {
            if let Some(&p) = last_def.get(d) {
                record(&mut edges, &mut seen, p, i, DepKind::Output);
            }
            if let Some(rs) = readers.get(d) {
                for &r in rs {
                    if r != i {
                        record(&mut edges, &mut seen, r, i, DepKind::Anti);
                    }
                }
            }
        }

        // Memory: any access orders after every may-aliasing prior store;
        // a store additionally orders after aliasing loads no earlier
        // store has covered.
        if let Some(m) = inst.mem_ref() {
            for &s in &stores {
                if m.may_alias(insts[s].mem_ref().expect("stores carry memrefs")) {
                    record(&mut edges, &mut seen, s, i, DepKind::Memory);
                }
            }
            if op.is_store() {
                for &l in &loads_since_store {
                    if m.may_alias(insts[l].mem_ref().expect("loads carry memrefs")) {
                        record(&mut edges, &mut seen, l, i, DepKind::Memory);
                    }
                }
            }
        }

        // Barriers. Non-speculative blocks treat every control transfer
        // and every hazardous instruction as a full barrier. Speculative
        // traces relax plain branches to "branch barriers": branches stay
        // ordered with each other and with side-effecting instructions,
        // but pure computation may cross them; calls, returns and
        // hazardous instructions remain full barriers.
        let is_full_barrier = if speculative {
            op.is_call() || op.is_return() || inst.is_hazardous()
        } else {
            op.is_control() || inst.is_hazardous()
        };
        let is_branch_barrier = speculative && op.is_branch();
        let effectful = op.has_side_effect() || inst.is_hazardous();

        if let Some(b) = last_barrier {
            let kind = if insts[b].opcode().is_control() { DepKind::Control } else { DepKind::Hazard };
            record(&mut edges, &mut seen, b, i, kind);
        }
        if is_branch_barrier {
            if let Some(br) = last_branch {
                record(&mut edges, &mut seen, br, i, DepKind::Control);
            }
            for &p in &since_barrier {
                if insts[p].opcode().has_side_effect() || insts[p].is_hazardous() {
                    record(&mut edges, &mut seen, p, i, DepKind::Control);
                }
            }
            last_branch = Some(i);
            since_barrier.push(i);
        } else if is_full_barrier {
            let kind = if op.is_control() { DepKind::Control } else { DepKind::Hazard };
            for &p in &since_barrier {
                record(&mut edges, &mut seen, p, i, kind);
            }
            last_barrier = Some(i);
            last_branch = None;
            since_barrier.clear();
        } else {
            if effectful {
                if let Some(br) = last_branch {
                    record(&mut edges, &mut seen, br, i, DepKind::Control);
                }
            }
            since_barrier.push(i);
        }

        // Bookkeeping after the instruction's own edges are recorded.
        for d in inst.defs() {
            last_def.insert(*d, i);
            readers.insert(*d, Vec::new());
        }
        if op.is_store() {
            stores.push(i);
            // A store retires only the loads it covers (same space, and
            // its slot unknown or the load's): a later store aliasing
            // such a load aliases this store too and orders through it.
            if let Some(m) = inst.mem_ref() {
                loads_since_store.retain(|&l| {
                    let lm = insts[l].mem_ref().expect("loads carry memrefs");
                    !(lm.space() == m.space() && (m.slot_id().is_none() || m.slot_id() == lm.slot_id()))
                });
            }
        } else if op.is_load() {
            loads_since_store.push(i);
        }
    }
    edges
}

/// Collects the production graph's edges as `(from, to, kind)` from the
/// predecessor lists (the kinds live only there).
fn graph_edges(graph: &DepGraph) -> Vec<(usize, usize, DepKind)> {
    let mut edges = Vec::new();
    for to in 0..graph.len() {
        for &(from, kind) in graph.preds(to) {
            edges.push((from as usize, to, kind));
        }
    }
    edges
}

/// Checks `graph` against the oracle and the encoding invariants, appending
/// diagnostics to `out`.
pub fn check_dependences(
    ctx: &UnitCtx,
    insts: &[Inst],
    speculative: bool,
    graph: &DepGraph,
    out: &mut Vec<Diagnostic>,
) {
    if graph.len() != insts.len() {
        out.push(ctx.error(
            Analysis::Dependence,
            format!("dependence graph has {} nodes but the unit has {} instructions", graph.len(), insts.len()),
        ));
        return;
    }

    let oracle: HashMap<(usize, usize), DepKind> =
        oracle_edges(insts, speculative).into_iter().map(|(f, t, k)| ((f, t), k)).collect();
    let got: HashMap<(usize, usize), DepKind> = graph_edges(graph).into_iter().map(|(f, t, k)| ((f, t), k)).collect();

    let mut missing: Vec<(usize, usize, DepKind)> =
        oracle.iter().filter(|(pair, _)| !got.contains_key(pair)).map(|(&(f, t), &k)| (f, t, k)).collect();
    missing.sort_unstable();
    for (f, t, k) in missing {
        out.push(ctx.error(
            Analysis::Dependence,
            format!(
                "missing {} dependence edge {f} -> {t}: an illegal reordering of {} and {} would go undetected",
                kind_name(k),
                insts[f].opcode(),
                insts[t].opcode()
            ),
        ));
    }
    let mut spurious: Vec<(usize, usize, DepKind)> =
        got.iter().filter(|(pair, _)| !oracle.contains_key(pair)).map(|(&(f, t), &k)| (f, t, k)).collect();
    spurious.sort_unstable();
    for (f, t, k) in spurious {
        out.push(ctx.warning(
            Analysis::Dependence,
            format!(
                "spurious {} dependence edge {f} -> {t}: legal parallelism between {} and {} is lost",
                kind_name(k),
                insts[f].opcode(),
                insts[t].opcode()
            ),
        ));
    }
    let mut mismatched: Vec<(usize, usize, DepKind, DepKind)> = oracle
        .iter()
        .filter_map(|(&(f, t), &want)| match got.get(&(f, t)) {
            Some(&have) if have != want => Some((f, t, have, want)),
            _ => None,
        })
        .collect();
    mismatched.sort_unstable();
    for (f, t, have, want) in mismatched {
        out.push(ctx.warning(
            Analysis::Dependence,
            format!("dependence edge {f} -> {t} recorded as {} but re-derived as {}", kind_name(have), kind_name(want)),
        ));
    }

    check_csr_consistency(ctx, graph, out);
}

/// Audits the graph's encoding itself: predecessor edges point strictly
/// forward and name each source once, the successor rows mirror the
/// predecessor lists edge for edge, ascending, and the edge count agrees.
fn check_csr_consistency(ctx: &UnitCtx, graph: &DepGraph, out: &mut Vec<Diagnostic>) {
    let n = graph.len();
    let mut pred_edges: HashSet<(usize, usize)> = HashSet::new();
    let mut pred_count = 0usize;
    for to in 0..n {
        for &(from, _) in graph.preds(to) {
            pred_count += 1;
            let from = from as usize;
            if from >= to {
                out.push(ctx.error(
                    Analysis::Dependence,
                    format!("edge {from} -> {to} does not point strictly forward inside the unit"),
                ));
            } else if !pred_edges.insert((from, to)) {
                out.push(ctx.error(Analysis::Dependence, format!("predecessor list of {to} names {from} twice")));
            }
        }
    }
    for from in 0..n {
        let mut last = None;
        for to in graph.succs(from) {
            if let Some(prev) = last.filter(|&prev| prev >= to) {
                out.push(ctx.error(
                    Analysis::Dependence,
                    format!("successor row of {from} is not ascending ({prev} before {to})"),
                ));
            }
            last = Some(to);
            if !pred_edges.remove(&(from, to)) {
                out.push(ctx.error(
                    Analysis::Dependence,
                    format!("successor edge {from} -> {to} has no mirror in the predecessor lists"),
                ));
            }
        }
    }
    let mut unmirrored: Vec<(usize, usize)> = pred_edges.into_iter().collect();
    unmirrored.sort_unstable();
    for (from, to) in unmirrored {
        out.push(ctx.error(
            Analysis::Dependence,
            format!("predecessor edge {from} -> {to} has no mirror in the successor rows"),
        ));
    }
    if pred_count != graph.edge_count() {
        out.push(ctx.error(
            Analysis::Dependence,
            format!("graph reports {} edges but the predecessor lists hold {pred_count}", graph.edge_count()),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use wts_ir::{MemRef, MemSpace, Opcode, Reg};

    fn ctx() -> UnitCtx {
        UnitCtx::new("test")
    }

    fn clean(insts: &[Inst], speculative: bool) -> Vec<Diagnostic> {
        let graph = if speculative { DepGraph::build_speculative(insts) } else { DepGraph::build(insts) };
        let mut out = Vec::new();
        check_dependences(&ctx(), insts, speculative, &graph, &mut out);
        out
    }

    #[test]
    fn production_graph_matches_the_oracle_on_a_mixed_block() {
        let insts = vec![
            Inst::new(Opcode::Lwz).def(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Stack, 0)),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
            Inst::new(Opcode::Stw).use_(Reg::gpr(2)).mem(MemRef::slot(MemSpace::Stack, 0)),
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).mem(MemRef::unknown(MemSpace::Heap)),
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(3)).use_(Reg::gpr(3)),
            Inst::new(Opcode::Bc),
        ];
        for speculative in [false, true] {
            let diags = clean(&insts, speculative);
            assert!(diags.is_empty(), "speculative={speculative}:\n{}", crate::render(&diags));
        }
    }

    #[test]
    fn oracle_orders_effectful_insts_with_branches_in_speculative_mode() {
        let insts = vec![
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Stack, 0)),
            Inst::new(Opcode::Bc),
            Inst::new(Opcode::Stw).use_(Reg::gpr(2)).mem(MemRef::slot(MemSpace::Stack, 4)),
        ];
        let edges = oracle_edges(&insts, true);
        assert!(edges.contains(&(0, 1, DepKind::Control)), "store stays above the exit: {edges:?}");
        assert!(edges.contains(&(1, 2, DepKind::Control)), "store stays below the exit: {edges:?}");
        // The two stores never alias and get no direct edge.
        assert!(!edges.iter().any(|&(f, t, _)| (f, t) == (0, 2)), "{edges:?}");
    }

    /// Regression: the oracle used to retire every pending load at any
    /// store, sharing the production graph's defect, so a store hoisted
    /// above an earlier load of its slot passed every check.
    #[test]
    fn oracle_orders_a_store_after_a_load_an_unrelated_store_does_not_cover() {
        let heap = |slot| MemRef::slot(MemSpace::Heap, slot);
        let insts = vec![
            Inst::new(Opcode::Lwz).def(Reg::gpr(1)).mem(heap(1)),
            Inst::new(Opcode::Stw).use_(Reg::gpr(2)).mem(heap(2)),
            Inst::new(Opcode::Stw).use_(Reg::gpr(3)).mem(heap(1)),
        ];
        for speculative in [false, true] {
            let edges = oracle_edges(&insts, speculative);
            assert!(edges.contains(&(0, 2, DepKind::Memory)), "speculative={speculative}: {edges:?}");
            let diags = clean(&insts, speculative);
            assert!(diags.is_empty(), "speculative={speculative}:\n{}", crate::render(&diags));
        }
    }

    #[test]
    fn a_dropped_edge_is_reported_as_a_missing_dependence_error() {
        // Tamper: build the graph from a renamed copy so the true edge
        // 0 -> 1 disappears, then check it against the real block.
        let real = vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(9)).use_(Reg::gpr(9)),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
        ];
        let tampered = vec![real[0], Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(8)).use_(Reg::gpr(8))];
        let graph = DepGraph::build(&tampered);
        let mut out = Vec::new();
        check_dependences(&ctx(), &real, false, &graph, &mut out);
        assert!(
            out.iter()
                .any(|d| d.severity == crate::Severity::Error
                    && d.message.contains("missing true dependence edge 0 -> 1")),
            "{}",
            crate::render(&out)
        );
    }

    #[test]
    fn an_extra_edge_is_reported_as_lost_parallelism() {
        // Tamper the other way: the graph carries an edge the block does
        // not justify.
        let independent = vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(9)).use_(Reg::gpr(9)),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(8)).use_(Reg::gpr(8)),
        ];
        let chained = vec![independent[0], Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1))];
        let graph = DepGraph::build(&chained);
        let mut out = Vec::new();
        check_dependences(&ctx(), &independent, false, &graph, &mut out);
        assert!(
            out.iter().any(|d| d.severity == crate::Severity::Warning
                && d.message.contains("spurious true dependence edge 0 -> 1")),
            "{}",
            crate::render(&out)
        );
    }

    #[test]
    fn node_count_mismatch_is_an_error() {
        let insts = vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(9)).use_(Reg::gpr(9)),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(8)).use_(Reg::gpr(8)),
        ];
        let graph = DepGraph::build(&insts[..1]);
        let mut out = Vec::new();
        check_dependences(&ctx(), &insts, false, &graph, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("1 nodes but the unit has 2 instructions"), "{}", out[0]);
    }
}
