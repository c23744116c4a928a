//! Protocol model checking: a deterministic DFS driver ([`Explorer`])
//! that explores a small state machine over every interleaving of its
//! actors — enabled transitions in a fixed order, memoized on state, so
//! the walk terminates — and the `FilterStore` epoch protocol as one
//! such machine. `wts_serve::check_serve_protocol` runs the same
//! explorer over the server's own serving core. The store machine
//! checks **epoch monotonicity** (every published epoch is strictly
//! greater than its predecessor, no swap increment is lost) and **batch
//! atomicity** (a served batch is decided by exactly one snapshot
//! epoch). Its *model-fidelity knobs* ([`SwapModel`], [`SnapshotModel`])
//! default to what the implementation does, which must check clean; the
//! other value injects a classic bug (read-then-write swap, per-unit
//! snapshot reload), which must be caught.

use crate::diag::{Analysis, Diagnostic, UnitCtx};
use std::collections::HashSet;
use std::hash::Hash;

/// How a writer publishes a new filter epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwapModel {
    /// Compute `old + 1` and publish under one write lock — what
    /// `FilterStore::swap` does.
    #[default]
    Atomic,
    /// Read the epoch, release, then publish the staged value later —
    /// the classic lost-update bug. Interleavings regress the epoch.
    ReadThenWrite,
}

/// When a serving worker loads its filter snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotModel {
    /// One snapshot load per batch — what `worker_loop` does.
    #[default]
    PerBatch,
    /// Reload per unit — a swap mid-batch splits the batch across
    /// epochs.
    PerUnit,
}

/// Bound and shape of the store-protocol model.
#[derive(Debug, Clone, Copy)]
pub struct StoreProtoConfig {
    /// Concurrent swapping writers (trainer + retrainer).
    pub writers: usize,
    /// Swaps each writer performs.
    pub swaps_per_writer: usize,
    /// Concurrent serving workers.
    pub workers: usize,
    /// Batches each worker serves.
    pub batches_per_worker: usize,
    /// Decisions per batch.
    pub units_per_batch: usize,
    /// Swap publication model.
    pub swap: SwapModel,
    /// Snapshot load model.
    pub snapshot: SnapshotModel,
}

impl Default for StoreProtoConfig {
    fn default() -> StoreProtoConfig {
        StoreProtoConfig {
            writers: 2,
            swaps_per_writer: 2,
            workers: 2,
            batches_per_worker: 1,
            units_per_batch: 2,
            swap: SwapModel::default(),
            snapshot: SnapshotModel::default(),
        }
    }
}

/// The outcome of one exhaustive protocol exploration.
#[derive(Debug, Clone)]
pub struct ProtoReport {
    /// Which machine was checked (diagnostics carry it too).
    pub machine: String,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (interleaving edges explored).
    pub steps: usize,
    /// Invariant violations, one per violation class and location.
    pub diagnostics: Vec<Diagnostic>,
}

impl ProtoReport {
    /// True when every interleaving upheld every invariant.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Exploration ceiling — far above what the default bounds reach, a
/// backstop against accidentally unbounded configurations.
const MAX_STATES: usize = 1 << 20;

/// Deterministic DFS driver shared by the protocol machines: explores
/// every interleaving (memoized on state), collecting deduplicated
/// diagnostics under [`Analysis::Protocol`].
pub struct Explorer<S> {
    seen: HashSet<S>,
    steps: usize,
    emitted: HashSet<String>,
    diags: Vec<Diagnostic>,
    ctx: UnitCtx,
    truncated: bool,
}

impl<S: Clone + Eq + Hash> Explorer<S> {
    /// An explorer whose diagnostics name `machine`.
    pub fn new(machine: &str) -> Explorer<S> {
        Explorer {
            seen: HashSet::new(),
            steps: 0,
            emitted: HashSet::new(),
            diags: Vec::new(),
            ctx: UnitCtx::new(machine),
            truncated: false,
        }
    }

    /// Records an invariant violation once, however many paths reach it.
    pub fn emit(&mut self, message: String) {
        if self.emitted.insert(message.clone()) {
            self.diags.push(self.ctx.error(Analysis::Protocol, message));
        }
    }

    /// Explores from `state`: `successors` enumerates enabled transitions
    /// in a fixed order (possibly emitting diagnostics), `terminal`
    /// checks end-state invariants when no transition is enabled.
    pub fn run(
        &mut self,
        state: S,
        successors: &impl Fn(&S, &mut Explorer<S>) -> Vec<S>,
        terminal: &impl Fn(&S, &mut Explorer<S>),
    ) {
        if !self.seen.insert(state.clone()) {
            return;
        }
        if self.seen.len() >= MAX_STATES {
            if !self.truncated {
                self.truncated = true;
                self.emit(format!("state space exceeded {MAX_STATES} states: shrink the protocol bounds"));
            }
            return;
        }
        let next = successors(&state, self);
        if next.is_empty() {
            terminal(&state, self);
            return;
        }
        for s in next {
            self.steps += 1;
            self.run(s, successors, terminal);
        }
    }

    /// The exploration's outcome under the machine name `machine`.
    pub fn report(self, machine: &str) -> ProtoReport {
        ProtoReport {
            machine: machine.to_string(),
            states: self.seen.len(),
            steps: self.steps,
            diagnostics: self.diags,
        }
    }
}

// ---------------------------------------------------------------------------
// FilterStore epoch protocol
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WriterSt {
    /// Swaps still to perform.
    remaining: u8,
    /// Epoch read but not yet published (`ReadThenWrite` only).
    staged: Option<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ServeBatchSt {
    /// Snapshot epoch loaded at batch start.
    snap: u8,
    /// Epoch observed by each completed unit.
    seen: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WorkerSt {
    /// Batches still to serve.
    remaining: u8,
    /// The in-flight batch, if any.
    batch: Option<ServeBatchSt>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StoreState {
    /// The store's published epoch (first deploy publishes 1).
    epoch: u8,
    writers: Vec<WriterSt>,
    workers: Vec<WorkerSt>,
}

/// Model-checks the `FilterStore` epoch protocol: writers hot-swapping a
/// slot while workers serve batches against loaded snapshots. Proves
/// epoch monotonicity (no regression, no lost swap) and batch atomicity
/// (no batch split across a swap) over every interleaving.
pub fn check_store_protocol(cfg: StoreProtoConfig) -> ProtoReport {
    let machine = "filter-store";
    let init = StoreState {
        epoch: 1,
        writers: vec![
            WriterSt {
                remaining: u8::try_from(cfg.swaps_per_writer).expect("swaps_per_writer fits u8"),
                staged: None
            };
            cfg.writers
        ],
        workers: vec![
            WorkerSt {
                remaining: u8::try_from(cfg.batches_per_worker).expect("batches_per_worker fits u8"),
                batch: None
            };
            cfg.workers
        ],
    };
    let expected_final = 1 + u8::try_from(cfg.writers * cfg.swaps_per_writer).expect("total swaps fit u8");

    let successors = move |s: &StoreState, ex: &mut Explorer<StoreState>| {
        let mut next = Vec::new();
        for (w, wr) in s.writers.iter().enumerate() {
            match (cfg.swap, wr.staged) {
                (SwapModel::Atomic, _) if wr.remaining > 0 => {
                    // Read and publish under one lock: old + 1 is
                    // strictly monotone by construction.
                    let mut n = s.clone();
                    n.epoch += 1;
                    n.writers[w].remaining -= 1;
                    next.push(n);
                }
                (SwapModel::ReadThenWrite, None) if wr.remaining > 0 => {
                    let mut n = s.clone();
                    n.writers[w].staged = Some(s.epoch + 1);
                    next.push(n);
                }
                (SwapModel::ReadThenWrite, Some(v)) => {
                    if v <= s.epoch {
                        ex.emit(format!(
                            "hot-swap interleaving regressed the epoch: a writer published {v} after the store reached {}",
                            s.epoch
                        ));
                    }
                    let mut n = s.clone();
                    n.epoch = v;
                    n.writers[w].staged = None;
                    n.writers[w].remaining -= 1;
                    next.push(n);
                }
                _ => {}
            }
        }
        for (k, wk) in s.workers.iter().enumerate() {
            match &wk.batch {
                None if wk.remaining > 0 => {
                    let mut n = s.clone();
                    n.workers[k].batch = Some(ServeBatchSt { snap: s.epoch, seen: Vec::new() });
                    next.push(n);
                }
                Some(b) if b.seen.len() < cfg.units_per_batch => {
                    let mut n = s.clone();
                    let observed = match cfg.snapshot {
                        SnapshotModel::PerBatch => b.snap,
                        SnapshotModel::PerUnit => s.epoch,
                    };
                    let nb = n.workers[k].batch.as_mut().expect("batch in flight");
                    nb.seen.push(observed);
                    if nb.seen.len() == cfg.units_per_batch {
                        let first = nb.seen[0];
                        if let Some(&split) = nb.seen.iter().find(|&&e| e != first) {
                            ex.emit(format!(
                                "batch split across a swap: one unit decided at epoch {first}, another at epoch {split}"
                            ));
                        }
                        n.workers[k].batch = None;
                        n.workers[k].remaining -= 1;
                    }
                    next.push(n);
                }
                _ => {}
            }
        }
        next
    };
    let terminal = move |s: &StoreState, ex: &mut Explorer<StoreState>| {
        if s.epoch != expected_final {
            ex.emit(format!(
                "lost swap: the store finished at epoch {} after {} swaps, expected {expected_final}",
                s.epoch,
                (expected_final - 1)
            ));
        }
    };

    let mut ex = Explorer::new(machine);
    ex.run(init, &successors, &terminal);
    ex.report(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render;

    #[test]
    fn store_protocol_checks_clean_under_the_implemented_models() {
        let report = check_store_protocol(StoreProtoConfig::default());
        assert!(report.is_clean(), "{}", render(&report.diagnostics));
        assert!(report.states > 100, "exhaustive walk should visit many states, saw {}", report.states);
    }

    #[test]
    fn read_then_write_swap_regresses_the_epoch() {
        let cfg = StoreProtoConfig { swap: SwapModel::ReadThenWrite, ..StoreProtoConfig::default() };
        let report = check_store_protocol(cfg);
        assert!(
            report.diagnostics.iter().any(|d| d.message.contains("regressed the epoch")),
            "{}",
            render(&report.diagnostics)
        );
        assert!(report.diagnostics.iter().any(|d| d.message.contains("lost swap")), "{}", render(&report.diagnostics));
    }

    #[test]
    fn per_unit_snapshot_reload_splits_batches() {
        let cfg = StoreProtoConfig { snapshot: SnapshotModel::PerUnit, ..StoreProtoConfig::default() };
        let report = check_store_protocol(cfg);
        assert!(
            report.diagnostics.iter().any(|d| d.message.contains("batch split across a swap")),
            "{}",
            render(&report.diagnostics)
        );
    }

    #[test]
    fn per_batch_snapshot_is_atomic_even_under_broken_swaps() {
        // The batch-atomicity invariant is independent of swap bugs: a
        // loaded snapshot stays coherent for the whole batch.
        let cfg = StoreProtoConfig { swap: SwapModel::ReadThenWrite, ..StoreProtoConfig::default() };
        let report = check_store_protocol(cfg);
        assert!(
            !report.diagnostics.iter().any(|d| d.message.contains("batch split")),
            "{}",
            render(&report.diagnostics)
        );
    }

    #[test]
    fn diagnostics_carry_the_protocol_analysis() {
        let cfg = StoreProtoConfig { swap: SwapModel::ReadThenWrite, ..StoreProtoConfig::default() };
        let report = check_store_protocol(cfg);
        assert!(report.diagnostics.iter().all(|d| d.analysis == Analysis::Protocol));
        assert!(report.diagnostics.iter().all(|d| d.machine == "filter-store"));
    }
}
