//! Protocol model checking: a deterministic DFS driver ([`Explorer`])
//! that explores a small state machine over every interleaving of its
//! actors — enabled transitions in a fixed order, memoized on state, so
//! the walk terminates. `wts_serve::check_serve_protocol` runs it over
//! the server's own serving core, so the machine it explores is the
//! code that runs, not a copy of it.

use crate::diag::{Analysis, Diagnostic, UnitCtx};
use std::collections::HashSet;
use std::hash::Hash;

/// The outcome of one exhaustive protocol exploration.
#[derive(Debug, Clone)]
pub struct ProtoReport {
    /// Which machine was checked (diagnostics carry it too).
    pub machine: String,
    /// Distinct states visited.
    pub states: usize,
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

/// Deterministic DFS over a protocol machine: explores every
/// interleaving (memoized on state), collecting deduplicated
/// diagnostics under [`Analysis::Protocol`].
pub struct Explorer<S> {
    seen: HashSet<S>,
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
            self.run(s, successors, terminal);
        }
    }

    /// The exploration's outcome under the machine name `machine`.
    pub fn report(self, machine: &str) -> ProtoReport {
        ProtoReport { machine: machine.to_string(), states: self.seen.len(), diagnostics: self.diags }
    }
}
