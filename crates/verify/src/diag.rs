//! The diagnostics core shared by every analysis.
//!
//! Message convention (shared with `wts_ir::ValidateError`): lowercase
//! prose naming the offending instruction by opcode and index, followed
//! by the consequence — e.g. `missing true dependence edge 2 -> 5: an
//! illegal reordering of lwz and add would go undetected`. The header
//! (`severity[analysis] machine method M unit U:`) carries the location;
//! the message carries the explanation.

use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not unsound: lost parallelism, a dependence kind
    /// recorded differently than re-derived.
    Warning,
    /// A soundness problem: an illegal schedule is possible or has been
    /// produced, or the cost bookkeeping disagrees with the machine model.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which analysis produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Analysis {
    /// Structural IR validity (`wts_ir::validate`).
    Structure,
    /// Dependence-graph soundness and completeness against the reference
    /// oracle.
    Dependence,
    /// Schedule legality and timing: permutation/dependence order, claimed
    /// cycle counts, issue-width and functional-unit capacity.
    Timing,
    /// Superblock speculation safety: side-effecting instructions vs side
    /// exits, entry identity.
    Speculation,
    /// Model-artifact coherence: shadowed/contradictory rules, non-finite
    /// thresholds, out-of-range calibrated scores, demand-mask drift.
    Model,
    /// Serving protocol safety: every admitted request answered once,
    /// a lossless drain, a shutdown that completes.
    Protocol,
}

impl Analysis {
    /// All analyses, in reporting order.
    pub const ALL: [Analysis; 6] = [
        Analysis::Structure,
        Analysis::Dependence,
        Analysis::Timing,
        Analysis::Speculation,
        Analysis::Model,
        Analysis::Protocol,
    ];
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Analysis::Structure => write!(f, "structure"),
            Analysis::Dependence => write!(f, "dependence"),
            Analysis::Timing => write!(f, "timing"),
            Analysis::Speculation => write!(f, "speculation"),
            Analysis::Model => write!(f, "model"),
            Analysis::Protocol => write!(f, "protocol"),
        }
    }
}

/// One finding: where it is, which analysis found it, how bad it is, and
/// a prose explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The analysis that produced it.
    pub analysis: Analysis,
    /// Target machine name (registry key).
    pub machine: String,
    /// Method id, when the unit came from a program sweep.
    pub method: Option<u32>,
    /// Scheduling-unit id: the block id, or the superblock's entry block id.
    pub unit: Option<u32>,
    /// The explanation, in `wts_ir::ValidateError` prose style.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.analysis, self.machine)?;
        if let Some(m) = self.method {
            write!(f, " method {m}")?;
        }
        if let Some(u) = self.unit {
            write!(f, " unit {u}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The location context a batch of diagnostics shares: which machine the
/// unit was verified against and (optionally) which method/unit it is.
#[derive(Debug, Clone)]
pub struct UnitCtx {
    machine: String,
    method: Option<u32>,
    unit: Option<u32>,
}

impl UnitCtx {
    /// A context carrying only the machine name (hook call sites, which
    /// see anonymous instruction slices).
    pub fn new(machine: &str) -> UnitCtx {
        UnitCtx { machine: machine.to_string(), method: None, unit: None }
    }

    /// A fully-located context for program sweeps.
    pub fn located(machine: &str, method: u32, unit: u32) -> UnitCtx {
        UnitCtx { machine: machine.to_string(), method: Some(method), unit: Some(unit) }
    }

    /// Builds a diagnostic at this location.
    pub fn diag(&self, severity: Severity, analysis: Analysis, message: String) -> Diagnostic {
        Diagnostic { severity, analysis, machine: self.machine.clone(), method: self.method, unit: self.unit, message }
    }

    /// An error diagnostic at this location.
    pub fn error(&self, analysis: Analysis, message: String) -> Diagnostic {
        self.diag(Severity::Error, analysis, message)
    }

    /// A warning diagnostic at this location.
    pub fn warning(&self, analysis: Analysis, message: String) -> Diagnostic {
        self.diag(Severity::Warning, analysis, message)
    }
}

/// Renders diagnostics one per line — the panic payload of the
/// debug-build hooks and the detail dump of `repro verify`.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    for d in diags {
        s.push_str(&d.to_string());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_location_and_message() {
        let ctx = UnitCtx::located("ppc7410", 3, 7);
        let d = ctx.error(Analysis::Timing, "claimed 12 cycles but re-simulation takes 14".into());
        assert_eq!(
            d.to_string(),
            "error[timing] ppc7410 method 3 unit 7: claimed 12 cycles but re-simulation takes 14"
        );
    }

    #[test]
    fn display_omits_missing_location_parts() {
        let ctx = UnitCtx::new("wide4");
        let d = ctx.warning(Analysis::Dependence, "spurious edge 1 -> 2".into());
        assert_eq!(d.to_string(), "warning[dependence] wide4: spurious edge 1 -> 2");
    }

    #[test]
    fn errors_order_above_warnings() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn render_is_one_line_per_diagnostic() {
        let ctx = UnitCtx::new("embedded");
        let diags = vec![ctx.error(Analysis::Structure, "a".into()), ctx.warning(Analysis::Speculation, "b".into())];
        assert_eq!(render(&diags), "error[structure] embedded: a\nwarning[speculation] embedded: b\n");
    }
}
