//! Whole-machine descriptions.

use crate::{FunctionalUnit, LatencyTable, UnitSet};
use wts_ir::{Opcode, UnitClass};

/// One opcode's row of a machine's timing table: everything the issue
/// models read about an opcode, resolved once per [`MachineConfig`] so a
/// hot loop reads one row instead of re-deriving the unit class, opcode
/// kind, latency and occupancy on every query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpTiming {
    /// Cycles from issue until the result is available.
    pub(crate) latency: u32,
    /// Cycles the functional unit stays busy after issue
    /// ([`LatencyTable::unit_occupancy`]).
    pub(crate) occupancy: u32,
    /// The units able to execute the opcode.
    pub(crate) units: UnitSet,
    /// Issues against the branch width rather than the non-branch one
    /// (the opcode's unit class is [`UnitClass::Branch`]).
    pub(crate) branch: bool,
    /// Serializing: syncs and calls wait for everything issued before
    /// them, and everything after them waits for their completion.
    pub(crate) serializing: bool,
    /// A store: orders after earlier aliasing loads, not only stores.
    pub(crate) store: bool,
}

/// Resolves every opcode's [`OpTiming`] row from a latency table and a
/// class-indexed unit map.
fn timing_table(latencies: &LatencyTable, unit_map: &[UnitSet; 6]) -> [OpTiming; Opcode::COUNT] {
    std::array::from_fn(|i| {
        let op = Opcode::ALL[i];
        OpTiming {
            latency: latencies.latency(op),
            occupancy: latencies.unit_occupancy(op),
            units: unit_map[class_index(op.unit_class())],
            branch: op.unit_class() == UnitClass::Branch,
            serializing: op.is_serializing(),
            store: op.is_store(),
        }
    })
}

/// A description of the modelled processor: functional units, issue rules,
/// latencies and the out-of-order window used by [`PipelineSim`].
///
/// [`PipelineSim`]: crate::PipelineSim
///
/// # Examples
///
/// ```
/// use wts_machine::MachineConfig;
/// let m = MachineConfig::ppc7410();
/// assert_eq!(m.issue_width(), 2);
/// assert_eq!(m.branch_width(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    name: String,
    issue_width: u32,
    branch_width: u32,
    window: usize,
    latencies: LatencyTable,
    unit_map: [UnitSet; 6],
    /// Derived from `latencies` and `unit_map`; rebuilt wherever either
    /// changes.
    timing: [OpTiming; Opcode::COUNT],
}

impl MachineConfig {
    /// Builds a machine from parts.
    ///
    /// `issue_width` bounds non-branch issues per cycle; `branch_width`
    /// bounds branch issues per cycle; `window` is the out-of-order window
    /// depth of the detailed simulator (1 = fully in-order).
    ///
    /// # Panics
    ///
    /// Panics if any width or the window is zero, or if some [`UnitClass`]
    /// has no unit to execute on.
    pub fn new(
        name: impl Into<String>,
        issue_width: u32,
        branch_width: u32,
        window: usize,
        latencies: LatencyTable,
        unit_map: [(UnitClass, UnitSet); 6],
    ) -> MachineConfig {
        assert!(issue_width >= 1, "issue width must be positive");
        assert!(branch_width >= 1, "branch width must be positive");
        assert!(window >= 1, "window must be positive");
        let mut map = [UnitSet::new(); 6];
        for (class, set) in unit_map {
            assert!(!set.is_empty(), "unit class {class} has no units");
            map[class_index(class)] = set;
        }
        for class in UnitClass::ALL {
            assert!(!map[class_index(class)].is_empty(), "unit class {class} not mapped");
        }
        let timing = timing_table(&latencies, &map);
        MachineConfig { name: name.into(), issue_width, branch_width, window, latencies, unit_map: map, timing }
    }

    /// Starts a [`MachineBuilder`] with single-issue in-order defaults,
    /// 7410 latencies and the conventional one-unit-per-class mapping.
    pub fn builder(name: impl Into<String>) -> MachineBuilder {
        MachineBuilder::new(name)
    }

    /// The PowerPC 7410 model used in the paper's experiments: two
    /// dissimilar integer units, one each of FPU/BRU/LSU/SU, two non-branch
    /// plus one branch issue per cycle, and a small out-of-order window.
    pub fn ppc7410() -> MachineConfig {
        use FunctionalUnit::*;
        MachineConfig::builder("ppc7410")
            .issue_width(2)
            .window(8)
            .units(UnitClass::SimpleInt, &[Iu1, Iu2])
            .units(UnitClass::ComplexInt, &[Iu2])
            .build()
    }

    /// A single-issue, fully in-order machine (ablation: "older processors
    /// with less dynamic scheduling", paper §3.1). Scheduling matters more
    /// here because the hardware recovers nothing.
    pub fn simple_scalar() -> MachineConfig {
        MachineConfig::builder("simple-scalar").build()
    }

    /// Like the 7410 but with doubled floating-point latencies (ablation:
    /// an FP-weak core where scheduling FP code pays off even more).
    /// Derived from [`ppc7410`](MachineConfig::ppc7410) rather than
    /// restated, so the two can never silently diverge in shape.
    pub fn deep_fp() -> MachineConfig {
        let mut m = MachineConfig::ppc7410();
        m.name = "deep-fp".into();
        m.latencies = m.latencies.with_scaled_float(2);
        m.timing = timing_table(&m.latencies, &m.unit_map);
        m
    }

    /// A wide 4-issue superscalar: both integer units take complex ops,
    /// two branches per cycle, a deep out-of-order window and the fast
    /// [`LatencyTable::wide4`] cache. The hardware recovers most stalls
    /// itself, so induced filters should learn to schedule *less* here.
    pub fn wide4() -> MachineConfig {
        use FunctionalUnit::*;
        MachineConfig::builder("wide4")
            .issue_width(4)
            .branch_width(2)
            .window(32)
            .units(UnitClass::SimpleInt, &[Iu1, Iu2])
            .units(UnitClass::ComplexInt, &[Iu1, Iu2])
            .latencies(LatencyTable::wide4())
            .build()
    }

    /// A single-issue embedded core with the long-memory-latency
    /// [`LatencyTable::embedded`] profile and no dynamic scheduling at
    /// all. The opposite end of the spectrum from [`wide4`]: almost every
    /// block with a load benefits from static scheduling.
    ///
    /// [`wide4`]: MachineConfig::wide4
    pub fn embedded() -> MachineConfig {
        MachineConfig::builder("embedded").latencies(LatencyTable::embedded()).build()
    }

    /// A deep-pipeline, high-branch-cost profile
    /// ([`LatencyTable::deep_pipe`]): dual-issue with a modest window,
    /// where control transfers dominate block cost and the win from
    /// scheduling concentrates in branch-light blocks.
    pub fn deep_pipe() -> MachineConfig {
        use FunctionalUnit::*;
        MachineConfig::builder("deep-pipe")
            .issue_width(2)
            .window(16)
            .units(UnitClass::SimpleInt, &[Iu1, Iu2])
            .units(UnitClass::ComplexInt, &[Iu2])
            .latencies(LatencyTable::deep_pipe())
            .build()
    }

    /// Machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maximum non-branch instructions issued per cycle.
    #[inline]
    pub fn issue_width(&self) -> u32 {
        self.issue_width
    }

    /// Maximum branch-unit instructions issued per cycle.
    #[inline]
    pub fn branch_width(&self) -> u32 {
        self.branch_width
    }

    /// Out-of-order window depth used by the detailed simulator.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// The latency table.
    #[inline]
    pub fn latencies(&self) -> &LatencyTable {
        &self.latencies
    }

    /// Units able to execute the given class.
    #[inline]
    pub fn units_for(&self, class: UnitClass) -> UnitSet {
        self.unit_map[class_index(class)]
    }

    /// Convenience: latency of an opcode on this machine.
    #[inline]
    pub fn latency(&self, op: Opcode) -> u32 {
        self.timing[op.index()].latency
    }

    /// The opcode's row of this machine's timing table.
    #[inline]
    pub(crate) fn timing(&self, op: Opcode) -> &OpTiming {
        &self.timing[op.index()]
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::ppc7410()
    }
}

/// Step-by-step construction of a [`MachineConfig`].
///
/// The builder starts from a conservative baseline — single-issue,
/// fully in-order, [`LatencyTable::ppc7410`] latencies, one unit per
/// class (both integer classes on IU1) — and every named machine in the
/// [registry](mod@crate::registry) is a handful of overrides on top of it,
/// which is also how downstream users add their own targets.
///
/// # Examples
///
/// ```
/// use wts_ir::UnitClass;
/// use wts_machine::{FunctionalUnit, MachineConfig};
///
/// let m = MachineConfig::builder("my-core")
///     .issue_width(2)
///     .window(4)
///     .units(UnitClass::SimpleInt, &[FunctionalUnit::Iu1, FunctionalUnit::Iu2])
///     .build();
/// assert_eq!(m.name(), "my-core");
/// assert_eq!(m.issue_width(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    name: String,
    issue_width: u32,
    branch_width: u32,
    window: usize,
    latencies: LatencyTable,
    unit_map: [UnitSet; 6],
}

impl MachineBuilder {
    /// A builder with the conservative single-issue baseline.
    pub fn new(name: impl Into<String>) -> MachineBuilder {
        use FunctionalUnit::*;
        let mut unit_map = [UnitSet::new(); 6];
        for (class, set) in [
            (UnitClass::SimpleInt, UnitSet::of(&[Iu1])),
            (UnitClass::ComplexInt, UnitSet::of(&[Iu1])),
            (UnitClass::Float, UnitSet::of(&[Fpu])),
            (UnitClass::Branch, UnitSet::of(&[Bru])),
            (UnitClass::LoadStore, UnitSet::of(&[Lsu])),
            (UnitClass::System, UnitSet::of(&[Su])),
        ] {
            unit_map[class_index(class)] = set;
        }
        MachineBuilder {
            name: name.into(),
            issue_width: 1,
            branch_width: 1,
            window: 1,
            latencies: LatencyTable::ppc7410(),
            unit_map,
        }
    }

    /// Maximum non-branch issues per cycle.
    pub fn issue_width(mut self, width: u32) -> MachineBuilder {
        self.issue_width = width;
        self
    }

    /// Maximum branch issues per cycle.
    pub fn branch_width(mut self, width: u32) -> MachineBuilder {
        self.branch_width = width;
        self
    }

    /// Out-of-order window depth of the detailed simulator (1 = in-order).
    pub fn window(mut self, window: usize) -> MachineBuilder {
        self.window = window;
        self
    }

    /// Replaces the whole latency table.
    pub fn latencies(mut self, table: LatencyTable) -> MachineBuilder {
        self.latencies = table;
        self
    }

    /// Overrides a single opcode's latency on the current table.
    pub fn latency(mut self, op: wts_ir::Opcode, cycles: u32) -> MachineBuilder {
        self.latencies.set(op, cycles);
        self
    }

    /// Maps a unit class onto an explicit unit set.
    pub fn units(mut self, class: UnitClass, units: &[FunctionalUnit]) -> MachineBuilder {
        self.unit_map[class_index(class)] = UnitSet::of(units);
        self
    }

    /// Validates and builds the machine.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`MachineConfig::new`]: zero
    /// widths or window, or a unit class left with no units.
    pub fn build(self) -> MachineConfig {
        let unit_map = [
            (UnitClass::SimpleInt, self.unit_map[class_index(UnitClass::SimpleInt)]),
            (UnitClass::ComplexInt, self.unit_map[class_index(UnitClass::ComplexInt)]),
            (UnitClass::Float, self.unit_map[class_index(UnitClass::Float)]),
            (UnitClass::Branch, self.unit_map[class_index(UnitClass::Branch)]),
            (UnitClass::LoadStore, self.unit_map[class_index(UnitClass::LoadStore)]),
            (UnitClass::System, self.unit_map[class_index(UnitClass::System)]),
        ];
        MachineConfig::new(self.name, self.issue_width, self.branch_width, self.window, self.latencies, unit_map)
    }
}

#[inline]
fn class_index(c: UnitClass) -> usize {
    match c {
        UnitClass::SimpleInt => 0,
        UnitClass::ComplexInt => 1,
        UnitClass::Float => 2,
        UnitClass::Branch => 3,
        UnitClass::LoadStore => 4,
        UnitClass::System => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::Opcode;

    #[test]
    fn ppc7410_shape() {
        let m = MachineConfig::ppc7410();
        assert_eq!(m.name(), "ppc7410");
        assert_eq!(m.units_for(UnitClass::SimpleInt).len(), 2, "dissimilar integer units");
        assert_eq!(m.units_for(UnitClass::ComplexInt).len(), 1);
        assert!(m.units_for(UnitClass::SimpleInt).contains(FunctionalUnit::Iu2));
        assert_eq!(m.units_for(UnitClass::Float).len(), 1);
        assert!(m.window() > 1);
    }

    #[test]
    fn simple_scalar_is_narrow() {
        let m = MachineConfig::simple_scalar();
        assert_eq!(m.issue_width(), 1);
        assert_eq!(m.window(), 1);
        assert_eq!(m.units_for(UnitClass::ComplexInt).len(), 1);
    }

    #[test]
    fn deep_fp_doubles_float_latency() {
        let base = MachineConfig::ppc7410();
        let deep = MachineConfig::deep_fp();
        assert_eq!(deep.latency(Opcode::Fadd), 2 * base.latency(Opcode::Fadd));
        assert_eq!(deep.latency(Opcode::Add), base.latency(Opcode::Add));
        assert_eq!(deep.name(), "deep-fp");
    }

    #[test]
    fn every_class_has_units() {
        let m = MachineConfig::ppc7410();
        for class in UnitClass::ALL {
            assert!(!m.units_for(class).is_empty(), "{class} unmapped");
        }
    }

    #[test]
    fn default_is_ppc7410() {
        assert_eq!(MachineConfig::default(), MachineConfig::ppc7410());
    }

    #[test]
    fn builder_defaults_are_the_conservative_baseline() {
        let m = MachineConfig::builder("base").build();
        assert_eq!(m.name(), "base");
        assert_eq!(m.issue_width(), 1);
        assert_eq!(m.branch_width(), 1);
        assert_eq!(m.window(), 1);
        assert_eq!(m.latencies(), &LatencyTable::ppc7410());
        for class in UnitClass::ALL {
            assert_eq!(m.units_for(class).len(), 1, "{class} defaults to one unit");
        }
        assert_eq!(m, MachineConfig::builder("base").build(), "builder is deterministic");
    }

    #[test]
    fn builder_overrides_apply() {
        let m = MachineConfig::builder("tweaked")
            .issue_width(3)
            .branch_width(2)
            .window(12)
            .latency(Opcode::Lwz, 9)
            .units(UnitClass::Float, &[FunctionalUnit::Fpu, FunctionalUnit::Su])
            .build();
        assert_eq!(m.issue_width(), 3);
        assert_eq!(m.branch_width(), 2);
        assert_eq!(m.window(), 12);
        assert_eq!(m.latency(Opcode::Lwz), 9);
        assert_eq!(m.units_for(UnitClass::Float).len(), 2);
    }

    #[test]
    #[should_panic(expected = "no units")]
    fn builder_rejects_empty_unit_class() {
        MachineConfig::builder("broken").units(UnitClass::Float, &[]).build();
    }

    #[test]
    fn wide4_is_wide_and_fast() {
        let m = MachineConfig::wide4();
        assert_eq!(m.issue_width(), 4);
        assert_eq!(m.branch_width(), 2);
        assert!(m.window() > MachineConfig::ppc7410().window());
        assert_eq!(m.units_for(UnitClass::ComplexInt).len(), 2, "both integer units take complex ops");
        assert!(m.latency(Opcode::Lwz) < MachineConfig::ppc7410().latency(Opcode::Lwz));
    }

    #[test]
    fn embedded_is_narrow_with_slow_memory() {
        let m = MachineConfig::embedded();
        assert_eq!(m.issue_width(), 1);
        assert_eq!(m.window(), 1, "no dynamic scheduling at all");
        assert!(m.latency(Opcode::Lwz) >= 8, "long memory latency is the point");
    }

    #[test]
    fn deep_pipe_pays_for_branches() {
        let m = MachineConfig::deep_pipe();
        assert_eq!(m.issue_width(), 2);
        assert!(m.latency(Opcode::Bc) > MachineConfig::ppc7410().latency(Opcode::Bc));
        assert!(m.latency(Opcode::Bl) > MachineConfig::ppc7410().latency(Opcode::Bl));
    }
}
