//! The paper's Table 1 block features, plus the trace-level features of
//! the superblock scope.
//!
//! Thirteen cheap-to-compute static features of a basic block: the block
//! size `bbLen` plus, for each of the twelve instruction categories, the
//! *fraction* of the block's instructions falling into that category.
//! Fractions (rather than counts) let the learner generalize across block
//! sizes (paper §2.1). Computing the vector takes a single pass over the
//! block and never touches the dependence DAG — the paper explicitly
//! rejects DAG-derived features as too expensive.
//!
//! The superblock pipeline (the paper's deferred §3.1 extension) decides
//! per *trace* rather than per block, and four extra trace-shape
//! features feed that decision: the trace width (merged block count),
//! the internal side-exit count, the number of speculation candidates
//! below the first side exit, and the concatenated instruction count.
//! They are formation byproducts — the trace former tallies them while
//! concatenating blocks, so they cost nothing at extraction time — and
//! they degenerate cleanly at block scope (`width 1, 0, 0, bbLen`),
//! keeping one feature vocabulary across both scopes (see
//! [`TraceShape`] and [`FeatureVector::from_insts_shaped`]).
//! [`for_each_scope_unit`] is the one scope dispatch: the scheduling
//! pipeline and the independent checker both walk a method's units
//! (blocks, or formed traces) through it, each a [`ScopeUnit`].
//!
//! Extraction is also *demand-driven*: a [`FeatureMask`] names the
//! features a filter will actually read, and
//! [`FeatureVector::extract_masked`] tallies only those categories —
//! deployed rule sets typically consult two or three features, so the
//! common case skips most of the pass.
//!
//! # Examples
//!
//! ```
//! use wts_features::{FeatureKind, FeatureVector};
//! use wts_ir::{BasicBlock, Inst, MemRef, MemSpace, Opcode, Reg};
//!
//! let mut b = BasicBlock::new(0);
//! b.push(Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9))
//!     .mem(MemRef::slot(MemSpace::Heap, 0)));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)));
//!
//! let fv = FeatureVector::extract(&b);
//! assert_eq!(fv.get(FeatureKind::BbLen), 2.0);
//! assert_eq!(fv.get(FeatureKind::Loads), 0.5);
//! assert_eq!(fv.get(FeatureKind::Integers), 0.5);
//! ```

use std::fmt;
use wts_ir::{form_superblocks, BasicBlock, BlockId, Category, Inst, Method, ScopeKind, Superblock};

/// One of the thirteen features of Table 1, or one of the four
/// trace-shape features of the superblock scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FeatureKind {
    /// Number of instructions in the block.
    BbLen,
    /// Fraction of branch instructions.
    Branches,
    /// Fraction of calls.
    Calls,
    /// Fraction of loads.
    Loads,
    /// Fraction of stores.
    Stores,
    /// Fraction of returns.
    Returns,
    /// Fraction using an integer functional unit.
    Integers,
    /// Fraction using the floating-point unit.
    Floats,
    /// Fraction using the system unit.
    Systems,
    /// Fraction of potentially-excepting instructions.
    Peis,
    /// Fraction of GC points.
    GcPoints,
    /// Fraction of thread-switch points.
    TsPoints,
    /// Fraction of yield points.
    YieldPoints,
    /// Number of blocks merged into the trace (`1` for a basic block).
    TraceWidth,
    /// Number of internal conditional side exits (`0` for a basic block).
    SideExits,
    /// Number of speculation candidates — pure, non-hazardous
    /// instructions below the first side exit that the speculative
    /// scheduler may hoist (`0` for a basic block).
    SpecInsts,
    /// Concatenated instruction count of the trace (equals `bbLen` for a
    /// basic block).
    TraceLen,
}

impl FeatureKind {
    /// All features: `bbLen` first, then Table 1 category order, then
    /// the four trace-shape features of the superblock scope.
    pub const ALL: [FeatureKind; 17] = [
        FeatureKind::BbLen,
        FeatureKind::Branches,
        FeatureKind::Calls,
        FeatureKind::Loads,
        FeatureKind::Stores,
        FeatureKind::Returns,
        FeatureKind::Integers,
        FeatureKind::Floats,
        FeatureKind::Systems,
        FeatureKind::Peis,
        FeatureKind::GcPoints,
        FeatureKind::TsPoints,
        FeatureKind::YieldPoints,
        FeatureKind::TraceWidth,
        FeatureKind::SideExits,
        FeatureKind::SpecInsts,
        FeatureKind::TraceLen,
    ];

    /// Number of features.
    pub const COUNT: usize = 17;

    /// Number of category-backed fraction features (the twelve Table 1
    /// categories; `bbLen` and the trace-shape features need no
    /// per-instruction tallying pass).
    pub const CATEGORY_COUNT: usize = 12;

    /// The feature at dense index `i` (inverse of [`FeatureKind::index`]).
    pub fn from_index(i: usize) -> Option<FeatureKind> {
        FeatureKind::ALL.get(i).copied()
    }

    /// Dense index into a [`FeatureVector`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The name used in induced rules (Figure 4 uses `bbLen`, `calls`, …).
    pub fn rule_name(self) -> &'static str {
        match self {
            FeatureKind::BbLen => "bbLen",
            FeatureKind::Branches => "branches",
            FeatureKind::Calls => "calls",
            FeatureKind::Loads => "loads",
            FeatureKind::Stores => "stores",
            FeatureKind::Returns => "returns",
            FeatureKind::Integers => "integers",
            FeatureKind::Floats => "floats",
            FeatureKind::Systems => "systems",
            FeatureKind::Peis => "peis",
            FeatureKind::GcPoints => "gcpoints",
            FeatureKind::TsPoints => "tspoints",
            FeatureKind::YieldPoints => "yieldpoints",
            FeatureKind::TraceWidth => "traceWidth",
            FeatureKind::SideExits => "sideExits",
            FeatureKind::SpecInsts => "specInsts",
            FeatureKind::TraceLen => "traceLen",
        }
    }

    /// True for count-valued features (`bbLen` and the trace-shape
    /// features): non-negative but not bounded by `[0, 1]`.
    pub fn is_count(self) -> bool {
        matches!(
            self,
            FeatureKind::BbLen
                | FeatureKind::TraceWidth
                | FeatureKind::SideExits
                | FeatureKind::SpecInsts
                | FeatureKind::TraceLen
        )
    }

    /// True for the four trace-shape features of the superblock scope.
    pub fn is_trace_shape(self) -> bool {
        matches!(
            self,
            FeatureKind::TraceWidth | FeatureKind::SideExits | FeatureKind::SpecInsts | FeatureKind::TraceLen
        )
    }

    /// The category a fraction feature counts, `None` for `bbLen`.
    pub fn category(self) -> Option<Category> {
        match self {
            FeatureKind::BbLen => None,
            FeatureKind::Branches => Some(Category::Branch),
            FeatureKind::Calls => Some(Category::Call),
            FeatureKind::Loads => Some(Category::Load),
            FeatureKind::Stores => Some(Category::Store),
            FeatureKind::Returns => Some(Category::Return),
            FeatureKind::Integers => Some(Category::Integer),
            FeatureKind::Floats => Some(Category::Float),
            FeatureKind::Systems => Some(Category::System),
            FeatureKind::Peis => Some(Category::Pei),
            FeatureKind::GcPoints => Some(Category::GcPoint),
            FeatureKind::TsPoints => Some(Category::ThreadSwitch),
            FeatureKind::YieldPoints => Some(Category::Yield),
            FeatureKind::TraceWidth | FeatureKind::SideExits | FeatureKind::SpecInsts | FeatureKind::TraceLen => None,
        }
    }
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.rule_name())
    }
}

/// A demand set over the seventeen features, as a bitmask.
///
/// Induced rule sets rarely read more than a handful of features; a mask
/// records exactly which ones a filter will consult so extraction can
/// skip the rest ([`FeatureVector::extract_masked`]). Masks are tiny
/// `Copy` values and compose with [`union`](FeatureMask::union).
///
/// # Examples
///
/// ```
/// use wts_features::{FeatureKind, FeatureMask};
/// let m = FeatureMask::EMPTY.with(FeatureKind::BbLen).with(FeatureKind::Loads);
/// assert!(m.contains(FeatureKind::Loads));
/// assert!(!m.contains(FeatureKind::Calls));
/// assert_eq!(m.count(), 2);
/// assert_eq!(FeatureMask::EMPTY.with(FeatureKind::BbLen).extraction_work(12), 0, "bbLen needs no instruction pass");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FeatureMask(u32);

impl FeatureMask {
    /// The empty demand set.
    pub const EMPTY: FeatureMask = FeatureMask(0);

    /// Every feature demanded (full Table 1 + trace-shape extraction).
    pub const ALL: FeatureMask = FeatureMask((1 << FeatureKind::COUNT) - 1);

    /// A mask demanding exactly the given features.
    pub fn of(kinds: impl IntoIterator<Item = FeatureKind>) -> FeatureMask {
        kinds.into_iter().fold(FeatureMask::EMPTY, FeatureMask::with)
    }

    /// This mask plus one more feature.
    pub fn with(self, kind: FeatureKind) -> FeatureMask {
        FeatureMask(self.0 | (1 << kind.index()))
    }

    /// True when `kind` is demanded.
    pub fn contains(self, kind: FeatureKind) -> bool {
        self.0 & (1 << kind.index()) != 0
    }

    /// The union of two demand sets.
    pub fn union(self, other: FeatureMask) -> FeatureMask {
        FeatureMask(self.0 | other.0)
    }

    /// True when nothing is demanded.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of demanded features.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Number of demanded *category* features — the ones that actually
    /// need the per-instruction tallying pass. `bbLen` is free (the
    /// block already knows its length), and the trace-shape features are
    /// free too: the trace former tallies width, side exits and
    /// speculation candidates as byproducts of concatenation.
    fn category_count(self) -> usize {
        self.kinds().filter(|k| k.category().is_some()).count()
    }

    /// The demanded features, in Table 1 order.
    pub fn kinds(self) -> impl Iterator<Item = FeatureKind> {
        FeatureKind::ALL.into_iter().filter(move |k| self.contains(*k))
    }

    /// Deterministic work proxy for extracting this demand set from a
    /// block of `bb_len` instructions, on the same scale as the trace
    /// collector's full-extraction proxy (which charges one unit per
    /// instruction for all twelve category tallies): a mask demanding
    /// `k` categories costs `1 + ceil(bb_len * k / 12)` — one unit of
    /// setup plus the pro-rated share of the tallying pass — and a mask
    /// demanding no categories costs zero: `bbLen` is known without
    /// touching instructions, and the trace-shape features are tallied
    /// by the trace former during concatenation, not by extraction.
    pub fn extraction_work(self, bb_len: u64) -> u64 {
        let k = self.category_count() as u64;
        if k == 0 {
            return 0;
        }
        1 + (bb_len * k).div_ceil(FeatureKind::CATEGORY_COUNT as u64)
    }
}

impl fmt::Display for FeatureMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, kind) in self.kinds().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{kind}")?;
        }
        write!(f, "}}")
    }
}

/// The trace-shape bookkeeping of one scheduling scope unit: how many
/// blocks merged into it, how many internal side exits it carries, and
/// how many instructions below the first side exit are speculation
/// candidates. A plain basic block is the degenerate shape
/// [`TraceShape::block`] (`width 1, 0 exits, 0 candidates`), which keeps
/// block-scope and width-1 superblock-scope feature vectors
/// bit-identical.
///
/// The trace former produces these as byproducts of concatenation —
/// that is why the trace-shape features cost nothing in
/// [`FeatureMask::extraction_work`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceShape {
    /// Number of merged blocks.
    pub width: u32,
    /// Internal conditional side exits.
    pub side_exits: u32,
    /// Speculation candidates below the first side exit.
    pub spec_insts: u32,
}

impl TraceShape {
    /// The degenerate shape of a plain basic block.
    pub fn block() -> TraceShape {
        TraceShape { width: 1, side_exits: 0, spec_insts: 0 }
    }

    /// Measures a formed trace's shape in one pass: a *side exit* is a
    /// branch instruction that is not the trace's final instruction, and
    /// a *speculation candidate* is a pure (no side effect), non-hazardous
    /// instruction located after the first side exit — exactly the
    /// instructions the speculative dependence graph frees to hoist.
    pub fn of_trace(insts: &[Inst], width: u32) -> TraceShape {
        let mut side_exits = 0u32;
        let mut spec_insts = 0u32;
        for (i, inst) in insts.iter().enumerate() {
            let op = inst.opcode();
            if op.is_branch() && i + 1 != insts.len() {
                side_exits += 1;
            } else if side_exits > 0 && !op.has_side_effect() && !inst.is_hazardous() {
                spec_insts += 1;
            }
        }
        TraceShape { width, side_exits, spec_insts }
    }
}

/// One scope unit: a basic block's instructions with the degenerate
/// shape, or a formed superblock trace's concatenation with its real
/// shape.
#[derive(Debug, Clone, Copy)]
pub struct ScopeUnit<'a> {
    /// The instructions to decide on and (maybe) schedule.
    pub insts: &'a [Inst],
    /// The unit's shape ([`TraceShape::block`] for a basic block).
    pub shape: TraceShape,
    /// The block, or the trace's entry block.
    pub block: BlockId,
    /// Profile execution count (the trace weight at superblock scope).
    pub exec_count: u64,
}

impl<'a> ScopeUnit<'a> {
    /// A basic block as a unit.
    #[inline]
    pub fn of_block(block: &'a BasicBlock) -> ScopeUnit<'a> {
        ScopeUnit {
            insts: block.insts(),
            shape: TraceShape::block(),
            block: block.id(),
            exec_count: block.exec_count(),
        }
    }

    /// A formed superblock trace as a unit.
    #[inline]
    pub fn of_superblock(sb: &'a Superblock) -> ScopeUnit<'a> {
        ScopeUnit {
            insts: &sb.insts,
            shape: TraceShape::of_trace(&sb.insts, u32::try_from(sb.width()).expect("trace widths fit u32")),
            block: BlockId(sb.entry_id()),
            exec_count: sb.exec_count,
        }
    }

    /// True when the unit merged more than one block, which turns on the
    /// speculative dependence graph.
    #[inline]
    pub fn speculative(&self) -> bool {
        self.shape.width > 1
    }
}

/// Visits every scope unit of `method` in order: its blocks at
/// [`ScopeKind::Block`], its [`form_superblocks`] traces at
/// [`ScopeKind::Superblock`]. A visitor rather than an iterator because
/// superblock units borrow traces formed inside the call.
#[inline]
pub fn for_each_scope_unit(method: &Method, scope: ScopeKind, mut visit: impl FnMut(ScopeUnit<'_>)) {
    match scope {
        ScopeKind::Block => method.blocks().iter().for_each(|b| visit(ScopeUnit::of_block(b))),
        ScopeKind::Superblock(ratio) => {
            form_superblocks(method, ratio).iter().for_each(|sb| visit(ScopeUnit::of_superblock(sb)));
        }
    }
}

/// The feature vector of one basic block or superblock trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FeatureVector {
    values: [f64; FeatureKind::COUNT],
}

impl FeatureVector {
    /// Extracts the features of `block` in a single pass.
    pub fn extract(block: &BasicBlock) -> FeatureVector {
        FeatureVector::extract_masked(block, FeatureMask::ALL)
    }

    /// Demand-driven extraction: the features of `block` restricted to
    /// `mask`, in a single pass that only tallies the demanded
    /// instruction categories. Demanded features carry exactly the same
    /// values as full extraction (same counts, same division); every
    /// other slot is left at `0.0`.
    pub fn extract_masked(block: &BasicBlock, mask: FeatureMask) -> FeatureVector {
        FeatureVector::from_insts_shaped(block.insts(), TraceShape::block(), mask)
    }

    /// The fully general extraction: an instruction slice plus its
    /// [`TraceShape`], restricted to `mask`. This is the superblock
    /// pipeline's entry point — `bbLen`/`traceLen` are the concatenated
    /// length, the category fractions are over the whole trace, and the
    /// trace-shape features come from the shape bookkeeping. On an empty
    /// slice every feature is `0.0`, matching the empty-block contract.
    pub fn from_insts_shaped(insts: &[Inst], shape: TraceShape, mask: FeatureMask) -> FeatureVector {
        // The demanded categories, gathered once so the per-instruction
        // loop touches only what the mask asks for.
        let mut demanded = [(FeatureKind::BbLen, Category::Branch); FeatureKind::CATEGORY_COUNT];
        let mut k = 0;
        for kind in mask.kinds() {
            if let Some(c) = kind.category() {
                demanded[k] = (kind, c);
                k += 1;
            }
        }
        let mut counts = [0usize; FeatureKind::COUNT];
        if k > 0 {
            for inst in insts {
                let cats = inst.categories();
                for &(kind, c) in &demanded[..k] {
                    if cats.contains(c) {
                        counts[kind.index()] += 1;
                    }
                }
            }
        }
        let n = insts.len();
        let mut values = [0.0; FeatureKind::COUNT];
        if mask.contains(FeatureKind::BbLen) {
            values[FeatureKind::BbLen.index()] = n as f64;
        }
        if n > 0 {
            for &(kind, _) in &demanded[..k] {
                values[kind.index()] = counts[kind.index()] as f64 / n as f64;
            }
            // Trace-shape features: formation byproducts, free to fill.
            if mask.contains(FeatureKind::TraceWidth) {
                values[FeatureKind::TraceWidth.index()] = shape.width as f64;
            }
            if mask.contains(FeatureKind::SideExits) {
                values[FeatureKind::SideExits.index()] = shape.side_exits as f64;
            }
            if mask.contains(FeatureKind::SpecInsts) {
                values[FeatureKind::SpecInsts.index()] = shape.spec_insts as f64;
            }
            if mask.contains(FeatureKind::TraceLen) {
                values[FeatureKind::TraceLen.index()] = n as f64;
            }
        }
        FeatureVector { values }
    }

    /// Builds a vector from raw values (for tests and synthetic data).
    ///
    /// # Panics
    ///
    /// Panics if any fraction feature is outside `[0, 1]` or any
    /// count-valued feature (`bbLen` and the trace-shape features) is
    /// negative.
    pub fn from_values(values: [f64; FeatureKind::COUNT]) -> FeatureVector {
        for kind in FeatureKind::ALL {
            let v = values[kind.index()];
            if kind.is_count() {
                assert!(v >= 0.0, "{kind} count {v} must be non-negative");
            } else {
                assert!((0.0..=1.0).contains(&v), "{kind} fraction {v} outside [0,1]");
            }
        }
        FeatureVector { values }
    }

    /// Value of one feature.
    pub fn get(&self, kind: FeatureKind) -> f64 {
        self.values[kind.index()]
    }

    /// All values, indexed by [`FeatureKind::index`].
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The block size (`bbLen`) as an integer.
    pub fn bb_len(&self) -> usize {
        // Extraction stores bbLen as a non-negative whole instruction
        // count, far below f64's exact-integer range.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let len = self.values[FeatureKind::BbLen.index()] as usize;
        len
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, kind) in FeatureKind::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={:.3}", kind, self.get(*kind))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{Hazards, MemRef, MemSpace, Opcode, Reg};

    fn block(insts: Vec<Inst>) -> BasicBlock {
        let mut b = BasicBlock::new(0);
        for i in insts {
            b.push(i);
        }
        b
    }

    #[test]
    fn empty_block_is_all_zero() {
        let fv = FeatureVector::extract(&block(vec![]));
        for kind in FeatureKind::ALL {
            assert_eq!(fv.get(kind), 0.0, "{kind}");
        }
    }

    #[test]
    fn bb_len_counts_instructions() {
        let fv = FeatureVector::extract(&block(vec![
            Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(0),
            Inst::new(Opcode::Li).def(Reg::gpr(2)).imm(0),
            Inst::new(Opcode::Li).def(Reg::gpr(3)).imm(0),
        ]));
        assert_eq!(fv.get(FeatureKind::BbLen), 3.0);
        assert_eq!(fv.bb_len(), 3);
        assert_eq!(fv.get(FeatureKind::Integers), 1.0);
    }

    #[test]
    fn fractions_match_paper_example_style() {
        // 2 loads, 1 fp, 1 store: loads 50%, floats 25%, stores 25%.
        let fv = FeatureVector::extract(&block(vec![
            Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9)).mem(MemRef::slot(MemSpace::Heap, 0)),
            Inst::new(Opcode::Lfd).def(Reg::fpr(1)).use_(Reg::gpr(9)).mem(MemRef::slot(MemSpace::Heap, 8)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
            Inst::new(Opcode::Stfd).use_(Reg::fpr(2)).use_(Reg::gpr(9)).mem(MemRef::slot(MemSpace::Heap, 16)),
        ]));
        assert_eq!(fv.get(FeatureKind::Loads), 0.5);
        assert_eq!(fv.get(FeatureKind::Floats), 0.25);
        assert_eq!(fv.get(FeatureKind::Stores), 0.25);
        assert_eq!(fv.get(FeatureKind::Integers), 0.0);
    }

    #[test]
    fn overlapping_categories_both_counted() {
        let fv = FeatureVector::extract(&block(vec![Inst::new(Opcode::Lwz)
            .def(Reg::gpr(1))
            .use_(Reg::gpr(9))
            .mem(MemRef::unknown(MemSpace::Heap))
            .hazard(Hazards::PEI)]));
        assert_eq!(fv.get(FeatureKind::Loads), 1.0);
        assert_eq!(fv.get(FeatureKind::Peis), 1.0);
    }

    #[test]
    fn hazard_features_from_flags() {
        let fv = FeatureVector::extract(&block(vec![
            Inst::new(Opcode::YieldPoint).hazard(Hazards::YIELD | Hazards::GC_POINT | Hazards::THREAD_SWITCH),
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3)),
        ]));
        assert_eq!(fv.get(FeatureKind::YieldPoints), 0.5);
        assert_eq!(fv.get(FeatureKind::GcPoints), 0.5);
        assert_eq!(fv.get(FeatureKind::TsPoints), 0.5);
        assert_eq!(fv.get(FeatureKind::Systems), 0.5);
    }

    #[test]
    fn fractions_always_in_unit_interval() {
        let fv = FeatureVector::extract(&block(vec![
            Inst::new(Opcode::Bl).def(Reg::lr()).hazard(Hazards::GC_POINT),
            Inst::new(Opcode::Blr),
        ]));
        for kind in FeatureKind::ALL {
            if !kind.is_count() {
                let v = fv.get(kind);
                assert!((0.0..=1.0).contains(&v), "{kind}={v}");
            }
        }
        assert_eq!(fv.get(FeatureKind::Calls), 0.5);
        assert_eq!(fv.get(FeatureKind::Returns), 0.5);
    }

    #[test]
    fn block_extraction_fills_degenerate_trace_shape() {
        let fv = FeatureVector::extract(&block(vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3)),
            Inst::new(Opcode::Bc).use_(Reg::cr(0)),
        ]));
        assert_eq!(fv.get(FeatureKind::TraceWidth), 1.0);
        assert_eq!(fv.get(FeatureKind::SideExits), 0.0, "the final branch is the exit, not a side exit");
        assert_eq!(fv.get(FeatureKind::SpecInsts), 0.0);
        assert_eq!(fv.get(FeatureKind::TraceLen), fv.get(FeatureKind::BbLen));
    }

    #[test]
    fn trace_shape_measures_side_exits_and_speculation_candidates() {
        // [add; bc] ++ [add; store; bc] ++ [add]: two internal side
        // exits; the adds below the first exit are candidates, the store
        // is not (side effect), the second bc is an exit itself.
        let insts = vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3)),
            Inst::new(Opcode::Bc).use_(Reg::cr(0)),
            Inst::new(Opcode::Add).def(Reg::gpr(4)).use_(Reg::gpr(2)).use_(Reg::gpr(3)),
            Inst::new(Opcode::Stw).use_(Reg::gpr(4)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, 0)),
            Inst::new(Opcode::Bc).use_(Reg::cr(0)),
            Inst::new(Opcode::Add).def(Reg::gpr(5)).use_(Reg::gpr(2)).use_(Reg::gpr(3)),
        ];
        let shape = TraceShape::of_trace(&insts, 3);
        assert_eq!(shape, TraceShape { width: 3, side_exits: 2, spec_insts: 2 });
        let fv = FeatureVector::from_insts_shaped(&insts, shape, FeatureMask::ALL);
        assert_eq!(fv.get(FeatureKind::TraceWidth), 3.0);
        assert_eq!(fv.get(FeatureKind::SideExits), 2.0);
        assert_eq!(fv.get(FeatureKind::SpecInsts), 2.0);
        assert_eq!(fv.get(FeatureKind::TraceLen), 6.0);
        assert_eq!(fv.get(FeatureKind::BbLen), 6.0, "bbLen is the concatenated length at trace scope");
        // The Table 1 fractions are over the whole trace.
        assert_eq!(fv.get(FeatureKind::Branches), 2.0 / 6.0);
        // Shaped extraction with the block shape equals plain extraction.
        let plain = FeatureVector::extract(&block(insts.clone()));
        let shaped = FeatureVector::from_insts_shaped(&insts, TraceShape::block(), FeatureMask::ALL);
        assert_eq!(plain, shaped);
    }

    #[test]
    fn trace_shape_final_branch_is_not_a_side_exit() {
        let insts = vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3)),
            Inst::new(Opcode::Bc).use_(Reg::cr(0)),
        ];
        assert_eq!(TraceShape::of_trace(&insts, 1), TraceShape::block());
    }

    #[test]
    fn count_and_trace_shape_classification() {
        assert!(FeatureKind::BbLen.is_count() && !FeatureKind::BbLen.is_trace_shape());
        for kind in [FeatureKind::TraceWidth, FeatureKind::SideExits, FeatureKind::SpecInsts, FeatureKind::TraceLen] {
            assert!(kind.is_count() && kind.is_trace_shape() && kind.category().is_none(), "{kind}");
        }
        assert_eq!(FeatureKind::ALL.iter().filter(|k| k.category().is_some()).count(), FeatureKind::CATEGORY_COUNT);
    }

    #[test]
    fn trace_shape_features_are_free_to_extract() {
        let trace_only = FeatureMask::of([
            FeatureKind::TraceWidth,
            FeatureKind::SideExits,
            FeatureKind::SpecInsts,
            FeatureKind::TraceLen,
        ]);
        assert_eq!(trace_only.category_count(), 0);
        assert_eq!(trace_only.extraction_work(100), 0, "formation byproducts cost nothing at extraction");
        let mixed = trace_only.with(FeatureKind::Loads);
        assert_eq!(mixed.category_count(), 1);
        assert_eq!(
            mixed.extraction_work(24),
            FeatureMask::of([FeatureKind::Loads]).extraction_work(24),
            "only the category share is charged"
        );
    }

    #[test]
    fn from_values_validates() {
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::BbLen.index()] = 5.0;
        v[FeatureKind::Loads.index()] = 0.4;
        let fv = FeatureVector::from_values(v);
        assert_eq!(fv.get(FeatureKind::Loads), 0.4);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn from_values_rejects_bad_fraction() {
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::Loads.index()] = 1.5;
        FeatureVector::from_values(v);
    }

    #[test]
    fn feature_indices_are_dense() {
        for (i, k) in FeatureKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(FeatureKind::COUNT, FeatureKind::ALL.len());
    }

    #[test]
    fn rule_names_match_figure4_vocabulary() {
        assert_eq!(FeatureKind::BbLen.rule_name(), "bbLen");
        assert_eq!(FeatureKind::Calls.rule_name(), "calls");
        assert_eq!(FeatureKind::YieldPoints.rule_name(), "yieldpoints");
    }

    #[test]
    fn display_lists_all_features() {
        let fv = FeatureVector::default();
        let s = fv.to_string();
        assert!(s.contains("bbLen=") && s.contains("yieldpoints="));
    }

    #[test]
    fn mask_membership_and_counts() {
        let m = FeatureMask::of([FeatureKind::BbLen, FeatureKind::Loads, FeatureKind::Calls]);
        assert!(m.contains(FeatureKind::BbLen) && m.contains(FeatureKind::Loads));
        assert!(!m.contains(FeatureKind::Stores));
        assert_eq!(m.count(), 3);
        assert_eq!(m.category_count(), 2);
        assert_eq!(FeatureMask::ALL.count(), FeatureKind::COUNT);
        assert_eq!(FeatureMask::ALL.category_count(), FeatureKind::CATEGORY_COUNT);
        assert!(FeatureMask::EMPTY.is_empty());
        assert_eq!(m.to_string(), "{bbLen,calls,loads}");
        let kinds: Vec<FeatureKind> = m.kinds().collect();
        assert_eq!(kinds, [FeatureKind::BbLen, FeatureKind::Calls, FeatureKind::Loads], "Table 1 order");
        assert_eq!(FeatureMask::of(kinds), m, "of/kinds round-trip");
    }

    #[test]
    fn mask_union_composes() {
        let a = FeatureMask::of([FeatureKind::Loads]);
        let b = FeatureMask::of([FeatureKind::Stores]);
        assert_eq!(a.union(b), FeatureMask::of([FeatureKind::Loads, FeatureKind::Stores]));
        assert_eq!(a.union(FeatureMask::EMPTY), a);
    }

    #[test]
    fn masked_extraction_matches_full_on_demanded_features() {
        let b = block(vec![
            Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9)).mem(MemRef::slot(MemSpace::Heap, 0)),
            Inst::new(Opcode::Lfd).def(Reg::fpr(1)).use_(Reg::gpr(9)).mem(MemRef::slot(MemSpace::Heap, 8)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
        ]);
        let full = FeatureVector::extract(&b);
        let mask = FeatureMask::of([FeatureKind::BbLen, FeatureKind::Loads]);
        let masked = FeatureVector::extract_masked(&b, mask);
        for kind in FeatureKind::ALL {
            if mask.contains(kind) {
                assert_eq!(masked.get(kind), full.get(kind), "{kind} must match full extraction exactly");
            } else {
                assert_eq!(masked.get(kind), 0.0, "{kind} was not demanded");
            }
        }
        assert_eq!(FeatureVector::extract_masked(&b, FeatureMask::ALL), full);
    }

    #[test]
    fn extraction_work_scales_with_demand() {
        assert_eq!(FeatureMask::EMPTY.extraction_work(100), 0);
        assert_eq!(FeatureMask::of([FeatureKind::BbLen]).extraction_work(100), 0, "bbLen is free");
        let two = FeatureMask::of([FeatureKind::Loads, FeatureKind::Stores]);
        let full = FeatureMask::ALL;
        assert!(two.extraction_work(24) < full.extraction_work(24));
        assert_eq!(full.extraction_work(24), 25, "full demand costs ~one unit per instruction");
        assert_eq!(two.extraction_work(24), 5);
        // Monotone in block length.
        assert!(two.extraction_work(48) > two.extraction_work(24));
    }
}
