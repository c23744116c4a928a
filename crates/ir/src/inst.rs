//! Instructions: opcode + register defs/uses + memory reference + hazards.

use crate::{Category, CategorySet, Opcode, Reg};
use std::fmt;

/// Abstract memory spaces used for cheap may-alias reasoning.
///
/// The JIT knows, per access, whether it touches the Java stack, the heap or
/// static/class storage; accesses in different spaces never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSpace {
    /// Spill slots and locals; fully disambiguated by slot number.
    Stack,
    /// Object fields and array elements.
    Heap,
    /// Static fields.
    Static,
}

/// A memory reference: a space plus an optional disambiguated slot.
///
/// Two references *may alias* when they are in the same space and either
/// has an unknown slot or both have the same slot.
///
/// # Examples
///
/// ```
/// use wts_ir::{MemRef, MemSpace};
/// let a = MemRef::slot(MemSpace::Stack, 4);
/// let b = MemRef::slot(MemSpace::Stack, 8);
/// let c = MemRef::unknown(MemSpace::Stack);
/// assert!(!a.may_alias(b));
/// assert!(a.may_alias(c));
/// assert!(!a.may_alias(MemRef::unknown(MemSpace::Heap)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    space: MemSpace,
    slot: Option<u32>,
}

impl MemRef {
    /// A reference to a known slot within `space`.
    pub fn slot(space: MemSpace, slot: u32) -> MemRef {
        MemRef { space, slot: Some(slot) }
    }

    /// A reference somewhere within `space` (not disambiguated).
    pub fn unknown(space: MemSpace) -> MemRef {
        MemRef { space, slot: None }
    }

    /// The memory space accessed.
    #[inline]
    pub fn space(self) -> MemSpace {
        self.space
    }

    /// The disambiguated slot, if known.
    #[inline]
    pub fn slot_id(self) -> Option<u32> {
        self.slot
    }

    /// True when every reference that may alias `other` may also alias
    /// `self`: same space, and `self`'s slot is unknown or equal to
    /// `other`'s. A store through `self` therefore orders every later
    /// access that would have had to order after `other`.
    ///
    /// ```
    /// use wts_ir::{MemRef, MemSpace};
    /// let any = MemRef::unknown(MemSpace::Heap);
    /// let one = MemRef::slot(MemSpace::Heap, 1);
    /// assert!(any.covers(one) && any.covers(any) && one.covers(one));
    /// assert!(!one.covers(any), "slot 2 aliases `any` but not slot 1");
    /// assert!(!one.covers(MemRef::slot(MemSpace::Heap, 2)));
    /// assert!(!any.covers(MemRef::slot(MemSpace::Stack, 1)));
    /// ```
    #[inline]
    pub fn covers(self, other: MemRef) -> bool {
        self.space == other.space && (self.slot.is_none() || self.slot == other.slot)
    }

    /// Conservative may-alias test.
    #[inline]
    pub fn may_alias(self, other: MemRef) -> bool {
        self.space == other.space
            && match (self.slot, other.slot) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let space = match self.space {
            MemSpace::Stack => "stack",
            MemSpace::Heap => "heap",
            MemSpace::Static => "static",
        };
        match self.slot {
            Some(s) => write!(f, "[{space}+{s}]"),
            None => write!(f, "[{space}+?]"),
        }
    }
}

/// Hazard flags: unusual possible branches that disallow reordering.
///
/// These mirror the four hazard rows of Table 1. They are flags on an
/// instruction (not opcodes) because they overlap with ordinary kinds: a
/// load can be a PEI, a call is usually a GC point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Hazards(u8);

impl Hazards {
    /// No hazards.
    pub const NONE: Hazards = Hazards(0);
    /// Potentially-excepting instruction.
    pub const PEI: Hazards = Hazards(1);
    /// Garbage-collection point.
    pub const GC_POINT: Hazards = Hazards(2);
    /// Thread-switch point.
    pub const THREAD_SWITCH: Hazards = Hazards(4);
    /// Yield point.
    pub const YIELD: Hazards = Hazards(8);

    /// Union of two hazard sets.
    pub fn union(self, other: Hazards) -> Hazards {
        Hazards(self.0 | other.0)
    }

    /// True when every hazard in `other` is present in `self`.
    pub fn contains(self, other: Hazards) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no hazard flag is set.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The categories contributed by these hazard flags.
    pub fn categories(self) -> CategorySet {
        let mut set = CategorySet::new();
        if self.contains(Hazards::PEI) {
            set.insert(Category::Pei);
        }
        if self.contains(Hazards::GC_POINT) {
            set.insert(Category::GcPoint);
        }
        if self.contains(Hazards::THREAD_SWITCH) {
            set.insert(Category::ThreadSwitch);
        }
        if self.contains(Hazards::YIELD) {
            set.insert(Category::Yield);
        }
        set
    }
}

impl std::ops::BitOr for Hazards {
    type Output = Hazards;
    fn bitor(self, rhs: Hazards) -> Hazards {
        self.union(rhs)
    }
}

impl fmt::Display for Hazards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "-");
        }
        write!(f, "{}", self.categories())
    }
}

/// An inline fixed-capacity operand list — the `SmallVec` idiom without
/// the dependency.
///
/// Def/use lists are tiny (nothing in the ISA writes more than two
/// registers or reads more than three), so operands live inside the
/// instruction itself and building an [`Inst`] performs no heap
/// allocation. The filler in unused slots never escapes: comparison,
/// hashing and iteration see only the live prefix.
///
/// # Examples
///
/// ```
/// use wts_ir::{Reg, RegList};
/// let mut l = RegList::new();
/// l.push(Reg::gpr(3));
/// l.push(Reg::gpr(4));
/// assert_eq!(l.as_slice(), &[Reg::gpr(3), Reg::gpr(4)]);
/// ```
#[derive(Clone, Copy)]
pub struct RegList {
    regs: [Reg; RegList::CAPACITY],
    len: u8,
}

impl RegList {
    /// Inline capacity. [`RegList::push`] past this panics — a new opcode
    /// with wider operand lists must raise the capacity here, not fall
    /// back to spilling.
    pub const CAPACITY: usize = 4;

    /// An empty list.
    pub const fn new() -> RegList {
        RegList { regs: [Reg::gpr(0); RegList::CAPACITY], len: 0 }
    }

    /// Appends a register.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds [`RegList::CAPACITY`] registers.
    pub fn push(&mut self, r: Reg) {
        assert!(
            (self.len as usize) < RegList::CAPACITY,
            "operand list overflow: an instruction holds at most {} defs or uses",
            RegList::CAPACITY,
        );
        self.regs[self.len as usize] = r;
        self.len += 1;
    }

    /// The live registers, in insertion order.
    #[inline]
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    /// Number of live registers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no register has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for RegList {
    fn default() -> RegList {
        RegList::new()
    }
}

impl std::ops::Deref for RegList {
    type Target = [Reg];
    #[inline]
    fn deref(&self) -> &[Reg] {
        self.as_slice()
    }
}

impl PartialEq for RegList {
    fn eq(&self, other: &RegList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RegList {}

impl std::hash::Hash for RegList {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for RegList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a> IntoIterator for &'a RegList {
    type Item = &'a Reg;
    type IntoIter = std::slice::Iter<'a, Reg>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<Reg> for RegList {
    /// # Panics
    ///
    /// Panics when the iterator yields more than [`RegList::CAPACITY`]
    /// registers.
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegList {
        let mut list = RegList::new();
        for r in iter {
            list.push(r);
        }
        list
    }
}

/// A single machine instruction.
///
/// Construction is builder-style: [`Inst::new`] then chained
/// [`def`](Inst::def) / [`use_`](Inst::use_) / [`mem`](Inst::mem) /
/// [`hazard`](Inst::hazard) / [`imm`](Inst::imm) calls. Operands are
/// stored inline ([`RegList`]), so an `Inst` is a small `Copy` value and
/// blocks of instructions are flat, cache-friendly arrays.
///
/// # Examples
///
/// ```
/// use wts_ir::{Hazards, Inst, MemRef, MemSpace, Opcode, Reg};
/// let ld = Inst::new(Opcode::Lwz)
///     .def(Reg::gpr(3))
///     .use_(Reg::gpr(4))
///     .mem(MemRef::unknown(MemSpace::Heap))
///     .hazard(Hazards::PEI);
/// assert!(ld.opcode().is_load());
/// assert!(ld.hazards().contains(Hazards::PEI));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inst {
    opcode: Opcode,
    defs: RegList,
    uses: RegList,
    mem: Option<MemRef>,
    hazards: Hazards,
    imm: Option<i64>,
}

impl Inst {
    /// A new instruction with the given opcode and no operands.
    pub fn new(opcode: Opcode) -> Inst {
        Inst { opcode, defs: RegList::new(), uses: RegList::new(), mem: None, hazards: Hazards::NONE, imm: None }
    }

    /// Adds a defined (written) register.
    pub fn def(mut self, r: Reg) -> Inst {
        self.defs.push(r);
        self
    }

    /// Adds a used (read) register.
    ///
    /// Named `use_` because `use` is a keyword.
    pub fn use_(mut self, r: Reg) -> Inst {
        self.uses.push(r);
        self
    }

    /// Sets the memory reference (for loads/stores).
    pub fn mem(mut self, m: MemRef) -> Inst {
        self.mem = Some(m);
        self
    }

    /// Adds hazard flags.
    pub fn hazard(mut self, h: Hazards) -> Inst {
        self.hazards = self.hazards.union(h);
        self
    }

    /// Sets an immediate operand.
    pub fn imm(mut self, v: i64) -> Inst {
        self.imm = Some(v);
        self
    }

    /// The opcode.
    #[inline]
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// Registers written by this instruction.
    #[inline]
    pub fn defs(&self) -> &[Reg] {
        self.defs.as_slice()
    }

    /// Registers read by this instruction.
    #[inline]
    pub fn uses(&self) -> &[Reg] {
        self.uses.as_slice()
    }

    /// The memory reference, if this instruction accesses memory.
    #[inline]
    pub fn mem_ref(&self) -> Option<MemRef> {
        self.mem
    }

    /// The hazard flags.
    #[inline]
    pub fn hazards(&self) -> Hazards {
        self.hazards
    }

    /// The immediate operand, if any.
    pub fn immediate(&self) -> Option<i64> {
        self.imm
    }

    /// True when this instruction carries any hazard flag.
    #[inline]
    pub fn is_hazardous(&self) -> bool {
        !self.hazards.is_none()
    }

    /// The full (possibly-overlapping) category set of this instruction:
    /// opcode kind + functional unit + hazard flags, per Table 1.
    pub fn categories(&self) -> CategorySet {
        let op = self.opcode;
        let mut set = self.hazards.categories();
        if op.is_branch() {
            set.insert(Category::Branch);
        }
        if op.is_call() {
            set.insert(Category::Call);
        }
        if op.is_load() {
            set.insert(Category::Load);
        }
        if op.is_store() {
            set.insert(Category::Store);
        }
        if op.is_return() {
            set.insert(Category::Return);
        }
        if op.is_integer_unit() {
            set.insert(Category::Integer);
        }
        if op.is_float_unit() {
            set.insert(Category::Float);
        }
        if op.is_system_unit() {
            set.insert(Category::System);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_alias_rules() {
        let s4 = MemRef::slot(MemSpace::Stack, 4);
        assert!(s4.may_alias(s4));
        assert!(!s4.may_alias(MemRef::slot(MemSpace::Stack, 5)));
        assert!(s4.may_alias(MemRef::unknown(MemSpace::Stack)));
        assert!(!s4.may_alias(MemRef::slot(MemSpace::Heap, 4)));
        assert!(MemRef::unknown(MemSpace::Heap).may_alias(MemRef::unknown(MemSpace::Heap)));
    }

    #[test]
    fn hazard_flags_compose() {
        let h = Hazards::PEI | Hazards::GC_POINT;
        assert!(h.contains(Hazards::PEI));
        assert!(h.contains(Hazards::GC_POINT));
        assert!(!h.contains(Hazards::YIELD));
        assert!(Hazards::NONE.is_none());
        assert_eq!(h.categories().len(), 2);
    }

    #[test]
    fn reg_list_tracks_live_prefix_only() {
        let a: RegList = [Reg::gpr(1), Reg::gpr(2)].into_iter().collect();
        let mut b = RegList::new();
        b.push(Reg::gpr(1));
        b.push(Reg::gpr(2));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(format!("{a:?}"), format!("{:?}", [Reg::gpr(1), Reg::gpr(2)]));
        // The filler value in dead slots is invisible: a list holding a
        // real r0 differs from an empty one.
        let mut c = RegList::new();
        c.push(Reg::gpr(0));
        assert_ne!(c, RegList::new());
        assert_eq!(RegList::default(), RegList::new());
    }

    #[test]
    fn reg_list_overflow_panics_with_capacity_in_message() {
        let err = std::panic::catch_unwind(|| {
            let mut l = RegList::new();
            for i in 0..=RegList::CAPACITY {
                l.push(Reg::gpr(i as u16));
            }
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("operand list overflow"), "got: {msg}");
    }

    #[test]
    fn builder_accumulates_operands() {
        let i = Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3));
        assert_eq!(i.defs(), &[Reg::gpr(1)]);
        assert_eq!(i.uses(), &[Reg::gpr(2), Reg::gpr(3)]);
        assert_eq!(i.mem_ref(), None);
        assert_eq!(i.immediate(), None);
    }

    #[test]
    fn categories_combine_kind_unit_and_hazards() {
        let ld = Inst::new(Opcode::Lwz)
            .def(Reg::gpr(3))
            .use_(Reg::gpr(4))
            .mem(MemRef::unknown(MemSpace::Heap))
            .hazard(Hazards::PEI);
        let cats = ld.categories();
        assert!(cats.contains(Category::Load));
        assert!(cats.contains(Category::Pei));
        assert!(!cats.contains(Category::Integer), "loads use the load/store unit");
        assert!(!cats.contains(Category::Store));
    }

    #[test]
    fn call_with_gc_point_categories() {
        let call = Inst::new(Opcode::Bl).def(Reg::lr()).hazard(Hazards::GC_POINT);
        let cats = call.categories();
        assert!(cats.contains(Category::Call));
        assert!(cats.contains(Category::GcPoint));
        assert!(!cats.contains(Category::Branch), "calls are not plain branches in Table 1");
    }

    #[test]
    fn yield_point_is_system_and_yield() {
        let yp = Inst::new(Opcode::YieldPoint).hazard(Hazards::YIELD | Hazards::GC_POINT | Hazards::THREAD_SWITCH);
        let cats = yp.categories();
        assert!(cats.contains(Category::System));
        assert!(cats.contains(Category::Yield));
        assert!(cats.contains(Category::ThreadSwitch));
        assert!(cats.contains(Category::GcPoint));
    }

    #[test]
    fn display_of_hazards() {
        assert_eq!(Hazards::NONE.to_string(), "-");
        assert_eq!((Hazards::PEI | Hazards::YIELD).to_string(), "{peis,yieldpoints}");
    }

    #[test]
    fn integer_category_for_simple_and_complex() {
        assert!(Inst::new(Opcode::Add).categories().contains(Category::Integer));
        assert!(Inst::new(Opcode::Divw).categories().contains(Category::Integer));
        assert!(Inst::new(Opcode::Fadd).categories().contains(Category::Float));
    }
}
