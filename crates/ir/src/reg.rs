//! Registers and register classes.

use std::fmt;

/// Architectural register class, mirroring the PowerPC register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General-purpose (integer) registers, `r0..`.
    Gpr,
    /// Floating-point registers, `f0..`.
    Fpr,
    /// Condition register fields, `cr0..`.
    Cr,
    /// Special-purpose registers (LR, CTR, XER, ...), `spr0..`.
    Spr,
}

impl RegClass {
    /// All register classes, in display order.
    pub const ALL: [RegClass; 4] = [RegClass::Gpr, RegClass::Fpr, RegClass::Cr, RegClass::Spr];

    /// One-letter prefix used when printing registers of this class.
    pub fn prefix(self) -> &'static str {
        match self {
            RegClass::Gpr => "r",
            RegClass::Fpr => "f",
            RegClass::Cr => "cr",
            RegClass::Spr => "spr",
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// A machine register: a class plus an index within the class.
///
/// The IR is post-register-allocation (as in the paper: scheduling runs on
/// the machine-specific form the JIT emits), so indices name physical
/// registers and reuse of an index creates anti/output dependences.
///
/// # Examples
///
/// ```
/// use wts_ir::{Reg, RegClass};
/// let r3 = Reg::gpr(3);
/// assert_eq!(r3.class(), RegClass::Gpr);
/// assert_eq!(r3.index(), 3);
/// assert_eq!(r3.to_string(), "r3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg {
    class: RegClass,
    index: u16,
}

impl Reg {
    /// Creates a register of the given class and index.
    pub const fn new(class: RegClass, index: u16) -> Reg {
        Reg { class, index }
    }

    /// General-purpose register `r<index>`.
    pub const fn gpr(index: u16) -> Reg {
        Reg::new(RegClass::Gpr, index)
    }

    /// Floating-point register `f<index>`.
    pub const fn fpr(index: u16) -> Reg {
        Reg::new(RegClass::Fpr, index)
    }

    /// Condition-register field `cr<index>`.
    pub const fn cr(index: u16) -> Reg {
        Reg::new(RegClass::Cr, index)
    }

    /// Special-purpose register `spr<index>` (0 = LR, 1 = CTR by convention).
    pub const fn spr(index: u16) -> Reg {
        Reg::new(RegClass::Spr, index)
    }

    /// The link register (call/return linkage).
    pub const fn lr() -> Reg {
        Reg::spr(0)
    }

    /// The count register (indirect branches).
    pub const fn ctr() -> Reg {
        Reg::spr(1)
    }

    /// This register's class.
    #[inline]
    pub fn class(self) -> RegClass {
        self.class
    }

    /// This register's index within its class.
    #[inline]
    pub fn index(self) -> u16 {
        self.index
    }

    /// A dense key usable for array-indexed register maps.
    ///
    /// Keys are unique across classes and interleave them
    /// (`index * 4 + class`), so the low registers that code actually
    /// uses in every class share the first few slots of a table such as
    /// [`RegTable`]; see [`Reg::dense_limit`].
    #[inline]
    fn dense_key(self) -> usize {
        let class = match self.class {
            RegClass::Gpr => 0,
            RegClass::Fpr => 1,
            RegClass::Cr => 2,
            RegClass::Spr => 3,
        };
        self.index as usize * 4 + class
    }

    /// Exclusive upper bound on a register index in every class: the
    /// dense tables ([`RegTable`]) cover only indices below it, so
    /// decoders of untrusted input reject larger ones.
    pub const INDEX_LIMIT: u16 = 1024;

    /// Exclusive upper bound on the dense register keys [`RegTable`]
    /// uses (register indices stay below [`Reg::INDEX_LIMIT`] in every
    /// class).
    pub fn dense_limit() -> usize {
        usize::from(Reg::INDEX_LIMIT) * 4
    }
}

/// A register-keyed map stored densely by register (`index * 4 + class`,
/// below [`Reg::dense_limit`]) and cleared in O(1).
///
/// Every slot remembers the epoch it was written in, and
/// [`clear`](RegTable::clear) bumps the table's epoch, so all earlier
/// entries read as absent without touching memory. The backing array
/// grows on the first write to a key and is then reused, so a long-lived
/// table (one per dependence-graph builder or issue state) performs no
/// steady-state allocation and no hashing.
///
/// # Examples
///
/// ```
/// use wts_ir::{Reg, RegTable};
///
/// let mut ready = RegTable::new();
/// ready.set(Reg::fpr(28), 7u64);
/// assert_eq!(ready.get(Reg::fpr(28)), Some(7));
/// assert_eq!(ready.get(Reg::gpr(28)), None);
/// ready.clear();
/// assert_eq!(ready.get(Reg::fpr(28)), None, "a cleared entry never leaks");
/// ```
#[derive(Debug, Clone)]
pub struct RegTable<T> {
    /// The current epoch; slots stamped with any other epoch are absent.
    /// Slots start at epoch 0, the table at 1.
    epoch: u64,
    slots: Vec<(u64, T)>,
}

impl<T: Copy + Default> RegTable<T> {
    /// An empty table; nothing is allocated until the first write.
    pub fn new() -> RegTable<T> {
        RegTable { epoch: 1, slots: Vec::new() }
    }

    /// Forgets every entry in O(1), keeping the backing array.
    pub fn clear(&mut self) {
        self.epoch += 1;
    }

    /// The entry for `reg`, if written since the last
    /// [`clear`](RegTable::clear).
    #[inline]
    pub fn get(&self, reg: Reg) -> Option<T> {
        match self.slots.get(reg.dense_key()) {
            Some(&(epoch, value)) if epoch == self.epoch => Some(value),
            _ => None,
        }
    }

    /// Sets the entry for `reg`, growing the table to cover its key.
    #[inline]
    pub fn set(&mut self, reg: Reg, value: T) {
        let key = reg.dense_key();
        debug_assert!(key < Reg::dense_limit(), "register index {} out of the dense range", reg.index);
        if key >= self.slots.len() {
            self.slots.resize(key + 1, (0, T::default()));
        }
        self.slots[key] = (self.epoch, value);
    }
}

impl<T: Copy + Default> Default for RegTable<T> {
    fn default() -> RegTable<T> {
        RegTable::new()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_class_and_index() {
        assert_eq!(Reg::gpr(5).class(), RegClass::Gpr);
        assert_eq!(Reg::fpr(9).class(), RegClass::Fpr);
        assert_eq!(Reg::cr(1).class(), RegClass::Cr);
        assert_eq!(Reg::spr(2).class(), RegClass::Spr);
        assert_eq!(Reg::gpr(5).index(), 5);
    }

    #[test]
    fn display_uses_class_prefix() {
        assert_eq!(Reg::gpr(31).to_string(), "r31");
        assert_eq!(Reg::fpr(0).to_string(), "f0");
        assert_eq!(Reg::cr(7).to_string(), "cr7");
        assert_eq!(Reg::spr(1).to_string(), "spr1");
    }

    #[test]
    fn lr_and_ctr_are_sprs() {
        assert_eq!(Reg::lr(), Reg::spr(0));
        assert_eq!(Reg::ctr(), Reg::spr(1));
    }

    #[test]
    fn dense_keys_distinct_across_classes() {
        let regs = [Reg::gpr(3), Reg::fpr(3), Reg::cr(3), Reg::spr(3)];
        let mut keys: Vec<usize> = regs.iter().map(|r| r.dense_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
        for r in regs {
            assert!(r.dense_key() < Reg::dense_limit());
        }
    }

    #[test]
    fn low_registers_of_every_class_get_low_keys() {
        for class in RegClass::ALL {
            assert!(Reg::new(class, 31).dense_key() < 128, "{class}31 must sit in the first 128 slots");
        }
        assert_eq!(Reg::new(RegClass::Spr, 1023).dense_key(), Reg::dense_limit() - 1);
    }

    #[test]
    fn reg_table_clear_forgets_and_overwrite_wins() {
        let mut t: RegTable<u32> = RegTable::default();
        assert_eq!(t.get(Reg::cr(7)), None, "reads past the grown range are absent");
        t.set(Reg::cr(7), 1);
        t.set(Reg::cr(7), 2);
        t.set(Reg::spr(0), 3);
        assert_eq!((t.get(Reg::cr(7)), t.get(Reg::spr(0)), t.get(Reg::gpr(7))), (Some(2), Some(3), None));
        t.clear();
        assert_eq!((t.get(Reg::cr(7)), t.get(Reg::spr(0))), (None, None));
        t.set(Reg::gpr(0), 4);
        assert_eq!((t.get(Reg::gpr(0)), t.get(Reg::cr(7))), (Some(4), None));
    }

    #[test]
    fn ordering_is_class_major() {
        assert!(Reg::gpr(1000) < Reg::fpr(0));
        assert!(Reg::gpr(3) < Reg::gpr(4));
    }
}
