//! Concrete functional units and unit sets.

use std::fmt;

/// A concrete functional unit of the modelled processor.
///
/// The PowerPC 7410 has two *dissimilar* integer units: [`Iu1`] executes
/// only simple ALU operations while [`Iu2`] additionally handles multiply
/// and divide.
///
/// [`Iu1`]: FunctionalUnit::Iu1
/// [`Iu2`]: FunctionalUnit::Iu2
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FunctionalUnit {
    /// First integer unit (simple ops only).
    Iu1,
    /// Second integer unit (simple + multiply/divide).
    Iu2,
    /// Floating-point unit.
    Fpu,
    /// Branch unit.
    Bru,
    /// Load/store unit.
    Lsu,
    /// System unit.
    Su,
}

impl FunctionalUnit {
    /// All units, in a fixed order matching [`FunctionalUnit::index`].
    pub const ALL: [FunctionalUnit; 6] = [
        FunctionalUnit::Iu1,
        FunctionalUnit::Iu2,
        FunctionalUnit::Fpu,
        FunctionalUnit::Bru,
        FunctionalUnit::Lsu,
        FunctionalUnit::Su,
    ];

    /// Number of distinct units.
    pub const COUNT: usize = 6;

    /// Dense index for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FunctionalUnit::Iu1 => "IU1",
            FunctionalUnit::Iu2 => "IU2",
            FunctionalUnit::Fpu => "FPU",
            FunctionalUnit::Bru => "BRU",
            FunctionalUnit::Lsu => "LSU",
            FunctionalUnit::Su => "SU",
        }
    }
}

impl fmt::Display for FunctionalUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`FunctionalUnit`]s, stored as a bitmask.
///
/// # Examples
///
/// ```
/// use wts_machine::{FunctionalUnit, UnitSet};
/// let ints = UnitSet::of(&[FunctionalUnit::Iu1, FunctionalUnit::Iu2]);
/// assert!(ints.contains(FunctionalUnit::Iu1));
/// assert_eq!(ints.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UnitSet(u8);

impl UnitSet {
    /// The empty set.
    #[inline]
    pub fn new() -> UnitSet {
        UnitSet(0)
    }

    /// A set with the given members.
    pub fn of(units: &[FunctionalUnit]) -> UnitSet {
        let mut s = UnitSet::new();
        for &u in units {
            s.insert(u);
        }
        s
    }

    /// Adds a unit.
    #[inline]
    pub fn insert(&mut self, u: FunctionalUnit) {
        self.0 |= 1 << u.index();
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, u: FunctionalUnit) -> bool {
        self.0 & (1 << u.index()) != 0
    }

    /// Number of members.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The members as a bitmask: bit [`FunctionalUnit::index`] is set
    /// for every member.
    #[inline]
    pub(crate) fn bits(self) -> u8 {
        self.0
    }

    /// Iterates over members in index order.
    pub fn iter(self) -> impl Iterator<Item = FunctionalUnit> {
        FunctionalUnit::ALL.into_iter().filter(move |u| self.contains(*u))
    }
}

impl FromIterator<FunctionalUnit> for UnitSet {
    fn from_iter<I: IntoIterator<Item = FunctionalUnit>>(iter: I) -> UnitSet {
        let mut s = UnitSet::new();
        for u in iter {
            s.insert(u);
        }
        s
    }
}

impl fmt::Display for UnitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, u) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{u}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense() {
        for (i, &u) in FunctionalUnit::ALL.iter().enumerate() {
            assert_eq!(u.index(), i);
        }
        assert_eq!(FunctionalUnit::COUNT, FunctionalUnit::ALL.len());
    }

    #[test]
    fn set_operations() {
        let mut s = UnitSet::new();
        assert!(s.is_empty());
        s.insert(FunctionalUnit::Fpu);
        s.insert(FunctionalUnit::Fpu);
        assert_eq!(s.len(), 1);
        assert!(s.contains(FunctionalUnit::Fpu));
        assert!(!s.contains(FunctionalUnit::Bru));
    }

    #[test]
    fn iteration_in_index_order() {
        let s = UnitSet::of(&[FunctionalUnit::Su, FunctionalUnit::Iu1]);
        let v: Vec<FunctionalUnit> = s.iter().collect();
        assert_eq!(v, vec![FunctionalUnit::Iu1, FunctionalUnit::Su]);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(UnitSet::new().to_string(), "{}");
        assert_eq!(UnitSet::of(&[FunctionalUnit::Iu2]).to_string(), "{IU2}");
    }
}
