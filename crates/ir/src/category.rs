//! The twelve possibly-overlapping instruction categories of Table 1.

use std::fmt;

/// One of the paper's twelve instruction categories.
///
/// Categories overlap: a load that may raise a null-pointer exception is in
/// both [`Category::Load`] and [`Category::Pei`]; a call is in
/// [`Category::Call`] and (being a GC point in a JVM) usually also in
/// [`Category::GcPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Branches (conditional or not, excluding calls/returns).
    Branch,
    /// Calls.
    Call,
    /// Loads from memory.
    Load,
    /// Stores to memory.
    Store,
    /// Method returns.
    Return,
    /// Uses an integer functional unit.
    Integer,
    /// Uses the floating-point functional unit.
    Float,
    /// Uses the system functional unit.
    System,
    /// Potentially-excepting instruction (hazard).
    Pei,
    /// Garbage-collection point (hazard).
    GcPoint,
    /// Thread-switch point (hazard).
    ThreadSwitch,
    /// Yield point (hazard).
    Yield,
}

impl Category {
    /// All twelve categories, in the order of the paper's Table 1.
    pub const ALL: [Category; 12] = [
        Category::Branch,
        Category::Call,
        Category::Load,
        Category::Store,
        Category::Return,
        Category::Integer,
        Category::Float,
        Category::System,
        Category::Pei,
        Category::GcPoint,
        Category::ThreadSwitch,
        Category::Yield,
    ];

    /// Short lowercase name as it appears in induced rules (Figure 4).
    pub fn rule_name(self) -> &'static str {
        match self {
            Category::Branch => "branches",
            Category::Call => "calls",
            Category::Load => "loads",
            Category::Store => "stores",
            Category::Return => "returns",
            Category::Integer => "integers",
            Category::Float => "floats",
            Category::System => "systems",
            Category::Pei => "peis",
            Category::GcPoint => "gcpoints",
            Category::ThreadSwitch => "tspoints",
            Category::Yield => "yieldpoints",
        }
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.rule_name())
    }
}

/// A set of [`Category`] values, stored as a 12-bit mask.
///
/// # Examples
///
/// ```
/// use wts_ir::{Category, CategorySet};
/// let set = CategorySet::new().with(Category::Load).with(Category::Pei);
/// assert!(set.contains(Category::Load));
/// assert!(!set.contains(Category::Store));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CategorySet(u16);

impl CategorySet {
    /// The empty set.
    pub fn new() -> CategorySet {
        CategorySet(0)
    }

    /// Set containing every category in `cats`.
    pub fn of(cats: &[Category]) -> CategorySet {
        let mut s = CategorySet::new();
        for &c in cats {
            s.insert(c);
        }
        s
    }

    /// Returns this set with `cat` added (builder style).
    pub fn with(mut self, cat: Category) -> CategorySet {
        self.insert(cat);
        self
    }

    /// Adds `cat` to the set.
    pub fn insert(&mut self, cat: Category) {
        self.0 |= cat.bit();
    }

    /// Removes `cat` from the set.
    pub fn remove(&mut self, cat: Category) {
        self.0 &= !cat.bit();
    }

    /// Membership test.
    pub fn contains(self, cat: Category) -> bool {
        self.0 & cat.bit() != 0
    }

    /// Number of categories in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no category is present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two sets.
    pub fn union(self, other: CategorySet) -> CategorySet {
        CategorySet(self.0 | other.0)
    }

    /// Iterates over the categories present, in Table 1 order.
    pub fn iter(self) -> impl Iterator<Item = Category> {
        Category::ALL.into_iter().filter(move |c| self.contains(*c))
    }
}

impl FromIterator<Category> for CategorySet {
    fn from_iter<I: IntoIterator<Item = Category>>(iter: I) -> CategorySet {
        let mut s = CategorySet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl Extend<Category> for CategorySet {
    fn extend<I: IntoIterator<Item = Category>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl fmt::Display for CategorySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_categories() {
        assert_eq!(Category::ALL.len(), 12);
        let mut names: Vec<&str> = Category::ALL.iter().map(|c| c.rule_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "rule names must be unique");
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = CategorySet::new();
        assert!(s.is_empty());
        s.insert(Category::Branch);
        s.insert(Category::Float);
        assert!(s.contains(Category::Branch));
        assert!(s.contains(Category::Float));
        assert_eq!(s.len(), 2);
        s.remove(Category::Branch);
        assert!(!s.contains(Category::Branch));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_union_and_iteration_order() {
        let a = CategorySet::of(&[Category::Store, Category::Branch]);
        let b = CategorySet::of(&[Category::Store, Category::Pei]);
        let u = a.union(b);
        let got: Vec<Category> = u.iter().collect();
        assert_eq!(got, vec![Category::Branch, Category::Store, Category::Pei]);
    }

    #[test]
    fn from_iterator_collects() {
        let s: CategorySet = [Category::Load, Category::Load, Category::Yield].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_is_never_empty() {
        assert_eq!(CategorySet::new().to_string(), "{}");
        assert_eq!(CategorySet::of(&[Category::Call, Category::GcPoint]).to_string(), "{calls,gcpoints}");
    }
}
