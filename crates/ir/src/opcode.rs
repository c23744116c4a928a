//! Opcode definitions with their static scheduling properties.

use std::fmt;

/// The functional-unit class an opcode needs.
///
/// The PowerPC 7410 has *dissimilar* integer units: simple ALU operations
/// can issue to either integer unit while multiply/divide are confined to
/// one of them. The machine model maps a [`UnitClass`] to the set of
/// concrete units that can execute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnitClass {
    /// Simple integer ALU work (add, logic, shifts, compares, moves).
    SimpleInt,
    /// Complex integer work (multiply, divide) — one unit only on the 7410.
    ComplexInt,
    /// Floating-point unit.
    Float,
    /// Branch unit.
    Branch,
    /// Load/store unit.
    LoadStore,
    /// System unit (SPR moves, syncs, traps, runtime pseudo-ops).
    System,
}

impl UnitClass {
    /// All unit classes, in a fixed order.
    pub const ALL: [UnitClass; 6] = [
        UnitClass::SimpleInt,
        UnitClass::ComplexInt,
        UnitClass::Float,
        UnitClass::Branch,
        UnitClass::LoadStore,
        UnitClass::System,
    ];
}

impl fmt::Display for UnitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnitClass::SimpleInt => "simple-int",
            UnitClass::ComplexInt => "complex-int",
            UnitClass::Float => "float",
            UnitClass::Branch => "branch",
            UnitClass::LoadStore => "load-store",
            UnitClass::System => "system",
        };
        f.write_str(s)
    }
}

macro_rules! opcodes {
    ($( $(#[$doc:meta])* $name:ident => ($mnem:expr, $unit:ident, $kind:ident) ),+ $(,)?) => {
        /// A machine opcode (PowerPC-flavoured, plus JIT runtime pseudo-ops).
        ///
        /// Each opcode knows its [`UnitClass`] and its coarse kind, from
        /// which the Table 1 instruction categories are derived.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Opcode {
            $( $(#[$doc])* $name, )+
        }

        impl Opcode {
            /// Every opcode, in declaration order.
            pub const ALL: &'static [Opcode] = &[ $(Opcode::$name,)+ ];

            /// Number of opcodes (exclusive upper bound of [`Opcode::index`]).
            pub const COUNT: usize = Opcode::ALL.len();

            /// Dense index of this opcode, usable for table lookups.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Assembly-style mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self { $(Opcode::$name => $mnem,)+ }
            }

            /// The functional-unit class this opcode issues to.
            #[inline]
            pub fn unit_class(self) -> UnitClass {
                match self { $(Opcode::$name => UnitClass::$unit,)+ }
            }

            #[inline]
            fn kind(self) -> OpKind {
                match self { $(Opcode::$name => OpKind::$kind,)+ }
            }
        }
    };
}

/// Coarse operation kind used to derive categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Alu,
    Load,
    Store,
    Branch,
    Call,
    Return,
    Sys,
}

opcodes! {
    // --- integer ALU ------------------------------------------------------
    /// Load immediate into a GPR.
    Li => ("li", SimpleInt, Alu),
    /// Register move.
    Mr => ("mr", SimpleInt, Alu),
    /// Add immediate.
    Addi => ("addi", SimpleInt, Alu),
    /// Add.
    Add => ("add", SimpleInt, Alu),
    /// Subtract from.
    Subf => ("subf", SimpleInt, Alu),
    /// Negate.
    Neg => ("neg", SimpleInt, Alu),
    /// Bitwise and.
    And => ("and", SimpleInt, Alu),
    /// Bitwise or.
    Or => ("or", SimpleInt, Alu),
    /// Bitwise xor.
    Xor => ("xor", SimpleInt, Alu),
    /// Shift left word.
    Slw => ("slw", SimpleInt, Alu),
    /// Shift right word.
    Srw => ("srw", SimpleInt, Alu),
    /// Shift right algebraic word.
    Sraw => ("sraw", SimpleInt, Alu),
    /// Rotate left word immediate then and with mask.
    Rlwinm => ("rlwinm", SimpleInt, Alu),
    /// Sign-extend byte.
    Extsb => ("extsb", SimpleInt, Alu),
    /// Sign-extend halfword.
    Extsh => ("extsh", SimpleInt, Alu),
    /// Compare (signed), defines a CR field.
    Cmp => ("cmp", SimpleInt, Alu),
    /// Compare logical (unsigned), defines a CR field.
    Cmpl => ("cmpl", SimpleInt, Alu),
    /// Count leading zeros.
    Cntlzw => ("cntlzw", SimpleInt, Alu),
    /// Multiply low word (complex integer unit).
    Mullw => ("mullw", ComplexInt, Alu),
    /// Multiply high word (complex integer unit).
    Mulhw => ("mulhw", ComplexInt, Alu),
    /// Divide word (complex integer unit, long latency).
    Divw => ("divw", ComplexInt, Alu),
    /// Divide word unsigned (complex integer unit, long latency).
    Divwu => ("divwu", ComplexInt, Alu),

    // --- loads -------------------------------------------------------------
    /// Load word and zero.
    Lwz => ("lwz", LoadStore, Load),
    /// Load byte and zero.
    Lbz => ("lbz", LoadStore, Load),
    /// Load halfword and zero.
    Lhz => ("lhz", LoadStore, Load),
    /// Load halfword algebraic.
    Lha => ("lha", LoadStore, Load),
    /// Load floating-point single.
    Lfs => ("lfs", LoadStore, Load),
    /// Load floating-point double.
    Lfd => ("lfd", LoadStore, Load),

    // --- stores ------------------------------------------------------------
    /// Store word.
    Stw => ("stw", LoadStore, Store),
    /// Store byte.
    Stb => ("stb", LoadStore, Store),
    /// Store halfword.
    Sth => ("sth", LoadStore, Store),
    /// Store floating-point single.
    Stfs => ("stfs", LoadStore, Store),
    /// Store floating-point double.
    Stfd => ("stfd", LoadStore, Store),

    // --- floating point ------------------------------------------------------
    /// FP add (double).
    Fadd => ("fadd", Float, Alu),
    /// FP subtract.
    Fsub => ("fsub", Float, Alu),
    /// FP multiply.
    Fmul => ("fmul", Float, Alu),
    /// FP divide (very long latency, not pipelined).
    Fdiv => ("fdiv", Float, Alu),
    /// FP multiply-add.
    Fmadd => ("fmadd", Float, Alu),
    /// FP negate.
    Fneg => ("fneg", Float, Alu),
    /// FP absolute value.
    Fabs => ("fabs", Float, Alu),
    /// FP round to single.
    Frsp => ("frsp", Float, Alu),
    /// FP convert to integer word.
    Fctiw => ("fctiw", Float, Alu),
    /// FP compare, defines a CR field.
    Fcmpu => ("fcmpu", Float, Alu),

    // --- branches / calls / returns -----------------------------------------
    /// Unconditional branch (block terminator).
    B => ("b", Branch, Branch),
    /// Conditional branch on a CR field (block terminator).
    Bc => ("bc", Branch, Branch),
    /// Branch to CTR (computed jump, block terminator).
    Bctr => ("bctr", Branch, Branch),
    /// Branch and link: direct call.
    Bl => ("bl", Branch, Call),
    /// Branch to CTR and link: indirect call (virtual dispatch).
    Bctrl => ("bctrl", Branch, Call),
    /// Branch to LR: method return (block terminator).
    Blr => ("blr", Branch, Return),

    // --- system ---------------------------------------------------------------
    /// Move from special-purpose register.
    Mfspr => ("mfspr", System, Sys),
    /// Move to special-purpose register.
    Mtspr => ("mtspr", System, Sys),
    /// Heavyweight memory barrier.
    Sync => ("sync", System, Sys),
    /// Instruction synchronize.
    Isync => ("isync", System, Sys),
    /// Trap word (conditional trap; used for explicit checks).
    Tw => ("tw", System, Sys),
    /// Explicit null-check pseudo-op (Jikes RVM-style PEI).
    NullCheck => ("nullcheck", System, Sys),
    /// Array bounds-check pseudo-op (PEI).
    BoundsCheck => ("boundscheck", System, Sys),
    /// GC safepoint pseudo-op emitted by the JIT.
    GcSafepoint => ("gcpoint", System, Sys),
    /// Thread-switch test pseudo-op emitted by the JIT.
    ThreadSwitchPoint => ("tspoint", System, Sys),
    /// Loop/method yield-point pseudo-op emitted by the JIT.
    YieldPoint => ("yieldpoint", System, Sys),
}

impl Opcode {
    /// True for loads from memory.
    #[inline]
    pub fn is_load(self) -> bool {
        self.kind() == OpKind::Load
    }

    /// True for stores to memory.
    #[inline]
    pub fn is_store(self) -> bool {
        self.kind() == OpKind::Store
    }

    /// True for any memory access.
    #[inline]
    pub fn is_memory(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// True for non-call, non-return branches.
    #[inline]
    pub fn is_branch(self) -> bool {
        self.kind() == OpKind::Branch
    }

    /// True for calls (`bl`, `bctrl`).
    #[inline]
    pub fn is_call(self) -> bool {
        self.kind() == OpKind::Call
    }

    /// True for method returns (`blr`).
    #[inline]
    pub fn is_return(self) -> bool {
        self.kind() == OpKind::Return
    }

    /// True for any control transfer (branch, call or return).
    #[inline]
    pub fn is_control(self) -> bool {
        self.is_branch() || self.is_call() || self.is_return()
    }

    /// True when this opcode legally terminates a basic block.
    #[inline]
    pub fn is_terminator(self) -> bool {
        self.is_branch() || self.is_return()
    }

    /// True for opcodes executing on an integer unit (simple or complex).
    #[inline]
    pub(crate) fn is_integer_unit(self) -> bool {
        matches!(self.unit_class(), UnitClass::SimpleInt | UnitClass::ComplexInt)
    }

    /// True for opcodes executing on the floating-point unit.
    #[inline]
    pub fn is_float_unit(self) -> bool {
        self.unit_class() == UnitClass::Float
    }

    /// True for opcodes executing on the system unit.
    #[inline]
    pub fn is_system_unit(self) -> bool {
        self.unit_class() == UnitClass::System
    }

    /// True for syncs and calls, which serialize issue: they wait for
    /// everything issued before them, and everything issued after them
    /// waits for their completion.
    #[inline]
    pub fn is_serializing(self) -> bool {
        matches!(self, Opcode::Sync | Opcode::Isync) || self.is_call()
    }

    /// True when the opcode writes memory or is otherwise a side effect the
    /// scheduler must never reorder relative to other side effects.
    #[inline]
    pub fn has_side_effect(self) -> bool {
        self.is_store()
            || self.is_control()
            || matches!(
                self,
                Opcode::Sync
                    | Opcode::Isync
                    | Opcode::Tw
                    | Opcode::GcSafepoint
                    | Opcode::ThreadSwitchPoint
                    | Opcode::YieldPoint
            )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_dense_and_matches_all_order() {
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        assert_eq!(Opcode::COUNT, Opcode::ALL.len());
    }

    #[test]
    fn all_lists_every_opcode_once() {
        let mut seen = Opcode::ALL.to_vec();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), Opcode::ALL.len());
        assert!(Opcode::ALL.len() >= 50, "expected a rich opcode set");
    }

    #[test]
    fn loads_and_stores_are_memory() {
        assert!(Opcode::Lwz.is_load());
        assert!(Opcode::Lfd.is_load());
        assert!(!Opcode::Lwz.is_store());
        assert!(Opcode::Stw.is_store());
        assert!(Opcode::Stfd.is_memory());
        assert!(!Opcode::Add.is_memory());
    }

    #[test]
    fn control_kinds_are_disjoint() {
        for &op in Opcode::ALL {
            let n = usize::from(op.is_branch()) + usize::from(op.is_call()) + usize::from(op.is_return());
            assert!(n <= 1, "{op} claims multiple control kinds");
        }
        assert!(Opcode::B.is_branch());
        assert!(Opcode::Bl.is_call());
        assert!(Opcode::Blr.is_return());
        assert!(!Opcode::Bl.is_terminator());
        assert!(Opcode::Bc.is_terminator());
        assert!(Opcode::Blr.is_terminator());
    }

    #[test]
    fn unit_classes_match_architecture() {
        assert_eq!(Opcode::Add.unit_class(), UnitClass::SimpleInt);
        assert_eq!(Opcode::Mullw.unit_class(), UnitClass::ComplexInt);
        assert_eq!(Opcode::Divw.unit_class(), UnitClass::ComplexInt);
        assert_eq!(Opcode::Fadd.unit_class(), UnitClass::Float);
        assert_eq!(Opcode::Lwz.unit_class(), UnitClass::LoadStore);
        assert_eq!(Opcode::B.unit_class(), UnitClass::Branch);
        assert_eq!(Opcode::Sync.unit_class(), UnitClass::System);
    }

    #[test]
    fn integer_unit_covers_simple_and_complex() {
        assert!(Opcode::Add.is_integer_unit());
        assert!(Opcode::Divw.is_integer_unit());
        assert!(!Opcode::Fadd.is_integer_unit());
        assert!(Opcode::Fmadd.is_float_unit());
        assert!(Opcode::YieldPoint.is_system_unit());
    }

    #[test]
    fn side_effects_include_barriers_and_safepoints() {
        assert!(Opcode::Stw.has_side_effect());
        assert!(Opcode::Sync.has_side_effect());
        assert!(Opcode::YieldPoint.has_side_effect());
        assert!(Opcode::B.has_side_effect());
        assert!(!Opcode::Add.has_side_effect());
        assert!(!Opcode::Lwz.has_side_effect());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut ms: Vec<&str> = Opcode::ALL.iter().map(|o| o.mnemonic()).collect();
        ms.sort_unstable();
        ms.dedup();
        assert_eq!(ms.len(), Opcode::ALL.len());
    }
}
