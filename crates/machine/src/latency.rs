//! Per-opcode latency tables.

use wts_ir::Opcode;

/// Execution latencies (in cycles) for every [`Opcode`], plus the set of
/// opcodes that are *not pipelined* (they occupy their unit for the whole
/// latency, e.g. divides on the 7410).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTable {
    latency: [u32; Opcode::COUNT],
    non_pipelined: [bool; Opcode::COUNT],
}

impl LatencyTable {
    /// A table where every opcode takes `default` cycles, fully pipelined.
    pub fn uniform(default: u32) -> LatencyTable {
        LatencyTable { latency: [default; Opcode::COUNT], non_pipelined: [false; Opcode::COUNT] }
    }

    /// The PowerPC 7410-flavoured table used throughout the reproduction.
    ///
    /// Simple integer ops take a cycle; multiplies a few; divides many and
    /// hog their unit; loads hit the L1 in 3 cycles; floating point is
    /// 3–5 cycles with a long, non-pipelined divide. Exact values matter
    /// less than the *relative* pattern (paper §2.2): long-latency FP and
    /// loads are what scheduling hides.
    pub fn ppc7410() -> LatencyTable {
        let mut t = LatencyTable::uniform(1);
        use Opcode::*;
        for (ops, cycles) in [
            (&[Li, Mr, Addi, Add, Subf, Neg, And, Or, Xor][..], 1),
            (&[Slw, Srw, Sraw, Rlwinm, Extsb, Extsh, Cntlzw][..], 1),
            (&[Cmp, Cmpl][..], 1),
            (&[Mullw, Mulhw][..], 4),
            (&[Divw, Divwu][..], 19),
            (&[Lwz, Lbz, Lhz, Lha][..], 3),
            (&[Lfs, Lfd][..], 4),
            (&[Stw, Stb, Sth, Stfs, Stfd][..], 3),
            (&[Fadd, Fsub][..], 4),
            (&[Fmul][..], 4),
            (&[Fmadd][..], 5),
            (&[Fdiv][..], 33),
            (&[Fneg, Fabs][..], 3),
            (&[Frsp, Fctiw][..], 3),
            (&[Fcmpu][..], 3),
            (&[B, Bc, Bctr, Blr][..], 1),
            (&[Bl, Bctrl][..], 2),
            (&[Mfspr, Mtspr][..], 3),
            (&[Sync][..], 8),
            (&[Isync][..], 6),
            (&[Tw, NullCheck, BoundsCheck][..], 1),
            (&[GcSafepoint, ThreadSwitchPoint, YieldPoint][..], 2),
        ] {
            for &op in ops {
                t.set(op, cycles);
            }
        }
        for op in [Divw, Divwu, Fdiv, Sync, Isync] {
            t.set_non_pipelined(op, true);
        }
        t
    }

    /// A wide, fast-cache superscalar table: loads hit in 2 cycles,
    /// multiplies in 3, and divides are shorter — the profile of a core
    /// that spends its transistors on bandwidth rather than depth.
    pub fn wide4() -> LatencyTable {
        let mut t = LatencyTable::ppc7410();
        use Opcode::*;
        for (ops, cycles) in [
            (&[Lwz, Lbz, Lhz, Lha][..], 2),
            (&[Lfs, Lfd][..], 3),
            (&[Stw, Stb, Sth, Stfs, Stfd][..], 2),
            (&[Mullw, Mulhw][..], 3),
            (&[Divw, Divwu][..], 12),
            (&[Fdiv][..], 24),
        ] {
            for &op in ops {
                t.set(op, cycles);
            }
        }
        t
    }

    /// A single-issue embedded-core table dominated by its memory system:
    /// no L1 to speak of, so loads take 8–10 cycles and stores 6, with
    /// slow multi-cycle FP. Long load-use distances are exactly what list
    /// scheduling hides, so this profile makes the filter's LS class big.
    pub fn embedded() -> LatencyTable {
        let mut t = LatencyTable::ppc7410();
        use Opcode::*;
        for (ops, cycles) in [
            (&[Lwz, Lbz, Lhz, Lha][..], 8),
            (&[Lfs, Lfd][..], 10),
            (&[Stw, Stb, Sth, Stfs, Stfd][..], 6),
            (&[Mullw, Mulhw][..], 6),
            (&[Divw, Divwu][..], 34),
            (&[Fadd, Fsub, Fmul][..], 8),
            (&[Fmadd][..], 10),
            (&[Fdiv][..], 48),
        ] {
            for &op in ops {
                t.set(op, cycles);
            }
        }
        t
    }

    /// A deep-pipeline table: taken control transfers pay a heavy
    /// front-end refill (5-cycle branches, 8-cycle calls) and every
    /// multi-cycle op stretches a little — the profile of a
    /// high-frequency design with a long fetch/decode pipe.
    pub fn deep_pipe() -> LatencyTable {
        let mut t = LatencyTable::ppc7410();
        use Opcode::*;
        for (ops, cycles) in [
            (&[B, Bc, Bctr, Blr][..], 5),
            (&[Bl, Bctrl][..], 8),
            (&[Lwz, Lbz, Lhz, Lha][..], 4),
            (&[Lfs, Lfd][..], 5),
            (&[Fadd, Fsub, Fmul][..], 6),
            (&[Fmadd][..], 7),
            (&[Mullw, Mulhw][..], 5),
        ] {
            for &op in ops {
                t.set(op, cycles);
            }
        }
        t
    }

    /// Latency of `op` in cycles (always at least 1).
    #[inline]
    pub fn latency(&self, op: Opcode) -> u32 {
        self.latency[op.index()]
    }

    /// Sets the latency of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero; a zero-latency instruction would let the
    /// simulators schedule dependent work in the same cycle it issues.
    pub fn set(&mut self, op: Opcode, cycles: u32) {
        assert!(cycles >= 1, "latency must be at least one cycle");
        self.latency[op.index()] = cycles;
    }

    /// True when `op` occupies its functional unit for its whole latency.
    #[inline]
    fn is_non_pipelined(&self, op: Opcode) -> bool {
        self.non_pipelined[op.index()]
    }

    /// Marks `op` (non-)pipelined.
    fn set_non_pipelined(&mut self, op: Opcode, v: bool) {
        self.non_pipelined[op.index()] = v;
    }

    /// Cycles the functional unit stays busy after `op` issues.
    #[inline]
    pub fn unit_occupancy(&self, op: Opcode) -> u32 {
        if self.is_non_pipelined(op) {
            self.latency(op)
        } else {
            1
        }
    }

    /// Returns a copy with every floating-point latency multiplied by
    /// `factor` (used by the `deep_fp` ablation machine).
    pub(crate) fn with_scaled_float(&self, factor: u32) -> LatencyTable {
        let mut t = self.clone();
        for &op in Opcode::ALL {
            if op.is_float_unit() {
                t.set(op, self.latency(op).saturating_mul(factor).max(1));
            }
        }
        t
    }
}

impl Default for LatencyTable {
    fn default() -> LatencyTable {
        LatencyTable::ppc7410()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_has_positive_latency() {
        let t = LatencyTable::ppc7410();
        for &op in Opcode::ALL {
            assert!(t.latency(op) >= 1, "{op} has zero latency");
        }
    }

    #[test]
    fn relative_pattern_holds() {
        let t = LatencyTable::ppc7410();
        assert!(t.latency(Opcode::Add) < t.latency(Opcode::Mullw));
        assert!(t.latency(Opcode::Mullw) < t.latency(Opcode::Divw));
        assert!(t.latency(Opcode::Lwz) > t.latency(Opcode::Add));
        assert!(t.latency(Opcode::Fdiv) > t.latency(Opcode::Fmul));
        assert!(t.latency(Opcode::Fadd) > t.latency(Opcode::Add));
    }

    #[test]
    fn divides_are_non_pipelined() {
        let t = LatencyTable::ppc7410();
        assert!(t.is_non_pipelined(Opcode::Divw));
        assert!(t.is_non_pipelined(Opcode::Fdiv));
        assert!(!t.is_non_pipelined(Opcode::Fmul));
        assert_eq!(t.unit_occupancy(Opcode::Fdiv), t.latency(Opcode::Fdiv));
        assert_eq!(t.unit_occupancy(Opcode::Fmul), 1);
    }

    #[test]
    fn uniform_table() {
        let t = LatencyTable::uniform(2);
        for &op in Opcode::ALL {
            assert_eq!(t.latency(op), 2);
            assert!(!t.is_non_pipelined(op));
        }
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        LatencyTable::uniform(1).set(Opcode::Add, 0);
    }

    #[test]
    fn profile_tables_keep_their_signature_shapes() {
        let base = LatencyTable::ppc7410();
        let wide = LatencyTable::wide4();
        let emb = LatencyTable::embedded();
        let deep = LatencyTable::deep_pipe();
        for t in [&wide, &emb, &deep] {
            for &op in Opcode::ALL {
                assert!(t.latency(op) >= 1, "{op} has zero latency");
            }
            assert!(t.is_non_pipelined(Opcode::Fdiv), "divides stay non-pipelined in every profile");
        }
        assert!(wide.latency(Opcode::Lwz) < base.latency(Opcode::Lwz), "wide4 has the fast cache");
        assert!(emb.latency(Opcode::Lwz) > base.latency(Opcode::Lwz), "embedded pays for memory");
        assert!(deep.latency(Opcode::Bc) > base.latency(Opcode::Bc), "deep pipe pays for branches");
        assert_eq!(deep.latency(Opcode::Add), base.latency(Opcode::Add), "simple ALU stays single-cycle");
    }

    #[test]
    fn scaled_float_only_touches_fp() {
        let t = LatencyTable::ppc7410();
        let s = t.with_scaled_float(2);
        assert_eq!(s.latency(Opcode::Fadd), 2 * t.latency(Opcode::Fadd));
        assert_eq!(s.latency(Opcode::Add), t.latency(Opcode::Add));
        assert_eq!(s.latency(Opcode::Lwz), t.latency(Opcode::Lwz));
    }
}
