//! Benchmark specifications: the knobs that shape a synthetic program.

use crate::blockgen;
use wts_ir::Program;

/// Relative frequencies of instruction kinds in a benchmark's blocks.
///
/// Weights need not sum to one; they are normalized when sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Simple integer ALU ops (add/logic/shift/compare/move).
    pub simple_int: f64,
    /// Integer multiply/divide.
    pub complex_int: f64,
    /// Floating-point arithmetic.
    pub float_arith: f64,
    /// Integer loads.
    pub int_load: f64,
    /// Floating-point loads.
    pub float_load: f64,
    /// Integer stores.
    pub int_store: f64,
    /// Floating-point stores.
    pub float_store: f64,
    /// Calls (direct and virtual).
    pub call: f64,
    /// JIT safepoints (yield points).
    pub safepoint: f64,
    /// Other system-unit work (SPR moves, explicit checks).
    pub system: f64,
}

impl OpMix {
    /// The weights as a slice, in a fixed order used by the generator.
    pub(crate) fn weights(&self) -> [f64; 10] {
        [
            self.simple_int,
            self.complex_int,
            self.float_arith,
            self.int_load,
            self.float_load,
            self.int_store,
            self.float_store,
            self.call,
            self.safepoint,
            self.system,
        ]
    }

    /// An integer-program mix (the SPECjvm98 default flavour).
    pub fn integer() -> OpMix {
        OpMix {
            simple_int: 0.40,
            complex_int: 0.03,
            float_arith: 0.02,
            int_load: 0.22,
            float_load: 0.01,
            int_store: 0.10,
            float_store: 0.01,
            call: 0.05,
            safepoint: 0.055,
            system: 0.03,
        }
    }

    /// A floating-point-kernel mix (the Table 7 suite flavour).
    pub fn floating_point() -> OpMix {
        OpMix {
            simple_int: 0.16,
            complex_int: 0.02,
            float_arith: 0.32,
            int_load: 0.06,
            float_load: 0.18,
            int_store: 0.03,
            float_store: 0.09,
            call: 0.015,
            safepoint: 0.02,
            system: 0.01,
        }
    }
}

/// Everything needed to generate one synthetic benchmark program.
///
/// The fields control the joint distribution of (features, scheduling
/// benefit) the learner sees; matching that distribution is the
/// substitution for the unavailable SPECjvm98, and `repro calibrate`
/// (pinned in `tests/golden/`) compares the generated corpus with the
/// paper's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name (as it appears in the paper's tables).
    pub name: String,
    /// One-line description (Table 2 / Table 7 text).
    pub description: String,
    /// Methods generated at scale 1.0.
    pub methods: usize,
    /// Min/max blocks per method (uniform).
    pub blocks_per_method: (usize, usize),
    /// Mean block length (geometric-flavoured distribution).
    pub block_len_mean: f64,
    /// Hard cap on block length.
    pub block_len_max: usize,
    /// Instruction-kind mix.
    pub mix: OpMix,
    /// Probability that an operand chains on the most recent def
    /// (1.0 = fully serial code, 0.0 = maximally parallel).
    pub chain_bias: f64,
    /// Probability that a load/store is potentially excepting.
    pub pei_prob: f64,
    /// Probability that a memory access is not disambiguated.
    pub alias_unknown_prob: f64,
    /// Size of the per-method pool of distinct memory slots.
    pub mem_slots: u32,
    /// Fraction of blocks that are hot.
    pub hot_fraction: f64,
    /// Execution-count multiplier range for hot blocks.
    pub hot_multiplier: (u64, u64),
    /// Generation seed (distinct per benchmark).
    pub seed: u64,
}

impl BenchmarkSpec {
    /// Generates the program at the given scale (1.0 = paper-sized corpus,
    /// roughly 6,500 blocks; tests use small scales).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn generate(&self, scale: f64) -> Program {
        assert!(scale > 0.0, "scale must be positive");
        blockgen::generate_program(self, scale)
    }

    /// Expected block count at the given scale (approximate).
    pub fn approx_blocks(&self, scale: f64) -> usize {
        let methods = ((self.methods as f64 * scale) as usize).max(1);
        methods * (self.blocks_per_method.0 + self.blocks_per_method.1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "toy".into(),
            description: "toy spec".into(),
            methods: 10,
            blocks_per_method: (2, 4),
            block_len_mean: 6.0,
            block_len_max: 30,
            mix: OpMix::integer(),
            chain_bias: 0.5,
            pei_prob: 0.2,
            alias_unknown_prob: 0.2,
            mem_slots: 16,
            hot_fraction: 0.1,
            hot_multiplier: (50, 200),
            seed: 42,
        }
    }

    #[test]
    fn generate_produces_valid_program() {
        let p = spec().generate(1.0);
        assert_eq!(p.name(), "toy");
        assert_eq!(p.methods().len(), 10);
        assert!(p.block_count() >= 20);
        p.validate().expect("generated IR must validate");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec().generate(1.0);
        let b = spec().generate(1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s2 = spec();
        s2.seed = 43;
        assert_ne!(spec().generate(1.0), s2.generate(1.0));
    }

    #[test]
    fn scale_shrinks_method_count() {
        let p = spec().generate(0.3);
        assert_eq!(p.methods().len(), 3);
        assert!(spec().approx_blocks(0.3) >= p.methods().len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        spec().generate(0.0);
    }

    #[test]
    fn mixes_have_positive_mass() {
        for mix in [OpMix::integer(), OpMix::floating_point()] {
            assert!(mix.weights().iter().sum::<f64>() > 0.9);
        }
        assert!(OpMix::floating_point().float_arith > OpMix::integer().float_arith);
    }
}
