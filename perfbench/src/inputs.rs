//! Seeded inputs: the paper's two suites with the workload seed XORed
//! into every benchmark's generation seed, plus the input statistics
//! each run prints.

use wts_ir::{form_superblocks, Method, Program, ScopeKind};
use wts_jit::Suite;

/// `base`'s benchmark specs regenerated at `scale` with `seed` XORed
/// into each spec's own seed.
fn reseeded(base: &Suite, seed: u64, scale: f64) -> Vec<Program> {
    let specs = base
        .benchmarks()
        .iter()
        .map(|b| {
            let mut spec = b.spec().clone();
            spec.seed ^= seed;
            spec
        })
        .collect();
    Suite::from_specs(base.name(), specs, scale).benchmarks().iter().map(|b| b.program().clone()).collect()
}

/// The seed of the `i`-th independent input set of a run seeded `seed`
/// (`sub_seed(seed, 0) == seed`).
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Scale at which the template suites are built only to read their specs.
const TEMPLATE_SCALE: f64 = 1e-6;

/// The seven SPECjvm98-like programs for `seed`.
pub fn jvm98(seed: u64, scale: f64) -> Vec<Program> {
    reseeded(&Suite::specjvm98(TEMPLATE_SCALE), seed, scale)
}

/// The six FP-suite programs for `seed`.
pub fn fp(seed: u64, scale: f64) -> Vec<Program> {
    reseeded(&Suite::fp(TEMPLATE_SCALE), seed, scale)
}

/// Instruction slices of one method's scope units.
pub fn unit_lens(method: &Method, scope: ScopeKind) -> Vec<usize> {
    match scope {
        ScopeKind::Block => method.blocks().iter().map(|b| b.insts().len()).collect(),
        ScopeKind::Superblock(r) => form_superblocks(method, r).iter().map(|sb| sb.insts.len()).collect(),
    }
}

/// Size of a workload's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputStats {
    /// Methods.
    pub methods: usize,
    /// Scope units (blocks or formed superblock traces).
    pub units: usize,
    /// Mean instructions per unit.
    pub mean_insts: f64,
    /// Largest unit, in instructions.
    pub max_insts: usize,
}

impl InputStats {
    /// Measures `programs` at `scope`.
    pub fn of(programs: &[Program], scope: ScopeKind) -> InputStats {
        let lens: Vec<usize> = programs.iter().flat_map(|p| p.methods()).flat_map(|m| unit_lens(m, scope)).collect();
        let insts: usize = lens.iter().sum();
        InputStats {
            methods: programs.iter().map(|p| p.methods().len()).sum(),
            units: lens.len(),
            mean_insts: insts as f64 / lens.len().max(1) as f64,
            max_insts: lens.iter().copied().max().unwrap_or(0),
        }
    }
}

impl std::fmt::Display for InputStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "methods={} units={} mean_insts_per_unit={:.2} max_insts_per_unit={}",
            self.methods, self.units, self.mean_insts, self.max_insts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_programs_and_repeats_them() {
        let a = jvm98(1, 0.01);
        assert_eq!(a, jvm98(1, 0.01), "same seed, same inputs");
        assert_ne!(a, jvm98(2, 0.01), "another seed, other inputs");
        assert_eq!(a.len(), 7);
        assert_eq!(fp(1, 0.01).len(), 6);
    }

    #[test]
    fn seed_zero_is_the_paper_suite() {
        let paper = Suite::specjvm98(0.01);
        let ours = jvm98(0, 0.01);
        assert!(paper.benchmarks().iter().zip(&ours).all(|(b, p)| b.program() == p));
    }
}
