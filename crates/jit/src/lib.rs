//! Synthetic JIT workloads and the compile pipeline.
//!
//! The paper's corpus is SPECjvm98 plus a floating-point-heavy suite,
//! compiled by Jikes RVM on a PowerPC 7410. Neither the benchmarks nor
//! the VM are available here, so this crate builds the closest synthetic
//! equivalent (README.md, "The pipeline"; `repro calibrate` checks its
//! shape against the paper's):
//!
//! * [`BenchmarkSpec`] describes a program's *population of basic blocks*
//!   — instruction-category mix, block-size distribution, dependence
//!   density (how chain-like the code is), memory-aliasing behaviour,
//!   hazard rates and a hot/cold execution profile;
//! * [`generate`](BenchmarkSpec::generate) expands a spec into a concrete
//!   [`Program`](wts_ir::Program) with a deterministic PRNG, so every table in the
//!   reproduction is bit-stable;
//! * [`Suite::specjvm98`] and [`Suite::fp`] wire up one spec per paper
//!   benchmark (Tables 2 and 7);
//! * [`CompileSession`] is the JIT scheduling pass: it runs every block
//!   through `wts-core`'s per-unit body ([`UnitServer`](wts_core::UnitServer):
//!   extract features, consult a [`CompiledFilter`](wts_core::CompiledFilter), maybe
//!   schedule) and applies the selected schedules in place, reporting
//!   the same [`FilteredPass`](wts_core::FilteredPass) totals as the
//!   direct pass.
//!
//! # Examples
//!
//! ```
//! use wts_core::CompiledFilter;
//! use wts_jit::{CompileSession, Suite};
//! use wts_machine::MachineConfig;
//!
//! let machine = MachineConfig::ppc7410();
//! let suite = Suite::specjvm98(0.01); // 1% scale for a quick check
//! let session = CompileSession::new(&machine);
//! let (scheduled, stats) = session.compile(&suite.benchmarks()[0].program(), &CompiledFilter::always(), 1);
//! assert_eq!(stats.scheduled_blocks, stats.total_blocks);
//! assert_eq!(scheduled.block_count(), stats.total_blocks);
//! ```

mod blockgen;
mod compiler;
mod rng;
mod spec;
mod suite;
mod superblock;

pub use compiler::{app_cycles, CompileSession};
pub use rng::Xoshiro256;
pub use spec::{BenchmarkSpec, OpMix};
pub use suite::{Benchmark, Suite};
pub use superblock::{superblock_gain, SuperblockGain};
