//! The incremental [`Trainer`] against the batch path it replaced:
//! labelling the whole corpus prefix with [`build_dataset`] and fitting
//! the learner on it.
//!
//! A trainer that absorbs a corpus in chunks of any size must publish,
//! after every chunk, exactly the filter the batch path trains on the
//! prefix absorbed so far — for every learner in the portfolio, at both
//! scopes and at thresholds that keep, drop and relabel instances. The
//! corpora are traced from generated programs on every registry
//! machine, so the feature columns carry real ties and spreads.
//!
//! The retrainer's label-only path ([`TraceCollector::observe_into`])
//! is held to the same bar: observing methods one at a time, it must
//! fit, after every method, exactly the filter [`train_filter`] trains
//! on the collected trace of the methods observed so far.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use wts_core::{
    build_dataset, collect_method_trace, collect_trace, train_filter, LabelConfig, Learner, LearnerKind, TimingMode,
    TraceCollector, TraceOptions, TraceRecord, TrainConfig, Trainer,
};
use wts_ir::{BasicBlock, Inst, MemRef, MemSpace, Method, Opcode, Program, Reg, ScopeKind};
use wts_machine::{registry, MachineConfig};

/// A small deterministic generator.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn reg(rng: &mut Lcg) -> u16 {
    u16::try_from(1 + rng.below(12)).expect("register indices fit u16")
}

/// A program of `methods` methods whose blocks mix loads, stores,
/// integer and floating-point arithmetic in random proportions and
/// lengths, under random execution counts.
fn program(name: &str, methods: u32, rng: &mut Lcg) -> Program {
    let mut p = Program::new(name);
    for mi in 0..methods {
        let mut m = Method::new(mi, format!("m{mi}"));
        let blocks = 1 + u32::try_from(rng.below(4)).expect("block counts fit u32");
        for bi in 0..blocks {
            let mut b = BasicBlock::new(bi);
            for _ in 0..1 + rng.below(14) {
                let slot = u32::try_from(rng.below(6)).expect("slots fit u32");
                let inst = match rng.below(6) {
                    0 => Inst::new(Opcode::Lwz)
                        .def(Reg::gpr(reg(rng)))
                        .use_(Reg::gpr(30))
                        .mem(MemRef::slot(MemSpace::Heap, slot)),
                    1 => Inst::new(Opcode::Stw)
                        .use_(Reg::gpr(reg(rng)))
                        .use_(Reg::gpr(30))
                        .mem(MemRef::slot(MemSpace::Heap, slot)),
                    2 => Inst::new(Opcode::Fadd)
                        .def(Reg::fpr(reg(rng)))
                        .use_(Reg::fpr(reg(rng)))
                        .use_(Reg::fpr(reg(rng))),
                    3 => Inst::new(Opcode::Mullw)
                        .def(Reg::gpr(reg(rng)))
                        .use_(Reg::gpr(reg(rng)))
                        .use_(Reg::gpr(reg(rng))),
                    _ => {
                        Inst::new(Opcode::Add).def(Reg::gpr(reg(rng))).use_(Reg::gpr(reg(rng))).use_(Reg::gpr(reg(rng)))
                    }
                };
                b.push(inst);
            }
            if bi + 1 < blocks {
                b.push(Inst::new(Opcode::Bc).use_(Reg::cr(0)));
            } else {
                b.push(Inst::new(Opcode::Blr).use_(Reg::lr()));
            }
            b.set_exec_count(1 + rng.below(3) * 10);
            m.push_block(b);
        }
        p.push_method(m);
    }
    p
}

/// A deterministic corpus for one machine and scope: three generated
/// benchmarks plus the learnable suite.
fn corpus(machine: usize, scope: ScopeKind, seed: u64) -> Vec<TraceRecord> {
    let machine = &registry()[machine];
    let mut rng = Lcg(seed);
    let mut programs: Vec<Program> = ["p0", "p1", "p2"].iter().map(|n| program(n, 24, &mut rng)).collect();
    programs.extend(wts_core::testutil::learnable_suite(2));
    let options = TraceOptions { timing: TimingMode::Deterministic, scope, ..TraceOptions::default() };
    programs.iter().flat_map(|p| collect_trace(p, machine, &options)).collect()
}

/// Feeds `corpus` to a fresh trainer in chunks of random size and, after
/// every chunk, compares its filter with the batch path on the prefix.
fn check(corpus: &[TraceRecord], config: &TrainConfig, chunk_seed: u64) -> Result<(), TestCaseError> {
    let mut trainer = Trainer::new(config);
    let mut rng = Lcg(chunk_seed);
    let mut absorbed = 0;
    while absorbed < corpus.len() {
        let end = (absorbed + 1 + usize::try_from(rng.below(90)).expect("chunks fit usize")).min(corpus.len());
        trainer.absorb(&corpus[absorbed..end]);
        absorbed = end;
        let filter = trainer.fit();
        let (data, _) = build_dataset(&corpus[..absorbed], config.label);
        let name = config.learner.name();
        prop_assert_eq!(filter.rules(), &config.learner.fit(&data), "{} t={}", name, config.label.threshold_percent);
        prop_assert_eq!(filter.threshold_percent(), config.label.threshold_percent);
    }
    prop_assert_eq!(trainer.fit(), train_filter(corpus, config));
    Ok(())
}

/// Observes `programs`' methods round-robin — benchmarks interleave, so
/// RIPPER's first-seen group ids are neither alphabetical nor
/// contiguous — through one warm collector, and after every method
/// compares the trainer's filter with [`train_filter`] over the records
/// collected for the same methods.
fn check_observed(
    programs: &[Program],
    machine: &MachineConfig,
    options: &TraceOptions,
    config: &TrainConfig,
) -> Result<(), TestCaseError> {
    let mut collector = TraceCollector::new(machine, options);
    let mut trainer = Trainer::new(config);
    let mut records = Vec::new();
    let longest = programs.iter().map(|p| p.methods().len()).max().unwrap_or(0);
    for i in 0..longest {
        for program in programs {
            let Some(method) = program.methods().get(i) else { continue };
            let observed = collector.observe_into(program.name(), method, &mut trainer);
            let collected = collect_method_trace(program.name(), method, machine, options);
            prop_assert_eq!(observed, collected.len(), "one observation per scope unit");
            records.extend(collected);
            let (name, t) = (config.learner.name(), config.label.threshold_percent);
            prop_assert_eq!(
                trainer.fit(),
                train_filter(&records, config),
                "{} t={} after {} method {}",
                name,
                t,
                program.name(),
                i
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chunked_absorption_equals_the_batch_fit(
        machine in 0usize..6,
        superblock in prop::bool::ANY,
        seed in 0u64..1_000_000,
        chunk_seed in 0u64..1_000_000,
    ) {
        let scope = if superblock { ScopeKind::Superblock(70) } else { ScopeKind::Block };
        let corpus = corpus(machine % registry().len(), scope, seed);
        for threshold in [0, 5, 20] {
            for learner in LearnerKind::portfolio() {
                let config = TrainConfig::with_learner(threshold, learner).with_scope(scope);
                check(&corpus, &config, chunk_seed)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn label_only_observation_equals_the_batch_fit_after_every_method(
        machine in 0usize..6,
        superblock in prop::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let scope = if superblock { ScopeKind::Superblock(70) } else { ScopeKind::Block };
        let machine = &registry()[machine % registry().len()];
        let mut rng = Lcg(seed);
        let mut programs: Vec<Program> = ["p2", "p0", "p1"].iter().map(|n| program(n, 12, &mut rng)).collect();
        programs.extend(wts_core::testutil::learnable_suite(2));
        let options = TraceOptions { timing: TimingMode::Deterministic, scope, ..TraceOptions::default() };
        for threshold in [0, 5, 20] {
            for learner in LearnerKind::portfolio() {
                let config = TrainConfig::with_learner(threshold, learner).with_scope(scope);
                check_observed(&programs, machine, &options, &config)?;
            }
        }
    }
}

#[test]
fn an_empty_trainer_fits_the_empty_corpus_filter() {
    for learner in LearnerKind::portfolio() {
        let config = TrainConfig::with_learner(5, learner);
        let trainer = Trainer::new(&config);
        assert_eq!(trainer.fit(), train_filter(&[], &config));
        let (data, _) = build_dataset(&[], LabelConfig::new(5));
        assert_eq!(trainer.fit().rules(), &config.learner.fit(&data));
    }
}
