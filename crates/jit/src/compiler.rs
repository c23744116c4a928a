//! The JIT compile session: the deployed per-unit body applied in
//! place.
//!
//! Every entry point takes the deployed [`CompiledFilter`], and every
//! block of every optimized method runs through [`UnitServer::run`] —
//! the same extract → score → decide → schedule body as trace
//! collection, [`filtered_schedule_pass`] and the `wts-serve` workers.
//! The session runs the paper's deployed operating point: the CPS list
//! scheduler, under [`HardThreshold`](DecisionPolicy::HardThreshold),
//! so a block is scheduled exactly when a rule fires on it, and is then
//! reordered in place by the schedule the body just produced. So a
//! compile's [`FilteredPass`] equals the direct pass over the same
//! program on every work channel, and the output program holds exactly
//! the served orders, by construction. The session compiles at block
//! scope.
//!
//! [`filtered_schedule_pass`]: wts_core::filtered_schedule_pass

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use wts_core::{CompiledFilter, DecisionPolicy, FilterKey, FilterStore, FilteredPass, ScopeUnit, UnitServer};
use wts_ir::Program;
use wts_machine::{MachineConfig, PipelineSim};
use wts_sched::SchedulePolicy;

/// A JIT compile session: holds the machine and a [`FilterStore`], and
/// compiles programs under a given filter — passed explicitly, or
/// deployed (and hot-swappable) in the store.
///
/// The session keeps its per-unit state warm between compiles: each
/// shard of a compile takes a [`UnitServer`] (scheduler scratch, outcome
/// and permute buffer) from the session's pool, creating one only when
/// the pool is empty, and returns it when the shard finishes. The pool
/// therefore never holds more servers than the most shards that ever
/// ran at once, and a session compiling one method per call schedules
/// on warm buffers from the second call on. A cloned session starts
/// with an empty pool of its own.
pub struct CompileSession<'m> {
    machine: &'m MachineConfig,
    store: Arc<FilterStore>,
    server_pool: Mutex<Vec<UnitServer<'m>>>,
}

impl Clone for CompileSession<'_> {
    fn clone(&self) -> Self {
        CompileSession { machine: self.machine, store: Arc::clone(&self.store), server_pool: Mutex::default() }
    }
}

impl fmt::Debug for CompileSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileSession")
            .field("machine", &self.machine)
            .field("store", &self.store)
            .field("pooled_servers", &self.pooled_servers())
            .finish()
    }
}

impl<'m> CompileSession<'m> {
    /// A session on `machine` with a fresh private [`FilterStore`].
    pub fn new(machine: &'m MachineConfig) -> CompileSession<'m> {
        CompileSession { machine, store: FilterStore::shared(), server_pool: Mutex::default() }
    }

    /// Re-seats the session on a shared [`FilterStore`] — typically the
    /// store an [`ExperimentRun`](wts_core::ExperimentRun) or a serving
    /// daemon publishes into, so filters trained there deploy here
    /// without copying.
    pub fn with_store(mut self, store: Arc<FilterStore>) -> CompileSession<'m> {
        self.store = store;
        self
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// The session's filter store.
    pub fn store(&self) -> &Arc<FilterStore> {
        &self.store
    }

    /// Compiles `program` under `filter`: every block gets features
    /// extracted and the filter consulted; selected blocks are list
    /// scheduled. Returns the (possibly reordered) program and the
    /// pass totals.
    ///
    /// The program's methods shard across `threads` scoped worker
    /// threads (`0` = one per available core, `1` = serial). Methods are
    /// compiled independently and reassembled in order, so the output
    /// program is identical for every thread count; only `pass_ns`
    /// varies.
    pub fn compile(&self, program: &Program, filter: &CompiledFilter, threads: usize) -> (Program, FilteredPass) {
        self.compile_where(program, filter, |_| true, threads)
    }

    /// The *adaptive-JIT* variant the paper discusses in §3.1: only
    /// methods the profile marks hot (peak block execution count at least
    /// `hot_cutoff`) go through the optimizing path at all; cold methods
    /// are left baseline-compiled (unscheduled, and unfiltered — the
    /// filter's cost is skipped too, and their blocks count only towards
    /// `total_blocks`).
    pub fn compile_adaptive(
        &self,
        program: &Program,
        filter: &CompiledFilter,
        hot_cutoff: u64,
    ) -> (Program, FilteredPass) {
        self.compile_where(
            program,
            filter,
            |m| m.blocks().iter().map(|b| b.exec_count()).max().unwrap_or(0) >= hot_cutoff,
            1,
        )
    }

    /// Compiles `program` under the filter deployed at `key` in the
    /// session's store, returning the program, the pass totals and the
    /// epoch of the snapshot the whole compile ran against (one snapshot
    /// is loaded up front, so a concurrent hot-swap never splits a
    /// compile across filter versions). Returns `None` when nothing is
    /// deployed under `key`.
    pub fn compile_stored(
        &self,
        program: &Program,
        key: &FilterKey,
        threads: usize,
    ) -> Option<(Program, FilteredPass, u64)> {
        let snapshot = self.store.get(key)?;
        let (out, totals) = self.compile(program, snapshot.compiled(), threads);
        Some((out, totals, snapshot.epoch()))
    }

    /// The compile body every entry point joins. Methods shard into
    /// contiguous chunks; each worker clones its chunk and runs every
    /// block of every optimized method through a [`UnitServer`] borrowed
    /// from the session's pool, applying each schedule in place. The chunks are reassembled in method order, so
    /// the result is identical whatever the thread count, and the pooled
    /// state never affects output.
    fn compile_where(
        &self,
        program: &Program,
        filter: &CompiledFilter,
        optimize_method: impl Fn(&wts_ir::Method) -> bool + Sync,
        threads: usize,
    ) -> (Program, FilteredPass) {
        let shards = wts_core::parallel::shard_map(program.methods(), threads, |slice| {
            let pooled = self.pool().pop();
            let mut server = pooled.unwrap_or_else(|| UnitServer::new(self.machine, SchedulePolicy::CriticalPath));
            let mut totals = FilteredPass::default();
            let mut compiled = slice.to_vec();
            for method in &mut compiled {
                if !optimize_method(method) {
                    totals.total_blocks += method.blocks().len();
                    continue;
                }
                for block in method.blocks_mut() {
                    if server.run(&ScopeUnit::of_block(block), filter, &DecisionPolicy::HardThreshold, &mut totals) {
                        server.apply_in_place(block);
                    }
                }
            }
            self.pool().push(server);
            (compiled, totals)
        });

        let mut out = Program::new(program.name());
        let mut totals = FilteredPass::default();
        for (compiled, shard_totals) in shards {
            for method in compiled {
                out.push_method(method);
            }
            totals.merge(&shard_totals);
        }
        (out, totals)
    }

    /// The server pool. Only pushes and pops run under the lock, so a
    /// compile that panicked elsewhere cannot leave it inconsistent.
    fn pool(&self) -> std::sync::MutexGuard<'_, Vec<UnitServer<'m>>> {
        self.server_pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of warm servers the session holds between compiles.
    fn pooled_servers(&self) -> usize {
        self.pool().len()
    }
}

/// Weighted application cycles of `program` under the detailed pipeline
/// simulator: `SIM(P) = Σ_b exec(b) · cycles(b)` (paper §4.2, with the
/// detailed model standing in for the real machine).
pub fn app_cycles(program: &Program, machine: &MachineConfig) -> u64 {
    let sim = PipelineSim::new(machine);
    program.iter_blocks().map(|(_, b)| b.exec_count() * sim.block_cycles(b)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suite;

    fn machine() -> MachineConfig {
        MachineConfig::ppc7410()
    }

    #[test]
    fn never_schedule_leaves_program_unchanged() {
        let m = machine();
        let suite = Suite::specjvm98(0.01);
        let p = suite.benchmarks()[0].program();
        let (out, stats) = CompileSession::new(&m).compile(p, &CompiledFilter::never(), 1);
        assert_eq!(&out, p);
        assert_eq!(stats.scheduled_blocks, 0);
        assert_eq!(stats.sched_work, 0);
        assert_eq!(stats.total_blocks, p.block_count());
    }

    #[test]
    fn always_schedule_touches_every_block_and_helps() {
        let m = machine();
        let suite = Suite::fp(0.02);
        let p = suite.benchmarks()[0].program();
        let (out, stats) = CompileSession::new(&m).compile(p, &CompiledFilter::always(), 1);
        assert_eq!(stats.scheduled_blocks, stats.total_blocks);
        out.validate().expect("scheduled program remains valid");
        // Predicted (cheap-model) time must not degrade; on an FP-heavy
        // benchmark it should strictly improve.
        let predicted = |program: &Program| {
            let cm = wts_machine::CostModel::new(&m);
            program.iter_blocks().map(|(_, b)| b.exec_count() * cm.block_cycles(b)).sum::<u64>()
        };
        assert!(predicted(&out) < predicted(p));
        // The detailed machine should agree directionally.
        assert!(app_cycles(&out, &m) <= app_cycles(p, &m));
    }

    #[test]
    fn filter_cost_structure() {
        let m = machine();
        let suite = Suite::specjvm98(0.01);
        let p = suite.benchmarks()[1].program();
        let session = CompileSession::new(&m);
        let (_, ls) = session.compile(p, &CompiledFilter::always(), 1);
        let (_, filtered) = session.compile(p, &CompiledFilter::size_threshold(8), 1);
        assert!(filtered.scheduled_blocks < ls.scheduled_blocks);
        assert!(filtered.scheduled_blocks > 0);
        assert!(filtered.pass_ns > 0);
    }

    #[test]
    fn sharded_compile_matches_serial() {
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        let session = CompileSession::new(&m);
        let filter = CompiledFilter::size_threshold(5);
        let (serial, serial_stats) = session.compile(p, &filter, 1);
        for threads in [0, 2, 5, 16] {
            let (sharded, stats) = session.compile(p, &filter, threads);
            assert_eq!(serial, sharded, "sharded compile ({threads} threads) must be identical");
            assert_eq!(stats.total_blocks, serial_stats.total_blocks);
            assert_eq!(stats.scheduled_blocks, serial_stats.scheduled_blocks);
        }
    }

    #[test]
    fn adaptive_compiles_only_hot_methods() {
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        let session = CompileSession::new(&m);
        let (full, full_stats) = session.compile(p, &CompiledFilter::always(), 1);
        let (adaptive, a_stats) = session.compile_adaptive(p, &CompiledFilter::always(), 100);
        assert!(a_stats.scheduled_blocks < full_stats.scheduled_blocks);
        assert!(a_stats.scheduled_blocks > 0, "some methods must be hot");
        // Adaptive keeps part of the benefit at a fraction of the cost.
        let base = app_cycles(p, &m);
        let full_cycles = app_cycles(&full, &m);
        let adaptive_cycles = app_cycles(&adaptive, &m);
        assert!(adaptive_cycles <= base);
        assert!(adaptive_cycles >= full_cycles);
    }

    #[test]
    fn adaptive_with_huge_cutoff_is_a_noop() {
        let m = machine();
        let suite = Suite::specjvm98(0.01);
        let p = suite.benchmarks()[1].program();
        let (out, stats) = CompileSession::new(&m).compile_adaptive(p, &CompiledFilter::always(), u64::MAX);
        assert_eq!(&out, p);
        assert_eq!(stats.scheduled_blocks, 0);
        assert_eq!(stats.pass_ns, 0, "cold methods skip the whole pass");
    }

    #[test]
    fn stored_compile_matches_the_direct_path_and_reports_the_epoch() {
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        let session = CompileSession::new(&m);
        // Train a real filter and deploy it in the session's store.
        let run =
            wts_core::Experiment::new(m.clone()).with_timing(wts_core::TimingMode::Deterministic).run(vec![p.clone()]);
        let filter = wts_core::train_filter(run.all_traces(), &run.train_config(0));
        let key = run.filter_key(0, run.learner());
        assert!(session.compile_stored(p, &key, 1).is_none(), "nothing deployed yet");
        session.store().swap(key.clone(), filter.clone());
        let (stored, stored_stats, epoch) = session.compile_stored(p, &key, 1).expect("deployed");
        assert_eq!(epoch, 1);
        let (direct, direct_stats) = session.compile(p, filter.compiled(), 1);
        assert_eq!(stored, direct, "store-deployed compile must match the explicit-filter path");
        assert_eq!(stored_stats.scheduled_blocks, direct_stats.scheduled_blocks);
        // Hot-swapping bumps the epoch the next compile reports.
        session.store().swap(key.clone(), filter);
        let (_, _, epoch2) = session.compile_stored(p, &key, 1).expect("still deployed");
        assert_eq!(epoch2, 2);
    }

    #[test]
    fn sessions_share_a_store_when_re_seated() {
        let m = machine();
        let store = FilterStore::shared();
        let a = CompileSession::new(&m).with_store(Arc::clone(&store));
        let b = CompileSession::new(&m).with_store(Arc::clone(&store));
        assert!(Arc::ptr_eq(a.store(), b.store()));
        assert!(!Arc::ptr_eq(CompileSession::new(&m).store(), a.store()), "default store is private");
    }

    /// A trained filter deployed in a fresh session, plus one-method
    /// programs with different register sets: generated jvm98 and FP
    /// methods interleaved with a hand-built method whose blocks touch
    /// high FPRs and condition and special registers, the second block
    /// reading registers only the first one defines.
    fn pool_fixture(m: &MachineConfig) -> (CompileSession<'_>, FilterKey, Vec<Program>) {
        use wts_ir::{BasicBlock, Inst, MemRef, MemSpace, Method, Opcode, Reg};
        let jvm = Suite::specjvm98(0.02);
        let fp = Suite::fp(0.02);
        let run = wts_core::Experiment::new(m.clone())
            .with_timing(wts_core::TimingMode::Deterministic)
            .run(vec![jvm.benchmarks()[0].program().clone()]);
        let key = run.filter_key(0, run.learner());
        let session = CompileSession::new(m);
        session.store().swap(key.clone(), wts_core::train_filter(run.all_traces(), &run.train_config(0)));

        let slot = |k| MemRef::slot(MemSpace::Heap, k);
        let mut shapes = Method::new(900, "register_shapes");
        shapes.push_block(BasicBlock::from_insts(
            0,
            vec![
                Inst::new(Opcode::Lfd).def(Reg::fpr(28)).use_(Reg::gpr(1)).mem(slot(0)),
                Inst::new(Opcode::Fmul).def(Reg::fpr(27)).use_(Reg::fpr(28)).use_(Reg::fpr(28)),
                Inst::new(Opcode::Cmp).def(Reg::cr(7)).use_(Reg::gpr(3)).use_(Reg::gpr(4)),
                Inst::new(Opcode::Mtspr).def(Reg::spr(5)).use_(Reg::gpr(3)),
                Inst::new(Opcode::Add).def(Reg::gpr(5)).use_(Reg::gpr(6)).use_(Reg::gpr(7)),
                Inst::new(Opcode::Bc).use_(Reg::cr(7)),
            ],
        ));
        shapes.push_block(BasicBlock::from_insts(
            1,
            vec![
                Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(28)).use_(Reg::fpr(2)),
                Inst::new(Opcode::Mfspr).def(Reg::gpr(8)).use_(Reg::spr(5)),
                Inst::new(Opcode::Add).def(Reg::gpr(9)).use_(Reg::gpr(8)).use_(Reg::gpr(8)),
                Inst::new(Opcode::Lwz).def(Reg::gpr(10)).use_(Reg::gpr(1)).mem(slot(8)),
                Inst::new(Opcode::Bc).use_(Reg::cr(7)),
            ],
        ));
        let one = |name: &str, method: &Method| {
            let mut p = Program::new(name);
            p.push_method(method.clone());
            p
        };
        let mut programs = vec![one("shapes", &shapes)];
        let (jp, fpp) = (jvm.benchmarks()[0].program(), fp.benchmarks()[0].program());
        for (a, b) in jp.methods().iter().zip(fpp.methods()).take(12) {
            programs.push(one(jp.name(), a));
            programs.push(one("shapes", &shapes));
            programs.push(one(fpp.name(), b));
        }
        (session, key, programs)
    }

    /// The output of a session that has never compiled before.
    fn fresh_stored(session: &CompileSession<'_>, p: &Program, key: &FilterKey) -> (Program, usize) {
        let fresh = CompileSession::new(session.machine).with_store(Arc::clone(session.store()));
        let (out, stats, _) = fresh.compile_stored(p, key, 1).expect("deployed");
        (out, stats.scheduled_blocks)
    }

    #[test]
    fn pooled_scratch_compiles_back_to_back_like_a_fresh_session() {
        let m = machine();
        let (session, key, programs) = pool_fixture(&m);
        for p in programs.iter().chain(&programs) {
            let (out, stats, _) = session.compile_stored(p, &key, 1).expect("deployed");
            assert_eq!((out, stats.scheduled_blocks), fresh_stored(&session, p, &key), "{}", p.name());
            // Every compile path draws on the same pool; always-schedule
            // puts every block of every shape through the warm server.
            let fresh = CompileSession::new(&m).compile(p, &CompiledFilter::always(), 1).0;
            assert_eq!(session.compile(p, &CompiledFilter::always(), 1).0, fresh, "{}", p.name());
        }
        assert_eq!(session.pooled_servers(), 1, "serial compiles reuse one server");
    }

    #[test]
    fn pooled_scratch_is_shared_safely_across_threads() {
        let m = machine();
        let (session, key, programs) = pool_fixture(&m);
        let expected: Vec<(Program, usize)> = programs.iter().map(|p| fresh_stored(&session, p, &key)).collect();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    let (session, key, programs) = (&session, &key, &programs);
                    s.spawn(move || {
                        (0..programs.len())
                            .cycle()
                            .skip(t)
                            .take(2 * programs.len())
                            .map(|k| {
                                let (out, stats, _) = session.compile_stored(&programs[k], key, 1).expect("deployed");
                                (k, (out, stats.scheduled_blocks))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for w in workers {
                for (k, got) in w.join().expect("worker") {
                    assert_eq!(got, expected[k], "{}", programs[k].name());
                }
            }
        });
        assert!((1..=2).contains(&session.pooled_servers()), "at most one server per concurrent caller");
        let whole = programs.iter().fold(Program::new("all"), |mut all, p| {
            all.push_method(p.methods()[0].clone());
            all
        });
        let (serial, _) = CompileSession::new(&m).compile(&whole, &CompiledFilter::always(), 1);
        assert_eq!(session.compile(&whole, &CompiledFilter::always(), 3).0, serial);
        assert!(session.pooled_servers() <= 3, "the pool never outgrows the widest compile");
    }

    #[test]
    fn a_cloned_session_starts_with_its_own_empty_pool() {
        let m = machine();
        let (session, key, programs) = pool_fixture(&m);
        session.compile_stored(&programs[1], &key, 1).expect("deployed");
        assert_eq!(session.pooled_servers(), 1);
        let twin = session.clone();
        assert!(Arc::ptr_eq(twin.store(), session.store()), "clones share the store");
        assert_eq!(twin.pooled_servers(), 0, "clones do not share servers");
        assert!(format!("{twin:?}").contains("pooled_servers: 0"));
        for p in &programs {
            assert_eq!(twin.compile_stored(p, &key, 1).map(|r| r.0), session.compile_stored(p, &key, 1).map(|r| r.0));
        }
        assert_eq!((session.pooled_servers(), twin.pooled_servers()), (1, 1));
    }

    /// The JIT runs the shared per-unit body, so a compile reports the
    /// direct pass's work channels and applies exactly the served orders.
    #[test]
    fn compile_equals_the_direct_pass_and_applies_the_served_orders() {
        use wts_core::{filtered_schedule_pass, TraceOptions};
        let (jvm, fp) = (Suite::specjvm98(0.02), Suite::fp(0.02));
        let programs = [jvm.benchmarks()[0].program(), fp.benchmarks()[0].program()];
        let opts = TraceOptions { threads: 1, ..TraceOptions::default() };
        for m in [MachineConfig::ppc7410(), MachineConfig::simple_scalar()] {
            let run = wts_core::Experiment::new(m.clone())
                .with_timing(wts_core::TimingMode::Deterministic)
                .run(vec![programs[0].clone()]);
            let filters = [
                CompiledFilter::always(),
                CompiledFilter::never(),
                CompiledFilter::size_threshold(5),
                wts_core::train_filter(run.all_traces(), &run.train_config(0)).compiled().clone(),
            ];
            let policy = &DecisionPolicy::HardThreshold;
            for compiled in &filters {
                let session = CompileSession::new(&m);
                for p in programs {
                    let label = format!("{} {} {}", m.name(), compiled.name(), p.name());
                    let (out, totals) = session.compile(p, compiled, 1);
                    let direct = filtered_schedule_pass(p, &m, compiled, policy, &opts);
                    assert_eq!(totals, FilteredPass { pass_ns: totals.pass_ns, ..direct }, "{label}");

                    let mut server = UnitServer::new(&m, SchedulePolicy::CriticalPath);
                    let mut served_totals = FilteredPass::default();
                    for ((_, input), (_, output)) in p.iter_blocks().zip(out.iter_blocks()) {
                        let served =
                            server.serve_block(input.insts(), input.exec_count(), compiled, policy, &mut served_totals);
                        let expected: Vec<_> = if served.decision {
                            served.order.iter().map(|&i| input.insts()[i as usize]).collect()
                        } else {
                            input.insts().to_vec()
                        };
                        assert_eq!(output.insts(), &expected[..], "{label}: block {:?}", input.id());
                    }
                }
            }
        }
    }

    #[test]
    fn exec_counts_weight_app_cycles() {
        let m = machine();
        let suite = Suite::specjvm98(0.01);
        let p = suite.benchmarks()[2].program();
        let total = app_cycles(p, &m);
        let unweighted: u64 = p.iter_blocks().map(|(_, b)| PipelineSim::new(&m).block_cycles(b)).sum();
        assert!(total > unweighted, "hot blocks must weigh more than cold ones");
    }
}
