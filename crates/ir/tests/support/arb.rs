//! The one instruction generator every instruction-level property suite
//! draws from. Suites in other crates include it by path:
//!
//! ```text
//! #[path = "../../ir/tests/support/arb.rs"]
//! mod arb;
//! ```
//!
//! [`arb_inst`] covers every opcode, each with its operand shape, under
//! any hazard set. [`arb_block`] draws blocks dense in every dependence
//! source the graph, the issue model, the scheduler and the simulator
//! order by: ALU and FP chains, loads and stores over a few aliasing
//! slots, several dependence kinds stacked on one pair (four registers
//! per class), hazardous memory ops, divides contending for one unit,
//! serializing ops, mid-block branches and calls, and an optional
//! terminator. The shim has no `prop_oneof`, so every choice is a tuple
//! of draws mapped through a selector.

// Each suite uses part of this file.
#![allow(dead_code)]

use proptest::prelude::*;
use wts_ir::{Hazards, Inst, MemRef, MemSpace, Opcode, Reg};

/// Two register picks, a memory pick and a hazard pick.
type Operands = (u16, u16, u8, u8);

fn operands() -> impl Strategy<Value = Operands> {
    (0u16..4, 0u16..4, 0u8..6, 0u8..16)
}

/// Four registers per class, so most pairs share one. The high indices
/// put consecutive blocks on different rows of a dense register table.
fn gpr(i: u16) -> Reg {
    Reg::gpr([0, 1, 2, 29][usize::from(i)])
}

fn fpr(i: u16) -> Reg {
    Reg::fpr([0, 1, 2, 28][usize::from(i)])
}

/// Two heap slots, an unknown heap reference, a stack slot, an unknown
/// stack reference and a static slot: most pairs may alias, and a store
/// to one slot leaves a load of the other pending.
fn mem(m: u8) -> MemRef {
    match m {
        0 | 1 => MemRef::slot(MemSpace::Heap, u32::from(m)),
        2 => MemRef::unknown(MemSpace::Heap),
        3 => MemRef::slot(MemSpace::Stack, 0),
        4 => MemRef::unknown(MemSpace::Stack),
        _ => MemRef::slot(MemSpace::Static, 0),
    }
}

/// The hazard set whose flags are the low four bits of `bits`.
fn hazards(bits: u8) -> Hazards {
    [Hazards::PEI, Hazards::GC_POINT, Hazards::THREAD_SWITCH, Hazards::YIELD]
        .into_iter()
        .enumerate()
        .filter(|&(k, _)| bits >> k & 1 == 1)
        .fold(Hazards::NONE, |h, (_, flag)| h | flag)
}

/// `op` with the operands its kind takes, and the hazards the JIT
/// attaches to it on its own.
fn shape(op: Opcode, (a, b, m, _): Operands) -> Inst {
    let fp = op.is_float_unit() || matches!(op, Opcode::Lfs | Opcode::Lfd | Opcode::Stfs | Opcode::Stfd);
    let data = |i| if fp { fpr(i) } else { gpr(i) };
    let inst = Inst::new(op);
    match op {
        _ if op.is_load() => inst.def(data(a)).use_(gpr(b)).mem(mem(m)),
        _ if op.is_store() => inst.use_(data(a)).use_(gpr(b)).mem(mem(m)),
        Opcode::Li => inst.def(gpr(a)).imm(i64::from(b)),
        Opcode::Addi | Opcode::Rlwinm => inst.def(gpr(a)).use_(gpr(b)).imm(i64::from(a)),
        Opcode::Cmp | Opcode::Cmpl => inst.def(Reg::cr(a)).use_(gpr(a)).use_(gpr(b)),
        Opcode::Fcmpu => inst.def(Reg::cr(a)).use_(fpr(a)).use_(fpr(b)),
        Opcode::Fmadd => inst.def(fpr(a)).use_(fpr(a)).use_(fpr(b)).use_(fpr(b)),
        // spr0 is the link register and spr1 the count register.
        Opcode::Mtspr => inst.def(Reg::spr(a)).use_(gpr(b)),
        Opcode::Mfspr => inst.def(gpr(a)).use_(Reg::spr(b)),
        Opcode::Bc => inst.use_(Reg::cr(b)),
        Opcode::Bctr => inst.use_(Reg::ctr()),
        Opcode::Bl => inst.def(Reg::lr()).use_(gpr(b)),
        Opcode::Bctrl => inst.def(Reg::lr()).use_(Reg::ctr()),
        Opcode::Blr => inst.use_(Reg::lr()),
        Opcode::NullCheck | Opcode::BoundsCheck => inst.use_(gpr(a)).use_(gpr(b)).hazard(Hazards::PEI),
        Opcode::Tw => inst.use_(gpr(a)).use_(gpr(b)),
        Opcode::GcSafepoint => inst.hazard(Hazards::GC_POINT),
        Opcode::ThreadSwitchPoint => inst.hazard(Hazards::THREAD_SWITCH),
        Opcode::YieldPoint => inst.hazard(Hazards::YIELD | Hazards::GC_POINT | Hazards::THREAD_SWITCH),
        // `b`, `sync` and `isync` take no operands.
        _ if op.is_control() || op.is_system_unit() => inst,
        _ => inst.def(data(a)).use_(data(b)).use_(data(a)),
    }
}

/// Any opcode, with its operand shape; half of them carry any hazard set
/// on top.
pub fn arb_inst() -> impl Strategy<Value = Inst> {
    (prop::sample::select(Opcode::ALL.to_vec()), operands(), prop::bool::ANY)
        .prop_map(|(op, ops, flagged)| shape(op, ops).hazard(if flagged { hazards(ops.3) } else { Hazards::NONE }))
}

/// Blocks of at most `max` instructions. Bodies draw from a weighted
/// opcode list, and a quarter of their loads and stores are PEIs; three
/// blocks in four end in a terminator.
pub fn arb_block(max: usize) -> impl Strategy<Value = Vec<Inst>> {
    use Opcode::*;
    // Weighted by repetition.
    let body_ops = vec![
        Add, Add, Li, Mullw, Divw, Cmp, Fadd, Fmul, Fdiv, Lwz, Lwz, Lfd, Stw, Stw, Stfd, Mtspr, Mfspr, Sync, Isync, Bl,
        Bc, B, NullCheck, YieldPoint,
    ];
    let body = prop::collection::vec((prop::sample::select(body_ops), operands()), 0..max);
    let terminator = (prop::sample::select(vec![B, Bc, Bctr, Blr]), operands());
    (body, prop::option::of(terminator)).prop_map(|(body, terminator)| {
        let pei = |op: Opcode, ops: Operands| op.is_memory() && ops.3 % 4 == 0;
        body.into_iter()
            .map(|(op, ops)| if pei(op, ops) { shape(op, ops).hazard(Hazards::PEI) } else { shape(op, ops) })
            .chain(terminator.map(|(op, ops)| shape(op, ops)))
            .collect()
    })
}

/// The oracles' serializing predicate, kept apart from the machine
/// model's timing table: `sync`, `isync` and calls.
pub fn is_serializing(op: Opcode) -> bool {
    matches!(op, Opcode::Sync | Opcode::Isync) || op.is_call()
}

/// Fixed blocks that lead every replay sequence: a store, a long FP def
/// and a sync whose state must not survive into the next block, and the
/// epoch-leak case — one block defines `f28` and a later one reads it
/// without defining it, so it must see `f28` as ready at cycle 0.
pub fn leak_probes() -> Vec<Vec<Inst>> {
    let heap = MemRef::slot(MemSpace::Heap, 0);
    vec![
        vec![
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).use_(Reg::gpr(2)).mem(heap),
            Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(0)).use_(Reg::fpr(0)),
            Inst::new(Opcode::Sync),
        ],
        vec![
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).use_(Reg::gpr(4)).mem(heap),
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(3)).use_(Reg::gpr(3)),
        ],
        vec![
            Inst::new(Opcode::Lfd).def(Reg::fpr(28)).use_(Reg::gpr(1)).mem(MemRef::slot(MemSpace::Stack, 0)),
            Inst::new(Opcode::Fdiv).def(Reg::fpr(28)).use_(Reg::fpr(28)).use_(Reg::fpr(28)),
        ],
        vec![Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(28)).use_(Reg::fpr(2))],
    ]
}
