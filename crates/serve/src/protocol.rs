//! The wire protocol: length-prefixed little-endian frames.
//!
//! The encoding reuses the `schedfilter-trace-bin-v1` idioms from
//! [`wts_core`]'s binary trace format — every variable-length section is
//! length-prefixed, every length is validated before it is trusted, and
//! decoding walks the payload through a bounds-checked [`BinCursor`] so
//! a truncated or hostile frame surfaces as a named
//! [`BinaryTraceError`] instead of a panic or garbage.
//!
//! # Frame layout
//!
//! Every frame is `u32` payload length (little-endian, at most
//! [`MAX_FRAME_BYTES`]) followed by the payload. The payload's first
//! byte is the frame kind:
//!
//! ```text
//! 1  batch request   u64 batch id · str benchmark · u32 method count · methods
//! 2  batch result    u64 batch id · u64 filter epoch · 5 × u64 pass totals
//!                    · u32 unit count · units
//! 3  busy (shed)     u64 batch id · u32 queue depth
//! 4  error           str detail
//! ```
//!
//! where `str` is `u32` length + UTF-8 bytes, a method is
//!
//! ```text
//! u32 id · str name · u32 block count ·
//!   blocks: u32 id · u64 exec count · u32 inst count ·
//!     insts: u16 opcode · u8 hazard bits ·
//!            u8 def count  · defs:  u8 class · u16 index ·
//!            u8 use count  · uses:  u8 class · u16 index ·
//!            u8 mem tag (0 none · 1 slot + u8 space + u32 slot
//!                        · 2 unknown + u8 space) ·
//!            u8 imm flag   · i64 when set
//! ```
//!
//! with at most 8192 instructions per method over all its blocks, a
//! register index below [`Reg::INDEX_LIMIT`], and a memory reference on
//! exactly the loads and stores; a served unit is
//! `u8 decision`, then — only when scheduled —
//! `u32 order length · u32 × order · u64 cycles before · u64 cycles
//! after`. A skipped unit is the single decision byte.

use std::io::{self, IoSlice, Read, Write};
use wts_core::{BinCursor, BinaryTraceError, FilteredPass, ServedUnit};
use wts_ir::{BasicBlock, Hazards, Inst, MemRef, MemSpace, Method, Opcode, Reg, RegClass, RegList};

/// Hard cap on one frame's payload: larger length prefixes are rejected
/// before any allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Cap on one method's instructions, over all its blocks. Any unit the
/// server schedules (a block, or a superblock trace of consecutive
/// blocks) lies inside one method, and its dependence graph holds one
/// successor bit row per instruction, so the cap bounds a graph at
/// 8 MiB. The generated suites' largest method has a few hundred
/// instructions.
const MAX_METHOD_INSTS: usize = 8192;

const KIND_BATCH_REQUEST: u8 = 1;
const KIND_BATCH_RESULT: u8 = 2;
const KIND_BUSY: u8 = 3;
const KIND_ERROR: u8 = 4;

/// One decoded client request: schedule these methods as one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Client-chosen id echoed in the response, so a pipelining client
    /// can match out-of-order results.
    pub batch_id: u64,
    /// Benchmark name the served units are recorded under when the
    /// retrainer folds them into the training set.
    pub benchmark: String,
    /// The compilation units to schedule.
    pub methods: Vec<Method>,
}

/// One completed batch: which filter version decided it, and what it
/// produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Echo of [`BatchRequest::batch_id`].
    pub batch_id: u64,
    /// The [`FilterSnapshot`](wts_core::FilterSnapshot) epoch every unit
    /// in this batch was decided by — a batch is never split across a
    /// hot swap.
    pub epoch: u64,
    /// The batch's pass totals, bit-identical to running
    /// [`wts_core::filtered_schedule_pass`] over the same methods.
    pub totals: FilteredPass,
    /// Per-unit outcomes, in method-then-unit order.
    pub units: Vec<ServedUnit>,
}

/// Every frame the server can send back.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The batch was scheduled.
    Batch(BatchResult),
    /// The batch was shed: the bounded job queue was full. The client
    /// owns the retry policy.
    Busy {
        /// Echo of the rejected request's id.
        batch_id: u64,
        /// The queue bound that was hit.
        queue_depth: u32,
    },
    /// The request could not be decoded; the connection is closed after
    /// this frame.
    Error {
        /// Human-readable diagnosis.
        detail: String,
    },
}

// ---------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame, prefix and payload in one vectored
/// write where the writer takes it whole.
///
/// # Errors
///
/// Propagates the underlying I/O error; rejects payloads over
/// [`MAX_FRAME_BYTES`] with [`io::ErrorKind::InvalidInput`], and a
/// writer that accepts zero bytes with [`io::ErrorKind::WriteZero`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds cap", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).expect("checked against MAX_FRAME_BYTES above");
    // One write per frame, without copying the payload behind its
    // prefix: under `TCP_NODELAY` a separate prefix write is a segment of
    // its own, and a second wake-up for the receiver.
    let header = len.to_le_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "the writer took no bytes of the frame")),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one length-prefixed frame into a fresh buffer; `Ok(None)` on a
/// clean EOF at a frame boundary.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends mid-frame,
/// [`io::ErrorKind::InvalidData`] when the length prefix exceeds
/// [`MAX_FRAME_BYTES`], and any error of the reader.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Reads one length-prefixed frame into `payload`, replacing its
/// contents and reusing its allocation; `Ok(false)` on a clean EOF at a
/// frame boundary. Reads as many times as the reader needs, so wrap a
/// socket in a [`BufReader`](std::io::BufReader) to take each frame in
/// as few reads as it arrived in.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends mid-frame,
/// [`io::ErrorKind::InvalidData`] when the length prefix exceeds
/// [`MAX_FRAME_BYTES`] (checked before `payload` grows), and any
/// underlying I/O error otherwise. `payload` grows with the bytes that
/// arrive, not with the prefix's claim, so a peer that sends a header
/// and stalls holds no more memory than it sent.
pub(crate) fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended inside a frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let claim = u32::from_le_bytes(len_buf);
    let len = claim as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame claims {len} bytes, cap is {MAX_FRAME_BYTES}"),
        ));
    }
    payload.clear();
    r.take(u64::from(claim)).read_to_end(payload)?;
    if payload.len() < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended inside a frame payload"));
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&u32::try_from(s.len()).expect("string length fits u32").to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_regs(out: &mut Vec<u8>, regs: &[Reg]) {
    out.push(u8::try_from(regs.len()).expect("RegList::CAPACITY fits u8"));
    for r in regs {
        out.push(class_index(r.class()));
        out.extend_from_slice(&r.index().to_le_bytes());
    }
}

fn class_index(class: RegClass) -> u8 {
    u8::try_from(RegClass::ALL.iter().position(|&c| c == class).expect("RegClass::ALL is exhaustive"))
        .expect("RegClass::ALL fits u8")
}

fn space_index(space: MemSpace) -> u8 {
    match space {
        MemSpace::Stack => 0,
        MemSpace::Heap => 1,
        MemSpace::Static => 2,
    }
}

fn hazard_bits(h: Hazards) -> u8 {
    let mut bits = 0u8;
    for (bit, flag) in hazard_flags() {
        if h.contains(flag) {
            bits |= bit;
        }
    }
    bits
}

fn hazard_flags() -> [(u8, Hazards); 4] {
    [(1, Hazards::PEI), (2, Hazards::GC_POINT), (4, Hazards::THREAD_SWITCH), (8, Hazards::YIELD)]
}

fn put_inst(out: &mut Vec<u8>, inst: &Inst) {
    out.extend_from_slice(&u16::try_from(inst.opcode().index()).expect("opcode table fits u16").to_le_bytes());
    out.push(hazard_bits(inst.hazards()));
    put_regs(out, inst.defs());
    put_regs(out, inst.uses());
    match inst.mem_ref() {
        None => out.push(0),
        Some(m) => match m.slot_id() {
            Some(slot) => {
                out.push(1);
                out.push(space_index(m.space()));
                out.extend_from_slice(&slot.to_le_bytes());
            }
            None => {
                out.push(2);
                out.push(space_index(m.space()));
            }
        },
    }
    match inst.immediate() {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn put_method(out: &mut Vec<u8>, method: &Method) {
    out.extend_from_slice(&method.id().0.to_le_bytes());
    put_str(out, method.name());
    out.extend_from_slice(&u32::try_from(method.blocks().len()).expect("block count fits u32").to_le_bytes());
    for block in method.blocks() {
        out.extend_from_slice(&block.id().0.to_le_bytes());
        out.extend_from_slice(&block.exec_count().to_le_bytes());
        out.extend_from_slice(&u32::try_from(block.insts().len()).expect("inst count fits u32").to_le_bytes());
        for inst in block.insts() {
            put_inst(out, inst);
        }
    }
}

/// Encodes a batch request payload (kind 1).
pub fn encode_batch_request(batch_id: u64, benchmark: &str, methods: &[Method]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + methods.len() * 256);
    out.push(KIND_BATCH_REQUEST);
    out.extend_from_slice(&batch_id.to_le_bytes());
    put_str(&mut out, benchmark);
    out.extend_from_slice(&u32::try_from(methods.len()).expect("method count fits u32").to_le_bytes());
    for m in methods {
        put_method(&mut out, m);
    }
    out
}

/// Encodes any server response payload (kinds 2–4).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match resp {
        Response::Batch(batch) => {
            out.push(KIND_BATCH_RESULT);
            out.extend_from_slice(&batch.batch_id.to_le_bytes());
            out.extend_from_slice(&batch.epoch.to_le_bytes());
            for v in [
                batch.totals.total_blocks as u64,
                batch.totals.scheduled_blocks as u64,
                batch.totals.conditions_evaluated,
                batch.totals.extraction_work,
                batch.totals.sched_work,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&u32::try_from(batch.units.len()).expect("unit count fits u32").to_le_bytes());
            for unit in &batch.units {
                out.push(u8::from(unit.decision));
                if unit.decision {
                    out.extend_from_slice(
                        &u32::try_from(unit.order.len()).expect("unit length fits u32").to_le_bytes(),
                    );
                    for &i in &unit.order {
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    out.extend_from_slice(&unit.cycles_before.to_le_bytes());
                    out.extend_from_slice(&unit.cycles_after.to_le_bytes());
                }
            }
        }
        Response::Busy { batch_id, queue_depth } => {
            out.push(KIND_BUSY);
            out.extend_from_slice(&batch_id.to_le_bytes());
            out.extend_from_slice(&queue_depth.to_le_bytes());
        }
        Response::Error { detail } => {
            out.push(KIND_ERROR);
            put_str(&mut out, detail);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn hostile(section: &'static str, detail: impl Into<String>) -> BinaryTraceError {
    BinaryTraceError::HostileHeader { section, detail: detail.into() }
}

/// Validates a claimed element count against the bytes actually present:
/// `count` elements of at least `min_bytes` each must fit in what
/// remains, so a hostile prefix cannot drive a huge allocation.
fn checked_count(
    cur: &BinCursor<'_>,
    count: u32,
    min_bytes: usize,
    section: &'static str,
) -> Result<usize, BinaryTraceError> {
    let count = count as usize;
    if count.saturating_mul(min_bytes) > cur.remaining() {
        return Err(hostile(section, format!("claims {count} entries but only {} bytes remain", cur.remaining())));
    }
    Ok(count)
}

fn take_str<'a>(cur: &mut BinCursor<'a>, section: &'static str) -> Result<&'a str, BinaryTraceError> {
    let len = cur.u32(section)? as usize;
    if len > cur.remaining() {
        return Err(hostile(section, format!("claims {len} bytes but only {} remain", cur.remaining())));
    }
    cur.str(len, section)
}

fn take_reg(cur: &mut BinCursor<'_>, section: &'static str) -> Result<Reg, BinaryTraceError> {
    let class = cur.u8(section)? as usize;
    let index = cur.u16(section)?;
    let class =
        *RegClass::ALL.get(class).ok_or_else(|| hostile(section, format!("register class {class} out of range")))?;
    // The scan and issue tables are dense over register indices; a
    // larger index would panic a debug build and grow every table that
    // sees it for the thread's life.
    if index >= Reg::INDEX_LIMIT {
        return Err(hostile(section, format!("register index {index} is not below {}", Reg::INDEX_LIMIT)));
    }
    Ok(Reg::new(class, index))
}

/// Reads an operand list's register count, checked against the operand
/// capacity before any register is read; the registers follow.
fn take_reg_count(cur: &mut BinCursor<'_>, section: &'static str) -> Result<usize, BinaryTraceError> {
    let count = cur.u8(section)? as usize;
    if count > RegList::CAPACITY {
        return Err(hostile(
            section,
            format!("{count} registers exceed the operand capacity of {}", RegList::CAPACITY),
        ));
    }
    Ok(count)
}

fn take_space(cur: &mut BinCursor<'_>, section: &'static str) -> Result<MemSpace, BinaryTraceError> {
    match cur.u8(section)? {
        0 => Ok(MemSpace::Stack),
        1 => Ok(MemSpace::Heap),
        2 => Ok(MemSpace::Static),
        n => Err(hostile(section, format!("memory space {n} out of range"))),
    }
}

fn take_inst(cur: &mut BinCursor<'_>) -> Result<Inst, BinaryTraceError> {
    const SECTION: &str = "instruction";
    let op = cur.u16(SECTION)? as usize;
    let op = *Opcode::ALL.get(op).ok_or_else(|| hostile(SECTION, format!("opcode {op} out of range")))?;
    let bits = cur.u8(SECTION)?;
    if bits & !0b1111 != 0 {
        return Err(hostile(SECTION, format!("unknown hazard bits {bits:#04x}")));
    }
    let mut hazards = Hazards::NONE;
    for (bit, flag) in hazard_flags() {
        if bits & bit != 0 {
            hazards = hazards.union(flag);
        }
    }
    // Registers go straight into the instruction's inline operand lists.
    let mut inst = Inst::new(op);
    for _ in 0..take_reg_count(cur, SECTION)? {
        inst = inst.def(take_reg(cur, SECTION)?);
    }
    for _ in 0..take_reg_count(cur, SECTION)? {
        inst = inst.use_(take_reg(cur, SECTION)?);
    }
    inst = match cur.u8(SECTION)? {
        0 => inst,
        1 => {
            let space = take_space(cur, SECTION)?;
            inst.mem(MemRef::slot(space, cur.u32(SECTION)?))
        }
        2 => inst.mem(MemRef::unknown(take_space(cur, SECTION)?)),
        n => return Err(hostile(SECTION, format!("memory tag {n} out of range"))),
    };
    // The dependence scan and the issue model read a memory reference on
    // exactly the loads and stores (the IR's `validate` rule); any other
    // pairing panics the scan or lets the scheduler issue a unit against
    // a stale store completion.
    if op.is_memory() != inst.mem_ref().is_some() {
        let has = if op.is_memory() { "no" } else { "a" };
        return Err(hostile(SECTION, format!("opcode {op} with {has} memory reference")));
    }
    if !hazards.is_none() {
        inst = inst.hazard(hazards);
    }
    inst = match cur.u8(SECTION)? {
        0 => inst,
        1 => inst.imm(cur.i64(SECTION)?),
        n => return Err(hostile(SECTION, format!("immediate flag {n} out of range"))),
    };
    Ok(inst)
}

fn take_method(cur: &mut BinCursor<'_>) -> Result<Method, BinaryTraceError> {
    const SECTION: &str = "method";
    let id = cur.u32(SECTION)?;
    let name = take_str(cur, SECTION)?;
    let block_count = cur.u32(SECTION)?;
    // A block is at least id + exec count + inst count = 16 bytes.
    let block_count = checked_count(cur, block_count, 16, "block table")?;
    let mut method = Method::new(id, name);
    let mut method_insts = 0usize;
    for _ in 0..block_count {
        let block_id = cur.u32("block")?;
        let exec_count = cur.u64("block")?;
        let inst_count = cur.u32("block")?;
        // The smallest instruction is opcode + hazards + two empty
        // operand lists + mem tag + imm flag = 7 bytes.
        let inst_count = checked_count(cur, inst_count, 7, "instruction table")?;
        method_insts += inst_count;
        if method_insts > MAX_METHOD_INSTS {
            return Err(hostile(
                "instruction table",
                format!("method {id} holds more than {MAX_METHOD_INSTS} instructions"),
            ));
        }
        let mut insts = Vec::with_capacity(inst_count);
        for _ in 0..inst_count {
            insts.push(take_inst(cur)?);
        }
        let mut block = BasicBlock::from_insts(block_id, insts);
        block.set_exec_count(exec_count);
        method.push_block(block);
    }
    Ok(method)
}

fn expect_drained(cur: &BinCursor<'_>) -> Result<(), BinaryTraceError> {
    if cur.remaining() != 0 {
        return Err(hostile("frame", format!("{} trailing bytes after the payload", cur.remaining())));
    }
    Ok(())
}

/// Decodes a batch request payload (kind 1).
///
/// # Errors
///
/// [`BinaryTraceError`] naming the malformed section: wrong kind tag,
/// truncation, an out-of-range opcode/register/space/tag, a memory
/// reference on an opcode that is not a load or store (or a load or
/// store without one), an over-long method, a length prefix larger than
/// the bytes present, or trailing bytes.
pub fn decode_batch_request(payload: &[u8]) -> Result<BatchRequest, BinaryTraceError> {
    let mut cur = BinCursor::new(payload);
    let kind = cur.u8("frame kind")?;
    if kind != KIND_BATCH_REQUEST {
        return Err(hostile("frame kind", format!("expected a batch request (1), got {kind}")));
    }
    let batch_id = cur.u64("batch header")?;
    let benchmark = take_str(&mut cur, "batch header")?.to_string();
    let method_count = cur.u32("batch header")?;
    // A method is at least id + name length + block count = 12 bytes.
    let method_count = checked_count(&cur, method_count, 12, "method table")?;
    let mut methods = Vec::with_capacity(method_count);
    for _ in 0..method_count {
        methods.push(take_method(&mut cur)?);
    }
    expect_drained(&cur)?;
    Ok(BatchRequest { batch_id, benchmark, methods })
}

/// Decodes any server response payload (kinds 2–4).
///
/// # Errors
///
/// [`BinaryTraceError`] naming the malformed section, as in
/// [`decode_batch_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, BinaryTraceError> {
    let mut cur = BinCursor::new(payload);
    let kind = cur.u8("frame kind")?;
    let resp = match kind {
        KIND_BATCH_RESULT => {
            let batch_id = cur.u64("result header")?;
            let epoch = cur.u64("result header")?;
            let totals = FilteredPass {
                total_blocks: usize::try_from(cur.u64("pass totals")?)
                    .map_err(|_| hostile("pass totals", "total_blocks does not fit usize"))?,
                scheduled_blocks: usize::try_from(cur.u64("pass totals")?)
                    .map_err(|_| hostile("pass totals", "scheduled_blocks does not fit usize"))?,
                conditions_evaluated: cur.u64("pass totals")?,
                extraction_work: cur.u64("pass totals")?,
                sched_work: cur.u64("pass totals")?,
            };
            let unit_count = cur.u32("unit table")?;
            let unit_count = checked_count(&cur, unit_count, 1, "unit table")?;
            let mut units = Vec::with_capacity(unit_count);
            for _ in 0..unit_count {
                let decision = match cur.u8("unit")? {
                    0 => false,
                    1 => true,
                    n => return Err(hostile("unit", format!("decision byte {n} out of range"))),
                };
                if !decision {
                    units.push(ServedUnit::default());
                    continue;
                }
                let order_len = cur.u32("unit order")?;
                let order_len = checked_count(&cur, order_len, 4, "unit order")?;
                // Sized up front, like every table decoded here: a
                // collect through `Result` cannot see the length and
                // grows by doubling, and a client may keep what it
                // decodes.
                let mut order = Vec::with_capacity(order_len);
                for _ in 0..order_len {
                    order.push(cur.u32("unit order")?);
                }
                let cycles_before = cur.u64("unit cycles")?;
                let cycles_after = cur.u64("unit cycles")?;
                units.push(ServedUnit { decision, order, cycles_before, cycles_after });
            }
            Response::Batch(BatchResult { batch_id, epoch, totals, units })
        }
        KIND_BUSY => Response::Busy { batch_id: cur.u64("busy")?, queue_depth: cur.u32("busy")? },
        KIND_ERROR => Response::Error { detail: take_str(&mut cur, "error")?.to_string() },
        n => return Err(hostile("frame kind", format!("expected a response (2-4), got {n}"))),
    };
    expect_drained(&cur)?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_methods() -> (String, Vec<Method>) {
        let program = wts_core::testutil::learnable_suite(2).remove(0);
        (program.name().to_string(), program.methods().to_vec())
    }

    #[test]
    fn requests_round_trip_exactly() {
        let (benchmark, methods) = suite_methods();
        let payload = encode_batch_request(7, &benchmark, &methods);
        let decoded = decode_batch_request(&payload).expect("round trip");
        assert_eq!(decoded.batch_id, 7);
        assert_eq!(decoded.benchmark, benchmark);
        assert_eq!(decoded.methods, methods);
    }

    #[test]
    fn every_operand_shape_round_trips() {
        let mut insts = vec![
            Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::fpr(2)).use_(Reg::cr(0)).use_(Reg::lr()),
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).mem(MemRef::slot(MemSpace::Static, 9)).imm(-4),
            Inst::new(Opcode::Stw).use_(Reg::gpr(3)).mem(MemRef::unknown(MemSpace::Heap)),
            Inst::new(Opcode::Li).def(Reg::gpr(4)).imm(i64::MIN),
        ];
        for (bit, flag) in hazard_flags() {
            insts.push(Inst::new(Opcode::Bl).hazard(flag.union(Hazards::PEI)));
            assert_eq!(hazard_bits(flag), bit);
        }
        let mut method = Method::new(41, "shapes");
        let mut block = BasicBlock::from_insts(3, insts);
        block.set_exec_count(u64::MAX);
        method.push_block(block);
        let payload = encode_batch_request(u64::MAX, "hazard/üñïçødé", &[method.clone()]);
        let decoded = decode_batch_request(&payload).expect("round trip");
        assert_eq!(decoded.methods, vec![method]);
        assert_eq!(decoded.benchmark, "hazard/üñïçødé");
    }

    #[test]
    fn responses_round_trip_exactly() {
        let batch = BatchResult {
            batch_id: 3,
            epoch: 12,
            totals: FilteredPass {
                total_blocks: 5,
                scheduled_blocks: 2,
                conditions_evaluated: 9,
                extraction_work: 70,
                sched_work: 431,
            },
            units: vec![
                ServedUnit { decision: true, order: vec![2, 0, 1], cycles_before: 9, cycles_after: 7 },
                ServedUnit::default(),
            ],
        };
        for resp in [
            Response::Batch(batch),
            Response::Busy { batch_id: 8, queue_depth: 64 },
            Response::Error { detail: "nope".to_string() },
        ] {
            let decoded = decode_response(&encode_response(&resp)).expect("round trip");
            assert_eq!(decoded, resp);
            if let Response::Batch(b) = &decoded {
                for unit in &b.units {
                    assert_eq!(unit.order.capacity(), unit.order.len(), "a decoded order is sized exactly");
                }
            }
        }
    }

    #[test]
    fn hostile_payloads_are_diagnosed_not_trusted() {
        let (benchmark, methods) = suite_methods();
        let good = encode_batch_request(1, &benchmark, &methods);

        // Truncation anywhere in the payload is an error, never a panic.
        for cut in [0, 1, 8, good.len() / 2, good.len() - 1] {
            assert!(decode_batch_request(&good[..cut]).is_err(), "truncated at {cut}");
        }

        // A method count promising more data than the frame holds is
        // rejected before any allocation happens. The count sits after
        // kind (1), batch id (8) and the length-prefixed benchmark name.
        let count_at = 1 + 8 + 4 + benchmark.len();
        let mut hostile_count = good.clone();
        hostile_count[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_batch_request(&hostile_count).expect_err("hostile count");
        assert!(matches!(err, BinaryTraceError::HostileHeader { .. }), "{err}");

        // Trailing bytes are an error: a frame is exactly one message.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_batch_request(&trailing).is_err());

        // The wrong kind tag never decodes as the wrong message.
        assert!(decode_response(&good).is_err());
        assert!(decode_batch_request(&encode_response(&Response::Busy { batch_id: 0, queue_depth: 1 })).is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_oversized_claims() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").expect("write");
        write_frame(&mut wire, b"").expect("write");
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).expect("frame 1").as_deref(), Some(&b"abc"[..]));
        assert_eq!(read_frame(&mut r).expect("frame 2").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).expect("eof"), None, "clean EOF at a frame boundary");

        let mut huge = Vec::from((u32::try_from(MAX_FRAME_BYTES).expect("cap fits u32") + 1).to_le_bytes());
        huge.extend_from_slice(b"xx");
        assert_eq!(read_frame(&mut &huge[..]).expect_err("cap").kind(), io::ErrorKind::InvalidData);
        let mut buf = Vec::new();
        assert_eq!(read_frame_into(&mut &huge[..], &mut buf).expect_err("cap").kind(), io::ErrorKind::InvalidData);
        assert_eq!(buf.capacity(), 0, "the cap is checked before the buffer grows");

        let torn = [3u8, 0];
        assert_eq!(read_frame(&mut &torn[..]).expect_err("torn header").kind(), io::ErrorKind::UnexpectedEof);

        // A claim at the cap followed by 10 bytes holds about 10 bytes.
        let mut stalled = Vec::from(u32::try_from(MAX_FRAME_BYTES).expect("cap fits u32").to_le_bytes());
        stalled.extend_from_slice(&[7; 10]);
        let err = read_frame_into(&mut &stalled[..], &mut buf).expect_err("torn payload");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() < 1 << 20, "{} bytes held after 10 arrived", buf.capacity());
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        /// Takes every slice whole, as one call (a socket's `writev`).
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let total = bufs.iter().map(|b| b.len()).sum();
            self.writes.push(total);
            for b in bufs {
                self.bytes.extend_from_slice(b);
            }
            Ok(total)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A writer that accepts one byte per call, vectored or not.
    #[derive(Default)]
    struct ByteWriter(Vec<u8>);

    impl Write for ByteWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match buf.first() {
                Some(&b) => {
                    self.0.push(b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_survive_a_writer_that_takes_one_byte_per_call() {
        let (benchmark, methods) = suite_methods();
        let payloads = [encode_batch_request(5, &benchmark, &methods), b"z".to_vec(), Vec::new()];
        let mut one_byte = ByteWriter::default();
        let mut whole = Vec::new();
        for payload in &payloads {
            write_frame(&mut one_byte, payload).expect("write");
            whole.extend_from_slice(&u32::try_from(payload.len()).expect("fits").to_le_bytes());
            whole.extend_from_slice(payload);
        }
        assert_eq!(one_byte.0, whole, "the wire bytes are the prefix, then the payload, frame after frame");
        let mut r = &one_byte.0[..];
        for payload in &payloads {
            assert_eq!(read_frame(&mut r).expect("frame").as_deref(), Some(&payload[..]));
        }
    }

    #[test]
    fn a_method_past_the_instruction_cap_is_hostile() {
        let add = Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2));
        let method = |sizes: &[usize]| {
            let mut m = Method::new(4, "long");
            for (id, &n) in (0u32..).zip(sizes) {
                m.push_block(BasicBlock::from_insts(id, vec![add; n]));
            }
            m
        };
        let at_cap = method(&[MAX_METHOD_INSTS - 1, 1]);
        let payload = encode_batch_request(1, "b", std::slice::from_ref(&at_cap));
        assert_eq!(decode_batch_request(&payload).expect("at the cap").methods, vec![at_cap]);
        for sizes in [&[MAX_METHOD_INSTS + 1][..], &[MAX_METHOD_INSTS, 1], &[1, 2, MAX_METHOD_INSTS]] {
            let err = decode_batch_request(&encode_batch_request(1, "b", &[method(sizes)])).expect_err("past the cap");
            assert!(matches!(err, BinaryTraceError::HostileHeader { .. }), "{err}");
            assert!(err.to_string().contains("more than 8192 instructions"), "{err}");
        }
    }

    #[test]
    fn a_register_index_beyond_the_dense_tables_is_hostile() {
        for reg in [Reg::gpr(Reg::INDEX_LIMIT), Reg::fpr(60000), Reg::spr(u16::MAX)] {
            for inst in [Inst::new(Opcode::Add).def(reg), Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(reg)] {
                let mut method = Method::new(1, "wide");
                method.push_block(BasicBlock::from_insts(0, vec![inst]));
                let err = decode_batch_request(&encode_batch_request(1, "b", &[method])).expect_err("hostile index");
                assert!(matches!(err, BinaryTraceError::HostileHeader { .. }), "{err}");
                assert!(err.to_string().contains("register index"), "{err}");
            }
        }
        let mut method = Method::new(1, "widest legal");
        let top = Reg::INDEX_LIMIT - 1;
        method
            .push_block(BasicBlock::from_insts(0, vec![Inst::new(Opcode::Add).def(Reg::cr(top)).use_(Reg::spr(top))]));
        let payload = encode_batch_request(1, "b", std::slice::from_ref(&method));
        assert_eq!(decode_batch_request(&payload).expect("legal").methods, vec![method]);
    }

    #[test]
    fn a_memory_reference_on_the_wrong_opcode_is_hostile() {
        let heap = MemRef::slot(MemSpace::Heap, 0);
        let cases = [
            (Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).mem(heap), "with a memory reference"),
            (Inst::new(Opcode::Stw).use_(Reg::gpr(1)).use_(Reg::gpr(2)), "with no memory reference"),
            (Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(2)), "with no memory reference"),
        ];
        for (inst, detail) in cases {
            let mut method = Method::new(1, "mismatched");
            let store = Inst::new(Opcode::Stw).use_(Reg::gpr(3)).use_(Reg::gpr(4)).mem(heap);
            method.push_block(BasicBlock::from_insts(0, vec![inst, store]));
            let err = decode_batch_request(&encode_batch_request(1, "b", &[method])).expect_err("hostile mem ref");
            assert!(matches!(err, BinaryTraceError::HostileHeader { .. }), "{err}");
            assert!(err.to_string().contains(detail), "{err}");
        }
    }

    #[test]
    fn each_frame_goes_out_in_one_write() {
        let (benchmark, methods) = suite_methods();
        let payloads = [
            encode_batch_request(5, &benchmark, &methods),
            encode_response(&Response::Busy { batch_id: 5, queue_depth: 8 }),
            Vec::new(),
        ];
        let mut w = CountingWriter::default();
        for payload in &payloads {
            write_frame(&mut w, payload).expect("write");
        }
        let lens: Vec<usize> = payloads.iter().map(|p| 4 + p.len()).collect();
        assert_eq!(w.writes, lens, "prefix and payload in one write per frame");
        let mut r = &w.bytes[..];
        for payload in &payloads {
            assert_eq!(read_frame(&mut r).expect("frame").as_deref(), Some(&payload[..]));
        }
    }

    /// A reader that hands out one byte per `read`.
    struct ByteReader<'a>(&'a [u8]);

    impl Read for ByteReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn frames_reassemble_from_one_byte_reads() {
        let (benchmark, methods) = suite_methods();
        let request = encode_batch_request(9, &benchmark, &methods);
        let mut wire = Vec::new();
        write_frame(&mut wire, &request).expect("write");
        write_frame(&mut wire, b"z").expect("write");
        let check = |r: &mut dyn Read| {
            let frame = read_frame(&mut &mut *r).expect("frame 1").expect("not EOF");
            assert_eq!(decode_batch_request(&frame).expect("decodes").methods, methods);
            assert_eq!(read_frame(&mut &mut *r).expect("frame 2").as_deref(), Some(&b"z"[..]));
            assert_eq!(read_frame(&mut &mut *r).expect("eof"), None, "clean EOF at a frame boundary");
        };
        check(&mut ByteReader(&wire));
        check(&mut io::BufReader::with_capacity(3, ByteReader(&wire)));

        // One reused buffer: the short frame after the long one must
        // come back exactly, with none of the long frame's bytes left.
        let check_into = |r: &mut dyn Read| {
            let mut buf = Vec::new();
            assert!(read_frame_into(&mut &mut *r, &mut buf).expect("frame 1"), "not EOF");
            assert_eq!(decode_batch_request(&buf).expect("decodes").methods, methods);
            assert!(read_frame_into(&mut &mut *r, &mut buf).expect("frame 2"), "not EOF");
            assert_eq!(buf, b"z", "no stale bytes from the longer frame");
            assert!(!read_frame_into(&mut &mut *r, &mut buf).expect("eof"), "clean EOF at a frame boundary");
        };
        check_into(&mut ByteReader(&wire));
        check_into(&mut io::BufReader::with_capacity(3, ByteReader(&wire)));
    }
}
