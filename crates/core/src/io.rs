//! Trace-file serialization.
//!
//! The paper's pipeline writes "into a trace file raw data for forming
//! instances" (§2.2) and contemplates shipping "tools to end users so
//! that they could develop their own training sets and retrain"
//! (footnote 4). This module is that interchange format: a
//! length-prefixed little-endian binary file (`schedfilter-trace-bin-v1`,
//! [`write_trace_binary`] / [`read_trace_binary`]) that round-trips
//! [`TraceRecord`]s exactly, wall-clock fields included, since they are
//! data about the traced run. Records are fixed-stride after the header,
//! built for large corpora: no float formatting or parsing, and the
//! record section can be walked (or mmapped) at a constant 224-byte
//! stride.

use crate::TraceRecord;
use wts_features::{FeatureKind, FeatureVector};
use wts_ir::{BlockId, MethodId};

/// An error produced while writing a trace file: a feature value that
/// is NaN or ±infinity, so the record would silently change meaning
/// when read back.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceWriteError {
    benchmark: String,
    feature: &'static str,
    value: f64,
}

impl TraceWriteError {
    /// The benchmark of the offending record.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }
}

impl std::fmt::Display for TraceWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "benchmark {:?}: feature {} is {}, which is not finite; every rule condition on a non-finite value \
             compares false, so the record would silently classify NS under any learned filter — fix the \
             extraction instead of serializing it",
            self.benchmark, self.feature, self.value
        )
    }
}

impl std::error::Error for TraceWriteError {}

/// Format magic opening every binary trace file (24 bytes, no
/// terminator). v1 carries the seventeen features (Table 1 plus the
/// trace shape) and the eight cycle / timing channels.
const BIN_MAGIC: &[u8; 24] = b"schedfilter-trace-bin-v1";

/// Fixed byte size of one binary record: benchmark index, method id,
/// block id, reserved word (16), exec count (8), seventeen `f64`
/// features (136), eight `u64` channels (64).
const BIN_RECORD_BYTES: usize = 16 + 8 + 8 * FeatureKind::COUNT + 8 * 8;

/// An error produced while reading a binary trace file. Every variant
/// names what was wrong and where, so a truncated download or a hostile
/// header surfaces as a diagnosis instead of a panic or garbage records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryTraceError {
    /// The file does not begin with the `schedfilter-trace-bin-v1` magic.
    BadMagic,
    /// The file ends in the middle of `section` (at byte `offset`).
    Truncated {
        /// Which part of the layout was cut short.
        section: &'static str,
        /// Byte offset where the reader ran out of input.
        offset: usize,
    },
    /// A header field is structurally invalid: wrong feature table,
    /// non-UTF-8 name, impossible count, trailing bytes.
    HostileHeader {
        /// Which part of the header failed validation.
        section: &'static str,
        /// What exactly was wrong.
        detail: String,
    },
    /// Record `index` (0-based) carries an invalid field.
    BadRecord {
        /// Index of the offending record.
        index: usize,
        /// What exactly was wrong.
        detail: String,
    },
}

impl std::fmt::Display for BinaryTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryTraceError::BadMagic => {
                write!(f, "bad magic: not a '{}' file", String::from_utf8_lossy(BIN_MAGIC))
            }
            BinaryTraceError::Truncated { section, offset } => {
                write!(f, "binary trace truncated in {section} at byte {offset}")
            }
            BinaryTraceError::HostileHeader { section, detail } => {
                write!(f, "invalid binary trace header ({section}): {detail}")
            }
            BinaryTraceError::BadRecord { index, detail } => {
                write!(f, "binary trace record {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for BinaryTraceError {}

/// Serializes records to the binary trace format.
///
/// Layout (all integers and floats little-endian):
///
/// ```text
/// magic            24 bytes  "schedfilter-trace-bin-v1"
/// feature count    u32       must equal 17
/// feature names    17 × (u16 length + UTF-8 bytes), in column order
/// benchmark count  u32
/// benchmark names  count × (u32 length + UTF-8 bytes)
/// record count     u64
/// records          count × 224 bytes, each:
///   benchmark index u32 · method id u32 · block id u32 · reserved u32 (0)
///   exec count u64 · 17 × feature f64 · 8 × channel u64
/// ```
///
/// Benchmark names are interned into the header table (first-appearance
/// order) so records are fixed-stride. Every string is length-prefixed,
/// so any UTF-8 name is fine.
///
/// # Errors
///
/// Returns a [`TraceWriteError`] when a feature value is NaN or
/// ±infinity: the record would round-trip but silently classify NS under
/// every learned filter.
pub fn write_trace_binary(records: &[TraceRecord]) -> Result<Vec<u8>, TraceWriteError> {
    for r in records {
        for k in FeatureKind::ALL {
            let value = r.features.get(k);
            if !value.is_finite() {
                return Err(TraceWriteError { benchmark: r.benchmark.clone(), feature: k.rule_name(), value });
            }
        }
    }

    // Intern benchmark names in first-appearance order (deterministic).
    let mut names: Vec<&str> = Vec::new();
    let mut index_of = std::collections::HashMap::new();
    let bench_index: Vec<u32> = records
        .iter()
        .map(|r| {
            *index_of.entry(r.benchmark.as_str()).or_insert_with(|| {
                names.push(r.benchmark.as_str());
                u32::try_from(names.len() - 1).expect("benchmark counts fit u32")
            })
        })
        .collect();

    let mut out =
        Vec::with_capacity(64 + names.iter().map(|n| n.len() + 4).sum::<usize>() + records.len() * BIN_RECORD_BYTES);
    out.extend_from_slice(BIN_MAGIC);
    out.extend_from_slice(&u32::try_from(FeatureKind::COUNT).expect("the vocabulary fits u32").to_le_bytes());
    for k in FeatureKind::ALL {
        let name = k.rule_name();
        out.extend_from_slice(&u16::try_from(name.len()).expect("feature names fit u16").to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&u32::try_from(names.len()).expect("benchmark counts fit u32").to_le_bytes());
    for name in &names {
        out.extend_from_slice(&u32::try_from(name.len()).expect("benchmark names fit u32").to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (r, &bi) in records.iter().zip(&bench_index) {
        out.extend_from_slice(&bi.to_le_bytes());
        out.extend_from_slice(&r.method.0.to_le_bytes());
        out.extend_from_slice(&r.block.0.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&r.exec_count.to_le_bytes());
        for k in FeatureKind::ALL {
            out.extend_from_slice(&r.features.get(k).to_le_bytes());
        }
        for v in [
            r.est_unsched,
            r.est_sched,
            r.hw_unsched,
            r.hw_sched,
            r.sched_ns,
            r.feature_ns,
            r.sched_work,
            r.feature_work,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(out)
}

/// Bounds-checked little-endian reader over a binary layout; every
/// failed read names the section that was cut short.
///
/// This is the decode half of the `schedfilter-trace-bin-v1` idiom —
/// length prefixes validated before use, truncation reported at the
/// offset where the claim broke down — shared by the trace reader and
/// the `wts-serve` wire protocol. The fixed-width accessors all route
/// through one private `take_array`, so the bounds check
/// happens exactly once per read and the slice-to-array conversion is
/// infallible by construction.
#[derive(Debug)]
pub struct BinCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinCursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> BinCursor<'a> {
        BinCursor { bytes, pos: 0 }
    }

    /// The current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads the next `len` bytes as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] naming `section` when
    /// fewer than `len` bytes remain (or `len` overflows the offset).
    pub fn take(&mut self, len: usize, section: &'static str) -> Result<&'a [u8], BinaryTraceError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(BinaryTraceError::Truncated { section, offset: self.pos })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads the next `N` bytes as a fixed-size array — one bounds
    /// check, no fallible slice conversion.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] naming `section` when
    /// fewer than `N` bytes remain.
    fn take_array<const N: usize>(&mut self, section: &'static str) -> Result<[u8; N], BinaryTraceError> {
        let end = self
            .pos
            .checked_add(N)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(BinaryTraceError::Truncated { section, offset: self.pos })?;
        let mut array = [0u8; N];
        array.copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(array)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] when the input is spent.
    pub fn u8(&mut self, section: &'static str) -> Result<u8, BinaryTraceError> {
        Ok(self.take_array::<1>(section)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] when fewer than 2 bytes remain.
    pub fn u16(&mut self, section: &'static str) -> Result<u16, BinaryTraceError> {
        Ok(u16::from_le_bytes(self.take_array(section)?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self, section: &'static str) -> Result<u32, BinaryTraceError> {
        Ok(u32::from_le_bytes(self.take_array(section)?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self, section: &'static str) -> Result<u64, BinaryTraceError> {
        Ok(u64::from_le_bytes(self.take_array(section)?))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] when fewer than 8 bytes remain.
    pub fn i64(&mut self, section: &'static str) -> Result<i64, BinaryTraceError> {
        Ok(i64::from_le_bytes(self.take_array(section)?))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] when fewer than 8 bytes remain.
    pub fn f64(&mut self, section: &'static str) -> Result<f64, BinaryTraceError> {
        Ok(f64::from_le_bytes(self.take_array(section)?))
    }

    /// Reads `len` bytes as UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`BinaryTraceError::Truncated`] when fewer than `len`
    /// bytes remain, and [`BinaryTraceError::HostileHeader`] when the
    /// bytes are not valid UTF-8.
    pub fn str(&mut self, len: usize, section: &'static str) -> Result<&'a str, BinaryTraceError> {
        std::str::from_utf8(self.take(len, section)?)
            .map_err(|_| BinaryTraceError::HostileHeader { section, detail: "name is not valid UTF-8".to_string() })
    }
}

/// Parses a binary trace file written by [`write_trace_binary`].
///
/// # Errors
///
/// Returns a [`BinaryTraceError`] naming the failure: wrong magic, a
/// file cut short in any section (hostile length prefixes land here too
/// — a length running past the end of input is reported as truncation at
/// the offset where the claim broke down), a feature-name table that
/// does not match this build's seventeen columns, trailing bytes after
/// the last record, an out-of-table benchmark index, a nonzero reserved
/// word, or a non-finite / out-of-range feature value.
pub fn read_trace_binary(bytes: &[u8]) -> Result<Vec<TraceRecord>, BinaryTraceError> {
    if bytes.len() < BIN_MAGIC.len() || &bytes[..BIN_MAGIC.len()] != BIN_MAGIC {
        return Err(BinaryTraceError::BadMagic);
    }
    let mut cur = BinCursor::new(bytes);
    cur.take(BIN_MAGIC.len(), "magic")?;

    let feature_count = cur.u32("feature table")? as usize;
    if feature_count != FeatureKind::COUNT {
        return Err(BinaryTraceError::HostileHeader {
            section: "feature table",
            detail: format!("file declares {feature_count} features, this build has {}", FeatureKind::COUNT),
        });
    }
    for (i, kind) in FeatureKind::ALL.iter().enumerate() {
        let len = cur.u16("feature table")? as usize;
        let name = cur.str(len, "feature table")?;
        if name != kind.rule_name() {
            return Err(BinaryTraceError::HostileHeader {
                section: "feature table",
                detail: format!("feature column {i}: expected '{}', found '{name}'", kind.rule_name()),
            });
        }
    }

    let bench_count = cur.u32("benchmark table")? as usize;
    let mut benchmarks = Vec::with_capacity(bench_count.min(1024));
    for _ in 0..bench_count {
        let len = cur.u32("benchmark table")? as usize;
        benchmarks.push(cur.str(len, "benchmark table")?.to_string());
    }

    let record_count = cur.u64("record count")?;
    let body = bytes.len() - cur.pos;
    // A hostile count that does not even fit the address space is the
    // same header lie as one whose byte total overflows it.
    let needed = usize::try_from(record_count).ok().and_then(|c| c.checked_mul(BIN_RECORD_BYTES)).ok_or_else(|| {
        BinaryTraceError::HostileHeader {
            section: "record count",
            detail: format!("record count {record_count} overflows the address space"),
        }
    })?;
    if body < needed {
        return Err(BinaryTraceError::Truncated { section: "records", offset: cur.pos + body });
    }
    if body > needed {
        return Err(BinaryTraceError::HostileHeader {
            section: "records",
            detail: format!("{} trailing bytes after the last record", body - needed),
        });
    }

    let record_count = needed / BIN_RECORD_BYTES;
    let mut out = Vec::with_capacity(record_count);
    for index in 0..record_count {
        let bi = cur.u32("records")? as usize;
        let benchmark = benchmarks.get(bi).ok_or_else(|| BinaryTraceError::BadRecord {
            index,
            detail: format!("benchmark index {bi} out of table range (table has {})", benchmarks.len()),
        })?;
        let method = MethodId(cur.u32("records")?);
        let block = BlockId(cur.u32("records")?);
        let reserved = cur.u32("records")?;
        if reserved != 0 {
            return Err(BinaryTraceError::BadRecord {
                index,
                detail: format!("reserved word is {reserved:#x}, must be zero"),
            });
        }
        let exec_count = cur.u64("records")?;
        let mut values = [0.0f64; FeatureKind::COUNT];
        for (k, slot) in values.iter_mut().enumerate() {
            let v = cur.f64("records")?;
            let kind = FeatureKind::ALL[k];
            if !v.is_finite() {
                return Err(BinaryTraceError::BadRecord {
                    index,
                    detail: format!("non-finite feature {}: {v}", kind.rule_name()),
                });
            }
            if kind.is_count() && v < 0.0 {
                return Err(BinaryTraceError::BadRecord {
                    index,
                    detail: format!("feature {} is a count and cannot be negative: {v}", kind.rule_name()),
                });
            }
            if !kind.is_count() && !(0.0..=1.0).contains(&v) {
                return Err(BinaryTraceError::BadRecord {
                    index,
                    detail: format!("feature {} is a fraction and must lie in [0,1]: {v}", kind.rule_name()),
                });
            }
            *slot = v;
        }
        let est_unsched = cur.u64("records")?;
        let est_sched = cur.u64("records")?;
        let hw_unsched = cur.u64("records")?;
        let hw_sched = cur.u64("records")?;
        let sched_ns = cur.u64("records")?;
        let feature_ns = cur.u64("records")?;
        let sched_work = cur.u64("records")?;
        let feature_work = cur.u64("records")?;
        out.push(TraceRecord {
            benchmark: benchmark.clone(),
            method,
            block,
            exec_count,
            features: FeatureVector::from_values(values),
            est_unsched,
            est_sched,
            hw_unsched,
            hw_sched,
            sched_ns,
            feature_ns,
            sched_work,
            feature_work,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, unsched: u64, sched: u64) -> TraceRecord {
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::BbLen.index()] = 7.0;
        v[FeatureKind::Loads.index()] = 1.0 / 3.0; // non-terminating decimal
        TraceRecord {
            benchmark: bench.to_string(),
            method: MethodId(3),
            block: BlockId(9),
            exec_count: 42,
            features: FeatureVector::from_values(v),
            est_unsched: unsched,
            est_sched: sched,
            hw_unsched: unsched + 1,
            hw_sched: sched + 1,
            sched_ns: 1234,
            feature_ns: 56,
            sched_work: 99,
            feature_work: 7,
        }
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let records = vec![record("compress", 100, 80), record("jess", 10, 10), record("compress", 7, 7)];
        let bytes = write_trace_binary(&records).expect("finite features serialize");
        let back = read_trace_binary(&bytes).expect("own output must parse");
        assert_eq!(back, records);
        // Interned names: "compress" appears once in the header.
        let hits = bytes.windows(b"compress".len()).filter(|w| *w == b"compress").count();
        assert_eq!(hits, 1, "benchmark names are interned");
    }

    #[test]
    fn binary_empty_record_list_round_trips() {
        let bytes = write_trace_binary(&[]).unwrap();
        assert_eq!(read_trace_binary(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn binary_accepts_any_utf8_name() {
        // Length-prefixed strings make tabs and newlines legal.
        for name in ["tab\tseparated", "new\nline", "naïve-β"] {
            let records = vec![record(name, 9, 7)];
            let bytes = write_trace_binary(&records).unwrap();
            assert_eq!(read_trace_binary(&bytes).unwrap(), records, "{name:?}");
        }
    }

    #[test]
    fn binary_record_stride_is_fixed() {
        let one = write_trace_binary(&[record("a", 5, 4)]).unwrap();
        let two = write_trace_binary(&[record("a", 5, 4), record("a", 6, 5)]).unwrap();
        assert_eq!(two.len() - one.len(), BIN_RECORD_BYTES, "each extra record costs exactly one stride");
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert_eq!(read_trace_binary(b"nonsense"), Err(BinaryTraceError::BadMagic));
    }

    #[test]
    fn binary_rejects_truncation_in_every_section() {
        let full = write_trace_binary(&[record("bench", 5, 4)]).unwrap();
        // Chopping the file anywhere after the magic must produce a
        // *named* error — never a panic, never records.
        for len in BIN_MAGIC.len()..full.len() {
            let err = read_trace_binary(&full[..len]).expect_err("truncated file must not parse");
            match err {
                BinaryTraceError::Truncated { .. } | BinaryTraceError::HostileHeader { .. } => {}
                other => panic!("truncation at {len} produced {other:?}"),
            }
        }
    }

    #[test]
    fn binary_rejects_hostile_length_prefixes() {
        let mut bytes = write_trace_binary(&[record("bench", 5, 4)]).unwrap();
        // The benchmark-name length prefix sits right after the feature
        // table and the u32 benchmark count; claim 4 GiB of name.
        let name_len_at = bytes.windows(b"bench".len()).position(|w| w == b"bench").unwrap() - 4;
        bytes[name_len_at..name_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_trace_binary(&bytes).expect_err("hostile length must not parse");
        assert!(matches!(err, BinaryTraceError::Truncated { section: "benchmark table", .. }), "got {err:?}");
        assert!(err.to_string().contains("benchmark table"), "got: {err}");
    }

    #[test]
    fn binary_rejects_wrong_feature_table() {
        let good = write_trace_binary(&[record("a", 5, 4)]).unwrap();
        // Claim 16 features instead of 17.
        let mut wrong_count = good.clone();
        wrong_count[BIN_MAGIC.len()..BIN_MAGIC.len() + 4].copy_from_slice(&16u32.to_le_bytes());
        let err = read_trace_binary(&wrong_count).unwrap_err();
        assert!(matches!(err, BinaryTraceError::HostileHeader { section: "feature table", .. }), "got {err:?}");
        assert!(err.to_string().contains("16 features"), "got: {err}");
        // Rename a feature column in place (same length).
        let pos = good.windows(b"bbLen".len()).position(|w| w == b"bbLen").unwrap();
        let mut renamed = good.clone();
        renamed[pos..pos + 5].copy_from_slice(b"bbXXX");
        let err = read_trace_binary(&renamed).unwrap_err();
        assert!(err.to_string().contains("expected 'bbLen', found 'bbXXX'"), "got: {err}");
    }

    #[test]
    fn binary_rejects_trailing_bytes_and_bad_indices() {
        let good = write_trace_binary(&[record("a", 5, 4)]).unwrap();
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 3]);
        let err = read_trace_binary(&padded).unwrap_err();
        assert!(err.to_string().contains("3 trailing bytes"), "got: {err}");
        // Point the record at benchmark index 7 of a 1-entry table. The
        // first record starts right after the u64 record count.
        let mut bad_index = good.clone();
        let rec_at = good.len() - BIN_RECORD_BYTES;
        bad_index[rec_at..rec_at + 4].copy_from_slice(&7u32.to_le_bytes());
        let err = read_trace_binary(&bad_index).unwrap_err();
        assert!(matches!(err, BinaryTraceError::BadRecord { index: 0, .. }), "got {err:?}");
        assert!(err.to_string().contains("benchmark index 7"), "got: {err}");
        // A nonzero reserved word is named too.
        let mut bad_reserved = good;
        bad_reserved[rec_at + 12..rec_at + 16].copy_from_slice(&1u32.to_le_bytes());
        let err = read_trace_binary(&bad_reserved).unwrap_err();
        assert!(err.to_string().contains("reserved word"), "got: {err}");
    }

    #[test]
    fn binary_rejects_non_finite_and_out_of_range_features() {
        let good = write_trace_binary(&[record("a", 5, 4)]).unwrap();
        let rec_at = good.len() - BIN_RECORD_BYTES;
        let bblen_at = rec_at + 16 + 8 + 8 * FeatureKind::BbLen.index();
        for (hostile, what) in
            [(f64::NAN, "non-finite feature bbLen"), (f64::INFINITY, "non-finite"), (-7.0, "cannot be negative")]
        {
            let mut bad = good.clone();
            bad[bblen_at..bblen_at + 8].copy_from_slice(&hostile.to_le_bytes());
            let err = read_trace_binary(&bad).expect_err("hostile feature must not parse");
            assert!(err.to_string().contains(what), "{hostile}: got {err}");
        }
        // Fractions outside [0,1] are named as well.
        let loads_at = rec_at + 16 + 8 + 8 * FeatureKind::Loads.index();
        let mut bad = good.clone();
        bad[loads_at..loads_at + 8].copy_from_slice(&1.5f64.to_le_bytes());
        let err = read_trace_binary(&bad).unwrap_err();
        assert!(err.to_string().contains("must lie in [0,1]"), "got: {err}");
    }

    #[test]
    fn binary_writer_rejects_non_finite_features() {
        let mut r = record("photon", 5, 4);
        let mut v = [0.0; FeatureKind::COUNT];
        v[FeatureKind::BbLen.index()] = f64::INFINITY;
        r.features = FeatureVector::from_values(v);
        let err = write_trace_binary(&[r]).expect_err("non-finite feature must be rejected");
        assert_eq!(err.benchmark(), "photon");
        assert!(err.to_string().contains("not finite"), "got: {err}");
    }
}
