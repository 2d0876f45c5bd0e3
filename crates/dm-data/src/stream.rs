//! Record streaming: datasets as a schema header plus columnar batches.
//!
//! The paper requires that "the framework should allow the streaming of
//! data from a remote machine along with the capability to process the
//! data locally … particularly important when large volumes of data
//! cannot be easily migrated" (§3). This module provides the
//! transport-agnostic half: a dataset is decomposed into a
//! [`StreamHeader`] (schema, nominal domains, and the producer's
//! interned string table) followed by [`RecordBatch`]es — per-attribute
//! [`Column`] slices with validity bitmaps, the same layout as the
//! columnar [`Dataset`] engine, not the legacy row-major `NaN`
//! sentinel. Batches flow through crossbeam channels (or, serialised
//! with [`RecordBatch::to_bytes`], through the simulated network in
//! `dm-wsrf`) and are re-assembled or folded incrementally on the
//! consumer side.
//!
//! Receive-side hardening: every batch is validated against the stream
//! header before a single cell is applied — ragged buffers, mismatched
//! column kinds, out-of-domain nominal codes, dangling string-table
//! ids, non-finite numeric cells and negative or non-finite weights are
//! rejected with a [`DataError`] instead of panicking, silently
//! remapping values or reaching a kernel that assumes finite numbers. The header carries the producer's string
//! table and nominal domains precisely so interned ids replay losslessly
//! on the consumer (the consumer never re-derives them from its own
//! dictionary state).
//!
//! The serialised forms (`FSH1` header frames, `FSB1` batch frames) are
//! documented in DESIGN.md; [`RecordBatch::byte_len`] is exact — it
//! always equals `to_bytes().len()`, so the transport cost model charges
//! precisely the bytes that travel.

use crate::attribute::{Attribute, AttributeKind};
use crate::column::{Bitmap, Codes, Column};
use crate::dataset::Dataset;
use crate::error::{DataError, Result};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::ops::Range;

/// Magic prefix of a serialised [`StreamHeader`].
const HEADER_MAGIC: &[u8; 4] = b"FSH1";
/// Magic prefix of a serialised [`RecordBatch`].
const BATCH_MAGIC: &[u8; 4] = b"FSB1";

// ---------------------------------------------------------------------------
// Byte codec helpers (deliberately local: dm-data has no serialisation
// dependency, and the frame layout is part of the wire contract).
// ---------------------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Sequential reader over a serialised frame; errors are reported as
/// [`DataError::Parse`] with a frame-relative description.
struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    fn new(buf: &'a [u8]) -> FrameReader<'a> {
        FrameReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(DataError::Parse {
                line: 0,
                message: format!(
                    "truncated stream frame: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// A length or count field. The class-index sentinel (`u64::MAX`)
    /// is read with [`FrameReader::get_u64`], so no count is exempt.
    fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        // A hostile length larger than the frame itself cannot be real.
        if v > self.buf.len() as u64 {
            return Err(DataError::Parse {
                line: 0,
                message: format!("stream frame length {v} exceeds frame size"),
            });
        }
        Ok(v as usize)
    }

    fn get_f64(&mut self) -> Result<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn get_str(&mut self) -> Result<String> {
        let len = self.get_usize()?;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|e| DataError::Parse {
            line: 0,
            message: format!("invalid utf-8 in stream frame: {e}"),
        })
    }

    fn expect_magic(&mut self, magic: &[u8; 4], what: &str) -> Result<()> {
        let got = self.take(4)?;
        if got != magic {
            return Err(DataError::Parse {
                line: 0,
                message: format!("bad {what} magic: {got:?}"),
            });
        }
        Ok(())
    }

    fn finish(&self, what: &str) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(DataError::Parse {
                line: 0,
                message: format!(
                    "{what} frame has {} trailing bytes",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stream header
// ---------------------------------------------------------------------------

/// The schema half of a record stream: relation name, attribute
/// descriptors (with full nominal domains), the class index, and the
/// producer's interned string table. Carrying the dictionary state in
/// the header is what makes interned nominal codes and string ids
/// replay losslessly on the consumer — the consumer builds its dataset
/// from *this* header, never from its own (possibly divergent) domains.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHeader {
    relation: String,
    attributes: Vec<Attribute>,
    class_index: Option<usize>,
    strings: Vec<String>,
}

impl StreamHeader {
    /// Snapshot the schema and dictionary state of `ds`.
    pub fn of(ds: &Dataset) -> StreamHeader {
        StreamHeader {
            relation: ds.relation().to_string(),
            attributes: ds.attributes().to_vec(),
            class_index: ds.class_index(),
            strings: ds.strings().to_vec(),
        }
    }

    /// The relation name.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Attribute descriptors, in column order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes (batch columns).
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// The class attribute index, if one was set on the producer.
    pub fn class_index(&self) -> Option<usize> {
        self.class_index
    }

    /// The producer's interned string table.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Build an empty [`Dataset`] carrying this schema: class index set
    /// and the producer's string table re-interned in order, so encoded
    /// batch cells append without remapping.
    pub fn to_dataset(&self) -> Dataset {
        let mut ds = Dataset::new(self.relation.clone(), self.attributes.clone());
        ds.set_class_index(self.class_index)
            .expect("class index was valid on the producer");
        for s in &self.strings {
            ds.intern_string(s.clone());
        }
        ds
    }

    /// Serialise into an `FSH1` frame (see DESIGN.md).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(HEADER_MAGIC);
        put_str(&mut buf, &self.relation);
        put_u64(&mut buf, self.attributes.len() as u64);
        for attr in &self.attributes {
            match attr.kind() {
                AttributeKind::Numeric => {
                    buf.push(0);
                    put_str(&mut buf, attr.name());
                }
                AttributeKind::Nominal(labels) => {
                    buf.push(1);
                    put_str(&mut buf, attr.name());
                    put_u64(&mut buf, labels.len() as u64);
                    for l in labels {
                        put_str(&mut buf, l);
                    }
                }
                AttributeKind::Str => {
                    buf.push(2);
                    put_str(&mut buf, attr.name());
                }
            }
        }
        put_u64(&mut buf, self.class_index.map_or(u64::MAX, |c| c as u64));
        put_u64(&mut buf, self.strings.len() as u64);
        for s in &self.strings {
            put_str(&mut buf, s);
        }
        buf
    }

    /// Decode an `FSH1` frame.
    pub fn from_bytes(bytes: &[u8]) -> Result<StreamHeader> {
        let mut r = FrameReader::new(bytes);
        r.expect_magic(HEADER_MAGIC, "stream header")?;
        let relation = r.get_str()?;
        let n_attrs = r.get_usize()?;
        let mut attributes = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let tag = r.get_u8()?;
            let name = r.get_str()?;
            attributes.push(match tag {
                0 => Attribute::numeric(name),
                1 => {
                    let n_labels = r.get_usize()?;
                    let labels: Result<Vec<String>> = (0..n_labels).map(|_| r.get_str()).collect();
                    Attribute::nominal(name, labels?)
                }
                2 => Attribute::string(name),
                other => {
                    return Err(DataError::Parse {
                        line: 0,
                        message: format!("unknown attribute tag {other}"),
                    })
                }
            });
        }
        let raw_class = r.get_u64()?;
        let class_index = if raw_class == u64::MAX {
            None
        } else {
            let c = raw_class as usize;
            if c >= attributes.len() {
                return Err(DataError::AttributeIndex {
                    index: c,
                    len: attributes.len(),
                });
            }
            Some(c)
        };
        let n_strings = r.get_usize()?;
        let strings: Result<Vec<String>> = (0..n_strings).map(|_| r.get_str()).collect();
        let header = StreamHeader {
            relation,
            attributes,
            class_index,
            strings: strings?,
        };
        r.finish("stream header")?;
        Ok(header)
    }
}

// ---------------------------------------------------------------------------
// Record batch
// ---------------------------------------------------------------------------

/// A chunk of rows travelling through a stream, in the same columnar
/// layout as the [`Dataset`] engine: one [`Column`] per attribute
/// (values plus a validity bitmap — no `NaN` sentinel on the wire) and
/// per-row instance weights. `num_rows` is explicit so zero-attribute
/// datasets still count rows.
///
/// Fields are public so producers can assemble batches directly, which
/// also means a batch from an untrusted producer may be *ragged*
/// (buffers of unequal length) or reference domains the header does not
/// define. Consumers must call [`RecordBatch::validate`] before
/// applying a batch; [`StreamReceiver::collect`] and
/// [`StreamReceiver::fold`] do so on every batch received.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    /// Rows this batch declares. Every column and the weight buffer
    /// must cover exactly this many rows to pass validation.
    pub num_rows: usize,
    /// Per-attribute columnar buffers, parallel to the stream header's
    /// attribute order.
    pub columns: Vec<Column>,
    /// Per-row instance weights (`weights.len() == num_rows`).
    pub weights: Vec<f64>,
}

impl RecordBatch {
    /// Snapshot rows `range` of `ds` into a batch.
    pub fn from_rows(ds: &Dataset, range: Range<usize>) -> RecordBatch {
        let num_strings = ds.strings().len();
        let mut columns: Vec<Column> = ds.attributes().iter().map(Column::for_attribute).collect();
        for (a, col) in columns.iter_mut().enumerate() {
            let attr = &ds.attributes()[a];
            let view = ds.column(a);
            for r in range.clone() {
                col.push_encoded(view.get(r), attr, num_strings)
                    .expect("cells of a valid dataset re-encode");
            }
        }
        RecordBatch {
            num_rows: range.len(),
            columns,
            weights: range.map(|r| ds.weight(r)).collect(),
        }
    }

    /// Number of rows the batch declares.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns (attributes) in the batch.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The encoded cell at (`row`, `attr`) — `NaN` when missing, domain
    /// index for nominal cells, string-table id for string cells.
    pub fn value(&self, row: usize, attr: usize) -> f64 {
        self.columns[attr].get(row)
    }

    /// Copy row `row` into `buf` as encoded values (cleared first).
    pub fn copy_row_into(&self, row: usize, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c.get(row)));
    }

    /// Row `row` as a fresh encoded vector.
    pub fn row_values(&self, row: usize) -> Vec<f64> {
        let mut buf = Vec::with_capacity(self.columns.len());
        self.copy_row_into(row, &mut buf);
        buf
    }

    /// Validate this batch against the stream header: column count and
    /// kinds must match the schema, every buffer must cover exactly
    /// `num_rows` (ragged batches are rejected with
    /// [`DataError::RaggedBatch`]), nominal codes must lie inside their
    /// domains, string ids inside the header's string table, present
    /// numeric cells must be finite and weights finite and not negative
    /// (both a [`DataError::Parse`] naming the attribute or row).
    pub fn validate(&self, header: &StreamHeader) -> Result<()> {
        if self.columns.len() != header.num_attributes() {
            return Err(DataError::Arity {
                got: self.columns.len(),
                expected: header.num_attributes(),
            });
        }
        if self.weights.len() != self.num_rows {
            return Err(DataError::RaggedBatch {
                column: "weights".into(),
                len: self.weights.len(),
                expected: self.num_rows,
            });
        }
        for (col, attr) in self.columns.iter().zip(header.attributes()) {
            if col.len() != self.num_rows {
                return Err(DataError::RaggedBatch {
                    column: attr.name().to_string(),
                    len: col.len(),
                    expected: self.num_rows,
                });
            }
            let kind_ok = matches!(
                (col, attr.kind()),
                (Column::Numeric { .. }, AttributeKind::Numeric)
                    | (Column::Nominal { .. }, AttributeKind::Nominal(_))
                    | (Column::Str { .. }, AttributeKind::Str)
            );
            if !kind_ok {
                return Err(DataError::KindMismatch {
                    attribute: attr.name().to_string(),
                    expected: match attr.kind() {
                        AttributeKind::Numeric => "numeric",
                        AttributeKind::Nominal(_) => "nominal",
                        AttributeKind::Str => "string",
                    },
                });
            }
            // `Column::len` reports the bitmap length; the payload
            // buffer can still disagree with it on a hand-assembled
            // batch, so check it separately before any indexed access.
            let payload_len = match col {
                Column::Numeric { values, .. } => values.len(),
                Column::Nominal { codes, .. } => codes.len(),
                Column::Str { ids, .. } => ids.len(),
            };
            if payload_len != self.num_rows {
                return Err(DataError::RaggedBatch {
                    column: attr.name().to_string(),
                    len: payload_len,
                    expected: self.num_rows,
                });
            }
            // Codes are replayed verbatim on the consumer, so check
            // them against the *header's* domains here (the producer's
            // buffers need not have been built through a validated
            // Dataset insert path).
            match col {
                Column::Nominal { codes, valid, .. } => {
                    let arity = attr.num_labels();
                    for i in 0..self.num_rows {
                        if valid.get(i) && codes.get(i) >= arity {
                            return Err(DataError::NominalRange {
                                attribute: attr.name().to_string(),
                                code: codes.get(i).to_string(),
                                arity,
                            });
                        }
                    }
                }
                Column::Str { ids, valid } => {
                    let table = header.strings().len();
                    for (i, &id) in ids.iter().enumerate() {
                        if valid.get(i) && id as usize >= table {
                            return Err(DataError::NominalRange {
                                attribute: attr.name().to_string(),
                                code: id.to_string(),
                                arity: table,
                            });
                        }
                    }
                }
                // The ARFF and CSV readers refuse non-finite numbers, and
                // kernels assume none: a present cell must be finite.
                Column::Numeric { values, valid } => {
                    if let Some(i) =
                        (0..self.num_rows).find(|&i| valid.get(i) && !values[i].is_finite())
                    {
                        return Err(DataError::Parse {
                            line: 0,
                            message: format!(
                                "attribute {:?}, row {i}: {} is not a finite number",
                                attr.name(),
                                values[i]
                            ),
                        });
                    }
                }
            }
        }
        if let Some(i) = self
            .weights
            .iter()
            .position(|w| !(0.0..f64::INFINITY).contains(w))
        {
            return Err(DataError::Parse {
                line: 0,
                message: format!(
                    "row {i}: weight {} is not a finite, non-negative number",
                    self.weights[i]
                ),
            });
        }
        Ok(())
    }

    /// Exact serialised size in bytes: always equal to
    /// `self.to_bytes().len()`, so the transport cost model charges
    /// precisely the bytes that travel (pinned by tests).
    pub fn byte_len(&self) -> usize {
        let n = self.num_rows;
        // magic + num_rows + num_columns + weights flag.
        let mut len = 4 + 8 + 8 + 1;
        if !self.weights.iter().all(|&w| w == 1.0) {
            len += 8 * self.weights.len();
        }
        for col in &self.columns {
            len += 1; // column tag
            len += 1; // validity flag
            if !col.validity().all_valid() {
                len += 8 * n.div_ceil(64);
            }
            len += match col {
                Column::Numeric { .. } => 8 * n,
                Column::Nominal { codes, .. } => {
                    8 + 1
                        + n * match codes {
                            Codes::U8(_) => 1,
                            Codes::U16(_) => 2,
                            Codes::U32(_) => 4,
                        }
                }
                Column::Str { .. } => 4 * n,
            };
        }
        len
    }

    /// Serialise into an `FSB1` frame (see DESIGN.md).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.num_rows;
        let mut buf = Vec::with_capacity(self.byte_len());
        buf.extend_from_slice(BATCH_MAGIC);
        put_u64(&mut buf, n as u64);
        put_u64(&mut buf, self.columns.len() as u64);
        if self.weights.iter().all(|&w| w == 1.0) {
            buf.push(0); // unit weights elided
        } else {
            buf.push(1);
            for &w in &self.weights {
                put_f64(&mut buf, w);
            }
        }
        for col in &self.columns {
            let valid = col.validity();
            let write_validity = |buf: &mut Vec<u8>| {
                if valid.all_valid() {
                    buf.push(1);
                } else {
                    buf.push(0);
                    for i in 0..n.div_ceil(64) {
                        let mut word = 0u64;
                        for bit in 0..64 {
                            let row = i * 64 + bit;
                            if row < n && valid.get(row) {
                                word |= 1 << bit;
                            }
                        }
                        put_u64(buf, word);
                    }
                }
            };
            match col {
                Column::Numeric { values, .. } => {
                    buf.push(0);
                    write_validity(&mut buf);
                    for &v in values {
                        put_f64(&mut buf, v);
                    }
                }
                Column::Nominal { codes, arity, .. } => {
                    buf.push(1);
                    write_validity(&mut buf);
                    put_u64(&mut buf, *arity as u64);
                    match codes {
                        Codes::U8(v) => {
                            buf.push(1);
                            buf.extend_from_slice(v);
                        }
                        Codes::U16(v) => {
                            buf.push(2);
                            for &c in v {
                                buf.extend_from_slice(&c.to_le_bytes());
                            }
                        }
                        Codes::U32(v) => {
                            buf.push(4);
                            for &c in v {
                                buf.extend_from_slice(&c.to_le_bytes());
                            }
                        }
                    }
                }
                Column::Str { ids, .. } => {
                    buf.push(2);
                    write_validity(&mut buf);
                    for &id in ids {
                        buf.extend_from_slice(&id.to_le_bytes());
                    }
                }
            }
        }
        debug_assert_eq!(buf.len(), self.byte_len());
        buf
    }

    /// Decode an `FSB1` frame. Structural errors (truncation, unknown
    /// tags) surface as [`DataError::Parse`]; schema conformance is the
    /// caller's job via [`RecordBatch::validate`].
    pub fn from_bytes(bytes: &[u8]) -> Result<RecordBatch> {
        let mut r = FrameReader::new(bytes);
        r.expect_magic(BATCH_MAGIC, "record batch")?;
        let n = r.get_usize()?;
        let n_cols = r.get_usize()?;
        let weights = match r.get_u8()? {
            0 => vec![1.0; n],
            1 => (0..n).map(|_| r.get_f64()).collect::<Result<Vec<_>>>()?,
            other => {
                return Err(DataError::Parse {
                    line: 0,
                    message: format!("unknown weights flag {other}"),
                })
            }
        };
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let tag = r.get_u8()?;
            let valid = match r.get_u8()? {
                1 => {
                    let mut b = Bitmap::new();
                    for _ in 0..n {
                        b.push(true);
                    }
                    b
                }
                0 => {
                    let mut b = Bitmap::new();
                    let mut word = 0u64;
                    for row in 0..n {
                        if row % 64 == 0 {
                            word = r.get_u64()?;
                        }
                        b.push(word >> (row % 64) & 1 == 1);
                    }
                    b
                }
                other => {
                    return Err(DataError::Parse {
                        line: 0,
                        message: format!("unknown validity flag {other}"),
                    })
                }
            };
            columns.push(match tag {
                0 => Column::Numeric {
                    values: (0..n).map(|_| r.get_f64()).collect::<Result<Vec<_>>>()?,
                    valid,
                },
                1 => {
                    let arity = r.get_usize()?;
                    let width = r.get_u8()?;
                    let codes = match width {
                        1 => Codes::U8(r.take(n)?.to_vec()),
                        2 => {
                            let raw = r.take(2 * n)?;
                            Codes::U16(
                                raw.chunks_exact(2)
                                    .map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
                                    .collect(),
                            )
                        }
                        4 => {
                            let raw = r.take(4 * n)?;
                            Codes::U32(
                                raw.chunks_exact(4)
                                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                                    .collect(),
                            )
                        }
                        other => {
                            return Err(DataError::Parse {
                                line: 0,
                                message: format!("unknown code width {other}"),
                            })
                        }
                    };
                    Column::Nominal {
                        codes,
                        arity,
                        valid,
                    }
                }
                2 => {
                    let raw = r.take(4 * n)?;
                    Column::Str {
                        ids: raw
                            .chunks_exact(4)
                            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                            .collect(),
                        valid,
                    }
                }
                other => {
                    return Err(DataError::Parse {
                        line: 0,
                        message: format!("unknown column tag {other}"),
                    })
                }
            });
        }
        r.finish("record batch")?;
        Ok(RecordBatch {
            num_rows: n,
            columns,
            weights,
        })
    }
}

/// Split a dataset into batches of at most `chunk_rows` rows. Batches
/// are cut on row ranges, so a zero-attribute dataset with `n` rows
/// yields `ceil(n / chunk_rows)` batches whose `num_rows` cover all `n`
/// rows (not one empty batch per row).
pub fn chunk_dataset(ds: &Dataset, chunk_rows: usize) -> Result<Vec<RecordBatch>> {
    if chunk_rows == 0 {
        return Err(DataError::InvalidParameter(
            "chunk_rows must be >= 1".into(),
        ));
    }
    let n = ds.num_instances();
    let mut batches = Vec::with_capacity(n.div_ceil(chunk_rows));
    let mut start = 0;
    while start < n {
        let end = (start + chunk_rows).min(n);
        batches.push(RecordBatch::from_rows(ds, start..end));
        start = end;
    }
    Ok(batches)
}

// ---------------------------------------------------------------------------
// Bounded local stream
// ---------------------------------------------------------------------------

/// The producer half of a record stream.
#[derive(Debug, Clone)]
pub struct StreamSender {
    tx: Sender<RecordBatch>,
}

/// The consumer half of a record stream: the stream header (schema,
/// domains, string table) plus a bounded channel of batches.
#[derive(Debug)]
pub struct StreamReceiver {
    header: StreamHeader,
    rx: Receiver<RecordBatch>,
}

/// Open a bounded record stream carrying rows for `source`'s schema
/// *and dictionary state* (nominal domains and the interned string
/// table travel in the header, so string and high-arity nominal cells
/// round-trip losslessly). `capacity` is the number of in-flight
/// batches before the producer blocks (back-pressure).
pub fn record_stream(source: &Dataset, capacity: usize) -> (StreamSender, StreamReceiver) {
    let (tx, rx) = bounded(capacity.max(1));
    (
        StreamSender { tx },
        StreamReceiver {
            header: StreamHeader::of(source),
            rx,
        },
    )
}

impl StreamSender {
    /// Send one batch; fails with [`DataError::StreamClosed`] when the
    /// receiver is gone.
    pub fn send(&self, batch: RecordBatch) -> Result<()> {
        self.tx.send(batch).map_err(|_| DataError::StreamClosed)
    }

    /// Chunk and send an entire dataset, then drop the sender by value
    /// (closing the stream).
    pub fn send_dataset(self, ds: &Dataset, chunk_rows: usize) -> Result<()> {
        for batch in chunk_dataset(ds, chunk_rows)? {
            self.send(batch)?;
        }
        Ok(())
    }
}

impl StreamReceiver {
    /// The stream header (schema, domains, string table).
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Receive the next batch; `None` when the stream is closed. The
    /// batch is *not* yet validated — callers applying it by hand
    /// should run [`RecordBatch::validate`] first.
    pub fn recv(&self) -> Option<RecordBatch> {
        self.rx.recv().ok()
    }

    /// Drain the stream into a full dataset (the "migrate" strategy).
    /// Every batch is validated against the stream header before any of
    /// its rows are applied, so ragged or out-of-domain batches fail
    /// with a [`DataError`] instead of panicking mid-append.
    pub fn collect(self) -> Result<Dataset> {
        let mut ds = self.header.to_dataset();
        let mut buf = Vec::with_capacity(self.header.num_attributes());
        while let Ok(batch) = self.rx.recv() {
            batch.validate(&self.header)?;
            for r in 0..batch.num_rows() {
                batch.copy_row_into(r, &mut buf);
                ds.push_row_weighted(buf.clone(), batch.weights[r])?;
            }
        }
        Ok(ds)
    }

    /// Fold over batches without materialising the whole dataset (the
    /// "process locally while streaming" strategy). Each batch is
    /// validated against the stream header, then handed to the folder
    /// once, in order.
    pub fn fold<T, F: FnMut(T, &RecordBatch) -> T>(self, init: T, mut f: F) -> Result<T> {
        let mut acc = init;
        while let Ok(batch) = self.rx.recv() {
            batch.validate(&self.header)?;
            acc = f(acc, &batch);
        }
        Ok(acc)
    }
}

/// An incremental mean/count aggregator usable as a streaming consumer —
/// demonstrates single-pass processing for algorithms with stream
/// support (the paper: "provided the algorithm being used has support
/// for streaming"). Scans batch columns directly (validity bitmap, not
/// `NaN` probes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    /// Per-attribute count of non-missing values.
    pub count: Vec<f64>,
    /// Per-attribute running mean of non-missing values.
    pub mean: Vec<f64>,
    /// Total rows observed.
    pub rows: usize,
}

impl RunningStats {
    /// Create an aggregator for `width` attributes.
    pub fn new(width: usize) -> RunningStats {
        RunningStats {
            count: vec![0.0; width],
            mean: vec![0.0; width],
            rows: 0,
        }
    }

    /// Absorb one batch (Welford update per attribute).
    pub fn update(&mut self, batch: &RecordBatch) {
        self.rows += batch.num_rows();
        for (a, col) in batch.columns.iter().enumerate() {
            for i in 0..col.len() {
                let v = col.get(i);
                if !v.is_nan() {
                    self.count[a] += 1.0;
                    self.mean[a] += (v - self.mean[a]) / self.count[a];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arff::parse_arff;
    use crate::attribute::Attribute;

    fn toy(n: usize) -> Dataset {
        let mut ds = Dataset::new(
            "toy",
            vec![Attribute::numeric("x"), Attribute::numeric("y")],
        );
        for i in 0..n {
            ds.push_row(vec![i as f64, (2 * i) as f64]).unwrap();
        }
        ds
    }

    /// Notes dataset: string attribute, missing cells of every kind.
    fn notes() -> Dataset {
        parse_arff(
            "@relation notes\n\
             @attribute id numeric\n\
             @attribute note string\n\
             @attribute grade {low,high}\n\
             @data\n\
             1,'first note',low\n\
             2,?,high\n\
             ?,'third note',?\n",
        )
        .unwrap()
    }

    #[test]
    fn chunking_covers_all_rows() {
        let ds = toy(10);
        let batches = chunk_dataset(&ds, 3).unwrap();
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[0].num_rows(), 3);
        assert_eq!(batches[3].num_rows(), 1);
        let total: usize = batches.iter().map(RecordBatch::num_rows).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn zero_chunk_rejected() {
        assert!(chunk_dataset(&toy(3), 0).is_err());
    }

    #[test]
    fn zero_attribute_dataset_chunks_by_rows() {
        // Satellite regression: the legacy row-major chunker emitted one
        // empty batch per row when width == 0 (its full-batch trigger
        // fired immediately). Row-range chunking must cover the 7 rows
        // in ceil(7/3) = 3 batches.
        let mut ds = Dataset::new("empty-schema", vec![]);
        for _ in 0..7 {
            ds.push_row(vec![]).unwrap();
        }
        let batches = chunk_dataset(&ds, 3).unwrap();
        assert_eq!(batches.len(), 3);
        let rows: usize = batches.iter().map(RecordBatch::num_rows).sum();
        assert_eq!(rows, 7);
        // And the stream round-trips the row count. The channel holds
        // fewer batches than the producer sends, so the producer must
        // run on its own thread (send blocks when the window is full).
        let (tx, rx) = record_stream(&ds, 2);
        let src = ds.clone();
        let producer = std::thread::spawn(move || tx.send_dataset(&src, 3).unwrap());
        let out = rx.collect().unwrap();
        producer.join().unwrap();
        assert_eq!(out.num_instances(), 7);
    }

    #[test]
    fn stream_roundtrip_collect() {
        let ds = toy(25);
        let (tx, rx) = record_stream(&ds, 4);
        let src = ds.clone();
        let producer = std::thread::spawn(move || tx.send_dataset(&src, 7).unwrap());
        let out = rx.collect().unwrap();
        producer.join().unwrap();
        assert_eq!(out, ds);
        assert_eq!(out.value(24, 1), 48.0);
    }

    #[test]
    fn stream_roundtrip_strings_and_high_arity_nominals() {
        // Satellite regression: the legacy receiver replayed interned
        // ids against its own `header_clone()`, whose empty string table
        // rejected (or remapped) every string cell. The header now
        // carries the producer's dictionary state.
        let ds = notes();
        assert_eq!(ds.strings().len(), 2);
        let (tx, rx) = record_stream(&ds, 2);
        tx.send_dataset(&ds, 2).unwrap();
        let out = rx.collect().unwrap();
        assert_eq!(out, ds);
        assert_eq!(out.string_at(out.value(0, 1) as usize), Some("first note"));
        assert!(out.instance(1).is_missing(1));
        assert!(out.instance(2).is_missing(0));
        assert!(out.instance(2).is_missing(2));

        // High-arity nominal (> 256 labels ⇒ u16 codes on the wire).
        let labels: Vec<String> = (0..300).map(|i| format!("l{i}")).collect();
        let mut wide = Dataset::new("wide", vec![Attribute::nominal("c", labels)]);
        for i in [0usize, 257, 299] {
            wide.push_row(vec![i as f64]).unwrap();
        }
        let (tx, rx) = record_stream(&wide, 2);
        tx.send_dataset(&wide, 2).unwrap();
        let out = rx.collect().unwrap();
        assert_eq!(out, wide);
        assert_eq!(out.value(1, 0), 257.0);
    }

    #[test]
    fn roundtrip_over_arff_corpus() {
        // Property pinned over the corpus: parse → chunk → stream →
        // collect is the identity for every corpus dataset, including
        // missing cells and string attributes, at several chunk sizes.
        let sources = [
            crate::corpus::breast_cancer_arff(),
            crate::arff::write_arff(&crate::corpus::weather_nominal()),
            crate::arff::write_arff(&crate::corpus::weather_numeric()),
            crate::arff::write_arff(&crate::corpus::nominal_classification(40, 4, 3, 2, 0.2, 7)),
            crate::arff::write_arff(&notes()),
        ];
        for (i, text) in sources.iter().enumerate() {
            let ds = parse_arff(text).unwrap();
            for chunk_rows in [1, 7, 64, usize::MAX >> 1] {
                let (tx, rx) = record_stream(&ds, 4);
                let src = ds.clone();
                let producer =
                    std::thread::spawn(move || tx.send_dataset(&src, chunk_rows).unwrap());
                let out = rx.collect().unwrap();
                producer.join().unwrap();
                assert_eq!(out, ds, "corpus source {i}, chunk_rows {chunk_rows}");
            }
        }
    }

    #[test]
    fn batch_bytes_roundtrip_and_exact_byte_len() {
        // Satellite regression: the legacy fixed 16-byte header
        // undercounted the serialised frame. byte_len must equal the
        // serialised length exactly, for every corpus shape.
        let sources = [
            parse_arff(&crate::corpus::breast_cancer_arff()).unwrap(),
            crate::corpus::weather_numeric(),
            notes(),
        ];
        for ds in &sources {
            for batch in chunk_dataset(ds, 9).unwrap() {
                let bytes = batch.to_bytes();
                assert_eq!(bytes.len(), batch.byte_len(), "{}", ds.relation());
                let back = RecordBatch::from_bytes(&bytes).unwrap();
                assert_eq!(back, batch, "{}", ds.relation());
            }
        }
        // Weighted rows take the explicit-weights branch.
        let mut ds = toy(70);
        ds.set_weight(3, 2.5);
        let batch = RecordBatch::from_rows(&ds, 0..70);
        assert_eq!(batch.to_bytes().len(), batch.byte_len());
        assert_eq!(RecordBatch::from_bytes(&batch.to_bytes()).unwrap(), batch);
    }

    #[test]
    fn header_bytes_roundtrip() {
        let ds = notes();
        let header = StreamHeader::of(&ds);
        let back = StreamHeader::from_bytes(&header.to_bytes()).unwrap();
        assert_eq!(back, header);
        assert_eq!(back.strings(), ds.strings());
        assert!(StreamHeader::from_bytes(b"FSXX").is_err());
        let bytes = header.to_bytes();
        assert!(StreamHeader::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn ragged_batch_rejected_at_receive_time() {
        // Satellite regression: the legacy row-major batch panicked in
        // `row()` when the buffer length was not a multiple of the
        // width, and `num_rows` silently floored. A ragged columnar
        // batch must surface as a DataError from collect()/fold(), not
        // a panic or silent truncation.
        let ds = toy(1);
        let mut ragged = RecordBatch::from_rows(&ds, 0..1);
        ragged.num_rows = 2; // declares 2 rows, buffers hold 1
        ragged.weights.push(1.0);
        let (tx, rx) = record_stream(&ds, 1);
        tx.send(ragged.clone()).unwrap();
        drop(tx);
        let err = rx.collect().unwrap_err();
        assert!(
            matches!(err, DataError::RaggedBatch { ref column, len: 1, expected: 2 } if column == "x"),
            "{err:?}"
        );

        let (tx, rx) = record_stream(&ds, 1);
        tx.send(ragged).unwrap();
        drop(tx);
        assert!(matches!(
            rx.fold(0usize, |acc, b| acc + b.num_rows()),
            Err(DataError::RaggedBatch { .. })
        ));

        // Ragged weights are caught too.
        let mut bad_weights = RecordBatch::from_rows(&ds, 0..1);
        bad_weights.weights.clear();
        let (tx, rx) = record_stream(&ds, 1);
        tx.send(bad_weights).unwrap();
        drop(tx);
        assert!(matches!(
            rx.collect(),
            Err(DataError::RaggedBatch { ref column, .. }) if column == "weights"
        ));
    }

    #[test]
    fn out_of_domain_codes_rejected_at_receive_time() {
        let ds = notes();
        let mut batch = RecordBatch::from_rows(&ds, 0..3);
        // Point a string cell past the header's table.
        if let Column::Str { ids, .. } = &mut batch.columns[1] {
            ids[0] = 99;
        }
        assert!(matches!(
            batch.validate(&StreamHeader::of(&ds)),
            Err(DataError::NominalRange { .. })
        ));
    }

    #[test]
    fn stream_fold_processes_incrementally() {
        let ds = toy(100);
        let (tx, rx) = record_stream(&ds, 2);
        let src = ds.clone();
        let producer = std::thread::spawn(move || tx.send_dataset(&src, 10).unwrap());
        let stats = rx
            .fold(RunningStats::new(2), |mut s, b| {
                s.update(b);
                s
            })
            .unwrap();
        producer.join().unwrap();
        assert_eq!(stats.rows, 100);
        assert!((stats.mean[0] - 49.5).abs() < 1e-9);
        assert!((stats.mean[1] - 99.0).abs() < 1e-9);
    }

    #[test]
    fn send_after_receiver_drop_errors() {
        let ds = toy(1);
        let (tx, rx) = record_stream(&ds, 1);
        drop(rx);
        let err = tx.send(RecordBatch::from_rows(&ds, 0..1));
        assert!(matches!(err, Err(DataError::StreamClosed)));
    }

    #[test]
    fn width_mismatch_detected_on_collect() {
        let ds = toy(1);
        let (tx, rx) = record_stream(&ds, 1);
        let wide = Dataset::new(
            "wide",
            vec![
                Attribute::numeric("a"),
                Attribute::numeric("b"),
                Attribute::numeric("c"),
            ],
        );
        let mut src = wide.clone();
        src.push_row(vec![1.0, 2.0, 3.0]).unwrap();
        tx.send(RecordBatch::from_rows(&src, 0..1)).unwrap();
        drop(tx);
        assert!(matches!(
            rx.collect(),
            Err(DataError::Arity {
                got: 3,
                expected: 2
            })
        ));
    }

    #[test]
    fn running_stats_skips_missing() {
        let mut ds = Dataset::new("m", vec![Attribute::numeric("x")]);
        ds.push_row(vec![1.0]).unwrap();
        ds.push_row(vec![f64::NAN]).unwrap();
        ds.push_row(vec![3.0]).unwrap();
        let mut s = RunningStats::new(1);
        s.update(&RecordBatch::from_rows(&ds, 0..3));
        assert_eq!(s.rows, 3);
        assert_eq!(s.count[0], 2.0);
        assert!((s.mean[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn batch_byte_len_scales_with_rows() {
        let small = RecordBatch::from_rows(&toy(10), 0..10);
        let large = RecordBatch::from_rows(&toy(1000), 0..1000);
        assert!(large.byte_len() > small.byte_len());
        // All-valid numeric columns cost ~8 bytes/cell plus framing.
        assert_eq!(
            large.byte_len() - small.byte_len(),
            2 * 8 * (1000 - 10) // two numeric columns
        );
    }

    #[test]
    fn max_count_stream_header_is_a_parse_error() {
        // Magic, an empty relation and an attribute count of u64::MAX:
        // 20 bytes that once reached `Vec::with_capacity(usize::MAX)`.
        let mut frame = HEADER_MAGIC.to_vec();
        put_u64(&mut frame, 0);
        put_u64(&mut frame, u64::MAX);
        assert_eq!(frame.len(), 20);
        let err = StreamHeader::from_bytes(&frame).unwrap_err();
        assert!(matches!(err, DataError::Parse { .. }), "{err:?}");
        // u64::MAX in the class-index field still means "no class".
        let header = StreamHeader::of(&toy(1));
        let back = StreamHeader::from_bytes(&header.to_bytes()).unwrap();
        assert_eq!(back.class_index(), None);
    }

    #[test]
    fn max_row_count_record_batch_is_a_parse_error() {
        // A row count of u64::MAX once reached `vec![1.0; usize::MAX]`.
        let mut frame = BATCH_MAGIC.to_vec();
        put_u64(&mut frame, u64::MAX);
        put_u64(&mut frame, 0);
        frame.push(0);
        let err = RecordBatch::from_bytes(&frame).unwrap_err();
        assert!(matches!(err, DataError::Parse { .. }), "{err:?}");
    }

    /// SplitMix64, seeding the battery's byte flips.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Decode every mutation of the valid `frame`: each strict prefix
    /// (which must fail), each 8-byte window set to `u64::MAX`, to the
    /// frame length + 1 and to 2^40, and 512 copies with 1–4 seeded
    /// random byte flips. Returns the number of frames decoded.
    fn mutation_battery(
        what: &str,
        frame: &[u8],
        seed: u64,
        decode: &dyn Fn(&[u8]) -> Result<()>,
    ) -> usize {
        let run = |mutation: String, bytes: &[u8]| -> Result<()> {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(bytes)))
                .unwrap_or_else(|_| panic!("{what}, {mutation}: the decoder panicked"))
        };
        let mut decoded = 0;
        for len in 0..frame.len() {
            let got = run(format!("truncated to {len} bytes"), &frame[..len]);
            assert!(got.is_err(), "{what}: a {len}-byte prefix decoded");
            decoded += 1;
        }
        for value in [u64::MAX, frame.len() as u64 + 1, 1 << 40] {
            for at in 0..frame.len().saturating_sub(7) {
                let mut bytes = frame.to_vec();
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                let _ = run(format!("{value} at offset {at}"), &bytes);
                decoded += 1;
            }
        }
        let mut rng = SplitMix(seed);
        for copy in 0..512 {
            let mut bytes = frame.to_vec();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
            let _ = run(format!("flip copy {copy} of seed {seed}"), &bytes);
            decoded += 1;
        }
        decoded
    }

    #[test]
    fn non_finite_cells_and_bad_weights_are_refused() {
        let ds = notes();
        let header = StreamHeader::of(&ds);
        let good = RecordBatch::from_rows(&ds, 0..3);
        good.validate(&header).unwrap();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut batch = good.clone();
            let Column::Numeric { values, .. } = &mut batch.columns[0] else {
                panic!("id is numeric")
            };
            values[1] = v;
            // Through the wire, as a peer would send it.
            let err = RecordBatch::from_bytes(&batch.to_bytes())
                .unwrap()
                .validate(&header)
                .unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains("\"id\", row 1") && message.contains("finite"),
                "{message}"
            );
        }
        // A non-finite value in a missing cell is not a cell.
        let mut batch = good.clone();
        let Column::Numeric { values, .. } = &mut batch.columns[0] else {
            panic!("id is numeric")
        };
        values[2] = f64::INFINITY;
        batch.validate(&header).unwrap();
        for w in [-1.0, -f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            let mut batch = good.clone();
            batch.weights[2] = w;
            let err = RecordBatch::from_bytes(&batch.to_bytes())
                .unwrap()
                .validate(&header)
                .unwrap_err();
            assert!(err.to_string().contains("row 2: weight"), "{err}");
        }
        let mut batch = good;
        batch.weights[2] = 0.0;
        batch.validate(&header).unwrap();
    }

    #[test]
    fn mutated_stream_frames_are_errors_not_panics() {
        let mut small = notes();
        small.set_weight(1, 2.5);
        let mut breast_cancer = parse_arff(&crate::corpus::breast_cancer_arff()).unwrap();
        breast_cancer.set_class_by_name("Class").unwrap();
        let mut decoded = 0;
        for (seed, ds) in [(7, &breast_cancer), (11, &small)] {
            let header = StreamHeader::of(ds);
            decoded += mutation_battery(
                &format!("{} FSH1", ds.relation()),
                &header.to_bytes(),
                seed,
                &|b| StreamHeader::from_bytes(b).map(drop),
            );
            for (i, batch) in chunk_dataset(ds, 100).unwrap().iter().enumerate() {
                decoded += mutation_battery(
                    &format!("{} FSB1 #{i}", ds.relation()),
                    &batch.to_bytes(),
                    seed + i as u64,
                    &|b| {
                        let got = RecordBatch::from_bytes(b)?;
                        got.validate(&header)?;
                        // What validates is safe for the kernels: no
                        // present numeric cell or weight is non-finite.
                        for col in &got.columns {
                            if let Column::Numeric { values, valid } = col {
                                for (i, v) in values.iter().enumerate() {
                                    assert!(!valid.get(i) || v.is_finite(), "row {i}: {v}");
                                }
                            }
                        }
                        assert!(got.weights.iter().all(|w| w.is_finite() && *w >= 0.0));
                        Ok(())
                    },
                );
            }
        }
        assert!(decoded > 10_000, "{decoded} frames");
    }
}
