//! ARFF (Attribute-Relation File Format) reader and writer.
//!
//! This is the native format of the paper's Web Services: the
//! `classifyInstance` operation of the general Classifier service
//! requires "a data set in ARFF format". The dialect implemented here
//! covers what WEKA 3.4 (the version the paper wrapped) emits:
//!
//! * `% comment` lines and blank lines anywhere;
//! * `@relation <name>` with optional quoting;
//! * `@attribute <name> numeric|real|integer|string|{l1,l2,...}`;
//! * dense `@data` rows with `?` for missing values and single-quoted
//!   tokens containing separators;
//! * sparse rows `{index value, index value, ...}`.
//!
//! The data section is read in one pass. Each line's fields are split
//! in place (a quoted field is unescaped into one reused buffer) and
//! decoded through per-attribute decoders built once at `@data`: a
//! [`LabelTable`] for nominal attributes (keyed by length and end
//! bytes, hashing only where those keys collide), `parse_finite` for
//! numeric ones, and a hashed interner for string values. Cells go
//! straight into the [`Column`] buffers, so a cell costs no
//! allocation.
//!
//! [`parse_arff_header`] reads the header alone, through the same
//! header loop, for callers that need only the relation and the
//! attribute declarations.

use crate::attribute::{Attribute, AttributeKind};
use crate::column::Column;
use crate::dataset::{write_numeric, Dataset, Value};
use crate::error::{DataError, Result};
use std::borrow::Cow;
use std::collections::HashMap;

/// Parse an ARFF document into a [`Dataset`].
///
/// ```
/// let text = "@relation toy\n@attribute a {x,y}\n@attribute b numeric\n@data\nx,1\ny,?\n";
/// let ds = dm_data::arff::parse_arff(text).unwrap();
/// assert_eq!(ds.num_instances(), 2);
/// assert!(ds.instance(1).is_missing(1));
/// ```
pub fn parse_arff(text: &str) -> Result<Dataset> {
    let (relation, attributes, lines) = read_header(text)?;
    let mut reader = DataReader::new(&attributes);
    for (lineno, raw) in lines {
        let line = trim(strip_comment(raw));
        if line.is_empty() {
            continue;
        }
        if line.starts_with('{') {
            reader.sparse_row(line, lineno + 1)?;
        } else {
            reader.dense_row(line, lineno + 1)?;
        }
    }
    let DataReader {
        columns,
        rows,
        strings,
        ..
    } = reader;
    Ok(Dataset::from_columns(
        relation,
        attributes,
        columns,
        rows,
        strings.table,
    ))
}

/// Parse only the header of an ARFF document: a [`Dataset`] with the
/// relation and attributes [`parse_arff`] would give, and no rows. The
/// data section is not read, so a malformed row is not an error here;
/// a malformed header or a missing `@data` line is, with the error
/// [`parse_arff`] returns.
///
/// ```
/// let text = "@relation toy\n@attribute a {x,y}\n@data\nx\nnot-a-label\n";
/// let header = dm_data::arff::parse_arff_header(text).unwrap();
/// assert_eq!(header.num_instances(), 0);
/// assert_eq!(header.attribute_index("a").unwrap(), 0);
/// assert!(dm_data::arff::parse_arff(text).is_err());
/// ```
pub fn parse_arff_header(text: &str) -> Result<Dataset> {
    let (relation, attributes, _) = read_header(text)?;
    Ok(Dataset::new(relation, attributes))
}

/// The numbered lines of a document, from zero.
type NumberedLines<'a> = std::iter::Enumerate<std::str::Lines<'a>>;

/// Read the header up to and including the `@data` line: the relation
/// name, the attributes, and the lines that follow `@data`.
fn read_header(text: &str) -> Result<(String, Vec<Attribute>, NumberedLines<'_>)> {
    let mut relation = String::from("unnamed");
    let mut attributes: Vec<Attribute> = Vec::new();
    let mut lines = text.lines().enumerate();

    loop {
        let Some((lineno, raw)) = lines.next() else {
            return Err(DataError::Parse {
                line: 0,
                message: "no @data section".into(),
            });
        };
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if has_directive(line, "@relation") {
            relation = unquote(line["@relation".len()..].trim()).into_owned();
        } else if has_directive(line, "@attribute") {
            attributes.push(parse_attribute_decl(
                line["@attribute".len()..].trim(),
                lineno + 1,
            )?);
        } else if has_directive(line, "@data") {
            if attributes.is_empty() {
                return Err(DataError::Parse {
                    line: lineno + 1,
                    message: "@data before any @attribute declaration".into(),
                });
            }
            return Ok((relation, attributes, lines));
        } else {
            return Err(DataError::Parse {
                line: lineno + 1,
                message: format!("unrecognised header line: {line:?}"),
            });
        }
    }
}

/// `true` when `line` starts with `directive`, ignoring ASCII case.
fn has_directive(line: &str, directive: &str) -> bool {
    line.as_bytes()
        .get(..directive.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(directive.as_bytes()))
}

/// The data-section state: one decoder and one column buffer per
/// attribute, the string table, and the scratch buffers reused across
/// rows.
struct DataReader<'a> {
    attributes: &'a [Attribute],
    /// Label→code table per nominal attribute (`None` otherwise).
    labels: Vec<Option<LabelTable<'a>>>,
    columns: Vec<Column>,
    rows: usize,
    strings: Interner,
    /// Unescaped text of the current quoted field.
    scratch: String,
    /// Encoded cells of the current sparse row.
    sparse: Vec<f64>,
}

impl<'a> DataReader<'a> {
    fn new(attributes: &'a [Attribute]) -> DataReader<'a> {
        DataReader {
            attributes,
            labels: attributes
                .iter()
                .map(|a| a.is_nominal().then(|| LabelTable::new(a.labels())))
                .collect(),
            columns: attributes.iter().map(Column::for_attribute).collect(),
            rows: 0,
            strings: Interner::default(),
            scratch: String::new(),
            sparse: Vec::new(),
        }
    }

    /// Decode a dense row straight into the columns. Splitting goes on
    /// past a bad cell so a wrong-arity row reports its arity first,
    /// as the header check of a row-at-a-time reader would.
    fn dense_row(&mut self, line: &str, lineno: usize) -> Result<()> {
        let n = self.attributes.len();
        let mut fields = Fields::new(line);
        let mut count = 0;
        let mut failed = None;
        while let Some(field) = fields.next(&mut self.scratch) {
            if count < n && failed.is_none() {
                let column = &mut self.columns[count];
                if field == "?" {
                    column.push_missing();
                } else {
                    let attr = &self.attributes[count];
                    let decoded = match (&self.labels[count], attr.kind()) {
                        (Some(table), _) => table
                            .get(field)
                            .map(|code| column.push_index(code))
                            .ok_or_else(|| DataError::Parse {
                                line: lineno,
                                message: format!(
                                    "label {field:?} not in domain of attribute {:?}",
                                    attr.name()
                                ),
                            }),
                        (None, AttributeKind::Str) => {
                            column.push_index(self.strings.intern(field));
                            Ok(())
                        }
                        (None, _) => parse_finite(field, lineno).map(|v| column.push_number(v)),
                    };
                    failed = decoded.err();
                }
            }
            count += 1;
        }
        if count != n {
            return Err(DataError::Parse {
                line: lineno,
                message: format!("row has {count} values, header declares {n} attributes"),
            });
        }
        if let Some(e) = failed {
            return Err(e);
        }
        self.rows += 1;
        Ok(())
    }

    /// Decode a sparse row `{index value, ...}`. Unlisted cells default
    /// to 0 (numeric), the first label (nominal) or string id 0, which
    /// the insert-time range check rejects while the table is empty.
    fn sparse_row(&mut self, line: &str, lineno: usize) -> Result<()> {
        let inner = line
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| DataError::Parse {
                line: lineno,
                message: "unterminated sparse row".into(),
            })?;
        let n = self.attributes.len();
        self.sparse.clear();
        self.sparse.resize(n, 0.0);
        if !inner.trim().is_empty() {
            let mut parts = Fields::new(inner);
            while let Some(part) = parts.next(&mut self.scratch) {
                let mut it = part.splitn(2, char::is_whitespace);
                let idx: usize =
                    it.next()
                        .unwrap_or("")
                        .trim()
                        .parse()
                        .map_err(|_| DataError::Parse {
                            line: lineno,
                            message: "bad sparse index".into(),
                        })?;
                let val = it.next().unwrap_or("").trim();
                if idx >= n {
                    return Err(DataError::Parse {
                        line: lineno,
                        message: format!("sparse index {idx} out of range"),
                    });
                }
                let attr = &self.attributes[idx];
                self.sparse[idx] = if val == "?" {
                    Value::MISSING
                } else {
                    match (&self.labels[idx], attr.kind()) {
                        (Some(table), _) => {
                            Value::from_index(table.get(&unquote(val)).ok_or_else(|| {
                                DataError::Parse {
                                    line: lineno,
                                    message: format!("label {val:?} not in domain"),
                                }
                            })?)
                        }
                        (None, AttributeKind::Str) => {
                            Value::from_index(self.strings.intern(&unquote(val)))
                        }
                        (None, _) => parse_finite(val, lineno)?,
                    }
                };
            }
        }
        let num_strings = self.strings.table.len();
        let cells = self.attributes.iter().zip(&self.sparse);
        for ((attr, &v), column) in cells.clone().zip(&self.columns) {
            column.validate_encoded(v, attr, num_strings)?;
        }
        for ((attr, &v), column) in cells.zip(&mut self.columns) {
            column
                .push_encoded(v, attr, num_strings)
                .expect("validated above");
        }
        self.rows += 1;
        Ok(())
    }
}

/// The fields of one line, split in place at unquoted commas. Quotes
/// are dropped and `\` escapes the next character inside quotes; each
/// field is trimmed after unquoting. A field with no quote is a slice
/// of the line; a quoted one is unescaped into the caller's scratch
/// buffer.
struct Fields<'l> {
    line: &'l str,
    pos: usize,
    done: bool,
}

impl<'l> Fields<'l> {
    fn new(line: &'l str) -> Fields<'l> {
        Fields {
            line,
            pos: 0,
            done: false,
        }
    }

    fn next<'s>(&mut self, scratch: &'s mut String) -> Option<&'s str>
    where
        'l: 's,
    {
        if self.done {
            return None;
        }
        let (line, bytes) = (self.line, self.line.as_bytes());
        let start = self.pos;
        let mut i = start;
        while i < bytes.len() && bytes[i] != b',' && bytes[i] != b'\'' {
            i += 1;
        }
        let field = if i == bytes.len() || bytes[i] == b',' {
            &line[start..i]
        } else {
            // Quoted: copy the runs between quotes and escapes. Every
            // delimiter is ASCII, so each run is on char boundaries.
            scratch.clear();
            let (mut run, mut in_quote, mut escaped) = (start, false, false);
            while i < bytes.len() {
                if escaped {
                    escaped = false;
                } else {
                    match bytes[i] {
                        b'\\' if in_quote => escaped = true,
                        b'\'' => in_quote = !in_quote,
                        b',' if !in_quote => break,
                        _ => {
                            i += 1;
                            continue;
                        }
                    }
                    scratch.push_str(&line[run..i]);
                    run = i + 1;
                }
                i += 1;
            }
            scratch.push_str(&line[run..i]);
            scratch.as_str()
        };
        if i == bytes.len() {
            self.done = true;
        } else {
            self.pos = i + 1;
        }
        Some(trim(field))
    }
}

/// `s.trim()`, skipping its char walk when both ends of `s` are
/// visible ASCII: such a byte is a whole char, and never whitespace.
#[inline]
fn trim(s: &str) -> &str {
    match s.as_bytes() {
        [first, .., last] if first.is_ascii_graphic() && last.is_ascii_graphic() => s,
        [only] if only.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

/// Domains of up to this many labels are searched by [`label_key`].
const KEYED_LABELS: usize = 64;

/// Odd multipliers tried, in order, to spread a domain's keys over
/// distinct slots.
const SPREADS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xd6e8_feb8_6659_fd93,
];

/// A label, its first code, and its [`label_key`]; an empty slot's key
/// is `u64::MAX`, which no `str` has (it would end in byte `0xFF`).
#[derive(Clone, Copy)]
struct Slot<'a> {
    key: u64,
    label: &'a str,
    code: usize,
}

/// Label→code lookup of one nominal domain, built once at `@data`; a
/// repeated label resolves to its first code.
enum LabelTable<'a> {
    /// Each distinct label in the slot its key spreads to, no two
    /// sharing a key or a slot: a field can equal only the label in its
    /// own slot, so a key compare and one byte compare decide.
    Keyed {
        slots: Vec<Slot<'a>>,
        spread: u64,
        shift: u32,
    },
    /// Domains larger than [`KEYED_LABELS`], or whose keys collide.
    Hashed(HashMap<&'a str, usize>),
}

impl<'a> LabelTable<'a> {
    fn new(domain: &'a [String]) -> LabelTable<'a> {
        if domain.len() > KEYED_LABELS {
            return LabelTable::Hashed(label_index(domain));
        }
        let mut distinct: Vec<Slot<'a>> = Vec::with_capacity(domain.len());
        for (code, label) in domain.iter().enumerate() {
            let key = label_key(label);
            match distinct.iter().find(|s| s.key == key) {
                None => distinct.push(Slot { key, label, code }),
                Some(s) if s.label == label => {}
                Some(_) => return LabelTable::Hashed(label_index(domain)),
            }
        }
        // At least twice as many slots as labels (and two), up to eight
        // times.
        let bits = (2 * distinct.len())
            .next_power_of_two()
            .trailing_zeros()
            .max(1);
        for bits in bits..=bits + 2 {
            for spread in SPREADS {
                let shift = 64 - bits;
                let empty = Slot {
                    key: u64::MAX,
                    label: "",
                    code: 0,
                };
                let mut slots = vec![empty; 1 << bits];
                let placed = distinct.iter().all(|s| {
                    let slot = &mut slots[(s.key.wrapping_mul(spread) >> shift) as usize];
                    let free = slot.key == u64::MAX;
                    *slot = *s;
                    free
                });
                if placed {
                    return LabelTable::Keyed {
                        slots,
                        spread,
                        shift,
                    };
                }
            }
        }
        LabelTable::Hashed(label_index(domain))
    }

    /// The code of `field`, `None` when it is not in the domain.
    #[inline]
    fn get(&self, field: &str) -> Option<usize> {
        match self {
            LabelTable::Keyed {
                slots,
                spread,
                shift,
            } => {
                let key = label_key(field);
                let slot = &slots[(key.wrapping_mul(*spread) >> shift) as usize];
                // Up to two bytes, a label is its key.
                let same = slot.key == key && (field.len() <= 2 || slot.label == field);
                same.then_some(slot.code)
            }
            LabelTable::Hashed(index) => index.get(field).copied(),
        }
    }
}

/// A label's length and its first and last bytes, packed; 0 for the
/// empty label.
#[inline]
fn label_key(label: &str) -> u64 {
    let bytes = label.as_bytes();
    match (bytes.first(), bytes.last()) {
        (Some(&first), Some(&last)) => {
            (bytes.len() as u64) << 16 | u64::from(first) << 8 | u64::from(last)
        }
        _ => 0,
    }
}

/// Label→code index of a nominal domain; a repeated label resolves to
/// its first code.
fn label_index(labels: &[String]) -> HashMap<&str, usize> {
    let mut index = HashMap::with_capacity(labels.len());
    for (code, label) in labels.iter().enumerate() {
        index.entry(label.as_str()).or_insert(code);
    }
    index
}

/// A string table with a hash index, so interning is O(1) per cell;
/// ids are assigned in first-seen order.
#[derive(Default)]
struct Interner {
    table: Vec<String>,
    ids: HashMap<Box<str>, usize>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> usize {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.table.len();
        self.table.push(s.to_owned());
        self.ids.insert(s.into(), id);
        id
    }
}

/// Parse a numeric literal, rejecting non-finite values: `NaN` would
/// silently alias the missing-value sentinel and infinities poison
/// summary statistics, so both are malformed input here (WEKA's ARFF
/// has no non-finite literals either — `?` is the only missing marker).
fn parse_finite(field: &str, lineno: usize) -> Result<f64> {
    field
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| DataError::Parse {
            line: lineno,
            message: format!("{field:?} is not a finite number (use '?' for missing)"),
        })
}

fn parse_attribute_decl(decl: &str, lineno: usize) -> Result<Attribute> {
    // Name may be quoted and may contain spaces when quoted.
    let (name, rest) = take_token(decl);
    if name.is_empty() {
        return Err(DataError::Parse {
            line: lineno,
            message: "missing attribute name".into(),
        });
    }
    let rest = rest.trim();
    if rest.starts_with('{') {
        let inner = rest
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| DataError::Parse {
                line: lineno,
                message: "unterminated nominal domain".into(),
            })?;
        let mut labels = Vec::new();
        let (mut fields, mut scratch) = (Fields::new(inner), String::new());
        while let Some(label) = fields.next(&mut scratch) {
            labels.push(label.to_string());
        }
        Ok(Attribute::nominal(name, labels))
    } else {
        match rest.to_ascii_lowercase().as_str() {
            "numeric" | "real" | "integer" => Ok(Attribute::numeric(name)),
            "string" => Ok(Attribute::string(name)),
            other if other.starts_with("date") => {
                // Dates are stored as numeric timestamps; format is ignored.
                Ok(Attribute::numeric(name))
            }
            other => Err(DataError::Parse {
                line: lineno,
                message: format!("unsupported attribute type {other:?}"),
            }),
        }
    }
}

/// Serialise a dataset to ARFF text, into one buffer: nominal labels
/// are quoted once per attribute, and no cell allocates.
pub fn write_arff(ds: &Dataset) -> String {
    let mut out = String::with_capacity(64 + ds.num_instances() * ds.num_attributes() * 8);
    out.push_str("@relation ");
    push_quoted(&mut out, ds.relation());
    out.push_str("\n\n");
    for attr in ds.attributes() {
        out.push_str("@attribute ");
        push_quoted(&mut out, attr.name());
        out.push(' ');
        out.push_str(&attr.arff_type());
        out.push('\n');
    }
    out.push_str("\n@data\n");
    let labels: Vec<Vec<String>> = ds
        .attributes()
        .iter()
        .map(|a| a.labels().iter().map(|l| quote_if_needed(l)).collect())
        .collect();
    for row in 0..ds.num_instances() {
        for (a, attr) in ds.attributes().iter().enumerate() {
            if a > 0 {
                out.push(',');
            }
            let v = ds.value(row, a);
            if Value::is_missing(v) {
                out.push('?');
                continue;
            }
            match attr.kind() {
                AttributeKind::Numeric => write_numeric(&mut out, v),
                AttributeKind::Nominal(_) => match labels[a].get(Value::as_index(v)) {
                    Some(label) => out.push_str(label),
                    None => push_unknown_index(&mut out, v),
                },
                AttributeKind::Str => match ds.string_at(Value::as_index(v)) {
                    Some(s) => push_quoted(&mut out, s),
                    None => push_unknown_index(&mut out, v),
                },
            }
        }
        out.push('\n');
    }
    out
}

/// The `#<index>` placeholder [`Dataset::format_value`] renders for an
/// index with no label or string behind it.
fn push_unknown_index(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    let _ = write!(out, "#{}", Value::as_index(v));
}

/// Quote a token with single quotes when it contains ARFF separators.
pub fn quote_if_needed(token: &str) -> String {
    let mut out = String::with_capacity(token.len());
    push_quoted(&mut out, token);
    out
}

/// Append `token` to `out`, single-quoted (with `'` escaped) when it is
/// empty or contains an ARFF separator.
fn push_quoted(out: &mut String, token: &str) {
    if token.is_empty() || token.contains([' ', ',', '{', '}', '%', '\'', '"']) {
        out.push('\'');
        for (i, part) in token.split('\'').enumerate() {
            if i > 0 {
                out.push_str("\\'");
            }
            out.push_str(part);
        }
        out.push('\'');
    } else {
        out.push_str(token);
    }
}

/// Remove a trailing `%` comment, honouring quoting.
fn strip_comment(line: &str) -> &str {
    if !line.contains('%') {
        return line;
    }
    let mut in_quote = false;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        match b {
            b'\'' => in_quote = !in_quote,
            b'%' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Take the first (possibly quoted) whitespace-delimited token.
fn take_token(s: &str) -> (String, &str) {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('\'') {
        if let Some(end) = rest.find('\'') {
            return (rest[..end].to_string(), &rest[end + 1..]);
        }
    }
    match s.find(char::is_whitespace) {
        Some(end) => (s[..end].to_string(), &s[end..]),
        None => (s.to_string(), ""),
    }
}

fn unquote(s: &str) -> Cow<'_, str> {
    let s = s.trim();
    if s.len() >= 2 && s.starts_with('\'') && s.ends_with('\'') {
        Cow::Owned(s[1..s.len() - 1].replace("\\'", "'"))
    } else {
        Cow::Borrowed(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: &str = "% a toy relation\n\
        @relation 'toy set'\n\
        @attribute outlook {sunny, overcast, rainy}\n\
        @attribute temperature real\n\
        @attribute 'play time' numeric\n\
        @attribute play {yes,no}\n\
        @data\n\
        sunny, 85, 5, no   % hot day\n\
        overcast, 83, 10, yes\n\
        rainy, ?, 0, yes\n";

    #[test]
    fn parse_toy() {
        let ds = parse_arff(TOY).unwrap();
        assert_eq!(ds.relation(), "toy set");
        assert_eq!(ds.num_attributes(), 4);
        assert_eq!(ds.num_instances(), 3);
        assert_eq!(ds.attribute(0).unwrap().labels().len(), 3);
        assert_eq!(ds.attribute(2).unwrap().name(), "play time");
        assert!(ds.instance(2).is_missing(1));
        assert_eq!(ds.instance(0).label(3), Some("no"));
    }

    #[test]
    fn roundtrip_preserves_values() {
        let ds = parse_arff(TOY).unwrap();
        let text = write_arff(&ds);
        let ds2 = parse_arff(&text).unwrap();
        assert_eq!(ds.num_instances(), ds2.num_instances());
        for r in 0..ds.num_instances() {
            for a in 0..ds.num_attributes() {
                let (x, y) = (ds.value(r, a), ds2.value(r, a));
                assert!(x.is_nan() == y.is_nan());
                if !x.is_nan() {
                    assert!((x - y).abs() < 1e-9, "mismatch at {r},{a}");
                }
            }
        }
    }

    #[test]
    fn sparse_rows() {
        let text = "@relation s\n@attribute a numeric\n@attribute b numeric\n@attribute c {u,v}\n@data\n{0 3, 2 v}\n{}\n";
        let ds = parse_arff(text).unwrap();
        assert_eq!(ds.num_instances(), 2);
        assert_eq!(ds.value(0, 0), 3.0);
        assert_eq!(ds.value(0, 1), 0.0);
        assert_eq!(ds.instance(0).label(2), Some("v"));
        assert_eq!(ds.value(1, 0), 0.0);
    }

    #[test]
    fn integer_and_date_types() {
        let text =
            "@relation t\n@attribute n integer\n@attribute d date yyyy-MM-dd\n@data\n4,100\n";
        let ds = parse_arff(text).unwrap();
        assert!(ds.attribute(0).unwrap().is_numeric());
        assert!(ds.attribute(1).unwrap().is_numeric());
    }

    #[test]
    fn string_attributes_interned() {
        let text = "@relation t\n@attribute note string\n@data\nhello\nhello\nworld\n";
        let ds = parse_arff(text).unwrap();
        assert_eq!(ds.value(0, 0), ds.value(1, 0));
        assert_ne!(ds.value(0, 0), ds.value(2, 0));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "@relation t\n@attribute a numeric\n@data\nnot_a_number\n";
        match parse_arff(text) {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_data_section_is_error() {
        let text = "@relation t\n@attribute a numeric\n";
        assert!(parse_arff(text).is_err());
    }

    #[test]
    fn unknown_header_line_is_error() {
        let text = "@relation t\n@bogus x\n@data\n";
        assert!(parse_arff(text).is_err());
    }

    #[test]
    fn wrong_arity_row_is_error() {
        let text = "@relation t\n@attribute a numeric\n@attribute b numeric\n@data\n1\n";
        match parse_arff(text) {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 5),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_numeric_literals_rejected() {
        for literal in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let text = format!("@relation t\n@attribute a numeric\n@data\n{literal}\n");
            match parse_arff(&text) {
                Err(DataError::Parse { line, message }) => {
                    assert_eq!(line, 4, "{literal}");
                    assert!(message.contains("finite"), "{literal}: {message}");
                }
                other => panic!("{literal} accepted as numeric: {other:?}"),
            }
        }
        // Sparse rows run through the same guard.
        let sparse = "@relation t\n@attribute a numeric\n@data\n{0 NaN}\n";
        assert!(parse_arff(sparse).is_err());
        // The explicit missing marker still works in both forms.
        let ok = "@relation t\n@attribute a numeric\n@data\n?\n{0 ?}\n";
        let ds = parse_arff(ok).unwrap();
        assert!(ds.instance(0).is_missing(0));
        assert!(ds.instance(1).is_missing(0));
    }

    #[test]
    fn quoting_labels_with_spaces() {
        let a = Attribute::nominal("x", ["big label", "ok"]);
        let mut ds = Dataset::new("q", vec![a]);
        ds.push_labels(&["big label"]).unwrap();
        let text = write_arff(&ds);
        assert!(text.contains("'big label'"));
        let ds2 = parse_arff(&text).unwrap();
        assert_eq!(ds2.instance(0).label(0), Some("big label"));
    }

    #[test]
    fn wrong_arity_is_reported_before_a_bad_cell() {
        let text = "@relation t\n@attribute a numeric\n@attribute b numeric\n@data\nx,1,2\n";
        match parse_arff(text) {
            Err(DataError::Parse { line: 5, message }) => {
                assert!(message.contains("row has 3 values"), "{message}")
            }
            other => panic!("expected an arity error, got {other:?}"),
        }
    }

    #[test]
    fn label_table_keys_small_domains_and_hashes_colliding_or_large_ones() {
        let domain =
            |labels: &[&str]| -> Vec<String> { labels.iter().map(|l| l.to_string()).collect() };
        let keyed = |domain: &[String]| matches!(LabelTable::new(domain), LabelTable::Keyed { .. });
        let small = domain(&["sunny", "rainy", "", "é", "a", "a", "中文x"]);
        assert!(keyed(&small));
        let table = LabelTable::new(&small);
        for (field, code) in [
            ("sunny", Some(0)),
            ("rainy", Some(1)),
            ("", Some(2)),
            ("é", Some(3)),
        ] {
            assert_eq!(table.get(field), code, "{field:?}");
        }
        assert_eq!(table.get("a"), Some(4));
        assert_eq!(table.get("中文x"), Some(6));
        // `sonny` and `rainz` share keys with labels but are not in the domain.
        assert_eq!(table.get("sonny"), None);
        assert_eq!(table.get("rainz"), None);
        assert_eq!(table.get("b"), None);
        let colliding = domain(&["abc", "axc"]);
        assert!(!keyed(&colliding));
        assert_eq!(LabelTable::new(&colliding).get("axc"), Some(1));
        let at_limit: Vec<String> = (0..KEYED_LABELS)
            .map(|i| format!("{}{}", (b'A' + (i % 26) as u8) as char, i / 26))
            .collect();
        assert!(keyed(&at_limit));
        let past: Vec<String> = (0..=KEYED_LABELS)
            .map(|i| format!("{}{}", (b'A' + (i % 26) as u8) as char, i / 26))
            .collect();
        assert!(!keyed(&past));
    }

    #[test]
    fn trim_matches_str_trim() {
        for s in [
            "",
            "a",
            " a",
            "a ",
            "\ta\t",
            "ab",
            "é",
            " é ",
            "\u{a0}x\u{a0}",
            "x\u{3000}",
            "?",
            "a b",
        ] {
            assert_eq!(trim(s), s.trim(), "{s:?}");
        }
    }

    #[test]
    fn label_index_resolves_first_occurrence_and_interner_keeps_first_seen_order() {
        let labels: Vec<String> = ["a", "b", "a", ""].iter().map(|s| s.to_string()).collect();
        let index = label_index(&labels);
        assert_eq!(index.get("a"), Some(&0));
        assert_eq!(index.get(""), Some(&3));
        assert_eq!(index.get("c"), None);
        let mut strings = Interner::default();
        for i in 0..1000 {
            assert_eq!(strings.intern(&format!("s{i}")), i);
        }
        assert_eq!(strings.intern("s0"), 0);
        assert_eq!(strings.intern("s999"), 999);
        assert_eq!(strings.table.len(), 1000);
    }
}
