//! The core data model: [`Dataset`] (WEKA `Instances` equivalent),
//! [`Instance`] row views, [`Value`] encoding helpers, and
//! [`block_ranges`], the row partition blocked scans use.

use crate::attribute::{Attribute, AttributeKind};
use crate::column::{Column, ColumnView};
use crate::error::{DataError, Result};

/// Helpers for the `f64` value encoding used at the [`Dataset`] API
/// boundary (rows enter and leave as encoded `f64` cells even though
/// storage is columnar).
///
/// * numeric attributes store their value directly;
/// * nominal attributes store the label's domain index as `f64`;
/// * string attributes store an index into the dataset string table;
/// * a missing value (ARFF `?`) is `f64::NAN`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value;

impl Value {
    /// The encoding of a missing value.
    pub const MISSING: f64 = f64::NAN;

    /// `true` if `v` encodes a missing value.
    #[inline]
    pub fn is_missing(v: f64) -> bool {
        v.is_nan()
    }

    /// Decode a nominal/string value to its domain index.
    ///
    /// Callers must have checked for missingness; a missing value maps to
    /// index 0 only by accident of `as` casting, so debug builds assert.
    #[inline]
    pub fn as_index(v: f64) -> usize {
        debug_assert!(!v.is_nan(), "as_index called on a missing value");
        v as usize
    }

    /// Encode a domain index as a stored value.
    #[inline]
    pub fn from_index(i: usize) -> f64 {
        i as f64
    }
}

/// A borrowed view of one row of a [`Dataset`].
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    dataset: &'a Dataset,
    row: usize,
}

impl<'a> Instance<'a> {
    /// Raw encoded value at attribute `attr`.
    #[inline]
    pub fn value(&self, attr: usize) -> f64 {
        self.dataset.value(self.row, attr)
    }

    /// `true` if the value at `attr` is missing.
    #[inline]
    pub fn is_missing(&self, attr: usize) -> bool {
        self.dataset.is_missing(self.row, attr)
    }

    /// Nominal label at `attr`, or `None` if missing / not nominal.
    pub fn label(&self, attr: usize) -> Option<&'a str> {
        let v = self.value(attr);
        if Value::is_missing(v) {
            return None;
        }
        let a = self.dataset.attribute(attr).ok()?;
        a.labels().get(Value::as_index(v)).map(String::as_str)
    }

    /// The row index of this instance within its dataset.
    #[inline]
    pub fn row(&self) -> usize {
        self.row
    }

    /// The instance weight (1.0 unless reweighted by a filter).
    #[inline]
    pub fn weight(&self) -> f64 {
        self.dataset.weight(self.row)
    }
}

/// A dataset: a relation name, an attribute header, per-attribute
/// columnar value buffers with validity bitmaps, per-row weights, and
/// an optional class attribute index.
///
/// Storage is columnar (see [`crate::column`]): numeric attributes are
/// contiguous `Vec<f64>`, nominal attributes dense `u8`/`u16` codes,
/// string attributes interned-id buffers, and missingness lives in one
/// validity bit per cell. Rows still enter and leave through the
/// encoded-`f64` API (`push_row`, `value`, [`Instance`]), so parsers,
/// filters, and services are unaffected by the layout.
///
/// ```
/// use dm_data::{Attribute, Dataset};
/// let mut ds = Dataset::new("weather", vec![
///     Attribute::nominal("outlook", ["sunny", "rainy"]),
///     Attribute::numeric("humidity"),
///     Attribute::nominal("play", ["yes", "no"]),
/// ]);
/// ds.set_class_index(Some(2)).unwrap();
/// ds.push_row(vec![0.0, 85.0, 1.0]).unwrap();
/// assert_eq!(ds.num_instances(), 1);
/// assert_eq!(ds.instance(0).label(0), Some("sunny"));
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    relation: String,
    attributes: Vec<Attribute>,
    /// One columnar buffer per attribute; all share `num_rows`.
    columns: Vec<Column>,
    num_rows: usize,
    weights: Vec<f64>,
    class_index: Option<usize>,
    /// Interned values of string attributes (shared across columns).
    strings: Vec<String>,
}

/// Refuse a weight every sum over the rows would turn to NaN or ±∞.
fn check_weight(row: usize, w: f64) -> Result<()> {
    if w.is_finite() {
        Ok(())
    } else {
        Err(DataError::InvalidParameter(format!(
            "weight {w} of row {row} is not finite"
        )))
    }
}

impl PartialEq for Dataset {
    /// Structural equality with missing-value semantics: two missing
    /// cells compare equal (the columnar store keeps a deterministic
    /// zero filler under cleared validity bits, so derived column
    /// equality is exactly value-plus-missingness equality).
    fn eq(&self, other: &Self) -> bool {
        self.relation == other.relation
            && self.attributes == other.attributes
            && self.class_index == other.class_index
            && self.strings == other.strings
            && self.weights == other.weights
            && self.num_rows == other.num_rows
            && self.columns == other.columns
    }
}

impl Dataset {
    /// Create an empty dataset with the given relation name and header.
    pub fn new<N: Into<String>>(relation: N, attributes: Vec<Attribute>) -> Self {
        let columns = attributes.iter().map(Column::for_attribute).collect();
        Dataset {
            relation: relation.into(),
            attributes,
            columns,
            num_rows: 0,
            weights: Vec::new(),
            class_index: None,
            strings: Vec::new(),
        }
    }

    /// Assemble a dataset from column buffers a reader filled directly:
    /// every column holds `rows` cells, string cells index `strings`,
    /// and every row weighs 1.0.
    pub(crate) fn from_columns(
        relation: String,
        attributes: Vec<Attribute>,
        columns: Vec<Column>,
        rows: usize,
        strings: Vec<String>,
    ) -> Dataset {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Dataset {
            relation,
            attributes,
            columns,
            num_rows: rows,
            weights: vec![1.0; rows],
            class_index: None,
            strings,
        }
    }

    /// A copy with each attribute for which `replace` gives a new
    /// attribute and column swapped for them; every other column is
    /// cloned, and the weights, class index and string table carry
    /// over. A new column must hold one cell per row.
    pub(crate) fn with_replaced_columns(
        &self,
        mut replace: impl FnMut(usize) -> Option<(Attribute, Column)>,
    ) -> Dataset {
        let (mut attributes, mut columns) = (Vec::new(), Vec::new());
        for (a, (attr, column)) in self.attributes.iter().zip(&self.columns).enumerate() {
            let (attr, column) = replace(a).unwrap_or_else(|| (attr.clone(), column.clone()));
            debug_assert_eq!(column.len(), self.num_rows);
            attributes.push(attr);
            columns.push(column);
        }
        Dataset {
            relation: self.relation.clone(),
            attributes,
            columns,
            num_rows: self.num_rows,
            weights: self.weights.clone(),
            class_index: self.class_index,
            strings: self.strings.clone(),
        }
    }

    /// The relation name (ARFF `@relation`).
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Number of attributes (columns).
    #[inline]
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Number of instances (rows).
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.num_rows
    }

    /// Attribute descriptor at `index`.
    pub fn attribute(&self, index: usize) -> Result<&Attribute> {
        self.attributes.get(index).ok_or(DataError::AttributeIndex {
            index,
            len: self.attributes.len(),
        })
    }

    /// All attribute descriptors.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Index of the attribute named `name`.
    pub fn attribute_index(&self, name: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name() == name)
            .ok_or_else(|| DataError::UnknownAttribute(name.to_string()))
    }

    /// The class attribute index, if set.
    #[inline]
    pub fn class_index(&self) -> Option<usize> {
        self.class_index
    }

    /// Set (or clear) the class attribute index.
    pub fn set_class_index(&mut self, index: Option<usize>) -> Result<()> {
        if let Some(i) = index {
            if i >= self.attributes.len() {
                return Err(DataError::AttributeIndex {
                    index: i,
                    len: self.attributes.len(),
                });
            }
        }
        self.class_index = index;
        Ok(())
    }

    /// Set the class attribute by name.
    pub fn set_class_by_name(&mut self, name: &str) -> Result<()> {
        let i = self.attribute_index(name)?;
        self.class_index = Some(i);
        Ok(())
    }

    /// The class attribute descriptor, or `Err(NoClass)`.
    pub fn class_attribute(&self) -> Result<&Attribute> {
        let i = self.class_index.ok_or(DataError::NoClass)?;
        self.attribute(i)
    }

    /// Number of class labels (errors if no class or class not nominal).
    pub fn num_classes(&self) -> Result<usize> {
        let a = self.class_attribute()?;
        if !a.is_nominal() {
            return Err(DataError::KindMismatch {
                attribute: a.name().to_string(),
                expected: "nominal",
            });
        }
        Ok(a.num_labels())
    }

    /// Append a row of encoded values (with weight 1.0).
    ///
    /// Nominal and string cells are validated against their domain at
    /// insert time: a non-integral or out-of-range code is rejected
    /// with [`DataError::NominalRange`] and the dataset is unchanged.
    pub fn push_row(&mut self, row: Vec<f64>) -> Result<()> {
        self.push_row_weighted(row, 1.0)
    }

    /// Append a row of encoded values with an explicit weight. Same
    /// insert-time validation as [`Dataset::push_row`]; a NaN or
    /// infinite weight is refused as [`Dataset::set_weight`] refuses it.
    pub fn push_row_weighted(&mut self, row: Vec<f64>, weight: f64) -> Result<()> {
        check_weight(self.num_rows, weight)?;
        if row.len() != self.attributes.len() {
            return Err(DataError::Arity {
                got: row.len(),
                expected: self.attributes.len(),
            });
        }
        // Validate the whole row first so a rejected cell leaves the
        // columns un-ragged.
        let num_strings = self.strings.len();
        for (a, &v) in row.iter().enumerate() {
            self.columns[a].validate_encoded(v, &self.attributes[a], num_strings)?;
        }
        for (a, &v) in row.iter().enumerate() {
            self.columns[a]
                .push_encoded(v, &self.attributes[a], num_strings)
                .expect("validated above");
        }
        self.num_rows += 1;
        self.weights.push(weight);
        Ok(())
    }

    /// Append a row given per-attribute textual values (`"?"` = missing).
    /// Nominal labels are resolved against each attribute's domain.
    pub fn push_labels<S: AsRef<str>>(&mut self, fields: &[S]) -> Result<()> {
        if fields.len() != self.attributes.len() {
            return Err(DataError::Arity {
                got: fields.len(),
                expected: self.attributes.len(),
            });
        }
        let mut row = Vec::with_capacity(fields.len());
        for (field, attr) in fields.iter().zip(&self.attributes) {
            row.push(self.encode_field(field.as_ref(), attr)?);
        }
        self.push_row(row)
    }

    fn encode_field(&self, field: &str, attr: &Attribute) -> Result<f64> {
        if field == "?" {
            return Ok(Value::MISSING);
        }
        match attr.kind() {
            AttributeKind::Nominal(_) => {
                attr.label_index(field)
                    .map(Value::from_index)
                    .ok_or_else(|| DataError::UnknownLabel {
                        attribute: attr.name().to_string(),
                        label: field.to_string(),
                    })
            }
            AttributeKind::Numeric => field.parse::<f64>().map_err(|_| DataError::Parse {
                line: 0,
                message: format!("{field:?} is not numeric (attribute {:?})", attr.name()),
            }),
            AttributeKind::Str => Err(DataError::KindMismatch {
                attribute: attr.name().to_string(),
                expected: "nominal or numeric (use push_string_row for string attributes)",
            }),
        }
    }

    /// Intern a string value and return its table index (for `Str`
    /// attributes).
    pub fn intern_string<S: Into<String>>(&mut self, s: S) -> usize {
        let s = s.into();
        if let Some(i) = self.strings.iter().position(|x| *x == s) {
            return i;
        }
        self.strings.push(s);
        self.strings.len() - 1
    }

    /// Resolve an interned string index.
    pub fn string_at(&self, index: usize) -> Option<&str> {
        self.strings.get(index).map(String::as_str)
    }

    /// The interned string pool; `Str` cells hold indices into this
    /// slice.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Encoded value at (`row`, `attr`) — `NaN` when missing.
    #[inline]
    pub fn value(&self, row: usize, attr: usize) -> f64 {
        self.columns[attr].get(row)
    }

    /// `true` when the cell at (`row`, `attr`) is missing (one validity
    /// bit probe; no `NaN` comparison).
    #[inline]
    pub fn is_missing(&self, row: usize, attr: usize) -> bool {
        self.columns[attr].is_missing(row)
    }

    /// Overwrite the encoded value at (`row`, `attr`). `NaN` clears the
    /// cell's validity bit (marks it missing). Panics when a nominal
    /// code is outside the attribute's domain — in-place rewrites come
    /// from fitted filters whose codes are constructed in range; the
    /// fallible insert path is [`Dataset::push_row`].
    #[inline]
    pub fn set_value(&mut self, row: usize, attr: usize, v: f64) {
        self.columns[attr].set_encoded(row, v);
    }

    /// The weight of `row`.
    #[inline]
    pub fn weight(&self, row: usize) -> f64 {
        self.weights[row]
    }

    /// Every row's weight, in row order.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Set the weight of `row`. A NaN or infinite weight is refused
    /// with [`DataError::InvalidParameter`] and the weight is left as
    /// it was; zero and negative weights are kept.
    pub fn set_weight(&mut self, row: usize, w: f64) -> Result<()> {
        check_weight(row, w)?;
        self.weights[row] = w;
        Ok(())
    }

    /// Gather row `row` into a freshly allocated encoded-value vector
    /// (`NaN` = missing). For repeated gathers prefer
    /// [`Dataset::copy_row_into`] with a reused buffer.
    pub fn row_values(&self, row: usize) -> Vec<f64> {
        let mut buf = Vec::with_capacity(self.attributes.len());
        for col in &self.columns {
            buf.push(col.get(row));
        }
        buf
    }

    /// Gather row `row` into `buf` (cleared first).
    pub fn copy_row_into(&self, row: usize, buf: &mut Vec<f64>) {
        buf.clear();
        buf.reserve(self.attributes.len());
        for col in &self.columns {
            buf.push(col.get(row));
        }
    }

    /// Borrow row `row` as an [`Instance`] view.
    #[inline]
    pub fn instance(&self, row: usize) -> Instance<'_> {
        Instance { dataset: self, row }
    }

    /// Zero-copy borrow of column `attr`'s buffers — the accessor the
    /// vectorized kernels hoist out of their row loops.
    #[inline]
    pub fn column(&self, attr: usize) -> ColumnView<'_> {
        self.columns[attr].view()
    }

    /// A dataset with the same header (and class index) but no rows.
    pub fn header_clone(&self) -> Dataset {
        Dataset {
            relation: self.relation.clone(),
            attributes: self.attributes.clone(),
            columns: self.attributes.iter().map(Column::for_attribute).collect(),
            num_rows: 0,
            weights: Vec::new(),
            class_index: self.class_index,
            strings: self.strings.clone(),
        }
    }

    /// Copy row `row` of `src` into `self` (headers must agree in arity).
    pub fn push_instance_from(&mut self, src: &Dataset, row: usize) -> Result<()> {
        if src.num_attributes() != self.num_attributes() {
            return Err(DataError::Arity {
                got: src.num_attributes(),
                expected: self.num_attributes(),
            });
        }
        if self.attributes == src.attributes {
            // Same header: copy codes column-to-column, no f64 round trip.
            for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
                dst.push_from(s, row);
            }
            self.num_rows += 1;
            self.weights.push(src.weight(row));
            Ok(())
        } else {
            self.push_row_weighted(src.row_values(row), src.weight(row))
        }
    }

    /// Build a sub-dataset from the given row indices.
    pub fn select_rows(&self, rows: &[usize]) -> Dataset {
        let mut out = self.header_clone();
        for &r in rows {
            for (dst, src) in out.columns.iter_mut().zip(&self.columns) {
                dst.push_from(src, r);
            }
            out.weights.push(self.weights[r]);
        }
        out.num_rows = rows.len();
        out
    }

    /// Class distribution (weighted counts per label). Errors if the
    /// class is unset or non-nominal. Missing classes are skipped.
    pub fn class_counts(&self) -> Result<Vec<f64>> {
        let ci = self.class_index.ok_or(DataError::NoClass)?;
        let k = self.num_classes()?;
        let mut counts = vec![0.0; k];
        let col = self.columns[ci].view();
        for row in 0..self.num_instances() {
            if let Some(c) = col.index_at(row) {
                counts[c] += self.weights[row];
            }
        }
        Ok(counts)
    }

    /// Total instance weight.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// `true` if any value in column `attr` is missing (one bitmap
    /// sweep, no per-cell `NaN` tests).
    pub fn has_missing(&self, attr: usize) -> bool {
        self.columns[attr].validity().any_missing()
    }

    /// Number of missing cells in column `attr` (popcount over the
    /// validity bitmap).
    pub fn missing_count(&self, attr: usize) -> usize {
        self.columns[attr].missing_count()
    }

    /// Textual rendering of a value for display / ARFF writing.
    pub fn format_value(&self, row: usize, attr: usize) -> String {
        let v = self.value(row, attr);
        if Value::is_missing(v) {
            return "?".to_string();
        }
        match self.attributes[attr].kind() {
            AttributeKind::Nominal(labels) => labels
                .get(Value::as_index(v))
                .cloned()
                .unwrap_or_else(|| format!("#{}", Value::as_index(v))),
            AttributeKind::Numeric => format_numeric(v),
            AttributeKind::Str => self
                .string_at(Value::as_index(v))
                .map(str::to_string)
                .unwrap_or_else(|| format!("#{}", Value::as_index(v))),
        }
    }
}

/// Split `0..n` into up to `blocks` near-equal contiguous ranges (the
/// first `n % blocks` ranges are one longer). Never returns an empty
/// range: fewer than `blocks` ranges come back when `n < blocks`, and
/// `n == 0` yields none. Purely a function of `(n, blocks)`, so callers
/// that merge per-block results in block order stay deterministic at
/// any worker count.
pub fn block_ranges(n: usize, blocks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || blocks == 0 {
        return Vec::new();
    }
    let blocks = blocks.min(n);
    let base = n / blocks;
    let extra = n % blocks;
    let mut ranges = Vec::with_capacity(blocks);
    let mut start = 0;
    for b in 0..blocks {
        let len = base + usize::from(b < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Format a numeric value the way ARFF writers conventionally do: no
/// trailing `.0` for integral values.
pub(crate) fn format_numeric(v: f64) -> String {
    let mut out = String::new();
    write_numeric(&mut out, v);
    out
}

/// Append [`format_numeric`]'s rendering of `v` to `out` without an
/// intermediate `String`.
pub(crate) fn write_numeric(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    let _ = if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weather() -> Dataset {
        let mut ds = Dataset::new(
            "weather",
            vec![
                Attribute::nominal("outlook", ["sunny", "overcast", "rainy"]),
                Attribute::numeric("temperature"),
                Attribute::nominal("play", ["yes", "no"]),
            ],
        );
        ds.set_class_index(Some(2)).unwrap();
        ds.push_labels(&["sunny", "85", "no"]).unwrap();
        ds.push_labels(&["overcast", "83", "yes"]).unwrap();
        ds.push_labels(&["rainy", "?", "yes"]).unwrap();
        ds
    }

    #[test]
    fn counts_and_shapes() {
        let ds = weather();
        assert_eq!(ds.num_instances(), 3);
        assert_eq!(ds.num_attributes(), 3);
        assert_eq!(ds.num_classes().unwrap(), 2);
        assert_eq!(ds.class_counts().unwrap(), vec![2.0, 1.0]);
    }

    #[test]
    fn missing_values_roundtrip() {
        let ds = weather();
        assert!(ds.instance(2).is_missing(1));
        assert!(!ds.instance(0).is_missing(1));
        assert!(ds.has_missing(1));
        assert!(!ds.has_missing(0));
        assert_eq!(ds.missing_count(1), 1);
        assert_eq!(ds.missing_count(0), 0);
        assert_eq!(ds.format_value(2, 1), "?");
        assert!(ds.value(2, 1).is_nan());
    }

    #[test]
    fn label_lookup() {
        let ds = weather();
        assert_eq!(ds.instance(0).label(0), Some("sunny"));
        assert_eq!(ds.instance(1).label(2), Some("yes"));
        assert_eq!(ds.instance(2).label(1), None); // numeric attr
    }

    #[test]
    fn unknown_label_rejected() {
        let mut ds = weather();
        let err = ds.push_labels(&["snowy", "1", "yes"]).unwrap_err();
        assert!(matches!(err, DataError::UnknownLabel { .. }));
    }

    #[test]
    fn arity_enforced() {
        let mut ds = weather();
        assert!(matches!(
            ds.push_row(vec![0.0, 1.0]),
            Err(DataError::Arity {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn out_of_range_nominal_code_rejected_at_insert() {
        // Regression test (ISSUE 7 satellite 1): a nominal code beyond
        // the domain used to be stored silently and only blow up in a
        // later label() lookup; it must now fail at push_row time.
        let mut ds = weather();
        let before = ds.clone();
        let err = ds.push_row(vec![3.0, 70.0, 0.0]).unwrap_err();
        assert!(matches!(
            err,
            DataError::NominalRange {
                ref attribute,
                arity: 3,
                ..
            } if attribute == "outlook"
        ));
        // Non-integral codes are just as invalid.
        let err = ds.push_row(vec![0.5, 70.0, 0.0]).unwrap_err();
        assert!(matches!(err, DataError::NominalRange { .. }));
        // Negative codes too.
        let err = ds.push_row(vec![-1.0, 70.0, 0.0]).unwrap_err();
        assert!(matches!(err, DataError::NominalRange { .. }));
        // A failed insert leaves the dataset untouched, even when the
        // bad cell is not in the first column.
        let err = ds.push_row(vec![0.0, 70.0, 9.0]).unwrap_err();
        assert!(matches!(err, DataError::NominalRange { .. }));
        assert_eq!(ds, before);
    }

    #[test]
    fn select_rows_preserves_weights() {
        let mut ds = weather();
        ds.set_weight(1, 2.5).unwrap();
        let sub = ds.select_rows(&[1, 2]);
        assert_eq!(sub.num_instances(), 2);
        assert_eq!(sub.weight(0), 2.5);
        assert_eq!(sub.instance(0).label(0), Some("overcast"));
        assert_eq!(sub.class_index(), Some(2));
        assert!(sub.instance(1).is_missing(1));
    }

    #[test]
    fn header_clone_is_empty() {
        let ds = weather();
        let h = ds.header_clone();
        assert_eq!(h.num_instances(), 0);
        assert_eq!(h.num_attributes(), 3);
        assert_eq!(h.class_index(), Some(2));
    }

    #[test]
    fn class_by_name() {
        let mut ds = weather();
        ds.set_class_by_name("outlook").unwrap();
        assert_eq!(ds.class_index(), Some(0));
        assert!(ds.set_class_by_name("nope").is_err());
    }

    #[test]
    fn string_interning() {
        let mut ds = Dataset::new("s", vec![Attribute::string("note")]);
        let i = ds.intern_string("hello");
        let j = ds.intern_string("hello");
        assert_eq!(i, j);
        assert_eq!(ds.string_at(i), Some("hello"));
    }

    #[test]
    fn numeric_formatting() {
        assert_eq!(format_numeric(85.0), "85");
        assert_eq!(format_numeric(0.25), "0.25");
        assert_eq!(format_numeric(-3.0), "-3");
    }

    #[test]
    fn total_weight_sums() {
        let mut ds = weather();
        ds.set_weight(0, 0.5).unwrap();
        assert!((ds.total_weight() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn non_finite_weights_are_refused_and_change_nothing() {
        let mut ds = crate::corpus::breast_cancer();
        let rows = ds.num_instances();
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ds.set_weight(3, w).unwrap_err();
            assert!(
                matches!(&err, DataError::InvalidParameter(m) if m.contains("row 3")),
                "{err}"
            );
            assert_eq!(ds.weight(3), 1.0);
            let row = ds.row_values(0);
            assert!(matches!(
                ds.push_row_weighted(row, w),
                Err(DataError::InvalidParameter(_))
            ));
            assert_eq!(ds.num_instances(), rows);
        }
        assert_eq!(ds, crate::corpus::breast_cancer());
        // Zero and negative weights stay allowed: the tree learners'
        // oracle tests grow on them.
        ds.set_weight(3, -0.25).unwrap();
        ds.set_weight(4, 0.0).unwrap();
        ds.push_row_weighted(ds.row_values(0), -1.5).unwrap();
        assert_eq!(ds.weight(3), -0.25);
        assert_eq!(ds.weight(rows), -1.5);
    }

    #[test]
    fn set_value_flips_missingness_both_ways() {
        let mut ds = weather();
        ds.set_value(0, 1, Value::MISSING);
        assert!(ds.is_missing(0, 1));
        assert_eq!(ds.missing_count(1), 2);
        ds.set_value(2, 1, 64.0);
        assert!(!ds.is_missing(2, 1));
        assert_eq!(ds.value(2, 1), 64.0);
        assert_eq!(ds.missing_count(1), 1);
    }

    #[test]
    fn row_gather_matches_cellwise_access() {
        let ds = weather();
        let mut buf = Vec::new();
        for r in 0..ds.num_instances() {
            ds.copy_row_into(r, &mut buf);
            let gathered = ds.row_values(r);
            assert!(buf
                .iter()
                .zip(&gathered)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            for (a, &v) in buf.iter().enumerate() {
                let direct = ds.value(r, a);
                assert!(
                    v == direct || (v.is_nan() && direct.is_nan()),
                    "row {r} attr {a}"
                );
            }
        }
    }

    #[test]
    fn equality_treats_missing_as_equal() {
        let a = weather();
        let b = weather();
        assert_eq!(a, b);
        let mut c = weather();
        c.set_value(2, 1, 1.0);
        assert_ne!(a, c);
        c.set_value(2, 1, Value::MISSING);
        assert_eq!(a, c);
    }

    #[test]
    fn block_ranges_partition_exactly() {
        for n in [0usize, 1, 2, 7, 16, 100, 1001] {
            for blocks in [1usize, 2, 3, 8, 200] {
                let ranges = block_ranges(n, blocks);
                // Contiguous, in order, covering 0..n exactly once.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "n={n} blocks={blocks}");
                    assert!(!r.is_empty(), "n={n} blocks={blocks}");
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} blocks={blocks}");
                assert!(ranges.len() <= blocks.min(n.max(1)));
                // Near-equal: lengths differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1, "n={n} blocks={blocks}");
                }
            }
        }
        assert!(block_ranges(5, 0).is_empty());
    }

    #[test]
    fn push_instance_from_copies_columnar_state() {
        let ds = weather();
        let mut out = ds.header_clone();
        out.push_instance_from(&ds, 2).unwrap();
        out.push_instance_from(&ds, 0).unwrap();
        assert_eq!(out.num_instances(), 2);
        assert!(out.is_missing(0, 1));
        assert_eq!(out.instance(1).label(0), Some("sunny"));
        assert_eq!(out, ds.select_rows(&[2, 0]));
    }
}
