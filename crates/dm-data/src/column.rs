//! Columnar storage primitives: validity bitmaps, dense nominal code
//! buffers, and the per-attribute [`Column`] containers behind
//! [`crate::Dataset`], plus the zero-copy [`ColumnView`] borrows the
//! mining kernels scan.
//!
//! Layout (see DESIGN.md for the diagram):
//!
//! * numeric attributes: contiguous `Vec<f64>`;
//! * nominal attributes: dense integer codes, `u8` when the domain has
//!   at most 256 labels, `u16` up to 65 536, `u32` beyond;
//! * string attributes: `u32` indices into the dataset string table;
//! * missingness: one validity bit per row (1 = present) instead of the
//!   row-major `NaN` sentinel; the backing cell of a missing value is a
//!   deterministic `0`.

use crate::attribute::{Attribute, AttributeKind};
use crate::error::{DataError, Result};

/// A per-row validity bitmap: bit `i` is 1 when row `i` holds a value
/// and 0 when it is missing. Trailing bits of the last word are always
/// zero, so derived equality is structural.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no rows are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Validity of row `i` (`true` = present).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Append one row's validity.
    #[inline]
    pub fn push(&mut self, valid: bool) {
        if self.len & 63 == 0 {
            self.words.push(0);
        }
        if valid {
            *self.words.last_mut().expect("pushed above") |= 1u64 << (self.len & 63);
        }
        self.len += 1;
    }

    /// Overwrite the validity of row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        if valid {
            self.words[i >> 6] |= mask;
        } else {
            self.words[i >> 6] &= !mask;
        }
    }

    /// Count of missing (zero) rows.
    pub fn count_missing(&self) -> usize {
        self.len
            - self
                .words
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// `true` when every covered row is valid — the fast-path guard the
    /// kernels use to skip per-row validity tests.
    pub fn all_valid(&self) -> bool {
        if self.len == 0 {
            return true;
        }
        let full = self.len >> 6;
        if self.words[..full].iter().any(|&w| w != u64::MAX) {
            return false;
        }
        let rem = self.len & 63;
        rem == 0 || self.words[full] == (1u64 << rem) - 1
    }

    /// `true` when at least one covered row is missing.
    pub fn any_missing(&self) -> bool {
        !self.all_valid()
    }
}

/// Dense nominal code storage; width chosen from the attribute's arity.
#[derive(Debug, Clone, PartialEq)]
pub enum Codes {
    /// Domains with at most 256 labels.
    U8(Vec<u8>),
    /// Domains with at most 65 536 labels.
    U16(Vec<u16>),
    /// Larger domains (and a safety net for degenerate headers).
    U32(Vec<u32>),
}

impl Codes {
    /// An empty code buffer sized for a domain of `arity` labels.
    pub fn for_arity(arity: usize) -> Codes {
        if arity <= 1 << 8 {
            Codes::U8(Vec::new())
        } else if arity <= 1 << 16 {
            Codes::U16(Vec::new())
        } else {
            Codes::U32(Vec::new())
        }
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        match self {
            Codes::U8(v) => v.len(),
            Codes::U16(v) => v.len(),
            Codes::U32(v) => v.len(),
        }
    }

    /// `true` when no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The code at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        match self {
            Codes::U8(v) => v[i] as usize,
            Codes::U16(v) => v[i] as usize,
            Codes::U32(v) => v[i] as usize,
        }
    }

    /// Append a code (caller has range-checked it against the arity).
    #[inline]
    pub fn push(&mut self, code: usize) {
        match self {
            Codes::U8(v) => v.push(code as u8),
            Codes::U16(v) => v.push(code as u16),
            Codes::U32(v) => v.push(code as u32),
        }
    }

    /// Overwrite the code at row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, code: usize) {
        match self {
            Codes::U8(v) => v[i] = code as u8,
            Codes::U16(v) => v[i] = code as u16,
            Codes::U32(v) => v[i] = code as u32,
        }
    }

    /// A borrowed view of the codes.
    pub fn view(&self) -> CodesView<'_> {
        match self {
            Codes::U8(v) => CodesView::U8(v),
            Codes::U16(v) => CodesView::U16(v),
            Codes::U32(v) => CodesView::U32(v),
        }
    }
}

/// Borrowed nominal codes (one variant per storage width).
#[derive(Debug, Clone, Copy)]
pub enum CodesView<'a> {
    /// `u8`-backed codes.
    U8(&'a [u8]),
    /// `u16`-backed codes.
    U16(&'a [u16]),
    /// `u32`-backed codes.
    U32(&'a [u32]),
}

impl CodesView<'_> {
    /// The code at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        match self {
            CodesView::U8(v) => v[i] as usize,
            CodesView::U16(v) => v[i] as usize,
            CodesView::U32(v) => v[i] as usize,
        }
    }

    /// Number of codes in the view.
    pub fn len(&self) -> usize {
        match self {
            CodesView::U8(v) => v.len(),
            CodesView::U16(v) => v.len(),
            CodesView::U32(v) => v.len(),
        }
    }

    /// `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One attribute's worth of values in columnar layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Numeric attribute: raw values (missing cells hold `0.0`).
    Numeric {
        /// Contiguous cell values.
        values: Vec<f64>,
        /// Per-row validity.
        valid: Bitmap,
    },
    /// Nominal attribute: dense domain-index codes.
    Nominal {
        /// Dense codes (missing cells hold `0`).
        codes: Codes,
        /// Domain size, for insert-time range validation.
        arity: usize,
        /// Per-row validity.
        valid: Bitmap,
    },
    /// String attribute: indices into the dataset string table.
    Str {
        /// Interned string-table ids (missing cells hold `0`).
        ids: Vec<u32>,
        /// Per-row validity.
        valid: Bitmap,
    },
}

impl Column {
    /// An empty column matching `attr`'s kind.
    pub fn for_attribute(attr: &Attribute) -> Column {
        match attr.kind() {
            AttributeKind::Nominal(labels) => Column::Nominal {
                codes: Codes::for_arity(labels.len()),
                arity: labels.len(),
                valid: Bitmap::new(),
            },
            AttributeKind::Numeric => Column::Numeric {
                values: Vec::new(),
                valid: Bitmap::new(),
            },
            AttributeKind::Str => Column::Str {
                ids: Vec::new(),
                valid: Bitmap::new(),
            },
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric { valid, .. }
            | Column::Nominal { valid, .. }
            | Column::Str { valid, .. } => valid.len(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Numeric { valid, .. }
            | Column::Nominal { valid, .. }
            | Column::Str { valid, .. } => valid,
        }
    }

    /// The encoded `f64` value at row `i` (`NaN` when missing) — the
    /// row-major compatibility shim behind [`crate::Dataset::value`].
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            Column::Numeric { values, valid } => {
                if valid.get(i) {
                    values[i]
                } else {
                    f64::NAN
                }
            }
            Column::Nominal { codes, valid, .. } => {
                if valid.get(i) {
                    codes.get(i) as f64
                } else {
                    f64::NAN
                }
            }
            Column::Str { ids, valid } => {
                if valid.get(i) {
                    ids[i] as f64
                } else {
                    f64::NAN
                }
            }
        }
    }

    /// `true` when row `i` is missing.
    #[inline]
    pub fn is_missing(&self, i: usize) -> bool {
        !self.validity().get(i)
    }

    /// Check an encoded value without storing it — the read-only half
    /// of [`Column::push_encoded`], used to validate a whole row before
    /// any column is mutated (so a rejected row leaves no ragged state).
    pub fn validate_encoded(&self, v: f64, attr: &Attribute, num_strings: usize) -> Result<()> {
        if v.is_nan() {
            return Ok(());
        }
        match self {
            Column::Numeric { .. } => Ok(()),
            Column::Nominal { arity, .. } => check_code(v, *arity, attr).map(|_| ()),
            Column::Str { .. } => check_code(v, num_strings, attr).map(|_| ()),
        }
    }

    /// Append one encoded value (`NaN` = missing). Nominal codes are
    /// validated against the domain arity; string ids against
    /// `num_strings` (the interned-table length at insert time).
    pub fn push_encoded(&mut self, v: f64, attr: &Attribute, num_strings: usize) -> Result<()> {
        if v.is_nan() {
            self.push_missing();
            return Ok(());
        }
        match self {
            Column::Numeric { .. } => self.push_number(v),
            Column::Nominal { arity, .. } => {
                let code = check_code(v, *arity, attr)?;
                self.push_index(code);
            }
            Column::Str { .. } => self.push_index(check_code(v, num_strings, attr)?),
        }
        Ok(())
    }

    /// Append a missing cell (its backing slot holds the zero filler).
    #[inline]
    pub(crate) fn push_missing(&mut self) {
        match self {
            Column::Numeric { values, valid } => {
                values.push(0.0);
                valid.push(false);
            }
            Column::Nominal { codes, valid, .. } => {
                codes.push(0);
                valid.push(false);
            }
            Column::Str { ids, valid } => {
                ids.push(0);
                valid.push(false);
            }
        }
    }

    /// Append a present numeric cell (numeric columns only).
    #[inline]
    pub(crate) fn push_number(&mut self, v: f64) {
        match self {
            Column::Numeric { values, valid } => {
                values.push(v);
                valid.push(true);
            }
            _ => unreachable!("push_number on a non-numeric column"),
        }
    }

    /// Append a present nominal code or string-table id, already checked
    /// against the domain by the caller (nominal and string columns only).
    #[inline]
    pub(crate) fn push_index(&mut self, index: usize) {
        match self {
            Column::Nominal { codes, valid, .. } => {
                codes.push(index);
                valid.push(true);
            }
            Column::Str { ids, valid } => {
                ids.push(index as u32);
                valid.push(true);
            }
            Column::Numeric { .. } => unreachable!("push_index on a numeric column"),
        }
    }

    /// Overwrite row `i` with an encoded value (`NaN` = missing).
    ///
    /// Panics when a nominal code is outside the attribute's domain —
    /// unlike the fallible insert path, in-place rewrites are only
    /// produced by fitted filters whose codes are constructed in range.
    #[inline]
    pub fn set_encoded(&mut self, i: usize, v: f64) {
        if v.is_nan() {
            match self {
                Column::Numeric { values, valid } => {
                    values[i] = 0.0;
                    valid.set(i, false);
                }
                Column::Nominal { codes, valid, .. } => {
                    codes.set(i, 0);
                    valid.set(i, false);
                }
                Column::Str { ids, valid } => {
                    ids[i] = 0;
                    valid.set(i, false);
                }
            }
            return;
        }
        match self {
            Column::Numeric { values, valid } => {
                values[i] = v;
                valid.set(i, true);
            }
            Column::Nominal {
                codes,
                arity,
                valid,
            } => {
                let code = v as usize;
                assert!(
                    v >= 0.0 && v == v.trunc() && code < *arity,
                    "nominal code {v} out of range (domain arity {arity})"
                );
                codes.set(i, code);
                valid.set(i, true);
            }
            Column::Str { ids, valid } => {
                ids[i] = v as u32;
                valid.set(i, true);
            }
        }
    }

    /// Copy row `i` of `src` onto the end of `self` without the f64
    /// round trip (columns must be of the same kind).
    pub fn push_from(&mut self, src: &Column, i: usize) {
        match (self, src) {
            (
                Column::Numeric { values, valid },
                Column::Numeric {
                    values: sv,
                    valid: svalid,
                },
            ) => {
                let ok = svalid.get(i);
                values.push(if ok { sv[i] } else { 0.0 });
                valid.push(ok);
            }
            (
                Column::Nominal { codes, valid, .. },
                Column::Nominal {
                    codes: sc,
                    valid: svalid,
                    ..
                },
            ) => {
                let ok = svalid.get(i);
                codes.push(if ok { sc.get(i) } else { 0 });
                valid.push(ok);
            }
            (
                Column::Str { ids, valid },
                Column::Str {
                    ids: si,
                    valid: svalid,
                },
            ) => {
                let ok = svalid.get(i);
                ids.push(if ok { si[i] } else { 0 });
                valid.push(ok);
            }
            _ => panic!("push_from across mismatched column kinds"),
        }
    }

    /// Count of missing rows (popcount over the validity bitmap).
    pub fn missing_count(&self) -> usize {
        self.validity().count_missing()
    }

    /// A zero-copy borrow of the column.
    pub fn view(&self) -> ColumnView<'_> {
        match self {
            Column::Numeric { values, valid } => ColumnView::Numeric { values, valid },
            Column::Nominal { codes, valid, .. } => ColumnView::Nominal {
                codes: codes.view(),
                valid,
            },
            Column::Str { ids, valid } => ColumnView::Str { ids, valid },
        }
    }
}

/// Validate an encoded nominal/string value against its domain size.
fn check_code(v: f64, arity: usize, attr: &Attribute) -> Result<usize> {
    if v >= 0.0 && v == v.trunc() && (v as usize) < arity {
        Ok(v as usize)
    } else {
        Err(DataError::NominalRange {
            attribute: attr.name().to_string(),
            code: crate::dataset::format_numeric(v),
            arity,
        })
    }
}

/// A zero-copy borrowed view of one column — what the vectorized
/// kernels in `dm-algorithms` scan instead of per-cell `value()` calls.
#[derive(Debug, Clone, Copy)]
pub enum ColumnView<'a> {
    /// Numeric attribute.
    Numeric {
        /// Contiguous cell values (missing cells hold `0.0`).
        values: &'a [f64],
        /// Per-row validity.
        valid: &'a Bitmap,
    },
    /// Nominal attribute.
    Nominal {
        /// Dense codes.
        codes: CodesView<'a>,
        /// Per-row validity.
        valid: &'a Bitmap,
    },
    /// String attribute.
    Str {
        /// Interned string-table ids.
        ids: &'a [u32],
        /// Per-row validity.
        valid: &'a Bitmap,
    },
}

impl<'a> ColumnView<'a> {
    /// The validity bitmap.
    #[inline]
    pub fn validity(&self) -> &'a Bitmap {
        match self {
            ColumnView::Numeric { valid, .. }
            | ColumnView::Nominal { valid, .. }
            | ColumnView::Str { valid, .. } => valid,
        }
    }

    /// `true` when row `i` is missing.
    #[inline]
    pub fn is_missing(&self, i: usize) -> bool {
        !self.validity().get(i)
    }

    /// The encoded `f64` value at row `i` (`NaN` when missing).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            ColumnView::Numeric { values, valid } => {
                if valid.get(i) {
                    values[i]
                } else {
                    f64::NAN
                }
            }
            ColumnView::Nominal { codes, valid } => {
                if valid.get(i) {
                    codes.get(i) as f64
                } else {
                    f64::NAN
                }
            }
            ColumnView::Str { ids, valid } => {
                if valid.get(i) {
                    ids[i] as f64
                } else {
                    f64::NAN
                }
            }
        }
    }

    /// The domain/string-table index at row `i`, `None` when missing —
    /// the hoisted-out-of-the-loop accessor for contingency counting.
    #[inline]
    pub fn index_at(&self, i: usize) -> Option<usize> {
        match self {
            ColumnView::Nominal { codes, valid } => valid.get(i).then(|| codes.get(i)),
            ColumnView::Str { ids, valid } => valid.get(i).then(|| ids[i] as usize),
            ColumnView::Numeric { values, valid } => valid.get(i).then(|| values[i] as usize),
        }
    }

    /// The numeric cell slice and validity, when this is a numeric
    /// column (missing cells hold `0.0` in the slice).
    #[inline]
    pub fn numeric(&self) -> Option<(&'a [f64], &'a Bitmap)> {
        match self {
            ColumnView::Numeric { values, valid } => Some((values, valid)),
            _ => None,
        }
    }

    /// The code view and validity, when this is a nominal column.
    #[inline]
    pub fn nominal(&self) -> Option<(CodesView<'a>, &'a Bitmap)> {
        match self {
            ColumnView::Nominal { codes, valid } => Some((*codes, valid)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get_set() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 != 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 != 0, "bit {i}");
        }
        assert_eq!(b.count_missing(), 44); // 0,3,..,129
        assert!(b.any_missing());
        b.set(0, true);
        assert!(b.get(0));
        b.set(1, false);
        assert!(!b.get(1));
    }

    #[test]
    fn bitmap_all_valid_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 128, 200] {
            let mut b = Bitmap::new();
            for _ in 0..n {
                b.push(true);
            }
            assert!(b.all_valid(), "n={n}");
            assert_eq!(b.count_missing(), 0, "n={n}");
            if n > 0 {
                b.set(n - 1, false);
                assert!(!b.all_valid(), "n={n}");
                assert_eq!(b.count_missing(), 1, "n={n}");
            }
        }
    }

    #[test]
    fn codes_width_by_arity() {
        assert!(matches!(Codes::for_arity(2), Codes::U8(_)));
        assert!(matches!(Codes::for_arity(256), Codes::U8(_)));
        assert!(matches!(Codes::for_arity(257), Codes::U16(_)));
        assert!(matches!(Codes::for_arity(1 << 16), Codes::U16(_)));
        assert!(matches!(Codes::for_arity((1 << 16) + 1), Codes::U32(_)));
    }

    #[test]
    fn codes_roundtrip() {
        let mut c = Codes::for_arity(300);
        c.push(0);
        c.push(299);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(1), 299);
        c.set(0, 7);
        assert_eq!(c.get(0), 7);
        assert_eq!(c.view().get(1), 299);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn nominal_column_rejects_out_of_range() {
        let attr = Attribute::nominal("c", ["a", "b"]);
        let mut col = Column::for_attribute(&attr);
        col.push_encoded(1.0, &attr, 0).unwrap();
        let err = col.push_encoded(2.0, &attr, 0).unwrap_err();
        assert!(matches!(err, DataError::NominalRange { arity: 2, .. }));
        let err = col.push_encoded(-1.0, &attr, 0).unwrap_err();
        assert!(matches!(err, DataError::NominalRange { .. }));
        let err = col.push_encoded(0.5, &attr, 0).unwrap_err();
        assert!(matches!(err, DataError::NominalRange { .. }));
        // Missing always accepted.
        col.push_encoded(f64::NAN, &attr, 0).unwrap();
        assert_eq!(col.len(), 2);
        assert!(col.is_missing(1));
        assert_eq!(col.get(0), 1.0);
    }

    #[test]
    fn numeric_column_missing_holds_zero_filler() {
        let attr = Attribute::numeric("x");
        let mut col = Column::for_attribute(&attr);
        col.push_encoded(3.5, &attr, 0).unwrap();
        col.push_encoded(f64::NAN, &attr, 0).unwrap();
        assert_eq!(col.get(0), 3.5);
        assert!(col.get(1).is_nan());
        let (values, valid) = col.view().numeric().unwrap();
        assert_eq!(values, &[3.5, 0.0]);
        assert!(!valid.get(1));
        assert_eq!(col.missing_count(), 1);
    }

    #[test]
    fn set_encoded_flips_validity() {
        let attr = Attribute::numeric("x");
        let mut col = Column::for_attribute(&attr);
        col.push_encoded(1.0, &attr, 0).unwrap();
        col.set_encoded(0, f64::NAN);
        assert!(col.is_missing(0));
        col.set_encoded(0, 9.0);
        assert_eq!(col.get(0), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_encoded_panics_on_bad_nominal_code() {
        let attr = Attribute::nominal("c", ["a", "b"]);
        let mut col = Column::for_attribute(&attr);
        col.push_encoded(0.0, &attr, 0).unwrap();
        col.set_encoded(0, 5.0);
    }

    #[test]
    fn push_from_copies_missing_state() {
        let attr = Attribute::nominal("c", ["a", "b", "c"]);
        let mut src = Column::for_attribute(&attr);
        src.push_encoded(2.0, &attr, 0).unwrap();
        src.push_encoded(f64::NAN, &attr, 0).unwrap();
        let mut dst = Column::for_attribute(&attr);
        dst.push_from(&src, 1);
        dst.push_from(&src, 0);
        assert!(dst.is_missing(0));
        assert_eq!(dst.get(1), 2.0);
    }

    #[test]
    fn index_at_none_when_missing() {
        let attr = Attribute::nominal("c", ["a", "b"]);
        let mut col = Column::for_attribute(&attr);
        col.push_encoded(1.0, &attr, 0).unwrap();
        col.push_encoded(f64::NAN, &attr, 0).unwrap();
        assert_eq!(col.view().index_at(0), Some(1));
        assert_eq!(col.view().index_at(1), None);
    }
}
