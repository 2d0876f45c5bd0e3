//! # dm-data — dataset substrate for `faehim-rs`
//!
//! This crate is the data layer of the FAEHIM reproduction: an
//! attribute-relation data model equivalent to WEKA's `Instances`,
//! readers and writers for the ARFF and CSV formats, format converters,
//! summary statistics (reproducing Figure 3 of the paper), dataset
//! filters (discretisation, normalisation, missing-value replacement,
//! attribute removal, resampling), train/test and cross-validation
//! splitting, record streaming for remote data sources, and corpus
//! generators — most importantly a deterministic reconstruction of the
//! UCI *breast-cancer* dataset used in the paper's case study.
//!
//! ## Representation
//!
//! A [`Dataset`] owns a vector of [`Attribute`] descriptors and a
//! **columnar** store: one contiguous buffer per attribute (numeric
//! cells as `Vec<f64>`, nominal cells as dense `u8`/`u16` codes,
//! string cells as interned-table ids) plus a validity bitmap per
//! column marking missing cells. At the API boundary rows still travel
//! as encoded `f64` cells — nominal values as the label's domain
//! index, missing as `f64::NAN` (tested through [`Value`] helpers
//! rather than raw comparison) — so parsers and filters see WEKA's
//! encoding, while the mining kernels in `dm-algorithms` scan the
//! cache-friendly column buffers directly through zero-copy
//! [`ColumnView`] borrows.
//!
//! ## Quick example
//!
//! ```
//! use dm_data::prelude::*;
//!
//! let ds = dm_data::corpus::breast_cancer();
//! assert_eq!(ds.num_instances(), 286);
//! assert_eq!(ds.num_attributes(), 10);
//! let summary = DatasetSummary::of(&ds);
//! assert_eq!(summary.missing_values, 9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arff;
#[cfg(test)]
mod arff_reference;
pub mod attribute;
pub mod column;
pub mod convert;
pub mod corpus;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod filters;
pub mod split;
pub mod stream;
pub mod summary;

pub use attribute::{Attribute, AttributeKind};
pub use column::{Bitmap, Codes, CodesView, Column, ColumnView};
pub use dataset::{block_ranges, Dataset, Instance, Value};
pub use error::{DataError, Result};
pub use stream::{chunk_dataset, record_stream, RecordBatch, StreamHeader};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::arff::{parse_arff, write_arff};
    pub use crate::attribute::{Attribute, AttributeKind};
    pub use crate::csv::{parse_csv, write_csv};
    pub use crate::dataset::{Dataset, Instance, Value};
    pub use crate::error::{DataError, Result};
    pub use crate::split::{train_test_split, CrossValidation};
    pub use crate::summary::DatasetSummary;
}
