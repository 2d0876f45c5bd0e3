//! Corpus generators: datasets used by the paper's case study and by the
//! benchmark harness.
//!
//! The headline member is [`breast_cancer`], a deterministic
//! reconstruction of the UCI *breast-cancer* dataset (Ljubljana) used in
//! §5 of the paper. The raw UCI rows are not redistributable and the
//! build environment is offline, so the generator reproduces the
//! dataset's published *statistics* exactly — the Figure-3 table — and
//! its class-conditional structure (the strong `node-caps`/`deg-malig`
//! association with recurrence) so that the Figure-4 decision tree
//! reproduces. See DESIGN.md §2 for the substitution rationale.

mod breast_cancer;
mod synthetic;
mod weather;

pub use breast_cancer::{breast_cancer, breast_cancer_arff};
pub use synthetic::{gaussian_blobs, irregular, market_baskets, nominal_classification, BlobSpec};
pub use weather::{weather_nominal, weather_numeric};
