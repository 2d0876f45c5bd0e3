//! Cross-crate integration tests for `faehim-rs` live in this
//! package's `tests/` directory; the library itself is empty.

#![forbid(unsafe_code)]
