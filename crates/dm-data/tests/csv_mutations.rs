//! Mutation battery for the CSV reader.
//!
//! Every mutation of a valid CSV fixture must come back as `Ok` or as a
//! typed `DataError`, never as a panic, and what an accepted parse keeps
//! (cells, attribute names, labels) must be bounded by the input's byte
//! count. The mutations are every truncation, seeded byte flips, and a
//! `"`, `,`, `;`, `\r` or `\n` inserted at every offset (at seeded
//! offsets for the larger fixture), each read with the default options,
//! headerless, and with `;` as the separator.

#![forbid(unsafe_code)]

use dm_data::csv::{parse_csv_with, write_csv, CsvOptions};
use dm_data::{Dataset, Result};

/// SplitMix64, seeding the byte flips and sampled offsets.
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

/// The valid CSV texts the battery mutates.
fn fixtures() -> Vec<(&'static str, String)> {
    let breast_cancer = dm_data::corpus::breast_cancer();
    let rows: Vec<usize> = (0..40).collect();
    vec![
        (
            "breast-cancer, 40 rows",
            write_csv(&breast_cancer.select_rows(&rows)),
        ),
        ("weather", write_csv(&dm_data::corpus::weather_numeric())),
        (
            "quoted fields",
            "name,note,score\nalice,\"hello, world\",1.5\nbob,\"say \"\"hi\"\"\",?\n,\"\",-0\n"
                .to_string(),
        ),
        (
            "CRLF, missing cells and non-ASCII",
            "é,ü,n\r\n1,x,\r\n,y,2\r\n3,\u{1F600},4e2\r\n".to_string(),
        ),
    ]
}

/// The three ways the battery reads each mutation.
fn readings() -> [(&'static str, CsvOptions); 3] {
    [
        ("default", CsvOptions::default()),
        (
            "headerless",
            CsvOptions {
                has_header: false,
                ..CsvOptions::default()
            },
        ),
        (
            "semicolons",
            CsvOptions {
                separator: ';',
                ..CsvOptions::default()
            },
        ),
    ]
}

/// Parse `text` every way, failing the test on a panic or on a dataset
/// that keeps more than the input can account for: every row but the
/// last ends at a line break, a row of `c` cells needs `c - 1`
/// separators, and each attribute name and distinct label is a field of
/// the input (trimming and unquoting only shorten it), except the
/// `colN` names a headerless read makes up.
fn check(what: &str, text: &str) {
    for (reading, opts) in readings() {
        let parsed: Result<Dataset> = std::panic::catch_unwind(|| parse_csv_with(text, &opts))
            .unwrap_or_else(|_| panic!("{what}, read {reading}: the CSV reader panicked"));
        let Ok(ds) = parsed else { continue };
        let bytes = text.len();
        let lines = text.matches('\n').count() + 1;
        let cells = ds.num_instances() * ds.num_attributes();
        assert!(
            ds.num_instances() <= lines,
            "{what}, read {reading}: {} rows from {lines} lines",
            ds.num_instances()
        );
        assert!(
            cells <= bytes + lines,
            "{what}, read {reading}: {cells} cells from {bytes} bytes"
        );
        let kept: usize = ds
            .attributes()
            .iter()
            .map(|a| a.name().len() + a.labels().iter().map(String::len).sum::<usize>())
            .sum();
        let made_up = if opts.has_header {
            0
        } else {
            ds.num_attributes() * ("col".len() + 20)
        };
        assert!(
            kept <= bytes + made_up,
            "{what}, read {reading}: {kept} bytes of names and labels from {bytes}"
        );
    }
}

#[test]
fn every_truncation_is_ok_or_a_typed_error() {
    let mut checked = 0;
    for (name, text) in fixtures() {
        for len in (0..=text.len()).filter(|&len| text.is_char_boundary(len)) {
            check(&format!("{name} truncated to {len} bytes"), &text[..len]);
            checked += 1;
        }
    }
    assert!(checked > 3_000, "{checked} truncations");
}

#[test]
fn byte_flips_are_ok_or_a_typed_error() {
    let mut checked = 0;
    for (i, (name, text)) in fixtures().into_iter().enumerate() {
        let mut rng = SplitMix(0x5eed + i as u64);
        for copy in 0..400 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
            let mutated = String::from_utf8_lossy(&bytes);
            check(&format!("{name}, flip copy {copy}"), &mutated);
            checked += 1;
        }
    }
    assert_eq!(checked, 1_600);
}

#[test]
fn inserted_delimiters_are_ok_or_a_typed_error() {
    let mut checked = 0;
    for (i, (name, text)) in fixtures().into_iter().enumerate() {
        let offsets: Vec<usize> = (0..=text.len())
            .filter(|&at| text.is_char_boundary(at))
            .collect();
        // Every offset of the small fixtures; 400 seeded ones of the
        // breast-cancer rows, whose every offset would triple the
        // battery's unoptimised run time.
        let chosen: Vec<usize> = if offsets.len() <= 400 {
            offsets
        } else {
            let mut rng = SplitMix(0xd311 + i as u64);
            (0..400)
                .map(|_| offsets[rng.below(offsets.len())])
                .collect()
        };
        for &at in &chosen {
            for inserted in ["\"", ",", ";", "\r", "\n"] {
                let mutated = format!("{}{inserted}{}", &text[..at], &text[at..]);
                check(&format!("{name}, {inserted:?} inserted at {at}"), &mutated);
                checked += 1;
            }
        }
    }
    assert!(checked > 3_000, "{checked} insertions");
}
