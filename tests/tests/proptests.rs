//! Property-based tests over the core data structures and invariants:
//! format round-trips, codec round-trips, envelope round-trips,
//! summary/count invariants, and classifier distribution laws.

#![forbid(unsafe_code)]

use dm_algorithms::state::{StateReader, StateWriter};
use dm_data::{arff, csv, Attribute, Dataset};
use dm_wsrf::soap::{SoapCall, SoapValue};
use proptest::prelude::*;

/// Strategy: a token safe to embed as an ARFF nominal label.
fn label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,11}".prop_map(|s| s)
}

/// Strategy: a small random mixed-type dataset.
fn dataset() -> impl Strategy<Value = Dataset> {
    (
        proptest::collection::vec(label(), 2..5), // nominal domain
        2usize..6,                                // numeric attrs? reuse as count
        1usize..30,                               // rows
        any::<u64>(),
    )
        .prop_map(|(labels, n_numeric, rows, seed)| {
            let mut labels = labels;
            labels.sort();
            labels.dedup();
            if labels.len() < 2 {
                labels = vec!["a".into(), "b".into()];
            }
            let mut attrs = vec![Attribute::nominal("cat", labels.clone())];
            for i in 0..n_numeric {
                attrs.push(Attribute::numeric(format!("x{i}")));
            }
            let mut ds = Dataset::new("prop", attrs);
            // Simple xorshift so the strategy stays pure.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..rows {
                let mut row = Vec::with_capacity(1 + n_numeric);
                let r = next();
                row.push(if r % 13 == 0 {
                    f64::NAN
                } else {
                    (r % labels.len() as u64) as f64
                });
                for _ in 0..n_numeric {
                    let v = next();
                    row.push(if v % 17 == 0 {
                        f64::NAN
                    } else {
                        (v % 10_000) as f64 / 8.0 - 600.0
                    });
                }
                ds.push_row(row).expect("arity");
            }
            ds
        })
}

fn datasets_equal(a: &Dataset, b: &Dataset) -> bool {
    if a.num_instances() != b.num_instances() || a.num_attributes() != b.num_attributes() {
        return false;
    }
    for r in 0..a.num_instances() {
        for c in 0..a.num_attributes() {
            let (x, y) = (a.value(r, c), b.value(r, c));
            if x.is_nan() != y.is_nan() {
                return false;
            }
            if !x.is_nan() && (x - y).abs() > 1e-9 {
                return false;
            }
        }
    }
    true
}

/// The five-entity escape, one char at a time: the reference the
/// chunked scan in `dm_wsrf::xml::escape` must match.
fn escape_by_char(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// The documented entity rule, one char at a time: the reference the
/// chunked, byte-pattern `dm_wsrf::xml::unescape` must match. An `&`
/// starts an entity only if a `;` follows within six bytes; the five
/// standard entities resolve, any other passes through whole, and an
/// `&` with no such `;` is literal.
fn unescape_by_char(s: &str) -> String {
    let mut out = String::new();
    let mut rest = s;
    while let Some(c) = rest.chars().next() {
        rest = &rest[c.len_utf8()..];
        if c != '&' {
            out.push(c);
            continue;
        }
        let semicolon = rest
            .char_indices()
            .take_while(|&(at, _)| at < 6)
            .find(|&(_, c)| c == ';');
        let Some((end, _)) = semicolon else {
            out.push('&');
            continue;
        };
        match &rest[..end] {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            name => {
                out.push('&');
                out.push_str(name);
                out.push(';');
            }
        }
        rest = &rest[end + 1..];
    }
    out
}

/// Fragments of entity-dense text: every entity, entity look-alikes cut
/// short or too long, lone `&` and `;`, and multi-byte characters.
const ENTITY_FRAGMENTS: &[&str] = &[
    "&amp;",
    "&lt;",
    "&gt;",
    "&quot;",
    "&apos;",
    "&",
    ";",
    "&am",
    "&amp",
    "&lt",
    "&x;",
    "&toolong;",
    "&#38;",
    "&&;",
    "a",
    "xy",
    " ",
    "é",
    "中",
    "😀",
    "<",
    ">",
    "\"",
    "'",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arff_roundtrip_preserves_values(ds in dataset()) {
        let text = arff::write_arff(&ds);
        let back = arff::parse_arff(&text).unwrap();
        prop_assert!(datasets_equal(&ds, &back));
    }

    #[test]
    fn csv_roundtrip_preserves_shape(ds in dataset()) {
        let text = csv::write_csv(&ds);
        let back = csv::parse_csv(&text).unwrap();
        prop_assert_eq!(back.num_instances(), ds.num_instances());
        prop_assert_eq!(back.num_attributes(), ds.num_attributes());
    }

    #[test]
    fn summary_counts_are_consistent(ds in dataset()) {
        let s = dm_data::summary::DatasetSummary::of(&ds);
        prop_assert_eq!(s.num_attributes, ds.num_attributes());
        let total_missing: usize = s.attributes.iter().map(|a| a.missing).sum();
        prop_assert_eq!(total_missing, s.missing_values);
        for a in &s.attributes {
            prop_assert!(a.distinct >= a.unique);
            prop_assert!(a.missing <= s.num_instances);
        }
    }

    #[test]
    fn split_partitions_rows(ds in dataset(), frac in 0.1f64..0.9, seed in any::<u64>()) {
        let (train, test) = dm_data::split::train_test_split(&ds, frac, seed).unwrap();
        prop_assert_eq!(train.num_instances() + test.num_instances(), ds.num_instances());
    }

    #[test]
    fn state_codec_roundtrips(
        ints in proptest::collection::vec(any::<u64>(), 0..20),
        floats in proptest::collection::vec(any::<f64>(), 0..20),
        text in ".{0,64}",
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut w = StateWriter::new();
        for &i in &ints { w.put_u64(i); }
        w.put_f64_slice(&floats);
        w.put_str(&text);
        w.put_bytes(&bytes);
        let buf = w.into_bytes();
        let mut r = StateReader::new(&buf);
        for &i in &ints {
            prop_assert_eq!(r.get_u64().unwrap(), i);
        }
        let fs = r.get_f64_vec().unwrap();
        prop_assert_eq!(fs.len(), floats.len());
        for (a, b) in fs.iter().zip(&floats) {
            prop_assert!(a.to_bits() == b.to_bits());
        }
        prop_assert_eq!(r.get_str().unwrap(), text);
        prop_assert_eq!(r.get_bytes().unwrap(), bytes);
        prop_assert!(r.is_exhausted());
    }

    #[test]
    fn soap_envelope_roundtrips(
        text in ".{0,48}",
        number in any::<i64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        flag in any::<bool>(),
    ) {
        let call = SoapCall::new("Svc", "op")
            .arg("text", SoapValue::Text(text.clone()))
            .arg("number", SoapValue::Int(number))
            .arg("payload", SoapValue::Bytes(payload.clone()))
            .arg("flag", SoapValue::Bool(flag));
        let xml = call.to_envelope();
        let back = SoapCall::from_envelope(&xml).unwrap();
        prop_assert_eq!(back.get("text").unwrap().as_text().unwrap(), text.as_str());
        prop_assert_eq!(back.get("number").unwrap().as_int().unwrap(), number);
        prop_assert_eq!(back.get("payload").unwrap().as_bytes().unwrap(), payload.as_slice());
    }

    #[test]
    fn xml_escaping_total(s in ".{0,128}") {
        let escaped = dm_wsrf::xml::escape(&s);
        prop_assert_eq!(dm_wsrf::xml::escaped_len(&s), escaped.len());
        prop_assert_eq!(&escaped, &escape_by_char(&s));
        prop_assert_eq!(&unescape_by_char(&escaped), &s);
        prop_assert_eq!(dm_wsrf::xml::unescape(&escaped), s);
    }

    #[test]
    fn xml_unescape_follows_the_char_rule(
        picks in proptest::collection::vec(0..ENTITY_FRAGMENTS.len(), 0..64)
    ) {
        let s: String = picks.iter().map(|&i| ENTITY_FRAGMENTS[i]).collect();
        prop_assert_eq!(dm_wsrf::xml::unescape(&s), unescape_by_char(&s));
        let escaped = dm_wsrf::xml::escape(&s);
        prop_assert_eq!(&escaped, &escape_by_char(&s));
        prop_assert_eq!(dm_wsrf::xml::escaped_len(&s), escaped.len());
        prop_assert_eq!(dm_wsrf::xml::unescape(&escaped), s);
    }

    #[test]
    fn classifier_distributions_are_probabilities(seed in any::<u64>(), noise in 0.0f64..0.4) {
        let ds = dm_data::corpus::nominal_classification(60, 4, 3, 2, noise, seed);
        for name in ["ZeroR", "NaiveBayes", "J48", "DecisionStump"] {
            let mut c = dm_algorithms::registry::make_classifier(name).unwrap();
            c.train(&ds).unwrap();
            for r in 0..ds.num_instances().min(10) {
                let d = c.distribution(&ds, r).unwrap();
                prop_assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{} sums", name);
                prop_assert!(d.iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p)), "{} range", name);
            }
        }
    }

    #[test]
    fn fft_satisfies_parseval(signal in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
        // Energy in time domain == energy in frequency domain / N.
        let spectrum = dm_algorithms::signal::fft(&signal).unwrap();
        let n = spectrum.len() as f64;
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spectrum.iter().map(|c| c.norm_sq()).sum::<f64>() / n;
        let scale = time_energy.abs().max(1.0);
        prop_assert!((time_energy - freq_energy).abs() / scale < 1e-9,
            "time {time_energy} vs freq {freq_energy}");
    }

    #[test]
    fn fft_ifft_identity(signal in proptest::collection::vec(-1e3f64..1e3, 1..128)) {
        let spectrum = dm_algorithms::signal::fft(&signal).unwrap();
        let back = dm_algorithms::signal::ifft(&spectrum).unwrap();
        for (orig, rec) in signal.iter().zip(&back) {
            prop_assert!((orig - rec.re).abs() < 1e-6);
            prop_assert!(rec.im.abs() < 1e-6);
        }
    }

    #[test]
    fn j48_pruning_never_grows_the_tree(seed in any::<u64>(), noise in 0.0f64..0.5) {
        use dm_algorithms::classifiers::{Classifier, J48};
        use dm_algorithms::options::Configurable;
        let ds = dm_data::corpus::nominal_classification(120, 5, 3, 2, noise, seed);
        let mut pruned = J48::new();
        pruned.train(&ds).unwrap();
        let mut unpruned = J48::new();
        unpruned.set_option("-U", "true").unwrap();
        unpruned.train(&ds).unwrap();
        prop_assert!(pruned.tree_size().unwrap() <= unpruned.tree_size().unwrap());
    }

    #[test]
    fn normalize_bounds_numeric_columns(ds in dataset()) {
        use dm_data::filters::{Filter, Normalize};
        let out = Normalize::fit(&ds).apply(&ds).unwrap();
        for a in 0..out.num_attributes() {
            if !out.attributes()[a].is_numeric() {
                continue;
            }
            for r in 0..out.num_instances() {
                let v = out.value(r, a);
                if !v.is_nan() {
                    prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "value {v}");
                }
            }
        }
    }

    #[test]
    fn replace_missing_leaves_no_gaps(ds in dataset()) {
        use dm_data::filters::{Filter, ReplaceMissing};
        let out = ReplaceMissing::fit(&ds).apply(&ds).unwrap();
        for a in 0..out.num_attributes() {
            // Columns that had at least one present value must be full.
            let had_value = (0..ds.num_instances()).any(|r| !ds.value(r, a).is_nan());
            if had_value {
                prop_assert!(!out.has_missing(a), "column {a} still has gaps");
            }
        }
    }

    #[test]
    fn incremental_nb_equals_batch(seed in any::<u64>(), split in 1usize..39) {
        use dm_algorithms::classifiers::{Classifier, NaiveBayes};
        let ds = dm_data::corpus::nominal_classification(40, 4, 3, 2, 0.3, seed);
        let mut batch = NaiveBayes::new();
        batch.train(&ds).unwrap();
        let first = ds.select_rows(&(0..split).collect::<Vec<_>>());
        let rest = ds.select_rows(&(split..40).collect::<Vec<_>>());
        let mut inc = NaiveBayes::new();
        inc.train(&first).unwrap();
        inc.partial_train(&rest).unwrap();
        for r in 0..ds.num_instances() {
            let a = batch.distribution(&ds, r).unwrap();
            let b = inc.distribution(&ds, r).unwrap();
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cross_validation_partitions(seed in any::<u64>(), k in 2usize..6) {
        let ds = dm_data::corpus::nominal_classification(50, 3, 2, 2, 0.2, seed);
        let cv = dm_data::split::CrossValidation::stratified(&ds, k, seed).unwrap();
        let mut seen = vec![false; ds.num_instances()];
        for fold in 0..cv.k() {
            for &row in cv.test_rows(fold) {
                prop_assert!(!seen[row]);
                seen[row] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

/// The edges of the text scans' 32-byte chunks and 8-byte words: each
/// special byte at every offset from 0 to 70 of strings of every length
/// up to 70, multi-byte characters next to a special byte after every
/// lead of 0 to 16 bytes and straddling offsets 32 and 64, and entities cut off at the end of a chunk and at
/// the end of the input. Escaping must match [`escape_by_char`], and
/// unescaping [`unescape_by_char`].
#[test]
fn xml_escaping_word_scan_edges() {
    let check = |s: &str| {
        let escaped = dm_wsrf::xml::escape(s);
        assert_eq!(escaped, escape_by_char(s), "{s:?}");
        assert_eq!(dm_wsrf::xml::escaped_len(s), escaped.len(), "{s:?}");
        let mut appended = String::from("prefix");
        dm_wsrf::xml::escape_into(s, &mut appended);
        assert_eq!(appended, format!("prefix{escaped}"), "{s:?}");
        assert_eq!(unescape_by_char(&escaped), s, "{s:?}");
        assert_eq!(dm_wsrf::xml::unescape(&escaped), s, "{s:?}");
        assert_eq!(dm_wsrf::xml::unescape(s), unescape_by_char(s), "{s:?}");
    };
    for len in 0..=70 {
        check(&"a".repeat(len));
        for special in ['&', '<', '>', '"', '\''] {
            for at in 0..len {
                let mut s: Vec<char> = vec!['a'; len];
                s[at] = special;
                check(&s.iter().collect::<String>());
                // Specials on both sides of a word or chunk boundary.
                s[len - 1] = special;
                check(&s.iter().collect::<String>());
            }
        }
    }
    for wide in ["é", "中", "😀"] {
        for lead in 0..=16 {
            for special in ["&", "<", "\"", "'", ">"] {
                let pad = "x".repeat(lead);
                check(&format!("{pad}{wide}{special}{wide}{pad}"));
                check(&format!("{pad}{special}{wide}{wide}"));
                check(&format!("{pad}{wide}{wide}{wide}{special}"));
            }
        }
        for boundary in [32, 64] {
            for lead in boundary - 4..=boundary {
                for special in ["&", "<", "\"", "'", ">"] {
                    let pad = "x".repeat(lead);
                    check(&format!("{pad}{wide}{special}{wide}{pad}"));
                    check(&format!("{pad}{special}{wide}{wide}"));
                    check(&format!("{pad}{wide}{wide}{wide}{special}"));
                }
            }
        }
    }
    // Entities, known and unknown, whole and cut short, starting at
    // every offset around the first two chunk ends, mid-input and at
    // the end of the input.
    for entity in [
        "&amp;",
        "&lt;",
        "&gt;",
        "&quot;",
        "&apos;",
        "&x;",
        "&amp",
        "&quo",
        "&",
        "&toolong;",
    ] {
        for lead in 24..=66 {
            let pad = "y".repeat(lead);
            for s in [
                format!("{pad}{entity}"),
                format!("{pad}{entity}{pad}"),
                format!("{pad}{entity}&lt;{entity}"),
                format!("{pad}é{entity}"),
            ] {
                assert_eq!(dm_wsrf::xml::unescape(&s), unescape_by_char(&s), "{s:?}");
                check(&s);
            }
        }
    }
}
