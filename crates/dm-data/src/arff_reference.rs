//! The ARFF reader and writer as they stood before the one-pass
//! rewrite in [`crate::arff`]: a row-at-a-time reader that splits each
//! line into owned fields and resolves every cell through the public
//! `Dataset` API, and a writer that formats every cell into its own
//! `String`. Kept only as the oracle for the differential and mutation
//! tests below: the production reader and writer must agree with these
//! on every input, errors included.

use crate::attribute::{Attribute, AttributeKind};
use crate::dataset::{Dataset, Value};
use crate::error::{DataError, Result};

/// Parse an ARFF document into a [`Dataset`], row by row.
pub fn parse_arff(text: &str) -> Result<Dataset> {
    let mut relation = String::from("unnamed");
    let mut attributes: Vec<Attribute> = Vec::new();
    let mut dataset: Option<Dataset> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(ds) = dataset.as_mut() {
            // Data section.
            if line.starts_with('{') {
                parse_sparse_row(ds, line, lineno + 1)?;
            } else {
                let fields = split_csv_line(line);
                push_textual_row(ds, &fields, lineno + 1)?;
            }
        } else if lower.starts_with("@relation") {
            relation = unquote(line["@relation".len()..].trim()).to_string();
        } else if lower.starts_with("@attribute") {
            attributes.push(parse_attribute_decl(
                line["@attribute".len()..].trim(),
                lineno + 1,
            )?);
        } else if lower.starts_with("@data") {
            if attributes.is_empty() {
                return Err(DataError::Parse {
                    line: lineno + 1,
                    message: "@data before any @attribute declaration".into(),
                });
            }
            dataset = Some(Dataset::new(relation.clone(), attributes.clone()));
        } else {
            return Err(DataError::Parse {
                line: lineno + 1,
                message: format!("unrecognised header line: {line:?}"),
            });
        }
    }

    dataset.ok_or(DataError::Parse {
        line: 0,
        message: "no @data section".into(),
    })
}

fn push_textual_row(ds: &mut Dataset, fields: &[String], lineno: usize) -> Result<()> {
    if fields.len() != ds.num_attributes() {
        return Err(DataError::Parse {
            line: lineno,
            message: format!(
                "row has {} values, header declares {} attributes",
                fields.len(),
                ds.num_attributes()
            ),
        });
    }
    // String attributes need interning, which push_labels does not do;
    // encode manually.
    let mut row = Vec::with_capacity(fields.len());
    for (i, field) in fields.iter().enumerate() {
        let attr = ds.attribute(i)?.clone();
        let v = if field == "?" {
            Value::MISSING
        } else {
            match attr.kind() {
                AttributeKind::Nominal(_) => {
                    Value::from_index(attr.label_index(field).ok_or_else(|| DataError::Parse {
                        line: lineno,
                        message: format!(
                            "label {field:?} not in domain of attribute {:?}",
                            attr.name()
                        ),
                    })?)
                }
                AttributeKind::Numeric => parse_finite(field, lineno)?,
                AttributeKind::Str => Value::from_index(ds.intern_string(field.clone())),
            }
        };
        row.push(v);
    }
    ds.push_row(row)?;
    Ok(())
}

fn parse_sparse_row(ds: &mut Dataset, line: &str, lineno: usize) -> Result<()> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| DataError::Parse {
            line: lineno,
            message: "unterminated sparse row".into(),
        })?;
    // Sparse rows default unlisted values to 0 (numeric) or first label.
    let mut row = vec![0.0; ds.num_attributes()];
    if !inner.trim().is_empty() {
        for part in split_csv_line(inner) {
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
            if idx >= ds.num_attributes() {
                return Err(DataError::Parse {
                    line: lineno,
                    message: format!("sparse index {idx} out of range"),
                });
            }
            let attr = ds.attribute(idx)?.clone();
            row[idx] = if val == "?" {
                Value::MISSING
            } else {
                match attr.kind() {
                    AttributeKind::Nominal(_) => {
                        Value::from_index(attr.label_index(&unquote(val)).ok_or_else(|| {
                            DataError::Parse {
                                line: lineno,
                                message: format!("label {val:?} not in domain"),
                            }
                        })?)
                    }
                    AttributeKind::Numeric => parse_finite(val, lineno)?,
                    AttributeKind::Str => Value::from_index(ds.intern_string(unquote(val))),
                }
            };
        }
    }
    ds.push_row(row)?;
    Ok(())
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
        let labels: Vec<String> = split_csv_line(inner);
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

/// Serialise a dataset to ARFF text.
pub fn write_arff(ds: &Dataset) -> String {
    let mut out = String::new();
    out.push_str(&format!("@relation {}\n\n", quote_if_needed(ds.relation())));
    for attr in ds.attributes() {
        out.push_str(&format!(
            "@attribute {} {}\n",
            quote_if_needed(attr.name()),
            attr.arff_type()
        ));
    }
    out.push_str("\n@data\n");
    for row in 0..ds.num_instances() {
        let mut first = true;
        for attr in 0..ds.num_attributes() {
            if !first {
                out.push(',');
            }
            first = false;
            let text = ds.format_value(row, attr);
            if text == "?" {
                out.push('?');
            } else {
                out.push_str(&quote_if_needed(&text));
            }
        }
        out.push('\n');
    }
    out
}

/// Quote a token with single quotes when it contains ARFF separators.
pub fn quote_if_needed(token: &str) -> String {
    if token.is_empty() || token.contains([' ', ',', '{', '}', '%', '\'', '"']) {
        format!("'{}'", token.replace('\'', "\\'"))
    } else {
        token.to_string()
    }
}

/// Remove a trailing `%` comment, honouring quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_quote = false;
    for (i, c) in line.char_indices() {
        match c {
            '\'' => in_quote = !in_quote,
            '%' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Split a comma-separated line, honouring single quotes, unquoting each
/// field and trimming surrounding whitespace.
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quote => escaped = true,
            '\'' => in_quote = !in_quote,
            ',' if !in_quote => {
                fields.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    fields.push(cur.trim().to_string());
    fields
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

fn unquote(s: &str) -> String {
    let s = s.trim();
    if s.len() >= 2 && s.starts_with('\'') && s.ends_with('\'') {
        s[1..s.len() - 1].replace("\\'", "'")
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    //! Differential and mutation tests of [`crate::arff`] against the
    //! reference reader and writer above.

    use super::*;
    use proptest::prelude::*;

    /// Counter-based generator (splitmix64) so a failing seed is the
    /// whole reproducer.
    struct Gen(u64);

    impl Gen {
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

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }

        /// Pick a label or string value. The reference reader strips
        /// `%` comments without honouring `\'` escapes, so a valid
        /// document uses either escaped quotes or quoted `%`, never both.
        fn pick_value(&mut self, items: &[&'static str], escapes: bool) -> &'static str {
            loop {
                let value = self.pick(items);
                if !value.contains(if escapes { '%' } else { '\'' }) {
                    return value;
                }
            }
        }
    }

    /// Raw label texts, before quoting: separators, escapes, comment
    /// and brace characters, spaces, multibyte text, and duplicates.
    const LABELS: &[&str] = &[
        "yes", "no", "10-19", "a b", "x,y", "it's", "50%", "{v}", "é", "中文", "?x", "q\\z",
        "tab\tend", "\"dq\"", "", " pad ",
    ];
    const STRINGS: &[&str] = &["hello", "world", "hello", "o'neil", "a,b", "% not", "", "λ"];
    const NUMBERS: &[&str] = &[
        "0",
        "1",
        "-3",
        "85",
        "0.25",
        "1e3",
        "-2.5E-2",
        "+7",
        ".5",
        "5.",
        "-0",
        "1234567.125",
        "007",
        "3.14159",
    ];

    #[derive(Clone, Copy)]
    enum Kind {
        Nominal(usize),
        Numeric,
        Str,
    }

    /// Quote a token the way a hand-written ARFF file might: always,
    /// when needed, or (for tokens that do not need it) never.
    fn token(g: &mut Gen, raw: &str) -> String {
        let needs = raw.is_empty() || raw.contains([' ', ',', '{', '}', '%', '\'', '"', '\\']);
        if needs || g.chance(20) {
            format!("'{}'", raw.replace('\\', "\\\\").replace('\'', "\\'"))
        } else {
            raw.to_string()
        }
    }

    fn pad(g: &mut Gen) -> &'static str {
        g.pick(&["", "", "", " ", "  ", "\t"])
    }

    /// A valid ARFF document: nominal, numeric and string attributes;
    /// missing cells; quoted labels with separators and escapes;
    /// comments; CRLF endings; dense and sparse rows.
    fn valid_arff(seed: u64) -> String {
        let mut g = Gen(seed);
        let eol = if g.chance(30) { "\r\n" } else { "\n" };
        let escapes = g.chance(50);
        let mut lines: Vec<String> = Vec::new();
        if g.chance(50) {
            lines.push("% generated relation".into());
        }
        let relation = g.pick(&["toy", "my set", "r,1"]);
        let relation = token(&mut g, relation);
        let directive = g.pick(&["@relation", "@RELATION", "@Relation"]);
        lines.push(format!("{directive} {relation}"));
        let n_attrs = 1 + g.below(5);
        let mut kinds = Vec::new();
        let mut domains: Vec<Vec<String>> = Vec::new();
        for a in 0..n_attrs {
            let name = token(&mut g, &format!("attr {a}"));
            let kind = match g.below(3) {
                0 => {
                    let n = 1 + g.below(5);
                    let labels: Vec<String> = (0..n)
                        .map(|_| g.pick_value(LABELS, escapes).to_string())
                        .collect();
                    let decl: Vec<String> = labels
                        .iter()
                        .map(|l| format!("{}{}{}", pad(&mut g), token(&mut g, l), pad(&mut g)))
                        .collect();
                    lines.push(format!("@attribute {name} {{{}}}", decl.join(",")));
                    domains.push(labels);
                    Kind::Nominal(a)
                }
                1 => {
                    let ty = g.pick(&["numeric", "real", "INTEGER", "Numeric", "date yyyy-MM-dd"]);
                    lines.push(format!("@attribute {name} {ty}"));
                    domains.push(Vec::new());
                    Kind::Numeric
                }
                _ => {
                    lines.push(format!("@attribute {name} string"));
                    domains.push(Vec::new());
                    Kind::Str
                }
            };
            kinds.push(kind);
            if g.chance(15) {
                lines.push(String::new());
            }
        }
        lines.push(g.pick(&["@data", "@DATA"]).to_string());
        let cell = |g: &mut Gen, kind: Kind| -> String {
            if g.chance(12) {
                return "?".into();
            }
            match kind {
                Kind::Nominal(a) => {
                    let label = domains[a][g.below(domains[a].len())].clone();
                    token(g, &label)
                }
                Kind::Numeric => g.pick(NUMBERS).to_string(),
                Kind::Str => {
                    let value = g.pick_value(STRINGS, escapes);
                    token(g, value)
                }
            }
        };
        for _ in 0..g.below(12) {
            let mut line = if g.chance(20) {
                let mut entries = Vec::new();
                for (a, &kind) in kinds.iter().enumerate() {
                    // An omitted string cell would default to string
                    // id 0, which need not exist yet.
                    if matches!(kind, Kind::Str) || g.chance(50) {
                        entries.push(format!("{a} {}", cell(&mut g, kind)));
                    }
                }
                format!("{{{}}}", entries.join(", "))
            } else {
                let cells: Vec<String> = kinds
                    .iter()
                    .map(|&kind| format!("{}{}{}", pad(&mut g), cell(&mut g, kind), pad(&mut g)))
                    .collect();
                cells.join(",")
            };
            if !escapes && g.chance(10) {
                line.push_str(" % trailing comment");
            }
            lines.push(line);
            if g.chance(8) {
                lines.push(g.pick(&["", "% comment line", "   "]).to_string());
            }
        }
        let mut text = lines.join(eol);
        if g.chance(80) {
            text.push_str(eol);
        }
        text
    }

    /// One mutation of a valid encoding: a byte flip (to printable
    /// ASCII, keeping the text UTF-8), a truncation, or an inserted
    /// ARFF metacharacter.
    fn mutate(g: &mut Gen, text: &str) -> String {
        let boundaries: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let at = boundaries[g.below(boundaries.len())];
        match g.below(3) {
            0 => {
                let mut out = text.to_string();
                if at < text.len() && text.as_bytes()[at].is_ascii() {
                    let byte = (0x20 + g.below(0x5f)) as u8 as char;
                    out.replace_range(at..at + 1, &byte.to_string());
                }
                out
            }
            1 => text[..at].to_string(),
            _ => {
                let mut out = text.to_string();
                let meta = g.pick(&["'", ",", "?", "%", "{", "}", "\\", "\n", " "]);
                out.insert_str(at, meta);
                out
            }
        }
    }

    fn assert_readers_agree(text: &str) {
        let expected = parse_arff(text);
        let got = crate::arff::parse_arff(text);
        assert_eq!(got, expected, "readers disagree on {text:?}");
        assert_header_reader_agrees(text, &got);
    }

    /// `parse_arff_header` as one more reader: where the full read
    /// succeeds, the same relation and attributes with zero rows; where
    /// the header read fails, the full read's error; where only the
    /// full read fails, an error after the `@data` line.
    fn assert_header_reader_agrees(text: &str, full: &Result<Dataset>) {
        match (crate::arff::parse_arff_header(text), full) {
            (Ok(header), Ok(ds)) => {
                assert_eq!(header.num_instances(), 0, "{text:?}");
                assert_eq!(
                    header,
                    Dataset::new(ds.relation(), ds.attributes().to_vec()),
                    "header of {text:?}"
                );
            }
            (Err(e), full) => assert_eq!(full.as_ref(), Err(&e), "{text:?}"),
            (Ok(_), Err(e)) => {
                // The header read stopped at the first `@data` line.
                let data_line = text
                    .lines()
                    .position(|raw| {
                        let line = strip_comment(raw).trim().as_bytes();
                        line.get(..5)
                            .is_some_and(|h| h.eq_ignore_ascii_case(b"@data"))
                    })
                    .expect("a header read found @data")
                    + 1;
                // Errors without a line number come only from the row
                // decoders' cell checks.
                if let DataError::Parse { line, .. } = e {
                    assert!(*line > data_line, "{e} at or before @data in {text:?}");
                }
            }
        }
    }

    /// Pieces of the labels in [`domains_arff`]: few, so labels often
    /// share a length and end bytes, and `é`, `è` and `中` put a
    /// multi-byte char's lead or trail byte at either end.
    const PIECES: &[&str] = &["a", "b", "é", "è", "中", " ", ","];

    /// Up to ten pieces, mostly three or fewer: the empty label, short
    /// labels that often share a key, and labels past 8 bytes.
    fn piece_label(g: &mut Gen) -> String {
        let len = [0, 1, 2, 3, 3, 3, 4, 6, 10][g.below(9)];
        (0..len).map(|_| g.pick(PIECES)).collect()
    }

    /// `label` with its inner `a`s and `b`s swapped: the same length
    /// and end bytes, so the same key, and mostly another label.
    fn near_miss(label: &str) -> String {
        let chars: Vec<char> = label.chars().collect();
        let last = chars.len().saturating_sub(1);
        let swap = |(i, c): (usize, char)| match c {
            'a' if i > 0 && i < last => 'b',
            'b' if i > 0 && i < last => 'a',
            c => c,
        };
        chars.into_iter().enumerate().map(swap).collect()
    }

    /// A document whose nominal domains defeat the reader's keyed label
    /// table: labels that share a length and end bytes, repeated
    /// labels, the empty label, long and multi-byte labels, and domains
    /// of 1 to 300 labels (64 and 65 among them). Some documents hold
    /// probe cells, fresh labels and near misses of domain labels that
    /// share their key, and about a fifth of the rows are sparse with
    /// quoted labels.
    fn domains_arff(seed: u64) -> String {
        let mut g = Gen(seed);
        let mut lines = vec!["@relation domains".to_string()];
        let mut domains: Vec<Vec<String>> = Vec::new();
        for a in 0..1 + g.below(3) {
            let size = [1, 2, 3, 5, 12, 63, 64, 65, 90, 300][g.below(10)];
            let mut labels: Vec<String> = (0..size).map(|_| piece_label(&mut g)).collect();
            if g.chance(30) {
                let again = labels[g.below(size)].clone();
                labels.push(again);
            }
            let decl: Vec<String> = labels.iter().map(|l| token(&mut g, l)).collect();
            lines.push(format!("@attribute d{a} {{{}}}", decl.join(",")));
            domains.push(labels);
        }
        lines.push("@data".into());
        let probes = g.chance(25);
        for _ in 0..g.below(20) {
            let mut cells = Vec::new();
            for domain in &domains {
                let raw = if probes && g.chance(15) {
                    piece_label(&mut g)
                } else if probes && g.chance(15) {
                    near_miss(&domain[g.below(domain.len())])
                } else if g.chance(5) {
                    "?".to_string()
                } else {
                    domain[g.below(domain.len())].clone()
                };
                cells.push(if raw == "?" { raw } else { token(&mut g, &raw) });
            }
            lines.push(if g.chance(20) {
                let entries: Vec<String> = cells
                    .iter()
                    .enumerate()
                    .map(|(a, cell)| format!("{a} {cell}"))
                    .collect();
                format!("{{{}}}", entries.join(", "))
            } else {
                cells.join(",")
            });
        }
        lines.join("\n") + "\n"
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn reader_matches_reference_on_domains_that_defeat_the_label_table(seed in any::<u64>()) {
            assert_readers_agree(&domains_arff(seed));
        }

        #[test]
        fn reader_matches_reference_on_valid_arff(seed in any::<u64>()) {
            let text = valid_arff(seed);
            let expected = parse_arff(&text);
            prop_assert!(expected.is_ok(), "generator produced invalid ARFF: {expected:?}\n{text}");
            assert_readers_agree(&text);
        }

        #[test]
        fn reader_matches_reference_on_mutated_arff(seed in any::<u64>()) {
            let mut g = Gen(seed ^ 0x6d75_7461_7465);
            let mut text = valid_arff(seed);
            for _ in 0..1 + g.below(3) {
                text = mutate(&mut g, &text);
                assert_readers_agree(&text);
            }
        }

        #[test]
        fn writer_matches_reference_on_generated_datasets(seed in any::<u64>()) {
            let ds = parse_arff(&valid_arff(seed)).expect("generator emits valid ARFF");
            prop_assert_eq!(crate::arff::write_arff(&ds), write_arff(&ds));
        }
    }

    #[test]
    fn writer_matches_reference_on_the_corpus() {
        use crate::corpus;
        let mut notes = Dataset::new(
            "notes",
            vec![
                Attribute::string("note"),
                Attribute::nominal("tag", ["a b", "it's", "?"]),
            ],
        );
        for (i, s) in ["x", "o'neil", "", "a,b", "x"].into_iter().enumerate() {
            let id = notes.intern_string(s);
            let tag = if i == 3 { f64::NAN } else { (i % 3) as f64 };
            notes.push_row(vec![Value::from_index(id), tag]).unwrap();
        }
        for ds in [
            corpus::breast_cancer(),
            corpus::weather_nominal(),
            corpus::weather_numeric(),
            corpus::nominal_classification(200, 6, 3, 2, 0.1, 7),
            notes,
        ] {
            assert_eq!(
                crate::arff::write_arff(&ds),
                write_arff(&ds),
                "{}",
                ds.relation()
            );
        }
    }

    #[test]
    fn reader_matches_reference_on_the_malformed_battery() {
        for text in [
            "",
            "@data\n",
            "@relation t\n@attribute\n@data\n",
            "@relation t\n@attribute a numeric\n@data\n1,2\n",
            "@relation t\n@attribute a {x\n@data\nx\n",
            "@relation t\n@attribute a numeric\n@data\n{0\n",
            "@relation t\n@attribute a numeric\n@data\n{99 1}\n",
            "@relation t\n@attribute a {x,y}\n@data\n{0 z}\n",
            "@relation t\n@attribute a numeric\n@data\nNaN, x\n",
            "@relation t\n@attribute s string\n@attribute n numeric\n@data\n{1 2}\n",
            "@relation t\n@attribute s string\n@data\n'open\\'\n",
        ] {
            assert_readers_agree(text);
        }
    }

    #[test]
    fn reader_matches_reference_on_the_label_table_battery() {
        let doc = |domain: &str, rows: &str| {
            format!("@relation t\n@attribute a {{{domain}}}\n@attribute n numeric\n@data\n{rows}")
        };
        for (domain, rows) in [
            // One key, three labels: hashed; `azc` shares the key and misses.
            ("abc,axc,ayc", "axc,1\nayc,2\nabc,3\n"),
            ("abc,axc,ayc", "azc,1\n"),
            // Distinct keys: a field sharing a label's key must not match it.
            ("abc,abd", "abd,1\nabc,2\n"),
            ("abc,abd", "axc,1\n"),
            // Repeated labels resolve to their first code.
            ("a,b,a", "a,1\nb,2\n{0 a}\n"),
            ("x,x", "x,1\n"),
            // The empty label, quoted or as an empty field.
            ("'',a", "'',1\n,2\na,3\n"),
            ("a", ",1\n"),
            // Past 8 bytes, with and without a shared key.
            ("abcdefghij,abcdefghiJ", "abcdefghiJ,1\nabcdefghij,2\n"),
            (
                "abcdefghij,abcdefgxij",
                "abcdefgxij,1\nabcdefghij,2\nabcdefgyij,3\n",
            ),
            // Multi-byte: `éa` and `èa` share length, lead byte and end.
            ("éa,èa,中文", "èa,1\néa,2\n中文,3\n"),
            ("éa,èa", "êa,1\n"),
            // Quoted labels in sparse rows.
            (
                "'a b','c,d',e",
                "{0 'a b', 1 2}\n{0 'c,d'}\n{1 3}\n{0 'a  b'}\n",
            ),
        ] {
            assert_readers_agree(&doc(domain, rows));
        }
        // Two-byte labels with distinct keys: keyed up to 64, hashed past.
        for size in [63usize, 64, 65, 300] {
            let label = |i: usize| format!("{}{}", (b'A' + (i % 26) as u8) as char, i / 26);
            let labels: Vec<String> = (0..size).map(label).collect();
            let rows: String = (0..size)
                .rev()
                .map(|i| format!("{},{i}\n", label(i)))
                .collect();
            assert_readers_agree(&doc(&labels.join(","), &rows));
            assert_readers_agree(&doc(&labels.join(","), &format!("{rows}A99,0\n")));
        }
    }

    #[test]
    fn equal_strings_share_ids_across_dense_and_sparse_rows() {
        let text = "@relation t\n@attribute s string\n@attribute n numeric\n@data\n\
            hello, 1\n{0 world, 1 2}\n'hello', 3\n{0 'world'}\nnew, 4\n{0 hello}\n";
        let ds = crate::arff::parse_arff(text).unwrap();
        assert_eq!(ds.strings(), ["hello", "world", "new"]);
        let ids: Vec<f64> = (0..ds.num_instances()).map(|r| ds.value(r, 0)).collect();
        assert_eq!(ids, [0.0, 1.0, 0.0, 1.0, 2.0, 0.0]);
        assert_eq!(ds.strings(), parse_arff(text).unwrap().strings());
    }
}
