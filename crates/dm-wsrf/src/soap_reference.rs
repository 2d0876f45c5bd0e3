//! The envelope decoder as it stood before the one-pass reader in
//! `soap_reader`: parse the whole document into an [`XmlElement`] tree
//! with the recursive parser `xml::parse` had before it moved onto the
//! shared `xml::Cursor` (given the same 64-level cap), then walk the
//! tree. Kept only as the oracle for the differential and mutation
//! tests below: the envelope reader and `xml::parse` must return what
//! this returns on every input, errors included. It resolves entities
//! one char at a time ([`unescape_by_char`]), not with the chunked
//! `xml::unescape` the reader uses, so the tests check that too.

use crate::error::{Result, WsError};
use crate::soap::{hex_decode, parse_data_ref, parse_double, SoapCall, SoapResponse, SoapValue};
use crate::trace::SpanContext;
use crate::xml::{XmlElement, MAX_DEPTH, TOO_DEEP};

/// Decode a request envelope through the element tree.
pub fn call_from_envelope(xml: &str) -> Result<SoapCall> {
    let doc = parse(xml)?;
    let body = doc
        .find("Body")
        .ok_or_else(|| WsError::Malformed("no soap:Body".into()))?;
    let op = body
        .children
        .first()
        .ok_or_else(|| WsError::Malformed("empty soap:Body".into()))?;
    let service = op
        .attributes
        .iter()
        .find(|(k, _)| k.starts_with("xmlns"))
        .and_then(|(_, v)| v.strip_prefix("urn:"))
        .unwrap_or("")
        .to_string();
    let operation = crate::xml::local_name(&op.name).to_string();
    let args = op
        .children
        .iter()
        .map(|c| Ok((c.name.clone(), value_from_element(c)?)))
        .collect::<Result<_>>()?;
    let trace_parent = doc
        .find("Header")
        .and_then(|h| h.find("traceparent"))
        .and_then(|e| SpanContext::from_traceparent(&e.text));
    Ok(SoapCall {
        service,
        operation,
        args,
        trace_parent,
    })
}

/// Decode a response envelope through the element tree.
pub fn response_from_envelope(xml: &str) -> Result<SoapResponse> {
    let doc = parse(xml)?;
    let body = doc
        .find("Body")
        .ok_or_else(|| WsError::Malformed("no soap:Body".into()))?;
    if let Some(fault) = body.find("Fault") {
        let code = fault
            .find("faultcode")
            .map(|e| e.text.clone())
            .unwrap_or_default();
        let message = fault
            .find("faultstring")
            .map(|e| e.text.clone())
            .unwrap_or_default();
        return Ok(SoapResponse::Fault { code, message });
    }
    let resp = body
        .children
        .first()
        .ok_or_else(|| WsError::Malformed("empty response body".into()))?;
    let ret = resp
        .find("return")
        .ok_or_else(|| WsError::Malformed("no return element".into()))?;
    Ok(SoapResponse::Value(value_from_element(ret)?))
}

fn value_from_element(el: &XmlElement) -> Result<SoapValue> {
    let ty = el.attribute("xsi:type").unwrap_or("string");
    Ok(match ty {
        "nil" => SoapValue::Null,
        "boolean" => SoapValue::Bool(el.text == "true"),
        "long" => SoapValue::Int(
            el.text
                .parse()
                .map_err(|_| WsError::Malformed(format!("bad long {:?}", el.text)))?,
        ),
        "double" => SoapValue::Double(parse_double(&el.text)?),
        "string" => SoapValue::Text(el.text.clone()),
        "base64Binary" => SoapValue::Bytes(hex_decode(&el.text)?),
        "list" => SoapValue::List(
            el.children
                .iter()
                .map(value_from_element)
                .collect::<Result<_>>()?,
        ),
        "dataRef" => parse_data_ref(&el.text)?,
        other => return Err(WsError::Malformed(format!("unknown xsi:type {other:?}"))),
    })
}

/// Parse a document into its root element, recursing once per level.
pub fn parse(input: &str) -> Result<XmlElement> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog();
    let root = p.element(1)?;
    p.skip_misc();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing content after the root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> WsError {
        WsError::Xml {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_misc();
    }

    /// Skip whitespace, comments, PIs and the XML declaration.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                if let Some(end) = find(self.bytes, self.pos, b"?>") {
                    self.pos = end + 2;
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            if self.starts_with("<!--") {
                if let Some(end) = find(self.bytes, self.pos, b"-->") {
                    self.pos = end + 3;
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            break;
        }
    }

    fn name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// The element at `self.pos`, `depth` levels down (the root is 1).
    fn element(&mut self, depth: usize) -> Result<XmlElement> {
        if depth > MAX_DEPTH {
            return Err(self.err(TOO_DEEP));
        }
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut el = XmlElement::new(name.clone());

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self
                        .peek()
                        .ok_or_else(|| self.err("unterminated attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("attribute value must be quoted"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.pos += 1;
                    el.attributes.push((key, unescape_by_char(&raw)));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }

        // Content.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return Err(self.err("mismatched closing tag"));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in closing tag"));
                }
                self.pos += 1;
                // Trim only mixed-content elements: there the character
                // data is pretty-printing indentation. Childless
                // elements carry values whose whitespace is significant.
                if !el.children.is_empty() {
                    el.text = el.text.trim().to_string();
                }
                return Ok(el);
            }
            if self.starts_with("<!--") {
                let end = find(self.bytes, self.pos, b"-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
                continue;
            }
            if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                let end = find(self.bytes, start, b"]]>")
                    .ok_or_else(|| self.err("unterminated CDATA"))?;
                el.text
                    .push_str(&String::from_utf8_lossy(&self.bytes[start..end]));
                self.pos = end + 3;
                continue;
            }
            match self.peek() {
                Some(b'<') => {
                    el.children.push(self.element(depth + 1)?);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]);
                    el.text.push_str(&unescape_by_char(&raw));
                }
                None => return Err(self.err("unterminated element content")),
            }
        }
    }
}

/// The documented entity rule, one char at a time: an `&` starts an
/// entity only if a `;` follows within six bytes; the five standard
/// entities resolve, any other passes through whole, and an `&` with no
/// such `;` is literal.
pub fn unescape_by_char(s: &str) -> String {
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

fn find(bytes: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    bytes[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

#[cfg(test)]
mod tests {
    //! Differential and mutation tests of the one-pass reader against
    //! the tree decoder above.

    use super::*;
    use crate::soap::RefKind;
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
    }

    /// Text fragments: all five escapes, entity look-alikes, markup
    /// look-alikes, significant whitespace and multi-byte characters.
    const FRAGMENTS: &[&str] = &[
        "J48",
        "a<b>&\"c'",
        "&amp; already escaped",
        "&lt;svg width=&quot;3&quot;&gt;",
        "  padded  ",
        "\n",
        "tab\tand\r\nnewline",
        "é中文—ß",
        "😀",
        "]]>",
        "<![CDATA[x]]>",
        "<!-- not a comment -->",
        "&",
        "&&;;",
        "x & y",
        "-C 0.25 -M 2",
        "@attribute a {x,y}\n",
        "'single'",
        "1.5",
        "true",
    ];

    const NAMES: &[&str] = &[
        "dataset",
        "x",
        "ns:arg",
        "item",
        "return",
        "Body",
        "Header",
        "traceparent",
        "Fault",
        "a.b-c_d",
    ];

    fn text(g: &mut Gen) -> String {
        let mut s = String::new();
        for _ in 0..g.below(4) {
            let fragment = g.pick(FRAGMENTS);
            s.push_str(&fragment.repeat(1 + g.below(3)));
        }
        s
    }

    fn value(g: &mut Gen, depth: usize) -> SoapValue {
        match g.below(if depth < 3 { 10 } else { 8 }) {
            0 => SoapValue::Null,
            1 => SoapValue::Bool(g.chance(50)),
            2 => SoapValue::Int(match g.below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => 0,
                _ => g.next() as i64 >> g.below(64),
            }),
            3 => SoapValue::Double(match g.below(6) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                4 => f64::MIN_POSITIVE / 3.0,
                _ => f64::from_bits(g.next()),
            }),
            4 => SoapValue::Text(text(g)),
            5 => SoapValue::Bytes((0..g.below(24)).map(|_| g.next() as u8).collect()),
            6 => SoapValue::DataRef {
                hash: u128::from(g.next()) << 64 | u128::from(g.next()),
                len: g.next() >> g.below(64),
                kind: if g.chance(50) {
                    RefKind::Text
                } else {
                    RefKind::Bytes
                },
            },
            7 => match g.below(3) {
                0 => SoapValue::Text(String::new()),
                1 => SoapValue::Bytes(Vec::new()),
                _ => SoapValue::List(Vec::new()),
            },
            _ => SoapValue::List((0..g.below(5)).map(|_| value(g, depth + 1)).collect()),
        }
    }

    fn call(g: &mut Gen) -> SoapCall {
        let service = g.pick(&["Classifier", "S", "a&b<c>\"d'", "", "é"]);
        let operation = g.pick(&["op", "classifyInstance", "getOptions", "x.y-z_1"]);
        let mut call = SoapCall::new(service, operation);
        for _ in 0..g.below(6) {
            let name = g.pick(NAMES);
            let value = value(g, 0);
            call = call.arg(name, value);
        }
        if g.chance(50) {
            call.trace_parent = Some(SpanContext {
                trace_id: u128::from(g.next()) << 64 | u128::from(g.next()),
                span_id: g.next(),
            });
        }
        call
    }

    fn response(g: &mut Gen) -> (SoapResponse, &'static str) {
        let operation = g.pick(&["op", "classifyGraph", "getClassifiers"]);
        let response = if g.chance(30) {
            SoapResponse::Fault {
                code: text(g),
                message: text(g),
            }
        } else {
            SoapResponse::Value(value(g, 0))
        };
        (response, operation)
    }

    /// A valid envelope: a call or a response, sometimes pretty-printed
    /// (indentation is character data in every element with children).
    fn envelope(g: &mut Gen) -> String {
        let xml = if g.chance(50) {
            call(g).to_envelope()
        } else {
            let (response, operation) = response(g);
            response.to_envelope(operation)
        };
        if g.chance(25) {
            parse(&xml).expect("encoders write XML").to_pretty_xml()
        } else {
            xml
        }
    }

    /// Both decoders of each kind give the same answer on `xml`: the
    /// same value, or the same error variant, offset and message; and
    /// so do both tree parsers. (`Debug` text compares `NaN` payloads
    /// equal and `-0.0` unequal to `0.0`.)
    fn assert_decoders_agree(xml: &str) {
        assert_eq!(
            format!("{:?}", crate::xml::parse(xml)),
            format!("{:?}", parse(xml)),
            "tree parsers disagree on {xml:?}"
        );
        assert_eq!(
            format!("{:?}", SoapCall::from_envelope(xml)),
            format!("{:?}", call_from_envelope(xml)),
            "call decoders disagree on {xml:?}"
        );
        assert_eq!(
            format!("{:?}", SoapResponse::from_envelope(xml)),
            format!("{:?}", response_from_envelope(xml)),
            "response decoders disagree on {xml:?}"
        );
    }

    /// Insertions: markup and entity starts, quotes, a stray close tag,
    /// comment and CDATA openers and closers, a duplicate `Fault` or
    /// `return`, and attributes the reader looks at.
    const INSERTS: &[&str] = &[
        "<",
        "&",
        "\"",
        "'",
        ">",
        "/",
        "=",
        " ",
        "\t",
        "\r\n",
        "</x>",
        "<![CDATA[",
        "]]>",
        "<!--",
        "-->",
        "<?",
        "&amp;",
        "&lt",
        "<x/>",
        "<soap:Fault/>",
        "<return xsi:type=\"long\">1</return>",
        "<item xsi:type=\"list\">",
        " xsi:type=\"long\"",
        " xmlns:q=\"urn:Q\"",
    ];

    /// Multi-byte characters for insertion and replacement.
    const NON_ASCII: &[&str] = &["é", "中", "😀", "\u{feff}", "\u{a0}", "\u{2028}"];

    /// One mutation of an envelope, kept valid UTF-8: a byte flip (to
    /// printable ASCII), a truncation, an inserted metacharacter run, a
    /// deleted span, a non-ASCII insertion or replacement, a copied
    /// span, or a run of nested elements around the depth limit.
    fn mutate(g: &mut Gen, text: &str) -> String {
        let boundaries: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let at = boundaries[g.below(boundaries.len())];
        let to = boundaries
            [(boundaries.partition_point(|&b| b < at) + g.below(24)).min(boundaries.len() - 1)];
        let mut out = text.to_string();
        match g.below(7) {
            0 => {
                if at < text.len() && text.as_bytes()[at].is_ascii() {
                    let byte = char::from((0x20 + g.below(0x5f)) as u8);
                    out.replace_range(at..at + 1, &byte.to_string());
                }
            }
            1 => out.truncate(at),
            2 => out.insert_str(at, g.pick(INSERTS)),
            3 => out.replace_range(at..to, ""),
            4 => {
                let ch = g.pick(NON_ASCII);
                if g.chance(50) && at < text.len() && text.as_bytes()[at].is_ascii() {
                    out.replace_range(at..at + 1, ch);
                } else {
                    out.insert_str(at, ch);
                }
            }
            5 => {
                let span = text[at..to].to_string();
                let dest = boundaries[g.below(boundaries.len())];
                out.insert_str(dest, &span);
            }
            _ => {
                let levels = 56 + g.below(16);
                let open = g.pick(&["<a>", "<i xsi:type=\"list\">", "<return>"]);
                let close = &format!("</{}>", open[1..].split([' ', '>']).next().unwrap_or(""));
                let closes = if g.chance(70) {
                    levels
                } else {
                    g.below(levels)
                };
                out.insert_str(at, &(open.repeat(levels) + &close.repeat(closes)));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn reader_matches_reference_on_generated_calls(seed in any::<u64>()) {
            let call = call(&mut Gen(seed));
            let xml = call.to_envelope();
            prop_assert_eq!(
                format!("{:?}", SoapCall::from_envelope(&xml)),
                format!("{:?}", Ok::<_, WsError>(call)),
                "call does not round-trip through {:?}", xml
            );
            assert_decoders_agree(&xml);
        }

        #[test]
        fn reader_matches_reference_on_generated_responses(seed in any::<u64>()) {
            let (response, operation) = response(&mut Gen(seed));
            let xml = response.to_envelope(operation);
            prop_assert_eq!(
                format!("{:?}", SoapResponse::from_envelope(&xml)),
                format!("{:?}", Ok::<_, WsError>(response)),
                "response does not round-trip through {:?}", xml
            );
            assert_decoders_agree(&xml);
        }

        #[test]
        fn reader_matches_reference_on_mutated_envelopes(seed in any::<u64>()) {
            let mut g = Gen(seed ^ 0x6d75_7461_7465);
            let mut xml = envelope(&mut Gen(seed));
            for _ in 0..1 + g.below(3) {
                xml = mutate(&mut g, &xml);
                assert_decoders_agree(&xml);
            }
        }
    }

    #[test]
    fn reader_matches_reference_on_the_malformed_battery() {
        const TP: &str = "00-0000000000000000000000000000abcd-0000000000000007-01";
        let battery = [
            String::new(),
            "<".into(),
            "<a".into(),
            "<a/>".into(),
            "<a>".into(),
            "<?xml version=\"1.0\"?>".into(),
            "<?xml".into(),
            "<!-->".into(),
            "<?><a><Body><op/></Body></a>".into(),
            "<a><!-->x<Body><op/></Body></a>".into(),
            " <!-- c --> <a><Body><op/></Body></a> <!-- d --> ".into(),
            "<a></b>".into(),
            "<a></a >".into(),
            "<a></a x>".into(),
            "<a x=1/>".into(),
            "<a x/>".into(),
            "<a x='1\"/>".into(),
            "<a/ >".into(),
            "<a><!-- open".into(),
            "<a><![CDATA[ open".into(),
            "<a/><b/>".into(),
            "<a><Body/></a>".into(),
            "<a><Body></Body></a>".into(),
            "<a><Body><op/></Body></a>".into(),
            "<a><Body><op/></Body><Body><other/></Body></a>".into(),
            "<a><Body/><Body><op/></Body></a>".into(),
            "<a\t><Body\r\n><op\txmlns:ns\n=\t'urn:S'\r/></Body\t></a\n>\t".into(),
            "<a><Body/><Body><r><return>x</return></r></Body></a>".into(),
            "<a><Body><op><x xsi:type=\"long\">x</x><y xsi:type=\"what\"/></op></Body></a>".into(),
            "<a><Body><op><x xsi:type=\"what\"/><y xsi:type=\"long\">x</y></op></Body></a>".into(),
            "<a><s:Body><s:Fault/></s:Body></a>".into(),
            "<a><Body><r><return>x</return></r><Fault><faultcode>c</faultcode></Fault></Body></a>"
                .into(),
            "<a><Body><r><return xsi:type=\"long\">x</return></r><Fault/></Body></a>".into(),
            "<a><Body><r/></Body></a>".into(),
            "<a><Body><r><x/><return/></r></Body></a>".into(),
            "<a><Body><r><return xsi:type=\"bogus\"><b xsi:type=\"long\">z</b></return></r></Body></a>"
                .into(),
            "<a><Body><r><return xsi:type=\"long\"> 5 <b/> </return></r></Body></a>".into(),
            "<a><Body><r><return xsi:type=\"long\">5<!-- c -->6</return></r></Body></a>".into(),
            "<a><Body><r><return>&am<!-- -->p;<![CDATA[&lt;]]></return></r></Body></a>".into(),
            "<a><Body><r><return xsi:type=\"&lt;\"/></r></Body></a>".into(),
            "<a><Body><r><return xsi:type=\"long\" xsi:type=\"bogus\">1</return></r></Body></a>"
                .into(),
            "<a><Body><r><return xsi:type='list'><i xsi:type='long'>1</i><i xsi:type='long'>x</i>\
             <i xsi:type='what'/></return></r></Body></a>"
                .into(),
            "<a><Body><op xmlns:p=\"http://x\" xmlns:ns=\"urn:S\"><x>1</x></op></Body></a>".into(),
            "<a><Body><op xmlns=\"urn:a&amp;b\" xmlns:ns=\"urn:S\"/></Body></a>".into(),
            "<a><Body><op><x xsi:type=\"base64Binary\">aéb</x></op></Body></a>".into(),
            "<a><Body><op><x xsi:type=\"base64Binary\">+f</x></op></Body></a>".into(),
            "<a><Body><op><x xsi:type=\"base64Binary\">0F0f</x></op></Body></a>".into(),
            "<a><Body><op><x xsi:type=\"dataRef\">ff:3:text</x><y xsi:type=\"nil\">z</y></op></Body></a>"
                .into(),
            format!("<a><Body><op/></Body><Header><traceparent>{TP}</traceparent></Header></a>"),
            format!(
                "<a><Header><traceparent>bad</traceparent><traceparent>{TP}</traceparent></Header>\
                 <Body><op/></Body></a>"
            ),
            format!("<a><Header/><Header><traceparent>{TP}</traceparent></Header><Body><op/></Body></a>"),
            format!("<a><Header><traceparent> {TP} <x/></traceparent></Header><Body><op/></Body></a>"),
            "<a><Body><s:Fault><faultcode> c <x/></faultcode><faultstring>m</faultstring>\
             <faultcode>d</faultcode></s:Fault></Body></a>"
                .into(),
        ];
        for xml in &battery {
            assert_decoders_agree(xml);
        }
    }

    /// The chunked `xml::unescape` against the char-at-a-time rule, on
    /// generated text and on entities placed across every offset of
    /// the first three chunks, whole, cut short and at the end.
    #[test]
    fn unescape_matches_the_char_rule() {
        let mut g = Gen(0x756e_6573_6361_7065);
        for _ in 0..2_000 {
            let s = text(&mut g);
            assert_eq!(crate::xml::unescape(&s), unescape_by_char(&s), "{s:?}");
            let escaped = crate::xml::escape(&s);
            assert_eq!(crate::xml::unescape(&escaped), s, "{s:?}");
        }
        for entity in [
            "&amp;", "&lt;", "&quot;", "&apos;", "&gt;", "&q;", "&amp", "&", "&&amp;",
        ] {
            for lead in 0..=96 {
                let pad = "p".repeat(lead);
                for s in [
                    format!("{pad}{entity}"),
                    format!("{pad}{entity};{pad}"),
                    format!("{pad}{entity}{entity}x"),
                ] {
                    assert_eq!(crate::xml::unescape(&s), unescape_by_char(&s), "{s:?}");
                }
            }
        }
    }

    /// A text run whose first `&` and closing `<` fall in the same
    /// 32-byte chunk of the run or on either side of a chunk boundary,
    /// at every offset up to the third chunk: the reader finds the run's
    /// end and its entities in one pass, and must still agree with the
    /// oracle and resolve exactly the run.
    #[test]
    fn text_runs_with_entities_across_chunk_boundaries() {
        for entity in ["&amp;", "&lt;", "&", "&x;"] {
            for amp in 0..=72 {
                for end in amp + entity.len()..=amp + entity.len() + 40 {
                    let run = format!(
                        "{}{entity}{}",
                        "a".repeat(amp),
                        "b".repeat(end - amp - entity.len())
                    );
                    let xml = format!(
                        "<soap:Envelope><soap:Body><op xmlns:ns=\"urn:S\">\
                         <x xsi:type=\"string\">{run}</x><y>{run}<z/>{run}</y>\
                         </op></soap:Body></soap:Envelope>"
                    );
                    assert_decoders_agree(&xml);
                    let call = SoapCall::from_envelope(&xml).expect("a valid call");
                    assert_eq!(
                        call.get("x").and_then(SoapValue::as_text),
                        Ok(unescape_by_char(&run).as_str()),
                        "{run:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn reader_matches_reference_around_the_depth_limit() {
        for levels in [62, 63, 64, 65, 66, 1_000] {
            // A call whose argument nests lists `levels` elements deep
            // in all (envelope, body and operation included).
            let lists = levels - 3;
            let xml = format!(
                "<soap:Envelope><soap:Body><op>{}{}</op></soap:Body></soap:Envelope>",
                "<x xsi:type=\"list\">".repeat(lists),
                "</x>".repeat(lists)
            );
            assert_decoders_agree(&xml);
            // Past the limit, the tree parser and the reader fail at
            // the `<` of the 65th element.
            let plain = format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels));
            let too_deep = WsError::Xml {
                offset: 3 * crate::xml::MAX_DEPTH,
                message: crate::xml::TOO_DEEP.into(),
            };
            if levels > crate::xml::MAX_DEPTH {
                assert_eq!(crate::xml::parse(&plain), Err(too_deep.clone()));
                assert_eq!(SoapCall::from_envelope(&plain), Err(too_deep));
            } else {
                assert!(crate::xml::parse(&plain).is_ok());
            }
        }
    }
}
