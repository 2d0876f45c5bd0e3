//! SOAP 1.1-style envelopes: typed values, calls, responses, and
//! faults, encoded to and from real XML. "Interaction between the
//! workflow engine and each Web Service instance is supported through
//! pre-defined SOAP messages" (§4.5) — these are those messages.
//!
//! Neither direction builds the element tree of [`crate::xml`]: the
//! paper's §4.5 finding is that per-call serialisation dominates
//! invocation cost. Encoding writes an envelope straight into one
//! pre-sized buffer. Decoding reads it in one pass straight into
//! values: names and attribute values stay slices of the input, a
//! payload's text is copied once and unescaped only if it holds an
//! `&` (noted in the same chunked scan that finds the end of the text),
//! and nesting is capped at 64 elements. The tree decoder it replaced
//! survives as a test oracle, with an entity rule of its own applied a
//! char at a time; the reader returns what the oracle returns on every
//! input, errors included. The byte loops of both directions live in
//! [`crate::xml`].

use crate::error::{Result, WsError};
use crate::trace::SpanContext;
use crate::xml::{escape_into, escaped_len};

/// The payload kind behind a [`SoapValue::DataRef`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefKind {
    /// The referenced payload is a string (`xsd:string`).
    Text,
    /// The referenced payload is binary (`xsd:base64Binary`).
    Bytes,
}

impl RefKind {
    fn wire_name(self) -> &'static str {
        match self {
            RefKind::Text => "text",
            RefKind::Bytes => "bytes",
        }
    }
}

/// A typed SOAP value (the subset of XSD the toolkit exchanges).
#[derive(Debug, Clone, PartialEq)]
pub enum SoapValue {
    /// `xsd:nil`.
    Null,
    /// `xsd:boolean`.
    Bool(bool),
    /// `xsd:long`.
    Int(i64),
    /// `xsd:double`.
    Double(f64),
    /// `xsd:string`.
    Text(String),
    /// `xsd:base64Binary` (hex-encoded on the wire for simplicity; the
    /// cost model charges the same 2× inflation base64 would, ×1.33).
    Bytes(Vec<u8>),
    /// A sequence of values.
    List(Vec<SoapValue>),
    /// A content-addressed handle standing in for a Text or Bytes
    /// payload the receiver is expected to already hold (the SOAP
    /// attachment / pass-by-reference style of the data plane). On the
    /// wire it is `hash:len:kind`, a fixed ~80 bytes regardless of the
    /// payload size it replaces.
    DataRef {
        /// Content hash of the referenced payload.
        hash: u128,
        /// Referenced payload length in bytes.
        len: u64,
        /// Whether the payload is a string or binary.
        kind: RefKind,
    },
}

impl SoapValue {
    /// XSD-ish type name used on the wire.
    pub fn type_name(&self) -> &'static str {
        match self {
            SoapValue::Null => "nil",
            SoapValue::Bool(_) => "boolean",
            SoapValue::Int(_) => "long",
            SoapValue::Double(_) => "double",
            SoapValue::Text(_) => "string",
            SoapValue::Bytes(_) => "base64Binary",
            SoapValue::List(_) => "list",
            SoapValue::DataRef { .. } => "dataRef",
        }
    }

    /// Extract a string, or a fault-shaped error.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            SoapValue::Text(s) => Ok(s),
            other => Err(WsError::Malformed(format!(
                "expected string, got {}",
                other.type_name()
            ))),
        }
    }

    /// Extract bytes.
    pub fn as_bytes(&self) -> Result<&[u8]> {
        match self {
            SoapValue::Bytes(b) => Ok(b),
            other => Err(WsError::Malformed(format!(
                "expected bytes, got {}",
                other.type_name()
            ))),
        }
    }

    /// Extract an integer.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            SoapValue::Int(i) => Ok(*i),
            other => Err(WsError::Malformed(format!(
                "expected long, got {}",
                other.type_name()
            ))),
        }
    }

    /// Extract a double.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            SoapValue::Double(d) => Ok(*d),
            SoapValue::Int(i) => Ok(*i as f64),
            other => Err(WsError::Malformed(format!(
                "expected double, got {}",
                other.type_name()
            ))),
        }
    }

    /// Extract a list.
    pub fn as_list(&self) -> Result<&[SoapValue]> {
        match self {
            SoapValue::List(l) => Ok(l),
            other => Err(WsError::Malformed(format!(
                "expected list, got {}",
                other.type_name()
            ))),
        }
    }

    /// Write this value as `<name xsi:type="...">...</name>` directly
    /// into `out`, byte-identical to building a [`crate::xml::XmlElement`]
    /// tree and serialising it, but without cloning names, text, or
    /// intermediate nodes. Envelope encoding is on the hot path of every simulated
    /// wire message, so this is where the allocation churn used to be.
    fn write_element(&self, name: &str, out: &mut String) {
        out.push('<');
        out.push_str(name);
        out.push_str(" xsi:type=\"");
        out.push_str(self.type_name());
        out.push('"');
        // Mirror the tree writer: childless, textless elements
        // self-close.
        let self_closing = match self {
            SoapValue::Null => true,
            SoapValue::Text(s) => s.is_empty(),
            SoapValue::Bytes(b) => b.is_empty(),
            SoapValue::List(items) => items.is_empty(),
            _ => false,
        };
        if self_closing {
            out.push_str("/>");
            return;
        }
        out.push('>');
        match self {
            SoapValue::Null => {}
            SoapValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            SoapValue::Int(i) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{i}");
            }
            SoapValue::Double(d) => format_double_into(*d, out),
            SoapValue::Text(s) => escape_into(s, out),
            SoapValue::Bytes(b) => hex_encode_into(b, out),
            SoapValue::List(items) => {
                for item in items {
                    item.write_element("item", out);
                }
            }
            SoapValue::DataRef { hash, len, kind } => {
                use std::fmt::Write as _;
                let _ = write!(out, "{hash:032x}:{len}:{}", kind.wire_name());
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    }

    /// Approximate wire size in bytes (used by the transport cost model
    /// so large datasets cost proportionally more to ship).
    pub fn wire_size(&self) -> usize {
        match self {
            SoapValue::Null => 8,
            SoapValue::Bool(_) => 12,
            SoapValue::Int(_) | SoapValue::Double(_) => 24,
            SoapValue::Text(s) => 32 + s.len(),
            SoapValue::Bytes(b) => 32 + b.len() * 4 / 3, // base64 inflation
            SoapValue::List(l) => 32 + l.iter().map(SoapValue::wire_size).sum::<usize>(),
            // 32-hex-digit hash + length + kind + framing: a fixed
            // handle cost regardless of the payload it stands for.
            SoapValue::DataRef { .. } => 80,
        }
    }

    /// Exact length in bytes of [`Self::write_element`]'s output for
    /// this value under `name`, computed without serialising. Unlike
    /// [`Self::wire_size`] — a *cost model* that charges base64
    /// inflation and fixed framing overheads — this is the real
    /// envelope byte count, which is what the pass-by-reference
    /// accounting needs to report exact savings.
    pub fn serialized_size(&self, name: &str) -> usize {
        // `<name xsi:type="TYPE"` … then either `/>` or
        // `>content</name>`.
        let prefix = 1 + name.len() + 11 + self.type_name().len() + 1;
        let self_closing = match self {
            SoapValue::Null => true,
            SoapValue::Text(s) => s.is_empty(),
            SoapValue::Bytes(b) => b.is_empty(),
            SoapValue::List(items) => items.is_empty(),
            _ => false,
        };
        if self_closing {
            return prefix + 2;
        }
        let content = match self {
            SoapValue::Null => 0,
            SoapValue::Bool(b) => {
                if *b {
                    4
                } else {
                    5
                }
            }
            SoapValue::Int(i) => decimal_len_i64(*i),
            SoapValue::Double(d) => {
                let mut scratch = String::new();
                format_double_into(*d, &mut scratch);
                scratch.len()
            }
            SoapValue::Text(s) => escaped_len(s),
            SoapValue::Bytes(b) => b.len() * 2,
            SoapValue::List(items) => items.iter().map(|i| i.serialized_size("item")).sum(),
            SoapValue::DataRef { len, kind, .. } => {
                32 + 1 + decimal_len_u64(*len) + 1 + kind.wire_name().len()
            }
        };
        prefix + 1 + content + 2 + name.len() + 1
    }

    /// The hash/length/kind triple if this value is a [`SoapValue::DataRef`].
    pub fn as_data_ref(&self) -> Option<(u128, u64, RefKind)> {
        match self {
            SoapValue::DataRef { hash, len, kind } => Some((*hash, *len, *kind)),
            _ => None,
        }
    }
}

fn decimal_len_u64(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (v.ilog10() + 1) as usize
}

fn decimal_len_i64(v: i64) -> usize {
    if v < 0 {
        1 + decimal_len_u64(v.unsigned_abs())
    } else {
        decimal_len_u64(v as u64)
    }
}

pub(crate) fn parse_data_ref(text: &str) -> Result<SoapValue> {
    let bad = || WsError::Malformed(format!("bad dataRef {text:?}"));
    let mut parts = text.splitn(3, ':');
    let hash = parts
        .next()
        .and_then(|p| u128::from_str_radix(p, 16).ok())
        .ok_or_else(bad)?;
    let len = parts
        .next()
        .and_then(|p| p.parse::<u64>().ok())
        .ok_or_else(bad)?;
    let kind = match parts.next() {
        Some("text") => RefKind::Text,
        Some("bytes") => RefKind::Bytes,
        _ => return Err(bad()),
    };
    Ok(SoapValue::DataRef { hash, len, kind })
}

fn format_double_into(d: f64, out: &mut String) {
    use std::fmt::Write as _;
    if d.is_nan() {
        out.push_str("NaN");
    } else if d == f64::INFINITY {
        out.push_str("INF");
    } else if d == f64::NEG_INFINITY {
        out.push_str("-INF");
    } else {
        let _ = write!(out, "{d:?}");
    }
}

pub(crate) fn parse_double(s: &str) -> Result<f64> {
    match s {
        "NaN" => Ok(f64::NAN),
        "INF" => Ok(f64::INFINITY),
        "-INF" => Ok(f64::NEG_INFINITY),
        other => other
            .parse()
            .map_err(|_| WsError::Malformed(format!("bad double {other:?}"))),
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn hex_encode_into(b: &[u8], out: &mut String) {
    out.reserve(b.len() * 2);
    for &byte in b {
        out.push(HEX_DIGITS[usize::from(byte >> 4)] as char);
        out.push(HEX_DIGITS[usize::from(byte & 0x0f)] as char);
    }
}

/// Decode hex text (either case) two bytes at a time; a pair that is
/// not two hex digits — a sign, or part of a multi-byte character — is
/// an error naming its byte offset.
pub(crate) fn hex_decode(s: &str) -> Result<Vec<u8>> {
    if s.len() % 2 != 0 {
        return Err(WsError::Malformed("odd-length hex payload".into()));
    }
    let digit = |b: u8| char::from(b).to_digit(16);
    s.as_bytes()
        .chunks_exact(2)
        .enumerate()
        .map(|(k, pair)| match (digit(pair[0]), digit(pair[1])) {
            (Some(hi), Some(lo)) => Ok(((hi << 4) | lo) as u8),
            _ => Err(WsError::Malformed(format!("bad hex at {}", 2 * k))),
        })
        .collect()
}

/// The fixed envelope preamble every message shares.
const ENVELOPE_OPEN: &str = "<soap:Envelope \
     xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" \
     xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\">";

/// `<name>escaped text</name>`, self-closing when the text is empty —
/// the same shape the element-tree writer produces.
fn write_text_element(name: &str, text: &str, out: &mut String) {
    out.push('<');
    out.push_str(name);
    if text.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    escape_into(text, out);
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// A SOAP request: target service, operation, and named arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SoapCall {
    /// Target service name.
    pub service: String,
    /// Operation name.
    pub operation: String,
    /// Named arguments in call order.
    pub args: Vec<(String, SoapValue)>,
    /// The calling span's identity, carried across the wire as a
    /// W3C-style `traceparent` SOAP header so the receiving container
    /// can parent its dispatch span under the caller. `None` keeps the
    /// envelope header-free (and byte-identical to pre-tracing
    /// envelopes).
    pub trace_parent: Option<SpanContext>,
}

impl SoapCall {
    /// Create a call.
    pub fn new<S: Into<String>, O: Into<String>>(service: S, operation: O) -> SoapCall {
        SoapCall {
            service: service.into(),
            operation: operation.into(),
            args: Vec::new(),
            trace_parent: None,
        }
    }

    /// Builder: append an argument.
    pub fn arg<N: Into<String>>(mut self, name: N, value: SoapValue) -> SoapCall {
        self.args.push((name.into(), value));
        self
    }

    /// Argument lookup by name.
    pub fn get(&self, name: &str) -> Result<&SoapValue> {
        self.args
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| WsError::Malformed(format!("missing argument {name:?}")))
    }

    /// Encode as a SOAP envelope. Writes the envelope directly into a
    /// pre-sized buffer (byte-identical to serialising the equivalent
    /// element tree) rather than building intermediate
    /// [`crate::xml::XmlElement`]s.
    pub fn to_envelope(&self) -> String {
        let estimate = 256
            + self
                .args
                .iter()
                .map(|(n, v)| 2 * n.len() + 2 * v.wire_size())
                .sum::<usize>();
        let mut out = String::with_capacity(estimate);
        out.push_str(ENVELOPE_OPEN);
        if let Some(ctx) = &self.trace_parent {
            out.push_str("<soap:Header><traceparent>");
            out.push_str(&ctx.to_traceparent());
            out.push_str("</traceparent></soap:Header>");
        }
        out.push_str("<soap:Body><ns:");
        out.push_str(&self.operation);
        out.push_str(" xmlns:ns=\"urn:");
        escape_into(&self.service, &mut out);
        out.push('"');
        if self.args.is_empty() {
            out.push_str("/>");
        } else {
            out.push('>');
            for (name, value) in &self.args {
                value.write_element(name, &mut out);
            }
            out.push_str("</ns:");
            out.push_str(&self.operation);
            out.push('>');
        }
        out.push_str("</soap:Body></soap:Envelope>");
        out
    }

    /// Decode a request envelope in one pass, straight into values.
    ///
    /// Errors, in order of precedence: the first XML syntax error
    /// ([`WsError::Xml`], with the offset and message
    /// [`crate::xml::parse`] gives, including nesting deeper than 64
    /// elements); then, with the whole document read, a missing
    /// `soap:Body`, an empty one, and the first argument value (in
    /// document order) that does not decode.
    pub fn from_envelope(xml: &str) -> Result<SoapCall> {
        crate::soap_reader::read_call(xml)
    }
}

/// A SOAP response: a result value or a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapResponse {
    /// Successful invocation result.
    Value(SoapValue),
    /// SOAP fault.
    Fault {
        /// Fault code.
        code: String,
        /// Fault string.
        message: String,
    },
}

impl SoapResponse {
    /// Encode as a response envelope (direct-written and pre-sized like
    /// [`SoapCall::to_envelope`]).
    pub fn to_envelope(&self, operation: &str) -> String {
        let estimate = 256
            + match self {
                SoapResponse::Value(v) => 2 * operation.len() + 2 * v.wire_size(),
                SoapResponse::Fault { code, message } => code.len() + message.len(),
            };
        let mut out = String::with_capacity(estimate);
        out.push_str(ENVELOPE_OPEN);
        out.push_str("<soap:Body>");
        match self {
            SoapResponse::Value(v) => {
                out.push('<');
                out.push_str(operation);
                out.push_str("Response>");
                v.write_element("return", &mut out);
                out.push_str("</");
                out.push_str(operation);
                out.push_str("Response>");
            }
            SoapResponse::Fault { code, message } => {
                out.push_str("<soap:Fault>");
                write_text_element("faultcode", code, &mut out);
                write_text_element("faultstring", message, &mut out);
                out.push_str("</soap:Fault>");
            }
        }
        out.push_str("</soap:Body></soap:Envelope>");
        out
    }

    /// Decode a response envelope in one pass, straight into values.
    ///
    /// Errors, in order of precedence: the first XML syntax error
    /// ([`WsError::Xml`], with the offset and message
    /// [`crate::xml::parse`] gives, including nesting deeper than 64
    /// elements); then, with the whole document read, a missing
    /// `soap:Body`; then, unless a child of the body named `Fault`
    /// makes the response a [`SoapResponse::Fault`], an empty body, a
    /// response element with no `return`, and the first value that does
    /// not decode.
    pub fn from_envelope(xml: &str) -> Result<SoapResponse> {
        crate::soap_reader::read_response(xml)
    }

    /// Convert into a plain result.
    pub fn into_result(self) -> Result<SoapValue> {
        match self {
            SoapResponse::Value(v) => Ok(v),
            SoapResponse::Fault { code, message } => Err(WsError::Fault { code, message }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::XmlElement;

    #[test]
    fn call_envelope_roundtrip() {
        let call = SoapCall::new("Classifier", "classifyInstance")
            .arg("classifier", SoapValue::Text("J48".into()))
            .arg("options", SoapValue::Text("-C 0.25 -M 2".into()))
            .arg("dataset", SoapValue::Bytes(vec![1, 2, 3, 250]))
            .arg("attribute", SoapValue::Text("Class".into()));
        let xml = call.to_envelope();
        assert!(xml.contains("soap:Envelope"));
        let back = SoapCall::from_envelope(&xml).unwrap();
        assert_eq!(back, call);
    }

    #[test]
    fn value_types_roundtrip() {
        let values = vec![
            SoapValue::Null,
            SoapValue::Bool(true),
            SoapValue::Int(-42),
            SoapValue::Double(0.25),
            SoapValue::Double(f64::NAN),
            SoapValue::Text("hello <world> & 'friends'".into()),
            SoapValue::Bytes((0..=255).collect()),
            SoapValue::List(vec![SoapValue::Int(1), SoapValue::Text("two".into())]),
        ];
        for v in values {
            let call = SoapCall::new("S", "op").arg("x", v.clone());
            let back = SoapCall::from_envelope(&call.to_envelope()).unwrap();
            let got = back.get("x").unwrap();
            match (&v, got) {
                (SoapValue::Double(a), SoapValue::Double(b)) if a.is_nan() => {
                    assert!(b.is_nan())
                }
                _ => assert_eq!(got, &v),
            }
        }
    }

    #[test]
    fn response_roundtrip() {
        let r = SoapResponse::Value(SoapValue::Text("tree text".into()));
        let xml = r.to_envelope("classify");
        assert!(xml.contains("classifyResponse"));
        assert_eq!(SoapResponse::from_envelope(&xml).unwrap(), r);
    }

    #[test]
    fn fault_roundtrip_and_into_result() {
        let f = SoapResponse::Fault {
            code: "Server".into(),
            message: "boom".into(),
        };
        let xml = f.to_envelope("classify");
        let back = SoapResponse::from_envelope(&xml).unwrap();
        assert!(matches!(
            back.into_result(),
            Err(WsError::Fault { code, .. }) if code == "Server"
        ));
    }

    #[test]
    fn missing_argument_reported() {
        let call = SoapCall::new("S", "op");
        assert!(call.get("nope").is_err());
    }

    #[test]
    fn accessor_type_mismatch() {
        let v = SoapValue::Int(3);
        assert!(v.as_text().is_err());
        assert_eq!(v.as_double().unwrap(), 3.0);
        assert!(SoapValue::Text("x".into()).as_bytes().is_err());
    }

    #[test]
    fn hex_codec() {
        assert_eq!(hex_encode(&[0, 255, 16]), "00ff10");
        assert_eq!(hex_decode("00ff10").unwrap(), vec![0, 255, 16]);
        assert!(hex_decode("0f0").is_err());
        assert!(hex_decode("zz").is_err());
        assert_eq!(hex_decode("0A0b").unwrap(), vec![10, 11]);
        // A sign is not a digit, though `u8::from_str_radix` takes one.
        assert_eq!(
            hex_decode("00+f"),
            Err(WsError::Malformed("bad hex at 2".into()))
        );
    }

    #[test]
    fn non_ascii_hex_is_an_error_not_a_panic() {
        // 'é' is two bytes, so "aéb" has even length and its first
        // pair splits the character.
        let bad_hex = WsError::Malformed("bad hex at 0".into());
        let call = "<soap:Envelope><soap:Body><ns:op xmlns:ns=\"urn:S\">\
                    <x xsi:type=\"base64Binary\">aéb</x></ns:op></soap:Body></soap:Envelope>";
        assert_eq!(SoapCall::from_envelope(call), Err(bad_hex.clone()));
        let response = "<soap:Envelope><soap:Body><opResponse>\
                        <return xsi:type=\"base64Binary\">0f中0</return>\
                        </opResponse></soap:Body></soap:Envelope>";
        assert_eq!(
            SoapResponse::from_envelope(response),
            Err(WsError::Malformed("bad hex at 2".into()))
        );
        assert_eq!(hex_decode("é"), Err(bad_hex));
    }

    /// `Int(1)` wrapped in `lists` lists.
    fn nested(lists: usize) -> SoapValue {
        (0..lists).fold(SoapValue::Int(1), |v, _| SoapValue::List(vec![v]))
    }

    fn nested_call(lists: usize) -> String {
        SoapCall::new("S", "op")
            .arg("x", nested(lists))
            .to_envelope()
    }

    /// The error for input nested too deep, and where it is raised: at
    /// the `<` of the first element past the limit.
    fn too_deep(xml: &str) -> Result<()> {
        let (offset, _) = xml
            .match_indices('<')
            .nth(crate::xml::MAX_DEPTH)
            .expect("more than MAX_DEPTH elements");
        Err(WsError::Xml {
            offset,
            message: crate::xml::TOO_DEEP.into(),
        })
    }

    #[test]
    fn envelopes_nested_to_the_depth_limit_still_decode() {
        // The envelope, the body, the operation (or response) element
        // and the argument (or `return`) take four levels, so the
        // innermost item sits exactly at the limit.
        let lists = crate::xml::MAX_DEPTH - 4;
        let call = SoapCall::new("S", "op").arg("x", nested(lists));
        assert_eq!(SoapCall::from_envelope(&call.to_envelope()), Ok(call));
        let response = SoapResponse::Value(nested(lists));
        assert_eq!(
            SoapResponse::from_envelope(&response.to_envelope("op")),
            Ok(response)
        );
        let deeper = nested_call(lists + 1);
        assert_eq!(
            SoapCall::from_envelope(&deeper).map(|_| ()),
            too_deep(&deeper)
        );
    }

    #[test]
    fn deeply_nested_envelopes_are_errors_not_stack_overflows() {
        const LEVELS: usize = 100_000;
        let plain = format!("{}{}", "<a>".repeat(LEVELS), "</a>".repeat(LEVELS));
        // Written as text: a value this deep would overflow the stack
        // of the encoder (and of its own drop) first.
        let lists = |name: &str| {
            format!(
                "{}{}",
                format!("<{name} xsi:type=\"list\">").repeat(LEVELS),
                format!("</{name}>").repeat(LEVELS)
            )
        };
        let call = format!(
            "{ENVELOPE_OPEN}<soap:Body><ns:op xmlns:ns=\"urn:S\">{}</ns:op>\
             </soap:Body></soap:Envelope>",
            lists("x")
        );
        let response = format!(
            "{ENVELOPE_OPEN}<soap:Body><opResponse>{}</opResponse></soap:Body></soap:Envelope>",
            lists("return")
        );
        let expected = (too_deep(&plain), too_deep(&call), too_deep(&response));
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                (
                    crate::xml::parse(&plain).map(|_| ()),
                    SoapCall::from_envelope(&call).map(|_| ()),
                    SoapResponse::from_envelope(&response).map(|_| ()),
                )
            })
            .expect("spawn a 2 MiB-stack thread")
            .join()
            .expect("no decoder overflows its stack");
        assert_eq!(outcome, expected);
    }

    fn hex_encode(b: &[u8]) -> String {
        let mut s = String::with_capacity(b.len() * 2);
        hex_encode_into(b, &mut s);
        s
    }

    /// The reference encoder the direct writers replaced: build the
    /// element tree, then serialise. The fast path must stay
    /// byte-identical to it.
    fn value_to_element(value: &SoapValue, name: &str) -> XmlElement {
        let el = XmlElement::new(name).attr("xsi:type", value.type_name());
        match value {
            SoapValue::Null => el,
            SoapValue::Bool(b) => el.with_text(b.to_string()),
            SoapValue::Int(i) => el.with_text(i.to_string()),
            SoapValue::Double(d) => {
                let mut s = String::new();
                format_double_into(*d, &mut s);
                el.with_text(s)
            }
            SoapValue::Text(s) => el.with_text(s.clone()),
            SoapValue::Bytes(b) => el.with_text(hex_encode(b)),
            SoapValue::List(items) => items
                .iter()
                .fold(el, |acc, item| acc.child(value_to_element(item, "item"))),
            SoapValue::DataRef { hash, len, kind } => {
                el.with_text(format!("{hash:032x}:{len}:{}", kind.wire_name()))
            }
        }
    }

    #[test]
    fn fast_path_envelopes_match_tree_encoder() {
        let call = SoapCall::new("Classifier", "classifyInstance")
            .arg("classifier", SoapValue::Text("J48".into()))
            .arg("empty", SoapValue::Text(String::new()))
            .arg("nil", SoapValue::Null)
            .arg("flag", SoapValue::Bool(false))
            .arg("n", SoapValue::Int(-7))
            .arg("d", SoapValue::Double(0.25))
            .arg("esc", SoapValue::Text("a<b>&\"c'".into()))
            .arg("data", SoapValue::Bytes(vec![0, 255, 16]))
            .arg("none", SoapValue::Bytes(Vec::new()))
            .arg(
                "list",
                SoapValue::List(vec![SoapValue::Int(1), SoapValue::List(Vec::new())]),
            )
            .arg(
                "ref",
                SoapValue::DataRef {
                    hash: 0xdead_beef,
                    len: 1234,
                    kind: RefKind::Text,
                },
            );
        let reference = XmlElement::new("soap:Envelope")
            .attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
            .attr("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance")
            .child(
                XmlElement::new("soap:Body").child(
                    call.args.iter().fold(
                        XmlElement::new(format!("ns:{}", call.operation))
                            .attr("xmlns:ns", format!("urn:{}", call.service)),
                        |acc, (name, value)| acc.child(value_to_element(value, name)),
                    ),
                ),
            )
            .to_xml();
        assert_eq!(call.to_envelope(), reference);

        // No-argument calls self-close the operation element.
        let empty = SoapCall::new("S", "ping");
        assert!(empty
            .to_envelope()
            .contains("<ns:ping xmlns:ns=\"urn:S\"/>"));
        assert_eq!(
            SoapCall::from_envelope(&empty.to_envelope()).unwrap(),
            empty
        );

        let value = SoapResponse::Value(SoapValue::Text("x & y".into()));
        let reference = XmlElement::new("soap:Envelope")
            .attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
            .attr("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance")
            .child(
                XmlElement::new("soap:Body").child(
                    XmlElement::new("opResponse")
                        .child(value_to_element(&SoapValue::Text("x & y".into()), "return")),
                ),
            )
            .to_xml();
        assert_eq!(value.to_envelope("op"), reference);

        let fault = SoapResponse::Fault {
            code: "Server".into(),
            message: "boom & <bust>".into(),
        };
        let reference = XmlElement::new("soap:Envelope")
            .attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
            .attr("xmlns:xsi", "http://www.w3.org/2001/XMLSchema-instance")
            .child(
                XmlElement::new("soap:Body").child(
                    XmlElement::new("soap:Fault")
                        .child(XmlElement::new("faultcode").with_text("Server"))
                        .child(XmlElement::new("faultstring").with_text("boom & <bust>")),
                ),
            )
            .to_xml();
        assert_eq!(fault.to_envelope("op"), reference);
    }

    #[test]
    fn data_ref_roundtrip_and_wire_size() {
        let r = SoapValue::DataRef {
            hash: u128::MAX - 5,
            len: 9_876_543,
            kind: RefKind::Bytes,
        };
        let call = SoapCall::new("S", "op").arg("dataset", r.clone());
        let back = SoapCall::from_envelope(&call.to_envelope()).unwrap();
        assert_eq!(back.get("dataset").unwrap(), &r);
        assert_eq!(r.wire_size(), 80);
        assert_eq!(
            r.as_data_ref(),
            Some((u128::MAX - 5, 9_876_543, RefKind::Bytes))
        );
        assert_eq!(SoapValue::Null.as_data_ref(), None);

        // A large payload's handle is dramatically smaller than the
        // payload itself.
        let payload = SoapValue::Text("x".repeat(100_000));
        assert!(payload.wire_size() > 1000 * r.wire_size());
    }

    #[test]
    fn malformed_data_refs_rejected() {
        for text in [
            "",
            "zz:3:text",
            "ff:notanum:text",
            "ff:3:maybe",
            "ff:3",
            "ff",
        ] {
            assert!(parse_data_ref(text).is_err(), "should reject {text:?}");
        }
        let ok = parse_data_ref("00000000000000000000000000000abc:42:text").unwrap();
        assert_eq!(ok.as_data_ref(), Some((0xabc, 42, RefKind::Text)));
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = SoapValue::Bytes(vec![0; 100]).wire_size();
        let large = SoapValue::Bytes(vec![0; 10_000]).wire_size();
        assert!(large > small * 50);
    }

    #[test]
    fn serialized_size_is_exact_for_every_value_shape() {
        let values = vec![
            SoapValue::Null,
            SoapValue::Bool(true),
            SoapValue::Bool(false),
            SoapValue::Int(0),
            SoapValue::Int(-7001),
            SoapValue::Int(i64::MIN),
            SoapValue::Double(0.25),
            SoapValue::Double(f64::NAN),
            SoapValue::Double(-1.5e300),
            SoapValue::Text(String::new()),
            SoapValue::Text("plain".into()),
            SoapValue::Text("a<b>&\"c' with specials".into()),
            SoapValue::Bytes(Vec::new()),
            SoapValue::Bytes(vec![0, 255, 16]),
            SoapValue::List(Vec::new()),
            SoapValue::List(vec![
                SoapValue::Int(1),
                SoapValue::Text("two & three".into()),
                SoapValue::List(vec![SoapValue::Null]),
            ]),
            SoapValue::DataRef {
                hash: 0xdead_beef,
                len: 0,
                kind: RefKind::Text,
            },
            SoapValue::DataRef {
                hash: u128::MAX,
                len: 9_876_543,
                kind: RefKind::Bytes,
            },
        ];
        for v in values {
            let mut out = String::new();
            v.write_element("dataset", &mut out);
            assert_eq!(
                v.serialized_size("dataset"),
                out.len(),
                "serialized_size mismatch for {v:?}: wrote {out:?}"
            );
        }
    }

    #[test]
    fn trace_parent_rides_a_header_and_roundtrips() {
        let ctx = SpanContext {
            trace_id: 0xfeed_f00d,
            span_id: 7,
        };
        let mut call = SoapCall::new("S", "op").arg("x", SoapValue::Int(1));
        let plain = call.to_envelope();
        assert!(!plain.contains("Header"));
        call.trace_parent = Some(ctx);
        let traced = call.to_envelope();
        assert!(traced.contains("<soap:Header><traceparent>"));
        let back = SoapCall::from_envelope(&traced).unwrap();
        assert_eq!(back.trace_parent, Some(ctx));
        assert_eq!(back.get("x").unwrap(), &SoapValue::Int(1));
        // Headerless envelopes decode to None.
        assert_eq!(SoapCall::from_envelope(&plain).unwrap().trace_parent, None);
        // The header costs a fixed 109 bytes: a 55-char traceparent
        // value plus its framing tags.
        assert_eq!(traced.len() - plain.len(), 109);
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(SoapCall::from_envelope("<a/>").is_err());
        assert!(
            SoapResponse::from_envelope("<soap:Envelope><soap:Body/></soap:Envelope>").is_err()
        );
    }
}
