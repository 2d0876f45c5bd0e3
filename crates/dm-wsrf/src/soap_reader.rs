//! The one-pass envelope reader behind [`SoapCall::from_envelope`] and
//! [`SoapResponse::from_envelope`].
//!
//! It steps through the document once with the [`Cursor`] that
//! [`crate::xml::parse`] uses, so it makes the same syntax checks and
//! raises the same errors, and it keeps a stack of the open elements
//! (at most 64) instead of recursing. Each element gets a [`Role`] from
//! its parent when it opens. Only the elements the envelope's meaning
//! depends on keep their text or build values; every other element is
//! checked and skipped. Names and attribute values stay slices of the
//! input, and a text run is copied once, when a value takes it, and
//! unescaped only if the cursor, in the pass that found the run's end,
//! saw an `&` in it. Per element, the reader strips a name's prefix only
//! where a role depends on the local name (never for an argument or a
//! list item), matches attribute names as bytes, and matches a value's
//! raw `xsi:type` without unescaping it first.
//!
//! A SOAP-level error (no body, an unknown `xsi:type`, a bad number, …)
//! is held until the whole document has been read, so a later syntax
//! error wins, as it does when the tree is parsed before it is read.

use std::borrow::Cow;

use crate::error::{Result, WsError};
use crate::soap::{hex_decode, parse_data_ref, parse_double, SoapCall, SoapResponse, SoapValue};
use crate::trace::SpanContext;
use crate::xml::{local_name, unescape, unescape_into, Content, Cursor};

/// Decode a request envelope.
pub(crate) fn read_call(xml: &str) -> Result<SoapCall> {
    let mut r = Reader {
        call: true,
        ..Reader::default()
    };
    r.document(&mut Cursor::new(xml))?;
    if !r.body {
        return Err(WsError::Malformed("no soap:Body".into()));
    }
    if !r.body_child {
        return Err(WsError::Malformed("empty soap:Body".into()));
    }
    if let Some(e) = r.error {
        return Err(e);
    }
    Ok(SoapCall {
        service: r.service,
        operation: r.operation,
        args: r.args,
        trace_parent: r.trace_parent,
    })
}

/// Decode a response envelope.
pub(crate) fn read_response(xml: &str) -> Result<SoapResponse> {
    let mut r = Reader::default();
    r.document(&mut Cursor::new(xml))?;
    if !r.body {
        return Err(WsError::Malformed("no soap:Body".into()));
    }
    if r.fault {
        return Ok(SoapResponse::Fault {
            code: r.code,
            message: r.message,
        });
    }
    if !r.body_child {
        return Err(WsError::Malformed("empty response body".into()));
    }
    if !r.returned {
        return Err(WsError::Malformed("no return element".into()));
    }
    if let Some(e) = r.error {
        return Err(e);
    }
    let value = r
        .value
        .expect("a return element that decoded leaves its value");
    Ok(SoapResponse::Value(value))
}

/// What an element means to the envelope, decided when it opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Checked and skipped.
    Skip,
    /// The document element.
    Root,
    /// The first child of the root named `Body`.
    Body,
    /// Call: the first child of the root named `Header`.
    Header,
    /// Call: the header's first `traceparent` child.
    TraceParent,
    /// Call: the body's first child; its children are the arguments.
    Operation,
    /// Response: the body's first child; it holds the `return` value.
    Response,
    /// Response: the body's first child named `Fault`.
    Fault,
    /// Response: the fault's first `faultcode` child.
    FaultCode,
    /// Response: the fault's first `faultstring` child.
    FaultString,
    /// An argument, the `return` element, or a list item.
    Value(Kind),
}

impl Role {
    /// Whether the element's character data is kept.
    fn keeps_text(self) -> bool {
        match self {
            Role::TraceParent | Role::FaultCode | Role::FaultString => true,
            Role::Value(kind) => !matches!(kind, Kind::Nil | Kind::List),
            _ => false,
        }
    }
}

/// A value's `xsi:type`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Nil,
    Bool,
    Long,
    Double,
    Text,
    Bytes,
    List,
    DataRef,
}

impl Kind {
    fn of(ty: &str) -> Option<Kind> {
        Some(match ty {
            "nil" => Kind::Nil,
            "boolean" => Kind::Bool,
            "long" => Kind::Long,
            "double" => Kind::Double,
            "string" => Kind::Text,
            "base64Binary" => Kind::Bytes,
            "list" => Kind::List,
            "dataRef" => Kind::DataRef,
            _ => return None,
        })
    }

    /// The value of a leaf element whose character data is `text`.
    fn leaf(self, text: Cow<'_, str>) -> Result<SoapValue> {
        Ok(match self {
            Kind::Nil => SoapValue::Null,
            Kind::Bool => SoapValue::Bool(text == "true"),
            Kind::Long => SoapValue::Int(
                text.parse()
                    .map_err(|_| WsError::Malformed(format!("bad long {text:?}")))?,
            ),
            Kind::Double => SoapValue::Double(parse_double(&text)?),
            Kind::Text => SoapValue::Text(text.into_owned()),
            Kind::Bytes => SoapValue::Bytes(hex_decode(&text)?),
            Kind::DataRef => parse_data_ref(&text)?,
            Kind::List => unreachable!("a list closes through its item buffer"),
        })
    }
}

/// A start tag: its name, the raw values of its first `xsi:type`
/// attribute and its first attribute named `xmlns…`, and whether it
/// closed itself. The other attributes are checked and dropped.
struct Tag<'a> {
    name: &'a str,
    xsi_type: Option<&'a str>,
    xmlns: Option<&'a str>,
    empty: bool,
}

/// An open element.
struct Open<'a> {
    name: &'a str,
    role: Role,
    /// A child element has opened: the text is then trimmed, as the
    /// tree parser trims mixed content.
    children: bool,
    /// Character data so far, if the role keeps it.
    text: Cow<'a, str>,
}

impl<'a> Open<'a> {
    fn new(name: &'a str, role: Role) -> Open<'a> {
        Open {
            name,
            role,
            children: false,
            text: Cow::Borrowed(""),
        }
    }
}

/// What has been decoded so far.
#[derive(Default)]
struct Reader {
    /// Reading a call (else a response).
    call: bool,
    // Whether the element of each role has opened: only the first one
    // counts, as with `XmlElement::find`.
    body: bool,
    body_child: bool,
    header: bool,
    traced: bool,
    fault: bool,
    coded: bool,
    messaged: bool,
    returned: bool,
    service: String,
    operation: String,
    args: Vec<(String, SoapValue)>,
    trace_parent: Option<SpanContext>,
    code: String,
    message: String,
    value: Option<SoapValue>,
    /// The items of each open list value, innermost last.
    lists: Vec<Vec<SoapValue>>,
    /// The first value that did not decode. Once set, no further
    /// values are built.
    error: Option<WsError>,
}

impl Reader {
    /// Read the whole document, syntax first: the first syntax error
    /// is returned, and anything else is left in the fields.
    fn document(&mut self, cursor: &mut Cursor<'_>) -> Result<()> {
        let mut stack = Vec::with_capacity(8);
        let root = start_tag(cursor)?;
        if !root.empty {
            stack.push(Open::new(root.name, Role::Root));
        }
        loop {
            let depth = stack.len();
            let Some(top) = stack.last_mut() else { break };
            match cursor.content(top.name, depth)? {
                Content::Text { run, entities } => {
                    if top.role.keeps_text() {
                        append(&mut top.text, run, entities);
                    }
                }
                Content::CData(raw) => {
                    if top.role.keeps_text() {
                        append(&mut top.text, raw, false);
                    }
                }
                Content::Child => {
                    let tag = start_tag(cursor)?;
                    top.children = true;
                    let parent = top.role;
                    let open = Open::new(tag.name, self.role_of(parent, &tag));
                    if tag.empty {
                        self.close(open, parent);
                    } else {
                        stack.push(open);
                    }
                }
                Content::End => {
                    let open = stack.pop().expect("the loop runs while an element is open");
                    let parent = stack.last().map_or(Role::Skip, |p| p.role);
                    self.close(open, parent);
                }
            }
        }
        cursor.finish()
    }

    /// The role of a child of a `parent` element opening with `tag`.
    /// The name's local part is taken only where a role depends on it,
    /// so a list item or an argument never looks for a prefix.
    fn role_of(&mut self, parent: Role, tag: &Tag<'_>) -> Role {
        let local = || local_name(tag.name);
        match parent {
            Role::Operation | Role::Value(Kind::List) => self.value_role(tag),
            Role::Root if !self.body && local() == "Body" => {
                self.body = true;
                Role::Body
            }
            Role::Root if self.call && !self.header && local() == "Header" => {
                self.header = true;
                Role::Header
            }
            Role::Header if !self.traced && local() == "traceparent" => {
                self.traced = true;
                Role::TraceParent
            }
            Role::Body if self.call && !self.body_child => {
                self.body_child = true;
                self.operation = local().to_string();
                self.service = tag
                    .xmlns
                    .map(unescaped)
                    .as_deref()
                    .and_then(|v| v.strip_prefix("urn:"))
                    .unwrap_or("")
                    .to_string();
                Role::Operation
            }
            Role::Body if !self.call => {
                let first = !std::mem::replace(&mut self.body_child, true);
                if !self.fault && local() == "Fault" {
                    self.fault = true;
                    Role::Fault
                } else if first {
                    Role::Response
                } else {
                    Role::Skip
                }
            }
            Role::Fault if !self.coded && local() == "faultcode" => {
                self.coded = true;
                Role::FaultCode
            }
            Role::Fault if !self.messaged && local() == "faultstring" => {
                self.messaged = true;
                Role::FaultString
            }
            Role::Response if !self.returned && local() == "return" => {
                self.returned = true;
                self.value_role(tag)
            }
            _ => Role::Skip,
        }
    }

    /// The role of a value element, or `Skip` once a value has failed.
    /// The raw `xsi:type` is matched as it stands: no type name holds an
    /// `&`, and resolving entities cannot make one (an `&` either stays
    /// or becomes a special byte), so only an unknown type is unescaped,
    /// for its error message.
    fn value_role(&mut self, tag: &Tag<'_>) -> Role {
        if self.error.is_some() {
            return Role::Skip;
        }
        let raw = tag.xsi_type.unwrap_or("string");
        match Kind::of(raw) {
            Some(kind) => {
                if kind == Kind::List {
                    self.lists.push(Vec::new());
                }
                Role::Value(kind)
            }
            None => {
                let ty = unescaped(raw);
                self.error = Some(WsError::Malformed(format!("unknown xsi:type {ty:?}")));
                Role::Skip
            }
        }
    }

    /// Finish an element whose parent has role `parent`.
    fn close(&mut self, open: Open<'_>, parent: Role) {
        let text = if open.children {
            match open.text {
                Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
                Cow::Owned(s) => Cow::Owned(s.trim().to_string()),
            }
        } else {
            open.text
        };
        let value = match open.role {
            Role::TraceParent => {
                self.trace_parent = SpanContext::from_traceparent(&text);
                return;
            }
            Role::FaultCode => {
                self.code = text.into_owned();
                return;
            }
            Role::FaultString => {
                self.message = text.into_owned();
                return;
            }
            Role::Value(Kind::List) => {
                SoapValue::List(self.lists.pop().expect("an open list holds an item buffer"))
            }
            Role::Value(kind) => match kind.leaf(text) {
                Ok(value) => value,
                Err(e) => {
                    self.error.get_or_insert(e);
                    return;
                }
            },
            _ => return,
        };
        if self.error.is_some() {
            return;
        }
        match parent {
            Role::Operation => self.args.push((open.name.to_string(), value)),
            Role::Value(Kind::List) => self
                .lists
                .last_mut()
                .expect("an open list holds an item buffer")
                .push(value),
            _ => self.value = Some(value),
        }
    }
}

/// Read a start tag, keeping the first `xsi:type` and the first
/// `xmlns…` attribute.
fn start_tag<'a>(cursor: &mut Cursor<'a>) -> Result<Tag<'a>> {
    let (mut xsi_type, mut xmlns) = (None, None);
    let (name, empty) = cursor.start_tag(|key, value| match key.as_bytes() {
        b"xsi:type" => {
            xsi_type.get_or_insert(value);
        }
        key if key.starts_with(b"xmlns") => {
            xmlns.get_or_insert(value);
        }
        _ => {}
    })?;
    Ok(Tag {
        name,
        xsi_type,
        xmlns,
        empty,
    })
}

/// An attribute value with its entities resolved, borrowed when it has
/// none.
fn unescaped(raw: &str) -> Cow<'_, str> {
    if raw.contains('&') {
        Cow::Owned(unescape(raw))
    } else {
        Cow::Borrowed(raw)
    }
}

/// Add one run of character data to `text`: a text run whose
/// `entities` resolve (the cursor has found whether it holds an `&`), or
/// a CDATA section (`entities` false), kept as is. A lone run with no
/// entity stays borrowed.
fn append<'a>(text: &mut Cow<'a, str>, run: &'a str, entities: bool) {
    if run.is_empty() {
        return;
    }
    if entities {
        unescape_into(run, text.to_mut());
    } else if text.is_empty() {
        *text = Cow::Borrowed(run);
    } else {
        text.to_mut().push_str(run);
    }
}
