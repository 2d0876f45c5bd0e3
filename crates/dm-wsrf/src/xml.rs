//! A minimal XML element tree with a writer and a non-validating
//! parser — for reading WSDL documents and for the workflow engine's
//! taskgraph/DAX exports — plus the entity escaping every writer
//! shares. WSDL documents, like envelopes, are written without a tree
//! (`crate::wsdl`). Supports
//! elements, attributes, character data with the five standard
//! entities, comments, processing instructions (skipped), CDATA, and
//! self-closing tags. No DTDs, no namespace resolution (prefixes travel
//! as part of the name). Elements nest at most 64 levels deep; deeper
//! input is a [`WsError::Xml`] error.
//!
//! The lexical rules live in one place, `Cursor`. [`parse`] builds the
//! tree with it; SOAP envelopes do not go through the tree at all:
//! `crate::soap` reads them with the same cursor in one pass, straight
//! into values, so both raise the same errors at the same offsets.
//!
//! Envelope cost is this text layer's cost, so each of its byte loops
//! tests a byte once, 32 bytes at a time: escaping, the escaped length,
//! the end of a run of character data (found together with whether the
//! run holds an `&`) and entity resolution each skip a chunk holding
//! none of the bytes they look for after one branch-free test, and look
//! into any other chunk through its bit mask. Entities resolve by byte
//! pattern, element and attribute names are read through a byte class
//! table, and a closing tag that repeats its element's name is matched
//! in one compare. Text shorter than a chunk is scanned eight bytes at a
//! time instead, which costs a short name or value less than a chunk.

use crate::error::{Result, WsError};

/// An XML element: name, attributes, child elements, and text content.
///
/// Mixed content is simplified: all character data of an element is
/// concatenated into `text`, which is sufficient for the documents this
/// toolkit exchanges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    /// Tag name (possibly prefixed, e.g. `soap:Envelope`).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
    /// Concatenated character data.
    pub text: String,
}

impl XmlElement {
    /// Create an element with no attributes or children.
    pub fn new<N: Into<String>>(name: N) -> XmlElement {
        XmlElement {
            name: name.into(),
            ..XmlElement::default()
        }
    }

    /// Builder: add an attribute.
    pub fn attr<K: Into<String>, V: Into<String>>(mut self, key: K, value: V) -> XmlElement {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Builder: add a child element.
    pub fn child(mut self, child: XmlElement) -> XmlElement {
        self.children.push(child);
        self
    }

    /// Builder: set text content.
    pub fn with_text<T: Into<String>>(mut self, text: T) -> XmlElement {
        self.text = text.into();
        self
    }

    /// Attribute lookup.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First child with the given name (ignoring any namespace prefix).
    pub fn find(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| local_name(&c.name) == name)
    }

    /// All children with the given name (ignoring prefixes).
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.children
            .iter()
            .filter(move |c| local_name(&c.name) == name)
    }

    /// Serialise to a compact XML string (no declaration).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Serialise with two-space indentation and a trailing newline.
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        if pretty && depth > 0 {
            out.push('\n');
            push_indent(out, depth);
        }
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escape_into(&self.text, out);
        for c in &self.children {
            c.write(out, depth + 1, pretty);
        }
        if pretty && !self.children.is_empty() {
            out.push('\n');
            push_indent(out, depth);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Strip a namespace prefix: `soap:Body` → `Body`.
pub fn local_name(name: &str) -> &str {
    match name.bytes().rposition(|b| b == b':') {
        Some(colon) => &name[colon + 1..],
        None => name,
    }
}

/// Escape the five standard XML entities.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Escape into an existing buffer: one `push_str` for the clean bytes
/// before each special byte (none when there are none, as between the
/// `"` and `>` that close an SVG element), one for its entity, and one
/// for the clean tail, so clean runs (the overwhelmingly common case for
/// dataset payloads) are appended in one `push_str` each, however many
/// clean 32-byte chunks they span.
pub fn escape_into(s: &str, out: &mut String) {
    let mut clean = 0;
    for_each_special(s.as_bytes(), |i, entity| {
        if clean < i {
            out.push_str(&s[clean..i]);
        }
        out.push_str(entity);
        clean = i + 1;
    });
    out.push_str(&s[clean..]);
}

/// Length of [`escape`]'s output without allocating it — used by the
/// exact wire-size accounting in [`crate::soap`]. Whole 32-byte chunks
/// go through [`extra_in_chunks`]; the tail, and all of an input shorter
/// than a chunk, eight bytes at a time, as [`for_each_special`] goes.
pub fn escaped_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let (mut extra, tail) = if bytes.len() < CHUNK {
        (0, 0)
    } else {
        extra_in_chunks(bytes)
    };
    each_special_in_words(tail, &bytes[tail..], |_, entity| extra += entity.len() - 1);
    s.len() + extra
}

/// The bytes [`escape`] adds for each byte value: its entity's length
/// less the one byte it replaces, 0 for a byte written as is.
const EXTRA_LEN: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < table.len() {
        if let Some(entity) = entity(b as u8) {
            table[b] = entity.len() as u8 - 1;
        }
        b += 1;
    }
    table
};

/// The bytes [`escape`] adds to the whole 32-byte chunks of `bytes`,
/// and where the tail (left to the caller) starts. A chunk with no
/// special byte is skipped after one branch-free test; one that has
/// some sums its bytes' [`EXTRA_LEN`], with no branch and no walk over
/// its special bytes, which on entity-dense text (an SVG) costs less
/// than [`each_in_chunks`]' walk. Kept out of line, as that is.
#[inline(never)]
fn extra_in_chunks(bytes: &[u8]) -> (usize, usize) {
    let mut chunks = bytes.chunks_exact(CHUNK);
    let mut extra = 0;
    for chunk in &mut chunks {
        if any(chunk, special) {
            extra += chunk
                .iter()
                .map(|&b| usize::from(EXTRA_LEN[usize::from(b)]))
                .sum::<usize>();
        }
    }
    (extra, bytes.len() - chunks.remainder().len())
}

/// The entity [`escape`] writes for `b`, if `b` is one of the five
/// special bytes.
const fn entity(b: u8) -> Option<&'static str> {
    Some(match b {
        b'&' => "&amp;",
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'"' => "&quot;",
        b'\'' => "&apos;",
        _ => return None,
    })
}

/// Bytes per chunk of the text scans. A chunk holding none of the bytes
/// a scan looks for is skipped after one branch-free test of all its
/// bytes, which the compiler turns into a few vector compares.
const CHUNK: usize = 32;

/// 1 if `b` is one of the five special bytes, else 0 (no branch: the
/// five compares are combined with `|`).
fn special(b: u8) -> u8 {
    u8::from(b == b'&')
        | u8::from(b == b'<')
        | u8::from(b == b'>')
        | u8::from(b == b'"')
        | u8::from(b == b'\'')
}

/// Whether `test` is 1 for any byte of `chunk`, tested branch-free.
fn any(chunk: &[u8], test: impl Fn(u8) -> u8) -> bool {
    let mut seen = 0;
    for &b in chunk {
        seen |= test(b);
    }
    seen != 0
}

/// A bit for each byte of a 32-byte `chunk` that `test` marks, in byte
/// order from the least significant bit.
fn mask(chunk: &[u8], test: impl Fn(u8) -> u8) -> u32 {
    let chunk: &[u8; CHUNK] = chunk.try_into().expect("a whole chunk");
    let mut bits = 0;
    for (j, &b) in chunk.iter().enumerate() {
        bits |= u32::from(test(b)) << j;
    }
    bits
}

/// Call `f(offset, byte)` for each byte of the whole 32-byte chunks of
/// `bytes` that `test` marks, in order, and return where the tail (the
/// last `bytes.len() % 32` bytes, left to the caller) starts. A chunk
/// with no marked byte is skipped after one branch-free test; only a
/// chunk that has one is looked into, through its bit mask. Kept out of
/// line, so that its callers stay small on inputs shorter than a chunk.
#[inline(never)]
fn each_in_chunks(
    bytes: &[u8],
    test: impl Fn(u8) -> u8 + Copy,
    mut f: impl FnMut(usize, u8),
) -> usize {
    let mut chunks = bytes.chunks_exact(CHUNK);
    let mut base = 0;
    for chunk in &mut chunks {
        if any(chunk, test) {
            let mut bits = mask(chunk, test);
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                f(base + j, chunk[j]);
                bits &= bits - 1;
            }
        }
        base += CHUNK;
    }
    base
}

/// Call `f(offset, entity)` for each special byte of `bytes`, in order:
/// whole 32-byte chunks through [`each_in_chunks`] (a clean chunk costs
/// one branch-free test), then the tail, and all of an input shorter
/// than a chunk, eight bytes at a time.
fn for_each_special(bytes: &[u8], mut f: impl FnMut(usize, &'static str)) {
    let tail = if bytes.len() < CHUNK {
        0
    } else {
        each_in_chunks(bytes, special, |i, b| {
            f(i, entity(b).expect("a special byte has an entity"));
        })
    };
    each_special_in_words(tail, &bytes[tail..], f);
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `word` that may be a special byte. It
/// is set for every special byte (a zero-byte test of `word ^ b…b` per
/// special `b`); a borrow can also set it on the byte after one, so a
/// candidate is confirmed before use.
fn candidates(word: u64) -> u64 {
    let equal = |b: u8| {
        let x = word ^ (ONES * u64::from(b));
        x.wrapping_sub(ONES) & !x & HIGHS
    };
    equal(b'&') | equal(b'<') | equal(b'>') | equal(b'"') | equal(b'\'')
}

/// [`for_each_special`] over `bytes`, which start at offset `base`,
/// one eight-byte little-endian word at a time, the last one
/// zero-padded: only the candidate bytes of a word that has any are
/// looked at. Inputs shorter than a chunk come straight here, and it is
/// inlined into its callers, so that a short string pays no call.
#[inline(always)]
fn each_special_in_words(base: usize, bytes: &[u8], mut f: impl FnMut(usize, &'static str)) {
    let mut visit = |base: usize, word: u64, mut mask: u64| {
        while mask != 0 {
            let j = mask.trailing_zeros() / 8;
            if let Some(e) = entity((word >> (8 * j)) as u8) {
                f(base + j as usize, e);
            }
            mask &= mask - 1;
        }
    };
    let mut words = bytes.chunks_exact(8);
    let mut base = base;
    for span in &mut words {
        let word = u64::from_le_bytes(span.try_into().expect("chunks_exact yields 8 bytes"));
        let mask = candidates(word);
        if mask != 0 {
            visit(base, word, mask);
        }
        base += 8;
    }
    let rest = words.remainder();
    let tail = match bytes.len().checked_sub(8) {
        // The last eight bytes, shifted down past those already read:
        // one load instead of a byte-by-byte fold.
        Some(last) if !rest.is_empty() => {
            let word = u64::from_le_bytes(bytes[last..].try_into().expect("eight bytes"));
            word >> (8 * (8 - rest.len()))
        }
        Some(_) => return,
        // A whole input of under eight bytes, such as a short label or
        // number: one branch-free pass shows that it holds no special
        // byte (in the benchmark's workloads, none of them does), and
        // spares it the assembly of its word.
        None if !any(rest, special) => return,
        None => rest
            .iter()
            .rev()
            .fold(0, |word, &b| word << 8 | u64::from(b)),
    };
    visit(base, tail, candidates(tail));
}

/// The deepest element nesting a document may have, counting the root
/// as level one: the run journal's token-nesting limit. Deeper input is
/// a [`WsError::Xml`] at the `<` of the first element past the limit,
/// so no nesting can exhaust a reader's stack.
pub(crate) const MAX_DEPTH: usize = 64;

/// The error message for input nested deeper than [`MAX_DEPTH`].
pub(crate) const TOO_DEEP: &str = "elements nested deeper than 64 levels";

/// The bytes a name may hold: ASCII letters and digits, `_`, `-`, `.`
/// and `:`. One lookup per byte.
static NAME_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
        b += 1;
    }
    table
};

/// Parse a document into its root element.
pub fn parse(input: &str) -> Result<XmlElement> {
    let mut cursor = Cursor::new(input);
    let root = element(&mut cursor, 1)?;
    cursor.finish()?;
    Ok(root)
}

/// The element whose start tag is at the cursor, `depth` levels down.
fn element(cursor: &mut Cursor<'_>, depth: usize) -> Result<XmlElement> {
    let mut attributes = Vec::new();
    let (name, empty) =
        cursor.start_tag(|key, value| attributes.push((key.to_string(), unescape(value))))?;
    let mut el = XmlElement {
        name: name.to_string(),
        attributes,
        ..XmlElement::default()
    };
    if empty {
        return Ok(el);
    }
    loop {
        match cursor.content(name, depth)? {
            Content::Text { run, entities } => {
                if entities {
                    unescape_into(run, &mut el.text);
                } else {
                    el.text.push_str(run);
                }
            }
            Content::CData(raw) => el.text.push_str(raw),
            Content::Child => el.children.push(element(cursor, depth + 1)?),
            Content::End => {
                // Trim only mixed-content elements: there the character
                // data is pretty-printing indentation. Childless
                // elements carry values whose whitespace is significant.
                if !el.children.is_empty() {
                    el.text = el.text.trim().to_string();
                }
                return Ok(el);
            }
        }
    }
}

/// One step through an element's content (see [`Cursor::content`]).
pub(crate) enum Content<'a> {
    /// A run of character data, its entities not yet resolved, and
    /// whether it holds an `&` (found in the pass that found its end):
    /// a run without one reads as it stands.
    Text { run: &'a str, entities: bool },
    /// The contents of a CDATA section, taken as they are.
    CData(&'a str),
    /// A child element's start tag is next.
    Child,
    /// The element's closing tag has been read.
    End,
}

/// The lexical rules of a document, as a cursor over it: [`parse`]
/// builds the element tree with it and the SOAP envelope reader reads
/// envelopes with it, so the two make the same syntax checks and raise
/// the same errors at the same offsets. Every piece it returns is a
/// slice of the input.
pub(crate) struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor past the prolog (whitespace, comments, processing
    /// instructions and the XML declaration) of `src`.
    pub(crate) fn new(src: &'a str) -> Cursor<'a> {
        let mut cursor = Cursor { src, pos: 0 };
        cursor.skip_misc();
        cursor
    }

    fn err(&self, message: &str) -> WsError {
        WsError::Xml {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    /// The offset of the first `needle` at or after `from`.
    fn find_from(&self, from: usize, needle: &str) -> Option<usize> {
        self.src[from..].find(needle).map(|i| from + i)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, comments, PIs and the XML declaration. An
    /// unterminated one runs to the end of the input.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            let close = if self.starts_with("<?") {
                "?>"
            } else if self.starts_with("<!--") {
                "-->"
            } else {
                return;
            };
            match self.find_from(self.pos, close) {
                Some(end) => self.pos = end + close.len(),
                None => {
                    self.pos = self.src.len();
                    return;
                }
            }
        }
    }

    fn name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        let rest = &self.src.as_bytes()[start..];
        let len = rest
            .iter()
            .position(|&c| !NAME_BYTE[usize::from(c)])
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("expected a name"));
        }
        self.pos += len;
        Ok(&self.src[start..self.pos])
    }

    /// Read the start tag at the cursor, handing each attribute to
    /// `attribute` as its name and raw (still escaped) value. Returns
    /// the tag's name and whether it closed itself.
    pub(crate) fn start_tag(
        &mut self,
        mut attribute: impl FnMut(&'a str, &'a str),
    ) -> Result<(&'a str, bool)> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok((name, true));
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((name, false));
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
                    let value = &self.src.as_bytes()[start..];
                    let Some(len) = value.iter().position(|&b| b == quote) else {
                        self.pos = self.src.len();
                        return Err(self.err("unterminated attribute value"));
                    };
                    self.pos += len + 1;
                    attribute(key, &self.src[start..start + len]);
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }

    /// The next step through the content of the open element `open`,
    /// which sits `depth` levels down (the root is 1). Comments are
    /// skipped, and a child that would sit deeper than [`MAX_DEPTH`] is
    /// an error at its `<`.
    pub(crate) fn content(&mut self, open: &str, depth: usize) -> Result<Content<'a>> {
        loop {
            // Character data is the common case: one byte decides it,
            // and the byte after a `<` decides the rest.
            let rest = &self.src.as_bytes()[self.pos..];
            match rest {
                [] => return Err(self.err("unterminated element content")),
                [b'<', b'/', tail @ ..] => {
                    // `</open>` as written by every encoder reads in one
                    // compare: the name cannot run on past the `>`.
                    if tail.get(open.len()) == Some(&b'>') && tail.starts_with(open.as_bytes()) {
                        self.pos += 2 + open.len() + 1;
                        return Ok(Content::End);
                    }
                    self.pos += 2;
                    if self.name()? != open {
                        return Err(self.err("mismatched closing tag"));
                    }
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' in closing tag"));
                    }
                    self.pos += 1;
                    return Ok(Content::End);
                }
                [b'<', b'!', ..] => {}
                [b'<', ..] if depth >= MAX_DEPTH => return Err(self.err(TOO_DEEP)),
                [b'<', ..] => return Ok(Content::Child),
                _ => return Ok(self.text()),
            }
            if self.starts_with("<!--") {
                let end = self
                    .find_from(self.pos, "-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
                continue;
            }
            if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                let end = self
                    .find_from(start, "]]>")
                    .ok_or_else(|| self.err("unterminated CDATA"))?;
                self.pos = end + 3;
                return Ok(Content::CData(&self.src[start..end]));
            }
            if depth >= MAX_DEPTH {
                return Err(self.err(TOO_DEEP));
            }
            return Ok(Content::Child);
        }
    }

    /// The run of character data at the cursor, up to the next `<` or
    /// the end of the input, and whether it holds an `&`, in one pass:
    /// each whole 32-byte chunk before the `<` is tested for both bytes
    /// at once, branch-free, and only the chunk holding the `<` (or the
    /// tail) is read byte by byte.
    fn text(&mut self) -> Content<'a> {
        let start = self.pos;
        let rest = &self.src.as_bytes()[start..];
        let mut amp = 0;
        let mut len = 0;
        for chunk in rest.chunks_exact(CHUNK) {
            let (mut lt, mut seen) = (0, 0);
            for &b in chunk {
                lt |= u8::from(b == b'<');
                seen |= u8::from(b == b'&');
            }
            if lt != 0 {
                break;
            }
            amp |= seen;
            len += CHUNK;
        }
        for &b in &rest[len..] {
            if b == b'<' {
                break;
            }
            amp |= u8::from(b == b'&');
            len += 1;
        }
        self.pos += len;
        Content::Text {
            run: &self.src[start..self.pos],
            entities: amp != 0,
        }
    }

    /// After the root element: skip trailing comments, PIs and
    /// whitespace, and fail on anything else.
    pub(crate) fn finish(&mut self) -> Result<()> {
        self.skip_misc();
        if self.pos < self.src.len() {
            return Err(self.err("trailing content after the root element"));
        }
        Ok(())
    }
}

/// Resolve the five standard entities (unknown entities pass through).
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    unescape_into(s, &mut out);
    out
}

/// [`unescape`] appending to `out`. An `&` starts an entity only if a
/// `;` follows within six bytes; otherwise it is literal. The `&`s are
/// found chunk by chunk (see [`each_in_chunks`]), each standard entity
/// is recognised by its byte pattern, and the text between resolved
/// entities is appended in one `push_str` per run; an unknown entity or
/// a literal `&` stays in its run.
pub(crate) fn unescape_into(s: &str, out: &mut String) {
    // Resolving only shortens text: one reservation covers the output.
    out.reserve(s.len());
    let bytes = s.as_bytes();
    // Bytes before `clean` are written; bytes before `next` belong to
    // an entity already read, so an `&` among them starts nothing.
    let (mut clean, mut next) = (0, 0);
    let mut visit = |at: usize, _| {
        if at < next {
            return;
        }
        let (resolved, len) = entity_at(&bytes[at..]);
        if let Some(b) = resolved {
            if clean < at {
                out.push_str(&s[clean..at]);
            }
            out.push(char::from(b));
            clean = at + len;
        }
        next = at + len;
    };
    let tail = each_in_chunks(bytes, |b| u8::from(b == b'&'), &mut visit);
    for (at, &b) in bytes.iter().enumerate().skip(tail) {
        if b == b'&' {
            visit(at, b);
        }
    }
    out.push_str(&s[clean..]);
}

/// The entity at the start of `rest`, which begins with `&`: the byte a
/// standard entity stands for, and how many bytes the entity spans. An
/// unknown entity (a `;` within six bytes of the `&`) spans up to its
/// `;` and resolves to nothing, as does a literal `&` (no such `;`),
/// which spans one byte.
fn entity_at(rest: &[u8]) -> (Option<u8>, usize) {
    // The first eight bytes as a little-endian word, zero-padded (no
    // entity holds a zero byte).
    let word = match rest.get(..8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
        None => rest
            .iter()
            .rev()
            .fold(0, |word, &b| word << 8 | u64::from(b)),
    };
    for &(pattern, len, b) in &ENTITY_PATTERNS {
        let bits = 8 * len;
        if word & (u64::MAX >> (64 - bits)) == pattern {
            return (Some(b), len);
        }
    }
    match rest.iter().take(7).position(|&b| b == b';') {
        Some(end) => (None, end + 1),
        None => (None, 1),
    }
}

/// Each standard entity as a little-endian word of its bytes, with its
/// length and the byte it stands for.
const ENTITY_PATTERNS: [(u64, usize, u8); 5] = [
    (pattern(b"&amp;"), 5, b'&'),
    (pattern(b"&lt;"), 4, b'<'),
    (pattern(b"&gt;"), 4, b'>'),
    (pattern(b"&quot;"), 6, b'"'),
    (pattern(b"&apos;"), 6, b'\''),
];

/// `bytes` (at most eight) as a little-endian word.
const fn pattern(bytes: &[u8]) -> u64 {
    let mut word = 0;
    let mut i = bytes.len();
    while i > 0 {
        i -= 1;
        word = word << 8 | bytes[i] as u64;
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_tree() {
        let doc = XmlElement::new("root")
            .attr("version", "1.0")
            .child(XmlElement::new("child").with_text("hello & <world>"))
            .child(XmlElement::new("empty"));
        let xml = doc.to_xml();
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parses_declaration_and_comments() {
        let xml = "<?xml version=\"1.0\"?><!-- note --><a><!-- inner --><b/></a>";
        let doc = parse(xml).unwrap();
        assert_eq!(doc.name, "a");
        assert_eq!(doc.children.len(), 1);
    }

    #[test]
    fn attributes_unescaped() {
        let doc = parse("<a title=\"x &amp; y\"/>").unwrap();
        assert_eq!(doc.attribute("title"), Some("x & y"));
    }

    #[test]
    fn cdata_preserved() {
        let doc = parse("<a><![CDATA[1 < 2 && 3 > 2]]></a>").unwrap();
        assert_eq!(doc.text, "1 < 2 && 3 > 2");
    }

    #[test]
    fn namespace_prefixes_kept_but_findable() {
        let doc = parse("<soap:Envelope><soap:Body>x</soap:Body></soap:Envelope>").unwrap();
        assert_eq!(doc.name, "soap:Envelope");
        assert!(doc.find("Body").is_some());
        assert_eq!(local_name("soap:Body"), "Body");
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unterminated_rejected() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a attr=>").is_err());
        assert!(parse("<a attr=\"x>").is_err());
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(unescape("&copy; &amp;"), "&copy; &");
        assert_eq!(unescape("lone & ampersand"), "lone & ampersand");
    }

    #[test]
    fn pretty_print_indents() {
        let doc = XmlElement::new("a").child(XmlElement::new("b"));
        let pretty = doc.to_pretty_xml();
        assert!(pretty.contains("\n  <b/>"));
        let parsed = parse(&pretty).unwrap();
        assert_eq!(parsed.name, "a");
    }

    #[test]
    fn quoted_attribute_variants() {
        let doc = parse("<a x='single' y=\"double\"/>").unwrap();
        assert_eq!(doc.attribute("x"), Some("single"));
        assert_eq!(doc.attribute("y"), Some("double"));
    }

    #[test]
    fn escape_handles_runs_and_specials() {
        assert_eq!(
            escape("a&b<c>d\"e'f plain tail"),
            "a&amp;b&lt;c&gt;d&quot;e&apos;f plain tail"
        );
        assert_eq!(escape("no specials at all"), "no specials at all");
        assert_eq!(escape(""), "");
        assert_eq!(escape("&&&"), "&amp;&amp;&amp;");
    }

    #[test]
    fn escaped_len_matches_escape() {
        for s in ["", "plain", "a&b<c>d\"e'f", "&&&", "mixed & <tags> 'x'"] {
            assert_eq!(escaped_len(s), escape(s).len(), "{s:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let doc = |levels| format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels));
        assert!(parse(&doc(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&doc(MAX_DEPTH + 1)),
            Err(WsError::Xml {
                offset: 3 * MAX_DEPTH,
                message: TOO_DEEP.into(),
            })
        );
    }

    #[test]
    fn unescape_resolves_only_entities_closed_within_six_bytes() {
        assert_eq!(unescape("&amp;&lt;&gt;&quot;&apos;"), "&<>\"'");
        assert_eq!(unescape("&toolong; &a"), "&toolong; &a");
        assert_eq!(unescape("&lt;&gt"), "<&gt");
    }

    #[test]
    fn find_all_filters_by_local_name() {
        let doc = parse("<r><w:item/><item/><other/></r>").unwrap();
        assert_eq!(doc.find_all("item").count(), 2);
    }
}
