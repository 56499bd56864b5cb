//! A small XML subset: elements, attributes, text and comments.
//!
//! Implemented from scratch so the workspace stays dependency-light. The
//! subset is exactly what the Mercury command language needs:
//!
//! * elements with attributes, child elements and text content
//! * standard entity escaping (`&amp; &lt; &gt; &quot; &apos;`)
//! * self-closing tags and comments (skipped)
//! * an optional leading `<?xml …?>` declaration (skipped)
//!
//! It deliberately does **not** implement namespaces, DTDs, CDATA or
//! processing instructions.
//!
//! There is one parser, and it is zero-copy: [`ElementRef::parse`] produces
//! a borrowed tree whose names are slices of the input and whose attribute
//! values and text runs borrow too, unless entity-unescaping forced an
//! owned copy. [`Element::parse`] is that parser plus a deep
//! [`ElementRef::into_owned`], so the two paths accept and reject exactly
//! the same inputs with exactly the same errors by construction. Decoders
//! that only *read* the tree (message and envelope decoding) are generic
//! over [`XmlRead`] and run on either representation.
//!
//! The envelope wire path builds no tree in either direction. Encoders drive
//! the crate-private `XmlWrite` sink (the write-side mirror of [`XmlRead`]),
//! which either appends to the wire string or builds an [`Element`]. Decoding
//! first tries `with_flat_document`, which recognises the exact two-level,
//! attribute-only shape the encoder emits into borrowed slices on the stack;
//! any other byte makes it decline, and the tree parser above remains the
//! only reader of everything else and the only source of error text.

use std::borrow::Cow;
use std::fmt;

/// A node in an XML document tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A text run (unescaped form).
    Text(String),
}

/// An XML element: name, attributes and children.
///
/// ```
/// use mercury_msg::Element;
/// let el = Element::new("ping").with_attr("seq", "42");
/// assert_eq!(el.to_string(), r#"<ping seq="42"/>"#);
/// let parsed = Element::parse(r#"<ping seq="42"/>"#)?;
/// assert_eq!(parsed, el);
/// # Ok::<(), mercury_msg::ParseXmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Creates an empty element.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid XML name (see [`is_valid_name`]).
    pub fn new(name: impl Into<String>) -> Element {
        let name = name.into();
        assert!(is_valid_name(&name), "invalid element name {name:?}");
        Element {
            name,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds or replaces an attribute.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid XML name.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        assert!(is_valid_name(&key), "invalid attribute name {key:?}");
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.attrs.push((key, value));
        }
    }

    /// Builder-style [`set_attr`](Self::set_attr).
    #[must_use]
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Element {
        self.set_attr(key, value);
        self
    }

    /// Looks up an attribute value.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All attributes in insertion order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Appends a child element.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Builder-style [`push_child`](Self::push_child).
    #[must_use]
    pub fn with_child(mut self, child: Element) -> Element {
        self.push_child(child);
        self
    }

    /// Appends a text run.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// Builder-style [`push_text`](Self::push_text).
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.push_text(text);
        self
    }

    /// All child nodes in order.
    pub fn children(&self) -> &[Node] {
        &self.children
    }

    /// Child elements only, in order.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// The first child element with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Concatenated text content of direct text children (unescaped).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Serializes to a compact single-line XML string.
    pub fn to_xml_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes to an indented, human-readable form (two spaces per
    /// level) — used by diagnostic dumps, not the wire.
    ///
    /// ```
    /// use mercury_msg::Element;
    /// let el = Element::new("a").with_child(Element::new("b"));
    /// assert_eq!(el.to_pretty_string(), "<a>\n  <b/>\n</a>\n");
    /// ```
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        out.push_str(&indent);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            push_attr(out, k, v);
        }
        if self.children.is_empty() {
            out.push_str("/>\n");
            return;
        }
        // Text-only elements stay on one line.
        if self.children.iter().all(|c| matches!(c, Node::Text(_))) {
            out.push('>');
            for child in &self.children {
                if let Node::Text(t) = child {
                    escape_into(t, out);
                }
            }
            out.push_str("</");
            out.push_str(&self.name);
            out.push_str(">\n");
            return;
        }
        out.push_str(">\n");
        for child in &self.children {
            match child {
                Node::Element(e) => e.write_pretty(out, depth + 1),
                Node::Text(t) => {
                    out.push_str(&"  ".repeat(depth + 1));
                    escape_into(t, out);
                    out.push('\n');
                }
            }
        }
        out.push_str(&indent);
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            push_attr(out, k, v);
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for child in &self.children {
            match child {
                Node::Element(e) => e.write(out),
                Node::Text(t) => escape_into(t, out),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Parses a single XML element (optionally preceded by an `<?xml?>`
    /// declaration, comments and whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseXmlError`] describing the first syntax error, with its
    /// byte offset.
    pub fn parse(input: &str) -> Result<Element, ParseXmlError> {
        ElementRef::parse(input).map(ElementRef::into_owned)
    }
}

/// A node in a borrowed XML tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRef<'a> {
    /// A child element.
    Element(ElementRef<'a>),
    /// A text run (unescaped form; borrowed when no entity appeared).
    Text(Cow<'a, str>),
}

impl NodeRef<'_> {
    fn into_owned(self) -> Node {
        match self {
            NodeRef::Element(e) => Node::Element(e.into_owned()),
            NodeRef::Text(t) => Node::Text(t.into_owned()),
        }
    }
}

/// A borrowed view of a parsed XML element.
///
/// Element and attribute names are slices of the parse input; attribute
/// values and text runs are [`Cow`]s that borrow unless entity-unescaping
/// forced an owned copy. Envelope decoding runs on this representation for
/// every wire that is not in the encoder's own flat shape — parsed, decoded
/// and dropped without copying the document tree.
///
/// ```
/// use mercury_msg::ElementRef;
/// let el = ElementRef::parse(r#"<ping seq="42"/>"#)?;
/// assert_eq!(el.name(), "ping");
/// assert_eq!(el.attr("seq"), Some("42"));
/// # Ok::<(), mercury_msg::ParseXmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementRef<'a> {
    name: &'a str,
    attrs: Vec<(&'a str, Cow<'a, str>)>,
    children: Vec<NodeRef<'a>>,
}

impl<'a> ElementRef<'a> {
    /// Parses a single XML element without copying the document tree
    /// (optionally preceded by an `<?xml?>` declaration, comments and
    /// whitespace). Accepts and rejects exactly the inputs
    /// [`Element::parse`] does, with identical errors — the owned parser is
    /// this one plus [`ElementRef::into_owned`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseXmlError`] describing the first syntax error, with
    /// its byte offset.
    pub fn parse(input: &'a str) -> Result<ElementRef<'a>, ParseXmlError> {
        let mut p = Parser::new(input);
        p.skip_prolog();
        let el = p.parse_element(0)?;
        p.skip_misc();
        if !p.at_end() {
            return Err(p.error("trailing content after document element"));
        }
        Ok(el)
    }

    /// The element name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Looks up an attribute value.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_ref())
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (*k, v.as_ref()))
    }

    /// All child nodes in order.
    pub fn children(&self) -> &[NodeRef<'a>] {
        &self.children
    }

    /// Child elements only, in order.
    pub fn child_elements(&self) -> impl Iterator<Item = &ElementRef<'a>> {
        self.children.iter().filter_map(|n| match n {
            NodeRef::Element(e) => Some(e),
            NodeRef::Text(_) => None,
        })
    }

    /// The first child element with the given name.
    pub fn child(&self, name: &str) -> Option<&ElementRef<'a>> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Concatenated text content of direct text children (unescaped).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let NodeRef::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Deep-copies into an owned [`Element`].
    pub fn into_owned(self) -> Element {
        Element {
            name: self.name.to_string(),
            attrs: self
                .attrs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into_owned()))
                .collect(),
            children: self.children.into_iter().map(NodeRef::into_owned).collect(),
        }
    }
}

/// Read-only access shared by the owned [`Element`] and borrowed
/// [`ElementRef`] trees, so decoders (messages, envelopes) are written once
/// and run on either — in particular straight off the zero-copy parse.
pub trait XmlRead: Sized {
    /// The element name.
    fn name(&self) -> &str;
    /// Looks up an attribute value.
    fn attr(&self, key: &str) -> Option<&str>;
    /// Direct child elements, in order.
    fn child_elements(&self) -> impl Iterator<Item = &Self>;
}

impl XmlRead for Element {
    fn name(&self) -> &str {
        self.name()
    }
    fn attr(&self, key: &str) -> Option<&str> {
        self.attr(key)
    }
    fn child_elements(&self) -> impl Iterator<Item = &Self> {
        self.child_elements()
    }
}

impl XmlRead for ElementRef<'_> {
    fn name(&self) -> &str {
        self.name
    }
    fn attr(&self, key: &str) -> Option<&str> {
        self.attr(key)
    }
    fn child_elements(&self) -> impl Iterator<Item = &Self> {
        self.child_elements()
    }
}

/// Most attributes an element of a flat document may carry before
/// [`with_flat_document`] declines; the widest message in the vocabulary
/// (`beacon`) has five.
const FLAT_MAX_ATTRS: usize = 8;

/// One element of a flat document: a name and attributes that are all
/// slices of the wire, held in a fixed array so reading allocates nothing.
pub(crate) struct FlatElement<'a> {
    name: &'a str,
    attrs: [(&'a str, &'a str); FLAT_MAX_ATTRS],
    len: usize,
    child: Option<&'a FlatElement<'a>>,
}

impl XmlRead for FlatElement<'_> {
    fn name(&self) -> &str {
        self.name
    }
    fn attr(&self, key: &str) -> Option<&str> {
        self.attrs[..self.len]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }
    fn child_elements(&self) -> impl Iterator<Item = &Self> {
        self.child.into_iter()
    }
}

/// Splits the valid name `rest` starts with off its front.
fn take_name<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let (name, tail) = rest.split_at(name_len(rest.as_bytes()));
    *rest = tail;
    (!name.is_empty()).then_some(name)
}

/// Reads `<name k="v" k="v"` off the front of `rest`, stopping at the byte
/// that ends the tag. `None` on anything but single spaces, valid names,
/// distinct keys and double-quoted values free of `&`, `<` and `"` (so every
/// value is its own unescaped form).
fn flat_open<'a>(rest: &mut &'a str) -> Option<FlatElement<'a>> {
    *rest = rest.strip_prefix('<')?;
    let mut el = FlatElement {
        name: take_name(rest)?,
        attrs: [("", ""); FLAT_MAX_ATTRS],
        len: 0,
        child: None,
    };
    while let Some(attr) = rest.strip_prefix(' ') {
        *rest = attr;
        let key = take_name(rest)?;
        let quoted = rest.strip_prefix("=\"")?;
        let len = quoted
            .bytes()
            .position(|b| matches!(b, b'"' | b'&' | b'<'))?;
        let (value, tail) = quoted.split_at(len);
        *rest = tail.strip_prefix('"')?;
        if el.len == FLAT_MAX_ATTRS || el.attr(key).is_some() {
            return None;
        }
        el.attrs[el.len] = (key, value);
        el.len += 1;
    }
    Some(el)
}

/// Runs `read` on `wire` if it is exactly `<a …><b …/></a>`, the shape of
/// every encoded envelope, without building a tree. Returns `None` for every
/// other input (entities, single quotes, other whitespace, comments, a
/// prolog, text, deeper or wider nesting, anything malformed), which the
/// caller hands to [`ElementRef::parse`]; whatever is recognised here that
/// parser reads identically.
pub(crate) fn with_flat_document<R>(
    wire: &str,
    read: impl FnOnce(&FlatElement<'_>) -> R,
) -> Option<R> {
    let mut rest = wire;
    let mut root = flat_open(&mut rest)?;
    rest = rest.strip_prefix('>')?;
    let child = flat_open(&mut rest)?;
    if rest.strip_prefix("/></")?.strip_suffix('>')? != root.name {
        return None;
    }
    root.child = Some(&child);
    Some(read(&root))
}

/// Write-side mirror of [`XmlRead`]: encoders (messages, envelopes) are
/// written once against this sink and produce either the wire string
/// ([`wire_string`]) or an owned tree ([`build_element`]).
///
/// Names and keys must be valid XML names and distinct within an element,
/// which `&'static str` keeps to what the vocabulary spells out.
pub(crate) trait XmlWrite {
    /// Opens `<name`, as a child of the element still open, if any.
    fn start(&mut self, name: &'static str) -> &mut Self;
    /// Adds an attribute to the element opened last.
    fn attr(&mut self, key: &'static str, value: &str) -> &mut Self;
    /// [`attr`](Self::attr) for a value written through its `Display`.
    fn attr_display(&mut self, key: &'static str, value: impl fmt::Display) -> &mut Self;
    /// Closes the innermost open element, which must be `name`.
    fn end(&mut self, name: &'static str);
}

/// Appends to the wire string; `tag_open` is whether the last start tag
/// still lacks its `>` or `/>`.
pub(crate) struct WireWriter {
    out: String,
    tag_open: bool,
}

impl XmlWrite for WireWriter {
    fn start(&mut self, name: &'static str) -> &mut Self {
        if self.tag_open {
            self.out.push('>');
        }
        self.out.push('<');
        self.out.push_str(name);
        self.tag_open = true;
        self
    }
    fn attr(&mut self, key: &'static str, value: &str) -> &mut Self {
        push_attr(&mut self.out, key, value);
        self
    }
    fn attr_display(&mut self, key: &'static str, value: impl fmt::Display) -> &mut Self {
        use fmt::Write as _;
        open_attr(&mut self.out, key);
        // `Escaped` never fails, nor do the number impls this is given.
        let _ = write!(Escaped(&mut self.out), "{value}");
        self.out.push('"');
        self
    }
    fn end(&mut self, name: &'static str) {
        if std::mem::take(&mut self.tag_open) {
            self.out.push_str("/>");
        } else {
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push('>');
        }
    }
}

/// The stack of elements still open, outermost first; once the root has
/// ended it is the only entry left.
impl XmlWrite for Vec<Element> {
    fn start(&mut self, name: &'static str) -> &mut Self {
        self.push(Element::new(name));
        self
    }
    fn attr(&mut self, key: &'static str, value: &str) -> &mut Self {
        self.attr_display(key, value)
    }
    fn attr_display(&mut self, key: &'static str, value: impl fmt::Display) -> &mut Self {
        if let Some(open) = self.last_mut() {
            open.set_attr(key, value.to_string());
        }
        self
    }
    fn end(&mut self, _name: &'static str) {
        if let Some(ended) = self.pop() {
            match self.last_mut() {
                Some(parent) => parent.push_child(ended),
                None => self.push(ended), // the root, left for `build_element`
            }
        }
    }
}

/// The single-line wire form of whatever `write` emits.
pub(crate) fn wire_string(write: impl FnOnce(&mut WireWriter)) -> String {
    let mut w = WireWriter {
        // One allocation covers every envelope except long hex frames.
        out: String::with_capacity(128),
        tag_open: false,
    };
    write(&mut w);
    w.out
}

/// The owned tree of the one element `write` emits.
pub(crate) fn build_element(write: impl FnOnce(&mut Vec<Element>)) -> Element {
    let mut open = Vec::new();
    write(&mut open);
    open.pop().unwrap_or_default()
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml_string())
    }
}

impl std::str::FromStr for Element {
    type Err = ParseXmlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Element::parse(s)
    }
}

/// `true` if `name` is a valid element/attribute name in our subset:
/// `[A-Za-z_][A-Za-z0-9_.-]*`.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty() && name_len(name.as_bytes()) == name.len()
}

/// Length of the longest valid name `bytes` starts with; 0 if none. Names
/// are ASCII, so the result is always a char boundary of the source string.
fn name_len(bytes: &[u8]) -> usize {
    match bytes.first() {
        Some(b) if b.is_ascii_alphabetic() || *b == b'_' => {}
        _ => return 0,
    }
    bytes
        .iter()
        .position(|b| !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')))
        .unwrap_or(bytes.len())
}

/// Escapes text for inclusion in XML content or attribute values.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(text, &mut out);
    out
}

fn escape_into(text: &str, out: &mut String) {
    let mut copied = 0;
    for (i, b) in text.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            _ => continue,
        };
        out.push_str(&text[copied..i]);
        out.push_str(entity);
        copied = i + 1;
    }
    out.push_str(&text[copied..]);
}

/// Escapes everything written through it into the wrapped string.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(s, self.0);
        Ok(())
    }
}

fn open_attr(out: &mut String, key: &str) {
    out.push(' ');
    out.push_str(key);
    out.push_str("=\"");
}

/// Appends ` key="value"` with the value escaped.
fn push_attr(out: &mut String, key: &str, value: &str) {
    open_attr(out, key);
    escape_into(value, out);
    out.push('"');
}

/// Error produced when parsing malformed XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseXmlError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "xml parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseXmlError {}

/// Maximum element nesting depth [`Element::parse`] accepts.
///
/// Mercury envelopes are at most a handful of levels deep; the cap exists so
/// hostile input cannot drive the recursive-descent parser into unbounded
/// recursion and abort the process with a stack overflow — deep nesting must
/// be an ordinary [`ParseXmlError`] like every other malformation.
pub const MAX_NESTING_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseXmlError {
        ParseXmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, prefix: &str) -> Result<(), ParseXmlError> {
        if self.eat(prefix) {
            Ok(())
        } else {
            Err(self.error(format!("expected {prefix:?}")))
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn skip_comment(&mut self) -> Result<bool, ParseXmlError> {
        if !self.eat("<!--") {
            return Ok(false);
        }
        match self.rest().find("-->") {
            Some(idx) => {
                self.pos += idx + 3;
                Ok(true)
            }
            None => Err(self.error("unterminated comment")),
        }
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            match self.skip_comment() {
                Ok(true) => continue,
                _ => break,
            }
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_whitespace();
        if self.eat("<?xml") {
            if let Some(idx) = self.rest().find("?>") {
                self.pos += idx + 2;
            } else {
                // Leave the malformed declaration for parse_element to reject.
                return;
            }
        }
        self.skip_misc();
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseXmlError> {
        let start = self.pos;
        self.pos += name_len(self.rest().as_bytes());
        if self.pos == start {
            return Err(self.error("expected name"));
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_attr_value(&mut self) -> Result<Cow<'a, str>, ParseXmlError> {
        let quote = match self.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        // Borrow the raw slice until an entity forces an owned unescape.
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated attribute value")),
                Some(c) if c == quote => {
                    let end = self.pos;
                    self.bump();
                    return Ok(match owned {
                        Some(s) => Cow::Owned(s),
                        None => Cow::Borrowed(&self.input[start..end]),
                    });
                }
                Some('<') => return Err(self.error("'<' in attribute value")),
                Some('&') => {
                    let mut s = match owned.take() {
                        Some(s) => s,
                        None => self.input[start..self.pos].to_string(),
                    };
                    s.push(self.parse_entity()?);
                    owned = Some(s);
                }
                Some(c) => {
                    self.bump();
                    if let Some(s) = owned.as_mut() {
                        s.push(c);
                    }
                }
            }
        }
    }

    fn parse_text(&mut self) -> Result<Cow<'a, str>, ParseXmlError> {
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.peek() {
                None | Some('<') => break,
                Some('&') => {
                    let mut s = match owned.take() {
                        Some(s) => s,
                        None => self.input[start..self.pos].to_string(),
                    };
                    s.push(self.parse_entity()?);
                    owned = Some(s);
                }
                Some(c) => {
                    self.bump();
                    if let Some(s) = owned.as_mut() {
                        s.push(c);
                    }
                }
            }
        }
        Ok(match owned {
            Some(s) => Cow::Owned(s),
            None => Cow::Borrowed(&self.input[start..self.pos]),
        })
    }

    fn parse_entity(&mut self) -> Result<char, ParseXmlError> {
        debug_assert_eq!(self.peek(), Some('&'));
        for (entity, ch) in [
            ("&amp;", '&'),
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&apos;", '\''),
        ] {
            if self.eat(entity) {
                return Ok(ch);
            }
        }
        // Numeric character references: &#NN; and &#xHH;
        if self.eat("&#") {
            let hex = self.eat("x");
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric()) {
                self.bump();
            }
            let digits = &self.input[start..self.pos];
            self.expect(";")?;
            let code = u32::from_str_radix(digits, if hex { 16 } else { 10 })
                .map_err(|_| self.error("bad character reference"))?;
            return char::from_u32(code).ok_or_else(|| self.error("bad character reference"));
        }
        Err(self.error("unknown entity"))
    }

    fn parse_element(&mut self, depth: usize) -> Result<ElementRef<'a>, ParseXmlError> {
        if depth >= MAX_NESTING_DEPTH {
            return Err(self.error(format!(
                "element nesting deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut el = ElementRef {
            name,
            attrs: Vec::new(),
            children: Vec::new(),
        };
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some('/') => {
                    self.expect("/")?;
                    self.expect(">")?;
                    return Ok(el);
                }
                Some('>') => {
                    self.bump();
                    break;
                }
                Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                    let key = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    if el.attr(key).is_some() {
                        return Err(self.error(format!("duplicate attribute {key:?}")));
                    }
                    el.attrs.push((key, value));
                }
                _ => return Err(self.error("expected attribute, '>' or '/>'")),
            }
        }
        // Children until the matching close tag.
        loop {
            if self.rest().starts_with("</") {
                self.expect("</")?;
                let close = self.parse_name()?;
                if close != el.name {
                    return Err(self.error(format!(
                        "mismatched close tag: expected </{}>, found </{close}>",
                        el.name
                    )));
                }
                self.skip_whitespace();
                self.expect(">")?;
                return Ok(el);
            }
            if self.skip_comment()? {
                continue;
            }
            match self.peek() {
                None => return Err(self.error(format!("unterminated element <{}>", el.name))),
                Some('<') => {
                    let child = self.parse_element(depth + 1)?;
                    el.children.push(NodeRef::Element(child));
                }
                Some(_) => {
                    let text = self.parse_text()?;
                    // Ignore pure-whitespace runs between elements.
                    if !text.trim().is_empty() {
                        el.children.push(NodeRef::Text(text));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialize() {
        let el = Element::new("track")
            .with_attr("sat", "opal")
            .with_child(Element::new("az").with_text("121.5"))
            .with_child(Element::new("el").with_text("45.0"));
        assert_eq!(
            el.to_xml_string(),
            r#"<track sat="opal"><az>121.5</az><el>45.0</el></track>"#
        );
    }

    #[test]
    fn parse_round_trip() {
        let src = r#"<msg src="fd" dst="ses" id="7"><ping seq="42"/></msg>"#;
        let el = Element::parse(src).unwrap();
        assert_eq!(el.to_xml_string(), src);
        assert_eq!(el.child("ping").unwrap().attr("seq"), Some("42"));
    }

    #[test]
    fn escaping_round_trips() {
        let el = Element::new("note")
            .with_attr("title", r#"a<b&"c'd>"#)
            .with_text("x < y && y > z");
        let wire = el.to_xml_string();
        let back = Element::parse(&wire).unwrap();
        assert_eq!(back.attr("title"), Some(r#"a<b&"c'd>"#));
        assert_eq!(back.text(), "x < y && y > z");
    }

    #[test]
    fn numeric_character_references() {
        let el = Element::parse("<t>&#65;&#x42;</t>").unwrap();
        assert_eq!(el.text(), "AB");
    }

    #[test]
    fn prolog_comments_and_whitespace_skipped() {
        let src =
            "\n<?xml version=\"1.0\"?>\n<!-- hello -->\n<a b=\"1\">\n  <c/>\n</a>\n<!-- bye -->\n";
        let el = Element::parse(src).unwrap();
        assert_eq!(el.name(), "a");
        assert_eq!(el.attr("b"), Some("1"));
        assert!(el.child("c").is_some());
    }

    #[test]
    fn inner_comments_skipped() {
        let el = Element::parse("<a><!-- x --><b/><!-- y --></a>").unwrap();
        assert_eq!(el.child_elements().count(), 1);
    }

    #[test]
    fn whitespace_only_text_ignored_but_real_text_kept() {
        let el = Element::parse("<a>  <b/>  hello  </a>").unwrap();
        assert_eq!(el.children().len(), 2);
        assert_eq!(el.text().trim(), "hello");
    }

    #[test]
    fn single_quoted_attributes() {
        let el = Element::parse("<a b='x \"y\"'/>").unwrap();
        assert_eq!(el.attr("b"), Some("x \"y\""));
    }

    #[test]
    fn rejects_mismatched_close() {
        let err = Element::parse("<a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = Element::parse("<a/><b/>").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = Element::parse(r#"<a b="1" b="2"/>"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_unterminated() {
        assert!(Element::parse("<a><b></b>").is_err());
        assert!(Element::parse("<a b=\"x").is_err());
        assert!(Element::parse("<!-- never closed").is_err());
        assert!(Element::parse("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn error_reports_offset() {
        let err = Element::parse("<a><b></c></a>").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn set_attr_replaces() {
        let mut el = Element::new("a");
        el.set_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attr("k"), Some("2"));
        assert_eq!(el.attrs().count(), 1);
    }

    #[test]
    fn valid_name_rules() {
        assert!(is_valid_name("fedr"));
        assert!(is_valid_name("_x-1.y"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("1abc"));
        assert!(!is_valid_name("a b"));
    }

    #[test]
    #[should_panic(expected = "invalid element name")]
    fn new_rejects_invalid_name() {
        Element::new("not ok");
    }

    #[test]
    fn pretty_print_round_trips() {
        let el = Element::parse(
            r#"<msg src="fd" dst="ses" id="7"><ping seq="42"/><note>hi</note></msg>"#,
        )
        .unwrap();
        let pretty = el.to_pretty_string();
        assert!(pretty.contains("\n  <ping seq=\"42\"/>\n"));
        assert!(pretty.contains("<note>hi</note>"));
        // Pretty output reparses to the same tree.
        assert_eq!(Element::parse(&pretty).unwrap(), el);
    }

    #[test]
    fn both_sinks_write_the_same_nested_document() {
        fn write<W: XmlWrite>(w: &mut W) {
            w.start("a").attr("k", "<&>").attr_display("n", 7);
            w.start("b");
            w.start("c").end("c");
            w.end("b");
            w.start("d").attr("e", "").end("d");
            w.end("a");
        }
        let wire = wire_string(write);
        assert_eq!(
            wire,
            r#"<a k="&lt;&amp;&gt;" n="7"><b><c/></b><d e=""/></a>"#
        );
        assert_eq!(build_element(write).to_xml_string(), wire);
        assert_eq!(Element::parse(&wire), Ok(build_element(write)));
    }

    #[test]
    fn flat_reader_takes_the_encoders_shape_and_declines_the_rest() {
        // (root name, root x, child name, child k) of what was read in place.
        let read = |wire: &str| {
            with_flat_document(wire, |el| {
                let child = el.child_elements().next();
                [
                    Some(el.name()),
                    el.attr("x"),
                    child.map(XmlRead::name),
                    child.and_then(|c| c.attr("k")),
                ]
                .map(|s| s.map(str::to_string))
            })
        };
        let owned = |fields: [Option<&str>; 4]| Some(fields.map(|s| s.map(str::to_string)));
        assert_eq!(
            read(r#"<a x="1 > 'é'"><b j="" k="v"/></a>"#),
            owned([Some("a"), Some("1 > 'é'"), Some("b"), Some("v")])
        );
        assert_eq!(
            read("<a><b/></a>"),
            owned([Some("a"), None, Some("b"), None])
        );
        for declined in [
            r#"<a x="&amp;"><b/></a>"#,
            r#"<a x='1'><b/></a>"#,
            r#"<a  x="1"><b/></a>"#,
            r#"<a x="1" ><b/></a>"#,
            r#"<a x="1" x="2"><b/></a>"#,
            r#"<a x = "1"><b/></a>"#,
            "<a><b/></a> ",
            "<a><b/></c>",
            "<a><b></b></a>",
            "<a><b/><c/></a>",
            "<a><!-- c --><b/></a>",
            "<a>text<b/></a>",
            "<a/>",
            "<a><b/>",
            "",
        ] {
            assert!(read(declined).is_none(), "{declined:?} was read in place");
        }
    }

    #[test]
    fn from_str_works() {
        let el: Element = "<a/>".parse().unwrap();
        assert_eq!(el.name(), "a");
    }
}
