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
//! There is one reader and one writer. [`ElementRef::parse`] reads every
//! input into a borrowed tree whose names are slices of the input and whose
//! attribute values and text runs borrow too, unless entity-unescaping
//! forced an owned copy; every [`ParseXmlError`] (text and byte offset)
//! comes from it. The crate-private `WireWriter` appends the single-line
//! wire form to one string, escaping on the way, and builds no tree.

use std::borrow::Cow;
use std::fmt;

/// A node in a borrowed XML tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRef<'a> {
    /// A child element.
    Element(ElementRef<'a>),
    /// A text run (unescaped form; borrowed when no entity appeared).
    Text(Cow<'a, str>),
}

/// A borrowed view of a parsed XML element.
///
/// Element and attribute names are slices of the parse input; attribute
/// values and text runs are [`Cow`]s that borrow unless entity-unescaping
/// forced an owned copy. [`Envelope::parse`](crate::Envelope::parse) decodes
/// straight off this tree and drops it, without copying the document.
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
    /// whitespace).
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
}

/// Appends the single-line wire form of the elements it is driven through;
/// `tag_open` is whether the last start tag still lacks its `>` or `/>`.
///
/// Names and keys must be valid XML names and distinct within an element,
/// which `&'static str` keeps to what the vocabulary spells out.
pub(crate) struct WireWriter {
    out: String,
    tag_open: bool,
}

impl WireWriter {
    /// Opens `<name`, as a child of the element still open, if any.
    pub(crate) fn start(&mut self, name: &'static str) -> &mut Self {
        if self.tag_open {
            self.out.push('>');
        }
        self.out.push('<');
        self.out.push_str(name);
        self.tag_open = true;
        self
    }

    /// Adds an attribute to the element opened last.
    pub(crate) fn attr(&mut self, key: &'static str, value: &str) -> &mut Self {
        push_attr(&mut self.out, key, value);
        self
    }

    /// [`attr`](Self::attr) for a value written through its `Display`.
    pub(crate) fn attr_display(
        &mut self,
        key: &'static str,
        value: impl fmt::Display,
    ) -> &mut Self {
        use fmt::Write as _;
        open_attr(&mut self.out, key);
        // `Escaped` never fails, nor do the number impls this is given.
        let _ = write!(Escaped(&mut self.out), "{value}");
        self.out.push('"');
        self
    }

    /// Closes the innermost open element, which must be `name`.
    pub(crate) fn end(&mut self, name: &'static str) {
        if std::mem::take(&mut self.tag_open) {
            self.out.push_str("/>");
        } else {
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push('>');
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

/// Appends `text` with the five XML-special characters as entities.
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

/// Maximum element nesting depth [`ElementRef::parse`] accepts.
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
    fn parse_round_trip() {
        let src = wire_string(|w| {
            w.start("msg").attr("src", "fd").attr("dst", "ses");
            w.attr_display("id", 7);
            w.start("ping").attr_display("seq", 42).end("ping");
            w.end("msg");
        });
        assert_eq!(
            src,
            r#"<msg src="fd" dst="ses" id="7"><ping seq="42"/></msg>"#
        );
        let el = ElementRef::parse(&src).unwrap();
        assert_eq!(el.name(), "msg");
        assert_eq!(
            el.attrs().collect::<Vec<_>>(),
            [("src", "fd"), ("dst", "ses"), ("id", "7")]
        );
        let ping = el.child_elements().next().unwrap();
        assert_eq!((ping.name(), ping.attr("seq")), ("ping", Some("42")));
    }

    #[test]
    fn escaping_round_trips() {
        let wire = wire_string(|w| w.start("note").attr("title", r#"a<b&"c'd>"#).end("note"));
        let back = ElementRef::parse(&wire).unwrap();
        assert_eq!(back.attr("title"), Some(r#"a<b&"c'd>"#));
        let text = ElementRef::parse("<note>x &lt; y &amp;&amp; y &gt; z</note>").unwrap();
        assert_eq!(text.text(), "x < y && y > z");
    }

    #[test]
    fn numeric_character_references() {
        let el = ElementRef::parse("<t>&#65;&#x42;</t>").unwrap();
        assert_eq!(el.text(), "AB");
    }

    #[test]
    fn prolog_comments_and_whitespace_skipped() {
        let src =
            "\n<?xml version=\"1.0\"?>\n<!-- hello -->\n<a b=\"1\">\n  <c/>\n</a>\n<!-- bye -->\n";
        let el = ElementRef::parse(src).unwrap();
        assert_eq!(el.name(), "a");
        assert_eq!(el.attr("b"), Some("1"));
        assert!(el.child_elements().any(|c| c.name() == "c"));
    }

    #[test]
    fn inner_comments_skipped() {
        let el = ElementRef::parse("<a><!-- x --><b/><!-- y --></a>").unwrap();
        assert_eq!(el.child_elements().count(), 1);
    }

    #[test]
    fn whitespace_only_text_ignored_but_real_text_kept() {
        let el = ElementRef::parse("<a>  <b/>  hello  </a>").unwrap();
        assert_eq!(el.children().len(), 2);
        assert_eq!(el.text().trim(), "hello");
    }

    #[test]
    fn single_quoted_attributes() {
        let el = ElementRef::parse("<a b='x \"y\"'/>").unwrap();
        assert_eq!(el.attr("b"), Some("x \"y\""));
    }

    #[test]
    fn rejects_mismatched_close() {
        let err = ElementRef::parse("<a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = ElementRef::parse("<a/><b/>").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = ElementRef::parse(r#"<a b="1" b="2"/>"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_unterminated() {
        assert!(ElementRef::parse("<a><b></b>").is_err());
        assert!(ElementRef::parse("<a b=\"x").is_err());
        assert!(ElementRef::parse("<!-- never closed").is_err());
        assert!(ElementRef::parse("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn error_reports_offset() {
        let err = ElementRef::parse("<a><b></c></a>").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn valid_name_rules() {
        let names = |name: &str| ElementRef::parse(&format!("<{name}/>")).is_ok();
        assert!(names("fedr"));
        assert!(names("_x-1.y"));
        assert!(!names(""));
        assert!(!names("1abc"));
        assert!(!names("a b"));
    }

    #[test]
    fn wire_writer_writes_a_nested_document() {
        let wire = wire_string(|w| {
            w.start("a").attr("k", "<&>").attr_display("n", 7);
            w.start("b");
            w.start("c").end("c");
            w.end("b");
            w.start("d").attr("e", "").end("d");
            w.end("a");
        });
        assert_eq!(
            wire,
            r#"<a k="&lt;&amp;&gt;" n="7"><b><c/></b><d e=""/></a>"#
        );
        let a = ElementRef::parse(&wire).unwrap();
        assert_eq!(a.attrs().collect::<Vec<_>>(), [("k", "<&>"), ("n", "7")]);
        let kids: Vec<_> = a.child_elements().collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(
            kids[0].child_elements().next().map(ElementRef::name),
            Some("c")
        );
        assert_eq!(kids[1].attr("e"), Some(""));
    }
}
