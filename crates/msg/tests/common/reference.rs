//! The reference the library's XML reader and writer are checked against:
//! an owned tree, `Element`, with its own escaping writer, and a verbatim
//! copy of the original owned recursive-descent parser, `ref_parse`. The
//! library keeps neither; they live here so that every verdict of
//! `ElementRef::parse` (tree, error text and byte offset) is compared with
//! a second, independent mechanism.

use mercury_msg::{ElementRef, NodeRef, ParseXmlError};

/// Deepest nesting the reference accepts: the wire contract, kept apart
/// from the library's `MAX_NESTING_DEPTH` so that a change to either shows.
pub const NESTING_DEPTH: usize = 64;

/// A node of the reference tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Element(Element),
    Text(String),
}

/// An owned XML element: name, attributes in document order, children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Deep-copies what the library read, through its public accessors only.
    pub fn from_ref(el: &ElementRef<'_>) -> Element {
        Element {
            name: el.name().to_string(),
            attrs: el
                .attrs()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            children: el
                .children()
                .iter()
                .map(|n| match n {
                    NodeRef::Element(e) => Node::Element(Element::from_ref(e)),
                    NodeRef::Text(t) => Node::Text(t.to_string()),
                })
                .collect(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Adds or replaces an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        match self.attrs.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.attrs.push((key, value)),
        }
    }

    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Element {
        self.set_attr(key, value);
        self
    }

    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    pub fn with_child(mut self, child: Element) -> Element {
        self.push_child(child);
        self
    }

    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.push_text(text);
        self
    }

    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Concatenated text of the direct text children.
    pub fn text(&self) -> String {
        self.children
            .iter()
            .filter_map(|n| match n {
                Node::Text(t) => Some(t.as_str()),
                Node::Element(_) => None,
            })
            .collect()
    }

    /// The compact single-line form, every special character escaped.
    pub fn to_xml_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push_str(&format!(" {k}=\"{}\"", escape(v)));
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for child in &self.children {
            match child {
                Node::Element(e) => e.write(out),
                Node::Text(t) => out.push_str(&escape(t)),
            }
        }
        out.push_str(&format!("</{}>", self.name));
    }
}

fn escape(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            '&' => "&amp;".to_string(),
            '<' => "&lt;".to_string(),
            '>' => "&gt;".to_string(),
            '"' => "&quot;".to_string(),
            '\'' => "&apos;".to_string(),
            c => c.to_string(),
        })
        .collect()
}

/// Asserts that the library reader and the reference agree on `input`:
/// the same tree, or the same error text at the same byte offset.
pub fn assert_reader_matches_reference(input: &str) {
    assert_eq!(
        ElementRef::parse(input).map(|el| Element::from_ref(&el)),
        ref_parse(input),
        "ElementRef::parse diverged from the reference on {input:?}"
    );
}

// ------------------------------------------------- reference parser (old) --
// A faithful copy of the original owned parser, adapted only to build
// `Element` through its API (the old code touched private fields) and to
// read its depth cap from `NESTING_DEPTH`. Do not "fix" or modernize this
// code: its job is to be the old behaviour.

struct RefParser<'a> {
    input: &'a str,
    pos: usize,
}

pub fn ref_parse(input: &str) -> Result<Element, ParseXmlError> {
    let mut p = RefParser { input, pos: 0 };
    p.skip_prolog();
    let el = p.parse_element(0)?;
    p.skip_misc();
    if !p.at_end() {
        return Err(p.error("trailing content after document element"));
    }
    Ok(el)
}

impl<'a> RefParser<'a> {
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
                return;
            }
        }
        self.skip_misc();
    }

    fn parse_name(&mut self) -> Result<String, ParseXmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                self.bump();
            }
            _ => return Err(self.error("expected name")),
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        {
            self.bump();
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseXmlError> {
        let quote = match self.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated attribute value")),
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(out);
                }
                Some('<') => return Err(self.error("'<' in attribute value")),
                Some('&') => out.push(self.parse_entity()?),
                Some(c) => {
                    out.push(c);
                    self.bump();
                }
            }
        }
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

    fn parse_element(&mut self, depth: usize) -> Result<Element, ParseXmlError> {
        if depth >= NESTING_DEPTH {
            return Err(self.error(format!(
                "element nesting deeper than {NESTING_DEPTH} levels"
            )));
        }
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut el = Element::new(name);
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
                    if el.attr(&key).is_some() {
                        return Err(self.error(format!("duplicate attribute {key:?}")));
                    }
                    el.set_attr(key, value);
                }
                _ => return Err(self.error("expected attribute, '>' or '/>'")),
            }
        }
        loop {
            if self.rest().starts_with("</") {
                self.expect("</")?;
                let close = self.parse_name()?;
                if close != el.name() {
                    return Err(self.error(format!(
                        "mismatched close tag: expected </{}>, found </{close}>",
                        el.name()
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
                None => return Err(self.error(format!("unterminated element <{}>", el.name()))),
                Some('<') => {
                    let child = self.parse_element(depth + 1)?;
                    el.push_child(child);
                }
                Some(_) => {
                    let mut text = String::new();
                    loop {
                        match self.peek() {
                            None | Some('<') => break,
                            Some('&') => text.push(self.parse_entity()?),
                            Some(c) => {
                                text.push(c);
                                self.bump();
                            }
                        }
                    }
                    if !text.trim().is_empty() {
                        el.push_text(text);
                    }
                }
            }
        }
    }
}
