//! A streaming (SAX-style) pull parser for XML documents.
//!
//! The parser covers the subset of XML needed by the XSEED pipeline and
//! the synthetic datasets:
//!
//! * elements with attributes (single- or double-quoted values),
//! * self-closing elements,
//! * character data and CDATA sections,
//! * comments, processing instructions, the XML declaration, and a
//!   DOCTYPE declaration (all skipped or reported but not interpreted),
//! * the five predefined entities (`&amp;`, `&lt;`, `&gt;`, `&apos;`,
//!   `&quot;`) and numeric character references in text and attribute
//!   values.
//!
//! It checks well-formedness: tags must nest properly and the document
//! must have exactly one root element.
//!
//! The design is a *pull* parser: callers repeatedly invoke
//! [`SaxParser::next_event`] and receive [`SaxEvent`]s until [`SaxEvent::Eof`].
//! This mirrors how Algorithm 1 of the paper consumes "opening tag" and
//! "closing tag" events to build the XSEED kernel in a single pass.

use crate::error::{Error, Result};

/// A single attribute on an element start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written in the document.
    pub name: String,
    /// Attribute value with entity references resolved.
    pub value: String,
}

/// Events produced by [`SaxParser`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxEvent {
    /// An element start tag (`<name ...>`), or the opening half of a
    /// self-closing tag. For self-closing tags the parser emits
    /// `StartElement` immediately followed by `EndElement`.
    StartElement {
        /// Element name.
        name: String,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// An element end tag (`</name>`), or the closing half of a
    /// self-closing tag.
    EndElement {
        /// Element name.
        name: String,
    },
    /// Character data between tags, with entities resolved. Whitespace-only
    /// text is still reported; callers that do not care simply ignore it.
    Text(String),
    /// A comment (`<!-- ... -->`); the payload excludes the delimiters.
    Comment(String),
    /// A processing instruction (`<?target data?>`), excluding the XML
    /// declaration which is silently skipped.
    ProcessingInstruction {
        /// PI target.
        target: String,
        /// PI data (possibly empty).
        data: String,
    },
    /// End of input. Returned forever once reached.
    Eof,
}

/// Internal parser state: what has been seen at the document level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocState {
    /// Before the root element.
    Prolog,
    /// Inside the root element.
    InRoot,
    /// After the root element closed.
    Epilog,
}

/// A pull parser over a UTF-8 XML string.
///
/// ```
/// use xmlkit::sax::{SaxParser, SaxEvent};
///
/// let mut p = SaxParser::new("<a><b x='1'/>hi</a>");
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::StartElement { name, .. } if name == "a"));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::StartElement { name, .. } if name == "b"));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::EndElement { name } if name == "b"));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::Text(t) if t == "hi"));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::EndElement { name } if name == "a"));
/// assert!(matches!(p.next_event().unwrap(), SaxEvent::Eof));
/// ```
#[derive(Debug)]
pub struct SaxParser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Stack of currently open element names.
    open: Vec<String>,
    /// Pending end-element produced by a self-closing tag.
    pending_end: Option<String>,
    state: DocState,
    eof_reported: bool,
}

impl<'a> SaxParser<'a> {
    /// Creates a parser over `input`.
    pub fn new(input: &'a str) -> Self {
        SaxParser {
            input: input.as_bytes(),
            pos: 0,
            open: Vec::new(),
            pending_end: None,
            state: DocState::Prolog,
            eof_reported: false,
        }
    }

    /// Current byte offset into the input (useful for error reporting).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Returns the next event, or an error if the document is malformed.
    ///
    /// After [`SaxEvent::Eof`] has been returned it will be returned again
    /// on every subsequent call.
    pub fn next_event(&mut self) -> Result<SaxEvent> {
        if let Some(name) = self.pending_end.take() {
            self.pop_open(&name)?;
            return Ok(SaxEvent::EndElement { name });
        }
        loop {
            if self.pos >= self.input.len() {
                return self.handle_eof();
            }
            if self.peek() == b'<' {
                return self.parse_markup();
            }
            // Character data.
            let start = self.pos;
            while self.pos < self.input.len() && self.peek() != b'<' {
                self.pos += 1;
            }
            let raw = &self.input[start..self.pos];
            let text = decode_entities(std::str::from_utf8(raw).map_err(|_| Error::Syntax {
                message: "invalid UTF-8 in text".into(),
                offset: start,
            })?);
            match self.state {
                DocState::InRoot => return Ok(SaxEvent::Text(text)),
                _ => {
                    // Whitespace outside the root is allowed; anything else
                    // is a well-formedness error.
                    if text.trim().is_empty() {
                        continue;
                    }
                    return Err(Error::Syntax {
                        message: "character data outside the root element".into(),
                        offset: start,
                    });
                }
            }
        }
    }

    /// Convenience: parse the entire input, collecting every event except
    /// `Eof` into a vector.
    pub fn collect_events(mut self) -> Result<Vec<SaxEvent>> {
        let mut out = Vec::new();
        loop {
            let evt = self.next_event()?;
            if evt == SaxEvent::Eof {
                return Ok(out);
            }
            out.push(evt);
        }
    }

    fn handle_eof(&mut self) -> Result<SaxEvent> {
        if !self.open.is_empty() {
            return Err(Error::UnexpectedEof {
                open_elements: self.open.clone(),
            });
        }
        if self.state == DocState::Prolog && !self.eof_reported {
            return Err(Error::EmptyDocument);
        }
        self.eof_reported = true;
        Ok(SaxEvent::Eof)
    }

    #[inline]
    fn peek(&self) -> u8 {
        self.input[self.pos]
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn parse_markup(&mut self) -> Result<SaxEvent> {
        debug_assert_eq!(self.peek(), b'<');
        if self.starts_with(b"<!--") {
            return self.parse_comment();
        }
        if self.starts_with(b"<![CDATA[") {
            return self.parse_cdata();
        }
        if self.starts_with(b"<!DOCTYPE") || self.starts_with(b"<!doctype") {
            self.skip_doctype()?;
            return self.next_event();
        }
        if self.starts_with(b"<?") {
            return self.parse_pi();
        }
        if self.starts_with(b"</") {
            return self.parse_end_tag();
        }
        self.parse_start_tag()
    }

    fn parse_comment(&mut self) -> Result<SaxEvent> {
        let start = self.pos;
        self.pos += 4; // "<!--"
        if let Some(end) = find(self.input, self.pos, b"-->") {
            let body = std::str::from_utf8(&self.input[self.pos..end])
                .map_err(|_| Error::Syntax {
                    message: "invalid UTF-8 in comment".into(),
                    offset: self.pos,
                })?
                .to_string();
            self.pos = end + 3;
            Ok(SaxEvent::Comment(body))
        } else {
            Err(Error::Syntax {
                message: "unterminated comment".into(),
                offset: start,
            })
        }
    }

    fn parse_cdata(&mut self) -> Result<SaxEvent> {
        let start = self.pos;
        self.pos += 9; // "<![CDATA["
        if let Some(end) = find(self.input, self.pos, b"]]>") {
            let body = std::str::from_utf8(&self.input[self.pos..end])
                .map_err(|_| Error::Syntax {
                    message: "invalid UTF-8 in CDATA".into(),
                    offset: self.pos,
                })?
                .to_string();
            self.pos = end + 3;
            if self.state != DocState::InRoot {
                return Err(Error::Syntax {
                    message: "CDATA outside the root element".into(),
                    offset: start,
                });
            }
            Ok(SaxEvent::Text(body))
        } else {
            Err(Error::Syntax {
                message: "unterminated CDATA section".into(),
                offset: start,
            })
        }
    }

    fn skip_doctype(&mut self) -> Result<()> {
        // A DOCTYPE may contain an internal subset in brackets; skip to the
        // matching '>' while tracking bracket depth.
        let start = self.pos;
        let mut depth = 0usize;
        while self.pos < self.input.len() {
            match self.peek() {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(Error::Syntax {
            message: "unterminated DOCTYPE declaration".into(),
            offset: start,
        })
    }

    fn parse_pi(&mut self) -> Result<SaxEvent> {
        let start = self.pos;
        self.pos += 2; // "<?"
        let end = find(self.input, self.pos, b"?>").ok_or_else(|| Error::Syntax {
            message: "unterminated processing instruction".into(),
            offset: start,
        })?;
        let body = std::str::from_utf8(&self.input[self.pos..end]).map_err(|_| Error::Syntax {
            message: "invalid UTF-8 in processing instruction".into(),
            offset: self.pos,
        })?;
        self.pos = end + 2;
        let body = body.trim();
        let (target, data) = match body.find(char::is_whitespace) {
            Some(i) => (&body[..i], body[i..].trim_start()),
            None => (body, ""),
        };
        if target.eq_ignore_ascii_case("xml") {
            // XML declaration: skip entirely.
            return self.next_event();
        }
        Ok(SaxEvent::ProcessingInstruction {
            target: target.to_string(),
            data: data.to_string(),
        })
    }

    fn parse_end_tag(&mut self) -> Result<SaxEvent> {
        let start = self.pos;
        self.pos += 2; // "</"
        let name = self.read_name()?;
        self.skip_whitespace();
        if self.pos >= self.input.len() || self.peek() != b'>' {
            return Err(Error::Syntax {
                message: format!("malformed closing tag </{name}"),
                offset: start,
            });
        }
        self.pos += 1;
        self.pop_open(&name)?;
        Ok(SaxEvent::EndElement { name })
    }

    fn parse_start_tag(&mut self) -> Result<SaxEvent> {
        let start = self.pos;
        self.pos += 1; // "<"
        let name = self.read_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            if self.pos >= self.input.len() {
                return Err(Error::Syntax {
                    message: format!("unterminated start tag <{name}"),
                    offset: start,
                });
            }
            match self.peek() {
                b'>' => {
                    self.pos += 1;
                    self.push_open(name.clone(), start)?;
                    return Ok(SaxEvent::StartElement { name, attributes });
                }
                b'/' => {
                    if !self.starts_with(b"/>") {
                        return Err(Error::Syntax {
                            message: "expected '/>'".into(),
                            offset: self.pos,
                        });
                    }
                    self.pos += 2;
                    self.push_open(name.clone(), start)?;
                    self.pending_end = Some(name.clone());
                    return Ok(SaxEvent::StartElement { name, attributes });
                }
                _ => {
                    let attr = self.read_attribute()?;
                    attributes.push(attr);
                }
            }
        }
    }

    fn read_attribute(&mut self) -> Result<Attribute> {
        let name = self.read_name()?;
        self.skip_whitespace();
        if self.pos >= self.input.len() || self.peek() != b'=' {
            return Err(Error::Syntax {
                message: format!("attribute '{name}' missing '='"),
                offset: self.pos,
            });
        }
        self.pos += 1;
        self.skip_whitespace();
        if self.pos >= self.input.len() {
            return Err(Error::Syntax {
                message: "unterminated attribute value".into(),
                offset: self.pos,
            });
        }
        let quote = self.peek();
        if quote != b'"' && quote != b'\'' {
            return Err(Error::Syntax {
                message: "attribute value must be quoted".into(),
                offset: self.pos,
            });
        }
        self.pos += 1;
        let start = self.pos;
        while self.pos < self.input.len() && self.peek() != quote {
            self.pos += 1;
        }
        if self.pos >= self.input.len() {
            return Err(Error::Syntax {
                message: "unterminated attribute value".into(),
                offset: start,
            });
        }
        let raw = std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| Error::Syntax {
            message: "invalid UTF-8 in attribute value".into(),
            offset: start,
        })?;
        self.pos += 1; // closing quote
        Ok(Attribute {
            name,
            value: decode_entities(raw),
        })
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos;
        if self.pos < self.input.len() && is_name_start(self.peek()) {
            self.pos += 1;
            while self.pos < self.input.len() && is_name_byte(self.peek()) {
                self.pos += 1;
            }
        }
        if self.pos == start {
            return Err(Error::Syntax {
                message: "expected a name".into(),
                offset: start,
            });
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| Error::Syntax {
                message: "invalid UTF-8 in name".into(),
                offset: start,
            })?
            .to_string())
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.input.len() && self.peek().is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn push_open(&mut self, name: String, offset: usize) -> Result<()> {
        match self.state {
            DocState::Prolog => {
                self.state = DocState::InRoot;
            }
            DocState::InRoot => {}
            DocState::Epilog => {
                return Err(Error::MultipleRoots { offset });
            }
        }
        self.open.push(name);
        Ok(())
    }

    fn pop_open(&mut self, name: &str) -> Result<()> {
        match self.open.pop() {
            Some(expected) if expected == name => {
                if self.open.is_empty() {
                    self.state = DocState::Epilog;
                }
                Ok(())
            }
            Some(expected) => Err(Error::MismatchedTag {
                expected,
                found: name.to_string(),
                offset: self.pos,
            }),
            None => Err(Error::Syntax {
                message: format!("closing tag </{name}> without matching start tag"),
                offset: self.pos,
            }),
        }
    }
}

/// Returns true for bytes that may start (our subset of) XML names: a
/// name cannot begin with a digit, `-` or `.`.
#[inline]
fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || matches!(b, b'_' | b':')
}

/// Returns true for bytes allowed in (our subset of) XML names.
#[inline]
fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

/// Finds `needle` in `haystack` starting at `from`, returning the index of
/// the first match.
fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| i + from)
}

/// Resolves the predefined entities and numeric character references in
/// `raw`. Unknown entities are passed through unchanged, which is the
/// lenient behaviour we want for synthetic data.
pub fn decode_entities(raw: &str) -> String {
    if !raw.contains('&') {
        return raw.to_string();
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        if let Some(semi) = tail.find(';') {
            let entity = &tail[1..semi];
            let decoded: Option<String> = match entity {
                "amp" => Some("&".into()),
                "lt" => Some("<".into()),
                "gt" => Some(">".into()),
                "apos" => Some("'".into()),
                "quot" => Some("\"".into()),
                _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                    u32::from_str_radix(&entity[2..], 16)
                        .ok()
                        .and_then(char::from_u32)
                        .map(|c| c.to_string())
                }
                _ if entity.starts_with('#') => entity[1..]
                    .parse::<u32>()
                    .ok()
                    .and_then(char::from_u32)
                    .map(|c| c.to_string()),
                _ => None,
            };
            match decoded {
                Some(s) => {
                    out.push_str(&s);
                    rest = &tail[semi + 1..];
                }
                None => {
                    // Unknown entity: emit literally and continue after '&'.
                    out.push('&');
                    rest = &tail[1..];
                }
            }
        } else {
            out.push('&');
            rest = &tail[1..];
        }
    }
    out.push_str(rest);
    out
}

/// Escapes the characters that must be escaped in XML text content.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes the characters that must be escaped inside a double-quoted
/// attribute value.
pub fn escape_attr(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(s: &str) -> Vec<SaxEvent> {
        SaxParser::new(s).collect_events().unwrap()
    }

    #[test]
    fn simple_document() {
        let evts = events("<a><b></b></a>");
        assert_eq!(evts.len(), 4);
        assert!(matches!(&evts[0], SaxEvent::StartElement { name, .. } if name == "a"));
        assert!(matches!(&evts[3], SaxEvent::EndElement { name } if name == "a"));
    }

    #[test]
    fn self_closing_emits_both_events() {
        let evts = events("<a><b/></a>");
        assert!(matches!(&evts[1], SaxEvent::StartElement { name, .. } if name == "b"));
        assert!(matches!(&evts[2], SaxEvent::EndElement { name } if name == "b"));
    }

    #[test]
    fn attributes_both_quote_styles() {
        let evts = events(r#"<a x="1" y='two'/>"#);
        match &evts[0] {
            SaxEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes.len(), 2);
                assert_eq!(attributes[0].name, "x");
                assert_eq!(attributes[0].value, "1");
                assert_eq!(attributes[1].value, "two");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_and_entities() {
        let evts = events("<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>");
        match &evts[1] {
            SaxEvent::Text(t) => assert_eq!(t, "x & y <z> AB"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cdata_is_text() {
        let evts = events("<a><![CDATA[<raw> & stuff]]></a>");
        match &evts[1] {
            SaxEvent::Text(t) => assert_eq!(t, "<raw> & stuff"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_pis() {
        let evts = events("<?xml version=\"1.0\"?><!-- hello --><a><?target data?></a>");
        assert!(matches!(&evts[0], SaxEvent::Comment(c) if c.trim() == "hello"));
        assert!(
            matches!(&evts[2], SaxEvent::ProcessingInstruction { target, data } if target == "target" && data == "data")
        );
    }

    #[test]
    fn doctype_is_skipped() {
        let evts = events("<!DOCTYPE article [ <!ELEMENT article (#PCDATA)> ]><article/>");
        assert!(matches!(&evts[0], SaxEvent::StartElement { name, .. } if name == "article"));
    }

    #[test]
    fn mismatched_tags_error() {
        let err = SaxParser::new("<a><b></a></b>")
            .collect_events()
            .unwrap_err();
        assert!(matches!(err, Error::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_error() {
        let err = SaxParser::new("<a><b>").collect_events().unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { open_elements } if open_elements.len() == 2));
    }

    #[test]
    fn multiple_roots_error() {
        let err = SaxParser::new("<a/><b/>").collect_events().unwrap_err();
        assert!(matches!(err, Error::MultipleRoots { .. }));
    }

    #[test]
    fn empty_document_error() {
        let err = SaxParser::new("   ").collect_events().unwrap_err();
        assert_eq!(err, Error::EmptyDocument);
        let err = SaxParser::new("").collect_events().unwrap_err();
        assert_eq!(err, Error::EmptyDocument);
    }

    #[test]
    fn text_outside_root_is_error() {
        let err = SaxParser::new("hello<a/>").collect_events().unwrap_err();
        assert!(matches!(err, Error::Syntax { .. }));
    }

    #[test]
    fn eof_is_sticky() {
        let mut p = SaxParser::new("<a/>");
        while p.next_event().unwrap() != SaxEvent::Eof {}
        assert_eq!(p.next_event().unwrap(), SaxEvent::Eof);
        assert_eq!(p.next_event().unwrap(), SaxEvent::Eof);
    }

    #[test]
    fn unknown_entity_passes_through() {
        assert_eq!(decode_entities("a &unknown; b"), "a &unknown; b");
        assert_eq!(decode_entities("trailing &"), "trailing &");
    }

    #[test]
    fn escape_roundtrip() {
        let original = "a < b & c > d";
        assert_eq!(decode_entities(&escape_text(original)), original);
        let attr = "say \"hi\" & <bye>";
        assert_eq!(decode_entities(&escape_attr(attr)), attr);
    }

    #[test]
    fn depth_tracking() {
        let mut p = SaxParser::new("<a><b><c/></b></a>");
        p.next_event().unwrap();
        assert_eq!(p.depth(), 1);
        p.next_event().unwrap();
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn malformed_closing_tag() {
        let err = SaxParser::new("<a></a junk>").collect_events().unwrap_err();
        assert!(matches!(err, Error::Syntax { .. }));
    }

    #[test]
    fn attribute_missing_equals() {
        let err = SaxParser::new("<a attr></a>").collect_events().unwrap_err();
        assert!(matches!(err, Error::Syntax { .. }));
    }

    #[test]
    fn unquoted_attribute_is_error() {
        let err = SaxParser::new("<a attr=1></a>")
            .collect_events()
            .unwrap_err();
        assert!(matches!(err, Error::Syntax { .. }));
    }

    #[test]
    fn names_cannot_start_with_a_digit_dash_or_dot() {
        for xml in ["<1a/>", "<-a/>", "<.a/>", "<a><.b/></a>", "<a .x='1'/>"] {
            let err = SaxParser::new(xml).collect_events().unwrap_err();
            assert!(matches!(err, Error::Syntax { .. }), "{xml}");
        }
        assert_eq!(events("<_a1.b-c/>").len(), 2);
    }

    #[test]
    fn deeply_nested_document() {
        let depth = 200;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<n>");
        }
        for _ in 0..depth {
            s.push_str("</n>");
        }
        let evts = events(&s);
        assert_eq!(evts.len(), depth * 2);
    }
}
