//! Addressed message envelopes routed by the software message bus.
//!
//! Components never talk to each other directly: every message travels inside
//! an envelope `<msg src=… dst=… id=…>…</msg>` over `mbus` (§2.1). The one
//! exception in the paper — the dedicated FD↔REC connection (§2.2) — uses the
//! same envelope format over its own channel.

use std::borrow::Cow;
use std::fmt;

use crate::command::Message;
use crate::error::MsgError;
use crate::xml::{self, ElementRef, WireWriter};

/// The longest escape of one byte of text (`&quot;`, `&apos;`).
const ESCAPE_MAX_BYTES: usize = 6;

/// A bound on an envelope's wire bytes other than its text: tags, keys,
/// quotes, status and band words, and at most five numbers of at most 24
/// bytes each. The widest envelopes (`beacon`, `state`) stay under 200.
const MARKUP_MAX_BYTES: usize = 512;

/// An addressed command-language message.
///
/// ```
/// use mercury_msg::{Envelope, Message};
/// let env = Envelope::new("rtu", "fedr", 12, Message::RadioCommand {
///     verb: "FREQ".into(),
///     arg: "437100000".into(),
/// });
/// let wire = env.to_xml_string();
/// assert_eq!(Envelope::parse(&wire)?, env);
/// # Ok::<(), mercury_msg::MsgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Name of the sending component: borrowed when a component names itself
    /// or a peer by a `'static` name, so addressing allocates nothing.
    pub src: Cow<'static, str>,
    /// Name of the destination component (borrowed or owned, as `src`).
    pub dst: Cow<'static, str>,
    /// Sender-assigned envelope id (used by [`Message::Ack`]).
    pub id: u64,
    /// The payload.
    pub body: Message,
}

impl Envelope {
    /// Hard ceiling on the wire form accepted by [`Envelope::parse`].
    ///
    /// The largest legitimate envelope is a `SerialFrame` carrying a
    /// hex-encoded maximum-size telemetry frame (~128 KiB of hex); anything
    /// past double that is a runaway or hostile sender, and refusing it up
    /// front keeps a single envelope from wedging the bus with unbounded
    /// parse work.
    pub const MAX_WIRE_BYTES: usize = 256 * 1024;

    /// Creates an envelope.
    pub fn new(
        src: impl Into<Cow<'static, str>>,
        dst: impl Into<Cow<'static, str>>,
        id: u64,
        body: Message,
    ) -> Envelope {
        Envelope {
            src: src.into(),
            dst: dst.into(),
            id,
            body,
        }
    }

    /// Serializes to the single-line wire form.
    pub fn to_xml_string(&self) -> String {
        xml::wire_string(|w| self.write_xml(w))
    }

    fn write_xml(&self, w: &mut WireWriter) {
        w.start("msg")
            .attr("src", &self.src)
            .attr("dst", &self.dst)
            .attr_display("id", self.id);
        self.body.write_xml(w);
        w.end("msg");
    }

    /// Decodes an envelope from its parsed tree.
    fn decode(el: &ElementRef<'_>) -> Result<Envelope, MsgError> {
        if el.name() != "msg" {
            return Err(MsgError::schema(format!(
                "expected <msg>, found <{}>",
                el.name()
            )));
        }
        let src = el
            .attr("src")
            .ok_or_else(|| MsgError::schema("<msg> missing attribute \"src\""))?;
        let dst = el
            .attr("dst")
            .ok_or_else(|| MsgError::schema("<msg> missing attribute \"dst\""))?;
        let id_raw = el
            .attr("id")
            .ok_or_else(|| MsgError::schema("<msg> missing attribute \"id\""))?;
        let id = id_raw
            .parse()
            .map_err(|_| MsgError::schema(format!("<msg> id={id_raw:?} is not a u64")))?;
        let mut bodies = el.child_elements();
        let body_el = bodies
            .next()
            .ok_or_else(|| MsgError::schema("<msg> has no body element"))?;
        if bodies.next().is_some() {
            return Err(MsgError::schema("<msg> has more than one body element"));
        }
        let body = Message::decode(body_el)?;
        Ok(Envelope {
            src: Cow::Owned(src.to_string()),
            dst: Cow::Owned(dst.to_string()),
            id,
            body,
        })
    }

    /// Parses an envelope from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`MsgError`] on malformed XML, schema violations, or a wire
    /// form exceeding [`Envelope::MAX_WIRE_BYTES`].
    pub fn parse(wire: &str) -> Result<Envelope, MsgError> {
        if wire.len() > Envelope::MAX_WIRE_BYTES {
            return Err(MsgError::Oversized {
                bytes: wire.len(),
                limit: Envelope::MAX_WIRE_BYTES,
            });
        }
        Envelope::decode(&ElementRef::parse(wire)?)
    }

    /// `true` only when the decoder is certain to read this envelope back
    /// exactly: [`Envelope::parse`] of [`to_xml_string`](Self::to_xml_string)
    /// returns an envelope equal to `self`, every float equal to the bit.
    ///
    /// The mirror of the decoder's refusals: every float is finite, a
    /// `FailedBatch` is non-empty with no empty or `+`-holding name, and the
    /// wire stays within [`MAX_WIRE_BYTES`](Self::MAX_WIRE_BYTES). The rest
    /// always reads back: escaping and the attribute reader are inverses on
    /// every string (the reader normalises no whitespace), integers and enum
    /// words are exact, and a finite float is written in the shortest form
    /// that parses to the same bits. The size check is conservative: it
    /// bounds every byte of text by its longest escape, so an envelope with
    /// more than about 43 KB of text answers `false` without being encoded.
    /// A `false` costs nothing but speed: the envelope then travels as the
    /// bytes it encodes to, and is read (or refused) where it lands.
    pub fn round_trips(&self) -> bool {
        self.body.decodable_text_len().is_some_and(|body_text| {
            let text = body_text + self.src.len() + self.dst.len();
            ESCAPE_MAX_BYTES
                .saturating_mul(text)
                .saturating_add(MARKUP_MAX_BYTES)
                <= Envelope::MAX_WIRE_BYTES
        })
    }

    /// A reply envelope: src/dst swapped, given id and body.
    pub fn reply_with(&self, id: u64, body: Message) -> Envelope {
        Envelope {
            src: self.dst.clone(),
            dst: self.src.clone(),
            id,
            body,
        }
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml_string())
    }
}

impl std::str::FromStr for Envelope {
    type Err = MsgError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Envelope::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::ComponentStatus;

    #[test]
    fn round_trip() {
        let env = Envelope::new("fd", "mbus", 1, Message::Ping { seq: 9 });
        let wire = env.to_xml_string();
        assert_eq!(
            wire,
            r#"<msg src="fd" dst="mbus" id="1"><ping seq="9"/></msg>"#
        );
        assert_eq!(Envelope::parse(&wire).unwrap(), env);
    }

    #[test]
    fn reply_swaps_addresses() {
        let env = Envelope::new("fd", "ses", 5, Message::Ping { seq: 2 });
        let reply = env.reply_with(
            6,
            Message::Pong {
                seq: 2,
                status: ComponentStatus::Ok,
            },
        );
        assert_eq!(reply.src, "ses");
        assert_eq!(reply.dst, "fd");
        assert_eq!(reply.id, 6);
    }

    #[test]
    fn rejects_wrong_root() {
        let err = Envelope::parse("<envelope/>").unwrap_err();
        assert!(err.to_string().contains("expected <msg>"));
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(Envelope::parse(r#"<msg dst="a" id="1"><ping seq="1"/></msg>"#).is_err());
        assert!(Envelope::parse(r#"<msg src="a" id="1"><ping seq="1"/></msg>"#).is_err());
        assert!(Envelope::parse(r#"<msg src="a" dst="b"><ping seq="1"/></msg>"#).is_err());
        assert!(Envelope::parse(r#"<msg src="a" dst="b" id="x"><ping seq="1"/></msg>"#).is_err());
    }

    #[test]
    fn rejects_zero_or_two_bodies() {
        assert!(Envelope::parse(r#"<msg src="a" dst="b" id="1"/>"#).is_err());
        assert!(Envelope::parse(
            r#"<msg src="a" dst="b" id="1"><ping seq="1"/><ping seq="2"/></msg>"#
        )
        .is_err());
    }

    #[test]
    fn propagates_xml_errors() {
        let err = Envelope::parse("<msg src=").unwrap_err();
        assert!(matches!(err, MsgError::Xml(_)));
    }

    #[test]
    fn from_str_parses() {
        let env: Envelope = r#"<msg src="a" dst="b" id="1"><ack of="7"/></msg>"#
            .parse()
            .unwrap();
        assert_eq!(env.body, Message::Ack { of: 7 });
    }
}
