//! Error type for message encoding and decoding.

use std::fmt;

use crate::xml::ParseXmlError;

/// An error decoding a Mercury message from its XML wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgError {
    /// The input was not well-formed XML.
    Xml(ParseXmlError),
    /// The XML was well-formed but did not match the message schema.
    Schema {
        /// What was wrong (e.g. a missing attribute or unknown element).
        message: String,
    },
    /// The wire form exceeded the envelope size ceiling and was refused
    /// before parsing.
    Oversized {
        /// Bytes received.
        bytes: usize,
        /// The configured ceiling ([`Envelope::MAX_WIRE_BYTES`]).
        ///
        /// [`Envelope::MAX_WIRE_BYTES`]: crate::Envelope::MAX_WIRE_BYTES
        limit: usize,
    },
}

impl MsgError {
    /// Creates a schema error.
    pub fn schema(message: impl Into<String>) -> MsgError {
        MsgError::Schema {
            message: message.into(),
        }
    }
}

impl fmt::Display for MsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgError::Xml(e) => write!(f, "malformed message xml: {e}"),
            MsgError::Schema { message } => write!(f, "message schema violation: {message}"),
            MsgError::Oversized { bytes, limit } => {
                write!(
                    f,
                    "envelope of {bytes} bytes exceeds the {limit}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for MsgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MsgError::Xml(e) => Some(e),
            MsgError::Schema { .. } | MsgError::Oversized { .. } => None,
        }
    }
}

impl From<ParseXmlError> for MsgError {
    fn from(e: ParseXmlError) -> Self {
        MsgError::Xml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let xml_err = crate::xml::ElementRef::parse("<a").unwrap_err();
        let e = MsgError::from(xml_err);
        assert!(e.to_string().contains("malformed"));
        assert!(e.source().is_some());

        let s = MsgError::schema("missing attribute seq");
        assert!(s.to_string().contains("missing attribute"));
        assert!(s.source().is_none());
    }
}
