//! # mercury-msg — the Mercury ground station command language
//!
//! The Mercury ground station (§2.1 of *Reducing Recovery Time in a Small
//! Recursively Restartable System*, DSN-2002) is "controlled both remotely and
//! locally via a high-level, XML-based command language. Software components
//! are independently operating processes … and interoperate through passing of
//! messages composed in our XML command language."
//!
//! This crate implements that command language from scratch:
//!
//! * [`xml`] — a small, dependency-free XML subset: elements, attributes,
//!   text, escaping, comments. One reader ([`ElementRef::parse`]) and one
//!   crate-private writer: enough to encode every Mercury message, small
//!   enough to audit.
//! * [`command`] — the message vocabulary: liveness pings and replies (the
//!   application-level failure-detection probes of §2.2), tracking, tuning,
//!   estimation, radio and serial traffic, the ses/str synchronization
//!   handshake, and health-summary beacons (future work, §7).
//! * [`envelope`] — addressed envelopes `<msg src=… dst=… id=…>` that the
//!   message bus routes between components.
//!
//! ## Example
//!
//! ```
//! use mercury_msg::{Envelope, Message};
//!
//! let env = Envelope::new("fd", "ses", 7, Message::Ping { seq: 42 });
//! let wire = env.to_xml_string();
//! let back = Envelope::parse(&wire)?;
//! assert_eq!(back, env);
//! # Ok::<(), mercury_msg::MsgError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod command;
pub mod envelope;
pub mod error;
pub mod frame;
pub mod xml;

pub use command::{ComponentStatus, Message, RadioBand, TrackingState};
pub use envelope::Envelope;
pub use error::MsgError;
pub use frame::{crc32, FrameError, TelemetryFrame};
pub use xml::{ElementRef, NodeRef, ParseXmlError};
