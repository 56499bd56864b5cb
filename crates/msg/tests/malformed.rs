#![allow(clippy::disallowed_methods)]
//! Malformed-input coverage for `msg::frame` and `msg::xml`/`msg::envelope`.
//!
//! The round-trip suites prove well-formed input survives; this one proves
//! hostile input is *refused* — truncated frames at every prefix length,
//! corrupted and non-ASCII hex, payloads that are not UTF-8, XML garbage,
//! and oversized envelopes — always with an error, never a panic.

use mercury_msg::frame::{crc32, FrameError, TelemetryFrame};
use mercury_msg::{ElementRef, Envelope, Message, MsgError};

mod common;
use common::reference::assert_reader_matches_reference;

// ---------------------------------------------------------------- frames --

/// Every strict prefix of a valid frame fails to deframe (`Truncated` below
/// the 10-byte minimum, `BadCrc` or `LengthMismatch` above it) — and never
/// parses as a *different* valid frame.
#[test]
fn every_truncation_of_a_frame_is_rejected() {
    let frame = TelemetryFrame::new(7, b"science, 32 bytes of it exactly!".to_vec());
    let bytes = frame.to_bytes();
    for cut in 0..bytes.len() {
        let err = TelemetryFrame::from_bytes(&bytes[..cut])
            .expect_err("a strict prefix must not deframe");
        if cut < 10 {
            assert_eq!(err, FrameError::Truncated, "cut at {cut}");
        } else {
            assert!(
                matches!(
                    err,
                    FrameError::BadCrc { .. } | FrameError::LengthMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }
}

/// Hex decoding rejects odd lengths, non-hex digits, and — without
/// panicking on the byte-pair slicing — multi-byte UTF-8 in any position.
#[test]
fn malformed_hex_is_rejected_not_panicked_on() {
    for bad in [
        "abc",      // odd length
        "zz",       // not hex digits
        "0g",       // half hex
        "éé",       // multi-byte chars, even byte length
        "aéb",      // multi-byte char straddling a pair boundary
        "日本語値", // wide chars, even byte length
    ] {
        assert_eq!(
            TelemetryFrame::from_hex(bad),
            Err(FrameError::BadHex),
            "{bad:?}"
        );
    }
}

/// A payload that is not valid UTF-8 is still bytes: it must round-trip
/// through both wire forms untouched, not get lossily re-coded.
#[test]
fn non_utf8_payload_round_trips() {
    let payload = vec![0xff, 0xfe, 0x00, 0x80, 0xc3, 0x28, 0xf0, 0x9f];
    assert!(std::str::from_utf8(&payload).is_err(), "premise");
    let frame = TelemetryFrame::new(1, payload.clone());
    assert_eq!(
        TelemetryFrame::from_bytes(&frame.to_bytes())
            .unwrap()
            .payload,
        payload
    );
    assert_eq!(
        TelemetryFrame::from_hex(&frame.to_hex()).unwrap().payload,
        payload
    );
}

/// Flipping any single hex digit of the wire form is caught (by the hex
/// decoder or the CRC), never silently accepted.
#[test]
fn corrupted_hex_wire_never_parses() {
    let frame = TelemetryFrame::new(3, b"opal".to_vec());
    let hex = frame.to_hex();
    for i in 0..hex.len() {
        let mut raw = hex.clone().into_bytes();
        raw[i] = if raw[i] == b'0' { b'1' } else { b'0' };
        let corrupted = String::from_utf8(raw).unwrap();
        assert!(
            TelemetryFrame::from_hex(&corrupted).is_err(),
            "digit {i} corrupted but still parsed"
        );
    }
}

/// The length field is validated even when an attacker recomputes the CRC.
#[test]
fn forged_length_with_valid_crc_is_rejected() {
    for declared in [0u16, 1, 2, 9, u16::MAX] {
        let mut body = Vec::new();
        body.extend_from_slice(&9u32.to_be_bytes());
        body.extend_from_slice(&declared.to_be_bytes());
        body.extend_from_slice(b"abcd"); // actual payload: 4 bytes
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(
            TelemetryFrame::from_bytes(&body),
            Err(FrameError::LengthMismatch {
                declared: usize::from(declared),
                actual: 4
            })
        );
    }
}

// ------------------------------------------------------------------- xml --

/// Assorted garbage none of which is a well-formed document element, refused
/// with the reference's error text and offset.
#[test]
fn xml_garbage_is_rejected() {
    for bad in [
        "",
        "   ",
        "not xml at all",
        "<",
        "<a",
        "<a>",
        "<a></b>",
        "<a><b></a></b>",
        "<a attr></a>",
        "<a k=\"v\" k=\"w\"/>",
        "<a k='v\"/>",
        "<a>&bogus;</a>",
        "<a>&#xZZ;</a>",
        "<a/><b/>",
        "<a/>trailing",
        "<?xml version=\"1.0\"?>",
        "<!-- only a comment -->",
        "</a>",
        "<1tag/>",
    ] {
        assert!(ElementRef::parse(bad).is_err(), "{bad:?} parsed");
        assert_reader_matches_reference(bad);
    }
}

/// Nesting deeper than the parser's recursion cap is refused with an
/// ordinary parse error — a ~100k-deep document must not abort the process
/// with a stack overflow.
#[test]
fn deeply_nested_xml_is_an_error_not_a_stack_overflow() {
    use mercury_msg::xml::MAX_NESTING_DEPTH;
    for depth in [MAX_NESTING_DEPTH + 1, 10_000, 100_000] {
        let mut doc = String::with_capacity(depth * 7);
        for _ in 0..depth {
            doc.push_str("<a>");
        }
        for _ in 0..depth {
            doc.push_str("</a>");
        }
        let err = ElementRef::parse(&doc).expect_err("deep nesting must be refused");
        assert_reader_matches_reference(&doc);
        assert!(
            err.message.contains("nesting"),
            "depth {depth}: unexpected error {err}"
        );
    }
    // And the cap itself is not off by one: exactly MAX_NESTING_DEPTH
    // levels still parse.
    let ok_depth = MAX_NESTING_DEPTH;
    let mut doc = String::new();
    for _ in 0..ok_depth {
        doc.push_str("<a>");
    }
    for _ in 0..ok_depth {
        doc.push_str("</a>");
    }
    assert!(ElementRef::parse(&doc).is_ok(), "cap is off by one");
    assert_reader_matches_reference(&doc);
}

/// Unterminated constructs at every syntactic position: each must produce a
/// parse error describing the open construct, never hang or panic.
#[test]
fn unterminated_xml_is_rejected_with_an_error() {
    for (bad, needle) in [
        ("<a><b>", "unterminated element"),
        ("<a><b></b>", "unterminated element"),
        ("<a>text with no close", "unterminated element"),
        ("<a k=\"v", "unterminated attribute value"),
        ("<a k='v", "unterminated attribute value"),
        ("<!-- no close", "expected"),
        ("<a><!-- no close", "comment"),
        ("<a>&amp", "entity"),
        ("<a></a", "expected"),
        ("<a><b/>", "unterminated element"),
    ] {
        let err = ElementRef::parse(bad).expect_err(bad);
        assert_reader_matches_reference(bad);
        assert!(
            !err.message.is_empty() && err.message.contains(needle),
            "{bad:?}: expected error mentioning {needle:?}, got {err}"
        );
    }
}

/// Truncating a well-formed envelope at every char boundary never parses —
/// there is no prefix of a `<msg>` document that is itself one.
#[test]
fn every_truncation_of_an_envelope_is_rejected() {
    let wire = Envelope::new("fd", "rec", 9, Message::Ping { seq: 4 }).to_xml_string();
    for cut in 0..wire.len() {
        if !wire.is_char_boundary(cut) {
            continue;
        }
        assert!(
            Envelope::parse(&wire[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
    }
}

// -------------------------------------------------------------- envelope --

/// The size ceiling: a just-under-limit envelope parses, one past it is
/// refused with `Oversized` before any parse work.
#[test]
fn oversized_envelope_is_refused() {
    let frame_hex = "00".repeat((Envelope::MAX_WIRE_BYTES - 100) / 2);
    let big = Envelope::new(
        "pbcom",
        "fedr",
        1,
        Message::SerialFrame {
            hex: frame_hex.clone(),
        },
    )
    .to_xml_string();
    assert!(big.len() <= Envelope::MAX_WIRE_BYTES, "premise");
    // Under the limit: rejected on content (the hex is not a valid frame)
    // or accepted — but never on size.
    assert!(!matches!(
        Envelope::parse(&big),
        Err(MsgError::Oversized { .. })
    ));

    let huge = Envelope::new(
        "pbcom",
        "fedr",
        1,
        Message::SerialFrame {
            hex: "00".repeat(Envelope::MAX_WIRE_BYTES),
        },
    )
    .to_xml_string();
    let err = Envelope::parse(&huge).unwrap_err();
    match err {
        MsgError::Oversized { bytes, limit } => {
            assert_eq!(bytes, huge.len());
            assert_eq!(limit, Envelope::MAX_WIRE_BYTES);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    assert!(err.to_string().contains("exceeds"));
}

/// Schema-level malformations on an otherwise well-formed `<msg>`.
#[test]
fn envelope_schema_violations_are_rejected() {
    for bad in [
        r#"<note src="a" dst="b" id="1"><ping seq="1"/></note>"#, // wrong root
        r#"<msg src="a" dst="b" id="-1"><ping seq="1"/></msg>"#,  // negative id
        r#"<msg src="a" dst="b" id="99999999999999999999"><ping seq="1"/></msg>"#, // id overflow
        r#"<msg src="a" dst="b" id="1"><nonsense/></msg>"#,       // unknown body
        r#"<msg src="a" dst="b" id="1">just text</msg>"#,         // no body element
    ] {
        assert!(Envelope::parse(bad).is_err(), "{bad:?} parsed");
    }
}
