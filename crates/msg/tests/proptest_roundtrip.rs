#![allow(clippy::disallowed_methods)]
//! Property tests: every generatable message and envelope survives a
//! serialize → parse round trip, and the XML reader reads arbitrary
//! attribute/text content (including characters that need escaping) as the
//! reference in `common/reference.rs` wrote it.

use mercury_msg::{ElementRef, Envelope};
use rr_sim::check;

mod common;
use common::reference::{assert_reader_matches_reference, ref_parse, Element};
use common::{arb_message, arb_name, arb_text, arb_unicode};

#[test]
fn message_round_trips() {
    check::run("message_round_trips", 512, |rng| {
        let m = arb_message(rng);
        let wire = m.to_string();
        let el = ref_parse(&wire).expect("the reference reads the body");
        assert_eq!(el.to_xml_string(), wire);
        let env = Envelope::parse(&format!(r#"<msg src="a" dst="b" id="1">{wire}</msg>"#))
            .expect("decode");
        assert_eq!(env.body, m);
    });
}

#[test]
fn envelope_round_trips() {
    check::run("envelope_round_trips", 256, |rng| {
        let src = arb_name(rng);
        let dst = arb_name(rng);
        let id = rng.next_u64();
        let m = arb_message(rng);
        let env = Envelope::new(src, dst, id, m);
        let back = Envelope::parse(&env.to_xml_string()).expect("parse");
        assert_eq!(back, env);
    });
}

#[test]
fn xml_attr_values_round_trip() {
    check::run("xml_attr_values_round_trip", 256, |rng| {
        let value = arb_text(rng);
        let el = Element::new("t").with_attr("v", value.clone());
        let wire = el.to_xml_string();
        let back = ElementRef::parse(&wire).expect("parse");
        assert_eq!(back.attr("v"), Some(value.as_str()));
        assert_eq!(Element::from_ref(&back), el);
    });
}

#[test]
fn xml_text_round_trips_modulo_whitespace() {
    check::run("xml_text_round_trips_modulo_whitespace", 256, |rng| {
        let text = arb_text(rng);
        let el = Element::new("t").with_text(text.clone());
        let wire = el.to_xml_string();
        let back = ElementRef::parse(&wire).expect("parse");
        // Pure-whitespace runs are dropped by the parser (they carry no
        // message content); anything else must round-trip exactly.
        if text.trim().is_empty() {
            assert_eq!(back.text(), "");
        } else {
            assert_eq!(back.text(), text);
        }
        assert_reader_matches_reference(&wire);
    });
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    check::run("parser_never_panics_on_arbitrary_input", 512, |rng| {
        let input = arb_unicode(rng, 64);
        assert_reader_matches_reference(&input);
    });
}

#[test]
fn nested_elements_round_trip() {
    check::run("nested_elements_round_trip", 128, |rng| {
        let depth = 1 + rng.next_below(7) as usize;
        let name = {
            const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
            let len = 1 + rng.next_below(8) as usize;
            (0..len)
                .map(|_| ALPHA[rng.next_below(26) as usize] as char)
                .collect::<String>()
        };
        let mut el = Element::new(name.clone());
        for _ in 0..depth {
            el = Element::new(name.clone()).with_child(el);
        }
        let wire = el.to_xml_string();
        let back = ElementRef::parse(&wire).expect("parse");
        assert_eq!(Element::from_ref(&back), el);
    });
}
