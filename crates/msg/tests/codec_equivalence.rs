#![allow(clippy::disallowed_methods)]
//! Differential lock for the XML codec.
//!
//! The library has one reader, the zero-copy `ElementRef::parse`, and one
//! writer. This suite drives the reader and the **reference** in
//! `common/reference.rs` (a verbatim copy of the original owned parser and
//! its owned `Element` tree) through fixed malformed corpora, every
//! truncation of a representative document, random garbage, random valid
//! documents and every single-edit neighbour of the canonical wires,
//! asserting identical results: the same trees, or the same error text at
//! the same byte offset. `Envelope::parse` must return that very XML error,
//! and on every input the reference accepts it must read the reference's
//! re-serialization the same way. It also re-checks the two hardening
//! properties: the [`Envelope::MAX_WIRE_BYTES`] ceiling and non-ASCII hex
//! rejection.
//!
//! The wires the encoder emits are committed as
//! `tests/golden/wire-corpus.txt`; the reference reads each line and writes
//! it back byte for byte.
//!
//! [`Envelope::round_trips`], which lets a station envelope skip the codec,
//! is locked against the codec itself: wherever it answers `true`, encoding
//! and parsing give back the envelope, every float to the bit.

use mercury_msg::frame::{FrameError, TelemetryFrame};
use mercury_msg::xml::MAX_NESTING_DEPTH;
use mercury_msg::{ComponentStatus, Envelope, Message, MsgError, RadioBand};
use rr_sim::{check, SimRng};

mod common;
use common::reference::{assert_reader_matches_reference, ref_parse, Element, NESTING_DEPTH};

// ----------------------------------------------------------- equivalence --

#[test]
fn fixed_malformed_corpus_matches_reference() {
    for input in [
        "",
        " ",
        "<",
        "<>",
        "</>",
        "<a",
        "<a ",
        "<a/",
        "<a>",
        "<a></b>",
        "<a></a",
        "<a b></a>",
        "<a b=></a>",
        "<a b=c/>",
        "<a b=\"c/>",
        "<a b=\"c\" b=\"d\"/>",
        "<a b=\"<\"/>",
        "<a>&bogus;</a>",
        "<a>&amp</a>",
        "<a>&#;</a>",
        "<a>&#x;</a>",
        "<a>&#xZZ;</a>",
        "<a>&#110000;</a>", // beyond char::MAX
        "<a>&#xD800;</a>",  // surrogate
        "<a><!-- unterminated</a>",
        "<a/><b/>",
        "<a/>trailing",
        "<?xml version=\"1.0\"?>",
        "<?xml unterminated",
        "<1tag/>",
        "< a/>",
        "<a Ω=\"v\"/>",
        "<a/>\u{feff}",
    ] {
        assert_reader_matches_reference(input);
    }
}

#[test]
fn deep_nesting_rejected_identically() {
    assert_eq!(MAX_NESTING_DEPTH, NESTING_DEPTH);
    let deep = "<d>".repeat(NESTING_DEPTH + 1);
    assert_reader_matches_reference(&deep);
    for levels in [NESTING_DEPTH - 1, NESTING_DEPTH, NESTING_DEPTH + 1] {
        let nested = format!("{}{}", "<d>".repeat(levels), "</d>".repeat(levels));
        assert_reader_matches_reference(&nested);
    }
}

/// Every char-boundary prefix of a representative document (attributes,
/// both quote styles, entities, numeric references, comments, nesting,
/// mixed text) reads the same through the reader and the reference.
#[test]
fn every_truncation_matches_reference() {
    let wire = "<?xml version=\"1.0\"?><!-- c --><msg src=\"fd\" dst='rec' id=\"12\">\
                <set v=\"a&amp;b&#x41;\">text &lt;runs&gt;<inner x='y'/></set></msg>";
    for cut in 0..=wire.len() {
        if !wire.is_char_boundary(cut) {
            continue;
        }
        assert_reader_matches_reference(&wire[..cut]);
    }
}

/// An alphabet biased toward XML structure so random strings exercise real
/// parser states, not just the "expected name" error.
fn arb_garbage(rng: &mut SimRng) -> String {
    const TOKENS: &[&str] = &[
        "<",
        ">",
        "/",
        "=",
        "\"",
        "'",
        "&",
        ";",
        " ",
        "a",
        "msg",
        "src",
        "&amp;",
        "&#x41;",
        "&#",
        "<!--",
        "-->",
        "<?xml",
        "?>",
        "</",
        "/>",
        "é",
        "\u{1F600}",
    ];
    let len = rng.next_below(40);
    let mut s = String::new();
    for _ in 0..len {
        s.push_str(TOKENS[rng.next_below(TOKENS.len() as u64) as usize]);
    }
    s
}

#[test]
fn random_garbage_matches_reference() {
    check::run("codec garbage differential", 512, |rng| {
        assert_reader_matches_reference(&arb_garbage(rng));
    });
}

/// A random well-formed document: nested elements with attribute values and
/// text runs containing XML-hostile characters (escaped on serialization).
fn arb_tree(rng: &mut SimRng, depth: usize) -> Element {
    let mut el = Element::new(check::ident(rng, 8));
    for _ in 0..rng.next_below(3) {
        el.set_attr(check::ident(rng, 6), check::printable(rng, 12));
    }
    if depth < 3 {
        // Adjacent text runs merge on re-parse, so never emit two in a row.
        let mut last_was_text = false;
        for _ in 0..rng.next_below(3) {
            if !last_was_text && rng.chance(0.3) {
                let t = check::printable(rng, 10);
                if !t.trim().is_empty() {
                    el.push_text(t);
                    last_was_text = true;
                }
            } else {
                el.push_child(arb_tree(rng, depth + 1));
                last_was_text = false;
            }
        }
    }
    el
}

#[test]
fn random_valid_documents_match_reference() {
    check::run("codec valid-document differential", 256, |rng| {
        let doc = arb_tree(rng, 0);
        let wire = doc.to_xml_string();
        let want = ref_parse(&wire);
        assert_eq!(want.as_ref(), Ok(&doc), "reference must accept own output");
        assert_reader_matches_reference(&wire);
    });
}

/// Generated envelopes and garbage read the same through `Envelope::parse`
/// and through the reference.
#[test]
fn envelope_parse_matches_reference_two_step() {
    check::run("envelope decode differential", 256, |rng| {
        let wire = if rng.chance(0.5) {
            let variant = rng.next_below(common::VARIANTS);
            common::arb_envelope_of(rng, variant).to_xml_string()
        } else {
            arb_garbage(rng)
        };
        assert_readers_agree(&wire);
    });
}

// ------------------------------------------------------ envelope codec --

/// The reader and the reference agree on `wire` (tree, or error text and
/// byte offset); `Envelope::parse` returns the reference's XML error, and on
/// a document the reference accepts it reads `wire` exactly as it reads the
/// reference's canonical re-serialization of it.
fn assert_readers_agree(wire: &str) {
    assert_reader_matches_reference(wire);
    let got = Envelope::parse(wire);
    match ref_parse(wire) {
        Err(e) => assert_eq!(got, Err(MsgError::Xml(e)), "on {wire:?}"),
        Ok(tree) => {
            let canonical = tree.to_xml_string();
            assert_eq!(
                got,
                Envelope::parse(&canonical),
                "on {wire:?} as {canonical:?}"
            );
        }
    }
}

#[test]
fn readers_agree_on_generated_envelopes_of_every_variant() {
    for variant in 0..common::VARIANTS {
        check::run("streamed reader differential", 64, |rng| {
            let env = common::arb_envelope_of(rng, variant);
            assert_eq!(common::variant_index(&env.body), variant);
            let wire = env.to_xml_string();
            assert_readers_agree(&wire);
            // Finite floats, well-formed batches and short text: all typed.
            assert!(assert_round_trips_sound(&env), "refused {env:?}");
            assert_eq!(Envelope::parse(&wire), Ok(env), "on {wire:?}");
        });
    }
}

/// The envelopes behind `tests/golden/wire-corpus.txt`, one per line: every
/// `Message` variant once, then strings that need all five escapes, are
/// empty, and are non-ASCII.
fn corpus_envelopes() -> Vec<Envelope> {
    let hostile = || r#"a<b&"c'd>"#.to_string();
    vec![
        Envelope::new("fd", "mbus", 1, Message::Ping { seq: 9 }),
        Envelope::new(
            "ses",
            "fd",
            u64::MAX,
            Message::Pong {
                seq: u64::MAX,
                status: ComponentStatus::Degraded,
            },
        ),
        Envelope::new(
            "operator",
            "str",
            3,
            Message::TrackRequest {
                satellite: "opal".into(),
            },
        ),
        Envelope::new(
            "str",
            "ant",
            4,
            Message::PointAntenna {
                azimuth_deg: 359.999,
                elevation_deg: -0.25,
            },
        ),
        Envelope::new(
            "str",
            "ses",
            5,
            Message::EstimateRequest {
                satellite: "sapphire".into(),
                at_epoch_s: 1234.5,
            },
        ),
        Envelope::new(
            "ses",
            "str",
            6,
            Message::EstimateReply {
                azimuth_deg: std::f64::consts::PI,
                elevation_deg: 1.0 / 3.0,
                range_km: 1e-17,
                doppler_hz: -0.0,
            },
        ),
        Envelope::new(
            "rtu",
            "fedr",
            123456,
            Message::TuneRadio {
                frequency_hz: 437_104_283.25,
                band: RadioBand::Uhf,
            },
        ),
        Envelope::new(
            "rtu",
            "fedr",
            8,
            Message::RadioCommand {
                verb: "FREQ".into(),
                arg: "437100000".into(),
            },
        ),
        Envelope::new(
            "fedr",
            "pbcom",
            9,
            Message::SerialFrame {
                hex: "deadbeef".into(),
            },
        ),
        Envelope::new(
            "pbcom",
            "str",
            10,
            Message::Telemetry {
                satellite: "opal".into(),
                frame: 17,
                hex: "00ff".into(),
            },
        ),
        Envelope::new("ses", "str", 11, Message::SyncRequest { incarnation: 3 }),
        Envelope::new("str", "ses", 12, Message::SyncAck { incarnation: 3 }),
        Envelope::new(
            "fedr",
            "rec",
            13,
            Message::Beacon {
                component: "fedr".into(),
                status: ComponentStatus::Ok,
                uptime_s: 12.5,
                aging: 0.875,
                handled: 42,
            },
        ),
        Envelope::new("fedr", "rtu", 14, Message::Ack { of: 99 }),
        Envelope::new(
            "fd",
            "rec",
            15,
            Message::Failed {
                component: "pbcom".into(),
            },
        ),
        Envelope::new(
            "fd",
            "rec",
            16,
            Message::FailedBatch {
                components: vec!["fedr".into(), "pbcom".into()],
            },
        ),
        Envelope::new(
            "fd",
            "rec",
            17,
            Message::Alive {
                component: "pbcom".into(),
            },
        ),
        Envelope::new(
            "harness",
            "fedr",
            18,
            Message::TestHook {
                action: "poison".into(),
            },
        ),
        Envelope::new(
            hostile(),
            hostile(),
            19,
            Message::RadioCommand {
                verb: hostile(),
                arg: "&&<<>>\"\"''".into(),
            },
        ),
        Envelope::new(
            "",
            "",
            0,
            Message::TrackRequest {
                satellite: "".into(),
            },
        ),
        Envelope::new(
            "地上局",
            "µbus",
            21,
            Message::TestHook {
                action: "naïve → \u{1F6F0}".into(),
            },
        ),
    ]
}

const WIRE_CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/wire-corpus.txt"
);

fn corpus_lines() -> Vec<String> {
    std::fs::read_to_string(WIRE_CORPUS)
        .unwrap_or_else(|e| panic!("wire corpus missing ({e}); run GOLDEN_RECORD=1"))
        .lines()
        .map(str::to_string)
        .collect()
}

/// The committed corpus, not the encoder, says what the wire is: the encoder
/// and both `Display`s must produce each line from its envelope, the reader
/// must produce the envelope from the line, and the reference must read the
/// line and write it back byte for byte. Re-record after an intentional wire
/// change with `GOLDEN_RECORD=1 cargo test -p mercury-msg --test
/// codec_equivalence`.
#[test]
fn wire_corpus_pins_the_encoder_and_the_reader() {
    let envelopes = corpus_envelopes();
    for variant in 0..common::VARIANTS {
        assert_eq!(
            common::variant_index(&envelopes[variant as usize].body),
            variant
        );
    }
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        let text: String = envelopes
            .iter()
            .map(|env| env.to_xml_string() + "\n")
            .collect();
        std::fs::write(WIRE_CORPUS, text).expect("record wire corpus");
        return;
    }
    let lines = corpus_lines();
    assert_eq!(lines.len(), envelopes.len(), "one line per corpus envelope");
    for (env, line) in envelopes.iter().zip(&lines) {
        assert_eq!(&env.to_xml_string(), line);
        assert_eq!(&env.to_string(), line);
        assert_eq!(Envelope::parse(line).as_ref(), Ok(env), "on {line:?}");
        assert_reader_matches_reference(line);
        let tree = ref_parse(line).expect("the reference reads the corpus");
        assert_eq!(&tree.to_xml_string(), line);
        let body = tree.child_elements().next().expect("one body");
        assert_eq!(env.body.to_string(), body.to_xml_string());
    }
}

/// Every single-edit neighbour of every corpus line reads the same through
/// the reader and the reference: the same tree, or the same error text at
/// the same byte offset.
#[test]
fn readers_agree_on_every_single_edit_neighbour_of_the_corpus() {
    const REPLACEMENTS: [&str; 10] = [" ", "\t", "\"", "'", "<", ">", "&", "/", "=", "é"];
    const INSERTIONS: [&str; 3] = ["&amp;", "<!-- c -->", " "];
    for wire in corpus_lines() {
        assert_readers_agree(&wire);
        let cuts: Vec<usize> = wire
            .char_indices()
            .map(|(i, _)| i)
            .chain([wire.len()])
            .collect();
        for span in cuts.windows(2) {
            let (head, tail) = (&wire[..span[0]], &wire[span[1]..]);
            assert_readers_agree(head); // truncated
            assert_readers_agree(&format!("{head}{tail}")); // one char deleted
            for with in REPLACEMENTS {
                assert_readers_agree(&format!("{head}{with}{tail}"));
            }
            for with in INSERTIONS {
                assert_readers_agree(&format!("{head}{with}{}", &wire[span[0]..]));
            }
        }

        let (msg_tag, rest) = wire.split_once("><").expect("canonical shape");
        let (body_tag, _) = rest.split_once("/>").expect("canonical shape");
        let body_key = body_tag
            .split_once(' ')
            .and_then(|(_, attrs)| attrs.split_once('='))
            .expect("every message has an attribute")
            .0;
        let extra = |n: usize| -> String { (0..n).map(|i| format!(" x{i}=\"{i}\"")).collect() };
        let body_attrs = body_tag.matches("=\"").count();
        for edited in [
            // Wider elements than any message: eight and nine attributes.
            format!("{msg_tag}{}><{rest}", extra(5)),
            format!("{msg_tag}{}><{rest}", extra(6)),
            format!("{msg_tag}><{body_tag}{}/></msg>", extra(8 - body_attrs)),
            format!("{msg_tag}><{body_tag}{}/></msg>", extra(9 - body_attrs)),
            // A duplicated attribute on either element.
            format!("{msg_tag} id=\"7\"><{rest}"),
            format!("{msg_tag}><{body_tag} {body_key}=\"7\"/></msg>"),
            // Trailing bytes, a prolog, a body-less envelope, other quoting.
            format!("{wire} "),
            format!("{wire}\n<!-- c -->"),
            format!("{wire}x"),
            format!("{wire}{wire}"),
            format!("<?xml version=\"1.0\"?>{wire}"),
            format!(" {wire}"),
            format!("{msg_tag}/>"),
            format!("{msg_tag}></msg>"),
            format!(
                "{msg_tag}><{body_tag}></{}></msg>",
                body_tag.split(' ').next().unwrap()
            ),
            format!("{msg_tag}><{body_tag}/><{body_tag}/></msg>"),
            format!("{msg_tag}><{body_tag}/></msg >"),
            format!("{msg_tag}><{body_tag}/></mzg>"),
            wire.replace('"', "'"),
        ] {
            assert_readers_agree(&edited);
        }
    }
}

// ----------------------------------------------- the round-trip predicate --

/// Every float of `m`, as bits, in field order.
fn float_bits(m: &Message) -> Vec<u64> {
    let floats: Vec<f64> = match m {
        Message::PointAntenna {
            azimuth_deg,
            elevation_deg,
        } => vec![*azimuth_deg, *elevation_deg],
        Message::EstimateRequest { at_epoch_s, .. } => vec![*at_epoch_s],
        Message::EstimateReply {
            azimuth_deg,
            elevation_deg,
            range_km,
            doppler_hz,
        } => vec![*azimuth_deg, *elevation_deg, *range_km, *doppler_hz],
        Message::TuneRadio { frequency_hz, .. } => vec![*frequency_hz],
        Message::Beacon {
            uptime_s, aging, ..
        } => vec![*uptime_s, *aging],
        _ => vec![],
    };
    floats.into_iter().map(f64::to_bits).collect()
}

/// `true` when the codec gives `env` back exactly: the parse of its encoding
/// equals it, and every float has the same bits (`==` alone would take
/// `-0.0` for `0.0`).
fn reads_back_exactly(env: &Envelope) -> bool {
    Envelope::parse(&env.to_xml_string())
        .is_ok_and(|back| back == *env && float_bits(&back.body) == float_bits(&env.body))
}

/// Asserts the predicate's one promise on `env`, and returns its answer.
fn assert_round_trips_sound(env: &Envelope) -> bool {
    let typed = env.round_trips();
    if typed {
        assert!(
            reads_back_exactly(env),
            "round_trips() but inexact: {env:?}"
        );
    }
    typed
}

/// Every float field of the vocabulary, set to `x`, the others to ordinary
/// values.
fn every_float_field(x: f64) -> Vec<Message> {
    let beacon = |uptime_s, aging| Message::Beacon {
        component: "ses".into(),
        status: ComponentStatus::Ok,
        uptime_s,
        aging,
        handled: 3,
    };
    let state = |v: [f64; 4]| Message::EstimateReply {
        azimuth_deg: v[0],
        elevation_deg: v[1],
        range_km: v[2],
        doppler_hz: v[3],
    };
    vec![
        Message::PointAntenna {
            azimuth_deg: x,
            elevation_deg: 1.0,
        },
        Message::PointAntenna {
            azimuth_deg: 1.0,
            elevation_deg: x,
        },
        Message::EstimateRequest {
            satellite: "opal".into(),
            at_epoch_s: x,
        },
        state([x, 1.0, 1.0, 1.0]),
        state([1.0, x, 1.0, 1.0]),
        state([1.0, 1.0, x, 1.0]),
        state([1.0, 1.0, 1.0, x]),
        Message::TuneRadio {
            frequency_hz: x,
            band: RadioBand::Vhf,
        },
        beacon(x, 0.5),
        beacon(1.0, x),
    ]
}

/// Every string field of the vocabulary, the addresses included, set to `s`.
fn every_string_field(s: &str) -> Vec<Envelope> {
    let bodies = vec![
        Message::TrackRequest {
            satellite: s.into(),
        },
        Message::EstimateRequest {
            satellite: s.into(),
            at_epoch_s: 1.0,
        },
        Message::RadioCommand {
            verb: s.into(),
            arg: s.into(),
        },
        Message::SerialFrame { hex: s.into() },
        Message::Telemetry {
            satellite: s.into(),
            frame: 1,
            hex: s.into(),
        },
        Message::Beacon {
            component: s.into(),
            status: ComponentStatus::Starting,
            uptime_s: 1.0,
            aging: 0.0,
            handled: 0,
        },
        Message::Failed {
            component: s.into(),
        },
        Message::FailedBatch {
            components: vec!["fedr".into(), s.into()],
        },
        Message::Alive {
            component: s.into(),
        },
        Message::TestHook { action: s.into() },
    ];
    let mut envs: Vec<Envelope> = bodies
        .into_iter()
        .map(|body| Envelope::new("fd", "rec", 1, body))
        .collect();
    envs.push(Envelope::new(
        s.to_string(),
        s.to_string(),
        1,
        Message::Ping { seq: 1 },
    ));
    envs
}

/// The decoder's edges, each with the answer the predicate must give. A
/// `true` must read back exactly; a `false` here is also what the codec says.
#[test]
fn round_trips_on_the_edge_table() {
    let mut table: Vec<(Envelope, bool)> = Vec::new();
    for (x, typed) in [
        (f64::INFINITY, false),
        (f64::NEG_INFINITY, false),
        (f64::NAN, false),
        (-0.0, true),
        (f64::MIN_POSITIVE / 4.0, true), // subnormal
        (f64::from_bits(1), true),       // the smallest subnormal
        (f64::MAX, true),
        (f64::MIN, true),
    ] {
        for body in every_float_field(x) {
            table.push((Envelope::new("fd", "rec", 1, body), typed));
        }
    }
    for names in [vec![], vec![""], vec!["a+b"], vec!["a", ""], vec!["+"]] {
        let components = names.into_iter().map(String::from).collect();
        let body = Message::FailedBatch { components };
        table.push((Envelope::new("fd", "rec", 1, body), false));
    }
    for s in [
        "&",
        "<",
        ">",
        "\"",
        "'",
        "\t",
        "\n",
        "\r",
        "\0",
        "ünï → \u{1F6F0}",
        "",
    ] {
        for env in every_string_field(&format!("x{s}y")) {
            table.push((env, true));
        }
    }
    let past = "ab".repeat(Envelope::MAX_WIRE_BYTES / 2 + 1);
    table.push((
        Envelope::new("pbcom", "fedr", 1, Message::SerialFrame { hex: past }),
        false,
    ));
    for (env, typed) in &table {
        assert_eq!(assert_round_trips_sound(env), *typed, "on {env:?}");
        assert_eq!(reads_back_exactly(env), *typed, "the codec on {env:?}");
    }
}

/// The size check is conservative, never loose. At the longest text it
/// types, text that is all escapes (six bytes each) still reads back; one
/// byte more is sent as bytes although it would still parse.
#[test]
fn round_trips_size_bound_is_conservative() {
    let frame = |hex: String| Envelope::new("a", "b", 1, Message::SerialFrame { hex });
    let (mut typed, mut refused) = (0, Envelope::MAX_WIRE_BYTES);
    while refused - typed > 1 {
        let mid = (typed + refused) / 2;
        if frame("0".repeat(mid)).round_trips() {
            typed = mid;
        } else {
            refused = mid;
        }
    }
    assert!(typed > 40_000, "the bound types text up to {typed} bytes");
    assert!(assert_round_trips_sound(&frame("0".repeat(typed))));
    assert!(assert_round_trips_sound(&frame("\"".repeat(typed))));
    assert!(!frame("0".repeat(refused)).round_trips());
    assert!(reads_back_exactly(&frame("0".repeat(refused))));
}

/// What the station sends on every steady-state path must be typed, or the
/// fast path has silently switched off.
#[test]
fn the_stations_own_messages_are_typed() {
    use ComponentStatus::{Degraded, Ok as Up};
    let radio = |verb: &str, arg: &str| Message::RadioCommand {
        verb: verb.into(),
        arg: arg.into(),
    };
    for (src, dst, body) in [
        ("fd", "ses", Message::Ping { seq: 42_003 }),
        (
            "ses",
            "fd",
            Message::Pong {
                seq: 42_003,
                status: Up,
            },
        ),
        (
            "pbcom",
            "fd",
            Message::Pong {
                seq: 7,
                status: Degraded,
            },
        ),
        (
            "fedr",
            "rec",
            Message::Beacon {
                component: "fedr".into(),
                status: Up,
                uptime_s: 1_234.567_891,
                aging: 0.3125,
                handled: 98_765,
            },
        ),
        (
            "fd",
            "rec",
            Message::Failed {
                component: "rtu".into(),
            },
        ),
        (
            "fd",
            "rec",
            Message::FailedBatch {
                components: vec!["fedr".into(), "pbcom".into()],
            },
        ),
        (
            "fd",
            "rec",
            Message::Alive {
                component: "rtu".into(),
            },
        ),
        ("ses", "str", Message::SyncRequest { incarnation: 2 }),
        ("str", "ses", Message::SyncAck { incarnation: 2 }),
        ("pbcom", "fedr", radio("OPEN-ACK", "")),
        ("pbcom", "fedr", radio("KA-ACK", "")),
        ("fedr", "pbcom", radio("KEEPALIVE", "")),
        (
            "injector",
            "fedr",
            Message::TestHook {
                action: "poison".into(),
            },
        ),
        (
            "operator",
            "str",
            Message::TrackRequest {
                satellite: "opal".into(),
            },
        ),
    ] {
        let env = Envelope::new(src, dst, 1, body);
        assert!(assert_round_trips_sound(&env), "{env:?} must be typed");
    }
}

// ------------------------------------------------------ hardening checks --

#[test]
fn oversized_wire_still_refused_before_parsing() {
    let padding = "x".repeat(Envelope::MAX_WIRE_BYTES);
    let wire =
        format!("<msg src=\"a\" dst=\"b\" id=\"1\" pad=\"{padding}\"><ping seq=\"1\"/></msg>");
    assert!(matches!(
        Envelope::parse(&wire),
        Err(MsgError::Oversized { bytes, limit })
            if bytes == wire.len() && limit == Envelope::MAX_WIRE_BYTES
    ));
    // At the ceiling exactly, parsing proceeds (and fails on schema, not size).
    let at_limit = "z".repeat(Envelope::MAX_WIRE_BYTES);
    assert!(!matches!(
        Envelope::parse(&at_limit),
        Err(MsgError::Oversized { .. })
    ));
}

#[test]
fn non_ascii_hex_hardening_holds() {
    for bad in ["éé", "日本", "a\u{0301}bc", "+f", "-1", " f", "f "] {
        assert_eq!(
            TelemetryFrame::from_hex(bad),
            Err(FrameError::BadHex),
            "{bad:?} must be refused"
        );
    }
    let frame = TelemetryFrame::new(3, vec![0, 255, 16]);
    assert_eq!(TelemetryFrame::from_hex(&frame.to_hex()), Ok(frame));
}
