//! Message and envelope generators shared by the integration suites, and
//! the reference XML tree and parser they check the library against.
#![allow(dead_code)] // each suite uses a different subset

pub mod reference;

use mercury_msg::{ComponentStatus, Envelope, Message, RadioBand};
use rr_sim::{check, SimRng};

pub fn arb_status(rng: &mut SimRng) -> ComponentStatus {
    *rng.choose(&[
        ComponentStatus::Ok,
        ComponentStatus::Starting,
        ComponentStatus::Degraded,
    ])
    .unwrap()
}

pub fn arb_band(rng: &mut SimRng) -> RadioBand {
    *rng.choose(&[RadioBand::Vhf, RadioBand::Uhf]).unwrap()
}

/// Any finite double, including negatives, zero and subnormals.
pub fn arb_finite(rng: &mut SimRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

pub fn arb_name(rng: &mut SimRng) -> String {
    check::ident(rng, 13)
}

/// Printable ASCII, including XML-hostile characters.
pub fn arb_text(rng: &mut SimRng) -> String {
    check::printable(rng, 24)
}

pub fn arb_hex(rng: &mut SimRng, max_len: usize) -> String {
    const HEX: &[u8] = b"0123456789abcdef";
    let len = rng.next_below(max_len as u64 + 1) as usize;
    (0..len)
        .map(|_| HEX[rng.next_below(16) as usize] as char)
        .collect()
}

/// Arbitrary non-control characters (ASCII and beyond).
pub fn arb_unicode(rng: &mut SimRng, max_len: usize) -> String {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    let mut s = String::new();
    while s.chars().count() < len {
        let c = match char::from_u32(rng.next_below(0x11_0000) as u32) {
            Some(c) if !c.is_control() => c,
            _ => continue,
        };
        s.push(c);
    }
    s
}

/// Number of [`Message`] variants; [`arb_message_of`] takes an index below it.
pub const VARIANTS: u64 = 18;

/// The position of `m`'s variant in [`arb_message_of`]. Exhaustive, so a new
/// variant fails to compile here until the generator learns it.
pub fn variant_index(m: &Message) -> u64 {
    match m {
        Message::Ping { .. } => 0,
        Message::Pong { .. } => 1,
        Message::TrackRequest { .. } => 2,
        Message::PointAntenna { .. } => 3,
        Message::EstimateRequest { .. } => 4,
        Message::EstimateReply { .. } => 5,
        Message::TuneRadio { .. } => 6,
        Message::RadioCommand { .. } => 7,
        Message::SerialFrame { .. } => 8,
        Message::Telemetry { .. } => 9,
        Message::SyncRequest { .. } => 10,
        Message::SyncAck { .. } => 11,
        Message::Beacon { .. } => 12,
        Message::Ack { .. } => 13,
        Message::Failed { .. } => 14,
        Message::FailedBatch { .. } => 15,
        Message::Alive { .. } => 16,
        Message::TestHook { .. } => 17,
    }
}

pub fn arb_message(rng: &mut SimRng) -> Message {
    let variant = rng.next_below(VARIANTS);
    arb_message_of(rng, variant)
}

/// A random message of the variant numbered `variant` by [`variant_index`].
pub fn arb_message_of(rng: &mut SimRng, variant: u64) -> Message {
    match variant {
        0 => Message::Ping {
            seq: rng.next_u64(),
        },
        1 => Message::Pong {
            seq: rng.next_u64(),
            status: arb_status(rng),
        },
        2 => Message::TrackRequest {
            satellite: arb_name(rng),
        },
        3 => Message::PointAntenna {
            azimuth_deg: arb_finite(rng),
            elevation_deg: arb_finite(rng),
        },
        4 => Message::EstimateRequest {
            satellite: arb_name(rng),
            at_epoch_s: arb_finite(rng),
        },
        5 => Message::EstimateReply {
            azimuth_deg: arb_finite(rng),
            elevation_deg: arb_finite(rng),
            range_km: arb_finite(rng),
            doppler_hz: arb_finite(rng),
        },
        6 => Message::TuneRadio {
            frequency_hz: arb_finite(rng),
            band: arb_band(rng),
        },
        7 => Message::RadioCommand {
            verb: arb_text(rng),
            arg: arb_text(rng),
        },
        8 => Message::SerialFrame {
            hex: arb_hex(rng, 32),
        },
        9 => Message::Telemetry {
            satellite: arb_name(rng),
            frame: rng.next_u64(),
            hex: arb_hex(rng, 32),
        },
        10 => Message::SyncRequest {
            incarnation: rng.next_u64(),
        },
        11 => Message::SyncAck {
            incarnation: rng.next_u64(),
        },
        12 => Message::Beacon {
            component: arb_name(rng),
            status: arb_status(rng),
            uptime_s: arb_finite(rng),
            aging: arb_finite(rng),
            handled: rng.next_u64(),
        },
        13 => Message::Ack { of: rng.next_u64() },
        14 => Message::Failed {
            component: arb_name(rng),
        },
        15 => Message::FailedBatch {
            components: check::vec_of(rng, 1, 4, arb_name),
        },
        16 => Message::Alive {
            component: arb_name(rng),
        },
        17 => Message::TestHook {
            action: arb_text(rng),
        },
        _ => panic!("no message variant {variant}"),
    }
}

/// An envelope around [`arb_message_of`]; the addresses are mostly component
/// names, sometimes text that needs escaping on the wire.
pub fn arb_envelope_of(rng: &mut SimRng, variant: u64) -> Envelope {
    let address = |rng: &mut SimRng| {
        if rng.chance(0.8) {
            arb_name(rng)
        } else {
            arb_text(rng)
        }
    };
    let (src, dst) = (address(rng), address(rng));
    Envelope::new(src, dst, rng.next_u64(), arb_message_of(rng, variant))
}
