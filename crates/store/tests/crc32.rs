//! The journal's slicing-by-8 CRC-32 against two it shares no code with:
//! `mercury_msg::frame::crc32` (bytewise table) and `crc32_bitwise` (one
//! bit at a time). Every length up to nine 8-byte chunks at every alignment
//! covers every remainder of the sliced loop; the 1 MiB buffer looks up
//! every entry of all eight tables.

use mercury_msg::frame::{crc32 as crc32_bytewise, crc32_bitwise};
use rr_store::crc32;

/// `n` seeded bytes (xorshift64).
fn seeded(n: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn assert_all_agree(bytes: &[u8], case: &str) {
    let want = crc32_bitwise(bytes);
    assert_eq!(
        crc32_bytewise(bytes),
        want,
        "{case}: mercury-msg references disagree"
    );
    assert_eq!(crc32(bytes), want, "{case}: rr_store::crc32");
}

#[test]
fn sliced_crc32_matches_independent_references() {
    let buf = seeded(8 + 72);
    for start in 0..8 {
        for len in 0..=72 {
            assert_all_agree(
                &buf[start..start + len],
                &format!("start {start}, len {len}"),
            );
        }
    }
    assert_all_agree(&seeded(1 << 20), "1 MiB");
    // Check values of CRC-32/ISO-HDLC.
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}
