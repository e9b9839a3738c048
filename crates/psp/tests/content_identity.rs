//! One uploader must never change what another photo's receivers get.
//!
//! The attack: two protected JPEGs that differ in one DQT byte and share
//! their params. One 8-byte word inside a COM segment is tuned so that a
//! word-at-a-time 64-bit FNV-style hash of the two bitstreams collides.
//! A store whose transform cache or decode memo trusted such a hash
//! would hand the victim's receivers the attacker's pixels. The PSP keys
//! both by the SHA-256 content identity its WAL records name, so each
//! request below must be answered exactly as a server holding only the
//! victim answers it.
//!
//! The 64-bit hash is carried here only to craft the colliding inputs.
//!
//! Each test uploads the victim first, so the victim is its own
//! signature-family root and the attacker joins the victim's family:
//! the family probe, which serves a root's cached bytes to the other
//! members, never runs for the victim. These tests cover the exact-key
//! layer only. With the attacker uploaded first, the victim would be
//! served the attacker's bytes as `SigCached` — a separate, still open
//! hole in the family layer.

use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::PspServer;
use puppies_transform::Transformation;

const PRIME: u64 = 0x0000_0100_0000_01b3;
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The attacked hash's state after its first `words` 8-byte chunks.
fn state_after(bytes: &[u8], words: usize) -> u64 {
    let mut h = OFFSET ^ (bytes.len() as u64).wrapping_mul(PRIME);
    for chunk in bytes.chunks_exact(8).take(words) {
        h = (h ^ u64::from_le_bytes(chunk.try_into().unwrap())).wrapping_mul(PRIME);
        h ^= h >> 29;
    }
    h
}

/// The attacked hash: 8-byte words, then a length-mixed tail.
fn hash64(bytes: &[u8]) -> u64 {
    let words = bytes.len() / 8;
    let mut tail = 0u64;
    for (i, &b) in bytes[words * 8..].iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    let h = (state_after(bytes, words) ^ tail).wrapping_mul(PRIME);
    h ^ (h >> 31)
}

/// Offset of the first segment with marker `marker`, walking the
/// segments that follow SOI.
fn segment(jpeg: &[u8], marker: u8) -> usize {
    let mut pos = 2;
    loop {
        assert_eq!(jpeg[pos], 0xFF, "segment walk lost sync at {pos}");
        if jpeg[pos + 1] == marker {
            return pos;
        }
        pos += 2 + usize::from(u16::from_be_bytes([jpeg[pos + 2], jpeg[pos + 3]]));
    }
}

/// `(victim, attacker, params)`: the victim is a protected JPEG with a
/// COM segment after its tables; the attacker changes one DQT byte, then
/// re-tunes one aligned COM word so the 64-bit hashes collide.
fn colliding_pair() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(64, 48, |x, y| {
        Rgb::new((x * 4) as u8, (y * 5) as u8, ((x + y) * 3) as u8)
    });
    let protected = protect(
        &img,
        &[Rect::new(16, 8, 24, 24)],
        &OwnerKey::from_seed([17u8; 32]),
        &ProtectOptions::default(),
    )
    .unwrap();
    let mut victim = protected.bytes;
    let sof = segment(&victim, 0xC0);
    let com = [[0xFF, 0xFE, 0x00, 26].as_slice(), &[b'#'; 24]].concat();
    victim.splice(sof..sof, com);

    let mut attacker = victim.clone();
    // The last entry of the first quantization table.
    let dqt = segment(&attacker, 0xDB);
    let q = dqt + 4 + 1 + 63;
    attacker[q] = if attacker[q] < 255 {
        attacker[q] + 1
    } else {
        254
    };

    let word = (sof + 4).div_ceil(8);
    let at = word * 8..word * 8 + 8;
    assert!(at.end <= sof + 28, "tuned word lies inside the COM payload");
    let w = u64::from_le_bytes(victim[at.clone()].try_into().unwrap())
        ^ state_after(&victim, word)
        ^ state_after(&attacker, word);
    attacker[at].copy_from_slice(&w.to_le_bytes());

    assert_ne!(victim, attacker);
    assert_eq!(hash64(&victim), hash64(&attacker), "crafted pair collides");
    (victim, attacker, protected.params.to_bytes())
}

/// What a server holding only the victim serves for `t`.
fn served_alone(victim: &[u8], params: &[u8], t: &Transformation) -> (Vec<u8>, Vec<u8>) {
    let alone = PspServer::new();
    let id = alone.upload(victim.to_vec(), params.to_vec()).unwrap();
    let (bytes, params) = alone.download_transformed(id, t).unwrap();
    (bytes.to_vec(), params.to_vec())
}

#[test]
fn a_colliding_upload_cannot_serve_its_cached_transform_to_the_victim() {
    let (victim, attacker, params) = colliding_pair();
    let server = PspServer::new();
    let victim_id = server.upload(victim.clone(), params.clone()).unwrap();
    let attacker_id = server.upload(attacker, params.clone()).unwrap();
    let t = Transformation::FlipHorizontal;
    let (planted, _) = server.download_transformed(attacker_id, &t).unwrap();

    let want = served_alone(&victim, &params, &t);
    assert_ne!(planted.as_ref(), &want.0[..], "the attack has teeth");
    let (bytes, got_params) = server.download_transformed(victim_id, &t).unwrap();
    assert_eq!(
        bytes.as_ref(),
        &want.0[..],
        "victim got the attacker's bytes"
    );
    assert_eq!(got_params.as_ref(), &want.1[..]);
}

#[test]
fn a_colliding_upload_cannot_lend_its_decode_to_the_victim() {
    let (victim, attacker, params) = colliding_pair();
    let server = PspServer::new();
    let victim_id = server.upload(victim.clone(), params.clone()).unwrap();
    let attacker_id = server.upload(attacker, params.clone()).unwrap();
    // The attacker's request leaves its decoded coefficients in the
    // decode memo; the victim then asks for a view nobody has cached.
    server
        .download_transformed(attacker_id, &Transformation::Rotate180)
        .unwrap();

    let t = Transformation::Rotate90;
    let want = served_alone(&victim, &params, &t);
    let (bytes, got_params) = server.download_transformed(victim_id, &t).unwrap();
    assert_eq!(
        bytes.as_ref(),
        &want.0[..],
        "victim's view decoded from the attacker's bytes"
    );
    assert_eq!(got_params.as_ref(), &want.1[..]);
}
