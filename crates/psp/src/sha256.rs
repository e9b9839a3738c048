//! SHA-256 (FIPS 180-4), implemented over `std` only.
//!
//! The PSP's vendored-only policy rules out a crypto crate, but the
//! service genuinely needs a collision-resistant / one-way hash, not the
//! FNV-1a that checksums WAL frames:
//!
//! - **content identity** ([`crate::store::ContentId`]): the WAL frames
//!   blobs under their SHA-256 and records name them by that hash, and
//!   the in-memory store keys its content table, decode memo, index and
//!   transform cache by the same pair, so a craftable collision would let
//!   one uploader alias another's bytes or cached results;
//! - **owner-token derivation** ([`crate::net`]): tokens are derived
//!   from a server secret and must not be invertible back to it.
//!
//! The portable compression function is the straightforward FIPS
//! pseudocode, checked against the standard test vectors below; it runs
//! at about 240 MB/s on a 2-vCPU x86-64 Xeon host. Every upload hashes
//! its bitstream, so on x86-64 CPUs with the SHA extensions the blocks
//! go through those instead: about 1.46 GB/s on the same host (best of
//! 20 × 20 hashes of 150 KB), byte-identical to the portable path, which
//! a test checks block by block.

/// First 32 bits of the fractional parts of the cube roots of the first
/// 64 primes (the round constants K).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunked by 4"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Runs the compression function over every whole 64-byte block of
/// `blocks`: with the CPU's SHA extensions when it has them, else
/// [`compress`], which the tests keep as the reference.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
    {
        // SAFETY: the CPU supports every feature `ni::compress_blocks`
        // enables, checked just above.
        unsafe { ni::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress(state, block);
    }
}

/// The x86-64 SHA extensions: two rounds per `sha256rnds2`, the message
/// schedule four words at a time (`sha256msg1`/`sha256msg2`). The state
/// lives in two registers ordered `ABEF` and `CDGH`, as the instructions
/// want it.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Adds the round constants `K[4i..4i + 4]` to four schedule words and
    /// runs those four rounds.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_loadu_si128(K[4 * $i..4 * $i + 4].as_ptr().cast());
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    /// Schedules the next four words from the previous sixteen into `$next`,
    /// then runs their rounds.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $next:ident, $i:expr) => {{
            let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            $next = _mm_sha256msg2_epu32(t, $w3);
            rounds4!($abef, $cdgh, $next, $i);
        }};
    }

    /// # Safety
    /// The CPU must support the `sha`, `sse4.1` and `ssse3` features.
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Every unaligned load and store below stays inside memory it
        // names: a 16-byte half of `state`, a 16-byte row of `K` (rows
        // 0..16 of 64 words) or one of the four 16-byte quarters of a
        // 64-byte `block`.
        //
        // Byte order: each little-endian lane load becomes the big-endian
        // message word.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(state[..4].as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words = block.as_ptr().cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(words), be);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), be);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), be);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), be);
            let mut w4;
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(
            state[..4].as_mut_ptr().cast(),
            _mm_blend_epi16(feba, dchg, 0xF0),
        );
        _mm_storeu_si128(
            state[4..].as_mut_ptr().cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// SHA-256 of `bytes` in one shot.
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let whole = bytes.len() / 64 * 64;
    compress_blocks(&mut state, &bytes[..whole]);
    // Padding: 0x80, zeros, then the bit length as u64 BE — one extra
    // block, or two when the tail leaves fewer than 9 free bytes.
    let tail = &bytes[whole..];
    let mut last = [0u8; 128];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] = 0x80;
    let end = if tail.len() < 56 { 64 } else { 128 };
    let bit_len = (bytes.len() as u64) * 8;
    last[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(&mut state, &last[..end]);
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 over the concatenation of several parts (keyed derivations
/// without intermediate allocation at call sites).
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; 32] {
    let mut buf = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        buf.extend_from_slice(p);
    }
    sha256(&buf)
}

/// Constant-time byte-slice equality: the comparison time depends only
/// on the lengths, never on where the first mismatch sits. Use for every
/// secret-token check.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST CAVP examples.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let input = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn padding_boundaries() {
        // 55/56/63/64 bytes straddle the one-vs-two padding blocks.
        for n in [55usize, 56, 63, 64, 119, 120] {
            let bytes = vec![0x61u8; n];
            let got = sha256(&bytes);
            // Cross-check against a second path: concat of two halves.
            let (lo, hi) = bytes.split_at(n / 2);
            assert_eq!(got, sha256_concat(&[lo, hi]), "length {n}");
        }
        assert_eq!(
            hex(&sha256(&[0x61u8; 56])),
            // printf 'a%.0s' {1..56} | sha256sum
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
        );
    }

    /// The SHA-extension path against the portable reference, block by
    /// block, on every length up to a few blocks and a long run.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_extensions_match_the_reference() {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3"))
        {
            return;
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..64 * 40)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for blocks in 0..=40 {
            let mut state = H0;
            for (i, v) in state.iter_mut().enumerate() {
                *v ^= (blocks * 8 + i) as u32;
            }
            let mut reference = state;
            for block in data[..64 * blocks].chunks_exact(64) {
                compress(&mut reference, block);
            }
            // SAFETY: the features `ni::compress_blocks` enables were
            // checked above.
            unsafe { ni::compress_blocks(&mut state, &data[..64 * blocks]) };
            assert_eq!(state, reference, "{blocks} blocks");
        }
    }

    #[test]
    fn concat_equals_whole() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn ct_eq_semantics() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"Same"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }
}
