//! Canonical Huffman coding for baseline JPEG entropy coding.
//!
//! Provides the Annex K.3 default tables, *per-image optimized* table
//! construction (the JPEG Annex K.2 two-list algorithm with the 16-bit
//! length limit), and the DC-differential / AC-run-length block coder.
//!
//! Per-image optimization is load-bearing for the paper: PuPPIeS-B bloats
//! files ~10× precisely because perturbed coefficients no longer match the
//! default code assignment, and PuPPIeS-C recovers most of that by
//! rebuilding the tables from the *perturbed* statistics (§IV-B.3).
//!
//! # Coefficient rings
//!
//! The paper's Lemma III.1 wraps all coefficients in `[-1024, 1023]`
//! (mod 2048). Baseline JPEG, however, only admits magnitude category 11
//! for *DC differences*; an AC value of exactly `-1024` is unencodable with
//! the standard tables (their code space is full — there is no room to
//! extend them within the 16-bit length limit). This codec therefore
//! enforces the strictly-standard ranges: DC in `[-1024, 1023]` and AC in
//! `[-1023, 1023]`. `puppies-core` correspondingly perturbs DC mod 2048 and
//! AC mod 2047 — exact recovery à la Lemma III.1 holds for any modulus that
//! covers the value range, and every perturbed stream stays decodable by a
//! stock baseline decoder. The deviation is recorded in DESIGN.md. The
//! block decoder holds streams to the same ranges, so whatever it accepts
//! re-encodes: a DC outside `[-1024, 1023]` or an AC magnitude category of
//! 11 or more fails with [`JpegError::CoefficientRange`].

use crate::{JpegError, Result};

/// Number of distinct (run, size) AC symbols including the category-11
/// extension, plus DC categories. Symbols are `u8`-valued.
const MAX_SYMBOLS: usize = 256;

// ---------------------------------------------------------------------------
// Bit IO with JPEG byte stuffing.
// ---------------------------------------------------------------------------

/// MSB-first bit writer with JPEG `0xFF 0x00` byte stuffing.
///
/// Uses a 64-bit accumulator so a Huffman code plus its magnitude bits
/// (up to 16 + 11 bits) lands in a single [`BitWriter::put`].
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with `bytes` of output capacity reserved.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            out: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `len` bits of `bits`, MSB first.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn put(&mut self, bits: u32, len: u32) {
        assert!(len <= 32, "at most 32 bits per put");
        if len == 0 {
            return;
        }
        self.acc = (self.acc << len) | (bits as u64 & ((1u64 << len) - 1));
        self.nbits += len;
        // Defer draining until the accumulator could overflow on the next
        // put (32 pending + 32 incoming = 64). Most puts are then a pure
        // shift-and-or; the drain itself moves up to four bytes at once.
        if self.nbits > 32 {
            self.drain();
        }
    }

    /// Flushes all whole bytes in the accumulator to the output, applying
    /// JPEG 0xFF byte stuffing.
    fn drain(&mut self) {
        let nbytes = (self.nbits / 8) as usize;
        if nbytes == 0 {
            return;
        }
        let rem = self.nbits & 7;
        let chunk = self.acc >> rem;
        // SWAR check for any 0xFF byte among the low `nbytes` bytes: a
        // byte of `chunk` is 0xFF iff the matching byte of `!chunk` is 0,
        // and the high zero-padding bytes of `chunk` can't false-trigger.
        let inv = !chunk;
        let any_ff = inv.wrapping_sub(0x0101_0101_0101_0101) & !inv & 0x8080_8080_8080_8080 != 0;
        let be = chunk.to_be_bytes();
        let bytes = &be[8 - nbytes..];
        if !any_ff {
            self.out.extend_from_slice(bytes);
        } else {
            for &byte in bytes {
                self.out.push(byte);
                if byte == 0xFF {
                    self.out.push(0x00);
                }
            }
        }
        self.nbits = rem;
        self.acc &= (1u64 << rem) - 1;
    }

    /// Pads the final partial byte with 1-bits (as the JPEG spec requires)
    /// and returns the stuffed byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        self.drain();
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put((1u32 << pad) - 1, pad);
            self.drain();
        }
        self.out
    }

    /// Number of whole bytes emitted so far (excluding buffered bits).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty() && self.nbits == 0
    }
}

/// MSB-first bit reader that un-stuffs `0xFF 0x00` sequences.
///
/// The accumulator is 64 bits wide and refills eight bytes at a time when
/// the window contains no `0xFF` (so no stuffing or marker can occur in
/// it). A naked marker — `0xFF` followed by anything but `0x00` — ends the
/// readable stream: further reads fail with "entropy data exhausted".
/// `codec::decode_scan` slices the entropy segment just before its
/// trailing marker, so an in-stream marker only arises in malformed input.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Bits `nbits-1..0` are valid; anything above is stale and masked out
    /// on extraction.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over entropy-coded data.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Tops the accumulator up to at least 57 bits, or to stream end.
    fn refill(&mut self) {
        while self.nbits <= 56 {
            if self.pos + 8 <= self.data.len() {
                let w = u64::from_be_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
                // SWAR: !w has a zero byte exactly where w has an 0xFF.
                let inv = !w;
                if inv.wrapping_sub(0x0101_0101_0101_0101) & !inv & 0x8080_8080_8080_8080 == 0 {
                    let take = ((64 - self.nbits) / 8) as usize;
                    if take == 8 {
                        self.acc = w;
                        self.nbits = 64;
                    } else {
                        self.acc = (self.acc << (8 * take)) | (w >> (64 - 8 * take));
                        self.nbits += 8 * take as u32;
                    }
                    self.pos += take;
                    continue;
                }
            }
            // Byte path: stuffing, markers, and the last 7 bytes.
            match self.data.get(self.pos) {
                None => break,
                Some(&0xFF) => match self.data.get(self.pos + 1) {
                    Some(&0x00) => {
                        self.pos += 2;
                        self.acc = (self.acc << 8) | 0xFF;
                        self.nbits += 8;
                    }
                    _ => {
                        // Naked marker (or trailing 0xFF): end of stream.
                        self.pos = self.data.len();
                        break;
                    }
                },
                Some(&b) => {
                    self.pos += 1;
                    self.acc = (self.acc << 8) | b as u64;
                    self.nbits += 8;
                }
            }
        }
    }

    /// Reads a single bit.
    ///
    /// # Errors
    /// Fails if the stream is exhausted.
    pub fn bit(&mut self) -> Result<u32> {
        if self.nbits == 0 {
            self.refill();
            if self.nbits == 0 {
                return Err(JpegError::Malformed("entropy data exhausted".into()));
            }
        }
        self.nbits -= 1;
        Ok(((self.acc >> self.nbits) & 1) as u32)
    }

    /// Reads `len` bits MSB-first in one accumulator extraction (0 bits
    /// yields 0). `len` must be at most 32.
    ///
    /// # Errors
    /// Fails if the stream is exhausted.
    pub fn bits(&mut self, len: u32) -> Result<u32> {
        debug_assert!(len <= 32, "at most 32 bits per read");
        if len == 0 {
            return Ok(0);
        }
        if self.nbits < len {
            self.refill();
            if self.nbits < len {
                return Err(JpegError::Malformed("entropy data exhausted".into()));
            }
        }
        self.nbits -= len;
        Ok((self.acc >> self.nbits) as u32 & (((1u64 << len) - 1) as u32))
    }

    /// Peeks the next [`LOOKAHEAD_BITS`] bits without consuming them, or
    /// `None` when fewer remain (the bitwise decode path handles the tail).
    #[inline]
    pub(crate) fn peek_lookahead(&mut self) -> Option<u32> {
        if self.nbits < LOOKAHEAD_BITS {
            self.refill();
            if self.nbits < LOOKAHEAD_BITS {
                return None;
            }
        }
        Some(((self.acc >> (self.nbits - LOOKAHEAD_BITS)) as u32) & (LOOKAHEAD_SIZE as u32 - 1))
    }

    /// Discards `len` bits previously seen via [`BitReader::peek_lookahead`].
    #[inline]
    pub(crate) fn consume(&mut self, len: u32) {
        debug_assert!(len <= self.nbits);
        self.nbits -= len;
    }
}

// ---------------------------------------------------------------------------
// Tables.
// ---------------------------------------------------------------------------

/// A Huffman table in the JPEG wire form: `counts[l]` symbols of code
/// length `l + 1`, with `values` listed in canonical order.
///
/// The values live behind an `Arc` so deriving per-table decoder state
/// shares them instead of cloning a `Vec<u8>` per decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffTable {
    counts: [u8; 16],
    values: std::sync::Arc<[u8]>,
}

impl HuffTable {
    /// Creates a table from length counts and ordered symbol values.
    ///
    /// # Errors
    /// Returns [`JpegError::Malformed`] if the counts and values disagree or
    /// the code space overflows 16 bits.
    pub fn new(counts: [u8; 16], values: Vec<u8>) -> Result<Self> {
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        if total != values.len() {
            return Err(JpegError::Malformed(format!(
                "huffman counts sum {} != value count {}",
                total,
                values.len()
            )));
        }
        if total == 0 || total > MAX_SYMBOLS {
            return Err(JpegError::Malformed(format!("bad symbol count {total}")));
        }
        // Validate the canonical code space.
        let mut code: u32 = 0;
        for (l, &c) in counts.iter().enumerate() {
            code += c as u32;
            if code > (1u32 << (l + 1)) {
                return Err(JpegError::Malformed("huffman code space overflow".into()));
            }
            code <<= 1;
        }
        Ok(HuffTable {
            counts,
            values: values.into(),
        })
    }

    /// Code-length histogram (`counts[l]` codes of length `l + 1`).
    pub fn counts(&self) -> &[u8; 16] {
        &self.counts
    }

    /// Symbols in canonical order.
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// The Annex K.3.1 DC luminance table.
    pub fn std_dc_luma() -> HuffTable {
        HuffTable::new(
            [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            (0..=11).collect(),
        )
        .expect("standard table is valid")
    }

    /// The Annex K.3.2 DC chrominance table.
    pub fn std_dc_chroma() -> HuffTable {
        HuffTable::new(
            [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
            (0..=11).collect(),
        )
        .expect("standard table is valid")
    }

    /// The Annex K.3.3 AC luminance table.
    pub fn std_ac_luma() -> HuffTable {
        let counts = [0u8, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D];
        HuffTable::new(counts, STD_AC_LUMA_VALUES.to_vec()).expect("standard table is valid")
    }

    /// The Annex K.3.4 AC chrominance table.
    pub fn std_ac_chroma() -> HuffTable {
        let counts = [0u8, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77];
        HuffTable::new(counts, STD_AC_CHROMA_VALUES.to_vec()).expect("standard table is valid")
    }

    /// Builds a length-limited optimal table from symbol frequencies using
    /// the JPEG Annex K.2 procedure (two-list merge, `Adjust_BITS` to cap
    /// lengths at 16, reserved all-ones code via a dummy symbol).
    ///
    /// Symbols with zero frequency get no code. At least one symbol must
    /// have nonzero frequency.
    ///
    /// # Panics
    /// Panics if every frequency is zero.
    pub fn build_optimized(freqs: &[u64; 256]) -> HuffTable {
        assert!(
            freqs.iter().any(|&f| f > 0),
            "cannot build a Huffman table from all-zero frequencies"
        );
        // Working arrays sized 257: index 256 is the reserved dummy symbol.
        let mut freq = [0i64; 257];
        for (i, &f) in freqs.iter().enumerate() {
            freq[i] = f as i64;
        }
        freq[256] = 1;
        let mut codesize = [0u32; 257];
        let mut others = [-1i32; 257];

        loop {
            // v1: least nonzero freq, ties -> larger symbol value.
            let mut v1: i32 = -1;
            let mut least = i64::MAX;
            for (i, &f) in freq.iter().enumerate() {
                if f > 0 && (f < least || (f == least && (i as i32) > v1)) {
                    least = f;
                    v1 = i as i32;
                }
            }
            // v2: next least, excluding v1.
            let mut v2: i32 = -1;
            let mut least2 = i64::MAX;
            for (i, &f) in freq.iter().enumerate() {
                if f > 0 && i as i32 != v1 && (f < least2 || (f == least2 && (i as i32) > v2)) {
                    least2 = f;
                    v2 = i as i32;
                }
            }
            if v2 < 0 {
                break;
            }
            let (v1u, v2u) = (v1 as usize, v2 as usize);
            freq[v1u] += freq[v2u];
            freq[v2u] = 0;
            codesize[v1u] += 1;
            let mut t = v1u;
            while others[t] >= 0 {
                t = others[t] as usize;
                codesize[t] += 1;
            }
            others[t] = v2;
            codesize[v2u] += 1;
            let mut t = v2u;
            while others[t] >= 0 {
                t = others[t] as usize;
                codesize[t] += 1;
            }
        }

        // Count codes per length (lengths can exceed 16 before adjustment;
        // JPEG caps the working histogram at 32).
        let mut bits = [0i32; 33];
        for (i, &cs) in codesize.iter().enumerate() {
            if cs > 0 {
                assert!(cs <= 32, "code length {cs} for symbol {i} exceeds 32");
                bits[cs as usize] += 1;
            }
        }

        // Adjust_BITS: fold lengths > 16 down.
        let mut i = 32;
        while i > 16 {
            while bits[i] > 0 {
                // Find the longest length < i with at least one code.
                let mut j = i - 2;
                while bits[j] == 0 {
                    j -= 1;
                }
                bits[i] -= 2;
                bits[i - 1] += 1;
                bits[j + 1] += 2;
                bits[j] -= 1;
            }
            i -= 1;
        }
        // Remove the reserved dummy code from the longest used length.
        let mut i = 16;
        while bits[i] == 0 {
            i -= 1;
        }
        bits[i] -= 1;

        // Sort symbols by (codesize, symbol value), excluding the dummy.
        let mut order: Vec<usize> = (0..256).filter(|&s| codesize[s] > 0).collect();
        order.sort_by_key(|&s| (codesize[s], s));

        let mut counts = [0u8; 16];
        for (l, c) in counts.iter_mut().enumerate() {
            *c = bits[l + 1] as u8;
        }
        let values: Vec<u8> = order.iter().map(|&s| s as u8).collect();
        HuffTable::new(counts, values).expect("optimized table must be canonical")
    }
}

const STD_AC_LUMA_VALUES: [u8; 162] = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
];

const STD_AC_CHROMA_VALUES: [u8; 162] = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
];

// ---------------------------------------------------------------------------
// Encoder / decoder state derived from a table.
// ---------------------------------------------------------------------------

/// Symbol → (code, length) lookup for encoding.
#[derive(Debug, Clone)]
pub struct HuffEncoder {
    code: [u32; 256],
    size: [u8; 256],
}

impl HuffEncoder {
    /// Derives the canonical code assignment from `table`.
    pub fn new(table: &HuffTable) -> Self {
        let mut code = [0u32; 256];
        let mut size = [0u8; 256];
        let mut next_code: u32 = 0;
        let mut vi = 0usize;
        for (l, &c) in table.counts.iter().enumerate() {
            for _ in 0..c {
                let sym = table.values[vi] as usize;
                code[sym] = next_code;
                size[sym] = (l + 1) as u8;
                next_code += 1;
                vi += 1;
            }
            next_code <<= 1;
        }
        HuffEncoder { code, size }
    }

    /// Emits the code for `symbol`.
    ///
    /// # Errors
    /// Returns [`JpegError::Malformed`] if the symbol has no code in this
    /// table.
    pub fn emit(&self, w: &mut BitWriter, symbol: u8) -> Result<()> {
        let s = symbol as usize;
        if self.size[s] == 0 {
            return Err(JpegError::Malformed(format!(
                "symbol {symbol:#04x} has no Huffman code"
            )));
        }
        w.put(self.code[s], self.size[s] as u32);
        Ok(())
    }

    /// Emits the code for `symbol` immediately followed by `extra_len`
    /// magnitude bits, as a single accumulator push (at most 16 + 11 bits).
    ///
    /// # Errors
    /// Returns [`JpegError::Malformed`] if the symbol has no code in this
    /// table.
    #[inline]
    pub fn emit_with(
        &self,
        w: &mut BitWriter,
        symbol: u8,
        extra: u32,
        extra_len: u32,
    ) -> Result<()> {
        let s = symbol as usize;
        let size = self.size[s] as u32;
        if size == 0 {
            return Err(JpegError::Malformed(format!(
                "symbol {symbol:#04x} has no Huffman code"
            )));
        }
        let mask = ((1u64 << extra_len) - 1) as u32;
        w.put(
            (self.code[s] << extra_len) | (extra & mask),
            size + extra_len,
        );
        Ok(())
    }

    /// Code length in bits for `symbol` (0 if absent) — used for size
    /// accounting without materializing a stream.
    pub fn code_len(&self, symbol: u8) -> u32 {
        self.size[symbol as usize] as u32
    }
}

/// Bits of stream the decode table resolves in one probe. Ten bits hold
/// every code of the Annex K DC tables, and on the benchmark's protected
/// photos the codes of over 99.6% of AC symbols.
pub const LOOKAHEAD_BITS: u32 = 10;
const LOOKAHEAD_SIZE: usize = 1 << LOOKAHEAD_BITS;

/// Canonical Huffman decoder: a [`LOOKAHEAD_BITS`]-bit table for short
/// codes, with a mincode/maxcode/valptr walk as the long-code and
/// near-end fallback.
#[derive(Debug, Clone)]
pub struct HuffDecoder {
    /// Window → `(code length << 8) | symbol` for codes of at most
    /// [`LOOKAHEAD_BITS`] bits; 0 means "no such code" (unambiguous: real
    /// entries have a nonzero length in the high byte).
    lookahead: Box<[u16; LOOKAHEAD_SIZE]>,
    mincode: [i32; 17],
    maxcode: [i32; 17],
    valptr: [i32; 17],
    values: std::sync::Arc<[u8]>,
}

impl HuffDecoder {
    /// Derives decoding state from `table`.
    pub fn new(table: &HuffTable) -> Self {
        let mut mincode = [0i32; 17];
        let mut maxcode = [-1i32; 17];
        let mut valptr = [0i32; 17];
        let mut code: i32 = 0;
        let mut vi: i32 = 0;
        for l in 1..=16usize {
            let c = table.counts[l - 1] as i32;
            if c > 0 {
                valptr[l] = vi;
                mincode[l] = code;
                code += c;
                vi += c;
                maxcode[l] = code - 1;
            } else {
                maxcode[l] = -1;
            }
            code <<= 1;
        }
        // A code of length l ≤ LOOKAHEAD_BITS owns every window whose top
        // l bits equal the code.
        let mut lookahead = Box::new([0u16; LOOKAHEAD_SIZE]);
        let mut code: usize = 0;
        let mut vi = 0usize;
        for l in 1..=LOOKAHEAD_BITS {
            for _ in 0..table.counts[l as usize - 1] {
                let entry = (l as u16) << 8 | u16::from(table.values[vi]);
                let spare = LOOKAHEAD_BITS - l;
                lookahead[code << spare..(code + 1) << spare].fill(entry);
                code += 1;
                vi += 1;
            }
            code <<= 1;
        }
        HuffDecoder {
            lookahead,
            mincode,
            maxcode,
            valptr,
            values: table.values.clone(),
        }
    }

    /// Decodes the next symbol from the reader.
    ///
    /// # Errors
    /// Fails on exhausted input or a code not present in the table.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u8> {
        if let Some(window) = r.peek_lookahead() {
            let e = self.lookahead[window as usize];
            if e != 0 {
                r.consume(u32::from(e >> 8));
                return Ok((e & 0xFF) as u8);
            }
        }
        // Code longer than the window, or fewer bits left in the stream
        // than the window holds. The peek consumed nothing, so restart bit
        // by bit.
        self.decode_bitwise(r)
    }

    /// The bit-at-a-time canonical walk. [`HuffDecoder::decode`] is
    /// bit-identical to this; it is public as the reference path for the
    /// differential fuzz campaign.
    ///
    /// # Errors
    /// Fails on exhausted input or a code not present in the table.
    pub fn decode_bitwise(&self, r: &mut BitReader<'_>) -> Result<u8> {
        let mut code: i32 = 0;
        for l in 1..=16usize {
            code = (code << 1) | r.bit()? as i32;
            if self.maxcode[l] >= 0 && code <= self.maxcode[l] && code >= self.mincode[l] {
                let idx = (self.valptr[l] + (code - self.mincode[l])) as usize;
                return Ok(self.values[idx]);
            }
        }
        Err(JpegError::Malformed("invalid Huffman code".into()))
    }
}

// ---------------------------------------------------------------------------
// Magnitude categories and block-level coding.
// ---------------------------------------------------------------------------

/// JPEG magnitude category: the number of bits needed to represent `v`
/// (0 for 0, `n` for `|v|` in `[2^(n-1), 2^n - 1]`).
pub fn category(v: i32) -> u32 {
    u32::BITS - v.unsigned_abs().leading_zeros()
}

/// The `len`-bit magnitude encoding of `v` (one's complement for negative
/// values, per the JPEG spec).
pub fn magnitude_bits(v: i32, len: u32) -> u32 {
    if v >= 0 {
        v as u32
    } else {
        (v - 1) as u32 & ((1u32 << len) - 1)
    }
}

/// Inverts [`magnitude_bits`]: reconstructs `v` from its category and raw
/// bits.
pub fn extend_magnitude(bits: u32, len: u32) -> i32 {
    if len == 0 {
        return 0;
    }
    let v = bits as i32;
    if v < (1 << (len - 1)) {
        v - (1 << len) + 1
    } else {
        v
    }
}

/// Frequency accumulator for optimized-table construction.
#[derive(Debug, Clone)]
pub struct SymbolFreqs {
    /// DC category frequencies.
    pub dc: [u64; 256],
    /// AC (run, size) symbol frequencies.
    pub ac: [u64; 256],
}

impl Default for SymbolFreqs {
    fn default() -> Self {
        SymbolFreqs {
            dc: [0; 256],
            ac: [0; 256],
        }
    }
}

impl SymbolFreqs {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Encodes one zigzag-ordered quantized block.
///
/// `prev_dc` is the previous block's DC value for this component; returns
/// the new DC predictor.
///
/// # Errors
/// Fails if the DC coefficient is outside `[-1024, 1023]`, an AC
/// coefficient is outside `[-1023, 1023]`, or a needed symbol is missing
/// from the tables.
pub fn encode_block(
    w: &mut BitWriter,
    zz: &[i32; 64],
    prev_dc: i32,
    dc: &HuffEncoder,
    ac: &HuffEncoder,
) -> Result<i32> {
    encode_block_perm(w, zz, prev_dc, dc, ac, &IDENTITY)
}

/// [`encode_block`] taking the block in row-major (natural) order: the
/// zigzag permutation happens during the coefficient scan, so the encode
/// loop needs no per-block zigzag copy. Bit-identical to
/// `encode_block(w, &to_zigzag(block), ..)`.
///
/// # Errors
/// Same conditions as [`encode_block`].
pub fn encode_block_natural(
    w: &mut BitWriter,
    block: &[i32; 64],
    prev_dc: i32,
    dc: &HuffEncoder,
    ac: &HuffEncoder,
) -> Result<i32> {
    encode_block_natural_masked(w, block, zigzag_nonzero_mask(block), prev_dc, dc, ac)
}

/// [`encode_block_natural`] with the block's zigzag nonzero mask supplied
/// by the caller — bit `k` set iff the coefficient at zigzag position `k`
/// is nonzero, exactly what [`tally_block_natural_mask`] returns. Reusing
/// the tally pass's mask saves one 64-lane scan per block on the
/// optimized-Huffman path. The mask must describe this `block`: a stale
/// mask yields a corrupt (but memory-safe) stream.
///
/// # Errors
/// Same conditions as [`encode_block`].
pub fn encode_block_natural_masked(
    w: &mut BitWriter,
    block: &[i32; 64],
    mask: u64,
    prev_dc: i32,
    dc: &HuffEncoder,
    ac: &HuffEncoder,
) -> Result<i32> {
    if !(crate::COEFF_MIN..=crate::COEFF_MAX).contains(&block[0]) {
        return Err(JpegError::CoefficientRange { value: block[0] });
    }
    let diff = block[0] - prev_dc;
    let cat = category(diff);
    dc.emit_with(w, cat as u8, magnitude_bits(diff, cat), cat)?;

    // Walk only the nonzero coefficients: the run length before each
    // symbol is the gap between consecutive set bits. A typical
    // photographic block has ~10-20 nonzero ACs, so this skips the ~3/4
    // of the scan a coefficient-at-a-time loop burns on zeros.
    let mut mask = mask & !1;
    let mut prev_k = 0u32;
    while mask != 0 {
        let k = mask.trailing_zeros();
        mask &= mask - 1;
        let mut run = k - prev_k - 1;
        while run >= 16 {
            ac.emit(w, 0xF0)?; // ZRL
            run -= 16;
        }
        let v = block[crate::zigzag::ZIGZAG[k as usize & 63] & 63];
        // Range-check inside the nonzero walk: zeros are trivially in
        // range, so this sees every coefficient the old whole-block sweep
        // could reject (the writer holds a partial block on error, which
        // is fine — the caller discards the stream).
        if !(crate::AC_MIN..=crate::AC_MAX).contains(&v) {
            return Err(JpegError::CoefficientRange { value: v });
        }
        let size = category(v);
        ac.emit_with(
            w,
            ((run as u8) << 4) | size as u8,
            magnitude_bits(v, size),
            size,
        )?;
        prev_k = k;
    }
    if prev_k != 63 {
        ac.emit(w, 0x00)?; // EOB
    }
    Ok(block[0])
}

/// Per-byte scatter tables mapping a natural-order nonzero byte to its
/// zigzag-position bits: `ZZ_SCATTER[c][byte]` spreads the bits of `byte`
/// (natural indices `8c..8c+8`) to their [`crate::zigzag::UNZIGZAG`]
/// positions.
static ZZ_SCATTER: [[u64; 256]; 8] = {
    let mut t = [[0u64; 256]; 8];
    let mut c = 0;
    while c < 8 {
        let mut byte = 0usize;
        while byte < 256 {
            let mut m = 0u64;
            let mut j = 0;
            while j < 8 {
                if byte >> j & 1 == 1 {
                    m |= 1u64 << crate::zigzag::UNZIGZAG[c * 8 + j];
                }
                j += 1;
            }
            t[c][byte] = m;
            byte += 1;
        }
        c += 1;
    }
    t
};

/// [`zigzag_nonzero_mask`] kernel: one lane compare + movemask per 8-wide
/// natural-order group; the 8-bit group mask indexes the scatter table
/// directly (the table already maps natural byte `c` to zigzag positions).
unsafe fn nonzero_mask_kernel<S: puppies_image::simd::Simd8>(block: &[i32; 64]) -> u64 {
    unsafe {
        let groups = &*(block.as_ptr() as *const [[i32; 8]; 8]);
        let mut m = 0u64;
        for (c, g) in groups.iter().enumerate() {
            let bits = S::i_nonzero_mask(S::i_load(g)) as usize;
            m |= ZZ_SCATTER[c][bits];
        }
        m
    }
}

puppies_image::simd_dispatch! {
    // Bit `k` of the result is set iff the coefficient at *zigzag* position
    // `k` of the natural-order `block` is nonzero. Used twice per block on
    // the encode path (symbol tally + emission).
    fn zigzag_nonzero_mask / zigzag_nonzero_mask_with(block: &[i32; 64]) -> u64 = nonzero_mask_kernel;
}

/// The identity permutation: [`encode_block`]'s input is already in scan
/// order.
const IDENTITY: [usize; 64] = {
    let mut p = [0usize; 64];
    let mut i = 0;
    while i < 64 {
        p[i] = i;
        i += 1;
    }
    p
};

fn encode_block_perm(
    w: &mut BitWriter,
    b: &[i32; 64],
    prev_dc: i32,
    dc: &HuffEncoder,
    ac: &HuffEncoder,
    perm: &[usize; 64],
) -> Result<i32> {
    if !(crate::COEFF_MIN..=crate::COEFF_MAX).contains(&b[0]) {
        return Err(JpegError::CoefficientRange { value: b[0] });
    }
    // Branchless sweep first (it vectorizes, an early-exit loop does
    // not); only locate the offending value on the error path.
    let mut bad = false;
    for &v in &b[1..] {
        bad |= !(crate::AC_MIN..=crate::AC_MAX).contains(&v);
    }
    if bad {
        let value = *b[1..]
            .iter()
            .find(|v| !(crate::AC_MIN..=crate::AC_MAX).contains(v))
            .expect("sweep found an out-of-range value");
        return Err(JpegError::CoefficientRange { value });
    }
    let diff = b[0] - prev_dc;
    let cat = category(diff);
    dc.emit_with(w, cat as u8, magnitude_bits(diff, cat), cat)?;

    let mut run = 0u32;
    for &pi in &perm[1..] {
        let v = b[pi & 63];
        if v == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            ac.emit(w, 0xF0)?; // ZRL
            run -= 16;
        }
        let size = category(v);
        ac.emit_with(
            w,
            ((run as u8) << 4) | size as u8,
            magnitude_bits(v, size),
            size,
        )?;
        run = 0;
    }
    if run > 0 {
        ac.emit(w, 0x00)?; // EOB
    }
    Ok(b[0])
}

/// Tallies the symbols [`encode_block`] would emit, for optimized-table
/// construction. Returns the new DC predictor.
pub fn tally_block(freqs: &mut SymbolFreqs, zz: &[i32; 64], prev_dc: i32) -> i32 {
    tally_block_perm(freqs, zz, prev_dc, &IDENTITY)
}

/// [`tally_block`] for a row-major (natural) order block, the counterpart
/// of [`encode_block_natural`]. Returns the new DC predictor and the
/// block's zigzag nonzero mask, so the emission pass can reuse it via
/// [`encode_block_natural_masked`] instead of rescanning the block.
pub fn tally_block_natural_mask(
    freqs: &mut SymbolFreqs,
    block: &[i32; 64],
    prev_dc: i32,
) -> (i32, u64) {
    let diff = block[0] - prev_dc;
    freqs.dc[category(diff) as usize] += 1;
    // Same nonzero-bitmask walk as `encode_block_natural`.
    let zmask = zigzag_nonzero_mask(block);
    let mut mask = zmask & !1;
    let mut prev_k = 0u32;
    while mask != 0 {
        let k = mask.trailing_zeros();
        mask &= mask - 1;
        let mut run = k - prev_k - 1;
        while run >= 16 {
            freqs.ac[0xF0] += 1;
            run -= 16;
        }
        let v = block[crate::zigzag::ZIGZAG[k as usize & 63] & 63];
        freqs.ac[(((run as u8) << 4) | category(v) as u8) as usize] += 1;
        prev_k = k;
    }
    if prev_k != 63 {
        freqs.ac[0x00] += 1;
    }
    (block[0], zmask)
}

fn tally_block_perm(
    freqs: &mut SymbolFreqs,
    b: &[i32; 64],
    prev_dc: i32,
    perm: &[usize; 64],
) -> i32 {
    let diff = b[0] - prev_dc;
    freqs.dc[category(diff) as usize] += 1;
    let mut run = 0u32;
    for &pi in &perm[1..] {
        let v = b[pi & 63];
        if v == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            freqs.ac[0xF0] += 1;
            run -= 16;
        }
        freqs.ac[(((run as u8) << 4) | category(v) as u8) as usize] += 1;
        run = 0;
    }
    if run > 0 {
        freqs.ac[0x00] += 1;
    }
    b[0]
}

/// Decodes one zigzag-ordered block; inverse of [`encode_block`].
///
/// # Errors
/// Fails on malformed entropy data, and with
/// [`JpegError::CoefficientRange`] on a DC outside `[-1024, 1023]` or an
/// AC magnitude category of 11 or more.
pub fn decode_block(
    r: &mut BitReader<'_>,
    prev_dc: i32,
    dc: &HuffDecoder,
    ac: &HuffDecoder,
) -> Result<([i32; 64], i32)> {
    let mut zz = [0i32; 64];
    let p = decode_block_into(&mut zz, r, prev_dc, dc, ac)?;
    Ok((zz, p))
}

/// [`decode_block`] into a caller-owned scratch block, so a decode loop
/// performs no per-block allocation or copy-out. Returns the new DC
/// predictor.
///
/// # Errors
/// As [`decode_block`].
pub fn decode_block_into(
    zz: &mut [i32; 64],
    r: &mut BitReader<'_>,
    prev_dc: i32,
    dc: &HuffDecoder,
    ac: &HuffDecoder,
) -> Result<i32> {
    walk_block(Some((zz, &IDENTITY)), r, prev_dc, dc, ac)
}

/// [`decode_block_into`] writing each coefficient at its row-major
/// position — `from_zigzag` fused into the decode, so the scan loop needs
/// no per-block permutation copy. Returns the new DC predictor.
///
/// # Errors
/// As [`decode_block`].
pub fn decode_block_natural_into(
    out: &mut [i32; 64],
    r: &mut BitReader<'_>,
    prev_dc: i32,
    dc: &HuffDecoder,
    ac: &HuffDecoder,
) -> Result<i32> {
    walk_block(Some((out, &crate::zigzag::ZIGZAG)), r, prev_dc, dc, ac)
}

/// Decodes one block's DC and walks past its AC symbols and magnitude
/// bits without storing them: the DC-only mode of the scan decoder.
/// Returns the block's DC, which is also the new predictor. Accepts and
/// rejects exactly the streams [`decode_block`] does.
///
/// # Errors
/// As [`decode_block`].
pub fn decode_block_dc(
    r: &mut BitReader<'_>,
    prev_dc: i32,
    dc: &HuffDecoder,
    ac: &HuffDecoder,
) -> Result<i32> {
    walk_block(None, r, prev_dc, dc, ac)
}

/// The one block walk behind every block decoder: `out` is the destination
/// block and the scan-position → index permutation, or `None` to only
/// check and skip the coefficients.
#[inline(always)]
fn walk_block(
    mut out: Option<(&mut [i32; 64], &[usize; 64])>,
    r: &mut BitReader<'_>,
    prev_dc: i32,
    dc: &HuffDecoder,
    ac: &HuffDecoder,
) -> Result<i32> {
    let cat = dc.decode(r)? as u32;
    if cat > 12 {
        return Err(JpegError::Malformed(format!("DC category {cat} too large")));
    }
    let bits = r.bits(cat)?;
    let dc_value = prev_dc + extend_magnitude(bits, cat);
    if !(crate::COEFF_MIN..=crate::COEFF_MAX).contains(&dc_value) {
        return Err(JpegError::CoefficientRange { value: dc_value });
    }
    if let Some((blk, _)) = &mut out {
        blk.fill(0);
        blk[0] = dc_value;
    }

    let mut k = 1usize;
    while k < 64 {
        let sym = ac.decode(r)?;
        if sym == 0x00 {
            break; // EOB
        }
        let run = (sym >> 4) as usize;
        let size = (sym & 0x0F) as u32;
        if size == 0 {
            if sym == 0xF0 {
                k += 16;
                continue;
            }
            return Err(JpegError::Malformed(format!("bad AC symbol {sym:#04x}")));
        }
        k += run;
        if k >= 64 {
            return Err(JpegError::Malformed("AC run overflows block".into()));
        }
        let value = extend_magnitude(r.bits(size)?, size);
        // Category 11 and up decode to values the encoder cannot hold.
        if size > 10 {
            return Err(JpegError::CoefficientRange { value });
        }
        if let Some((blk, perm)) = &mut out {
            blk[perm[k] & 63] = value;
        }
        k += 1;
    }
    Ok(dc_value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwriter_stuffs_ff() {
        let mut w = BitWriter::new();
        w.put(0xFF, 8);
        w.put(0xAB, 8);
        assert_eq!(w.finish(), vec![0xFF, 0x00, 0xAB]);
    }

    #[test]
    fn bitwriter_pads_with_ones() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        assert_eq!(w.finish(), vec![0b1011_1111]);
    }

    #[test]
    fn bitreader_unstuffs() {
        let data = [0xFF, 0x00, 0x80];
        let mut r = BitReader::new(&data);
        assert_eq!(r.bits(8).unwrap(), 0xFF);
        assert_eq!(r.bit().unwrap(), 1);
    }

    #[test]
    fn bit_roundtrip_random_lengths() {
        let seqs: [(u32, u32); 7] = [
            (1, 1),
            (0, 3),
            (0b1010, 4),
            (0x7F, 7),
            (0x155, 9),
            (0, 0),
            (0xFFF, 12),
        ];
        let mut w = BitWriter::new();
        for &(v, l) in &seqs {
            w.put(v, l);
        }
        let data = w.finish();
        let mut r = BitReader::new(&data);
        for &(v, l) in &seqs {
            assert_eq!(r.bits(l).unwrap(), v);
        }
    }

    #[test]
    fn category_values() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(2), 2);
        assert_eq!(category(-3), 2);
        assert_eq!(category(1023), 10);
        assert_eq!(category(-1024), 11);
        assert_eq!(category(2047), 11);
    }

    #[test]
    fn magnitude_roundtrip() {
        for v in [-2047, -1024, -513, -1, 0, 1, 2, 777, 1023, 2047] {
            let len = category(v);
            let bits = magnitude_bits(v, len);
            assert_eq!(extend_magnitude(bits, len), v, "value {v}");
        }
    }

    #[test]
    fn standard_tables_are_canonical() {
        for t in [
            HuffTable::std_dc_luma(),
            HuffTable::std_dc_chroma(),
            HuffTable::std_ac_luma(),
            HuffTable::std_ac_chroma(),
        ] {
            let total: usize = t.counts().iter().map(|&c| c as usize).sum();
            assert_eq!(total, t.values().len());
        }
        // The AC tables carry the standard 162 symbols.
        assert_eq!(HuffTable::std_ac_luma().values().len(), 162);
        assert_eq!(HuffTable::std_ac_chroma().values().len(), 162);
    }

    #[test]
    fn encoder_decoder_roundtrip_symbols() {
        let table = HuffTable::std_ac_luma();
        let enc = HuffEncoder::new(&table);
        let dec = HuffDecoder::new(&table);
        let symbols: Vec<u8> = table.values().to_vec();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.emit(&mut w, s).unwrap();
        }
        let data = w.finish();
        let mut r = BitReader::new(&data);
        for &s in &symbols {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn block_roundtrip_standard_tables() {
        let dc_t = HuffTable::std_dc_luma();
        let ac_t = HuffTable::std_ac_luma();
        let enc_dc = HuffEncoder::new(&dc_t);
        let enc_ac = HuffEncoder::new(&ac_t);
        let dec_dc = HuffDecoder::new(&dc_t);
        let dec_ac = HuffDecoder::new(&ac_t);

        let mut zz = [0i32; 64];
        zz[0] = -300;
        zz[1] = 5;
        zz[5] = -1;
        zz[30] = 100;
        zz[63] = -1023; // extreme legal AC magnitude

        let mut w = BitWriter::new();
        let dc1 = encode_block(&mut w, &zz, 0, &enc_dc, &enc_ac).unwrap();
        let mut zz2 = [0i32; 64];
        zz2[0] = 12;
        encode_block(&mut w, &zz2, dc1, &enc_dc, &enc_ac).unwrap();
        let data = w.finish();

        let mut r = BitReader::new(&data);
        let (got1, pred) = decode_block(&mut r, 0, &dec_dc, &dec_ac).unwrap();
        let (got2, _) = decode_block(&mut r, pred, &dec_dc, &dec_ac).unwrap();
        assert_eq!(got1, zz);
        assert_eq!(got2, zz2);
    }

    #[test]
    fn out_of_range_coefficient_rejected() {
        let dc_t = HuffTable::std_dc_luma();
        let ac_t = HuffTable::std_ac_luma();
        let enc_dc = HuffEncoder::new(&dc_t);
        let enc_ac = HuffEncoder::new(&ac_t);
        let mut zz = [0i32; 64];
        zz[3] = 5000;
        let mut w = BitWriter::new();
        let err = encode_block(&mut w, &zz, 0, &enc_dc, &enc_ac).unwrap_err();
        assert!(matches!(err, JpegError::CoefficientRange { value: 5000 }));
    }

    #[test]
    fn optimized_table_roundtrip_and_shorter_codes() {
        // Skewed distribution: symbol 0x01 dominates.
        let mut freqs = [0u64; 256];
        freqs[0x01] = 10_000;
        freqs[0x02] = 100;
        freqs[0x11] = 50;
        freqs[0xF0] = 3;
        freqs[0x00] = 500;
        let table = HuffTable::build_optimized(&freqs);
        let enc = HuffEncoder::new(&table);
        let dec = HuffDecoder::new(&table);
        // Most frequent symbol gets the shortest code.
        assert!(enc.code_len(0x01) <= enc.code_len(0x02));
        assert!(enc.code_len(0x01) <= enc.code_len(0xF0));
        // Roundtrip.
        let mut w = BitWriter::new();
        for s in [0x01u8, 0x00, 0x02, 0x11, 0xF0, 0x01] {
            enc.emit(&mut w, s).unwrap();
        }
        let data = w.finish();
        let mut r = BitReader::new(&data);
        for s in [0x01u8, 0x00, 0x02, 0x11, 0xF0, 0x01] {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn optimized_table_handles_uniform_256_symbols() {
        let freqs = [7u64; 256];
        let table = HuffTable::build_optimized(&freqs);
        let total: usize = table.counts().iter().map(|&c| c as usize).sum();
        assert_eq!(total, 256);
        // All lengths within 16.
        let enc = HuffEncoder::new(&table);
        for s in 0..=255u8 {
            assert!(enc.code_len(s) >= 1 && enc.code_len(s) <= 16);
        }
    }

    #[test]
    fn optimized_table_single_symbol() {
        let mut freqs = [0u64; 256];
        freqs[0x42] = 1;
        let table = HuffTable::build_optimized(&freqs);
        let enc = HuffEncoder::new(&table);
        assert_eq!(enc.code_len(0x42), 1);
    }

    #[test]
    fn tally_matches_encode_symbols() {
        let mut zz = [0i32; 64];
        zz[0] = 50;
        zz[2] = -7;
        zz[40] = 3;
        let mut freqs = SymbolFreqs::new();
        tally_block(&mut freqs, &zz, 0);
        // DC category of 50 is 6.
        assert_eq!(freqs.dc[6], 1);
        // AC: run 1 size 3 (-7), then run to 40 => two ZRL + run 5 size 2, EOB.
        assert_eq!(freqs.ac[(1 << 4) | 3], 1);
        assert_eq!(freqs.ac[0xF0], 2);
        assert_eq!(freqs.ac[(5 << 4) | 2], 1);
        assert_eq!(freqs.ac[0x00], 1);
    }

    #[test]
    fn marker_in_entropy_data_is_error() {
        let data = [0xFF, 0xD9];
        let mut r = BitReader::new(&data);
        assert!(r.bits(8).is_err());
    }
}
