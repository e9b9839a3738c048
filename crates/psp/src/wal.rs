//! Write-ahead log for the persistent PSP store.
//!
//! Every state change the server acknowledges is appended here *before*
//! the acknowledgement goes out: records are length-framed, checksummed,
//! and fsync'd, so an upload the client saw succeed is recoverable after
//! any crash — including `kill -9` mid-write. The log is the whole store:
//! photo bitstreams and parameter blobs travel inside it as
//! [`WalRecord::Blob`] frames, so one acknowledged upload costs one
//! `write_all` and one `sync_data` (see [`crate::store_disk`]).
//!
//! # Record framing
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────────────┐
//! │ len: u32 LE│ crc: u64 LE │ payload (len bytes)  │
//! └────────────┴─────────────┴──────────────────────┘
//! ```
//!
//! The payload starts with a one-byte record tag; integers are
//! little-endian throughout. A `Blob` payload is `tag ‖ SHA-256 ‖ bytes`;
//! `Upload`/`Transform` records name their blobs by those SHA-256 hashes,
//! and a blob already in the log is never framed again. `crc` is FNV-1a 64
//! over the payload, except that a `Blob`'s covers only its tag and
//! SHA-256: every read re-checks the content against that SHA-256, which
//! the store computes anyway to deduplicate, so a second pass over each
//! blob would buy nothing. (`crc` stays FNV: it detects torn and flipped
//! frames, an accident, not an adversary — the SHA-256 is the
//! collision-resistant hash.)
//!
//! # Recovery invariants
//!
//! Replay ([`Wal::replay`]) streams records front to back, one frame in
//! memory at a time. A frame that is short, overlong, malformed, or fails
//! its checksum is a torn tail from a crash mid-write *only if no intact
//! frame follows it*: then the torn suffix is truncated (so the next
//! append extends a clean log) and everything before it has been
//! delivered in order. If an intact frame does follow, the damage is in
//! the middle of the log, and truncating would silently drop every later
//! acknowledged record — replay fails with [`io::ErrorKind::InvalidData`]
//! instead and touches nothing.

use crate::cache::fnv64;
use crate::sha256::sha256;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Frame header: `len: u32 ‖ crc: u64`.
const HEADER_LEN: usize = 12;

/// Bytes a `Blob` payload spends before its content: tag + SHA-256.
const BLOB_HEADER_LEN: usize = 1 + 32;

/// Upper bound on one record's payload: the largest payload the wire
/// accepts ([`crate::net::proto::MAX_FRAME_LEN`]) plus the largest fixed
/// part wrapped around one — a `GrantDeposit`'s tag, DH values and length
/// (37 bytes; a `Blob` header is 33) — so every blob and grant the server
/// takes fits in one frame. Anything bigger in the length field is torn or
/// corrupt framing, not data.
pub const MAX_RECORD_LEN: usize = crate::net::proto::MAX_FRAME_LEN + 1 + 16 + 16 + 4;

const TAG_UPLOAD: u8 = 0x01;
const TAG_TRANSFORM: u8 = 0x02;
const TAG_RECEIVER: u8 = 0x03;
const TAG_DEPOSIT: u8 = 0x04;
const TAG_DRAIN: u8 = 0x05;
const TAG_BLOB: u8 = 0x06;

/// One durable state change, or one photo blob the state changes refer
/// to. Photo payloads are referenced by SHA-256; mailbox payloads are
/// inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A photo was uploaded: `id` now maps to the blobs with these
    /// content hashes.
    Upload {
        /// Photo id the server assigned.
        id: u64,
        /// SHA-256 of the image bitstream blob.
        bytes_sha: [u8; 32],
        /// SHA-256 of the public-parameter blob.
        params_sha: [u8; 32],
    },
    /// A photo was transformed in place: `id` now maps to the new blobs.
    Transform {
        /// Photo id that was rewritten.
        id: u64,
        /// SHA-256 of the replacement bitstream blob.
        bytes_sha: [u8; 32],
        /// SHA-256 of the replacement parameter blob.
        params_sha: [u8; 32],
    },
    /// A receiver registered: `token` authenticates fetches of the
    /// mailbox addressed to `dh_public`.
    Receiver {
        /// The receiver's Diffie–Hellman public value.
        dh_public: u128,
        /// The bearer token the server issued (32 ASCII hex chars).
        token: [u8; 32],
    },
    /// A sender deposited an encrypted grant for a receiver.
    GrantDeposit {
        /// Mailbox address (the receiver's DH public value).
        receiver: u128,
        /// The sender's DH public value (the receiver needs it to agree).
        sender: u128,
        /// The end-to-end-encrypted grant — opaque to the PSP.
        ciphertext: Vec<u8>,
    },
    /// A receiver drained its mailbox (fetched-and-removed semantics).
    GrantDrain {
        /// Mailbox address that was emptied.
        receiver: u128,
    },
    /// Photo content (a bitstream or a parameter blob), logged once per
    /// distinct SHA-256 ahead of the first record that names it. Not a
    /// state change on its own.
    Blob {
        /// SHA-256 of `bytes`; every read re-checks it.
        sha: [u8; 32],
        /// The blob.
        bytes: Vec<u8>,
    },
}

impl WalRecord {
    /// Serializes the payload (tag + fields, no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Upload {
                id,
                bytes_sha,
                params_sha,
            }
            | WalRecord::Transform {
                id,
                bytes_sha,
                params_sha,
            } => {
                let tag = match self {
                    WalRecord::Upload { .. } => TAG_UPLOAD,
                    _ => TAG_TRANSFORM,
                };
                out.push(tag);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(bytes_sha);
                out.extend_from_slice(params_sha);
            }
            WalRecord::Receiver { dh_public, token } => {
                out.push(TAG_RECEIVER);
                out.extend_from_slice(&dh_public.to_le_bytes());
                out.extend_from_slice(token);
            }
            WalRecord::GrantDeposit {
                receiver,
                sender,
                ciphertext,
            } => {
                out.push(TAG_DEPOSIT);
                out.extend_from_slice(&receiver.to_le_bytes());
                out.extend_from_slice(&sender.to_le_bytes());
                out.extend_from_slice(&(ciphertext.len() as u32).to_le_bytes());
                out.extend_from_slice(ciphertext);
            }
            WalRecord::GrantDrain { receiver } => {
                out.push(TAG_DRAIN);
                out.extend_from_slice(&receiver.to_le_bytes());
            }
            WalRecord::Blob { sha, bytes } => encode_blob(out, sha, bytes),
        }
    }

    /// Parses a payload produced by [`WalRecord::encode`]. Returns `None`
    /// on any structural mismatch (unknown tag, wrong length) — replay
    /// treats that exactly like a checksum failure.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        if payload.first() == Some(&TAG_BLOB) {
            return WalRecord::decode_owned(payload.to_vec());
        }
        if !well_formed(payload) {
            return None;
        }
        let (&tag, rest) = payload.split_first()?;
        let u64_at = |at: usize| -> Option<u64> {
            Some(u64::from_le_bytes(rest.get(at..at + 8)?.try_into().ok()?))
        };
        let u128_at = |at: usize| -> Option<u128> {
            Some(u128::from_le_bytes(rest.get(at..at + 16)?.try_into().ok()?))
        };
        let sha_at = |at: usize| -> Option<[u8; 32]> { rest.get(at..at + 32)?.try_into().ok() };
        Some(match tag {
            TAG_UPLOAD => WalRecord::Upload {
                id: u64_at(0)?,
                bytes_sha: sha_at(8)?,
                params_sha: sha_at(40)?,
            },
            TAG_TRANSFORM => WalRecord::Transform {
                id: u64_at(0)?,
                bytes_sha: sha_at(8)?,
                params_sha: sha_at(40)?,
            },
            TAG_RECEIVER => WalRecord::Receiver {
                dh_public: u128_at(0)?,
                token: sha_at(16)?,
            },
            TAG_DEPOSIT => WalRecord::GrantDeposit {
                receiver: u128_at(0)?,
                sender: u128_at(16)?,
                ciphertext: rest[36..].to_vec(),
            },
            TAG_DRAIN => WalRecord::GrantDrain {
                receiver: u128_at(0)?,
            },
            _ => return None,
        })
    }

    /// [`WalRecord::decode`] that moves a `Blob`'s content out of the
    /// payload buffer instead of copying it.
    fn decode_owned(mut payload: Vec<u8>) -> Option<WalRecord> {
        if payload.first() != Some(&TAG_BLOB) {
            return WalRecord::decode(&payload);
        }
        if !well_formed(&payload) {
            return None;
        }
        let sha = payload[1..BLOB_HEADER_LEN].try_into().ok()?;
        payload.drain(..BLOB_HEADER_LEN);
        Some(WalRecord::Blob {
            sha,
            bytes: payload,
        })
    }

    /// Frames the record for appending: `len ‖ crc ‖ payload`.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        frame_into(&mut frame, |out| self.encode_into(out));
        frame
    }
}

fn encode_blob(out: &mut Vec<u8>, sha: &[u8; 32], bytes: &[u8]) {
    out.push(TAG_BLOB);
    out.extend_from_slice(sha);
    out.extend_from_slice(bytes);
}

/// Appends one frame to `out`, the payload written in place by `payload`
/// (so a blob is copied exactly once, into its frame).
fn frame_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    payload(out);
    let body = &out[start + HEADER_LEN..];
    debug_assert!(body.len() <= MAX_RECORD_LEN, "callers cap payloads");
    let len = (body.len() as u32).to_le_bytes();
    let crc = checksum(body).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + HEADER_LEN].copy_from_slice(&crc);
}

/// The frame checksum: FNV-1a 64 over the payload, or over a `Blob`'s
/// tag and SHA-256 (its content is checked against the SHA-256).
fn checksum(payload: &[u8]) -> u64 {
    if payload.first() == Some(&TAG_BLOB) {
        fnv64(&payload[..BLOB_HEADER_LEN.min(payload.len())])
    } else {
        fnv64(payload)
    }
}

/// Whether a payload read back with checksum `crc` is an intact record:
/// the shape its tag demands, then the checksum, then a blob's SHA-256 —
/// cheapest first, so the post-corruption search hashes only plausible
/// candidates.
fn intact(payload: &[u8], crc: u64) -> bool {
    well_formed(payload)
        && checksum(payload) == crc
        && (payload[0] != TAG_BLOB
            || sha256(&payload[BLOB_HEADER_LEN..])[..] == payload[1..BLOB_HEADER_LEN])
}

/// Whether a payload has the exact shape its tag demands.
fn well_formed(payload: &[u8]) -> bool {
    let Some((&tag, rest)) = payload.split_first() else {
        return false;
    };
    match tag {
        TAG_UPLOAD | TAG_TRANSFORM => rest.len() == 72,
        TAG_RECEIVER => rest.len() == 48,
        TAG_DEPOSIT => {
            rest.len() >= 36
                && u32::from_le_bytes(rest[32..36].try_into().expect("sliced")) as usize
                    == rest.len() - 36
        }
        TAG_DRAIN => rest.len() == 16,
        TAG_BLOB => payload.len() >= BLOB_HEADER_LEN,
        _ => false,
    }
}

/// Frames that go to the log together: one `write_all`, one sync
/// ([`Wal::commit`]). A crash tears at most the batch in flight.
#[derive(Debug, Default)]
pub struct Batch {
    buf: Vec<u8>,
}

impl Batch {
    /// An empty batch with room for `bytes` of frames.
    pub fn with_capacity(bytes: usize) -> Batch {
        Batch {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Frame size of a `Blob` holding `len` content bytes.
    pub fn blob_frame_len(len: usize) -> usize {
        HEADER_LEN + BLOB_HEADER_LEN + len
    }

    /// Frames a [`WalRecord::Blob`] straight from borrowed content;
    /// `sha` must be its SHA-256 (the caller has it already, to dedup).
    pub fn blob(&mut self, sha: &[u8; 32], bytes: &[u8]) {
        debug_assert!(sha256(bytes) == *sha, "blob framed under a wrong hash");
        frame_into(&mut self.buf, |out| encode_blob(out, sha, bytes));
    }

    /// Frames one record.
    pub fn record(&mut self, record: &WalRecord) {
        frame_into(&mut self.buf, |out| record.encode_into(out));
    }
}

/// What reading a log found at its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// Offset where the intact prefix ends.
    pub clean_len: u64,
    /// Bytes of torn tail after it (0 for a clean log).
    pub torn_bytes: u64,
}

/// An append-only write-ahead log over one file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// Length of the intact log; a failed commit is cut back to it, so a
    /// half-written batch never sits in front of later records.
    len: u64,
    /// `false` trades durability for speed (tests and in-process benches);
    /// the serve binary always runs with fsync on.
    fsync: bool,
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending. Call
    /// [`Wal::replay`] first — it truncates any torn tail, which keeps
    /// appends off a corrupt suffix.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(path: &Path, fsync: bool) -> io::Result<Wal> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        Ok(Wal { file, len, fsync })
    }

    /// Appends one record; returns once it is durable. See
    /// [`Wal::commit`].
    ///
    /// # Errors
    /// As [`Wal::commit`].
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let mut batch = Batch::default();
        batch.record(record);
        self.commit(&batch)
    }

    /// Appends a batch of frames with one `write_all` and, when fsync is
    /// on, one `sync_data`; returns once they are durable. The caller must
    /// hold whatever lock serializes appends, so a crash can tear at most
    /// the final batch.
    ///
    /// # Errors
    /// Propagates filesystem errors; the batch must be considered *not*
    /// acknowledged if this fails. The log is cut back to its last intact
    /// length first (best effort).
    pub fn commit(&mut self, batch: &Batch) -> io::Result<()> {
        let written = self.file.write_all(&batch.buf).and_then(|()| {
            if self.fsync {
                self.file.sync_data()
            } else {
                Ok(())
            }
        });
        match written {
            Ok(()) => {
                self.len += batch.buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                let _ = self.file.set_len(self.len);
                Err(e)
            }
        }
    }

    /// Forces any buffered state to disk (used at graceful shutdown even
    /// when per-append fsync is off).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Streams every intact record of the log at `path` to `visit`, in
    /// order, then truncates a torn tail in place. Returns the number of
    /// torn bytes removed. Missing file ⇒ nothing to visit.
    ///
    /// # Errors
    /// Propagates filesystem errors and `visit`'s errors, and fails with
    /// [`io::ErrorKind::InvalidData`] when a bad frame has an intact one
    /// after it (mid-log corruption; the file is left as it is).
    pub fn replay(path: &Path, visit: impl FnMut(WalRecord) -> io::Result<()>) -> io::Result<u64> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let tail = read_log(file, visit)?;
        if tail.torn_bytes > 0 {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(tail.clean_len)?;
            f.sync_data()?;
        }
        Ok(tail.torn_bytes)
    }
}

/// Streams every intact record of a log image to `visit`, in order,
/// holding one frame in memory at a time. Read-only: it reports a torn
/// tail and leaves the caller to truncate it.
///
/// # Errors
/// As [`Wal::replay`].
pub fn read_log<R: Read + Seek>(
    mut src: R,
    mut visit: impl FnMut(WalRecord) -> io::Result<()>,
) -> io::Result<Tail> {
    let end = src.seek(SeekFrom::End(0))?;
    src.seek(SeekFrom::Start(0))?;
    let mut src = BufReader::with_capacity(1 << 16, src);
    let mut pos = 0u64;
    while pos < end {
        match read_frame(&mut src, end - pos)? {
            Some((record, frame_len)) => {
                visit(record)?;
                pos += frame_len;
            }
            None => {
                if let Some(at) = intact_frame_after(&mut src, pos + 1, end)? {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "wal corrupt: bad frame at byte {pos} with an intact frame at byte \
                             {at} after it; refusing to truncate acknowledged records"
                        ),
                    ));
                }
                break;
            }
        }
    }
    Ok(Tail {
        clean_len: pos,
        torn_bytes: end - pos,
    })
}

/// Reads the frame at the reader's position, `left` bytes before the end
/// of the log. `None` means a bad frame (the reader's position is then
/// unspecified).
fn read_frame(src: &mut impl Read, left: u64) -> io::Result<Option<(WalRecord, u64)>> {
    if left < HEADER_LEN as u64 {
        return Ok(None);
    }
    let mut header = [0u8; HEADER_LEN];
    src.read_exact(&mut header)?;
    let (len, crc) = parse_header(&header);
    if len > MAX_RECORD_LEN || len as u64 > left - HEADER_LEN as u64 {
        return Ok(None);
    }
    let mut payload = vec![0u8; len];
    src.read_exact(&mut payload)?;
    if !intact(&payload, crc) {
        return Ok(None);
    }
    let frame_len = (HEADER_LEN + len) as u64;
    Ok(WalRecord::decode_owned(payload).map(|r| (r, frame_len)))
}

fn parse_header(header: &[u8]) -> (usize, u64) {
    let len = u32::from_le_bytes(header[..4].try_into().expect("sliced")) as usize;
    let crc = u64::from_le_bytes(header[4..HEADER_LEN].try_into().expect("sliced"));
    (len, crc)
}

/// Whether `data` starts with an intact frame.
fn intact_at(data: &[u8]) -> bool {
    let Some(header) = data.get(..HEADER_LEN) else {
        return false;
    };
    let (len, crc) = parse_header(header);
    if len > MAX_RECORD_LEN {
        return false;
    }
    match data.get(HEADER_LEN..HEADER_LEN + len) {
        Some(payload) => intact(payload, crc),
        None => false,
    }
}

/// The first offset in `[from, end)` where an intact frame starts, if
/// any. Searches a window of two maximal frames at a time, so memory
/// stays bounded however far the search runs.
fn intact_frame_after<R: Read + Seek>(src: &mut R, from: u64, end: u64) -> io::Result<Option<u64>> {
    const WINDOW: usize = 2 * (HEADER_LEN + MAX_RECORD_LEN);
    let mut buf = Vec::new();
    let mut start = from;
    while start < end {
        src.seek(SeekFrom::Start(start))?;
        buf.clear();
        src.by_ref().take(WINDOW as u64).read_to_end(&mut buf)?;
        // Any frame starting in the first half fits in the window; past
        // the end of the log, every remaining offset is in it.
        let candidates = if start + buf.len() as u64 >= end {
            buf.len()
        } else {
            WINDOW / 2
        };
        if let Some(i) = (0..candidates).find(|&i| intact_at(&buf[i..])) {
            return Ok(Some(start + i as u64));
        }
        start += candidates as u64;
    }
    Ok(None)
}

/// Reads a whole in-memory log image: every intact record and the offset
/// where the clean prefix ends. The pure form of [`read_log`], for the
/// property suite.
///
/// # Errors
/// Fails like [`Wal::replay`] on mid-log corruption.
pub fn scan(data: &[u8]) -> io::Result<(Vec<WalRecord>, u64)> {
    let mut records = Vec::new();
    let tail = read_log(io::Cursor::new(data), |r| {
        records.push(r);
        Ok(())
    })?;
    Ok((records, tail.clean_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(bytes: Vec<u8>) -> WalRecord {
        WalRecord::Blob {
            sha: sha256(&bytes),
            bytes,
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            blob(vec![1, 2, 3, 4, 5]),
            WalRecord::Upload {
                id: 0,
                bytes_sha: [0xAD; 32],
                params_sha: [0xEF; 32],
            },
            WalRecord::Receiver {
                dh_public: 42,
                token: *b"0123456789abcdef0123456789abcdef",
            },
            WalRecord::GrantDeposit {
                receiver: 42,
                sender: 77,
                ciphertext: vec![9u8; 300],
            },
            WalRecord::Transform {
                id: 0,
                bytes_sha: [0xCA; 32],
                params_sha: [0x0D; 32],
            },
            WalRecord::GrantDrain { receiver: 42 },
        ]
    }

    fn image(recs: &[WalRecord]) -> Vec<u8> {
        recs.iter().flat_map(WalRecord::to_frame).collect()
    }

    #[test]
    fn record_roundtrip() {
        for r in sample_records() {
            assert_eq!(WalRecord::decode(&r.encode()).as_ref(), Some(&r));
        }
    }

    #[test]
    fn batch_frames_match_record_frames() {
        let mut batch = Batch::default();
        batch.blob(&sha256(b"content"), b"content");
        batch.record(&sample_records()[1]);
        let framed = image(&[blob(b"content".to_vec()), sample_records()[1].clone()]);
        assert_eq!(batch.buf, framed);
        assert_eq!(
            batch.buf.len() - sample_records()[1].to_frame().len(),
            Batch::blob_frame_len(7)
        );
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(WalRecord::decode(&[]).is_none());
        assert!(WalRecord::decode(&[0xFF, 1, 2]).is_none(), "unknown tag");
        let mut enc = sample_records()[1].encode();
        enc.pop();
        assert!(WalRecord::decode(&enc).is_none(), "short upload");
        let mut enc = sample_records()[3].encode();
        enc.push(0);
        assert!(WalRecord::decode(&enc).is_none(), "overlong deposit");
        assert!(WalRecord::decode(&[TAG_BLOB; 32]).is_none(), "short blob");
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let recs = sample_records();
        let mut image = image(&recs);
        let clean_len = image.len() as u64;
        // Clean image: all records, no truncation.
        let (got, good) = scan(&image).unwrap();
        assert_eq!(got, recs);
        assert_eq!(good, clean_len);
        // Append half a frame: the tail is ignored, prefix intact.
        let extra = recs[0].to_frame();
        image.extend_from_slice(&extra[..extra.len() / 2]);
        let (got, good) = scan(&image).unwrap();
        assert_eq!(got, recs);
        assert_eq!(good, clean_len);
    }

    #[test]
    fn scan_treats_a_bad_final_frame_as_torn() {
        let recs = sample_records();
        let mut image = image(&recs);
        let last = image.len() - recs.last().unwrap().to_frame().len();
        image[last + HEADER_LEN] ^= 0x40;
        let (got, good) = scan(&image).unwrap();
        assert_eq!(got, recs[..recs.len() - 1]);
        assert_eq!(good, last as u64);
    }

    #[test]
    fn scan_refuses_a_bad_frame_before_intact_ones() {
        let recs = sample_records();
        let mut image = image(&recs);
        // Flip one payload byte in the middle record.
        let third_start = recs[0].to_frame().len() + recs[1].to_frame().len();
        image[third_start + HEADER_LEN] ^= 0x40;
        let err = scan(&image).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&format!("byte {third_start}")));
    }

    #[test]
    fn a_blob_is_checked_against_its_sha256() {
        let recs = sample_records();
        let mut image = image(&recs);
        // The checksum leaves blob content to the SHA-256: a flipped
        // content byte is still caught, and intact frames follow it.
        image[HEADER_LEN + 33 + 2] ^= 0x01;
        assert!(scan(&image).is_err());
        // The same flip in a final blob is a torn tail.
        let lone = recs[0].to_frame();
        let mut image = lone.clone();
        image[HEADER_LEN + 33 + 2] ^= 0x01;
        assert_eq!(scan(&image).unwrap(), (vec![], 0));
    }

    #[test]
    fn scan_rejects_absurd_length_field() {
        let mut image = sample_records()[1].to_frame();
        image.extend_from_slice(&u32::MAX.to_le_bytes());
        image.extend_from_slice(&[0u8; 8]);
        let (got, good) = scan(&image).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(good, sample_records()[1].to_frame().len() as u64);
    }

    #[test]
    fn search_finds_a_frame_past_the_first_window() {
        // Garbage longer than one search window, then an intact frame.
        let mut image = vec![0xEE; HEADER_LEN + MAX_RECORD_LEN + 1000];
        image.extend_from_slice(&sample_records()[5].to_frame());
        assert!(scan(&image).is_err());
    }

    #[test]
    fn a_blob_at_the_size_cap_fits_one_frame() {
        let record = blob(vec![0x5A; crate::net::proto::MAX_FRAME_LEN]);
        let (got, _) = scan(&record.to_frame()).unwrap();
        assert_eq!(got, vec![record]);
    }

    #[test]
    fn file_replay_truncates_torn_tail_in_place() {
        let dir = std::env::temp_dir().join(format!("puppies_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.wal");
        let _ = std::fs::remove_file(&path);
        let replay = |path: &Path| {
            let mut records = Vec::new();
            let torn = Wal::replay(path, |r| {
                records.push(r);
                Ok(())
            })
            .unwrap();
            (records, torn)
        };
        {
            let mut wal = Wal::open(&path, false).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x11, 0x22, 0x33]).unwrap();
        }
        let (records, torn) = replay(&path);
        assert_eq!(records, sample_records());
        assert_eq!(torn, 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // A further append then replays cleanly.
        {
            let mut wal = Wal::open(&path, false).unwrap();
            wal.append(&WalRecord::GrantDrain { receiver: 1 }).unwrap();
        }
        let (records, torn) = replay(&path);
        assert_eq!(records.len(), sample_records().len() + 1);
        assert_eq!(torn, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let path = std::env::temp_dir().join("puppies_wal_never_exists.wal");
        let _ = std::fs::remove_file(&path);
        let torn = Wal::replay(&path, |_| panic!("no records")).unwrap();
        assert_eq!(torn, 0);
    }
}
