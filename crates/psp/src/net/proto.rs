//! Binary body framing.
//!
//! Every multi-part body is a sequence of `[u32 LE length][payload]`
//! frames; fixed-width fields (photo ids, DH publics) are raw
//! little-endian. A transformation travels as its one encoding,
//! [`puppies_transform::Transformation::to_bytes`].

/// Hard cap on any framed payload accepted off the wire (4 MiB). The
/// WAL's record cap ([`crate::wal::MAX_RECORD_LEN`]) is this plus a blob
/// frame's header, so every blob the wire accepts fits one WAL frame.
pub const MAX_FRAME_LEN: usize = 1 << 22;

/// Appends one `[u32 LE len][payload]` frame.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reads one frame from `data` at `*pos`, advancing past it. Returns
/// `None` on truncation or an over-cap length.
pub fn take_frame<'a>(data: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len_bytes = data.get(*pos..*pos + 4)?;
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return None;
    }
    let payload = data.get(*pos + 4..*pos + 4 + len)?;
    *pos += 4 + len;
    Some(payload)
}

/// Encodes an upload / transformed-download body: framed bitstream then
/// framed public params.
pub fn encode_pair(bytes: &[u8], params: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + bytes.len() + params.len());
    put_frame(&mut out, bytes);
    put_frame(&mut out, params);
    out
}

/// Decodes a bitstream+params pair, rejecting trailing garbage. Borrows
/// both frames from `data`; a caller that keeps them copies them.
pub fn decode_pair(data: &[u8]) -> Option<(&[u8], &[u8])> {
    let mut pos = 0;
    let bytes = take_frame(data, &mut pos)?;
    let params = take_frame(data, &mut pos)?;
    (pos == data.len()).then_some((bytes, params))
}

/// Lowercase hex of arbitrary bytes (token wire form).
pub fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Inverse of [`hex`]; `None` on odd length or non-hex characters.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_roundtrip_and_trailing_garbage_rejected() {
        let enc = encode_pair(&[1, 2, 3], &[9]);
        assert_eq!(decode_pair(&enc), Some((&[1, 2, 3][..], &[9][..])));
        let mut noisy = enc.clone();
        noisy.push(0);
        assert_eq!(decode_pair(&noisy), None);
        assert_eq!(decode_pair(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(unhex(&hex(&bytes)), Some(bytes));
        assert_eq!(unhex("0g"), None);
        assert_eq!(unhex("abc"), None);
    }
}
