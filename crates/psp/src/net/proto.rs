//! Binary body framing and the `Transformation` wire decode.
//!
//! Every multi-part body is a sequence of `[u32 LE length][payload]`
//! frames; fixed-width fields (photo ids, DH publics) are raw
//! little-endian. Transformations travel as their frozen
//! [`Transformation::canonical_bytes`] encoding — already injective and
//! stable by contract — so this module only has to supply the decoder.

use puppies_image::{Rect, Rgb};
use puppies_transform::{FilterOp, ScaleFilter, Transformation};

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

/// Decodes a bitstream+params pair, rejecting trailing garbage.
pub fn decode_pair(data: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut pos = 0;
    let bytes = take_frame(data, &mut pos)?.to_vec();
    let params = take_frame(data, &mut pos)?.to_vec();
    (pos == data.len()).then_some((bytes, params))
}

fn le_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(data.get(*pos..*pos + 4)?.try_into().unwrap());
    *pos += 4;
    Some(v)
}

fn rect(data: &[u8], pos: &mut usize) -> Option<Rect> {
    let x = le_u32(data, pos)?;
    let y = le_u32(data, pos)?;
    let w = le_u32(data, pos)?;
    let h = le_u32(data, pos)?;
    Some(Rect::new(x, y, w, h))
}

/// Decodes a [`Transformation::canonical_bytes`] encoding. Returns `None`
/// on unknown tags, truncation, or trailing bytes — the decoder is exact:
/// `decode(t.canonical_bytes()) == Some(t)` and nothing else parses.
pub fn decode_transformation(data: &[u8]) -> Option<Transformation> {
    let mut pos = 1;
    let t = match *data.first()? {
        0x01 => {
            let width = le_u32(data, &mut pos)?;
            let height = le_u32(data, &mut pos)?;
            let filter = match *data.get(pos)? {
                0 => ScaleFilter::Nearest,
                1 => ScaleFilter::Bilinear,
                2 => ScaleFilter::Box,
                _ => return None,
            };
            pos += 1;
            Transformation::Scale {
                width,
                height,
                filter,
            }
        }
        0x02 => Transformation::Crop(rect(data, &mut pos)?),
        0x03 => Transformation::Rotate90,
        0x04 => Transformation::Rotate180,
        0x05 => Transformation::Rotate270,
        0x06 => Transformation::FlipHorizontal,
        0x07 => Transformation::FlipVertical,
        0x08 => {
            let quality = *data.get(pos)?;
            pos += 1;
            Transformation::Recompress { quality }
        }
        0x09 => {
            let kind = *data.get(pos)?;
            pos += 1;
            let op = match kind {
                0 => FilterOp::Gaussian {
                    sigma: f32::from_bits(le_u32(data, &mut pos)?),
                },
                1 => FilterOp::Sharpen,
                2 => FilterOp::Box {
                    side: le_u32(data, &mut pos)?,
                },
                _ => return None,
            };
            Transformation::Filter(op)
        }
        0x0a => {
            let r = rect(data, &mut pos)?;
            let [cr, cg, cb]: [u8; 3] = data.get(pos..pos + 3)?.try_into().unwrap();
            pos += 3;
            let alpha = f32::from_bits(le_u32(data, &mut pos)?);
            Transformation::Overlay {
                rect: r,
                color: Rgb::new(cr, cg, cb),
                alpha,
            }
        }
        _ => return None,
    };
    (pos == data.len()).then_some(t)
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
        assert_eq!(decode_pair(&enc), Some((vec![1, 2, 3], vec![9])));
        let mut noisy = enc.clone();
        noisy.push(0);
        assert_eq!(decode_pair(&noisy), None);
        assert_eq!(decode_pair(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn transformation_decode_inverts_canonical_bytes() {
        let all = [
            Transformation::Scale {
                width: 640,
                height: 480,
                filter: ScaleFilter::Box,
            },
            Transformation::Crop(Rect::new(8, 16, 100, 50)),
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Rotate270,
            Transformation::FlipHorizontal,
            Transformation::FlipVertical,
            Transformation::Recompress { quality: 75 },
            Transformation::Filter(FilterOp::Gaussian { sigma: 1.5 }),
            Transformation::Filter(FilterOp::Sharpen),
            Transformation::Filter(FilterOp::Box { side: 5 }),
            Transformation::Overlay {
                rect: Rect::new(0, 0, 10, 10),
                color: Rgb::new(255, 0, 128),
                alpha: 0.5,
            },
        ];
        for t in all {
            assert_eq!(decode_transformation(&t.canonical_bytes()), Some(t));
        }
    }

    #[test]
    fn transformation_decode_rejects_junk() {
        assert_eq!(decode_transformation(&[]), None);
        assert_eq!(decode_transformation(&[0x00]), None);
        assert_eq!(decode_transformation(&[0xff, 1, 2]), None);
        // Truncated scale.
        assert_eq!(decode_transformation(&[0x01, 0, 0]), None);
        // Rotate with trailing bytes.
        assert_eq!(decode_transformation(&[0x03, 0]), None);
        // Bad scale filter discriminant.
        let mut bad = Transformation::Scale {
            width: 1,
            height: 1,
            filter: ScaleFilter::Nearest,
        }
        .canonical_bytes();
        *bad.last_mut().unwrap() = 9;
        assert_eq!(decode_transformation(&bad), None);
    }

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(unhex(&hex(&bytes)), Some(bytes));
        assert_eq!(unhex("0g"), None);
        assert_eq!(unhex("abc"), None);
    }
}
