//! Public parameters stored on the PSP next to the perturbed image.
//!
//! §IV-B: "parameters R, mR and K are public, and are stored together with
//! the perturbed image"; PuPPIeS-Z adds the new-zero index `ZInd`, and our
//! shadow extension adds the wrap index `WInd` (see [`crate::perturb`]).
//! The receiver additionally needs the id of the private matrix used per
//! region and (scenario 2) the transformation the PSP applied. None of
//! this is secret — leaking `ZInd` "does not break users' privacy"
//! (§IV-B.4).
//!
//! A compact binary encoding is provided so the storage-overhead
//! experiments (Fig. 18) measure real bytes rather than debug formats.

use crate::perturb::{PerturbProfile, RangeSpec, Scheme, ZeroEntry, ZeroIndex};
use crate::{PuppiesError, Result};
use puppies_image::Rect;
use puppies_transform::Transformation;
/// Per-ROI public parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RoiParams {
    /// Index of the region in the image's ROI plan (keys reference it).
    pub index: u16,
    /// The block-aligned region.
    pub rect: Rect,
    /// Scheme, AC ranges and DC range used for this region.
    pub profile: PerturbProfile,
    /// New-zero index (only non-empty for PuPPIeS-Z).
    pub zind: ZeroIndex,
    /// Wrap index for shadow reconstruction (extension).
    pub wind: ZeroIndex,
}

impl RoiParams {
    /// The privacy range matrix this region was perturbed with.
    pub fn range_matrix(&self) -> crate::matrix::RangeMatrix {
        self.profile.range_matrix()
    }
}

/// Public parameters for one protected image.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicParams {
    /// Sender-chosen image identifier (scopes matrix ids).
    pub image_id: u64,
    /// Original image width (receivers need it to mirror transformations).
    pub width: u32,
    /// Original image height.
    pub height: u32,
    /// JPEG quality the image was encoded at.
    pub quality: u8,
    /// Per-region parameters.
    pub rois: Vec<RoiParams>,
    /// The transformation the PSP applied after upload, if any
    /// (scenario 2 of §III-C; the PSP records it for receivers).
    pub transformation: Option<Transformation>,
}

impl PublicParams {
    /// Creates parameters with no transformation applied.
    pub fn new(image_id: u64, width: u32, height: u32, quality: u8, rois: Vec<RoiParams>) -> Self {
        PublicParams {
            image_id,
            width,
            height,
            quality,
            rois,
            transformation: None,
        }
    }

    /// Serializes to the compact binary wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u32(MAGIC);
        w.u64(self.image_id);
        w.u32(self.width);
        w.u32(self.height);
        w.u8(self.quality);
        w.u16(self.rois.len() as u16);
        for roi in &self.rois {
            w.u16(roi.index);
            w.u32(roi.rect.x);
            w.u32(roi.rect.y);
            w.u32(roi.rect.w);
            w.u32(roi.rect.h);
            w.u8(match roi.profile.scheme {
                Scheme::Naive => 0,
                Scheme::Base => 1,
                Scheme::Compression => 2,
                Scheme::Zero => 3,
            });
            match roi.profile.range {
                RangeSpec::Algorithm3 { m_r, k } => {
                    w.u8(0);
                    w.u16(m_r);
                    w.u8(k);
                }
                RangeSpec::Flat { range, k } => {
                    w.u8(1);
                    w.u16(range);
                    w.u8(k);
                }
            }
            w.u16(roi.profile.dc_range);
            write_index(&mut w, &roi.zind);
            write_index(&mut w, &roi.wind);
        }
        match &self.transformation {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                let body = t.to_bytes();
                w.u16(body.len() as u16);
                w.bytes(&body);
            }
        }
        w.out
    }

    /// Parses the compact binary wire form.
    ///
    /// # Errors
    /// Returns [`PuppiesError::BadParams`] on truncation or bad tags.
    pub fn from_bytes(data: &[u8]) -> Result<PublicParams> {
        let mut r = Reader { data, pos: 0 };
        if r.u32()? != MAGIC {
            return Err(PuppiesError::BadParams("bad magic".into()));
        }
        let image_id = r.u64()?;
        let width = r.u32()?;
        let height = r.u32()?;
        let quality = r.u8()?;
        let nrois = r.u16()? as usize;
        let mut rois = Vec::with_capacity(nrois.min(1024));
        for _ in 0..nrois {
            let index = r.u16()?;
            let rect = Rect::new(r.u32()?, r.u32()?, r.u32()?, r.u32()?);
            let scheme = match r.u8()? {
                0 => Scheme::Naive,
                1 => Scheme::Base,
                2 => Scheme::Compression,
                3 => Scheme::Zero,
                other => return Err(PuppiesError::BadParams(format!("bad scheme tag {other}"))),
            };
            let range = match r.u8()? {
                0 => RangeSpec::Algorithm3 {
                    m_r: r.u16()?,
                    k: r.u8()?,
                },
                1 => RangeSpec::Flat {
                    range: r.u16()?,
                    k: r.u8()?,
                },
                other => return Err(PuppiesError::BadParams(format!("bad range tag {other}"))),
            };
            let dc_range = r.u16()?;
            let zind = read_index(&mut r)?;
            let wind = read_index(&mut r)?;
            rois.push(RoiParams {
                index,
                rect,
                profile: PerturbProfile {
                    scheme,
                    range,
                    dc_range,
                },
                zind,
                wind,
            });
        }
        let transformation = match r.u8()? {
            0 => None,
            1 => {
                let len = r.u16()? as usize;
                let body = r.slice(len)?;
                Some(
                    Transformation::from_bytes(body)
                        .map_err(|e| PuppiesError::BadParams(e.to_string()))?,
                )
            }
            other => {
                return Err(PuppiesError::BadParams(format!(
                    "bad transform tag {other}"
                )))
            }
        };
        Ok(PublicParams {
            image_id,
            width,
            height,
            quality,
            rois,
            transformation,
        })
    }

    /// Encoded size in bytes — the public-parameter overhead Figs. 17–18
    /// account for.
    pub fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }
}

fn write_index(w: &mut Writer, idx: &ZeroIndex) {
    w.u32(idx.entries().len() as u32);
    for e in idx.entries() {
        // The paper packs an entry into 28 bits (2 layer + 16 block + 6
        // entry); we widen the block field to 32 bits because a
        // high-resolution whole-image ROI exceeds 65536 blocks.
        // ZeroIndex::encoded_bits still reports the paper's 28-bit
        // accounting for the Fig. 18 comparison.
        w.u8(((e.component & 0x3) << 6) | (e.coeff & 0x3F));
        w.u32(e.block);
    }
}

fn read_index(r: &mut Reader<'_>) -> Result<ZeroIndex> {
    let nz = r.u32()? as usize;
    if nz > r.data.len() {
        return Err(PuppiesError::BadParams("index length overflow".into()));
    }
    let mut entries = Vec::with_capacity(nz);
    for _ in 0..nz {
        let tag = r.u8()?;
        entries.push(ZeroEntry {
            component: (tag >> 6) & 0x3,
            coeff: tag & 0x3F,
            block: r.u32()?,
        });
    }
    Ok(ZeroIndex::from_entries(entries))
}

const MAGIC: u32 = 0x5055_5053; // "PUPS"

#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.out.extend_from_slice(v);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn slice(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(PuppiesError::BadParams("truncated parameters".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.slice(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.slice(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.slice(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.slice(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::PrivacyLevel;

    fn sample_params() -> PublicParams {
        let zind = ZeroIndex::from_entries(vec![
            ZeroEntry {
                component: 0,
                block: 12,
                coeff: 5,
            },
            ZeroEntry {
                component: 2,
                block: 200_000,
                coeff: 63,
            },
        ]);
        let wind = ZeroIndex::from_entries(vec![ZeroEntry {
            component: 1,
            block: 7,
            coeff: 0,
        }]);
        PublicParams {
            image_id: 0xDEADBEEF,
            width: 96,
            height: 64,
            quality: 75,
            rois: vec![
                RoiParams {
                    index: 0,
                    rect: Rect::new(8, 16, 32, 24),
                    profile: PerturbProfile::paper(Scheme::Zero, PrivacyLevel::Medium),
                    zind,
                    wind,
                },
                RoiParams {
                    index: 1,
                    rect: Rect::new(48, 0, 16, 16),
                    profile: PerturbProfile::transform_friendly(),
                    zind: ZeroIndex::new(),
                    wind: ZeroIndex::new(),
                },
            ],
            transformation: Some(Transformation::Scale {
                width: 100,
                height: 50,
                filter: puppies_transform::ScaleFilter::Box,
            }),
        }
    }

    #[test]
    fn wire_roundtrip() {
        let p = sample_params();
        let bytes = p.to_bytes();
        let back = PublicParams::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn wire_roundtrip_without_transformation() {
        let mut p = sample_params();
        p.transformation = None;
        let back = PublicParams::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn all_transformations_roundtrip() {
        use puppies_transform::{FilterOp, ScaleFilter};
        let ts = vec![
            Transformation::Scale {
                width: 1,
                height: 2,
                filter: ScaleFilter::Nearest,
            },
            Transformation::Crop(Rect::new(0, 8, 16, 24)),
            Transformation::Rotate90,
            Transformation::Rotate180,
            Transformation::Rotate270,
            Transformation::FlipHorizontal,
            Transformation::FlipVertical,
            Transformation::Recompress { quality: 42 },
            Transformation::Filter(FilterOp::Gaussian { sigma: 1.5 }),
            Transformation::Filter(FilterOp::Sharpen),
            Transformation::Filter(FilterOp::Box { side: 5 }),
            Transformation::Overlay {
                rect: Rect::new(1, 2, 3, 4),
                color: puppies_image::Rgb::new(9, 8, 7),
                alpha: 0.25,
            },
        ];
        for t in ts {
            let mut p = sample_params();
            p.transformation = Some(t.clone());
            let back = PublicParams::from_bytes(&p.to_bytes()).unwrap();
            assert_eq!(back.transformation, Some(t));
        }
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = sample_params().to_bytes();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(
                PublicParams::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_params().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(PublicParams::from_bytes(&bytes).is_err());
    }

    #[test]
    fn zind_and_wind_survive_packing() {
        let p = sample_params();
        let back = PublicParams::from_bytes(&p.to_bytes()).unwrap();
        let roi = &back.rois[0];
        assert!(roi.zind.contains(0, 12, 5));
        assert!(roi.zind.contains(2, 200_000, 63));
        assert!(roi.wind.contains(1, 7, 0));
    }

    #[test]
    fn encoded_len_counts_indices() {
        let mut small = sample_params();
        small.rois[0].zind = ZeroIndex::new();
        small.rois[0].wind = ZeroIndex::new();
        let big = sample_params();
        assert!(big.encoded_len() > small.encoded_len());
        // 5 bytes per entry on the wire, 3 entries total.
        assert_eq!(big.encoded_len() - small.encoded_len(), 3 * 5);
    }

    #[test]
    fn range_matrix_regenerates_from_params() {
        let p = sample_params();
        assert_eq!(
            p.rois[0].range_matrix(),
            crate::matrix::RangeMatrix::generate(32, 8)
        );
        assert_eq!(
            p.rois[1].range_matrix(),
            crate::matrix::RangeMatrix::flat(16, 6)
        );
    }

    #[test]
    fn transformed_params_bytes_are_pinned() {
        // Captured from the encoder that wrote transformations before
        // `Transformation::to_bytes` became the one codec, so stored `.pup`
        // files and WAL blobs keep their bytes.
        let hex = |p: &PublicParams| -> String {
            p.to_bytes().iter().map(|b| format!("{b:02x}")).collect()
        };
        let mut p = sample_params();
        p.rois.truncate(1);
        p.rois[0].zind = ZeroIndex::new();
        assert_eq!(hex(&p), "53505550efbeadde0000000060000000400000004b01000000080000001000000020000000180000000300200008000800000000010000004007000000010a0000640000003200000002");
        p.transformation = Some(Transformation::Overlay {
            rect: Rect::new(1, 2, 3, 4),
            color: puppies_image::Rgb::new(9, 8, 7),
            alpha: 0.25,
        });
        assert_eq!(hex(&p), "53505550efbeadde0000000060000000400000004b0100000008000000100000002000000018000000030020000800080000000001000000400700000001180009010000000200000003000000040000000908070000803e");
        p.transformation = Some(Transformation::Filter(
            puppies_transform::FilterOp::Gaussian { sigma: 1.5 },
        ));
        assert_eq!(hex(&p), "53505550efbeadde0000000060000000400000004b0100000008000000100000002000000018000000030020000800080000000001000000400700000001060008000000c03f");
    }
}
