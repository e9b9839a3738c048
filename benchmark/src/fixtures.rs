//! Seeded photos, the sender's protection, the PSP views they are served
//! under, and the references a receiver's recovery is checked against.

use crate::traffic::stream;
use puppies_conformance::oracle::bounds;
use puppies_core::{protect, KeyGrant, OwnerKey, PerturbProfile, ProtectOptions, PublicParams};
use puppies_datasets::{generate_one, DatasetProfile};
use puppies_image::metrics::psnr_rgb;
use puppies_image::{Rect, RgbImage};
use puppies_jpeg::{decode_rgb, CoeffImage, EncodeOptions};
use puppies_parallel::WorkerPool;
use puppies_transform::Transformation;
use rand::Rng;

/// The paper's image sizes (Table III stand-ins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 496×328.
    Pascal,
    /// 256×384.
    Feret,
    /// 1224×1632.
    Inria,
}

impl Size {
    fn profile(self, index: usize) -> DatasetProfile {
        match self {
            Size::Pascal => DatasetProfile::pascal(),
            Size::Feret => DatasetProfile::feret(),
            Size::Inria => DatasetProfile::inria(),
        }
        .with_count(index + 1)
    }
}

/// One original photo with the sender's ROIs and a block-aligned crop.
pub struct Photo {
    pub image: RgbImage,
    pub rois: Vec<Rect>,
    pub crop: Rect,
}

/// JPEG quality the sender protects at.
pub const QUALITY: u8 = 75;

/// Generates photo `index` of pool `pool` at `size`, with 1–4 ROIs.
pub fn photo(seed: u64, pool: &str, index: usize, size: Size) -> Photo {
    let mut rng = stream(seed, pool, index as u64);
    let image = generate_one(size.profile(index), rng.gen(), index).image;
    let (w, h) = (image.width(), image.height());
    let rois = (0..rng.gen_range(1..=4))
        .map(|_| {
            let rw = rng.gen_range(w / 8..=w / 3);
            let rh = rng.gen_range(h / 8..=h / 3);
            Rect::new(rng.gen_range(0..=w - rw), rng.gen_range(0..=h - rh), rw, rh)
        })
        .collect();
    let cw = (w / 2) / 16 * 16;
    let ch = (h / 2) / 16 * 16;
    let crop = Rect::new(
        rng.gen_range(0..=(w - cw) / 16) * 16,
        rng.gen_range(0..=(h - ch) / 16) * 16,
        cw,
        ch,
    );
    Photo { image, rois, crop }
}

/// Generates `n` photos on the worker pool; `make(i)` must depend only
/// on `i`.
pub fn generate(n: usize, make: impl Fn(usize) -> Photo + Sync) -> Vec<Photo> {
    WorkerPool::global().map_indexed(n, make)
}

/// A run's generated photos and the references their recoveries are
/// checked against: benchmark input, built once per run and kept out of
/// `setup_s`.
pub struct Inputs {
    pub photos: Vec<Photo>,
    /// Per photo, the reference for each view `share` fetches it under;
    /// empty for the workloads that recover nothing.
    pub expected: Vec<Vec<Expected>>,
}

impl Inputs {
    /// Photos whose recoveries are not checked.
    pub fn photos_only(photos: Vec<Photo>) -> Inputs {
        Inputs {
            photos,
            expected: Vec::new(),
        }
    }
}

/// The sender's key for a run.
pub fn owner_key(seed: u64) -> OwnerKey {
    let mut rng = stream(seed, "owner.key", 0);
    let mut key = [0u8; 32];
    rng.fill(&mut key[..]);
    OwnerKey::from_seed(key)
}

/// The protection every workload uses: the bounded transform-friendly
/// profile, the one the conformance oracle holds to PSNR floors on
/// pixel-domain views.
pub fn options(image_id: u64) -> ProtectOptions {
    ProtectOptions::from_profile(PerturbProfile::transform_friendly()).with_image_id(image_id)
}

/// A protected upload: perturbed JPEG and public-parameter blob.
#[derive(Clone)]
pub struct Upload {
    pub bytes: Vec<u8>,
    pub params: Vec<u8>,
}

/// Protects `photo` under `image_id`.
pub fn protect_photo(photo: &Photo, key: &OwnerKey, image_id: u64) -> Result<Upload, String> {
    let p = protect(&photo.image, &photo.rois, key, &options(image_id))
        .map_err(|e| format!("protect: {e}"))?;
    Ok(Upload {
        bytes: p.bytes,
        params: p.params.to_bytes(),
    })
}

/// A byte-distinct, perceptually identical copy: decode, requantize at
/// `quality`, re-encode — what re-saving a downloaded photo produces.
pub fn recompress(bytes: &[u8], quality: u8) -> Result<Vec<u8>, String> {
    let mut coeff = CoeffImage::decode(bytes).map_err(|e| format!("recompress decode: {e}"))?;
    coeff.requantize(quality);
    coeff
        .encode(&EncodeOptions::default())
        .map_err(|e| format!("recompress encode: {e}"))
}

/// The views `share` fetches: two lossless coefficient-domain
/// operations, a requantization, and a pixel-domain downscale.
pub fn share_views(photo: &Photo) -> Vec<Transformation> {
    let (w, h) = (photo.image.width(), photo.image.height());
    vec![
        Transformation::Rotate90,
        Transformation::Crop(photo.crop),
        Transformation::Recompress { quality: 50 },
        Transformation::scale_by(w, h, 1, 2).expect("halving a paper-sized image"),
    ]
}

/// The six views `view` traffic asks for.
pub fn view_views(photo: &Photo) -> Vec<Transformation> {
    let mut views = share_views(photo);
    views.insert(1, Transformation::Rotate180);
    views.insert(2, Transformation::FlipHorizontal);
    views
}

/// How far a pixel-domain recovery may score below the unrecovered view
/// it was made from before the operation fails. Over 4,760 recoveries of
/// the generated photos the worst scored 5.8 dB below that view (clamped
/// perturbation the linear shadow cannot undo); a blank or wrong-sized
/// recovery scores far lower.
pub const SHADOW_REGRESSION_DB: f64 = 10.0;

/// Largest share of a run's pixel-domain recoveries that may miss the
/// conformance rule before the run fails. Over 40 seeds of the share
/// pool the program missed on 15–34% of a run; recovering with another
/// owner's key missed on at least 82%, and not recovering on all.
pub const SHADOW_MISS_CEILING: f64 = 0.5;

/// What a receiver's recovery of one view must produce.
pub enum Expected {
    /// Lossless views: pixel-for-pixel the view of the never-perturbed
    /// image.
    Exact(RgbImage),
    /// Recompression: more than `floor_db` PSNR against `reference`.
    Floor { reference: RgbImage, floor_db: f64 },
    /// Pixel-domain views, against the view of the never-perturbed
    /// image. The conformance oracle's rule (beat the unrecovered view by
    /// [`bounds::SHADOW_MARGIN_DB`] and score above
    /// [`bounds::SHADOW_ABS_DB`]) is counted per run; falling
    /// [`SHADOW_REGRESSION_DB`] below the unrecovered view fails the
    /// operation.
    Shadow(RgbImage),
}

/// The reference for view `t` of `photo` (the conformance oracle's rule).
pub fn expected(photo: &Photo, t: &Transformation) -> Result<Expected, String> {
    let plain = CoeffImage::from_rgb(&photo.image, QUALITY);
    let (w, h) = (photo.image.width(), photo.image.height());
    Ok(match t {
        Transformation::Recompress { .. } => Expected::Floor {
            reference: plain.to_rgb(),
            floor_db: bounds::RECOMPRESS_ABS_DB,
        },
        t if t.is_coeff_domain(w, h) => Expected::Exact(
            t.apply_to_coeff(&plain)
                .map_err(|e| format!("reference view: {e}"))?
                .to_rgb(),
        ),
        t => Expected::Shadow(
            t.apply_to_rgb(&plain.to_rgb())
                .map_err(|e| format!("reference view: {e}"))?,
        ),
    })
}

/// Checks a recovered view against its reference; `served` is the
/// transformed JPEG it was recovered from. `Ok(false)` is a pixel-domain
/// recovery that misses the conformance rule, which the run counts.
pub fn check(expected: &Expected, got: &RgbImage, served: &[u8]) -> Result<bool, String> {
    match expected {
        Expected::Exact(want) if want == got => Ok(true),
        Expected::Exact(want) => Err(format!(
            "recovered view differs from the reference ({:.1} dB)",
            psnr_rgb(got, want)
        )),
        Expected::Floor {
            reference,
            floor_db,
        } => {
            let db = psnr(reference, got)?;
            if db > *floor_db {
                Ok(true)
            } else {
                Err(format!("recovered view at {db:.1} dB, floor {floor_db} dB"))
            }
        }
        Expected::Shadow(reference) => {
            let db = psnr(reference, got)?;
            let unrecovered = decode_rgb(served).map_err(|e| format!("served view: {e}"))?;
            let base = psnr(reference, &unrecovered)?;
            if db < base - SHADOW_REGRESSION_DB {
                return Err(format!(
                    "recovered view at {db:.1} dB, {:.1} dB below the unrecovered view",
                    base - db
                ));
            }
            Ok(db > base + bounds::SHADOW_MARGIN_DB && db > bounds::SHADOW_ABS_DB)
        }
    }
}

/// PSNR of an image against its reference; fails on a size mismatch.
fn psnr(reference: &RgbImage, got: &RgbImage) -> Result<f64, String> {
    if (reference.width(), reference.height()) != (got.width(), got.height()) {
        return Err(format!(
            "recovered view is {}x{}, reference {}x{}",
            got.width(),
            got.height(),
            reference.width(),
            reference.height()
        ));
    }
    Ok(psnr_rgb(got, reference))
}

/// The grant a sender shares for every region of one upload.
pub fn grant_for(key: &OwnerKey, upload: &Upload) -> Result<KeyGrant, String> {
    let params = PublicParams::from_bytes(&upload.params).map_err(|e| format!("params: {e}"))?;
    let regions: Vec<u16> = (0..params.rois.len() as u16).collect();
    Ok(key.grant_rois(params.image_id, &regions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_core::shadow;
    use puppies_psp::PspServer;

    #[test]
    fn pixel_domain_recoveries_are_held_to_the_conformance_rule() {
        // One photo's Scale ½ view, served in process and recovered three
        // ways: by the receiver, not at all, and as a blank image.
        let p = photo(1, "fixtures.test", 0, Size::Feret);
        let key = owner_key(1);
        let t = &share_views(&p)[3];
        let want = expected(&p, t).unwrap();
        assert!(matches!(want, Expected::Shadow(_)));
        let up = protect_photo(&p, &key, 7).unwrap();
        let psp = PspServer::new();
        let id = psp.upload(up.bytes, up.params).unwrap();
        let (bytes, params) = psp.download_transformed(id, t).unwrap();
        let params = PublicParams::from_bytes(&params).unwrap();
        let recovered = shadow::recover_transformed(&bytes, &params, &key.grant_all()).unwrap();
        assert_eq!(check(&want, &recovered, &bytes), Ok(true));
        // Unrecovered, the view misses the rule's margin: counted, not failed.
        let served = decode_rgb(&bytes).unwrap();
        assert_eq!(check(&want, &served, &bytes), Ok(false));
        let blank = RgbImage::new(served.width(), served.height());
        assert!(check(&want, &blank, &bytes).is_err());
        let small = RgbImage::new(served.width() - 8, served.height());
        assert!(check(&want, &small, &bytes).is_err());
    }
}
