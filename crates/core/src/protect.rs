//! The high-level sender/receiver API: protect an image, share keys,
//! recover regions.

use crate::keys::{KeyGrant, OwnerKey};
use crate::params::{PublicParams, RoiParams};
use crate::perturb::{perturb_rois, recover_rois_in, PerturbProfile, RoiKeys, Scheme};
use crate::privacy::PrivacyLevel;
use crate::roi::RoiPlan;
use crate::{PuppiesError, Result};
use puppies_image::{Rect, RgbImage};
use puppies_jpeg::{CoeffImage, EncodeOptions, HuffmanMode};
use puppies_transform::BlockOrientation;

/// Options controlling [`protect`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ProtectOptions {
    /// Scheme, AC ranges and DC range.
    pub profile: PerturbProfile,
    /// JPEG quality of the uploaded image (default 75).
    pub quality: u8,
    /// Huffman strategy; optimized tables are what make PuPPIeS-C/-Z small
    /// (default optimized).
    pub huffman: HuffmanMode,
    /// Sender-chosen image id scoping the matrix derivation.
    pub image_id: u64,
}

impl ProtectOptions {
    /// The paper's configuration: `scheme` at privacy `level`, defaults
    /// elsewhere.
    pub fn new(scheme: Scheme, level: PrivacyLevel) -> Self {
        ProtectOptions {
            profile: PerturbProfile::paper(scheme, level),
            quality: 75,
            huffman: HuffmanMode::Optimized,
            image_id: 0,
        }
    }

    /// Options from an explicit profile.
    pub fn from_profile(profile: PerturbProfile) -> Self {
        ProtectOptions {
            profile,
            quality: 75,
            huffman: HuffmanMode::Optimized,
            image_id: 0,
        }
    }

    /// Sets the image id (builder style).
    pub fn with_image_id(mut self, id: u64) -> Self {
        self.image_id = id;
        self
    }

    /// Sets the JPEG quality (builder style).
    pub fn with_quality(mut self, quality: u8) -> Self {
        self.quality = quality;
        self
    }

    /// Sets the Huffman strategy (builder style).
    pub fn with_huffman(mut self, huffman: HuffmanMode) -> Self {
        self.huffman = huffman;
        self
    }
}

impl Default for ProtectOptions {
    fn default() -> Self {
        ProtectOptions::new(Scheme::Zero, PrivacyLevel::Medium)
    }
}

/// A protected image as uploaded to the PSP: the perturbed JPEG bytes plus
/// the public parameters.
#[derive(Debug, Clone)]
pub struct ProtectedImage {
    /// Entropy-coded perturbed JPEG.
    pub bytes: Vec<u8>,
    /// Public parameters (stored next to the image, e.g. in its
    /// description field).
    pub params: PublicParams,
}

impl ProtectedImage {
    /// Total public-side footprint in bytes: image + parameters. This is
    /// the "public part" quantity of Figs. 17–18.
    pub fn public_len(&self) -> usize {
        self.bytes.len() + self.params.encoded_len()
    }
}

/// Protects `rois` of `img` with matrices derived from `key`, producing
/// the upload bundle.
///
/// Raw rectangles are aligned and made disjoint via [`RoiPlan`]; each
/// resulting region gets its own matrix pair per component, so regions can
/// be shared independently (personalized privacy, challenge C3).
///
/// # Errors
/// Fails if an ROI is invalid or encoding fails.
pub fn protect(
    img: &RgbImage,
    rois: &[Rect],
    key: &OwnerKey,
    opts: &ProtectOptions,
) -> Result<ProtectedImage> {
    let _span = puppies_obs::span("core.protect", "core");
    let mut coeff = CoeffImage::from_rgb(img, opts.quality);
    let params = protect_coeff(&mut coeff, rois, key, opts)?;
    let mut enc_opts = EncodeOptions::default();
    enc_opts.huffman = opts.huffman;
    let bytes = coeff.encode(&enc_opts)?;
    Ok(ProtectedImage { bytes, params })
}

/// Grayscale variant of [`protect`] (the paper's footnote 4: a
/// monochromatic image has only the Y layer; each layer is processed
/// independently, so one component simply means one matrix pair per ROI).
///
/// # Errors
/// Fails if an ROI is invalid or encoding fails.
pub fn protect_gray(
    img: &puppies_image::GrayImage,
    rois: &[Rect],
    key: &OwnerKey,
    opts: &ProtectOptions,
) -> Result<ProtectedImage> {
    let _span = puppies_obs::span("core.protect", "core");
    let mut coeff = CoeffImage::from_gray(img, opts.quality);
    let params = protect_coeff(&mut coeff, rois, key, opts)?;
    let mut enc_opts = EncodeOptions::default();
    enc_opts.huffman = opts.huffman;
    let bytes = coeff.encode(&enc_opts)?;
    Ok(ProtectedImage { bytes, params })
}

/// Coefficient-level variant of [`protect`]: perturbs `coeff` in place and
/// returns the public parameters. Useful when the caller manages encoding
/// (e.g. the storage experiments that measure both Huffman modes).
///
/// # Errors
/// Fails if an ROI is invalid.
pub fn protect_coeff(
    coeff: &mut CoeffImage,
    rois: &[Rect],
    key: &OwnerKey,
    opts: &ProtectOptions,
) -> Result<PublicParams> {
    let plan = RoiPlan::from_rects(coeff.width(), coeff.height(), rois)?;
    let ncomp = coeff.components().len();
    let grant = key.grant_all();
    let keys: Vec<Vec<RoiKeys>> = (0..plan.regions().len())
        .map(|idx| {
            (0..ncomp)
                .map(|c| RoiKeys::from_grant(&grant, opts.image_id, idx as u16, c as u8))
                .collect::<Result<_>>()
        })
        .collect::<Result<_>>()?;
    let records = perturb_rois(coeff, plan.regions(), &keys, &opts.profile)?;
    let roi_params = plan
        .regions()
        .iter()
        .zip(records)
        .enumerate()
        .map(|(idx, (&rect, record))| RoiParams {
            index: idx as u16,
            rect,
            profile: opts.profile,
            zind: record.zind,
            wind: record.wind,
        })
        .collect();
    Ok(PublicParams::new(
        opts.image_id,
        coeff.width(),
        coeff.height(),
        opts.quality,
        roi_params,
    ))
}

/// Recovers every region the grant covers from an untransformed protected
/// image (scenario 1 of §III-C). Regions not covered stay perturbed — this
/// is the partial-decryption behaviour of the Einstein/Chaplin example
/// (Fig. 3).
///
/// # Errors
/// Fails on undecodable bytes; a missing key is *not* an error, the region
/// simply stays perturbed. Use [`recover_strict`] to require full
/// coverage. If the parameters record a PSP transformation, use
/// [`crate::shadow::recover_transformed`] instead.
pub fn recover(protected: &ProtectedImage, grant: &KeyGrant) -> Result<CoeffImage> {
    let _span = puppies_obs::span("core.recover", "core");
    if protected.params.transformation.is_some() {
        return Err(PuppiesError::BadParams(
            "image was transformed at the PSP; use shadow::recover_transformed".into(),
        ));
    }
    let mut coeff = CoeffImage::decode(&protected.bytes)?;
    recover_coeff(&mut coeff, &protected.params, grant)?;
    Ok(coeff)
}

/// Like [`recover`] but fails if any region cannot be decrypted.
///
/// # Errors
/// Additionally fails with [`PuppiesError::MissingKey`] when the grant does
/// not cover a region.
pub fn recover_strict(protected: &ProtectedImage, grant: &KeyGrant) -> Result<CoeffImage> {
    for roi in &protected.params.rois {
        if !grant.covers(protected.params.image_id, roi.index) {
            let id = crate::keys::MatrixId {
                image: protected.params.image_id,
                roi: roi.index,
                kind: crate::keys::MatrixKind::Dc,
                component: 0,
            };
            return Err(PuppiesError::MissingKey { matrix: id });
        }
    }
    recover(protected, grant)
}

/// In-place recovery over a decoded coefficient image, skipping regions the
/// grant does not cover.
///
/// # Errors
/// Fails if parameters disagree with the image geometry.
pub fn recover_coeff(
    coeff: &mut CoeffImage,
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<()> {
    recover_coeff_in(coeff, None, params, grant)
}

/// [`recover_coeff`] on an image that the rotation or flip `orient` moved
/// after perturbation (see [`crate::perturb::recover_rois`]).
pub(crate) fn recover_coeff_in(
    coeff: &mut CoeffImage,
    orient: Option<&BlockOrientation>,
    params: &PublicParams,
    grant: &KeyGrant,
) -> Result<()> {
    let ncomp = coeff.components().len();
    let covered: Vec<_> = params
        .rois
        .iter()
        .filter(|roi| grant.covers(params.image_id, roi.index))
        .collect();
    let keys: Vec<Vec<RoiKeys>> = covered
        .iter()
        .map(|roi| {
            (0..ncomp)
                .map(|c| RoiKeys::from_grant(grant, params.image_id, roi.index, c as u8))
                .collect::<Result<_>>()
        })
        .collect::<Result<_>>()?;
    let rois: Vec<_> = covered
        .iter()
        .map(|roi| (roi.rect, &roi.profile, &roi.zind))
        .collect();
    recover_rois_in(coeff, orient, &rois, &keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_image::metrics::psnr_rgb;
    use puppies_image::Rgb;

    fn test_image() -> RgbImage {
        RgbImage::from_fn(96, 64, |x, y| {
            Rgb::new(
                ((x * 3 + y * 5) % 256) as u8,
                ((x * 2 + y * 7) % 256) as u8,
                ((x + y * 2) % 256) as u8,
            )
        })
    }

    #[test]
    fn owner_recovers_exactly() {
        let img = test_image();
        let key = OwnerKey::from_seed([1u8; 32]);
        let opts = ProtectOptions::default();
        let protected = protect(&img, &[Rect::new(16, 16, 32, 32)], &key, &opts).unwrap();
        let recovered = recover(&protected, &key.grant_all()).unwrap();
        let reference = CoeffImage::from_rgb(&img, opts.quality);
        assert_eq!(recovered, reference);
    }

    #[test]
    fn perturbed_region_is_visually_destroyed() {
        let img = test_image();
        let key = OwnerKey::from_seed([1u8; 32]);
        let opts = ProtectOptions::new(Scheme::Zero, PrivacyLevel::High);
        let rect = Rect::new(0, 0, 48, 48);
        let protected = protect(&img, &[rect], &key, &opts).unwrap();
        let perturbed = CoeffImage::decode(&protected.bytes).unwrap().to_rgb();
        let reference = CoeffImage::from_rgb(&img, opts.quality).to_rgb();
        let roi_orig = reference.crop(rect).unwrap();
        let roi_pert = perturbed.crop(rect).unwrap();
        let psnr = psnr_rgb(&roi_orig, &roi_pert);
        assert!(psnr < 15.0, "perturbed ROI too similar: {psnr} dB");
    }

    #[test]
    fn unauthorized_receiver_sees_perturbed_roi() {
        let img = test_image();
        let key = OwnerKey::from_seed([1u8; 32]);
        let opts = ProtectOptions::default();
        let rect = Rect::new(16, 16, 32, 32);
        let protected = protect(&img, &[rect], &key, &opts).unwrap();
        let recovered = recover(&protected, &KeyGrant::empty()).unwrap();
        let reference = CoeffImage::from_rgb(&img, opts.quality);
        assert_ne!(recovered, reference, "no key must not reveal the ROI");
        let rec_rgb = recovered.to_rgb();
        let ref_rgb = reference.to_rgb();
        let outside = Rect::new(56, 0, 40, 16);
        assert_eq!(
            rec_rgb.crop(outside).unwrap(),
            ref_rgb.crop(outside).unwrap()
        );
    }

    #[test]
    fn per_roi_grants_decrypt_independently() {
        // The Einstein/Chaplin example: two faces, two receivers, each sees
        // only their region.
        let img = test_image();
        let key = OwnerKey::from_seed([2u8; 32]);
        let opts = ProtectOptions::default().with_image_id(99);
        let left = Rect::new(0, 16, 24, 24);
        let right = Rect::new(64, 16, 24, 24);
        let protected = protect(&img, &[left, right], &key, &opts).unwrap();
        assert_eq!(protected.params.rois.len(), 2);

        let reference = CoeffImage::from_rgb(&img, opts.quality);
        let grant0 = key.grant_rois(99, &[0]);
        let rec0 = recover(&protected, &grant0).unwrap();
        let r0 = protected.params.rois[0].rect;
        let r1 = protected.params.rois[1].rect;
        assert_eq!(
            rec0.to_rgb().crop(r0).unwrap(),
            reference.to_rgb().crop(r0).unwrap(),
            "granted region decrypts"
        );
        assert_ne!(
            rec0.to_rgb().crop(r1).unwrap(),
            reference.to_rgb().crop(r1).unwrap(),
            "other region stays hidden"
        );
        assert!(matches!(
            recover_strict(&protected, &grant0),
            Err(PuppiesError::MissingKey { .. })
        ));
        assert!(recover_strict(&protected, &key.grant_all()).is_ok());
    }

    #[test]
    fn params_roundtrip_via_wire_still_recovers() {
        let img = test_image();
        let key = OwnerKey::from_seed([3u8; 32]);
        let opts = ProtectOptions::new(Scheme::Zero, PrivacyLevel::High);
        let protected = protect(&img, &[Rect::new(8, 8, 40, 40)], &key, &opts).unwrap();
        let wire = protected.params.to_bytes();
        let params = PublicParams::from_bytes(&wire).unwrap();
        let mut coeff = CoeffImage::decode(&protected.bytes).unwrap();
        recover_coeff(&mut coeff, &params, &key.grant_all()).unwrap();
        assert_eq!(coeff, CoeffImage::from_rgb(&img, opts.quality));
    }

    #[test]
    fn all_schemes_protect_and_recover_via_bytes() {
        let img = test_image();
        let key = OwnerKey::from_seed([4u8; 32]);
        for scheme in [
            Scheme::Naive,
            Scheme::Base,
            Scheme::Compression,
            Scheme::Zero,
        ] {
            let opts = ProtectOptions::new(scheme, PrivacyLevel::Medium);
            let protected = protect(&img, &[Rect::new(24, 8, 32, 40)], &key, &opts).unwrap();
            let recovered = recover(&protected, &key.grant_all()).unwrap();
            assert_eq!(
                recovered,
                CoeffImage::from_rgb(&img, opts.quality),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn transform_friendly_profile_roundtrips() {
        let img = test_image();
        let key = OwnerKey::from_seed([7u8; 32]);
        let opts = ProtectOptions::from_profile(PerturbProfile::transform_friendly());
        let protected = protect(&img, &[Rect::new(8, 8, 32, 32)], &key, &opts).unwrap();
        let recovered = recover(&protected, &key.grant_all()).unwrap();
        assert_eq!(recovered, CoeffImage::from_rgb(&img, opts.quality));
    }

    #[test]
    fn transformed_image_requires_shadow_path() {
        let img = test_image();
        let key = OwnerKey::from_seed([5u8; 32]);
        let mut protected = protect(
            &img,
            &[Rect::new(8, 8, 16, 16)],
            &key,
            &ProtectOptions::default(),
        )
        .unwrap();
        protected.params.transformation = Some(puppies_transform::Transformation::Rotate180);
        assert!(matches!(
            recover(&protected, &key.grant_all()),
            Err(PuppiesError::BadParams(_))
        ));
    }

    #[test]
    fn grayscale_images_protect_and_recover() {
        let img = test_image().to_gray();
        let key = OwnerKey::from_seed([21u8; 32]);
        let opts = ProtectOptions::default();
        let protected = protect_gray(&img, &[Rect::new(16, 16, 32, 32)], &key, &opts).unwrap();
        let perturbed = CoeffImage::decode(&protected.bytes).unwrap();
        assert!(perturbed.is_gray());
        let reference = CoeffImage::from_gray(&img, opts.quality);
        assert_ne!(perturbed, reference);
        let recovered = recover(&protected, &key.grant_all()).unwrap();
        assert_eq!(recovered, reference);
        // A keyless receiver stays locked out.
        let blocked = recover(&protected, &KeyGrant::empty()).unwrap();
        assert_ne!(blocked, reference);
    }

    #[test]
    fn public_len_accounts_params() {
        let img = test_image();
        let key = OwnerKey::from_seed([6u8; 32]);
        let protected = protect(
            &img,
            &[Rect::new(8, 8, 16, 16)],
            &key,
            &ProtectOptions::default(),
        )
        .unwrap();
        // `encoded_len` must agree with the actual wire encoding, so
        // `public_len` is a real storage figure (Figs. 17–18), not an
        // estimate.
        assert_eq!(
            protected.params.encoded_len(),
            protected.params.to_bytes().len()
        );
        assert_eq!(
            protected.public_len(),
            protected.bytes.len() + protected.params.to_bytes().len()
        );
        // The parameter share is nonzero, and a second ROI makes the
        // parameter blob strictly larger.
        assert!(protected.public_len() > protected.bytes.len());
        let two = protect(
            &img,
            &[Rect::new(8, 8, 16, 16), Rect::new(56, 40, 16, 16)],
            &key,
            &ProtectOptions::default(),
        )
        .unwrap();
        assert!(two.params.encoded_len() > protected.params.encoded_len());
    }
}
