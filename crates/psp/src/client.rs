//! Sender and receiver clients wrapping the `puppies-core` pipeline
//! against a [`PspServer`].

use crate::store::{PhotoId, PspServer};
use crate::Result;
use puppies_core::{protect, KeyGrant, OwnerKey, ProtectOptions, PublicParams};
use puppies_image::{Rect, RgbImage};
use puppies_vision::detect::{recommend_rois, RecommendParams};

/// An image owner: holds the root key, picks ROIs (manually or via the
/// recommender), perturbs and uploads.
#[derive(Debug)]
pub struct Sender {
    key: OwnerKey,
    next_image_id: u64,
}

impl Sender {
    /// Creates a sender from its root key.
    pub fn new(key: OwnerKey) -> Sender {
        Sender {
            key,
            next_image_id: 1,
        }
    }

    /// Runs the §IV-A recommendation pipeline (face + text + objectness,
    /// merged and split into disjoint rectangles) to propose ROIs.
    pub fn recommend_rois(&self, img: &RgbImage) -> Vec<Rect> {
        recommend_rois(img, &RecommendParams::default()).regions
    }

    /// Protects `rois` of `img` and uploads to the server; returns the
    /// photo id and the image id the keys are scoped to.
    ///
    /// # Errors
    /// Fails on invalid ROIs or encoding failure.
    pub fn share(
        &mut self,
        server: &PspServer,
        img: &RgbImage,
        rois: &[Rect],
        opts: &ProtectOptions,
    ) -> Result<(PhotoId, u64)> {
        let image_id = self.next_image_id;
        self.next_image_id += 1;
        let opts = opts.clone().with_image_id(image_id);
        let protected = protect(img, rois, &self.key, &opts)?;
        let photo = server.upload(protected.bytes, protected.params.to_bytes())?;
        Ok((photo, image_id))
    }

    /// Grants a receiver the matrices for specific regions of an image
    /// (to be transported over a secure channel).
    pub fn grant(&self, image_id: u64, rois: &[u16]) -> KeyGrant {
        self.key.grant_rois(image_id, rois)
    }
}

/// A receiver: downloads a photo and recovers whatever regions its grant
/// covers.
#[derive(Debug)]
pub struct Receiver {
    grant: KeyGrant,
}

impl Default for Receiver {
    fn default() -> Self {
        Receiver::new()
    }
}

impl Receiver {
    /// Creates a receiver with no keys (sees only perturbed regions).
    pub fn new() -> Receiver {
        Receiver {
            grant: KeyGrant::empty(),
        }
    }

    /// Creates a receiver holding a grant.
    pub fn with_grant(grant: KeyGrant) -> Receiver {
        Receiver { grant }
    }

    /// Downloads and recovers a photo: exact scenario-1 recovery when the
    /// PSP did not transform it, shadow/coefficient-domain recovery when
    /// it did. Regions without keys stay perturbed.
    ///
    /// # Errors
    /// Fails on unknown photos or undecodable data.
    pub fn fetch(&self, server: &PspServer, id: PhotoId) -> Result<RgbImage> {
        let bytes = server.download(id)?;
        let params = PublicParams::from_bytes(&server.download_params(id)?)?;
        Ok(puppies_core::shadow::recover_transformed(
            &bytes,
            &params,
            &self.grant,
        )?)
    }

    /// Downloads the raw (perturbed, possibly transformed) image as any
    /// unauthorized user would see it.
    ///
    /// # Errors
    /// Fails on unknown photos or undecodable data.
    pub fn fetch_public_view(&self, server: &PspServer, id: PhotoId) -> Result<RgbImage> {
        let bytes = server.download(id)?;
        Ok(puppies_jpeg::decode_rgb(&bytes).map_err(puppies_core::PuppiesError::from)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_core::{PerturbProfile, Scheme};
    use puppies_image::metrics::psnr_rgb;
    use puppies_image::Rgb;
    use puppies_jpeg::CoeffImage;
    use puppies_transform::Transformation;

    fn photo() -> RgbImage {
        RgbImage::from_fn(96, 64, |x, y| {
            Rgb::new(
                (60 + (x * 2 + y) % 120) as u8,
                (70 + (x + y * 2) % 110) as u8,
                (80 + (x + y) % 100) as u8,
            )
        })
    }

    #[test]
    fn alice_bob_flow() {
        // Alice shares a photo with her face region protected; Bob holds
        // the key, Carol does not.
        let server = PspServer::new();
        let mut alice = Sender::new(OwnerKey::from_seed([1u8; 32]));
        let img = photo();
        let face = Rect::new(24, 16, 24, 32);
        let (photo_id, image_id) = alice
            .share(&server, &img, &[face], &ProtectOptions::default())
            .unwrap();

        let bob = Receiver::with_grant(alice.grant(image_id, &[0]));
        let carol = Receiver::new();

        let reference = CoeffImage::from_rgb(&img, 75).to_rgb();
        let bob_view = bob.fetch(&server, photo_id).unwrap();
        let carol_view = carol.fetch(&server, photo_id).unwrap();

        assert_eq!(bob_view, reference, "Bob sees the original");
        assert_ne!(carol_view, reference, "Carol sees a perturbed face");
        // Outside the ROI Carol's view matches.
        let outside = Rect::new(64, 0, 32, 16);
        assert_eq!(
            carol_view.crop(outside).unwrap(),
            reference.crop(outside).unwrap()
        );
    }

    #[test]
    fn psp_transformation_still_recoverable() {
        let server = PspServer::new();
        let mut alice = Sender::new(OwnerKey::from_seed([2u8; 32]));
        let img = photo();
        let (photo_id, image_id) = alice
            .share(
                &server,
                &img,
                &[Rect::new(16, 16, 32, 32)],
                &ProtectOptions::default(),
            )
            .unwrap();
        server
            .transform(photo_id, &Transformation::Rotate90)
            .unwrap();

        let bob = Receiver::with_grant(alice.grant(image_id, &[0]));
        let view = bob.fetch(&server, photo_id).unwrap();
        let reference = Transformation::Rotate90
            .apply_to_coeff(&CoeffImage::from_rgb(&img, 75))
            .unwrap()
            .to_rgb();
        assert_eq!(view, reference, "rotation recovery must be exact");
    }

    #[test]
    fn psp_scaling_recoverable_with_transform_friendly_profile() {
        let server = PspServer::new();
        let mut alice = Sender::new(OwnerKey::from_seed([3u8; 32]));
        let img = photo();
        let opts = ProtectOptions::from_profile(PerturbProfile::transform_friendly());
        let (photo_id, image_id) = alice
            .share(&server, &img, &[Rect::new(16, 16, 32, 32)], &opts)
            .unwrap();
        server
            .transform(
                photo_id,
                &Transformation::Scale {
                    width: 48,
                    height: 32,
                    filter: puppies_transform::ScaleFilter::Bilinear,
                },
            )
            .unwrap();
        let bob = Receiver::with_grant(alice.grant(image_id, &[0]));
        let recovered = bob.fetch(&server, photo_id).unwrap();
        let nokey = Receiver::new().fetch(&server, photo_id).unwrap();
        let reference = Transformation::Scale {
            width: 48,
            height: 32,
            filter: puppies_transform::ScaleFilter::Bilinear,
        }
        .apply_to_rgb(&CoeffImage::from_rgb(&img, 75).to_rgb())
        .unwrap();
        let rec_psnr = psnr_rgb(&recovered, &reference);
        let nokey_psnr = psnr_rgb(&nokey, &reference);
        // The PSP re-encodes after scaling, so both views carry q75
        // requantization noise; the recovery margin is what matters.
        assert!(
            rec_psnr > nokey_psnr + 4.0,
            "recovered {rec_psnr} dB vs perturbed {nokey_psnr} dB"
        );
    }

    #[test]
    fn multi_roi_personalized_sharing() {
        // The Einstein/Chaplin story (Fig. 3): two regions, two receivers.
        let server = PspServer::new();
        let mut owner = Sender::new(OwnerKey::from_seed([4u8; 32]));
        let img = photo();
        let left = Rect::new(0, 16, 24, 24);
        let right = Rect::new(64, 16, 24, 24);
        let (photo_id, image_id) = owner
            .share(
                &server,
                &img,
                &[left, right],
                &ProtectOptions::new(Scheme::Zero, puppies_core::PrivacyLevel::Medium),
            )
            .unwrap();

        let einstein_friend = Receiver::with_grant(owner.grant(image_id, &[0]));
        let chaplin_friend = Receiver::with_grant(owner.grant(image_id, &[1]));
        let reference = CoeffImage::from_rgb(&img, 75).to_rgb();

        let ev = einstein_friend.fetch(&server, photo_id).unwrap();
        let cv = chaplin_friend.fetch(&server, photo_id).unwrap();
        let params = PublicParams::from_bytes(&server.download_params(photo_id).unwrap()).unwrap();
        let r0 = params.rois[0].rect;
        let r1 = params.rois[1].rect;
        assert_eq!(ev.crop(r0).unwrap(), reference.crop(r0).unwrap());
        assert_ne!(ev.crop(r1).unwrap(), reference.crop(r1).unwrap());
        assert_eq!(cv.crop(r1).unwrap(), reference.crop(r1).unwrap());
        assert_ne!(cv.crop(r0).unwrap(), reference.crop(r0).unwrap());
    }

    #[test]
    fn recommender_can_drive_sharing() {
        // End-to-end with automatically recommended ROIs on a face scene.
        use puppies_vision::face::{render_face, FaceGeometry};
        let server = PspServer::new();
        let mut alice = Sender::new(OwnerKey::from_seed([5u8; 32]));
        let mut img = RgbImage::filled(160, 120, Rgb::new(90, 110, 140));
        render_face(
            &mut img,
            Rect::new(40, 20, 48, 60),
            Rgb::new(225, 188, 152),
            &FaceGeometry::default(),
        );
        let rois = alice.recommend_rois(&img);
        assert!(!rois.is_empty(), "recommender found nothing");
        let (photo_id, _) = alice
            .share(&server, &img, &rois, &ProtectOptions::default())
            .unwrap();
        // The perturbed upload hides the face from the face detector: no
        // detection localizes the true face (IoU ≥ 0.5, the usual PASCAL
        // criterion). Random perturbation noise may still fire spurious
        // windows — the paper's own Caltech numbers (53/596) show the same.
        let public = Receiver::new()
            .fetch_public_view(&server, photo_id)
            .unwrap();
        let dets = puppies_vision::detect_faces(
            &public.to_gray(),
            &puppies_vision::FaceDetectorParams::default(),
        );
        let face_truth = Rect::new(40, 20, 48, 60);
        assert!(
            dets.iter().all(|d| d.rect.iou(face_truth) < 0.5),
            "face still localized after perturbation"
        );
        // On the original, the detector does localize it.
        let dets_orig = puppies_vision::detect_faces(
            &img.to_gray(),
            &puppies_vision::FaceDetectorParams::default(),
        );
        assert!(
            dets_orig.iter().any(|d| d.rect.iou(face_truth) >= 0.3),
            "sanity: face must be detectable pre-perturbation"
        );
    }
}
