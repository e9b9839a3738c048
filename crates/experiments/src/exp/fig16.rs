//! Fig. 16: the scale-then-recover flow on a ROI-protected image —
//! perturb at the sender, downscale at the PSP, reconstruct at the
//! receiver with the transformed shadow ROI.

use crate::util::{header, load, Stats};
use crate::Ctx;
use puppies_core::{protect, OwnerKey, PerturbProfile, ProtectOptions};
use puppies_image::metrics::psnr_rgb;
use puppies_jpeg::CoeffImage;
use puppies_transform::{ScaleFilter, Transformation};

/// Runs the experiment.
pub fn run(ctx: &Ctx) {
    header("Fig. 16: perturb -> PSP downscale -> shadow reconstruction");
    let images = load(
        super::pascal(ctx).with_count(ctx.scale.count(4, 12, 48)),
        ctx.seed,
    );
    let key = OwnerKey::from_seed([16u8; 32]);
    let mut tf = Vec::new();
    let mut paper = Vec::new();
    let mut baseline = Vec::new();
    let mut saved = false;
    for li in &images {
        let rois = li.truth.all_regions();
        if rois.is_empty() {
            continue;
        }
        let coeff = CoeffImage::from_rgb(&li.image, super::QUALITY);
        let t = Transformation::Scale {
            width: coeff.width() / 2,
            height: coeff.height() / 2,
            filter: ScaleFilter::Bilinear,
        };
        let reference = t.apply_to_rgb(&coeff.to_rgb()).expect("scale");
        let profiles = [
            PerturbProfile::transform_friendly(),
            PerturbProfile::paper(
                puppies_core::Scheme::Compression,
                puppies_core::PrivacyLevel::Medium,
            ),
        ];
        for (pi, profile) in profiles.into_iter().enumerate() {
            let opts = ProtectOptions::from_profile(profile)
                .with_quality(super::QUALITY)
                .with_image_id(li.id);
            let protected = protect(&li.image, &rois, &key, &opts).expect("protect");
            let perturbed = CoeffImage::decode(&protected.bytes)
                .expect("decode")
                .to_rgb();
            let scaled = t.apply_to_rgb(&perturbed).expect("scale");
            let mut params = protected.params.clone();
            params.transformation = Some(t.clone());
            let rec =
                puppies_core::shadow::recover_pixel_domain(&scaled, &t, &params, &key.grant_all())
                    .expect("recover");
            let psnr = psnr_rgb(&rec, &reference);
            if pi == 0 {
                tf.push(psnr);
                baseline.push(psnr_rgb(&scaled, &reference));
            } else {
                paper.push(psnr);
            }
            if !saved {
                ctx.save_ppm(&perturbed, "fig16_perturbed.ppm");
                ctx.save_ppm(&scaled, "fig16_scaled.ppm");
                ctx.save_ppm(&rec, "fig16_recovered.ppm");
                saved = true;
            }
        }
    }
    println!("PSNR (dB) of recovered vs ground-truth scaled image, ROI-protected");
    println!(
        "{:<34} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "profile", "mean", "median", "std", "min", "max"
    );
    println!("{:<34} {}", "transform-friendly", Stats::of(&tf).row(1));
    println!("{:<34} {}", "paper C/medium", Stats::of(&paper).row(1));
    println!(
        "{:<34} {}",
        "no recovery (perturbed baseline)",
        Stats::of(&baseline).row(1)
    );
    println!(
        "\npaper: 'the reconstructed scaled image is exactly the same'. Our \
         measurement: near-exact with the transform-friendly profile; the \
         paper profile is limited by wrap/clamp effects the paper does not \
         model (EXPERIMENTS.md, Fig. 16 section)."
    );
}
