//! Fig. 23: the three signal-correlation attacks on the "Hello World!"
//! demonstration image, scored by the user-study proxy.

use crate::util::header;
use crate::Ctx;
use puppies_attacks::{
    inpainting_attack, matrix_inference_attack, pca_attack, recognizability_verdict,
    CorrelationAttackReport,
};
use puppies_core::{protect, OwnerKey, PrivacyLevel, ProtectOptions, Scheme};
use puppies_image::font::draw_text;
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::CoeffImage;

/// Runs the experiment.
pub fn run(ctx: &Ctx) {
    header("Fig. 23: signal-correlation attacks on 'Hello World!'");
    // The paper's simplest possible setting: white background, black text.
    let mut img = RgbImage::filled(256, 96, Rgb::new(246, 246, 244));
    let text_rect = draw_text(&mut img, "HELLO WORLD!", 24, 36, 2, Rgb::new(12, 12, 16));
    let roi = text_rect.inflate_clamped(6, img.bounds());
    let key = OwnerKey::from_seed([23u8; 32]);
    let opts =
        ProtectOptions::new(Scheme::Compression, PrivacyLevel::Medium).with_quality(super::QUALITY);
    let protected = protect(&img, &[roi], &key, &opts).expect("protect");
    let perturbed_coeff = CoeffImage::decode(&protected.bytes).expect("decode");
    let perturbed = perturbed_coeff.to_rgb();
    let reference = CoeffImage::from_rgb(&img, opts.quality).to_rgb();
    let rois: Vec<Rect> = protected.params.rois.iter().map(|r| r.rect).collect();

    ctx.save_ppm(&reference, "fig23_original.ppm");
    ctx.save_ppm(&perturbed, "fig23_perturbed.ppm");

    let candidates: Vec<(&str, puppies_image::GrayImage)> = vec![
        (
            "guessed private matrix",
            matrix_inference_attack(&perturbed_coeff, &protected.params).to_gray(),
        ),
        (
            "feature correlation (inpaint)",
            inpainting_attack(&perturbed, &rois, 4).to_gray(),
        ),
        ("PCA reconstruction", {
            pca_attack(&perturbed.to_gray(), &rois, 8)
        }),
    ];

    println!(
        "{:<30} {:>10} {:>14} {:>12}",
        "attack", "PSNR dB", "recognizab.", "recognized?"
    );
    let ref_gray = reference.to_gray();
    // Score inside the protected region, where the secret lives.
    let aligned = protected.params.rois[0].rect;
    for (name, out) in &candidates {
        let o = ref_gray.crop(aligned).expect("crop");
        let r = out.crop(aligned).expect("crop");
        let report = CorrelationAttackReport::score(&o, &r);
        let verdict = recognizability_verdict(&o, &r);
        println!(
            "{:<30} {:>10.1} {:>14.3} {:>12}",
            name,
            report.psnr.min(99.0),
            report.recognizability,
            if verdict.recognized { "YES (!)" } else { "no" }
        );
        let file = format!(
            "fig23_{}.ppm",
            name.replace([' ', '(', ')'], "_").to_lowercase()
        );
        ctx.save_pgm(out, &file);
    }
    println!(
        "\npaper: 'all three methods cannot recover any of the perturbed \
         part'; MTurk participants saw 'nothing but mosaic'"
    );
}
