//! Fig. 15: perturbing a license plate with the scheme family — visual
//! hiding plus the size cost of each variant.

use crate::util::header;
use crate::Ctx;
use puppies_core::{protect, OwnerKey, PrivacyLevel, ProtectOptions, Scheme};
use puppies_image::metrics::recognizability;
use puppies_jpeg::{CoeffImage, HuffmanMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the experiment.
pub fn run(ctx: &Ctx) {
    header("Fig. 15: perturbing a license plate (PuPPIeS-N/B/C/Z)");
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x15);
    let (img, truth) = puppies_datasets::scene::street_with_plate(&mut rng, 320, 240);
    let plate = truth.texts[0];
    let reference = CoeffImage::from_rgb(&img, super::QUALITY);
    let original_len = reference
        .encode(&puppies_jpeg::EncodeOptions::default())
        .expect("encode")
        .len();
    ctx.save_ppm(&img, "fig15_original.ppm");

    println!("plate ROI: {plate:?}; original {original_len} bytes");
    println!(
        "{:<12} {:>12} {:>12} {:>16} {:>10}",
        "scheme", "bytes", "normalized", "ROI recogniz.", "hidden?"
    );
    let key = OwnerKey::from_seed([15u8; 32]);
    for (scheme, huffman) in [
        (Scheme::Naive, HuffmanMode::Optimized),
        (Scheme::Base, HuffmanMode::Standard),
        (Scheme::Compression, HuffmanMode::Optimized),
        (Scheme::Zero, HuffmanMode::Optimized),
    ] {
        let opts = ProtectOptions::new(scheme, PrivacyLevel::Medium)
            .with_quality(super::QUALITY)
            .with_huffman(huffman);
        let protected = protect(&img, &[plate], &key, &opts).expect("protect");
        let perturbed = CoeffImage::decode(&protected.bytes)
            .expect("decode")
            .to_rgb();
        let aligned = plate.align_to(8, img.width(), img.height());
        let roi_orig = reference.to_rgb().crop(aligned).expect("crop").to_gray();
        let roi_pert = perturbed.crop(aligned).expect("crop").to_gray();
        let recog = recognizability(&roi_orig, &roi_pert);
        println!(
            "{:<12} {:>12} {:>12.3} {:>16.3} {:>10}",
            scheme.name(),
            protected.bytes.len(),
            protected.bytes.len() as f64 / original_len as f64,
            recog,
            if recog < puppies_attacks::RECOGNIZABILITY_THRESHOLD {
                "yes"
            } else {
                "NO"
            }
        );
        let name = format!("fig15_{}.ppm", scheme.name().replace(['-', ' '], "_"));
        ctx.save_ppm(&perturbed, &name);
    }
    println!("\nimages saved under {}", ctx.out_dir.display());
}
