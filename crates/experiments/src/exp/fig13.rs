//! Figs. 13–14: separating DC and AC components — DC carries the coarse
//! visual content, AC the detail. Quantified as energy share and PSNR of
//! the DC-only and AC-only reconstructions.

use crate::util::{header, load};
use crate::Ctx;
use puppies_image::metrics::psnr_rgb;
use puppies_jpeg::{CoeffImage, Component};

fn keep(coeff: &CoeffImage, dc: bool) -> CoeffImage {
    let comps: Vec<Component> = coeff
        .components()
        .iter()
        .map(|c| {
            let blocks: Vec<_> = c
                .blocks()
                .iter()
                .map(|b| {
                    let mut out = [0i32; 64];
                    if dc {
                        out[0] = b[0];
                    } else {
                        out[1..].copy_from_slice(&b[1..]);
                    }
                    out
                })
                .collect();
            Component::from_blocks(c.id(), c.width(), c.height(), c.quant().clone(), blocks)
                .expect("geometry preserved")
        })
        .collect();
    CoeffImage::from_components(coeff.width(), coeff.height(), comps).expect("geometry")
}

/// Runs the experiment.
pub fn run(ctx: &Ctx) {
    header("Figs. 13-14: DC-only vs AC-only reconstructions");
    let images = load(
        super::pascal(ctx).with_count(ctx.scale.count(2, 6, 20)),
        ctx.seed,
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "image", "DC energy %", "AC energy %", "DC-only dB", "AC-only dB"
    );
    for li in &images {
        let coeff = CoeffImage::from_rgb(&li.image, super::QUALITY);
        // Dequantized energy split on the luma component.
        let c = &coeff.components()[0];
        let steps = c.quant().steps();
        let mut e_dc = 0f64;
        let mut e_ac = 0f64;
        for b in c.blocks() {
            e_dc += ((b[0] * steps[0] as i32) as f64).powi(2);
            for i in 1..64 {
                e_ac += ((b[i] * steps[i] as i32) as f64).powi(2);
            }
        }
        let total = (e_dc + e_ac).max(1.0);
        let reference = coeff.to_rgb();
        let dc_only = keep(&coeff, true).to_rgb();
        let ac_only = keep(&coeff, false).to_rgb();
        println!(
            "{:>5} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            li.id,
            100.0 * e_dc / total,
            100.0 * e_ac / total,
            psnr_rgb(&dc_only, &reference),
            psnr_rgb(&ac_only, &reference),
        );
        if li.id == 0 {
            ctx.save_ppm(&dc_only, "fig13_dc_only.ppm");
            ctx.save_ppm(&ac_only, "fig13_ac_only.ppm");
        }
    }
    println!(
        "\npaper: the DC-only image keeps the recognizable gist (hence DC gets \
         the strongest protection); the AC-only image keeps only edges"
    );
}
