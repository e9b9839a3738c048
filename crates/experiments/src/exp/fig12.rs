//! Fig. 12: ROI detection and disjoint splitting on object scenes.
//!
//! Runs the face/text/objectness recommendation pipeline (§IV-A) on
//! PASCAL-style scenes, reports detector coverage of ground truth, and
//! saves annotated images for visual inspection.

use crate::util::{header, load};
use crate::Ctx;
use puppies_image::{draw, Rgb};
use puppies_vision::detect::{recommend_rois, DetectorKind, RecommendParams};

/// Runs the experiment.
pub fn run(ctx: &Ctx) {
    header("Fig. 12: detected ROIs and disjoint split");
    let images = load(
        super::pascal(ctx).with_count(ctx.scale.count(4, 8, 24)),
        ctx.seed,
    );
    let mut covered = 0usize;
    let mut total = 0usize;
    for (i, li) in images.iter().enumerate() {
        let rec = recommend_rois(&li.image, &RecommendParams::default());
        let faces = rec
            .detections
            .iter()
            .filter(|d| d.kind == DetectorKind::Face)
            .count();
        let texts = rec
            .detections
            .iter()
            .filter(|d| d.kind == DetectorKind::Text)
            .count();
        let objects = rec
            .detections
            .iter()
            .filter(|d| d.kind == DetectorKind::Object)
            .count();
        // Ground-truth coverage: a truth region counts as covered when at
        // least half its area lies under recommended regions.
        for truth in li.truth.all_regions() {
            total += 1;
            let inter: u64 = rec.regions.iter().map(|r| r.intersect(truth).area()).sum();
            if inter * 2 >= truth.area() {
                covered += 1;
            }
        }
        println!(
            "image {:>3}: {} face dets, {} text dets, {} object proposals -> {} disjoint regions",
            li.id,
            faces,
            texts,
            objects,
            rec.regions.len()
        );
        // Save the first few annotated scenes.
        if i < 3 {
            let mut annotated = li.image.clone();
            for d in &rec.detections {
                let c = match d.kind {
                    DetectorKind::Face => Rgb::new(255, 60, 60),
                    DetectorKind::Text => Rgb::new(60, 60, 255),
                    DetectorKind::Object => Rgb::new(60, 255, 60),
                };
                draw::stroke_rect(&mut annotated, d.rect, c);
            }
            for r in &rec.regions {
                draw::stroke_rect(&mut annotated, *r, Rgb::new(255, 255, 0));
            }
            let path = ctx.save_ppm(&annotated, &format!("fig12_scene{}.ppm", li.id));
            println!("  annotated scene saved to {}", path.display());
        }
    }
    println!("\nground-truth regions >=50% covered by recommendations: {covered}/{total}");
}
