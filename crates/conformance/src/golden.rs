//! Golden vectors: byte-exact committed outputs for the codec, the protect
//! pipeline, every PSP transformation, the receiver's recovery from each
//! of them, and the receiver's shadow planes.
//!
//! The committed fixture (`fixture.ppm`) is the single source input; every
//! other file under the golden directory is a deterministic function of it
//! plus a fixed owner seed. `check` re-derives each output and compares
//! byte-for-byte, rendering a hex diff on mismatch; `bless` rewrites the
//! directory plus `MANIFEST.txt` (name, length, FNV-1a fingerprint per
//! vector — the hash is for readable review diffs, the byte comparison is
//! authoritative).
//!
//! Determinism caveat: pixel-domain vectors (scale, gaussian) go through
//! `f32` resampling whose transcendental kernels (`exp`) come from the
//! platform libm, so golden vectors are pinned to the reference platform
//! (linux x86_64, the CI runner). On another platform, regenerate with
//! `--bless` rather than chasing last-ulp differences.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use puppies_core::{
    protect, shadow, OwnerKey, PerturbProfile, PrivacyLevel, ProtectOptions, PublicParams, Scheme,
};
use puppies_image::io::{read_ppm, write_ppm};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_obs::fnv64;
use puppies_transform::{FilterOp, ScaleFilter, Transformation};

use crate::report::{ByteDiff, Report};

/// Owner seed for every golden protect vector. Changing it invalidates the
/// committed vectors, so it is part of the conformance contract.
pub const GOLDEN_SEED: [u8; 32] = [42u8; 32];
/// Image id used for key derivation in the golden protect vectors.
pub const GOLDEN_IMAGE_ID: u64 = 7;
/// ROI used by the golden protect/transform vectors (block-aligned,
/// interior).
pub const GOLDEN_ROI: Rect = Rect::new(16, 8, 32, 24);

/// The procedural fixture: 64×48 mid-range texture (the shadow path is
/// documented to degrade at the gamut boundary, so the fixture avoids it).
pub fn fixture_image() -> RgbImage {
    RgbImage::from_fn(64, 48, |x, y| {
        Rgb::new(
            (64 + (x * 5 + y * 2) % 128) as u8,
            (64 + (x * 2 + y * 4) % 128) as u8,
            (64 + (x + y * 3) % 128) as u8,
        )
    })
}

fn ppm_bytes(img: &RgbImage) -> Vec<u8> {
    let mut out = Vec::new();
    write_ppm(img, &mut out).expect("ppm to Vec cannot fail");
    out
}

fn protect_vector(img: &RgbImage, opts: &ProtectOptions) -> (Vec<u8>, Vec<u8>) {
    let key = OwnerKey::from_seed(GOLDEN_SEED);
    let protected = protect(img, &[GOLDEN_ROI], &key, opts).expect("golden protect");
    let params = protected.params.to_bytes();
    (protected.bytes, params)
}

/// Derives every golden vector from the fixture. Returns `(name, bytes)`
/// pairs in manifest order.
pub fn derive_vectors(img: &RgbImage) -> Vec<(String, Vec<u8>)> {
    let mut v: Vec<(String, Vec<u8>)> = Vec::new();
    v.push(("fixture.ppm".into(), ppm_bytes(img)));

    // Codec: quality sweep with optimized tables, plus the Annex K path.
    for q in [50u8, 75, 90] {
        let bytes = puppies_jpeg::encode_rgb(img, q).expect("encode");
        v.push((format!("encode_q{q}.jpg"), bytes));
    }
    let std_bytes = CoeffImage::from_rgb(img, 75)
        .encode(&EncodeOptions::standard())
        .expect("encode standard");
    v.push(("encode_q75_standard.jpg".into(), std_bytes));

    // Protect: one vector per scheme at Medium, plus the transform-friendly
    // profile; params files ride along so wire-format drift is caught too.
    let schemes = [
        ("n", Scheme::Naive),
        ("b", Scheme::Base),
        ("c", Scheme::Compression),
        ("z", Scheme::Zero),
    ];
    for (tag, scheme) in schemes {
        let opts = ProtectOptions::new(scheme, PrivacyLevel::Medium).with_image_id(GOLDEN_IMAGE_ID);
        let (jpg, pup) = protect_vector(img, &opts);
        v.push((format!("protect_{tag}_medium.jpg"), jpg));
        v.push((format!("protect_{tag}_medium.pup"), pup));
    }
    let tf_opts = ProtectOptions::from_profile(PerturbProfile::transform_friendly())
        .with_image_id(GOLDEN_IMAGE_ID);
    let (jpg, pup) = protect_vector(img, &tf_opts);
    v.push(("protect_tf.jpg".into(), jpg));
    v.push(("protect_tf.pup".into(), pup.clone()));

    // The receiver's shadow planes for the transform-friendly image, as
    // raw little-endian f32 bits (Y, Cb, Cr planes back to back): the
    // pixel-domain recovery path is otherwise held only to PSNR floors.
    let tf_params = PublicParams::from_bytes(&pup).expect("golden params");
    let grant = OwnerKey::from_seed(GOLDEN_SEED).grant_all();
    let shadows = shadow::shadow_planes(&tf_params, &grant, 3).expect("golden shadow planes");
    let shadow_bits = shadows
        .iter()
        .flat_map(|p| p.samples().iter().flat_map(|s| s.to_bits().to_le_bytes()))
        .collect();
    v.push(("shadow_tf.f32".into(), shadow_bits));

    // PSP transformations applied to the Zero-scheme protected image:
    // coefficient-domain ops re-encode losslessly; pixel-domain ops decode,
    // transform, and re-encode at q75 (what a real PSP does).
    let z_opts =
        ProtectOptions::new(Scheme::Zero, PrivacyLevel::Medium).with_image_id(GOLDEN_IMAGE_ID);
    let (z_jpg, z_pup) = protect_vector(img, &z_opts);
    let z_params = PublicParams::from_bytes(&z_pup).expect("golden params");
    let z_coeff = CoeffImage::decode(&z_jpg).expect("decode protected");
    // Each PSP vector also pins what the receiver recovers from it
    // (`r_<tag>.ppm`), through the coefficient-domain or shadow path.
    let recovered = |t: &Transformation, served: &[u8]| {
        let mut params = z_params.clone();
        params.transformation = Some(t.clone());
        let rgb = shadow::recover_transformed(served, &params, &grant).expect("golden recover");
        ppm_bytes(&rgb)
    };
    let coeff_ts: [(&str, Transformation); 7] = [
        ("rot90", Transformation::Rotate90),
        ("rot180", Transformation::Rotate180),
        ("rot270", Transformation::Rotate270),
        ("fliph", Transformation::FlipHorizontal),
        ("flipv", Transformation::FlipVertical),
        ("crop", Transformation::Crop(Rect::new(8, 8, 40, 32))),
        ("recompress_q50", Transformation::Recompress { quality: 50 }),
    ];
    for (tag, t) in coeff_ts {
        let out = t
            .apply_to_coeff(&z_coeff)
            .expect("coeff transform")
            .encode(&EncodeOptions::default())
            .expect("encode transform");
        let rec = recovered(&t, &out);
        v.push((format!("t_{tag}.jpg"), out));
        v.push((format!("r_{tag}.ppm"), rec));
    }
    let pixel_ts: [(&str, Transformation); 2] = [
        (
            "scale_half",
            Transformation::Scale {
                width: 32,
                height: 24,
                filter: ScaleFilter::Bilinear,
            },
        ),
        (
            "gaussian",
            Transformation::Filter(FilterOp::Gaussian { sigma: 1.2 }),
        ),
    ];
    let z_rgb = z_coeff.to_rgb();
    for (tag, t) in pixel_ts {
        let out = t.apply_to_rgb(&z_rgb).expect("pixel transform");
        let bytes = puppies_jpeg::encode_rgb(&out, 75).expect("encode transform");
        if tag == "scale_half" {
            let rec = recovered(&t, &bytes);
            v.push((format!("r_{tag}.ppm"), rec));
        }
        v.push((format!("t_{tag}.jpg"), bytes));
    }
    v
}

/// Renders `MANIFEST.txt` from derived vectors.
pub fn render_manifest(vectors: &[(String, Vec<u8>)]) -> String {
    let mut out = String::from("# name\tbytes\tfnv64\n");
    for (name, bytes) in vectors {
        let _ = writeln!(out, "{name}\t{}\t{:016x}", bytes.len(), fnv64(bytes));
    }
    out
}

/// Checks every golden vector under `dir` against freshly derived outputs.
///
/// The fixture is read from disk (so PPM parser drift is visible) and also
/// compared against the procedural image. Missing files fail with a hint
/// to run `--bless`.
pub fn check(dir: &Path) -> Report {
    let mut report = Report::new();
    let fixture_path = dir.join("fixture.ppm");
    let img = match fs::read(&fixture_path) {
        Ok(bytes) => match read_ppm(&bytes[..]) {
            Ok(img) => img,
            Err(e) => {
                report.fail("golden/fixture.ppm", format!("unreadable fixture: {e}"));
                return report;
            }
        },
        Err(e) => {
            report.fail(
                "golden/fixture.ppm",
                format!("{e}: missing golden directory? regenerate with --bless"),
            );
            return report;
        }
    };
    if img != fixture_image() {
        report.fail(
            "golden/fixture.ppm",
            "committed fixture no longer matches the procedural fixture image",
        );
        return report;
    }

    let vectors = derive_vectors(&img);
    for (name, actual) in &vectors {
        let case = format!("golden/{name}");
        match fs::read(dir.join(name)) {
            Ok(expected) => match ByteDiff::compare(&expected, actual) {
                None => report.pass(&case, Some(format!("{} bytes", actual.len()))),
                Some(diff) => report.fail(&case, diff.render(&expected, actual)),
            },
            Err(e) => report.fail(&case, format!("{e}: regenerate with --bless")),
        }
    }

    let manifest = render_manifest(&vectors);
    match fs::read_to_string(dir.join("MANIFEST.txt")) {
        Ok(expected) if expected == manifest => {
            report.pass("golden/MANIFEST.txt", None);
        }
        Ok(expected) => report.fail(
            "golden/MANIFEST.txt",
            ByteDiff::compare(expected.as_bytes(), manifest.as_bytes())
                .map(|d| d.render(expected.as_bytes(), manifest.as_bytes()))
                .unwrap_or_else(|| "manifest mismatch".into()),
        ),
        Err(e) => report.fail(
            "golden/MANIFEST.txt",
            format!("{e}: regenerate with --bless"),
        ),
    }
    report
}

/// Regenerates every golden vector under `dir`, reporting which files
/// changed, and rewrites `MANIFEST.txt`.
///
/// # Errors
/// Returns the first filesystem error.
pub fn bless(dir: &Path) -> std::io::Result<Report> {
    let mut report = Report::new();
    fs::create_dir_all(dir)?;
    let img = fixture_image();
    let vectors = derive_vectors(&img);
    for (name, bytes) in &vectors {
        let path = dir.join(name);
        let changed = match fs::read(&path) {
            Ok(old) => old != *bytes,
            Err(_) => true,
        };
        fs::write(&path, bytes)?;
        let detail = if changed { "updated" } else { "unchanged" };
        report.blessed(format!("golden/{name}"), Some(detail.into()));
    }
    fs::write(dir.join("MANIFEST.txt"), render_manifest(&vectors))?;
    report.blessed("golden/MANIFEST.txt", None);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_vectors_is_deterministic() {
        let img = fixture_image();
        let a = derive_vectors(&img);
        let b = derive_vectors(&img);
        assert_eq!(a, b);
        // Every expected family is present.
        let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        for needle in [
            "fixture.ppm",
            "encode_q75.jpg",
            "encode_q75_standard.jpg",
            "protect_z_medium.jpg",
            "protect_z_medium.pup",
            "protect_tf.pup",
            "t_rot90.jpg",
            "t_recompress_q50.jpg",
            "t_scale_half.jpg",
            "t_gaussian.jpg",
            "shadow_tf.f32",
            "r_rot90.ppm",
            "r_crop.ppm",
            "r_recompress_q50.ppm",
            "r_scale_half.ppm",
        ] {
            assert!(names.contains(&needle), "missing {needle}");
        }
    }

    #[test]
    fn bless_then_check_round_trips_and_detects_tampering() {
        let dir = std::env::temp_dir().join(format!("puppies-golden-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        bless(&dir).unwrap();
        let report = check(&dir);
        assert!(report.is_ok(), "{}", report.render());

        // Flip one byte inside a codec vector: the suite must fail with a
        // readable diff naming the offset.
        let victim = dir.join("encode_q75.jpg");
        let mut bytes = fs::read(&victim).unwrap();
        let off = bytes.len() / 2;
        bytes[off] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();
        let report = check(&dir);
        assert!(!report.is_ok());
        let text = report.render();
        assert!(
            text.contains("golden/encode_q75.jpg") && text.contains("first mismatch at byte"),
            "diff report not readable:\n{text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
