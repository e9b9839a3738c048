//! Perceptual-identity conformance: the signature behind the PSP's
//! dedup fast paths must be *stable* where the paper needs it stable and
//! *blind* where privacy demands blindness.
//!
//! Three properties are machine-checked:
//!
//! * **recompression invariance** — requantizing a protected JPEG at
//!   quality 25/50/75/90 produces byte-distinct files whose signatures
//!   stay within [`NEAR_DUP_DISTANCE`] of the original's. This is what
//!   lets recompressed re-uploads share the family's cached transforms.
//! * **geometric sensitivity** — rotating, flipping, or cropping the
//!   image moves the signature *beyond* the near-duplicate radius
//!   (different pictures must not collide), while a double flip — a true
//!   identity in the coefficient domain — restores it.
//! * **private-ROI blindness** — two images identical outside the
//!   private region but arbitrarily different inside it hash to
//!   **bit-identical** signatures after protection. The signature reads
//!   public coefficients plus a DC envelope that substitutes the public
//!   mean for every masked block, so nothing inside the ROI can move a
//!   bit. A signature that shifted with private content would be a
//!   leakage channel (§VI of the paper); equality here is exact, not
//!   threshold-based.
//!
//! The suite also holds the store's upload path — and the `/search`
//! probe — which hash through the DC-only decode, to the signature
//! [`coeff_signature`] computes from the full decode, on every golden
//! JPEG vector.

use puppies_core::{protect, OwnerKey, ProtectOptions, PublicParams};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_psp::{coeff_signature, hamming, PspServer, NEAR_DUP_DISTANCE};
use puppies_transform::Transformation;

use crate::report::Report;

const ROI: Rect = Rect::new(24, 16, 32, 32);

/// A textured, left-right asymmetric image: flips and rotations must
/// actually move the DC envelope, so the fixture cannot be symmetric.
fn base_image(seed: u32, private: impl Fn(u32, u32) -> Rgb) -> RgbImage {
    RgbImage::from_fn(96, 72, |x, y| {
        if ROI.contains(x, y) {
            private(x, y)
        } else {
            let v = x
                .wrapping_mul(7 + seed)
                .wrapping_add(y.wrapping_mul(23))
                .wrapping_add(x * x / 13);
            Rgb::new(
                (v.wrapping_mul(2_654_435_761) >> 24) as u8,
                ((x * 3 + y + seed * 5) % 251) as u8,
                ((x ^ (y * 2)).wrapping_add(seed) & 0xFF) as u8,
            )
        }
    })
}

fn default_private(x: u32, y: u32) -> Rgb {
    Rgb::new((x * 11 % 256) as u8, (y * 13 % 256) as u8, 128)
}

/// Protects `img` and returns (jpeg bytes, params bytes).
fn protected(img: &RgbImage, seed: u8) -> (Vec<u8>, Vec<u8>) {
    let key = OwnerKey::from_seed([seed.max(1); 32]);
    // Quality 85: off the sweep below, so every recompression in
    // {25, 50, 75, 90} actually changes bytes.
    let p = protect(
        img,
        &[ROI],
        &key,
        &ProtectOptions::default().with_quality(85),
    )
    .expect("identity fixture protects");
    (p.bytes, p.params.to_bytes())
}

/// The signature from the full decode: mask the params' ROIs, hash the
/// public DC envelope. The upload path's DC-only walk is held equal to it
/// by [`golden_upload_signatures`].
fn sig_of(bytes: &[u8], params_bytes: &[u8]) -> Result<u64, String> {
    let coeff = CoeffImage::decode(bytes).map_err(|e| format!("decode: {e}"))?;
    let rois: Vec<Rect> = PublicParams::from_bytes(params_bytes)
        .map_err(|e| format!("params: {e}"))?
        .rois
        .iter()
        .map(|r| r.rect)
        .collect();
    Ok(coeff_signature(&coeff, &rois))
}

fn recompress(bytes: &[u8], quality: u8) -> Vec<u8> {
    let mut coeff = CoeffImage::decode(bytes).expect("recompress decode");
    coeff.requantize(quality);
    coeff
        .encode(&EncodeOptions::default())
        .expect("recompress encode")
}

fn transformed(bytes: &[u8], t: &Transformation) -> Vec<u8> {
    let coeff = CoeffImage::decode(bytes).expect("transform decode");
    t.apply_to_coeff(&coeff)
        .expect("coeff transform")
        .encode(&EncodeOptions::default())
        .expect("transform encode")
}

/// On every golden JPEG vector (with its params, where the golden set has
/// them), the signature a store records at upload and the one
/// [`PspServer::probe_signature`] computes must both equal
/// [`coeff_signature`] over the full decode.
fn golden_upload_signatures(report: &mut Report) {
    let vectors = crate::golden::derive_vectors(&crate::golden::fixture_image());
    let server = PspServer::new();
    for (name, bytes) in vectors.iter().filter(|(n, _)| n.ends_with(".jpg")) {
        let case = format!("identity/upload-path/{name}");
        let pup = name.replace(".jpg", ".pup");
        let params = vectors
            .iter()
            .find(|(n, _)| *n == pup)
            .map(|(_, p)| p.clone())
            .unwrap_or_default();
        let rois: Vec<Rect> = PublicParams::from_bytes(&params)
            .map(|p| p.rois.iter().map(|r| r.rect).collect())
            .unwrap_or_default();
        let want = match CoeffImage::decode(bytes) {
            Ok(c) => coeff_signature(&c, &rois),
            Err(e) => {
                report.fail(case, format!("golden vector does not decode: {e}"));
                continue;
            }
        };
        let stored = server
            .upload(bytes.clone(), params.clone())
            .and_then(|id| server.signature_of(id));
        let probe = PspServer::probe_signature(bytes, Some(&params));
        match (stored, probe) {
            (Ok(Some(s)), Some(p)) if s == want && p == want => report.pass(
                case,
                Some(format!("sig {want:016x}, {} ROIs masked", rois.len())),
            ),
            (stored, probe) => report.fail(
                case,
                format!("full decode {want:016x}, upload {stored:?}, probe {probe:?}"),
            ),
        }
    }
}

/// The perceptual-identity suite (see module docs).
pub fn run_identity() -> Report {
    let _span = puppies_obs::span("conformance.identity.run", "conformance");
    let mut report = Report::new();
    let (bytes, params) = protected(&base_image(1, default_private), 7);
    let base_sig = match sig_of(&bytes, &params) {
        Ok(s) => s,
        Err(e) => {
            report.fail("identity/base", format!("base signature failed: {e}"));
            return report;
        }
    };

    // Determinism: recomputing from the same bytes is bit-stable.
    {
        let case = "identity/determinism";
        match sig_of(&bytes, &params) {
            Ok(again) if again == base_sig => {
                report.pass(case, Some(format!("sig {base_sig:016x}")))
            }
            Ok(again) => report.fail(
                case,
                format!("recompute moved the signature: {base_sig:016x} -> {again:016x}"),
            ),
            Err(e) => report.fail(case, e),
        }
    }

    // Recompression invariance across the quality sweep.
    for q in [25u8, 50, 75, 90] {
        let case = format!("identity/recompress/q{q}");
        let copy = recompress(&bytes, q);
        if copy == bytes {
            report.fail(case, "recompressed copy is not byte-distinct");
            continue;
        }
        match sig_of(&copy, &params) {
            Ok(sig) => {
                let d = hamming(base_sig, sig);
                if d <= NEAR_DUP_DISTANCE {
                    report.pass(case, Some(format!("distance {d} <= {NEAR_DUP_DISTANCE}")));
                } else {
                    report.fail(
                        case,
                        format!("distance {d} > {NEAR_DUP_DISTANCE}: recompression broke identity"),
                    );
                }
            }
            Err(e) => report.fail(case, e),
        }
    }

    // Geometry moves the signature out of the family.
    for (name, t) in [
        ("rot90", Transformation::Rotate90),
        ("rot180", Transformation::Rotate180),
        ("fliph", Transformation::FlipHorizontal),
        ("crop", Transformation::Crop(Rect::new(0, 0, 64, 48))),
    ] {
        let case = format!("identity/distinct/{name}");
        match sig_of(&transformed(&bytes, &t), &params) {
            Ok(sig) => {
                let d = hamming(base_sig, sig);
                if d > NEAR_DUP_DISTANCE {
                    report.pass(case, Some(format!("distance {d} > {NEAR_DUP_DISTANCE}")));
                } else {
                    report.fail(
                        case,
                        format!(
                            "distance {d} <= {NEAR_DUP_DISTANCE}: {name} looks like a duplicate"
                        ),
                    );
                }
            }
            Err(e) => report.fail(case, e),
        }
    }

    // A coefficient-domain involution restores it exactly.
    {
        let case = "identity/flip-twice-restores";
        let back = transformed(
            &transformed(&bytes, &Transformation::FlipHorizontal),
            &Transformation::FlipHorizontal,
        );
        match sig_of(&back, &params) {
            Ok(sig) => {
                let d = hamming(base_sig, sig);
                if d <= NEAR_DUP_DISTANCE {
                    report.pass(case, Some(format!("distance {d}")));
                } else {
                    report.fail(case, format!("double flip moved the signature by {d}"));
                }
            }
            Err(e) => report.fail(case, e),
        }
    }

    // Private-ROI blindness: exact equality across arbitrary private
    // content, over several public textures.
    for seed in 1u32..=3 {
        let case = format!("identity/roi-blind/seed{seed}");
        let privates: [&dyn Fn(u32, u32) -> Rgb; 3] = [
            &|_, _| Rgb::new(0, 0, 0),
            &|x, y| Rgb::new((x * y % 256) as u8, 255, (x + y) as u8),
            &|x, y| Rgb::new((255 - x) as u8, (y * 31 % 256) as u8, (x * 7 % 256) as u8),
        ];
        let mut sigs = Vec::new();
        let mut err = None;
        for private in privates {
            let (b, p) = protected(&base_image(seed, private), seed as u8);
            match sig_of(&b, &p) {
                Ok(s) => sigs.push(s),
                Err(e) => err = Some(e),
            }
        }
        if let Some(e) = err {
            report.fail(case, e);
        } else if sigs.windows(2).all(|w| w[0] == w[1]) {
            report.pass(
                case,
                Some(format!(
                    "{} private variants, one signature {:016x}",
                    sigs.len(),
                    sigs[0]
                )),
            );
        } else {
            report.fail(
                case,
                format!("private content moved the signature: {sigs:016x?} — leakage channel"),
            );
        }
    }

    golden_upload_signatures(&mut report);
    report
}
