//! Serving-path conformance: the PSP's transform-result cache must be
//! *unobservable* except in speed.
//!
//! The cache-coherence oracle checks, for every transformation family the
//! store serves:
//!
//! * a cached repeat of `download_transformed` returns bytes and params
//!   **byte-identical** to the freshly computed first answer;
//! * a cache-enabled server and a cache-disabled server produce identical
//!   answers for the same stored content;
//! * identical content uploaded under two ids shares one cache entry and
//!   serves identical bytes (content addressing);
//! * in-place `transform` stores the same bytes with caching on or off;
//! * a byte-starved cache that is forced to evict still serves correct
//!   bytes (eviction can cost speed, never correctness);
//! * every coefficient-eligible transformation is *reported* as served
//!   `coeff-domain` and its bytes are identical to an independently
//!   computed coefficient-domain replica, while genuinely pixel-domain
//!   geometry matches the pixel-fallback replica — a silent decode to
//!   pixels (or a pixel path masquerading as coeff-domain) cannot pass,
//!   because the two replicas quantize differently;
//! * the pixel-domain fallback re-encodes at the *source's* quality
//!   (recovered from its quantization tables), not a hardcoded default.

use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::{CoeffImage, EncodeOptions};
use puppies_psp::{PspConfig, PspServer, ServedPath};
use puppies_transform::{FilterOp, ScaleFilter, Transformation};

use crate::report::Report;

fn fixture(seed: u8, quality: u8) -> (Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(64, 48, |x, y| {
        Rgb::new(
            (32 + (x * 5 + y * 2 + seed as u32) % 192) as u8,
            (32 + (x * 2 + y * 4) % 192) as u8,
            (32 + (x + y * 3 + seed as u32 * 7) % 192) as u8,
        )
    });
    let key = OwnerKey::from_seed([seed; 32]);
    let protected = protect(
        &img,
        &[Rect::new(16, 8, 24, 24)],
        &key,
        &ProtectOptions::default().with_quality(quality),
    )
    .expect("fixture protects");
    (protected.bytes, protected.params.to_bytes())
}

fn serve_cases() -> Vec<(&'static str, Transformation)> {
    vec![
        ("rot90", Transformation::Rotate90),
        ("rot180", Transformation::Rotate180),
        ("fliph", Transformation::FlipHorizontal),
        (
            "crop-aligned",
            Transformation::Crop(Rect::new(8, 8, 32, 24)),
        ),
        ("recompress", Transformation::Recompress { quality: 40 }),
        (
            "scale",
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
        (
            "overlay",
            Transformation::Overlay {
                rect: Rect::new(0, 0, 16, 16),
                color: Rgb::new(255, 255, 255),
                alpha: 0.6,
            },
        ),
    ]
}

/// The cache-coherence oracle (see module docs).
pub fn run_serving() -> Report {
    let _span = puppies_obs::span("conformance.serving.run", "conformance");
    let mut report = Report::new();
    let (bytes, params) = fixture(11, 75);

    // Per-transformation coherence: repeat == fresh == uncached.
    for (name, t) in serve_cases() {
        let case = format!("serving/coherence/{name}");
        let cached = PspServer::new();
        let uncached = PspServer::with_config(PspConfig::uncached());
        let id_c = cached
            .upload(bytes.clone(), params.clone())
            .expect("upload");
        let id_u = uncached
            .upload(bytes.clone(), params.clone())
            .expect("upload");
        let fresh = match cached.download_transformed(id_c, &t) {
            Ok(r) => r,
            Err(e) => {
                report.fail(case, format!("fresh serve failed: {e}"));
                continue;
            }
        };
        let repeat = match cached.download_transformed(id_c, &t) {
            Ok(r) => r,
            Err(e) => {
                report.fail(case, format!("repeat serve failed: {e}"));
                continue;
            }
        };
        let reference = match uncached.download_transformed(id_u, &t) {
            Ok(r) => r,
            Err(e) => {
                report.fail(case, format!("uncached serve failed: {e}"));
                continue;
            }
        };
        if cached.cache_stats().hits == 0 {
            report.fail(case, "repeat request did not hit the cache");
        } else if repeat.0 != fresh.0 || repeat.1 != fresh.1 {
            report.fail(case, "cached repeat diverged from fresh result");
        } else if reference.0 != fresh.0 || reference.1 != fresh.1 {
            report.fail(case, "cache-enabled result diverged from cache-disabled");
        } else {
            report.pass(
                case,
                Some(format!("{} bytes byte-identical", fresh.0.len())),
            );
        }
    }

    // Serve-path parity: the reported path must match eligibility, and
    // the served bytes must equal the independent replica of that path.
    {
        let coeff = CoeffImage::decode(&bytes).expect("fixture decodes");
        let (w, h) = (coeff.width(), coeff.height());
        for (name, t) in serve_cases() {
            let case = format!("serving/served-path/{name}");
            let server = PspServer::new();
            let id = server
                .upload(bytes.clone(), params.clone())
                .expect("upload");
            let ((served_bytes, _), served) = match server.download_transformed_traced(id, &t) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(case, format!("serve failed: {e}"));
                    continue;
                }
            };
            let eligible = t.is_coeff_domain(w, h);
            let expected = if eligible {
                ServedPath::CoeffDomain
            } else {
                ServedPath::PixelFallback
            };
            if served != expected {
                report.fail(
                    case,
                    format!(
                        "expected {} (eligible={eligible}), server reported {}",
                        expected.as_str(),
                        served.as_str()
                    ),
                );
                continue;
            }
            let replica = if eligible {
                t.apply_to_coeff(&coeff)
                    .expect("coeff replica")
                    .encode(&EncodeOptions::default())
                    .expect("replica encode")
            } else {
                let rgb = coeff.to_rgb();
                puppies_jpeg::encode_rgb(
                    &t.apply_to_rgb(&rgb).expect("pixel replica"),
                    coeff.quality_estimate(),
                )
                .expect("replica encode")
            };
            if served_bytes.as_ref() != replica.as_slice() {
                report.fail(
                    case,
                    format!("served bytes diverge from the {} replica", served.as_str()),
                );
            } else {
                report.pass(
                    case,
                    Some(format!("{} ({} bytes)", served.as_str(), replica.len())),
                );
            }
        }
    }

    // Content addressing: same content under two ids shares one entry.
    {
        let case = "serving/content-address/two-ids";
        let server = PspServer::new();
        let a = server
            .upload(bytes.clone(), params.clone())
            .expect("upload");
        let b = server
            .upload(bytes.clone(), params.clone())
            .expect("upload");
        let t = Transformation::Rotate180;
        let ra = server.download_transformed(a, &t).expect("serve a");
        let rb = server.download_transformed(b, &t).expect("serve b");
        let stats = server.cache_stats();
        if ra.0 != rb.0 || ra.1 != rb.1 {
            report.fail(case, "identical content served different bytes");
        } else if stats.hits != 1 || stats.misses != 1 {
            report.fail(
                case,
                format!(
                    "expected one miss then one content-addressed hit, got {} hits / {} misses",
                    stats.hits, stats.misses
                ),
            );
        } else {
            report.pass(case, None);
        }
    }

    // In-place transform: stored result identical with cache on or off.
    {
        let case = "serving/in-place/cache-on-vs-off";
        let on = PspServer::new();
        let off = PspServer::with_config(PspConfig::uncached());
        let id_on = on.upload(bytes.clone(), params.clone()).expect("upload");
        let id_off = off.upload(bytes.clone(), params.clone()).expect("upload");
        let t = Transformation::Scale {
            width: 32,
            height: 24,
            filter: ScaleFilter::Bilinear,
        };
        on.transform(id_on, &t).expect("transform");
        off.transform(id_off, &t).expect("transform");
        let same_bytes = on.download(id_on).expect("dl") == off.download(id_off).expect("dl");
        let same_params =
            on.download_params(id_on).expect("dl") == off.download_params(id_off).expect("dl");
        if same_bytes && same_params {
            report.pass(case, None);
        } else {
            report.fail(case, "in-place transform results depend on caching");
        }
    }

    // Eviction under a starved budget never corrupts answers.
    {
        let case = "serving/eviction/starved-budget";
        let tiny = PspServer::with_config(PspConfig {
            cache_budget_bytes: 8 * 1024,
            ..PspConfig::default()
        });
        let reference = PspServer::with_config(PspConfig::uncached());
        let id_t = tiny.upload(bytes.clone(), params.clone()).expect("upload");
        let id_r = reference
            .upload(bytes.clone(), params.clone())
            .expect("upload");
        let ts = serve_cases();
        let mut bad = None;
        for round in 0..3 {
            for (name, t) in &ts {
                let a = tiny.download_transformed(id_t, t).expect("tiny serve");
                let b = reference
                    .download_transformed(id_r, t)
                    .expect("reference serve");
                if a.0 != b.0 || a.1 != b.1 {
                    bad = Some(format!("round {round}: {name} diverged"));
                }
            }
        }
        let stats = tiny.cache_stats();
        if let Some(diag) = bad {
            report.fail(case, diag);
        } else if stats.evictions == 0 {
            report.fail(
                case,
                format!(
                    "budget {} never evicted ({} resident bytes) — oracle not exercising eviction",
                    stats.capacity_bytes, stats.bytes
                ),
            );
        } else {
            report.pass(
                case,
                Some(format!("{} evictions, answers stable", stats.evictions)),
            );
        }
    }

    // Pixel-fallback re-encode quality tracks the source.
    for source_q in [60u8, 90] {
        let case = format!("serving/quality-derivation/q{source_q}");
        let (qbytes, qparams) = fixture(23, source_q);
        let server = PspServer::new();
        let id = server.upload(qbytes, qparams).expect("upload");
        server
            .transform(
                id,
                &Transformation::Scale {
                    width: 32,
                    height: 24,
                    filter: ScaleFilter::Bilinear,
                },
            )
            .expect("pixel-path transform");
        let stored = CoeffImage::decode(&server.download(id).expect("dl")).expect("decode");
        let got = stored.quality_estimate();
        if got == source_q {
            report.pass(case, None);
        } else {
            report.fail(
                case,
                format!("source quality {source_q}, re-encoded at {got}"),
            );
        }
    }

    report
}
