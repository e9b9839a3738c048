//! SERIAL == PARALLEL determinism: running on a worker thread must never
//! change a single byte of output. `protect` is the full pipeline
//! (forward DCT, per-ROI perturbation, optimized-table entropy encode),
//! so comparing its JPEG bytes and parameter wire bytes from the calling
//! thread with those from the threads of a three-worker pool covers every
//! stage at once.

use proptest::prelude::*;
use puppies_core::parallel::WorkerPool;
use puppies_core::{protect, recover, OwnerKey, PrivacyLevel, ProtectOptions, Scheme};
use puppies_image::{Rect, Rgb, RgbImage};

fn test_image(w: u32, h: u32, tone: u8) -> RgbImage {
    RgbImage::from_fn(w, h, |x, y| {
        Rgb::new(
            ((x * 3 + y * 5) % 256) as u8 ^ tone,
            ((x * 2 + y * 7) % 256) as u8,
            ((x + y * 2 + tone as u32) % 256) as u8,
        )
    })
}

/// Observability must be invisible in the output: protecting with a live
/// subscriber — on the calling thread or on pool workers — yields the
/// same bytes as the plain uninstrumented run, and recovery agrees too.
/// This is the determinism guard for the span/metric layer threaded
/// through the pipeline.
#[test]
fn instrumentation_does_not_change_output_bytes() {
    let img = test_image(96, 80, 0x3C);
    let key = OwnerKey::from_seed([9u8; 32]);
    let opts = ProtectOptions::new(Scheme::Zero, PrivacyLevel::Medium);
    let rois = [Rect::new(8, 8, 16, 16), Rect::new(72, 56, 16, 16)];

    // Plain run, no subscriber anywhere.
    let plain = protect(&img, &rois, &key, &opts).unwrap();
    let rec_plain = recover(&plain, &key.grant_all()).unwrap();

    // Instrumented runs, on this thread and in three pool jobs:
    // subscriber installed, spans and metrics live.
    let session = puppies_obs::Obs::install();
    let run = || {
        let protected = protect(&img, &rois, &key, &opts).unwrap();
        let rec = recover(&protected, &key.grant_all()).unwrap();
        (protected, rec)
    };
    let runs = std::iter::once(run()).chain(WorkerPool::new(3).map_indexed(3, |_| run()));
    for (i, (instrumented, rec)) in runs.enumerate() {
        assert_eq!(
            plain.bytes, instrumented.bytes,
            "JPEG bytes diverged in run {i} with a subscriber installed"
        );
        assert_eq!(
            plain.params.to_bytes(),
            instrumented.params.to_bytes(),
            "public parameters diverged in run {i} with a subscriber installed"
        );
        assert_eq!(rec_plain, rec);
    }
    if let Some(obs) = session.finish() {
        // The subscriber really observed the pipeline while producing
        // byte-identical output.
        assert!(obs.span_count() > 0, "no spans recorded during protect");
        let snap = obs.metrics().snapshot();
        assert!(snap
            .histograms
            .iter()
            .any(|(name, h)| name == "core.protect" && h.count >= 3));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn protect_bytes_identical_across_worker_counts(
        seed in any::<[u8; 32]>(),
        tone in any::<u8>(),
        wblocks in 6u32..14,
        hblocks in 6u32..12,
        scheme in prop_oneof![
            Just(Scheme::Naive),
            Just(Scheme::Base),
            Just(Scheme::Compression),
            Just(Scheme::Zero),
        ],
        level in prop_oneof![
            Just(PrivacyLevel::Low),
            Just(PrivacyLevel::Medium),
            Just(PrivacyLevel::High),
        ],
    ) {
        let (w, h) = (wblocks * 8, hblocks * 8);
        let img = test_image(w, h, tone);
        let key = OwnerKey::from_seed(seed);
        let opts = ProtectOptions::new(scheme, level);
        // Two regions so the per-ROI fan-out has real work.
        let rois = [
            Rect::new(8, 8, 16, 16),
            Rect::new(w - 24, h - 24, 16, 16),
        ];

        let run = || {
            let protected = protect(&img, &rois, &key, &opts).unwrap();
            let rec = recover(&protected, &key.grant_all()).unwrap();
            (protected, rec)
        };
        let (serial, rec_serial) = run();
        let on_workers = WorkerPool::new(3).map_indexed(3, |_| run());
        for (job, (parallel, rec_parallel)) in on_workers.iter().enumerate() {
            prop_assert_eq!(
                &serial.bytes, &parallel.bytes,
                "JPEG bytes diverged in pool job {}", job
            );
            prop_assert_eq!(
                serial.params.to_bytes(), parallel.params.to_bytes(),
                "public parameters diverged in pool job {}", job
            );
            // Recovery on a worker matches too (decode + recover_rois).
            prop_assert_eq!(&rec_serial, rec_parallel);
        }
    }
}
