//! Guard: one share runs every per-image stage on the calling thread.
//!
//! Parallelism on the share path comes from concurrent requests; the
//! worker pool is only for batches of independent requests. This test
//! drives protect → upload → four views → recover on an INRIA-sized photo
//! under a wide ambient pool with tracing on, and fails if any stage fans
//! its image out over the pool. It lives in its own test binary because
//! the trace subscriber is process-global.

use puppies_core::parallel::{with_pool, WorkerPool};
use puppies_core::{shadow, OwnerKey, ProtectOptions, PublicParams};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::PspServer;
use puppies_transform::Transformation;

/// INRIA Holidays stand-in size (`DatasetProfile::inria`).
const WIDTH: u32 = 1224;
const HEIGHT: u32 = 1632;

fn photo() -> RgbImage {
    RgbImage::from_fn(WIDTH, HEIGHT, |x, y| {
        Rgb::new(
            (64 + (x * 5 + y * 2) % 128) as u8,
            (64 + (x * 2 + y * 4) % 128) as u8,
            (64 + (x + y * 3) % 128) as u8,
        )
    })
}

#[test]
fn share_path_never_fans_one_image_out_over_the_pool() {
    let img = photo();
    let key = OwnerKey::from_seed([13u8; 32]);
    let grant = key.grant_all();
    let views = [
        Transformation::Rotate90,
        Transformation::Crop(Rect::new(64, 64, 512, 768)),
        Transformation::Recompress { quality: 50 },
        Transformation::scale_by(WIDTH, HEIGHT, 1, 2).unwrap(),
    ];
    let pool = WorkerPool::new(4);
    let session = puppies_obs::Obs::install();
    with_pool(&pool, || {
        let protected = puppies_core::protect(
            &img,
            &[Rect::new(128, 128, 256, 320), Rect::new(640, 960, 320, 256)],
            &key,
            &ProtectOptions::default().with_image_id(11),
        )
        .unwrap();
        let server = PspServer::new();
        let id = server
            .upload(protected.bytes, protected.params.to_bytes())
            .unwrap();
        for t in &views {
            let (bytes, params) = server.download_transformed(id, t).unwrap();
            let params = PublicParams::from_bytes(&params).unwrap();
            let recovered = shadow::recover_transformed(&bytes, &params, &grant).unwrap();
            let (w, h) = t.output_size(WIDTH, HEIGHT).unwrap();
            assert_eq!((recovered.width(), recovered.height()), (w, h), "{t:?}");
        }
    });
    let obs = session.finish().unwrap();
    let jobs = obs.metrics().counter("pool.jobs").map_or(0, |c| c.get());
    assert_eq!(jobs, 0, "a share stage submitted {jobs} pool job(s)");
    let fanned: Vec<_> = obs
        .spans()
        .into_iter()
        .filter(|s| s.name == "pool.job")
        .collect();
    assert!(
        fanned.is_empty(),
        "{} pool.job span(s) recorded",
        fanned.len()
    );
    // The trace did record the share itself, so an empty result above
    // is not a disabled subscriber.
    assert!(obs.spans().iter().any(|s| s.name == "core.shadow_recover"));
}
