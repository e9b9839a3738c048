//! Gate: once warm, the share path takes every block grid from the pool.
//!
//! One protect → upload → four views → recover round on an INRIA-sized
//! photo warms the `puppies_jpeg::grid` pool; a second round, on a fresh
//! server and under a new image id, must then take no fresh grid. Each
//! round's server is dropped at its end, so the decode memo gives its
//! grids back, as it does when it evicts in a long-running server. This
//! lives in its own test binary because both the pool and the metrics
//! subscriber are process-global.

use puppies_core::{shadow, OwnerKey, ProtectOptions, PublicParams};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_jpeg::grid;
use puppies_obs::Obs;
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

/// protect → upload → four views, each recovered, on a server of its own.
fn share_round(img: &RgbImage, key: &OwnerKey, image_id: u64) {
    let grant = key.grant_all();
    let views = [
        Transformation::Rotate90,
        Transformation::Crop(Rect::new(64, 64, 512, 768)),
        Transformation::Recompress { quality: 50 },
        Transformation::scale_by(WIDTH, HEIGHT, 1, 2).unwrap(),
    ];
    let protected = puppies_core::protect(
        img,
        &[Rect::new(128, 128, 256, 320), Rect::new(640, 960, 320, 256)],
        key,
        &ProtectOptions::default().with_image_id(image_id),
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
}

#[test]
fn second_share_round_takes_no_fresh_grid() {
    let img = photo();
    let key = OwnerKey::from_seed([17u8; 32]);
    let session = Obs::install();
    let count = |name: &str| session.obs().metrics().counter(name).map_or(0, |c| c.get());
    share_round(&img, &key, 21);
    let (fresh, reused) = (count("jpeg.grid.fresh"), count("jpeg.grid.reused"));
    assert!(fresh > 0, "the warm-up round took no fresh grid");
    share_round(&img, &key, 22);
    let fresh_after = count("jpeg.grid.fresh") - fresh;
    let reused_after = count("jpeg.grid.reused") - reused;
    assert_eq!(
        fresh_after, 0,
        "the second round took {fresh_after} fresh grid(s) ({reused_after} reused)"
    );
    assert!(reused_after >= fresh, "{reused_after} grids reused");
    let retained = session
        .obs()
        .metrics()
        .gauge("jpeg.grid.retained_bytes")
        .map_or(0, |g| g.get());
    assert!(retained > 0 && retained as usize <= grid::RETAINED_BYTES_BUDGET);
    assert_eq!(retained as usize, grid::retained_bytes());
    drop(session.finish());
}
