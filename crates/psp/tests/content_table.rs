//! Every content table the store keeps holds only what a live photo
//! names. Seeded sequences of uploads, in-place transforms and reopens
//! run against a [`DiskStore`] and against a plain model that maps each
//! live id to its `(bytes, params)`. Before each upload or transform the
//! model predicts whether the photo's blobs are framed — exactly when no
//! live photo has that content identity — and from that the exact growth
//! of `wal.log`. After every step the store must serve the model's bytes
//! and params, account the distinct live content once in
//! `storage_footprint_total`, and index one signature per live photo.

use proptest::prelude::*;
use puppies_core::{protect, OwnerKey, ProtectOptions, PublicParams};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::wal::Batch;
use puppies_psp::{DiskStore, PhotoId, PspConfig, PspServer};
use puppies_transform::Transformation;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bytes of an `Upload` or `Transform` record frame.
const RECORD_FRAME: u64 = 85;

type Pair = (Vec<u8>, Vec<u8>);

#[derive(Debug, Clone)]
enum Op {
    /// Upload one of the fixtures; `3` is fixture 0's bitstream under a
    /// second params blob.
    Upload(usize),
    /// Transform a live photo in place, picked by index.
    Transform(usize, bool),
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4).prop_map(Op::Upload),
        (any::<usize>(), any::<bool>()).prop_map(|(pick, flip)| Op::Transform(pick, flip)),
        Just(Op::Reopen),
    ]
}

/// Three small protected photos, plus fixture 0's bytes under a second
/// params blob.
fn fixtures() -> &'static [Pair; 4] {
    static FIXTURES: OnceLock<[Pair; 4]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let photo = |seed: u8| {
            let img = RgbImage::from_fn(32, 32, |x, y| {
                Rgb::new(x as u8 * 7 + seed, y as u8 * 5, seed.wrapping_mul(40))
            });
            let key = OwnerKey::from_seed([seed; 32]);
            let roi = [Rect::new(8, 8, 16, 16)];
            let p = protect(&img, &roi, &key, &ProtectOptions::default()).unwrap();
            (p.bytes, p.params.to_bytes())
        };
        let [a, b, c] = [1, 2, 3].map(photo);
        let mut other = PublicParams::from_bytes(&a.1).unwrap();
        other.image_id ^= 1;
        let alt = (a.0.clone(), other.to_bytes());
        [a, b, c, alt]
    })
}

/// What an in-place transform of `source` stores: the PSP's transform
/// is a pure function of the content and the transformation.
fn transformed(source: &Pair, t: &Transformation) -> Pair {
    let server = PspServer::with_config(PspConfig::uncached());
    let id = server.upload(source.0.clone(), source.1.clone()).unwrap();
    let (bytes, params) = server.download_transformed(id, t).unwrap();
    (bytes.to_vec(), params.to_vec())
}

fn tmp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "puppies_content_table_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> DiskStore {
    DiskStore::open(dir, PspConfig::default(), false).unwrap()
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len())
}

/// Log bytes that storing `pair` appends given the live photos: both
/// blob frames unless a live photo holds that content, plus the record.
fn predicted_growth(live: &BTreeMap<PhotoId, (Pair, bool)>, pair: &Pair) -> u64 {
    let held = live.values().any(|(p, _)| p == pair);
    let blobs = if held {
        0
    } else {
        Batch::blob_frame_len(pair.0.len()) + Batch::blob_frame_len(pair.1.len())
    };
    blobs as u64 + RECORD_FRAME
}

/// The store serves exactly the model's photos and accounts for them.
fn check(store: &DiskStore, live: &BTreeMap<PhotoId, (Pair, bool)>) -> Result<(), TestCaseError> {
    let server = store.server();
    prop_assert_eq!(server.len(), live.len());
    for (&id, ((bytes, params), _)) in live {
        prop_assert_eq!(
            &server.download(id).unwrap()[..],
            &bytes[..],
            "bytes of {:?}",
            id
        );
        prop_assert_eq!(
            &server.download_params(id).unwrap()[..],
            &params[..],
            "params of {:?}",
            id
        );
    }
    let distinct: HashSet<&Pair> = live.values().map(|(p, _)| p).collect();
    let footprint: usize = distinct.iter().map(|(b, p)| b.len() + p.len()).sum();
    prop_assert_eq!(
        server.storage_footprint_total(),
        footprint as u64,
        "footprint"
    );
    prop_assert_eq!(server.sig_index_len(), live.len(), "index entries");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn content_tables_hold_only_what_live_photos_name(
        ops in prop::collection::vec(arb_op(), 1..28),
    ) {
        let fixtures = fixtures();
        let dir = tmp_dir();
        let mut store = open(&dir);
        // Live id → (its content, whether it was transformed in place).
        let mut live: BTreeMap<PhotoId, (Pair, bool)> = BTreeMap::new();
        for op in &ops {
            let before = wal_len(&dir);
            let growth = match op {
                Op::Upload(f) => {
                    let pair = &fixtures[*f];
                    let growth = predicted_growth(&live, pair);
                    let id = store.upload(pair.0.clone(), pair.1.clone()).unwrap();
                    live.insert(id, (pair.clone(), false));
                    growth
                }
                Op::Transform(_, _) if live.is_empty() => 0,
                Op::Transform(pick, flip) => {
                    let id = *live.keys().nth(pick % live.len()).unwrap();
                    let t = if *flip {
                        Transformation::FlipHorizontal
                    } else {
                        Transformation::Rotate180
                    };
                    let (source, done) = live[&id].clone();
                    if done {
                        let err = store.transform(id, &t).unwrap_err();
                        prop_assert!(err.to_string().contains("chain not supported"), "{}", err);
                        0
                    } else {
                        let result = transformed(&source, &t);
                        // The photo being transformed never holds its
                        // result: the result's params record `t`.
                        let growth = predicted_growth(&live, &result);
                        store.transform(id, &t).unwrap();
                        live.insert(id, (result, true));
                        growth
                    }
                }
                Op::Reopen => {
                    drop(store);
                    store = open(&dir);
                    0
                }
            };
            prop_assert_eq!(wal_len(&dir) - before, growth, "after {:?}", op);
            check(&store, &live)?;
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
