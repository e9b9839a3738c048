//! Multi-threaded serving stress: ≥8 real OS threads hammer one server
//! with a mixed upload/download/transform workload on overlapping ids.
//! Completion proves freedom from deadlock (every lock in the store is
//! scoped and never held across codec work); afterwards the footprint
//! accounting and cache coherence are checked exactly.

use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::{PhotoId, PspConfig, PspServer};
use puppies_transform::Transformation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn protected_photo(seed: u8, quality: u8) -> (Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(48, 48, |x, y| {
        Rgb::new(
            ((x * 7 + y * 3) as u8).wrapping_add(seed),
            ((x + y * 5) as u8).wrapping_mul(seed | 1),
            seed,
        )
    });
    let key = OwnerKey::from_seed([seed; 32]);
    let protected = protect(
        &img,
        &[Rect::new(8, 8, 16, 16)],
        &key,
        &ProtectOptions::default().with_quality(quality),
    )
    .unwrap();
    (protected.bytes, protected.params.to_bytes())
}

/// Tiny deterministic per-thread RNG (xorshift64*) so the mix is seeded
/// but thread-interleaving stays genuinely racy.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn mixed_ops_from_eight_threads_no_deadlock_and_exact_accounting() {
    const THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 120;
    let server = Arc::new(PspServer::new());
    // A small overlapping id population so threads genuinely collide.
    let fixtures: Vec<(Vec<u8>, Vec<u8>)> = (0..4u8)
        .map(|s| protected_photo(s + 1, 70 + s * 5))
        .collect();
    let mut seed_ids = Vec::new();
    for (b, p) in &fixtures {
        seed_ids.push(server.upload(b.clone(), p.clone()).unwrap());
    }
    let transforms = [
        Transformation::Rotate90,
        Transformation::Rotate180,
        Transformation::FlipHorizontal,
        Transformation::Recompress { quality: 40 },
        Transformation::Scale {
            width: 24,
            height: 24,
            filter: puppies_transform::ScaleFilter::Bilinear,
        },
    ];
    let errors = AtomicU64::new(0);
    thread::scope(|scope| {
        for tid in 0..THREADS {
            let server = &server;
            let fixtures = &fixtures;
            let seed_ids = &seed_ids;
            let transforms = &transforms;
            let errors = &errors;
            scope.spawn(move || {
                let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (tid as u64 + 1));
                for _ in 0..OPS_PER_THREAD {
                    let roll = rng.next() % 100;
                    let id = seed_ids[(rng.next() % seed_ids.len() as u64) as usize];
                    if roll < 15 {
                        let f = &fixtures[(rng.next() % fixtures.len() as u64) as usize];
                        server.upload(f.0.clone(), f.1.clone()).unwrap();
                    } else if roll < 45 {
                        server.download(id).unwrap();
                    } else if roll < 60 {
                        server.download_params(id).unwrap();
                    } else if roll < 90 {
                        let t = &transforms[(rng.next() % transforms.len() as u64) as usize];
                        // Hits either the cached fast path or the full
                        // pipeline; errs only once a concurrent in-place
                        // transform marked the photo as transformed.
                        if server.download_transformed(id, t).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        let t = &transforms[(rng.next() % transforms.len() as u64) as usize];
                        // In-place transforms race each other on the four
                        // shared ids: exactly one wins per id, the rest see
                        // the chain-not-supported error. Both outcomes are
                        // legal; corruption is not.
                        if server.transform(id, t).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    // Footprint accounting survived the races exactly: the incremental
    // total equals a fresh walk over every stored photo, counting each
    // shared allocation once (exact duplicates share their bytes and
    // their params, so re-uploaded fixtures share one buffer of each).
    let mut walked = 0u64;
    let mut count = 0usize;
    let mut seen = std::collections::HashSet::new();
    for id in 0..u64::MAX {
        match server.download(PhotoId(id)) {
            Ok(bytes) => {
                let params = server.download_params(PhotoId(id)).unwrap();
                for blob in [bytes, params] {
                    if seen.insert(blob.as_ptr() as usize) {
                        walked += blob.len() as u64;
                    }
                }
                count += 1;
            }
            Err(_) => break, // ids are dense from 0
        }
    }
    assert_eq!(server.len(), count);
    assert_eq!(server.storage_footprint_total(), walked);
    // Every stored stream still decodes (no torn writes).
    for id in 0..count as u64 {
        let bytes = server.download(PhotoId(id)).unwrap();
        puppies_jpeg::CoeffImage::decode(&bytes).unwrap();
    }
}

#[test]
fn cache_on_vs_off_is_byte_identical_across_worker_counts() {
    // The same workload, served by 1, 2 or 4 threads, must produce
    // byte-identical results with the transform cache on or off. This is the
    // "caching is an optimization, never an observable" guarantee.
    let fixtures: Vec<(Vec<u8>, Vec<u8>)> = (0..3u8)
        .map(|s| protected_photo(s + 10, 65 + s * 10))
        .collect();
    let transforms = [
        Transformation::Rotate90,
        Transformation::FlipVertical,
        Transformation::Recompress { quality: 35 },
        Transformation::Scale {
            width: 32,
            height: 32,
            filter: puppies_transform::ScaleFilter::Box,
        },
    ];
    let run = |config: PspConfig, workers: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
        let server = PspServer::with_config(config);
        let ids: Vec<PhotoId> = fixtures
            .iter()
            .map(|(b, p)| server.upload(b.clone(), p.clone()).unwrap())
            .collect();
        // Repeat each (photo, transform) pair twice so the cached run
        // actually exercises hits.
        let mut requests = Vec::new();
        for _ in 0..2 {
            for &id in &ids {
                for t in &transforms {
                    requests.push((id, t.clone()));
                }
            }
        }
        // Worker w serves requests w, w + workers, ...; the answers are
        // put back in request order.
        let mut results = vec![(Vec::new(), Vec::new()); requests.len()];
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (server, requests) = (&server, &requests);
                    scope.spawn(move || {
                        (w..requests.len())
                            .step_by(workers)
                            .map(|i| {
                                let (id, t) = &requests[i];
                                let (b, p) = server.download_transformed(*id, t).unwrap();
                                (i, (b.to_vec(), p.to_vec()))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, answer) in handle.join().unwrap() {
                    results[i] = answer;
                }
            }
        });
        results
    };
    let reference = run(PspConfig::uncached(), 1);
    for workers in [1usize, 2, 4] {
        let cached = run(PspConfig::default(), workers);
        let uncached = run(PspConfig::uncached(), workers);
        assert_eq!(cached, reference, "cache on, {workers} workers");
        assert_eq!(uncached, reference, "cache off, {workers} workers");
    }
    // Sanity: the cached configuration actually hit.
    let server = PspServer::new();
    let (b, p) = &fixtures[0];
    let id = server.upload(b.clone(), p.clone()).unwrap();
    server
        .download_transformed(id, &Transformation::Rotate90)
        .unwrap();
    server
        .download_transformed(id, &Transformation::Rotate90)
        .unwrap();
    assert_eq!(server.cache_stats().hits, 1);
}
