//! Seeded operation streams. Every generator of a run derives from the
//! workload seed: images, ROIs, image ids, the operation mix, zipf keys
//! and each connection's stream. The program sees only the generated
//! operations.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An independent generator for stream `name` number `index` of a run.
pub fn stream(seed: u64, name: &str, index: u64) -> ChaCha8Rng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    ChaCha8Rng::seed_from_u64(
        seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ h ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Zipf-distributed ranks over `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty key set");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`, so which keys are hot differs by seed.
pub fn permutation(rng: &mut impl Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// A seeded ranking of `0..classes.len()` that deals the classes out in
/// turn: rank `r` holds an item of class `r % k` while every class has
/// items left, the seed picking which one. The hottest ranks then hold
/// the same mix of classes under every seed; with a plain permutation
/// the class of the top zipf rank alone moved view's p50 by 19% between
/// seeds.
pub fn stratified(rng: &mut impl Rng, classes: &[usize]) -> Vec<usize> {
    let k = classes.iter().max().map_or(0, |c| c + 1);
    let mut groups = vec![Vec::new(); k];
    for (item, &class) in classes.iter().enumerate() {
        groups[class].push(item);
    }
    for group in &mut groups {
        *group = permutation(rng, group.len())
            .into_iter()
            .map(|j| group[j])
            .collect();
    }
    let longest = groups.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|r| groups.iter().filter_map(move |g| g.get(r).copied()))
        .collect()
}

/// Fresh shares a circulation copy may reach back over.
pub const SHARE_HISTORY: usize = 4;

/// One `share` operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ShareOp {
    /// Protect pool photo `photo` under a fresh `image_id`, upload it and
    /// fetch view `view`.
    Fresh {
        photo: usize,
        view: usize,
        image_id: u64,
    },
    /// Re-upload a copy of the `back`-th most recent fresh share of this
    /// connection, recompressed at `quality`, and fetch the same view.
    Circulate { back: usize, quality: u8 },
}

/// Every (photo, view) pair of a set of photos, in a seeded photo
/// order: each photo in turn, under every view in turn. A run therefore
/// uses its photos and views in exact proportion; the seed decides which
/// photos they are and in what order they come.
struct Cycle {
    order: Vec<usize>,
    views: usize,
    k: usize,
}

impl Cycle {
    fn new(rng: &mut impl Rng, photos: std::ops::Range<usize>, views: usize) -> Cycle {
        let offset = photos.start;
        Cycle {
            order: permutation(rng, photos.len())
                .into_iter()
                .map(|p| p + offset)
                .collect(),
            views,
            k: 0,
        }
    }

    fn next_pair(&mut self) -> (usize, usize) {
        let k = self.k;
        self.k += 1;
        (
            self.order[(k / self.views) % self.order.len()],
            k % self.views,
        )
    }
}

/// The operation stream of one `share` connection. One operation in each
/// group of four is a circulation, and one fresh share in each block of
/// eight uses one of the large photos.
pub struct ShareStream {
    rng: ChaCha8Rng,
    n: u64,
    fresh: u64,
    /// The place of the circulation in the current group of operations.
    circulation_slot: u64,
    /// The place of the large photo in the current block of fresh shares.
    large_slot: u64,
    small: Cycle,
    large: Cycle,
}

impl ShareStream {
    /// Photos `0..small` are the small ones, `small..small + large` the
    /// large ones; each is fetched under `views` views.
    pub fn new(seed: u64, conn: u64, small: usize, large: usize, views: usize) -> ShareStream {
        let mut rng = stream(seed, "share.ops", conn);
        ShareStream {
            small: Cycle::new(&mut rng, 0..small, views),
            large: Cycle::new(&mut rng, small..small + large, views),
            rng,
            n: 0,
            fresh: 0,
            circulation_slot: 3,
            large_slot: 7,
        }
    }

    pub fn next_op(&mut self) -> ShareOp {
        let n = self.n;
        self.n += 1;
        // Slots after the first group and block are drawn at random, so
        // the two connections' heavy operations do not run in a fixed
        // phase for a whole run (see `ClusterStream`). The first group
        // shares before it circulates.
        if n % 4 == 0 && n > 0 {
            self.circulation_slot = self.rng.gen_range(0..4);
        }
        if n % 4 == self.circulation_slot {
            let reach = (self.fresh as usize).min(SHARE_HISTORY);
            return ShareOp::Circulate {
                back: self.rng.gen_range(0..reach),
                quality: [55, 70, 85][self.rng.gen_range(0..3)],
            };
        }
        let m = self.fresh;
        self.fresh += 1;
        if m % 8 == 0 && m > 0 {
            self.large_slot = self.rng.gen_range(0..8);
        }
        let (photo, view) = if m % 8 == self.large_slot {
            self.large.next_pair()
        } else {
            self.small.next_pair()
        };
        ShareOp::Fresh {
            photo,
            view,
            image_id: self.rng.gen(),
        }
    }
}

/// One `view` operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ViewOp {
    /// Transformed download of (photo, view) key `key`.
    Transformed(usize),
    /// Download of photo `i`.
    Download(usize),
    /// Params of photo `i`.
    Params(usize),
    /// `POST /search` probing with photo `i`.
    Search(usize),
}

/// The operation stream of one `view` connection: 70% transformed views,
/// 20% downloads and 8% params, zipf(1.1)-skewed, and 2% searches.
///
/// Searches decode their probe, so they make the latency tail. They probe
/// with a photo drawn uniformly from one size class: the tail then does
/// not hinge on which photo the seed made hottest, and the 99th
/// percentile (the middle of the 2% of searches) does not sit on the gap
/// between two size classes.
pub struct ViewStream {
    rng: ChaCha8Rng,
    key_zipf: Zipf,
    photo_zipf: Zipf,
    key_rank: Vec<usize>,
    photo_rank: Vec<usize>,
    probes: Vec<usize>,
}

/// The skew of `view` traffic.
pub const VIEW_ZIPF: f64 = 1.1;

impl ViewStream {
    /// Over (photo, view) keys and stored photos, given by their classes
    /// (see [`stratified`]), with searches probing one of `probes`.
    pub fn new(
        seed: u64,
        conn: u64,
        key_classes: &[usize],
        photo_classes: &[usize],
        probes: &[usize],
    ) -> ViewStream {
        let mut ranks = stream(seed, "view.ranks", 0);
        ViewStream {
            key_rank: stratified(&mut ranks, key_classes),
            photo_rank: stratified(&mut ranks, photo_classes),
            probes: probes.to_vec(),
            rng: stream(seed, "view.ops", conn),
            key_zipf: Zipf::new(key_classes.len(), VIEW_ZIPF),
            photo_zipf: Zipf::new(photo_classes.len(), VIEW_ZIPF),
        }
    }

    pub fn next_op(&mut self) -> ViewOp {
        let roll = self.rng.gen_range(0..100u32);
        if roll < 70 {
            return ViewOp::Transformed(self.key_rank[self.key_zipf.sample(&mut self.rng)]);
        }
        if roll >= 98 {
            return ViewOp::Search(self.probes[self.rng.gen_range(0..self.probes.len())]);
        }
        let photo = self.photo_rank[self.photo_zipf.sample(&mut self.rng)];
        if roll < 90 {
            ViewOp::Download(photo)
        } else {
            ViewOp::Params(photo)
        }
    }
}

/// Uploads a reconstruct may reach back over.
pub const CLUSTER_HISTORY: usize = 8;

/// One `cluster` operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterOp {
    /// k-of-n upload of pool photo `photo`.
    Upload(usize),
    /// Reconstruct the `back`-th most recent upload of this caller.
    Reconstruct(usize),
}

/// The operation stream of one `cluster` caller: groups of one upload
/// and three reconstructs. Uploads cycle through every photo.
pub struct ClusterStream {
    rng: ChaCha8Rng,
    n: u64,
    uploads: usize,
    /// The place of the upload in the current group.
    slot: u64,
    photos: Cycle,
}

impl ClusterStream {
    pub fn new(seed: u64, caller: u64, photos: usize) -> ClusterStream {
        let mut rng = stream(seed, "cluster.ops", caller);
        ClusterStream {
            photos: Cycle::new(&mut rng, 0..photos, 1),
            rng,
            n: 0,
            uploads: 0,
            slot: 0,
        }
    }

    pub fn next_op(&mut self) -> ClusterOp {
        let n = self.n;
        self.n += 1;
        // The first group opens with its upload. Later ones place it at
        // random, so the two callers' uploads do not run in a fixed phase
        // for a whole run: with every fourth operation an upload, the
        // median latency moved by 28% between runs.
        if n % 4 == 0 && n > 0 {
            self.slot = self.rng.gen_range(0..4);
        }
        if n % 4 == self.slot {
            self.uploads += 1;
            ClusterOp::Upload(self.photos.next_pair().0)
        } else {
            ClusterOp::Reconstruct(self.rng.gen_range(0..self.uploads.min(CLUSTER_HISTORY)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(seed: u64, conn: u64) -> Vec<ShareOp> {
        let mut s = ShareStream::new(seed, conn, 14, 2, 4);
        (0..64).map(|_| s.next_op()).collect()
    }

    /// 480 keys in 12 classes over 80 photos in 2, like view's.
    fn view_stream(seed: u64, conn: u64) -> ViewStream {
        let keys: Vec<usize> = (0..480).map(|k| k % 12).collect();
        let photos: Vec<usize> = (0..80).map(|p| p % 2).collect();
        ViewStream::new(seed, conn, &keys, &photos, &[0, 2, 4])
    }

    fn view(seed: u64, conn: u64) -> Vec<ViewOp> {
        let mut s = view_stream(seed, conn);
        (0..256).map(|_| s.next_op()).collect()
    }

    fn cluster(seed: u64, caller: u64) -> Vec<ClusterOp> {
        let mut s = ClusterStream::new(seed, caller, 16);
        (0..64).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_operations() {
        assert_eq!(share(7, 0), share(7, 0));
        assert_eq!(view(7, 1), view(7, 1));
        assert_eq!(cluster(7, 0), cluster(7, 0));
    }

    #[test]
    fn another_seed_or_connection_gives_other_operations() {
        assert_ne!(share(7, 0), share(8, 0));
        assert_ne!(share(7, 0), share(7, 1));
        assert_ne!(view(7, 0), view(8, 0));
        assert_ne!(view(7, 0), view(7, 1));
        assert_ne!(cluster(7, 0), cluster(8, 0));
        assert_ne!(cluster(7, 0), cluster(7, 1));
    }

    #[test]
    fn share_mix_is_exact() {
        let ops = share(3, 0);
        let circulations = ops
            .iter()
            .filter(|op| matches!(op, ShareOp::Circulate { .. }))
            .count();
        assert_eq!(circulations, 16);
        let fresh: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                ShareOp::Fresh { photo, .. } => Some(*photo),
                ShareOp::Circulate { .. } => None,
            })
            .collect();
        for block in fresh.chunks(8) {
            let large = block.iter().filter(|&&photo| photo >= 14).count();
            assert_eq!(large, 1, "block {block:?}");
        }
        for group in ops.chunks(4) {
            let n = group
                .iter()
                .filter(|op| matches!(op, ShareOp::Circulate { .. }))
                .count();
            assert_eq!(n, 1, "group {group:?}");
        }
        // Every small photo under every view once per 56 small shares.
        let mut s = ShareStream::new(3, 0, 14, 2, 4);
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < 56 {
            if let ShareOp::Fresh { photo, view, .. } = s.next_op() {
                if photo < 14 {
                    assert!(
                        seen.insert((photo, view)),
                        "({photo}, {view}) repeated early"
                    );
                }
            }
        }
    }

    #[test]
    fn cluster_mix_is_exact() {
        let ops = cluster(3, 0);
        assert!(matches!(ops[0], ClusterOp::Upload(_)));
        for group in ops.chunks(4) {
            let n = group
                .iter()
                .filter(|op| matches!(op, ClusterOp::Upload(_)))
                .count();
            assert_eq!(n, 1, "group {group:?}");
        }
    }

    #[test]
    fn stratified_ranks_deal_the_classes_out_in_turn() {
        let classes: Vec<usize> = (0..30).map(|i| (i * 7) % 3).collect();
        let ranks = stratified(&mut stream(5, "test", 0), &classes);
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
        for (r, &item) in ranks.iter().enumerate() {
            assert_eq!(classes[item], r % 3);
        }
        assert_ne!(ranks, stratified(&mut stream(6, "test", 0), &classes));
    }

    #[test]
    fn view_mix_follows_the_stated_shares() {
        let mut s = view_stream(11, 0);
        let mut counts = [0usize; 4];
        for _ in 0..100_000 {
            counts[match s.next_op() {
                ViewOp::Transformed(_) => 0,
                ViewOp::Download(_) => 1,
                ViewOp::Params(_) => 2,
                ViewOp::Search(_) => 3,
            }] += 1;
        }
        for (got, want) in counts.iter().zip([70_000, 20_000, 8_000, 2_000]) {
            assert!(
                (*got as f64 - want as f64).abs() < want as f64 * 0.05,
                "{counts:?}"
            );
        }
    }
}
