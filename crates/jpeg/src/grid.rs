//! The block-grid recycler: one process-wide pool of `Vec<Block>` grids.
//!
//! Every stage of the PuPPIeS path works on full-size quantized-DCT block
//! grids (perturbation at the sender, permutation or requantization at
//! the PSP, recovery at the receiver). A grid of an INRIA-sized photo is
//! 8 MB; allocated per stage and freed on return, the allocator hands it
//! back to the kernel and the next stage faults every page of its
//! replacement in again. Every grid of the codec ([`crate::Component`]'s
//! blocks) is instead taken here with [`take`], and
//! [`crate::Component`]'s `Drop` gives it back with [`give`], so the pages
//! stay mapped from one request to the next.
//!
//! - **Best fit.** [`take`] hands out the smallest retained grid whose
//!   capacity is at least `n` and at most `2n` blocks; it allocates only
//!   when none fits. The upper end keeps one large photo's grid from being
//!   held by a small photo's decode while the next large one allocates.
//! - **Bounded by bytes.** [`give`] keeps a grid only while the retained
//!   capacity stays within [`RETAINED_BYTES_BUDGET`]; past it the grid is
//!   freed.
//! - **Empty on hand-out.** Grids come out with length 0. The writers are
//!   `push`/`extend`, zero-fill, or the spare-capacity kernels that write
//!   every slot before `set_len`, so safe code never reads the
//!   coefficients of an earlier request.
//! - **One pool.** The server runs a thread per connection; per-thread
//!   pools would each hold memory and hand nothing across threads.
//!
//! Reuse shows on `/metrics` as the `jpeg.grid.fresh` and
//! `jpeg.grid.reused` counters and the `jpeg.grid.retained_bytes` gauge.

use crate::coeff::Block;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Most bytes of freed grids the pool keeps mapped: 96 MiB, twelve grids
/// of an INRIA-sized (1224×1632, 7.6 MiB) photo rounded up. The largest
/// stage on the share path, a PSP view, holds six full-size grids at once
/// (the decoded source, which the decode memo keeps, and the transformed
/// output, three components each), and the benchmark's `share` window
/// runs two connections; DESIGN.md (*Performance & parallelism*) has the
/// sizing.
pub const RETAINED_BYTES_BUDGET: usize = 96 << 20;

/// A byte-bounded pool of empty grids, keyed by capacity in blocks.
struct Recycler {
    budget: usize,
    pool: Mutex<Pool>,
}

struct Pool {
    grids: BTreeMap<usize, Vec<Vec<Block>>>,
    bytes: usize,
    /// While set, every grid given back is filled with it ([`poison`]).
    sentinel: Option<Block>,
}

fn bytes_of(capacity: usize) -> usize {
    capacity * std::mem::size_of::<Block>()
}

fn fill(grid: &mut Vec<Block>, sentinel: &Block) {
    for slot in grid.spare_capacity_mut() {
        slot.write(*sentinel);
    }
}

impl Recycler {
    const fn new(budget: usize) -> Recycler {
        Recycler {
            budget,
            pool: Mutex::new(Pool {
                grids: BTreeMap::new(),
                bytes: 0,
                sentinel: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Pool> {
        // A panic elsewhere cannot leave the pool inconsistent: every
        // update of `grids` and `bytes` completes under the lock.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The best-fitting retained grid for `n` blocks, if any, and the
    /// retained bytes left.
    fn take(&self, n: usize) -> (Option<Vec<Block>>, usize) {
        let mut pool = self.lock();
        let cap = match pool.grids.range_mut(n..=n.saturating_mul(2)).next() {
            Some((&cap, _)) => cap,
            None => return (None, pool.bytes),
        };
        let bucket = pool.grids.get_mut(&cap).expect("bucket just found");
        let grid = bucket.pop().expect("buckets are never empty");
        if bucket.is_empty() {
            pool.grids.remove(&cap);
        }
        pool.bytes -= bytes_of(cap);
        (Some(grid), pool.bytes)
    }

    /// Retains `grid` (emptied) if it fits in the budget; otherwise hands
    /// it back to be freed. Returns the retained bytes, or `None` when the
    /// pool did not change.
    fn give(&self, mut grid: Vec<Block>) -> (Option<Vec<Block>>, Option<usize>) {
        let cap = grid.capacity();
        if cap == 0 {
            return (None, None);
        }
        grid.clear();
        let mut pool = self.lock();
        if pool.bytes + bytes_of(cap) > self.budget {
            return (Some(grid), None);
        }
        if let Some(sentinel) = &pool.sentinel {
            fill(&mut grid, sentinel);
        }
        pool.bytes += bytes_of(cap);
        pool.grids.entry(cap).or_default().push(grid);
        (None, Some(pool.bytes))
    }

    fn retained_bytes(&self) -> usize {
        self.lock().bytes
    }
}

static POOL: Recycler = Recycler::new(RETAINED_BYTES_BUDGET);

/// An empty grid with room for at least `n` blocks: a retained one when
/// one fits, else a fresh allocation.
pub fn take(n: usize) -> Vec<Block> {
    if n == 0 {
        return Vec::new();
    }
    // The gauge is set outside the lock; a racing update can leave it one
    // step stale until the next take or give.
    match POOL.take(n) {
        (Some(grid), retained) => {
            puppies_obs::counted!("jpeg.grid.reused");
            puppies_obs::gauge_set("jpeg.grid.retained_bytes", retained as i64);
            grid
        }
        (None, _) => {
            puppies_obs::counted!("jpeg.grid.fresh");
            Vec::with_capacity(n)
        }
    }
}

/// Gives a grid back to the pool. Its contents are discarded; it is freed
/// instead when retaining it would pass [`RETAINED_BYTES_BUDGET`].
pub fn give(grid: Vec<Block>) {
    // An over-budget grid is freed here, after the pool's lock is released.
    let (_freed, retained) = POOL.give(grid);
    if let Some(retained) = retained {
        puppies_obs::gauge_set("jpeg.grid.retained_bytes", retained as i64);
    }
}

/// Bytes of grid capacity the pool holds now; never above
/// [`RETAINED_BYTES_BUDGET`].
pub fn retained_bytes() -> usize {
    POOL.retained_bytes()
}

/// Frees every retained grid.
pub fn clear() {
    let grids = {
        let mut pool = POOL.lock();
        pool.bytes = 0;
        std::mem::take(&mut pool.grids)
    };
    drop(grids);
    puppies_obs::gauge_set("jpeg.grid.retained_bytes", 0);
}

/// A test hook that makes any read of a recycled grid's old contents
/// show: while `sentinel` is `Some`, the whole capacity of every retained
/// grid, and of every grid given back from now on, is filled with it.
/// `None` stops the filling. Returns how many retained grids it filled.
pub fn poison(sentinel: Option<Block>) -> usize {
    let mut pool = POOL.lock();
    pool.sentinel = sentinel;
    let Some(sentinel) = sentinel else {
        return 0;
    };
    let mut filled = 0;
    for grid in pool.grids.values_mut().flatten() {
        fill(grid, &sentinel);
        filled += 1;
    }
    filled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoeffImage;
    use puppies_image::{Rgb, RgbImage};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts, per thread, reallocations to at least `REALLOC_FLOOR`
    /// bytes: how a grid that grows by `push` shows.
    struct CountReallocs;

    const REALLOC_FLOOR: usize = 4096;

    thread_local! {
        static REALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: every call forwards to `System` unchanged; the counter is a
    // const-initialized thread-local without a destructor, so touching it
    // never allocates.
    unsafe impl GlobalAlloc for CountReallocs {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if new_size >= REALLOC_FLOOR {
                let _ = REALLOCS.try_with(|c| c.set(c.get() + 1));
            }
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: CountReallocs = CountReallocs;

    fn photo(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Rgb::new((x * 7 + y) as u8, (x ^ y) as u8, (x * y / 3) as u8)
        })
    }

    #[test]
    fn take_picks_the_best_fit_within_twice_the_request() {
        let r = Recycler::new(1 << 20);
        for cap in [40, 10, 25, 12] {
            assert!(r.give(Vec::with_capacity(cap)).1.is_some());
        }
        let (g, _) = r.take(11);
        assert_eq!(g.map(|g| g.capacity()), Some(12));
        // 10 is too small for 11, 25 and 40 are more than twice 11.
        let (g, _) = r.take(11);
        assert!(g.is_none());
        let (g, _) = r.take(20);
        assert_eq!(g.map(|g| g.capacity()), Some(25));
        let (g, left) = r.take(20);
        assert_eq!(g.map(|g| g.capacity()), Some(40));
        assert_eq!(left, bytes_of(10));
    }

    #[test]
    fn grids_come_back_empty_and_keep_their_allocation() {
        let r = Recycler::new(1 << 20);
        let mut g: Vec<Block> = Vec::with_capacity(8);
        g.resize(8, [7; 64]);
        let ptr = g.as_ptr();
        r.give(g);
        let (back, left) = r.take(5);
        let back = back.expect("a retained grid fits");
        assert!(back.is_empty());
        assert_eq!((back.as_ptr(), back.capacity(), left), (ptr, 8, 0));
    }

    #[test]
    fn give_frees_what_passes_the_budget() {
        let r = Recycler::new(bytes_of(10));
        assert_eq!(r.give(Vec::with_capacity(6)).1, Some(bytes_of(6)));
        let (freed, retained) = r.give(Vec::with_capacity(6));
        assert_eq!(freed.map(|g| g.capacity()), Some(6));
        assert_eq!(retained, None);
        assert_eq!(r.give(Vec::with_capacity(4)).1, Some(bytes_of(10)));
        // Capacity-0 vectors own no allocation and are never retained.
        assert_eq!(r.give(Vec::new()), (None, None));
        assert_eq!(r.retained_bytes(), bytes_of(10));
    }

    #[test]
    fn retained_bytes_stay_within_budget_under_four_threads() {
        let budget = bytes_of(64);
        let r = Recycler::new(budget);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    let mut held: Vec<Vec<Block>> = Vec::new();
                    for i in 0..200usize {
                        let n = 1 + (i * 7 + t * 13) % 24;
                        let (g, left) = r.take(n);
                        assert!(left <= budget);
                        let mut g = g.unwrap_or_else(|| Vec::with_capacity(n));
                        assert!(g.is_empty() && g.capacity() >= n);
                        g.push([t as i32; 64]);
                        held.push(g);
                        if held.len() > 3 {
                            let (_, retained) = r.give(held.remove(0));
                            assert!(retained.map_or(true, |b| b <= budget));
                        }
                        assert!(r.retained_bytes() <= budget);
                    }
                    for g in held {
                        r.give(g);
                    }
                });
            }
        });
        assert!(r.retained_bytes() <= budget);
    }

    #[test]
    fn recycled_grids_never_show_old_coefficients() {
        // Recycled capacity goes to the spare-capacity writers of
        // `from_rgb` and `from_plane`, to the decoder's pushes and to the
        // transforms; a poisoned pool must change none of their outputs.
        let img = photo(24, 16);
        let fresh = CoeffImage::from_rgb(&img, 75);
        let bytes = fresh.encode(&crate::EncodeOptions::default()).unwrap();
        let plane = &img.to_ycbcr_planes()[0];
        let q = crate::QuantTable::luma(75);
        let fresh_plane = crate::Component::from_plane(1, plane, q.clone());
        for _ in 0..4 {
            give(Vec::with_capacity(6));
        }
        poison(Some([i32::MIN; 64]));
        for _ in 0..3 {
            assert_eq!(CoeffImage::from_rgb(&img, 75), fresh);
            assert_eq!(CoeffImage::decode(&bytes).unwrap(), fresh);
            assert_eq!(fresh.clone(), fresh);
            assert_eq!(
                crate::Component::from_plane(1, plane, q.clone()),
                fresh_plane
            );
        }
        poison(None);
    }

    #[test]
    fn grids_given_back_while_poisoned_are_filled_to_capacity() {
        let r = Recycler::new(1 << 20);
        r.lock().sentinel = Some([-5; 64]);
        let mut g: Vec<Block> = Vec::with_capacity(4);
        g.push([1; 64]);
        r.give(g);
        let mut g = r.take(3).0.expect("a retained grid fits");
        assert!(g.is_empty());
        // SAFETY: the pool filled all 4 slots of the capacity.
        unsafe { g.set_len(4) };
        assert!(g.iter().all(|b| *b == [-5; 64]));
    }

    #[test]
    fn decode_takes_each_grid_once_and_never_grows_it() {
        // 64×64 is 64 blocks per component: a grid that grew by `push`
        // from empty would reallocate past the 4 KiB floor twice.
        let bytes = CoeffImage::from_rgb(&photo(64, 64), 75)
            .encode(&crate::EncodeOptions::default())
            .unwrap();
        let before = REALLOCS.with(Cell::get);
        let img = CoeffImage::decode(&bytes).unwrap();
        assert_eq!(REALLOCS.with(Cell::get), before, "decode reallocated");
        for c in img.components() {
            assert!(c.blocks().len() == 64);
        }
    }

    #[test]
    fn components_give_their_grids_back_on_drop() {
        // 2000 blocks: no other test of this binary takes a grid within a
        // factor of two of that, so the pool's answer is this grid.
        let n = 2000;
        let mut grid = take(n);
        grid.resize(n, [0; 64]);
        let ptr = grid.as_ptr();
        let c = crate::Component::from_blocks(1, 8 * 50, 8 * 40, crate::QuantTable::luma(75), grid)
            .unwrap();
        drop(c);
        let again = take(n);
        assert_eq!(again.as_ptr(), ptr);
        give(again);
        assert!(retained_bytes() <= RETAINED_BYTES_BUDGET);
    }
}
