//! Chunked scan orders and morsel-driven work sharing.
//!
//! The paper's estimators (Algorithm 3) require that the rows consumed by
//! the sampling cache at any point form a uniform random sample of the
//! table. The original implementation guaranteed this with one global
//! shuffled permutation (`Vec<u32>`, 4 bytes per row) that every scanner
//! random-accessed — correct, but a cache-miss generator at paper scale
//! (5.3M+ rows) and a scaling bottleneck since all threads stride through
//! the same memory stream.
//!
//! This module replaces it with a two-level seeded scheme:
//!
//! 1. **Chunk level** — rows are grouped into fixed-size chunks of
//!    [`CHUNK_ROWS`] contiguous rows and a seeded Fisher–Yates shuffle
//!    permutes the *chunk ids* (a few hundred entries even at 50M rows).
//! 2. **Row level** — inside a chunk, rows are visited through a seeded
//!    bijective index mapper ([`InChunkPerm`]) generated on the fly, so no
//!    per-row permutation vector is ever materialized and all accesses stay
//!    within one chunk's working set (which fits in L2).
//!
//! **Uniformity argument.** A scan prefix of `k` rows consists of some
//! fully-consumed chunks (in seeded chunk order) plus a prefix of the
//! current chunk's in-chunk permutation. For a row `r` in a chunk of size
//! `s` out of `n` equal chunks, the chunk's scan position `c` is uniform on
//! `{0..n-1}` and `r`'s in-chunk rank `j` is uniform on `{0..s-1}`,
//! independently; hence `P(r in prefix) = P(c·s + j < k) = k/(n·s) = k/N`
//! — exactly the inclusion probability of a uniform prefix, so the
//! `e = N · seen/read` estimators stay unbiased. A shorter tail chunk
//! perturbs this by at most `chunk_size/N` in the inclusion probabilities;
//! at paper scale the deviation is below 1.3% and vanishes as rows grow
//! (see DESIGN.md §13 for the full argument and the variance caveat).
//!
//! **Morsel work stealing.** Parallel scanners share a [`MorselPool`]: an
//! atomic counter over the permuted chunk order from which each worker
//! claims whole chunk positions ("morsels"). Workers then stream their
//! morsel privately — no shared memory stream, no per-row coordination —
//! and publish per-position progress so a stopped scan can be snapshotted
//! and later resumed by any number of workers — or replayed: the progress
//! vector names the consumed rows exactly, and a [`MorselPool::consumed`]
//! pool delivers those rows and no others.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Rows per chunk: 64K rows keep one morsel's working set (narrow
/// dictionary columns plus one measure column, one-byte codes or `f64`s)
/// L2-resident.
pub const CHUNK_ROWS: usize = 1 << 16;

/// SplitMix64 finalizer — used to derive independent per-chunk keys from
/// one scan seed.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded bijection on `[0, len)` computed on the fly (no materialized
/// index vector).
///
/// Construction: three rounds of invertible mixing (xor with a key, odd
/// multiplication modulo a power of two, xorshift) permute the next
/// power-of-two domain `[0, 2^bits)`; cycle-walking (re-applying the
/// rounds until the value lands below `len`) restricts that permutation to
/// a bijection on `[0, len)`. Each step is invertible, so the composition
/// is a permutation; cycle-walking of a permutation is the classic
/// domain-restriction trick and terminates because every orbit through a
/// start below `len` re-enters `[0, len)` (at the latest back at the
/// start). Expected walk length is below 2 applications.
#[derive(Debug, Clone, Copy)]
pub struct InChunkPerm {
    len: u32,
    mask: u32,
    shift: u32,
    keys: [u32; 3],
    muls: [u32; 3],
    identity: bool,
}

impl InChunkPerm {
    /// A seeded permutation of `[0, len)`; `key` should already be
    /// well-mixed (see [`ScanOrder::perm`]).
    pub fn new(len: u32, key: u64) -> Self {
        assert!(len > 0, "empty permutation domain");
        let bits = 32 - (len.max(2) - 1).leading_zeros();
        let mask = if bits >= 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let mut k = key;
        let mut keys = [0u32; 3];
        let mut muls = [0u32; 3];
        for r in 0..3 {
            k = splitmix64(k);
            keys[r] = (k as u32) & mask;
            muls[r] = ((k >> 32) as u32) | 1;
        }
        InChunkPerm { len, mask, shift: (bits / 2).max(1), keys, muls, identity: false }
    }

    /// The identity mapping on `[0, len)` (storage-order scans).
    pub fn identity(len: u32) -> Self {
        InChunkPerm { len, mask: 0, shift: 1, keys: [0; 3], muls: [1; 3], identity: true }
    }

    /// Domain size.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` iff the domain is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Map in-chunk scan rank `i` to the in-chunk row index it visits.
    #[inline]
    pub fn apply(&self, i: u32) -> u32 {
        debug_assert!(i < self.len);
        if self.identity {
            return i;
        }
        let mut x = i;
        loop {
            for r in 0..3 {
                x ^= self.keys[r];
                x = x.wrapping_mul(self.muls[r]) & self.mask;
                x ^= x >> self.shift;
            }
            if x < self.len {
                return x;
            }
        }
    }
}

/// One chunk of rows in a [`ScanOrder`]: where it starts, how many rows it
/// covers, and its stable chunk id (the in-chunk permutation key). With
/// append segments, chunk bases are no longer multiples of the chunk size —
/// a sealed partial tail chunk ends its segment wherever the append
/// happened — so the base is materialized per slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    base: usize,
    len: u32,
    id: u32,
}

/// The seeded two-level scan order over a table's rows: a shuffled
/// permutation of chunk slots plus a per-chunk [`InChunkPerm`].
///
/// An order covers one or more **segments** (the seed load plus one
/// segment per append batch). Each segment's chunks are shuffled among
/// themselves with a seed derived from (scan seed, segment index) and the
/// segments are concatenated, so the order of an appended table is the old
/// order verbatim followed by a seeded sub-order of the suffix: a scan
/// prefix of the old table plus a proportional prefix of the suffix is a
/// uniform sample of the grown table, and cached progress vectors stay
/// position-aligned (DESIGN.md §16).
#[derive(Debug, Clone)]
pub struct ScanOrder {
    rows: usize,
    chunk_size: usize,
    seed: u64,
    /// Permuted chunk slots; position `p` in the scan visits
    /// `slots[p]`.
    slots: Vec<Slot>,
    sequential: bool,
}

impl ScanOrder {
    /// Seeded order over `rows` rows with the default [`CHUNK_ROWS`].
    pub fn new(rows: usize, seed: u64) -> Self {
        Self::with_chunk_size(rows, seed, CHUNK_ROWS)
    }

    /// Seeded order with an explicit chunk size (exposed for property
    /// tests over arbitrary geometries).
    pub fn with_chunk_size(rows: usize, seed: u64, chunk_size: usize) -> Self {
        Self::segmented(&[rows], seed, chunk_size)
    }

    /// Seeded order over a segmented table: `segment_rows[s]` rows were
    /// appended in batch `s` (batch 0 is the seed load). Segment 0 is
    /// chunked and shuffled exactly as a single-segment order of the same
    /// row count, so appends never perturb the old-prefix permutation;
    /// each later segment starts a fresh chunk at its first row (the
    /// previous segment's partial tail chunk stays sealed) and is shuffled
    /// with its own derived seed.
    pub fn segmented(segment_rows: &[usize], seed: u64, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let mut slots: Vec<Slot> = Vec::new();
        let mut base = 0usize;
        let mut next_id = 0u32;
        for (s, &seg_rows) in segment_rows.iter().enumerate() {
            let first = slots.len();
            let mut remaining = seg_rows;
            while remaining > 0 {
                let len = remaining.min(chunk_size);
                slots.push(Slot { base, len: len as u32, id: next_id });
                base += len;
                next_id += 1;
                remaining -= len;
            }
            let seg_seed = if s == 0 {
                splitmix64(seed)
            } else {
                splitmix64(splitmix64(seed).wrapping_add(s as u64))
            };
            slots[first..].shuffle(&mut StdRng::seed_from_u64(seg_seed));
        }
        ScanOrder { rows: base, chunk_size, seed, slots, sequential: false }
    }

    /// Storage order (identity at both levels).
    pub fn sequential(rows: usize) -> Self {
        let n_chunks = rows.div_ceil(CHUNK_ROWS);
        let slots = (0..n_chunks)
            .map(|c| Slot {
                base: c * CHUNK_ROWS,
                len: CHUNK_ROWS.min(rows - c * CHUNK_ROWS) as u32,
                id: c as u32,
            })
            .collect();
        ScanOrder { rows, chunk_size: CHUNK_ROWS, seed: 0, slots, sequential: true }
    }

    /// Total rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per (non-sealed) chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunk positions in the scan.
    pub fn n_chunks(&self) -> usize {
        self.slots.len()
    }

    /// Chunk id visited at scan position `pos`.
    pub fn chunk_id(&self, pos: usize) -> u32 {
        self.slots[pos].id
    }

    /// First global row of the chunk at scan position `pos`.
    pub fn chunk_base(&self, pos: usize) -> usize {
        self.slots[pos].base
    }

    /// Rows in the chunk at scan position `pos` (the chunk holding the
    /// final row of a segment may be shorter).
    pub fn chunk_len(&self, pos: usize) -> u32 {
        self.slots[pos].len
    }

    /// The in-chunk permutation for scan position `pos`, keyed by
    /// (seed, chunk id) so every chunk mixes independently. Chunk ids are
    /// global across segments, so a chunk keeps its permutation after
    /// appends.
    pub fn perm(&self, pos: usize) -> InChunkPerm {
        let slot = self.slots[pos];
        if self.sequential {
            return InChunkPerm::identity(slot.len);
        }
        InChunkPerm::new(slot.len, splitmix64(self.seed).wrapping_add(splitmix64(slot.id as u64)))
    }

    /// Global row index visited at (scan position, in-chunk rank) — the
    /// reference definition of the scan order, used by tests.
    pub fn row_at(&self, pos: usize, rank: u32) -> usize {
        self.chunk_base(pos) + self.perm(pos).apply(rank) as usize
    }

    /// Number of leading scan positions whose chunks cover exactly the
    /// first `rows` rows — because segments concatenate, these are the
    /// positions an order over the first `rows` rows (same seed, same
    /// segment boundaries) would visit, in the same order. `rows` must be
    /// a segment boundary of this order.
    ///
    /// Cache repair uses this to mark an old snapshot's coverage as
    /// consumed and scan only the appended suffix.
    pub fn prefix_positions(&self, rows: usize) -> usize {
        let mut covered = 0usize;
        let mut n = 0usize;
        while n < self.slots.len() && covered < rows {
            covered += self.slots[n].len as usize;
            n += 1;
        }
        assert_eq!(covered, rows, "rows is not a segment boundary of this order");
        n
    }

    /// Bytes held by the materialized chunk slots (the only materialized
    /// part of the order; in-chunk permutations are computed on the fly).
    pub fn approx_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }
}

/// One claimed unit of scan work: a chunk position with the resume offset
/// to start from.
#[derive(Debug, Clone, Copy)]
pub struct Morsel {
    /// Scan position in the permuted chunk order.
    pub pos: usize,
    /// First global row of the chunk.
    pub base: usize,
    /// Rows in the chunk (column slices cover all of them).
    pub len: u32,
    /// Scan rank to stop before: `len`, except on a
    /// [`MorselPool::consumed`] pool, where it is the recorded watermark.
    pub end: u32,
    /// Next in-chunk scan rank to deliver (non-zero when resuming).
    pub off: u32,
    /// The chunk's seeded bijection.
    pub perm: InChunkPerm,
}

/// One progress watermark on its own cache line. Each position's owner
/// publishes progress concurrently with other owners; unpadded adjacent
/// `AtomicU32`s would share lines (16 per line — at 200K rows the whole
/// array is one line) and turn independent publishes into ping-pong.
#[derive(Debug)]
#[repr(align(64))]
struct Watermark(AtomicU32);

/// Shared work-stealing pool over a [`ScanOrder`].
///
/// Workers claim whole chunk positions through an atomic counter and
/// publish per-position progress as they stream, so (a) concurrent
/// scanners partition the order with zero overlap and no per-row
/// coordination, and (b) the consumed set at any stop — a prefix of the
/// permuted chunk order with a per-chunk rank watermark — can be
/// snapshotted and resumed by a later scan with any worker count.
#[derive(Debug)]
pub struct MorselPool {
    order: ScanOrder,
    /// Next unclaimed scan position.
    next: AtomicUsize,
    /// Rows consumed per scan position (in-chunk scan ranks `< progress`
    /// are done). Written by the position's owner, read at snapshot time.
    progress: Box<[Watermark]>,
    /// `Some` on a consumed-set pool: the rank each position stops before.
    ends: Option<Box<[u32]>>,
}

impl MorselPool {
    /// A fresh pool over `order`.
    pub fn new(order: ScanOrder) -> Self {
        let progress = (0..order.n_chunks()).map(|_| Watermark(AtomicU32::new(0))).collect();
        MorselPool { order, next: AtomicUsize::new(0), progress, ends: None }
    }

    /// A pool over exactly the consumed set an earlier scan of `order`
    /// recorded ([`MorselPool::progress_vec`]): position `pos` delivers
    /// ranks `0..progress[pos]` and nothing else, so draining it replays
    /// the rows that scan read — in the order one scanner read them — and
    /// a [`MorselPool::resume`]d pool continues with the complement.
    pub fn consumed(order: ScanOrder, progress: &[u32]) -> Self {
        assert!(progress.len() <= order.n_chunks(), "snapshot from a different geometry");
        MorselPool { ends: Some(progress.into()), ..MorselPool::new(order) }
    }

    /// The scan order this pool distributes.
    pub fn order(&self) -> &ScanOrder {
        &self.order
    }

    /// Seed consumption state from an earlier scan's snapshot (per-position
    /// progress, aligned with the permuted chunk order). Must be called
    /// before any claims; claimed positions skip their recorded prefix.
    pub fn resume(&self, progress: &[u32]) {
        assert_eq!(self.next.load(Ordering::Relaxed), 0, "resume before any claims");
        assert!(progress.len() <= self.progress.len(), "snapshot from a different geometry");
        for (slot, &p) in self.progress.iter().zip(progress) {
            slot.0.store(p, Ordering::Relaxed);
        }
    }

    /// Claim the next morsel with unconsumed rows, or `None` when the
    /// order is fully claimed.
    pub fn claim(&self) -> Option<Morsel> {
        let positions = self.ends.as_ref().map_or(self.order.n_chunks(), |e| e.len());
        loop {
            let pos = self.next.fetch_add(1, Ordering::Relaxed);
            if pos >= positions {
                return None;
            }
            let len = self.order.chunk_len(pos);
            let end = self.ends.as_ref().map_or(len, |e| e[pos].min(len));
            let done = self.progress[pos].0.load(Ordering::Relaxed);
            if done < end {
                return Some(Morsel {
                    pos,
                    base: self.order.chunk_base(pos),
                    len,
                    end,
                    off: done,
                    perm: self.order.perm(pos),
                });
            }
        }
    }

    /// Publish progress for a claimed position (`done` rows consumed).
    #[inline]
    pub fn record(&self, pos: usize, done: u32) {
        self.progress[pos].0.store(done, Ordering::Release);
    }

    /// Per-position progress of every claimed position, trailing zeros
    /// trimmed — the snapshot format [`MorselPool::resume`] accepts.
    pub fn progress_vec(&self) -> Vec<u32> {
        let claimed = self.next.load(Ordering::Acquire).min(self.order.n_chunks());
        let mut v: Vec<u32> =
            self.progress[..claimed].iter().map(|p| p.0.load(Ordering::Acquire)).collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }

    /// Total rows consumed across all positions.
    pub fn rows_consumed(&self) -> u64 {
        self.progress.iter().map(|p| p.0.load(Ordering::Acquire) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn in_chunk_perm_is_a_bijection() {
        let mut gen = StdRng::seed_from_u64(0xc0de);
        for case in 0..64 {
            let len = if case < 8 { case + 1 } else { gen.gen_range(1u32..10_000) };
            let perm = InChunkPerm::new(len, gen.gen());
            let mut seen = vec![false; len as usize];
            for i in 0..len {
                let j = perm.apply(i) as usize;
                assert!(!seen[j], "len={len}: rank collision at {j}");
                seen[j] = true;
            }
            assert!(seen.iter().all(|&s| s), "len={len}: not surjective");
        }
    }

    #[test]
    fn two_level_order_visits_every_row_exactly_once() {
        // Property (a): arbitrary (rows, chunk_size, seed) geometries.
        let mut gen = StdRng::seed_from_u64(0x5ca1e);
        for _ in 0..64 {
            let rows = gen.gen_range(1usize..5_000);
            let chunk_size = gen.gen_range(1usize..1_200);
            let order = ScanOrder::with_chunk_size(rows, gen.gen(), chunk_size);
            let mut seen = vec![false; rows];
            for pos in 0..order.n_chunks() {
                for rank in 0..order.chunk_len(pos) {
                    let r = order.row_at(pos, rank);
                    assert!(!seen[r], "row {r} visited twice");
                    seen[r] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "rows={rows} chunk={chunk_size}: rows missed");
        }
    }

    #[test]
    fn segmented_order_keeps_the_old_prefix_stable() {
        // The order of the grown table must start with the old order
        // verbatim — cached progress vectors stay position-aligned.
        let mut gen = StdRng::seed_from_u64(0xadd);
        for _ in 0..32 {
            let n0 = gen.gen_range(1usize..3_000);
            let n1 = gen.gen_range(1usize..1_500);
            let chunk = gen.gen_range(1usize..700);
            let seed = gen.gen();
            let old = ScanOrder::segmented(&[n0], seed, chunk);
            let grown = ScanOrder::segmented(&[n0, n1], seed, chunk);
            assert_eq!(grown.rows(), n0 + n1);
            assert_eq!(grown.prefix_positions(n0), old.n_chunks());
            for pos in 0..old.n_chunks() {
                assert_eq!(grown.chunk_id(pos), old.chunk_id(pos));
                assert_eq!(grown.chunk_base(pos), old.chunk_base(pos));
                assert_eq!(grown.chunk_len(pos), old.chunk_len(pos));
                for rank in 0..old.chunk_len(pos) {
                    assert_eq!(grown.row_at(pos, rank), old.row_at(pos, rank));
                }
            }
        }
    }

    #[test]
    fn segmented_order_visits_every_row_exactly_once() {
        let mut gen = StdRng::seed_from_u64(0x5e9);
        for _ in 0..32 {
            let n_segs = gen.gen_range(2usize..5);
            let segs: Vec<usize> = (0..n_segs).map(|_| gen.gen_range(1usize..1_200)).collect();
            let chunk = gen.gen_range(1usize..500);
            let order = ScanOrder::segmented(&segs, gen.gen(), chunk);
            let rows: usize = segs.iter().sum();
            let mut seen = vec![false; rows];
            for pos in 0..order.n_chunks() {
                for rank in 0..order.chunk_len(pos) {
                    let r = order.row_at(pos, rank);
                    assert!(!seen[r], "row {r} visited twice");
                    seen[r] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "segs={segs:?} chunk={chunk}: rows missed");
        }
    }

    #[test]
    fn single_segment_order_matches_with_chunk_size_exactly() {
        // Appends disabled == byte-identical scan behavior to main.
        for seed in [0u64, 7, 0xdead_beef] {
            let a = ScanOrder::with_chunk_size(10_000, seed, 256);
            let b = ScanOrder::segmented(&[10_000], seed, 256);
            for pos in 0..a.n_chunks() {
                assert_eq!(a.chunk_id(pos), b.chunk_id(pos));
                assert_eq!(a.chunk_base(pos), b.chunk_base(pos));
                assert_eq!(a.chunk_len(pos), b.chunk_len(pos));
            }
        }
    }

    #[test]
    #[should_panic(expected = "segment boundary")]
    fn prefix_positions_rejects_non_boundaries() {
        let order = ScanOrder::segmented(&[100, 50], 3, 10);
        order.prefix_positions(95);
    }

    #[test]
    fn scan_order_is_deterministic_per_seed() {
        let a = ScanOrder::with_chunk_size(10_000, 7, 256);
        let b = ScanOrder::with_chunk_size(10_000, 7, 256);
        let c = ScanOrder::with_chunk_size(10_000, 8, 256);
        let rows = |o: &ScanOrder| {
            (0..o.n_chunks())
                .flat_map(|p| (0..o.chunk_len(p)).map(move |r| o.row_at(p, r)))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&a), rows(&b), "same seed, same order");
        assert_ne!(rows(&a), rows(&c), "different seed, different order");
    }

    #[test]
    fn sequential_order_is_identity() {
        let order = ScanOrder::sequential(CHUNK_ROWS + 17);
        let mut expect = 0usize;
        for pos in 0..order.n_chunks() {
            for rank in 0..order.chunk_len(pos) {
                assert_eq!(order.row_at(pos, rank), expect);
                expect += 1;
            }
        }
        assert_eq!(expect, CHUNK_ROWS + 17);
    }

    #[test]
    fn pool_resume_skips_recorded_prefix() {
        let pool = MorselPool::new(ScanOrder::with_chunk_size(100, 3, 10));
        // A donor consumed 3 full positions and 4 rows of the fourth.
        pool.resume(&[10, 10, 10, 4]);
        assert_eq!(pool.rows_consumed(), 34);
        let m = pool.claim().unwrap();
        assert_eq!((m.pos, m.off), (3, 4), "resumes mid-chunk");
        let m = pool.claim().unwrap();
        assert_eq!((m.pos, m.off), (4, 0));
    }

    #[test]
    fn progress_vec_round_trips_through_resume() {
        let pool = MorselPool::new(ScanOrder::with_chunk_size(100, 3, 10));
        while let Some(m) = pool.claim() {
            // Consume half of each morsel.
            pool.record(m.pos, m.len / 2);
            if m.pos >= 4 {
                break;
            }
        }
        let snap = pool.progress_vec();
        let resumed = MorselPool::new(ScanOrder::with_chunk_size(100, 3, 10));
        resumed.resume(&snap);
        assert_eq!(resumed.rows_consumed(), pool.rows_consumed());
    }

    #[test]
    fn concurrent_claims_partition_the_order() {
        // Property (b): 8 scanners, zero overlap, full coverage.
        let order = ScanOrder::with_chunk_size(50_000, 11, 64);
        let pool = MorselPool::new(order);
        let rows_per_worker: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(m) = pool.claim() {
                            for rank in m.off..m.len {
                                mine.push(m.base + m.perm.apply(rank) as usize);
                            }
                            pool.record(m.pos, m.len);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen = vec![false; 50_000];
        for rows in &rows_per_worker {
            for &r in rows {
                assert!(!seen[r], "row {r} claimed by two workers");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "unclaimed rows remain");
        assert_eq!(pool.rows_consumed(), 50_000);
    }
}
