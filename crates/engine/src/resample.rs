//! The fixed-size resample (`CA.RESAMPLE`, paper §4.3) and the estimator
//! arithmetic built on it — the estimator of the sequential reference
//! [`SampleCache`](crate::cache::SampleCache). No planner uses it: they
//! draw from the normal posterior of
//! [`ShardedSampleCache`](crate::sharded::ShardedSampleCache)'s running
//! moments instead (DESIGN.md §2). It stays as the subject of the
//! benchmark's `engine.estimate_ns` until that metric moves.
//!
//! The paper fixes the resample size so that one estimate costs the same
//! however many rows the cache holds. `resample_into_scratch` keeps that
//! promise: it draws a partial Fisher–Yates sample and touches
//! O(`amount`) index-pool slots per call, never O(bucket) — see
//! [`ResampleScratch`] for how.

use rand::Rng;

use crate::query::AggFct;

/// Default size of the fixed resample (paper §4.3: "we use a fixed size of
/// 10 samples").
pub const DEFAULT_RESAMPLE_SIZE: usize = 10;

/// Buckets of at most this many times the resample size are drawn from a
/// pool refilled on every call; larger ones from the persistent identity
/// pool. A sequential refill is branch-free and L1-resident, and beats the
/// draw-then-undo of the persistent pool up to roughly 4 000 values at
/// `amount` = 200 (measured on 2 cores: 410 vs 930 ns at 1 000 values,
/// 4 500 vs 780 ns at 50 000); past that its O(bucket) writes dominate
/// the iteration. The rule reads a property of the input, so it is a
/// constant, not a setting.
const REFILL_MAX_RATIO: usize = 16;

/// Reusable buffers for `resample_into` / `estimate_with`: an estimator
/// loop calls these thousands of times per second, and reusing one
/// scratch keeps it allocation-free (the buffers grow to the
/// working size once and are recycled) and its cost independent of how
/// full the cache is.
///
/// One scratch serves buckets of any size, and caches of any resample
/// size, in any order.
#[derive(Debug, Clone, Default)]
pub struct ResampleScratch {
    /// Index pool for buckets above the size rule. **Invariant:** between
    /// calls it is the identity permutation over its whole length, so a
    /// call starts from the same state a refill would build, without
    /// building it. It grows by the missing tail only, and is never
    /// shrunk: slots past the current bucket's length are simply not
    /// drawn from.
    pool: Vec<u32>,
    /// Index pool for buckets under the size rule, refilled per call.
    refill: Vec<u32>,
    /// The drawn resample values.
    pub(crate) out: Vec<f64>,
    /// Pool slots written so far (growth, refills, swaps and undos).
    pool_writes: u64,
}

impl ResampleScratch {
    /// A fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index-pool slots written by all resamples through this scratch so
    /// far — the work of a call as a count, independent of the clock. Per
    /// call on a bucket above the size rule it is at most 4 × the resample
    /// size once the pool has grown to the bucket's length.
    pub fn pool_writes(&self) -> u64 {
        self.pool_writes
    }
}

/// The partial Fisher–Yates draw: `amount` values of `bucket` into `out`
/// through `ix`, which must hold the identity permutation over
/// `bucket.len()` slots. One `gen_range(i..len)` per value, in order — the
/// planners' RNG streams (and `tests/stream_parity.rs`) depend on exactly
/// these calls.
#[inline]
fn draw<R: Rng + ?Sized>(
    ix: &mut [u32],
    bucket: &[f64],
    amount: usize,
    rng: &mut R,
    out: &mut Vec<f64>,
) {
    for i in 0..amount {
        let j = rng.gen_range(i..bucket.len());
        ix.swap(i, j);
        out.push(bucket[ix[i] as usize]);
    }
}

/// Draw `amount` values from `bucket` uniformly without replacement into
/// `scratch.out` (all of them when the bucket is smaller), via a partial
/// Fisher–Yates shuffle over a reused index pool. No allocation after the
/// scratch reaches steady-state capacity, and O(`amount`) pool writes per
/// call on a large bucket.
///
/// A large bucket is drawn from the persistent identity pool and the draw
/// is undone afterwards. The undo needs no log: step `i` swaps slot `i`
/// with a slot `j ≥ i`, so a slot `≥ amount` only ever *receives* what sat
/// in a slot `< amount` — by induction a value `< amount` — and therefore
/// every displaced value `v ≥ amount` ends the draw inside `ix[..amount]`,
/// naming the one slot (`v`) that has to be put back.
pub(crate) fn resample_into_scratch<R: Rng + ?Sized>(
    bucket: &[f64],
    amount: usize,
    rng: &mut R,
    scratch: &mut ResampleScratch,
) {
    let ResampleScratch { pool, refill, out, pool_writes } = scratch;
    out.clear();
    let len = bucket.len();
    if len <= amount {
        out.extend_from_slice(bucket);
        return;
    }
    if len <= amount.saturating_mul(REFILL_MAX_RATIO) {
        refill.clear();
        refill.extend(0..len as u32);
        draw(refill, bucket, amount, rng, out);
        *pool_writes += (len + 2 * amount) as u64;
        return;
    }
    let grown = len.saturating_sub(pool.len());
    pool.extend(pool.len() as u32..len as u32);
    draw(&mut pool[..len], bucket, amount, rng, out);
    let mut restored = 0;
    for i in 0..amount {
        let v = pool[i] as usize;
        if v >= amount {
            pool[v] = v as u32;
            restored += 1;
        }
        pool[i] = i as u32;
    }
    // Two slots per swap, one per reset of `pool[..amount]`, one per
    // displaced slot put back.
    *pool_writes += (grown + 3 * amount + restored) as u64;
}

/// Combine the count estimate `e_c` with a resample `v` into the full
/// estimate triple (shared by the sequential and sharded caches).
pub(crate) fn estimate_from_resample(e_c: f64, v: &[f64]) -> CacheEstimate {
    let mean = if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 };
    let e_s = if v.is_empty() { 0.0 } else { e_c * mean };
    CacheEstimate { count: e_c, sum: e_s, avg: mean }
}

/// A cache-based estimate of one aggregate's count, sum, and average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEstimate {
    /// Estimated row count of the aggregate's scope (`e_C`).
    pub count: f64,
    /// Estimated measure sum (`e_S`).
    pub sum: f64,
    /// Estimated average (`e_A`); `NaN` when no entry is cached.
    pub avg: f64,
}

impl CacheEstimate {
    /// The estimate for a given aggregation function.
    pub fn value(&self, fct: AggFct) -> f64 {
        match fct {
            AggFct::Count => self.count,
            AggFct::Sum => self.sum,
            AggFct::Avg => self.avg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The resample as it was before the persistent pool: refill the whole
    /// index pool, then draw. The reference the differential test holds
    /// [`resample_into_scratch`] to, draw for draw.
    fn refill_resample(
        bucket: &[f64],
        amount: usize,
        rng: &mut StdRng,
        ix: &mut Vec<u32>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if bucket.len() <= amount {
            out.extend_from_slice(bucket);
            return;
        }
        ix.clear();
        ix.extend(0..bucket.len() as u32);
        for i in 0..amount {
            let j = rng.gen_range(i..bucket.len());
            ix.swap(i, j);
            out.push(bucket[ix[i] as usize]);
        }
    }

    /// Distinct values, so equal resamples mean equal drawn indices.
    fn bucket_of(len: usize) -> Vec<f64> {
        (0..len).map(|i| i as f64 + 0.25).collect()
    }

    fn assert_pool_is_identity(scratch: &ResampleScratch) {
        for (slot, &v) in scratch.pool.iter().enumerate() {
            assert_eq!(v as usize, slot, "pool slot {slot} not restored");
        }
    }

    /// Drives one shared scratch and the old loop through `calls` in
    /// lockstep on twin RNGs and asserts, after every call: equal `out`,
    /// equal RNG state, and the identity pool.
    fn assert_matches_refill(seed: u64, calls: impl IntoIterator<Item = (usize, usize)>) {
        let mut scratch = ResampleScratch::new();
        let (mut ref_ix, mut ref_out) = (Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ref_rng = rng.clone();
        let backing = bucket_of(MAX_LEN);
        for (call, (len, amount)) in calls.into_iter().enumerate() {
            let bucket = &backing[..len];
            resample_into_scratch(bucket, amount, &mut rng, &mut scratch);
            refill_resample(bucket, amount, &mut ref_rng, &mut ref_ix, &mut ref_out);
            let at = format!("seed {seed}, call {call}: len {len}, amount {amount}");
            assert_eq!(scratch.out, ref_out, "{at}");
            assert_eq!(format!("{rng:?}"), format!("{ref_rng:?}"), "RNG state, {at}");
            assert_eq!(scratch.out.len(), len.min(amount), "{at}");
            assert_pool_is_identity(&scratch);
        }
    }

    /// Longest bucket the differential tests draw from.
    const MAX_LEN: usize = 100_000;

    /// Every bucket length at which `resample_into_scratch` changes path
    /// for this `amount`, one either side of each, and the extremes.
    fn boundary_lengths(amount: usize) -> Vec<usize> {
        let mut lens = vec![0, 1, MAX_LEN];
        for edge in [amount, amount.saturating_mul(REFILL_MAX_RATIO)] {
            lens.extend([edge.saturating_sub(1), edge, edge.saturating_add(1)]);
        }
        lens.retain(|&l| l <= MAX_LEN);
        lens
    }

    #[test]
    fn resample_matches_the_refill_loop_across_every_boundary() {
        // Up and back down the boundaries, so each is crossed in both
        // directions through one scratch: growth between calls, a bucket
        // emptied by poison recovery (0), a capped reservoir (a length
        // that stops moving), and the copy-out resample of `sampler.rs`'s
        // tests (`usize::MAX`).
        for amount in [1usize, 10, 200, usize::MAX] {
            let mut lens = boundary_lengths(amount);
            lens.sort_unstable();
            let down: Vec<usize> = lens.iter().rev().copied().collect();
            let calls = lens.iter().chain(&down).chain(&lens).map(|&len| (len, amount));
            assert_matches_refill(amount as u64 ^ 0x5eed, calls);
        }
    }

    #[test]
    fn resample_matches_the_refill_loop_on_seeded_walks() {
        // Seeded walks over lengths and resample sizes mixed in one
        // scratch: aggregates of different sizes share it, and so may
        // caches of different resample sizes.
        for seed in 0..6u64 {
            let mut walk = StdRng::seed_from_u64(seed ^ 0xfeed);
            let amounts = [1usize, 10, 100, 200];
            let calls: Vec<(usize, usize)> = (0..60)
                .map(|_| {
                    let amount = amounts[walk.gen_range(0..amounts.len())];
                    let lens = boundary_lengths(amount);
                    let len = match walk.gen_range(0..3) {
                        0 => lens[walk.gen_range(0..lens.len())],
                        1 => walk.gen_range(0..5_000),
                        _ => walk.gen_range(0..=MAX_LEN),
                    };
                    (len, amount)
                })
                .collect();
            assert_matches_refill(seed, calls);
        }
    }

    #[test]
    fn a_growing_bucket_grows_the_pool_by_the_tail_only() {
        let backing = bucket_of(60_000);
        let mut scratch = ResampleScratch::new();
        let mut rng = StdRng::seed_from_u64(9);
        resample_into_scratch(&backing[..50_000], 200, &mut rng, &mut scratch);
        let after_first = scratch.pool_writes();
        assert!(after_first >= 50_000, "the first call builds the pool");
        resample_into_scratch(&backing[..50_500], 200, &mut rng, &mut scratch);
        let grown = scratch.pool_writes() - after_first;
        assert!((500..=500 + 4 * 200).contains(&grown), "500 new slots + the draw, not {grown}");
        // A shrunken bucket (reservoir replacement, poison recovery) reuses
        // the longer pool as it is.
        resample_into_scratch(&backing[..20_000], 200, &mut rng, &mut scratch);
        assert_eq!(scratch.pool.len(), 50_500);
        assert_pool_is_identity(&scratch);
    }

    #[test]
    fn pool_writes_per_call_do_not_depend_on_bucket_length() {
        // The deterministic form of "a sampling iteration costs
        // O(resample size), not O(cache fill)": above the size rule a call
        // writes at most 4 × amount pool slots, whatever the length.
        let backing = bucket_of(1_000_000);
        for amount in [10usize, 100, 200] {
            let mut scratch = ResampleScratch::new();
            let mut rng = StdRng::seed_from_u64(amount as u64);
            let rule = amount * REFILL_MAX_RATIO;
            // Longest first: the pool is grown once, up front.
            for len in [1_000_000, 400_000, 50_000, 2 * rule, rule + 1] {
                resample_into_scratch(&backing[..len], amount, &mut rng, &mut scratch);
                for _ in 0..50 {
                    let before = scratch.pool_writes();
                    resample_into_scratch(&backing[..len], amount, &mut rng, &mut scratch);
                    let writes = scratch.pool_writes() - before;
                    assert!(
                        (3 * amount as u64..=4 * amount as u64).contains(&writes),
                        "{writes} pool writes at len {len}, amount {amount}"
                    );
                }
            }
            // At the rule the refill takes over, and says so in the count.
            let before = scratch.pool_writes();
            resample_into_scratch(&backing[..rule], amount, &mut rng, &mut scratch);
            assert_eq!(scratch.pool_writes() - before, (rule + 2 * amount) as u64);
        }
    }

    #[test]
    fn estimate_value_dispatches_on_fct() {
        let e = CacheEstimate { count: 10.0, sum: 55.0, avg: 5.5 };
        assert_eq!(e.value(AggFct::Count), 10.0);
        assert_eq!(e.value(AggFct::Sum), 55.0);
        assert_eq!(e.value(AggFct::Avg), 5.5);
    }
}
