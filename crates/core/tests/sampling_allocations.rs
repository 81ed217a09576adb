//! A sampling iteration must not pay the allocator: after warm-up,
//! `Team::sample` allocates a constant per call — the scoped threads'
//! bookkeeping — however many iterations it runs. Each iteration ingests
//! rows, draws an estimate, descends the tree and scores the leaf, and
//! none of that may allocate (the reward once formatted a `String` to
//! round the estimate). Counted with a wrapping global allocator, which is
//! why this test has a binary to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use voxolap_core::sampler::Team;
use voxolap_core::tree::SpeechTree;
use voxolap_core::{CancelToken, HolisticConfig};
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::DimId;
use voxolap_engine::query::{AggFct, Query};
use voxolap_speech::candidates::CandidateGenerator;
use voxolap_speech::render::Renderer;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic and
// allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

// One test, so no other test's allocations run between the counter reads.
#[test]
fn sampling_allocates_per_call_not_per_iteration() {
    let table = FlightsConfig { rows: 200_000, seed: 1 }.generate();
    let schema = table.schema();
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(2), LevelId(1))
        .build(schema)
        .unwrap();
    let config = HolisticConfig::default();
    let mut team = Team::new(&table, &query, &config, 1);
    let overall = team.warmup(config.warmup_rows).expect("an estimate");
    let generator = CandidateGenerator::new(schema, &query, config.candidates.clone());
    let renderer = Renderer::new(schema, &query);
    let tree = SpeechTree::build(&generator, &renderer, &config.constraints, overall, 50_000);
    let never = CancelToken::never();
    let mut sample = |iterations: u64| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let done = team.sample(&tree, SpeechTree::ROOT, |done| done < iterations, &never);
        assert_eq!(done, iterations);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    // Warm-up: the first calls size the descent's path buffer and the
    // ingest batch.
    sample(2_000);
    let (few, many) = (sample(2_000), sample(20_000));
    assert_eq!(few, many, "{few} allocations for 2 000 iterations, {many} for 20 000");
    assert!(many <= 4, "{many} allocations for 20 000 iterations");
}
