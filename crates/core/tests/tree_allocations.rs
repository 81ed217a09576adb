//! `SpeechTree::build` must not pay the allocator per node, nor store what
//! every baseline shares once per baseline: a node is an id into one
//! refinement subtree and a 16-byte row of statistics, so the only
//! allocations left are the per-query catalogue, the subtree's step arena
//! and the statistics (each sized once), whatever the cap. Counted — calls
//! and bytes — with a wrapping global allocator, which is why this test
//! has a binary to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use voxolap_core::tree::SpeechTree;
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::DimId;
use voxolap_engine::query::{AggFct, Query};
use voxolap_speech::candidates::{CandidateConfig, CandidateGenerator};
use voxolap_speech::constraints::SpeechConstraints;
use voxolap_speech::render::Renderer;

/// The system allocator, counting every allocation and reallocation and
/// the bytes each requests.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic and
// allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes requested, tree)` of one build by region and
/// airline — the widest benchmark question, cut at `max_nodes`.
fn build_region_airline(max_nodes: usize) -> (usize, usize, SpeechTree) {
    let table = FlightsConfig { rows: 100, seed: 1 }.generate();
    let schema = table.schema();
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(2), LevelId(1))
        .build(schema)
        .unwrap();
    let generator = CandidateGenerator::new(schema, &query, CandidateConfig::default());
    let renderer = Renderer::new(schema, &query);
    let constraints = SpeechConstraints { max_chars: 300, max_refinements: 2 };

    let (calls, bytes) = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let tree = SpeechTree::build(&generator, &renderer, &constraints, 0.0145, max_nodes);
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - calls;
    (calls, BYTES.load(Ordering::Relaxed) - bytes, tree)
}

// One test, so no other test's allocations run between the counter reads.
#[test]
fn building_the_tree_allocates_less_than_once_per_node() {
    let (allocations, bytes, tree) = build_region_airline(500_000);
    let nodes = tree.tree().node_count();
    assert_eq!(nodes, 500_000);
    assert!(tree.truncated());
    assert!(allocations < nodes, "{allocations} allocations for {nodes} nodes");
    // 16 B of statistics per node, the shared subtree (49 477 steps of
    // 24 B with their child lists) and the catalogue: 9.6 MB.
    assert!(bytes <= 24 * nodes, "{bytes} bytes for {nodes} nodes");

    // The count does not grow with the cap: no allocation per inner node.
    let (fewer, _, small) = build_region_airline(50_000);
    assert_eq!(small.tree().node_count(), 50_000);
    assert!(
        allocations.abs_diff(fewer) < 40,
        "{fewer} allocations at 50 000, {allocations} at 500 000"
    );
}
