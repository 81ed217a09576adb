//! `SpeechTree::build` must not pay the allocator per node: a node is an
//! increment over its parent (a catalogue index and two numbers), so the
//! only allocations left are the per-query catalogue, the node arena
//! (sized once) and the child lists of the few thousand inner nodes. Counted
//! with a wrapping global allocator, which is why this test has a binary
//! to itself.

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

#[test]
fn building_the_tree_allocates_less_than_once_per_node() {
    let table = FlightsConfig { rows: 100, seed: 1 }.generate();
    let schema = table.schema();
    // By region and airline: the widest benchmark question, cut at the cap.
    let query = Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(2), LevelId(1))
        .build(schema)
        .unwrap();
    let generator = CandidateGenerator::new(schema, &query, CandidateConfig::default());
    let renderer = Renderer::new(schema, &query);
    let constraints = SpeechConstraints { max_chars: 300, max_refinements: 2 };

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let tree = SpeechTree::build(&generator, &renderer, &constraints, 0.0145, 500_000);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let nodes = tree.tree().node_count();
    assert_eq!(nodes, 500_000);
    assert!(tree.truncated());
    assert!(allocations < nodes, "{allocations} allocations for {nodes} nodes");
}
