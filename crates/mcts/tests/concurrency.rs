//! Concurrency stress tests: many sampler threads hammer one shared tree
//! and every statistic must survive exactly — the lock-free counters may
//! not lose a single visit or reward under contention.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use voxolap_mcts::{NodeId, Stats, Tree};

const THREADS: usize = 4;
const SAMPLES_PER_THREAD: usize = 5_000;

/// A uniform tree as adjacency lists, ids in breadth-first order.
fn build_shape(branching: &[usize]) -> Vec<Vec<NodeId>> {
    let (mut shape, mut level) = (vec![Vec::new()], 0..1);
    for &b in branching {
        let next = shape.len();
        for n in level {
            shape[n] = (0..b).map(|i| NodeId((shape.len() + i) as u32)).collect();
            shape.resize(shape.len() + b, Vec::new());
        }
        level = next..shape.len();
    }
    shape
}

#[test]
fn no_lost_updates_under_contention() {
    let shape = build_shape(&[4, 3, 2]);
    let stats = Stats::new(shape.len());
    let tree = Tree::new(&shape, &stats);
    let total_reward = AtomicU64::new(0f64.to_bits());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tree = &tree;
            let total_reward = &total_reward;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xbeef + t as u64);
                let mut local = 0.0;
                for _ in 0..SAMPLES_PER_THREAD {
                    let path = tree.select_path(NodeId::ROOT, &mut rng);
                    let leaf = *path.last().unwrap();
                    let reward = (leaf.0 % 11) as f64 / 10.0;
                    tree.update_path(&path, reward);
                    local += reward;
                }
                // Fold the thread's reward into a shared f64 (same CAS
                // idiom the tree uses) for the conservation check below.
                let mut cur = total_reward.load(Ordering::Relaxed);
                loop {
                    let next = (f64::from_bits(cur) + local).to_bits();
                    match total_reward.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => cur = actual,
                    }
                }
            });
        }
    });

    let expected = (THREADS * SAMPLES_PER_THREAD) as u64;

    // Not a single visit lost: the root saw every sample, and each level
    // of the tree accounts for all of them.
    assert_eq!(tree.visits(NodeId::ROOT), expected);
    let root_child_sum: u64 = tree.children(NodeId::ROOT).map(|c| tree.visits(c)).sum();
    assert_eq!(root_child_sum, expected, "sum of root-child visits == total path updates");

    // Per-node flow conservation.
    for n in 0..tree.node_count() as u32 {
        let node = NodeId(n);
        if !tree.is_leaf(node) {
            let child_sum: u64 = tree.children(node).map(|c| tree.visits(c)).sum();
            assert_eq!(tree.visits(node), child_sum, "visit flow at node {n}");
            let child_reward: f64 = tree.children(node).map(|c| tree.reward(c)).sum();
            assert!(
                (tree.reward(node) - child_reward).abs() < 1e-6,
                "reward flow at node {n}: {} vs {}",
                tree.reward(node),
                child_reward
            );
        }
    }

    // Rewards were in [0, 1], so every visited mean must be too.
    for n in 0..tree.node_count() as u32 {
        let node = NodeId(n);
        if tree.visits(node) > 0 {
            let mean = tree.mean_reward(node);
            assert!((0.0..=1.0).contains(&mean), "node {n} mean {mean} outside [0,1]");
        }
    }

    // Root reward sum equals the sum of all observed rewards (no lost or
    // double-counted CAS update).
    let observed = f64::from_bits(total_reward.load(Ordering::Relaxed));
    assert!(
        (tree.reward(NodeId::ROOT) - observed).abs() < 1e-6,
        "root reward {} vs observed {}",
        tree.reward(NodeId::ROOT),
        observed
    );
}

/// A wide tree that stays mostly unvisited (33 289 nodes, 32 768 leaves,
/// 20 000 descents): nearly every descent takes the unvisited-first
/// pick, so threads often visit a counted child before another thread's
/// walk reaches it, and that walk falls through to the UCT pass. Every
/// path must still run parent to child down to a leaf, and no update may
/// be lost.
#[test]
fn wide_unvisited_descents_stay_consistent_under_contention() {
    let shape = build_shape(&[8, 64, 64]);
    let stats = Stats::new(shape.len());
    let tree = Tree::new(&shape, &stats);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tree = &tree;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xcafe + t as u64);
                let mut path = Vec::new();
                for _ in 0..SAMPLES_PER_THREAD {
                    tree.select_path_into(NodeId::ROOT, &mut rng, &mut path);
                    assert_eq!(path.len(), 4, "{path:?}");
                    assert!(tree.is_leaf(path[3]), "{path:?}");
                    for w in path.windows(2) {
                        assert!(tree.children(w[0]).any(|c| c == w[1]), "{path:?}");
                    }
                    tree.update_path(&path, 1.0);
                }
            });
        }
    });
    let expected = (THREADS * SAMPLES_PER_THREAD) as u64;
    assert_eq!(tree.visits(NodeId::ROOT), expected);
    assert_eq!(tree.reward(NodeId::ROOT), expected as f64);
    for n in (0..tree.node_count() as u32).map(NodeId).filter(|&n| !tree.is_leaf(n)) {
        let child_sum: u64 = tree.children(n).map(|c| tree.visits(c)).sum();
        assert_eq!(tree.visits(n), child_sum, "visit flow at {n:?}");
        assert_eq!(tree.reward(n), tree.visits(n) as f64, "reward flow at {n:?}");
    }
}
