//! Property-style tests of the UCT tree invariants, driven by seeded
//! random case generation (48 cases per property, mirroring the old
//! proptest configuration).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use voxolap_mcts::{NodeId, Stats, Tree};

/// A random tree shape from a branching list, as adjacency lists with ids
/// in breadth-first order.
fn build_shape(branching: &[u8]) -> Vec<Vec<NodeId>> {
    let (mut shape, mut level) = (vec![Vec::new()], 0..1);
    for &b in branching {
        let (next, b) = (shape.len(), b as usize);
        for n in level {
            shape[n] = (0..b).map(|i| NodeId((shape.len() + i) as u32)).collect();
            shape.resize(shape.len() + b, Vec::new());
        }
        level = next..shape.len();
    }
    shape
}

/// One sampling iteration whose reward `eval` reads off the leaf's id.
fn sample(tree: &Tree<'_, Vec<Vec<NodeId>>>, rng: &mut StdRng, eval: impl Fn(u32) -> f64) -> f64 {
    let path = tree.select_path(NodeId::ROOT, rng);
    let reward = eval(path.last().unwrap().0);
    tree.update_path(&path, reward);
    reward
}

/// One random case: a tree shape plus sample/seed parameters.
fn random_case(gen: &mut StdRng, max_depth: usize) -> (Vec<u8>, usize, u64) {
    let depth = gen.gen_range(1..max_depth);
    let shape: Vec<u8> = (0..depth).map(|_| gen.gen_range(1u8..4)).collect();
    let samples = gen.gen_range(1usize..120);
    let seed = gen.gen_range(0u64..64);
    (shape, samples, seed)
}

const CASES: usize = 48;

#[test]
fn visits_flow_conservation() {
    let mut gen = StdRng::seed_from_u64(0xfeed_0001);
    for _ in 0..CASES {
        let (shape, samples, seed) = random_case(&mut gen, 4);
        let adjacency = build_shape(&shape);
        let stats = Stats::new(adjacency.len());
        let tree = Tree::new(&adjacency, &stats);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..samples {
            sample(&tree, &mut rng, |v| (v % 10) as f64 / 10.0);
        }
        // Every sample traverses root -> leaf: the root's visits equal the
        // sample count, and each internal node's visits equal the sum of
        // its children's visits.
        assert_eq!(tree.visits(NodeId::ROOT), samples as u64);
        for n in 0..tree.node_count() as u32 {
            let node = NodeId(n);
            if !tree.is_leaf(node) {
                let child_sum: u64 = tree.children(node).map(|c| tree.visits(c)).sum();
                assert_eq!(tree.visits(node), child_sum, "node {n} shape {shape:?}");
            }
        }
    }
}

#[test]
fn rewards_flow_conservation() {
    let mut gen = StdRng::seed_from_u64(0xfeed_0002);
    for _ in 0..CASES {
        let (shape, samples, seed) = random_case(&mut gen, 4);
        let adjacency = build_shape(&shape);
        let stats = Stats::new(adjacency.len());
        let tree = Tree::new(&adjacency, &stats);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0;
        for _ in 0..samples {
            total += sample(&tree, &mut rng, |v| (v % 7) as f64 / 7.0);
        }
        assert!((tree.reward(NodeId::ROOT) - total).abs() < 1e-9);
        for n in 0..tree.node_count() as u32 {
            let node = NodeId(n);
            if !tree.is_leaf(node) {
                let child_sum: f64 = tree.children(node).map(|c| tree.reward(c)).sum();
                assert!((tree.reward(node) - child_sum).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn select_path_always_ends_at_leaf() {
    let mut gen = StdRng::seed_from_u64(0xfeed_0003);
    for _ in 0..CASES {
        let (shape, _, seed) = random_case(&mut gen, 5);
        let adjacency = build_shape(&shape);
        let stats = Stats::new(adjacency.len());
        let tree = Tree::new(&adjacency, &stats);
        let mut rng = StdRng::seed_from_u64(seed);
        let path = tree.select_path(NodeId::ROOT, &mut rng);
        assert!(tree.is_leaf(*path.last().unwrap()));
        assert_eq!(path[0], NodeId::ROOT);
        // Consecutive path entries are parent/child.
        for w in path.windows(2) {
            assert!(tree.children(w[0]).any(|c| c == w[1]), "{w:?}");
        }
        // Random descent has the same structural guarantees.
        let mut rpath = Vec::new();
        tree.random_path_into(NodeId::ROOT, &mut rng, &mut rpath);
        assert!(tree.is_leaf(*rpath.last().unwrap()));
    }
}

/// Theorems A.4 and A.3 as counts: a uniform tree of branching `m` and
/// depth `k` has `Σᵢ₌₀ᵏ mⁱ` nodes, and one UCT descent touches `k + 1`
/// nodes whose child lists sum to `k·m` — whatever the node count
/// (111 → 27 931 here).
#[test]
fn expansion_is_m_to_the_k_and_a_descent_weighs_k_times_m_children() {
    for (m, k) in [(10u8, 2usize), (30, 2), (10, 3), (30, 3)] {
        let adjacency = build_shape(&vec![m; k]);
        let stats = Stats::new(adjacency.len());
        let tree = Tree::new(&adjacency, &stats);
        let m = m as usize;
        assert_eq!(tree.node_count(), (0..=k as u32).map(|i| m.pow(i)).sum::<usize>());
        // Pre-visit so the UCT formula, not unvisited-first, picks the path.
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..tree.node_count() {
            sample(&tree, &mut rng, |v| (v % 30) as f64 / 30.0);
        }
        let path = tree.select_path(NodeId::ROOT, &mut rng);
        assert_eq!(path.len(), k + 1, "m {m} k {k}");
        let weighed: usize = path.iter().map(|&n| tree.children(n).count()).sum();
        assert_eq!(weighed, k * m, "m {m} k {k}");
    }
}

#[test]
fn mean_rewards_are_bounded_by_observations() {
    let mut gen = StdRng::seed_from_u64(0xfeed_0004);
    for _ in 0..CASES {
        let (shape, samples, seed) = random_case(&mut gen, 4);
        let shape: Vec<u8> = shape.iter().map(|&b| b.min(2)).collect();
        let adjacency = build_shape(&shape);
        let stats = Stats::new(adjacency.len());
        let tree = Tree::new(&adjacency, &stats);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..samples.min(99) {
            sample(&tree, &mut rng, |v| (v % 5) as f64 / 5.0);
        }
        for n in 0..tree.node_count() as u32 {
            let node = NodeId(n);
            if tree.visits(node) > 0 {
                let mean = tree.mean_reward(node);
                assert!((0.0..=0.81).contains(&mean), "mean {mean} outside reward range");
            }
        }
    }
}
