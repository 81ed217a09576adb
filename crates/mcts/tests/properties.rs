//! Property-style tests of the UCT tree invariants, driven by seeded
//! random case generation (48 cases per property, mirroring the old
//! proptest configuration).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
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

/// The UCT rules as they were first written, over `Tree`'s public reads:
/// one pass that reservoir-picks among unvisited children as it meets
/// them, then — only when every child is visited — one pass that
/// maximizes the UCT bound with a random tie-break. The library's descent
/// must make the same choices with the same draws.
fn reference_path(
    tree: &Tree<'_, Vec<Vec<NodeId>>>,
    from: NodeId,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    let mut path = vec![from];
    let mut cur = from;
    loop {
        let children = tree.children(cur);
        let Some(mut best) = children.clone().next() else { return path };
        let (mut unvisited_seen, mut pick) = (0usize, None);
        for c in children.clone() {
            if tree.visits(c) == 0 {
                unvisited_seen += 1;
                if rng.gen_range(0..unvisited_seen) == 0 {
                    pick = Some(c);
                }
            }
        }
        if pick.is_none() {
            let ln_n = (tree.visits(cur).max(1) as f64).ln();
            let (mut best_score, mut ties) = (f64::NEG_INFINITY, 0usize);
            for c in children {
                let visits = tree.visits(c) as f64;
                let score = tree.reward(c) / visits + (2.0 * ln_n / visits).sqrt();
                if score > best_score {
                    (best_score, best, ties) = (score, c, 1);
                } else if score == best_score {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = c;
                    }
                }
            }
            pick = Some(best);
        }
        cur = pick.expect("picked");
        path.push(cur);
    }
}

/// Seeded random shapes in random visit states — some nodes unvisited,
/// the rest holding 1 to 70 visits (past the exploration memo's reach)
/// of rewards from a small set, so equal sums at equal visits make exact
/// score ties — descended from every inner node: the library and the
/// reference return the same path and leave the generator in the same
/// state.
#[test]
fn descents_match_the_two_pass_reference_path_and_draws() {
    let mut gen = StdRng::seed_from_u64(0xfeed_0005);
    let (mut descents, mut tied_states) = (0, 0);
    for _ in 0..4 * CASES {
        let depth = gen.gen_range(1..4);
        let branching: Vec<u8> = (0..depth).map(|_| gen.gen_range(1u8..9)).collect();
        let adjacency = build_shape(&branching);
        let stats = Stats::new(adjacency.len());
        let tree = Tree::new(&adjacency, &stats);
        let unvisited = gen.gen_range(0.0..0.6);
        for n in 0..tree.node_count() as u32 {
            if gen.gen_bool(unvisited) {
                continue;
            }
            let visits = if gen.gen_bool(0.7) { gen.gen_range(1..4) } else { gen.gen_range(1..71) };
            for _ in 0..visits {
                tree.update_path(&[NodeId(n)], [0.0, 0.25, 0.5][gen.gen_range(0..3usize)]);
            }
        }
        // Inner nodes whose children are all visited and two of them
        // score alike: the UCT pass breaks a tie there.
        tied_states += (0..tree.node_count() as u32)
            .map(|n| tree.children(NodeId(n)).map(|c| (tree.visits(c), tree.reward(c).to_bits())))
            .filter(|kids| kids.clone().all(|(v, _)| v > 0))
            .filter(|kids| {
                kids.clone().enumerate().any(|(i, a)| kids.clone().skip(i + 1).any(|b| a == b))
            })
            .count();
        for from in (0..tree.node_count() as u32).map(NodeId).filter(|&n| !tree.is_leaf(n)) {
            let seed = gen.gen_range(0u64..1 << 32);
            let (mut lib_rng, mut ref_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut path = Vec::new();
            tree.select_path_into(from, &mut lib_rng, &mut path);
            assert_eq!(
                path,
                reference_path(&tree, from, &mut ref_rng),
                "{branching:?} from {from:?}"
            );
            assert_eq!(lib_rng.next_u64(), ref_rng.next_u64(), "{branching:?} from {from:?}");
            descents += 1;
        }
    }
    assert!(descents > 2_000 && tied_states > 100, "{descents} descents, {tied_states} ties");
}
