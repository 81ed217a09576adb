//! # voxolap-mcts
//!
//! The UCT (Upper Confidence bounds applied to Trees) rules of paper
//! Algorithm 2, over **pre-expanded** trees.
//!
//! The paper's planner deviates from typical MCTS applications in that the
//! search tree is generated *in its entirety* during preprocessing — user
//! preference constraints bound its height, so the full tree of speech
//! candidates fits in memory (Theorem A.4: `O(m^k)` nodes). Sampling then
//! repeatedly descends from a root to a leaf, choosing at each node the
//! child maximizing the UCT formula
//!
//! ```text
//! reward/visits + sqrt(2 · ln(parent.visits) / visits)
//! ```
//!
//! with unvisited children prioritized, and adds the reward the caller
//! observed for the leaf to every node on the path.
//!
//! The crate keeps the rules, not the tree. The caller owns the shape and
//! tells the rules a node's children through [`Children`]; the crate keeps
//! one row of [`Stats`] — 16 bytes — per node id. A [`Tree`] is the two
//! borrowed together: the unvisited-first reservoir pick, the UCT score
//! with its random tie-break, the best-mean child and the path update are
//! written once, over whatever shape the caller stores.
//!
//! ## Lock-free parallel sampling
//!
//! Statistics are atomics — visit counts are plain `AtomicU64` counters,
//! reward sums are `f64` updated through a bit-level compare-and-swap loop
//! — so any number of threads can descend and update a shared tree
//! concurrently through `&Stats` without locks. The shape is immutable
//! during sampling (it is fully pre-expanded), which is what makes this
//! safe: threads only race on counters. Every thread runs the same
//! [`Tree::select_path_into`] / [`Tree::update_path`] pair a single thread
//! runs, so one sampler under a fixed seed is bit-reproducible.
//!
//! ```
//! use voxolap_mcts::{NodeId, Stats, Tree};
//! use rand::SeedableRng;
//!
//! // A root with two children, as plain adjacency lists.
//! let (good, bad) = (NodeId(1), NodeId(2));
//! let shape = vec![vec![good, bad], vec![], vec![]];
//! let stats = Stats::new(shape.len());
//! let tree = Tree::new(&shape, &stats);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! for _ in 0..200 {
//!     let path = tree.select_path(NodeId::ROOT, &mut rng);
//!     let reward = if path.last() == Some(&good) { 1.0 } else { 0.0 };
//!     tree.update_path(&path, reward);
//! }
//! assert_eq!(tree.best_child(NodeId::ROOT), Some(good));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

/// Identifier of a node: an index into its tree's [`Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root of every tree.
    pub const ROOT: NodeId = NodeId(0);

    /// Index into the statistics.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape UCT descends: which nodes are a node's children, in a fixed
/// order. The order matters: the reservoir pick among unvisited children
/// and the tie-breaks draw from the RNG in it.
pub trait Children {
    /// The children of `n`, in order (none for a leaf). A clone restarts
    /// the same sequence, so the rules read it more than once per node.
    fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + Clone + '_;

    /// Number of nodes in the shape, the root included.
    fn node_count(&self) -> usize;
}

/// The plain adjacency shape: node `n`'s children are `self[n]`.
impl Children for Vec<Vec<NodeId>> {
    fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + Clone + '_ {
        self[n.index()].iter().copied()
    }

    fn node_count(&self) -> usize {
        self.len()
    }
}

/// Add `delta` to an `f64` stored as bits in an [`AtomicU64`].
#[inline]
fn fetch_add_f64(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// One node's planner statistics (paper Table 4's `visits` / `reward`).
#[derive(Debug, Default)]
struct Stat {
    visits: AtomicU64,
    /// Reward sum as `f64::to_bits`, updated by compare-and-swap.
    reward_bits: AtomicU64,
}

/// One row of statistics per node id, all zero at first: what sampling
/// writes, shared by every thread through `&Stats`.
#[derive(Debug)]
pub struct Stats {
    rows: Box<[Stat]>,
}

impl Stats {
    /// Zeroed statistics for node ids `0..ids`.
    pub fn new(ids: usize) -> Self {
        Stats { rows: std::iter::repeat_with(Stat::default).take(ids).collect() }
    }
}

/// A shape and its statistics, borrowed together: the UCT rules.
#[derive(Debug)]
pub struct Tree<'a, S> {
    shape: &'a S,
    stats: &'a Stats,
}

impl<'a, S: Children> Tree<'a, S> {
    /// The rules over `shape`, whose node ids must index `stats`.
    pub fn new(shape: &'a S, stats: &'a Stats) -> Self {
        Tree { shape, stats }
    }

    /// Children of a node, in order.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + Clone + 'a {
        self.shape.children(n)
    }

    /// `true` iff the node has no children (paper field `isLeaf`).
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.children(n).next().is_none()
    }

    /// Number of times the node appeared on a sampled path.
    pub fn visits(&self, n: NodeId) -> u64 {
        self.stats.rows[n.index()].visits.load(Ordering::Relaxed)
    }

    /// Accumulated reward over all sampled paths through the node.
    pub fn reward(&self, n: NodeId) -> f64 {
        f64::from_bits(self.stats.rows[n.index()].reward_bits.load(Ordering::Relaxed))
    }

    /// Mean observed reward (`NaN` before the first visit).
    pub fn mean_reward(&self, n: NodeId) -> f64 {
        self.reward(n) / self.visits(n) as f64
    }

    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.shape.node_count()
    }

    /// `ST.MaxUctChild`: the child of `n` maximizing the UCT formula.
    /// Unvisited children take absolute priority; ties are broken uniformly
    /// at random (paper Algorithm 2 returns a "random pick" from the
    /// maximizing set).
    ///
    /// Returns `None` for leaves.
    fn max_uct_child<R: Rng + ?Sized>(&self, n: NodeId, rng: &mut R) -> Option<NodeId> {
        let children = self.children(n);
        let mut best = children.clone().next()?;
        // Reservoir-pick among unvisited children.
        let mut unvisited_seen = 0usize;
        let mut pick = None;
        for c in children.clone() {
            if self.visits(c) == 0 {
                unvisited_seen += 1;
                if rng.gen_range(0..unvisited_seen) == 0 {
                    pick = Some(c);
                }
            }
        }
        if pick.is_some() {
            return pick;
        }
        // All children visited: maximize the UCT bound, random tie-break.
        let ln_n = (self.visits(n).max(1) as f64).ln();
        let mut best_score = f64::NEG_INFINITY;
        let mut ties = 0usize;
        for c in children {
            let visits = self.visits(c) as f64;
            let score = self.reward(c) / visits + (2.0 * ln_n / visits).sqrt();
            if score > best_score {
                best_score = score;
                best = c;
                ties = 1;
            } else if score == best_score {
                ties += 1;
                if rng.gen_range(0..ties) == 0 {
                    best = c;
                }
            }
        }
        Some(best)
    }

    /// The child with the highest **mean** reward — exploitation only, used
    /// by the main loop when committing to the next sentence (Algorithm 1
    /// "cannot afford further exploration"); the last of equal maxima.
    /// Unvisited children lose against any visited one. Returns `None` for
    /// leaves.
    pub fn best_child(&self, n: NodeId) -> Option<NodeId> {
        self.children(n)
            .max_by(|&a, &b| self.mean_or_neg_inf(a).total_cmp(&self.mean_or_neg_inf(b)))
    }

    fn mean_or_neg_inf(&self, n: NodeId) -> f64 {
        match self.visits(n) {
            0 => f64::NEG_INFINITY,
            visits => self.reward(n) / visits as f64,
        }
    }

    /// Descend from `from` by UCT choices until a leaf, returning the full
    /// path (including `from`). The caller computes the reward from the
    /// path — the speech planner's depends on every fragment on it, not
    /// just the leaf — and hands it to [`Tree::update_path`].
    pub fn select_path<R: Rng + ?Sized>(&self, from: NodeId, rng: &mut R) -> Vec<NodeId> {
        let mut path = Vec::new();
        self.select_path_into(from, rng, &mut path);
        path
    }

    /// [`Tree::select_path`] into a caller-owned buffer (cleared first), so
    /// a sampling loop reuses one allocation for every descent. Same
    /// choices, same RNG draws.
    pub fn select_path_into<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        rng: &mut R,
        path: &mut Vec<NodeId>,
    ) {
        path.clear();
        path.push(from);
        let mut cur = from;
        while let Some(next) = self.max_uct_child(cur, rng) {
            path.push(next);
            cur = next;
        }
    }

    /// Descend from `from` choosing children uniformly at random — the
    /// no-prioritization ablation of UCT (pure Monte-Carlo sampling without
    /// the exploration/exploitation balance the paper argues for), into a
    /// caller-owned buffer (cleared first).
    pub fn random_path_into<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        rng: &mut R,
        path: &mut Vec<NodeId>,
    ) {
        path.clear();
        path.push(from);
        let mut cur = from;
        loop {
            let children = self.children(cur);
            let count = children.clone().count();
            if count == 0 {
                return;
            }
            cur = children.clone().nth(rng.gen_range(0..count)).expect("counted");
            path.push(cur);
        }
    }

    /// Add `reward` and one visit to every node in `path`
    /// (the statistics update of Algorithm 2's `SAMPLE`).
    pub fn update_path(&self, path: &[NodeId], reward: f64) {
        for &n in path {
            let row = &self.stats.rows[n.index()];
            row.visits.fetch_add(1, Ordering::AcqRel);
            fetch_add_f64(&row.reward_bits, reward);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// A root with `fanout[0]` children, each with `fanout[1]`, and so on:
    /// adjacency lists in breadth-first id order.
    fn uniform(fanout: &[usize]) -> Vec<Vec<NodeId>> {
        let (mut shape, mut level) = (vec![Vec::new()], 0..1);
        for &b in fanout {
            let next = shape.len();
            for n in level {
                shape[n] = (0..b).map(|i| NodeId((shape.len() + i) as u32)).collect();
                shape.resize(shape.len() + b, Vec::new());
            }
            level = next..shape.len();
        }
        shape
    }

    /// One sampling iteration with the leaf's reward from `eval`.
    fn sample(tree: &Tree<'_, Vec<Vec<NodeId>>>, rng: &mut StdRng, eval: fn(NodeId) -> f64) {
        let path = tree.select_path(NodeId::ROOT, rng);
        tree.update_path(&path, eval(*path.last().unwrap()));
    }

    #[test]
    fn arena_structure() {
        // Statistics are one 16-byte row per id, whatever the shape.
        assert_eq!(std::mem::size_of::<Stat>(), 16);
        let shape = uniform(&[2, 1]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.children(NodeId::ROOT).collect::<Vec<_>>(), [NodeId(1), NodeId(2)]);
        assert!(t.is_leaf(NodeId(3)));
        assert!(!t.is_leaf(NodeId(1)));
        assert_eq!((t.visits(NodeId(4)), t.reward(NodeId(4))), (0, 0.0));
    }

    #[test]
    fn unvisited_children_sampled_first() {
        let shape = uniform(&[5]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        let mut r = rng(1);
        for _ in 0..5 {
            sample(&t, &mut r, |_| 0.5);
        }
        // After exactly 5 samples every child was visited exactly once.
        for c in t.children(NodeId::ROOT) {
            assert_eq!(t.visits(c), 1);
        }
    }

    #[test]
    fn sample_updates_whole_path() {
        let shape = uniform(&[1, 1]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        sample(&t, &mut rng(2), |_| 0.7);
        for n in [NodeId::ROOT, NodeId(1), NodeId(2)] {
            assert_eq!(t.visits(n), 1);
            assert!((t.reward(n) - 0.7).abs() < 1e-12);
        }
    }

    /// Two-armed bandit: arm 1 pays 0.9, arm 2 pays 0.1.
    fn bandit(leaf: NodeId) -> f64 {
        if leaf == NodeId(1) {
            0.9
        } else {
            0.1
        }
    }

    #[test]
    fn uct_converges_to_better_arm() {
        let shape = uniform(&[2]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        let mut r = rng(3);
        for _ in 0..500 {
            sample(&t, &mut r, bandit);
        }
        let (a, b) = (NodeId(1), NodeId(2));
        assert!(
            t.visits(a) > 5 * t.visits(b),
            "exploitation dominates: {} vs {}",
            t.visits(a),
            t.visits(b)
        );
        assert_eq!(t.best_child(NodeId::ROOT), Some(a));
    }

    #[test]
    fn exploration_revisits_inferior_arm() {
        // UCT must not starve the worse arm completely.
        let shape = uniform(&[2]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        let mut r = rng(4);
        for _ in 0..300 {
            sample(&t, &mut r, bandit);
        }
        let b = NodeId(2);
        assert!(t.visits(b) >= 5, "inferior arm still explored: {}", t.visits(b));
    }

    #[test]
    fn best_child_ignores_unvisited() {
        let shape = uniform(&[2]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        let a = NodeId(1);
        t.update_path(&[a], 0.2);
        assert_eq!(t.best_child(NodeId::ROOT), Some(a));
    }

    #[test]
    fn max_uct_child_none_for_leaf() {
        let shape = uniform(&[]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        assert_eq!(t.max_uct_child(NodeId::ROOT, &mut rng(6)), None);
        assert_eq!(t.best_child(NodeId::ROOT), None);
    }

    #[test]
    fn select_path_reaches_leaf_and_update_path_accumulates() {
        let shape = uniform(&[1, 1]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        let (a, leaf) = (NodeId(1), NodeId(2));
        let path = t.select_path(NodeId::ROOT, &mut rng(7));
        assert_eq!(path, vec![NodeId::ROOT, a, leaf]);
        t.update_path(&path, 0.4);
        t.update_path(&path[1..], 0.6);
        assert_eq!(t.visits(NodeId::ROOT), 1);
        assert_eq!(t.visits(a), 2);
        assert!((t.reward(a) - 1.0).abs() < 1e-12);
        assert!((t.mean_reward(a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let shape = uniform(&[4, 3]);
            let stats = Stats::new(shape.len());
            let t = Tree::new(&shape, &stats);
            let mut r = rng(seed);
            let mut paths = Vec::new();
            for i in 0..50 {
                let path = t.select_path(NodeId::ROOT, &mut r);
                t.update_path(&path, (i % 7) as f64 / 7.0);
                paths.push(path);
            }
            (paths, t.visits(NodeId::ROOT))
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn into_descents_reuse_a_dirty_buffer_and_match_the_vec_forms() {
        let shape = uniform(&[3, 2]);
        let stats = Stats::new(shape.len());
        let t = Tree::new(&shape, &stats);
        let (mut r1, mut r2) = (rng(13), rng(13));
        // Starts dirty, and stays so: each descent leaves its path behind
        // for the next one to clear.
        let mut path = vec![NodeId(7); 5];
        for i in 0..40 {
            t.random_path_into(NodeId::ROOT, &mut r1, &mut path);
            let mut fresh = Vec::new();
            t.random_path_into(NodeId::ROOT, &mut r2, &mut fresh);
            assert_eq!(path, fresh, "random, iteration {i}");
            t.select_path_into(NodeId::ROOT, &mut r1, &mut path);
            assert_eq!(path, t.select_path(NodeId::ROOT, &mut r2), "uct, iteration {i}");
            // Committing moves the statistics on for the next iteration's
            // UCT choices.
            t.update_path(&path, (i % 5) as f64 / 5.0);
        }
    }
}
