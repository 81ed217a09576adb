//! # voxolap-mcts
//!
//! A generic UCT (Upper Confidence bounds applied to Trees) implementation
//! over **pre-expanded** trees, following paper Algorithm 2.
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
//! with unvisited children prioritized, evaluates the leaf with a
//! caller-supplied reward function, and adds the observed reward to every
//! node on the path.
//!
//! ## Lock-free parallel sampling
//!
//! Per-node statistics are atomics — visit counts are plain `AtomicU64`
//! counters, reward sums are `f64` updated through a bit-level
//! compare-and-swap loop — so any number of threads can descend and update
//! a shared tree concurrently through `&Tree` without locks. The tree
//! *structure* is immutable during sampling (it is fully pre-expanded),
//! which is what makes this safe: threads only race on counters. Every
//! thread runs the same [`Tree::select_path_into`] / [`Tree::update_path`]
//! pair a single thread runs, so one sampler under a fixed seed is
//! bit-reproducible.
//!
//! ```
//! use voxolap_mcts::Tree;
//! use rand::SeedableRng;
//!
//! let mut tree = Tree::new("root");
//! let a = tree.add_child(Tree::<&str>::ROOT, "good");
//! let b = tree.add_child(Tree::<&str>::ROOT, "bad");
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! for _ in 0..200 {
//!     tree.sample(Tree::<&str>::ROOT, &mut rng,
//!                 |&data| if data == "good" { 1.0 } else { 0.0 });
//! }
//! assert_eq!(tree.best_child(Tree::<&str>::ROOT), Some(a));
//! let _ = b;
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

/// Identifier of a node in a [`Tree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
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

/// One search-tree node (paper Table 4: text fields live in `data`,
/// `visits`/`reward` are the planner statistics). Statistics are atomic so
/// sampling threads share the node without locking.
#[derive(Debug)]
struct Node<T> {
    data: T,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    visits: AtomicU64,
    /// Reward sum as `f64::to_bits`, updated by compare-and-swap.
    reward_bits: AtomicU64,
}

impl<T> Node<T> {
    fn new(data: T, parent: Option<NodeId>) -> Self {
        Node {
            data,
            parent,
            children: Vec::new(),
            visits: AtomicU64::new(0),
            reward_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    #[inline]
    fn visits(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    #[inline]
    fn reward(&self) -> f64 {
        f64::from_bits(self.reward_bits.load(Ordering::Relaxed))
    }
}

impl<T: Clone> Clone for Node<T> {
    fn clone(&self) -> Self {
        Node {
            data: self.data.clone(),
            parent: self.parent,
            children: self.children.clone(),
            visits: AtomicU64::new(self.visits()),
            reward_bits: AtomicU64::new(self.reward_bits.load(Ordering::Relaxed)),
        }
    }
}

/// An arena-allocated search tree with UCT sampling.
///
/// Structure mutation ([`Tree::add_child`]) takes `&mut self`; all sampling
/// statistics go through `&self` and atomics, so a `&Tree` shared across
/// threads supports concurrent sampling.
#[derive(Debug, Clone)]
pub struct Tree<T> {
    nodes: Vec<Node<T>>,
}

impl<T> Tree<T> {
    /// The root node id of every tree.
    pub const ROOT: NodeId = NodeId(0);

    /// Create a tree holding only a root.
    pub fn new(root_data: T) -> Self {
        Tree { nodes: vec![Node::new(root_data, None)] }
    }

    /// Create a tree holding only a root, with room for `nodes` nodes: a
    /// caller that can bound the size of its pre-expanded tree gets one
    /// arena allocation instead of a doubling series of reallocations.
    pub fn with_capacity(root_data: T, nodes: usize) -> Self {
        let mut arena = Vec::with_capacity(nodes.max(1));
        arena.push(Node::new(root_data, None));
        Tree { nodes: arena }
    }

    /// Add a child under `parent` (paper `ST.AddChild`), returning its id.
    pub fn add_child(&mut self, parent: NodeId, data: T) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(data, Some(parent)));
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Payload of a node.
    pub fn data(&self, n: NodeId) -> &T {
        &self.nodes[n.index()].data
    }

    /// Children of a node.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].children
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// `true` iff the node has no children (paper field `isLeaf`).
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.nodes[n.index()].children.is_empty()
    }

    /// Number of times the node appeared on a sampled path.
    pub fn visits(&self, n: NodeId) -> u64 {
        self.nodes[n.index()].visits()
    }

    /// Accumulated reward over all sampled paths through the node.
    pub fn reward(&self, n: NodeId) -> f64 {
        self.nodes[n.index()].reward()
    }

    /// Mean observed reward (`NaN` before the first visit).
    pub fn mean_reward(&self, n: NodeId) -> f64 {
        let node = &self.nodes[n.index()];
        node.reward() / node.visits() as f64
    }

    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// `ST.MaxUctChild`: the child of `n` maximizing the UCT formula.
    /// Unvisited children take absolute priority; ties are broken uniformly
    /// at random (paper Algorithm 2 returns a "random pick" from the
    /// maximizing set).
    ///
    /// Returns `None` for leaves.
    fn max_uct_child<R: Rng + ?Sized>(&self, n: NodeId, rng: &mut R) -> Option<NodeId> {
        let node = &self.nodes[n.index()];
        if node.children.is_empty() {
            return None;
        }
        // Reservoir-pick among unvisited children.
        let mut unvisited_seen = 0usize;
        let mut pick = None;
        for &c in &node.children {
            if self.nodes[c.index()].visits() == 0 {
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
        let ln_n = (node.visits().max(1) as f64).ln();
        let mut best_score = f64::NEG_INFINITY;
        let mut ties = 0usize;
        let mut best = node.children[0];
        for &c in &node.children {
            let ch = &self.nodes[c.index()];
            let visits = ch.visits() as f64;
            let score = ch.reward() / visits + (2.0 * ln_n / visits).sqrt();
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
    /// "cannot afford further exploration"). Unvisited children lose
    /// against any visited one. Returns `None` for leaves.
    pub fn best_child(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].children.iter().copied().max_by(|&a, &b| {
            let ma = self.mean_or_neg_inf(a);
            let mb = self.mean_or_neg_inf(b);
            ma.total_cmp(&mb)
        })
    }

    fn mean_or_neg_inf(&self, n: NodeId) -> f64 {
        let node = &self.nodes[n.index()];
        let visits = node.visits();
        if visits == 0 {
            f64::NEG_INFINITY
        } else {
            node.reward() / visits as f64
        }
    }

    /// One sampling iteration (paper `ST.Sample` / Algorithm 2 `SAMPLE`):
    /// descend from `from` by UCT until a leaf, evaluate the leaf's payload
    /// with `eval`, and add the returned reward to every node on the path.
    ///
    /// Returns the observed reward.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        rng: &mut R,
        eval: impl FnOnce(&T) -> f64,
    ) -> f64 {
        let path = self.select_path(from, rng);
        let leaf = *path.last().expect("path contains at least `from`");
        let reward = eval(&self.nodes[leaf.index()].data);
        self.update_path(&path, reward);
        reward
    }

    /// Descend from `from` by UCT choices until a leaf, returning the full
    /// path (including `from`). Callers that need the path's payloads to
    /// compute the reward (as the speech planner does — the reward depends
    /// on every fragment on the path, not just the leaf) use this together
    /// with [`Tree::update_path`].
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
            if children.is_empty() {
                return;
            }
            cur = children[rng.gen_range(0..children.len())];
            path.push(cur);
        }
    }

    /// Add `reward` and one visit to every node in `path`
    /// (the statistics update of Algorithm 2's `SAMPLE`).
    pub fn update_path(&self, path: &[NodeId], reward: f64) {
        for &n in path {
            let node = &self.nodes[n.index()];
            node.visits.fetch_add(1, Ordering::AcqRel);
            fetch_add_f64(&node.reward_bits, reward);
        }
    }

    /// Depth of the subtree rooted at `n` (a leaf has depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        self.children(n).iter().map(|&c| 1 + self.depth(c)).max().unwrap_or(0)
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

    #[test]
    fn arena_structure() {
        let mut t = Tree::new(0u32);
        let a = t.add_child(Tree::<u32>::ROOT, 1);
        let b = t.add_child(Tree::<u32>::ROOT, 2);
        let c = t.add_child(a, 3);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.children(Tree::<u32>::ROOT), &[a, b]);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.parent(Tree::<u32>::ROOT), None);
        assert!(t.is_leaf(b));
        assert!(!t.is_leaf(a));
        assert_eq!(*t.data(c), 3);
        assert_eq!(t.depth(Tree::<u32>::ROOT), 2);
    }

    #[test]
    fn unvisited_children_sampled_first() {
        let mut t = Tree::new(());
        for _ in 0..5 {
            t.add_child(Tree::<()>::ROOT, ());
        }
        let mut r = rng(1);
        for _ in 0..5 {
            t.sample(Tree::<()>::ROOT, &mut r, |_| 0.5);
        }
        // After exactly 5 samples every child was visited exactly once.
        for &c in t.children(Tree::<()>::ROOT) {
            assert_eq!(t.visits(c), 1);
        }
    }

    #[test]
    fn sample_updates_whole_path() {
        let mut t = Tree::new("root");
        let mid = t.add_child(Tree::<&str>::ROOT, "mid");
        let leaf = t.add_child(mid, "leaf");
        let mut r = rng(2);
        let reward = t.sample(Tree::<&str>::ROOT, &mut r, |_| 0.7);
        assert_eq!(reward, 0.7);
        for n in [Tree::<&str>::ROOT, mid, leaf] {
            assert_eq!(t.visits(n), 1);
            assert!((t.reward(n) - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn uct_converges_to_better_arm() {
        // Two-armed bandit: arm "a" pays 0.9, arm "b" pays 0.1.
        let mut t = Tree::new("root");
        let a = t.add_child(Tree::<&str>::ROOT, "a");
        let b = t.add_child(Tree::<&str>::ROOT, "b");
        let mut r = rng(3);
        for _ in 0..500 {
            t.sample(Tree::<&str>::ROOT, &mut r, |&d| if d == "a" { 0.9 } else { 0.1 });
        }
        assert!(
            t.visits(a) > 5 * t.visits(b),
            "exploitation dominates: {} vs {}",
            t.visits(a),
            t.visits(b)
        );
        assert_eq!(t.best_child(Tree::<&str>::ROOT), Some(a));
    }

    #[test]
    fn exploration_revisits_inferior_arm() {
        // UCT must not starve the worse arm completely.
        let mut t = Tree::new("root");
        let _a = t.add_child(Tree::<&str>::ROOT, "a");
        let b = t.add_child(Tree::<&str>::ROOT, "b");
        let mut r = rng(4);
        for _ in 0..300 {
            t.sample(Tree::<&str>::ROOT, &mut r, |&d| if d == "a" { 0.9 } else { 0.1 });
        }
        assert!(t.visits(b) >= 5, "inferior arm still explored: {}", t.visits(b));
    }

    #[test]
    fn best_child_ignores_unvisited() {
        let mut t = Tree::new(());
        let a = t.add_child(Tree::<()>::ROOT, ());
        let _b = t.add_child(Tree::<()>::ROOT, ());
        let mut r = rng(5);
        t.sample(a, &mut r, |_| 0.2);
        assert_eq!(t.best_child(Tree::<()>::ROOT), Some(a));
    }

    #[test]
    fn max_uct_child_none_for_leaf() {
        let t = Tree::new(());
        let mut r = rng(6);
        assert_eq!(t.clone().max_uct_child(Tree::<()>::ROOT, &mut r), None);
        assert_eq!(t.best_child(Tree::<()>::ROOT), None);
    }

    #[test]
    fn select_path_reaches_leaf_and_update_path_accumulates() {
        let mut t = Tree::new(0u8);
        let a = t.add_child(Tree::<u8>::ROOT, 1);
        let leaf = t.add_child(a, 2);
        let mut r = rng(7);
        let path = t.select_path(Tree::<u8>::ROOT, &mut r);
        assert_eq!(path, vec![Tree::<u8>::ROOT, a, leaf]);
        t.update_path(&path, 0.4);
        t.update_path(&path[1..], 0.6);
        assert_eq!(t.visits(Tree::<u8>::ROOT), 1);
        assert_eq!(t.visits(a), 2);
        assert!((t.reward(a) - 1.0).abs() < 1e-12);
        assert!((t.mean_reward(a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let build = |seed| {
            let mut t = Tree::new(());
            for _ in 0..4 {
                let c = t.add_child(Tree::<()>::ROOT, ());
                for _ in 0..3 {
                    t.add_child(c, ());
                }
            }
            let mut r = rng(seed);
            let mut rewards = Vec::new();
            for i in 0..50 {
                rewards.push(t.sample(Tree::<()>::ROOT, &mut r, |_| (i % 7) as f64 / 7.0));
            }
            (rewards, t.visits(Tree::<()>::ROOT))
        };
        assert_eq!(build(9), build(9));
    }

    #[test]
    fn clone_copies_statistics() {
        let mut t = Tree::new(());
        let a = t.add_child(Tree::<()>::ROOT, ());
        let mut r = rng(10);
        for _ in 0..7 {
            t.sample(Tree::<()>::ROOT, &mut r, |_| 0.25);
        }
        let t2 = t.clone();
        assert_eq!(t2.visits(a), t.visits(a));
        assert!((t2.reward(a) - t.reward(a)).abs() < 1e-12);
    }

    #[test]
    fn into_descents_reuse_a_dirty_buffer_and_match_the_vec_forms() {
        let mut t = Tree::new(());
        for _ in 0..3 {
            let c = t.add_child(Tree::<()>::ROOT, ());
            for _ in 0..2 {
                t.add_child(c, ());
            }
        }
        let (mut r1, mut r2) = (rng(13), rng(13));
        // Starts dirty, and stays so: each descent leaves its path behind
        // for the next one to clear.
        let mut path = vec![NodeId(7); 5];
        for i in 0..40 {
            t.random_path_into(Tree::<()>::ROOT, &mut r1, &mut path);
            let mut fresh = Vec::new();
            t.random_path_into(Tree::<()>::ROOT, &mut r2, &mut fresh);
            assert_eq!(path, fresh, "random, iteration {i}");
            t.select_path_into(Tree::<()>::ROOT, &mut r1, &mut path);
            assert_eq!(path, t.select_path(Tree::<()>::ROOT, &mut r2), "uct, iteration {i}");
            // Committing moves the statistics on for the next iteration's
            // UCT choices.
            t.update_path(&path, (i % 5) as f64 / 5.0);
        }
    }
}
