//! The speech search tree (paper Figure 2, Algorithm 2 `ST.Expand`).
//!
//! The tree is generated **in its entirety** during preprocessing — an
//! unusual choice for MCTS that the paper justifies by the user-preference
//! bound on speech length: the tree's height is at most the fragment budget
//! and its size `O(m^k)` (Theorem A.4). That is only cheap if a node costs
//! next to nothing, and a query has just `m` distinct refinements however
//! many nodes repeat them. So everything that depends on the refinement
//! alone — AST, scope masks, rendered length, predicate-set id — is
//! compiled once per query into a [`RefinementCatalogue`] the tree owns,
//! and a node stores only its *increment* over the parent's speech: a
//! baseline value, or a catalogue index plus the additive delta and the
//! implied value that depend on the path (reference chaining, §3.4).
//! Expansion is then an index loop with no allocation per node: "already
//! used" is a predicate-set-id compare against the path, validity an
//! addition of sentence lengths, and the node arena is sized once from an
//! upper bound on the node count. A path's belief mean for one aggregate is
//! recovered in `O(k)` by walking ancestors (Lemma A.2).
//!
//! A configurable node cap guards against degenerate configurations
//! (very large predicate pools with deep fragment budgets); hitting it
//! marks the tree as truncated in the planner statistics.

use voxolap_data::schema::Schema;
use voxolap_engine::query::Query;
use voxolap_mcts::{NodeId, Tree};
use voxolap_speech::ast::{Baseline, Speech};
use voxolap_speech::candidates::{CandidateGenerator, CatalogueEntry, RefinementCatalogue};
use voxolap_speech::constraints::SpeechConstraints;
use voxolap_speech::render::Renderer;

use crate::holistic::HolisticConfig;
use crate::sampler::calibrated_sigma;

/// Payload of one search-tree node: the increment over the parent's speech.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// The root — represents the preamble, which carries no choices.
    Root,
    /// A baseline statement with its claimed value.
    Baseline(Baseline),
    /// A refinement (delta already accounts for reference chaining through
    /// subsuming ancestors, paper §3.4).
    Refinement {
        /// Index of the refinement in the tree's
        /// [`catalogue`](SpeechTree::catalogue).
        entry: u32,
        /// Additive change applied to in-scope aggregates.
        delta: f64,
        /// The aggregate value this refinement implies for its scope —
        /// the reference for chained finer refinements.
        implied_value: f64,
    },
}

/// The fully expanded speech search tree for one query.
#[derive(Debug)]
pub struct SpeechTree {
    tree: Tree<NodeKind>,
    catalogue: RefinementCatalogue,
    truncated: bool,
    n_aggs: usize,
    /// The estimate the baseline candidates were generated around.
    opened_around: f64,
}

/// A query's speech space, compiled but not expanded: the baseline
/// candidates, the refinement catalogue and the budgets that bound their
/// combinations. [`SpeechSpace::walk`] enumerates it — `ST.Expand`, once —
/// for whoever consumes the nodes: [`SpeechSpace::into_tree`] stores them in
/// an arena for the sampled approaches, the exhaustive scorer
/// (`crate::optimal`) scores each as it goes by and stores none.
pub(crate) struct SpeechSpace<'a> {
    schema: &'a Schema,
    renderer: Renderer<'a>,
    catalogue: RefinementCatalogue,
    baselines: Vec<Baseline>,
    /// The estimate `baselines` were generated around.
    opened_around: f64,
    constraints: SpeechConstraints,
    max_nodes: usize,
    n_aggs: usize,
}

/// What [`SpeechSpace::walk`] tells its consumer, node by node in creation
/// order. A node's depth is its fragment count: the baseline plus each
/// refinement on the path.
pub(crate) trait SpaceVisitor {
    /// The `ordinal`-th baseline candidate opens a path (depth 1).
    fn baseline(&mut self, ordinal: u32, baseline: Baseline);
    /// Catalogue entry `entry` extends the current path to `depth`
    /// fragments, replacing whatever the path held at that depth or below.
    fn refinement(&mut self, depth: usize, entry: u32, delta: f64, implied_value: f64);
}

/// What `ST.Expand` carries down one root-to-leaf path.
struct Walk<'s, V> {
    space: &'s SpeechSpace<'s>,
    visitor: &'s mut V,
    /// Nodes created so far, the root included.
    nodes: usize,
    truncated: bool,
    /// The current path's baseline value.
    baseline: f64,
    /// `(catalogue index, implied value)` of the refinements on the
    /// current path, outermost first.
    path: Vec<(u32, f64)>,
}

impl<'a> SpeechSpace<'a> {
    /// Open a plan: calibrate σ from `overall` (a warm-up estimate, or the
    /// exact grand mean) and compile `cfg`'s speech space around it. Every
    /// approach — sampled or exhaustive — opens through here, so they plan
    /// over the same space under the same belief model. Returns `(σ, space)`.
    pub(crate) fn open(
        schema: &'a Schema,
        query: &'a Query,
        cfg: &HolisticConfig,
        overall: f64,
    ) -> (f64, Self) {
        let sigma = calibrated_sigma(overall, cfg.sigma_override);
        let generator = CandidateGenerator::new(schema, query, cfg.candidates.clone());
        let renderer = Renderer::new(schema, query);
        let max_nodes = cfg.max_tree_nodes;
        (sigma, SpeechSpace::compile(&generator, &renderer, &cfg.constraints, overall, max_nodes))
    }

    fn compile(
        generator: &CandidateGenerator<'a>,
        renderer: &Renderer<'a>,
        constraints: &SpeechConstraints,
        overall_estimate: f64,
        max_nodes: usize,
    ) -> Self {
        SpeechSpace {
            schema: generator.schema(),
            renderer: *renderer,
            catalogue: RefinementCatalogue::compile(generator, renderer),
            baselines: generator.baselines(overall_estimate),
            opened_around: overall_estimate,
            constraints: *constraints,
            max_nodes,
            n_aggs: generator.query().layout().n_aggregates(),
        }
    }

    /// The per-query refinement catalogue.
    pub(crate) fn catalogue(&self) -> &RefinementCatalogue {
        &self.catalogue
    }

    /// Deepest path the fragment budget allows: a baseline and
    /// `max_refinements` refinements.
    pub(crate) fn max_depth(&self) -> usize {
        1 + self.constraints.max_refinements
    }

    /// Enumerate the space (`ST.Expand` from the root): one node per
    /// baseline candidate, then recursively one per valid refinement,
    /// bounded by the constraints and the node cap. Returns the node count
    /// (the root included) and whether the cap cut the enumeration.
    pub(crate) fn walk<V: SpaceVisitor>(&self, visitor: &mut V) -> (usize, bool) {
        let mut walk = Walk {
            space: self,
            visitor,
            nodes: 1,
            truncated: false,
            baseline: 0.0,
            path: Vec::with_capacity(self.constraints.max_refinements),
        };
        for (ordinal, &b) in self.baselines.iter().enumerate() {
            if walk.nodes >= self.max_nodes {
                walk.truncated = true;
                break;
            }
            let speech = Speech { baseline: b, refinements: Vec::new() };
            let chars = self.renderer.baseline_sentence(&speech).chars().count();
            if chars > self.constraints.max_chars {
                continue;
            }
            walk.nodes += 1;
            walk.visitor.baseline(ordinal as u32, b);
            walk.baseline = b.value;
            walk.expand(chars);
        }
        (walk.nodes, walk.truncated)
    }

    /// Store every node of the walk: the arena the sampled approaches
    /// descend and update.
    fn into_tree(self) -> SpeechTree {
        // Every baseline over every sequence of refinements, ignoring what
        // the character budget and used predicates rule out: an upper
        // bound that sizes the node arena once.
        let m = self.catalogue.entries().len();
        let per_baseline = (0..self.constraints.max_refinements)
            .fold(1usize, |below, _| below.saturating_mul(m).saturating_add(1));
        let bound = self.baselines.len().saturating_mul(per_baseline).saturating_add(1);
        let mut arena = Arena {
            tree: Tree::with_capacity(NodeKind::Root, bound.min(self.max_nodes)),
            path: vec![SpeechTree::ROOT; 1 + self.max_depth()],
        };
        let (_, truncated) = self.walk(&mut arena);
        SpeechTree {
            tree: arena.tree,
            catalogue: self.catalogue,
            truncated,
            n_aggs: self.n_aggs,
            opened_around: self.opened_around,
        }
    }

    /// The speech and sentences of one path of the walk — a baseline
    /// ordinal followed by catalogue entry ids, in speaking order. The
    /// empty path is the root: no sentence.
    pub(crate) fn speak(&self, path: &[u32]) -> (Speech, Vec<String>) {
        let Some((&ordinal, entries)) = path.split_first() else {
            return (Speech::baseline_only(0.0), Vec::new());
        };
        let mut speech =
            Speech { baseline: self.baselines[ordinal as usize], refinements: Vec::new() };
        let mut sentences = vec![self.renderer.baseline_sentence(&speech)];
        for &entry in entries {
            let ast = &self.catalogue.entry(entry).ast;
            sentences.push(self.renderer.refinement_sentence(ast));
            speech.refinements.push(ast.clone());
        }
        (speech, sentences)
    }
}

impl<V: SpaceVisitor> Walk<'_, V> {
    /// Recursive expansion below the current path (paper Algorithm 2
    /// `ST.Expand`), whose speech body is `prefix_chars` characters long:
    /// one child per catalogue entry, in catalogue order, whose predicates
    /// the path has not used yet and whose sentence still fits the
    /// character budget.
    fn expand(&mut self, prefix_chars: usize) {
        let SpeechSpace { catalogue, constraints, max_nodes, .. } = self.space;
        if self.path.len() >= constraints.max_refinements {
            return;
        }
        for index in 0..catalogue.entries().len() as u32 {
            let entry = catalogue.entry(index);
            let used =
                |&(anc, _): &(u32, f64)| catalogue.entry(anc).predicate_set == entry.predicate_set;
            if self.path.iter().any(used) {
                continue;
            }
            if self.nodes >= *max_nodes {
                self.truncated = true;
                return;
            }
            // Sentences are joined by one space.
            let chars = prefix_chars + 1 + entry.chars;
            if chars > constraints.max_chars {
                continue;
            }
            let (delta, implied_value) = self.resolve_reference(entry);
            self.nodes += 1;
            self.path.push((index, implied_value));
            self.visitor.refinement(1 + self.path.len(), index, delta, implied_value);
            self.expand(chars);
            self.path.pop();
        }
    }

    /// Resolve the reference value for `entry` appended to the current
    /// path: the implied value of the nearest refinement on the path whose
    /// scope subsumes the new one, or the path's baseline value. Returns
    /// `(delta, implied value)`.
    fn resolve_reference(&self, entry: &CatalogueEntry) -> (f64, f64) {
        let SpeechSpace { schema, catalogue, .. } = self.space;
        let is_anc =
            |dim: voxolap_data::DimId, a: voxolap_data::MemberId, d: voxolap_data::MemberId| {
                schema.dimension(dim).is_ancestor_or_self(a, d)
            };
        let reference = self
            .path
            .iter()
            .rev()
            .find(|&&(anc, _)| catalogue.entry(anc).ast.subsumes(&entry.ast, is_anc))
            .map_or(self.baseline, |&(_, implied)| implied);
        let implied = reference * entry.ast.change.factor();
        (implied - reference, implied)
    }
}

/// The walk's consumer that keeps every node.
struct Arena {
    tree: Tree<NodeKind>,
    /// The node at each depth of the current path, the root first.
    path: Vec<NodeId>,
}

impl SpaceVisitor for Arena {
    fn baseline(&mut self, _ordinal: u32, baseline: Baseline) {
        self.path[1] = self.tree.add_child(SpeechTree::ROOT, NodeKind::Baseline(baseline));
    }

    fn refinement(&mut self, depth: usize, entry: u32, delta: f64, implied_value: f64) {
        let kind = NodeKind::Refinement { entry, delta, implied_value };
        self.path[depth] = self.tree.add_child(self.path[depth - 1], kind);
    }
}

impl SpeechTree {
    /// The root node (represents the preamble).
    pub const ROOT: NodeId = Tree::<NodeKind>::ROOT;

    /// [`SpeechSpace::open`], expanded into the arena. Returns `(σ, tree)`.
    pub(crate) fn open(
        schema: &Schema,
        query: &Query,
        cfg: &HolisticConfig,
        overall: f64,
    ) -> (f64, Self) {
        let (sigma, space) = SpeechSpace::open(schema, query, cfg, overall);
        (sigma, space.into_tree())
    }

    /// Expand the full tree (`ST.Expand` from the root): one child per
    /// baseline candidate around `overall_estimate`, then recursively one
    /// child per valid refinement, bounded by `constraints` and `max_nodes`.
    pub fn build(
        generator: &CandidateGenerator<'_>,
        renderer: &Renderer<'_>,
        constraints: &SpeechConstraints,
        overall_estimate: f64,
        max_nodes: usize,
    ) -> Self {
        SpeechSpace::compile(generator, renderer, constraints, overall_estimate, max_nodes)
            .into_tree()
    }

    /// The per-query refinement catalogue the nodes index into.
    pub fn catalogue(&self) -> &RefinementCatalogue {
        &self.catalogue
    }

    /// The catalogue entry of a refinement node (`None` for the root and
    /// for baselines).
    pub fn refinement(&self, node: NodeId) -> Option<&CatalogueEntry> {
        match self.tree.data(node) {
            NodeKind::Refinement { entry, .. } => Some(self.catalogue.entry(*entry)),
            NodeKind::Root | NodeKind::Baseline(_) => None,
        }
    }

    /// Number of speech fragments at `node` — its depth: the baseline plus
    /// each refinement on the path (0 for the root).
    pub fn fragment_count(&self, node: NodeId) -> usize {
        std::iter::successors(self.tree.parent(node), |&n| self.tree.parent(n)).count()
    }

    /// Reconstruct the speech a node represents by walking to the root.
    pub fn speech_at(&self, node: NodeId) -> Speech {
        let mut baseline = Baseline::point(0.0);
        let mut refinements = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            match self.tree.data(n) {
                NodeKind::Refinement { entry, .. } => {
                    refinements.push(self.catalogue.entry(*entry).ast.clone())
                }
                NodeKind::Baseline(b) => baseline = *b,
                NodeKind::Root => {}
            }
            cur = self.tree.parent(n);
        }
        refinements.reverse();
        Speech { baseline, refinements }
    }

    /// Belief mean `M(a, t)` for the speech at `node` and the aggregate with
    /// decomposed coordinates `coords` — `O(k)` ancestor walk (Lemma A.2).
    pub fn mean_for(&self, node: NodeId, coords: &[u32]) -> f64 {
        let n = self.n_aggs as f64;
        let mut mean = 0.0;
        let mut cur = Some(node);
        while let Some(nid) = cur {
            match self.tree.data(nid) {
                NodeKind::Refinement { entry, delta, .. } => {
                    let scope = &self.catalogue.entry(*entry).scope;
                    let m = scope.size() as f64;
                    if scope.contains_coords(coords) {
                        mean += delta;
                    } else if m < n {
                        mean -= m * delta / (n - m);
                    }
                }
                NodeKind::Baseline(b) => mean += b.value,
                NodeKind::Root => {}
            }
            cur = self.tree.parent(nid);
        }
        mean
    }

    /// The child of `node` a sampled plan commits to — the one rule of the
    /// holistic rounds and of Unmerged. With a visited child, the best mean
    /// reward among the visited ones (`Tree::best_child`: the last of equal
    /// maxima). With none, at the root, the baseline candidate nearest the
    /// estimate the tree was opened around (the first of equal distances),
    /// so a run cut before its first sample still says something
    /// defensible; below the root, nothing.
    pub fn commit_child(&self, node: NodeId) -> Option<NodeId> {
        let best = self.tree.best_child(node)?;
        if self.tree.visits(best) > 0 {
            return Some(best);
        }
        if node != SpeechTree::ROOT {
            return None;
        }
        let distance = |n: &NodeId| (self.speech_at(*n).baseline.value - self.opened_around).abs();
        self.tree.children(node).iter().min_by(|a, b| distance(a).total_cmp(&distance(b))).copied()
    }

    /// The sentence a node contributes when spoken (baseline or refinement
    /// sentence; the root has none).
    pub fn sentence(&self, node: NodeId, renderer: &Renderer<'_>) -> Option<String> {
        match self.tree.data(node) {
            NodeKind::Root => None,
            NodeKind::Baseline(b) => {
                let speech = Speech { baseline: *b, refinements: Vec::new() };
                Some(renderer.baseline_sentence(&speech))
            }
            NodeKind::Refinement { entry, .. } => {
                Some(renderer.refinement_sentence(&self.catalogue.entry(*entry).ast))
            }
        }
    }

    /// `true` if expansion hit the node cap.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Number of result aggregates (`n`).
    pub fn n_aggregates(&self) -> usize {
        self.n_aggs
    }

    /// Access the underlying UCT tree.
    pub fn tree(&self) -> &Tree<NodeKind> {
        &self.tree
    }

    /// All node ids, in creation order (root first).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.tree.node_count() as u32).map(NodeId)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::{AggFct, Query};
    use voxolap_speech::candidates::CandidateConfig;
    use voxolap_speech::scope::CompiledSpeech;

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    fn build_tree(
        table: &voxolap_data::Table,
        q: &Query,
        constraints: SpeechConstraints,
        max_nodes: usize,
    ) -> SpeechTree {
        let schema = table.schema();
        let gen = CandidateGenerator::new(schema, q, CandidateConfig::default());
        let renderer = Renderer::new(schema, q);
        SpeechTree::build(&gen, &renderer, &constraints, 88.0, max_nodes)
    }

    /// One node of the reference expansion, in creation order.
    #[derive(Debug, PartialEq)]
    struct RefNode {
        parent: usize,
        speech: Speech,
        /// `(delta, implied value)` as bits; `None` for baselines.
        increment: Option<(u64, u64)>,
    }

    /// The expansion this module replaced, kept as the oracle: per node it
    /// re-enumerates `generator.refinements(prefix)` and re-renders the
    /// whole body through `constraints.is_valid`.
    struct Reference<'a> {
        generator: &'a CandidateGenerator<'a>,
        renderer: &'a Renderer<'a>,
        constraints: SpeechConstraints,
        max_nodes: usize,
        /// Index 0 is the root.
        nodes: Vec<RefNode>,
        truncated: bool,
    }

    impl Reference<'_> {
        fn build(mut self, overall_estimate: f64) -> Self {
            self.nodes.push(RefNode {
                parent: 0,
                speech: Speech::baseline_only(0.0),
                increment: None,
            });
            for b in self.generator.baselines(overall_estimate) {
                if self.nodes.len() >= self.max_nodes {
                    self.truncated = true;
                    break;
                }
                let speech = Speech { baseline: b, refinements: Vec::new() };
                if !self.constraints.is_valid(self.renderer, &speech) {
                    continue;
                }
                self.nodes.push(RefNode { parent: 0, speech, increment: None });
                self.expand(self.nodes.len() - 1, &[]);
            }
            self
        }

        /// `implied` holds the implied values of the prefix's refinements.
        fn expand(&mut self, node: usize, implied: &[f64]) {
            let prefix = self.nodes[node].speech.clone();
            if self.constraints.at_fragment_limit(&prefix) {
                return;
            }
            let schema = self.generator.schema();
            for r in self.generator.refinements(&prefix) {
                if self.nodes.len() >= self.max_nodes {
                    self.truncated = true;
                    return;
                }
                let candidate = prefix.with_refinement(r.clone());
                if !self.constraints.is_valid(self.renderer, &candidate) {
                    continue;
                }
                let is_anc = |dim: DimId, a, d| schema.dimension(dim).is_ancestor_or_self(a, d);
                let reference = (0..prefix.refinements.len())
                    .rev()
                    .find(|&i| prefix.refinements[i].subsumes(&r, is_anc))
                    .map_or(prefix.baseline.value, |i| implied[i]);
                let implied_value = reference * r.change.factor();
                let delta = implied_value - reference;
                self.nodes.push(RefNode {
                    parent: node,
                    speech: candidate,
                    increment: Some((delta.to_bits(), implied_value.to_bits())),
                });
                let mut below = implied.to_vec();
                below.push(implied_value);
                self.expand(self.nodes.len() - 1, &below);
            }
        }
    }

    /// Node by node in creation order: payload, path, child lists, and
    /// the truncation flag.
    fn assert_matches_reference(st: &SpeechTree, reference: &Reference<'_>, what: &str) {
        assert_eq!(st.truncated(), reference.truncated, "{what}");
        assert_eq!(st.tree().node_count(), reference.nodes.len(), "{what}");
        let mut children = vec![Vec::new(); reference.nodes.len()];
        for (n, want) in st.all_nodes().zip(&reference.nodes).skip(1) {
            let got = RefNode {
                parent: st.tree().parent(n).map_or(0, NodeId::index),
                speech: st.speech_at(n),
                increment: match st.tree().data(n) {
                    NodeKind::Refinement { delta, implied_value, .. } => {
                        Some((delta.to_bits(), implied_value.to_bits()))
                    }
                    _ => None,
                },
            };
            assert_eq!(&got, want, "{what}: node {n:?}");
            children[want.parent].push(n);
        }
        for n in st.all_nodes() {
            assert_eq!(st.tree().children(n), &children[n.index()][..], "{what}: under {n:?}");
        }
    }

    /// Salary and flights × {one, two group-bys} × {with, without a filter},
    /// each with an overall estimate to span the baselines. Salary by state
    /// offers region *and* state predicates (references chain through
    /// subsuming ancestors) and, like flights by region and airline,
    /// overflows the 500 000-node cap.
    pub(crate) fn differential_queries() -> Vec<(voxolap_data::Table, Vec<Query>, f64)> {
        use voxolap_data::flights::FlightsConfig;
        type Shape = (&'static [(u8, u8)], bool);
        let queries = |table: &voxolap_data::Table, shapes: [Shape; 4]| -> Vec<Query> {
            let schema = table.schema();
            let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
            shapes
                .iter()
                .map(|&(groups, filtered)| {
                    let mut b = Query::builder(AggFct::Avg);
                    for &(d, l) in groups {
                        b = b.group_by(DimId(d), LevelId(l));
                    }
                    if filtered {
                        b = b.filter(DimId(0), ne);
                    }
                    b.build(schema).unwrap()
                })
                .collect()
        };
        let salary = SalaryConfig::paper_scale().generate();
        let salary_queries = queries(
            &salary,
            [
                (&[(0, 2)], false),
                (&[(0, 1), (1, 1)], false),
                (&[(0, 2)], true),
                (&[(0, 2), (1, 1)], true),
            ],
        );
        let flights = FlightsConfig { rows: 100, seed: 1 }.generate();
        let flights_queries = queries(
            &flights,
            [
                (&[(0, 1)], false),
                (&[(0, 1), (2, 1)], false),
                (&[(0, 2)], true),
                (&[(0, 2), (1, 1)], true),
            ],
        );
        vec![(salary, salary_queries, 88.0), (flights, flights_queries, 0.0145)]
    }

    #[test]
    fn catalogue_tree_equals_the_reference_expansion_node_for_node() {
        let mut compared = 0usize;
        for (table, queries, estimate) in differential_queries() {
            let schema = table.schema();
            for q in &queries {
                let generator = CandidateGenerator::new(schema, q, CandidateConfig::default());
                let renderer = Renderer::new(schema, q);
                // Build both trees under one cap, compare them, and return
                // the size when the cap did not cut it.
                let mut compare = |constraints: SpeechConstraints, max_nodes: usize| {
                    let st =
                        SpeechTree::build(&generator, &renderer, &constraints, estimate, max_nodes);
                    let reference = Reference {
                        generator: &generator,
                        renderer: &renderer,
                        constraints,
                        max_nodes,
                        nodes: Vec::new(),
                        truncated: false,
                    }
                    .build(estimate);
                    let what = format!("{:?} {constraints:?} cap {max_nodes}", q.key());
                    assert_matches_reference(&st, &reference, &what);
                    compared += reference.nodes.len();
                    (!reference.truncated).then_some(reference.nodes.len())
                };
                for max_refinements in 0..=2 {
                    // 130 characters reject some sentences of both
                    // datasets, 300 reject none.
                    for max_chars in [130, 300] {
                        let constraints = SpeechConstraints { max_chars, max_refinements };
                        compare(constraints, 50);
                        if let Some(size) = compare(constraints, 5_000) {
                            // The cap exactly at and one below the full
                            // size: `truncated` depends on where in the
                            // loop the cap is checked.
                            compare(constraints, size);
                            compare(constraints, size - 1);
                        }
                        // The full expansion runs once per query shape;
                        // the small caps cover every budget.
                        if max_refinements == 2 && max_chars == 300 {
                            compare(constraints, 500_000);
                        }
                    }
                }
            }
        }
        assert!(compared > 1_000_000, "compared {compared} nodes");
    }

    /// A consumer that stores nothing.
    struct Count;

    impl SpaceVisitor for Count {
        fn baseline(&mut self, _: u32, _: Baseline) {}
        fn refinement(&mut self, _: usize, _: u32, _: f64, _: f64) {}
    }

    #[test]
    fn a_walk_that_stores_nothing_counts_what_build_counts() {
        let mut uncut = 0;
        for (table, queries, estimate) in differential_queries() {
            let schema = table.schema();
            for q in &queries {
                let counts = |max_refinements: usize, max_tree_nodes: usize| {
                    let cfg = HolisticConfig {
                        constraints: SpeechConstraints { max_chars: 300, max_refinements },
                        max_tree_nodes,
                        ..HolisticConfig::default()
                    };
                    let (_, tree) = SpeechTree::open(schema, q, &cfg, estimate);
                    let (_, space) = SpeechSpace::open(schema, q, &cfg, estimate);
                    let built = (tree.tree().node_count(), tree.truncated());
                    let what =
                        format!("{:?} depth {max_refinements} cap {max_tree_nodes}", q.key());
                    assert_eq!(space.walk(&mut Count), built, "{what}");
                    built
                };
                counts(2, 500_000);
                for max_refinements in [1, 2] {
                    assert!(counts(max_refinements, 50).1, "50 nodes cut every shape");
                    // Where the cap is checked decides `truncated` at the
                    // exact size and one below it.
                    if let (size, false) = counts(max_refinements, 5_000) {
                        assert_eq!(counts(max_refinements, size), (size, false));
                        assert_eq!(counts(max_refinements, size - 1), (size - 1, true));
                        uncut += 1;
                    }
                }
            }
        }
        assert!(uncut >= 8, "{uncut} spaces fit under 5 000 nodes");
    }

    #[test]
    fn additive_lengths_agree_with_the_renderer() {
        for (table, queries, estimate) in differential_queries() {
            let schema = table.schema();
            for q in &queries {
                let generator = CandidateGenerator::new(schema, q, CandidateConfig::default());
                let renderer = Renderer::new(schema, q);
                let constraints = SpeechConstraints { max_chars: 200, max_refinements: 2 };
                let st = SpeechTree::build(&generator, &renderer, &constraints, estimate, 20_000);
                assert!(!st.catalogue().entries().is_empty());
                for entry in st.catalogue().entries() {
                    assert_eq!(
                        entry.chars,
                        renderer.refinement_sentence(&entry.ast).chars().count(),
                        "{:?}",
                        entry.ast
                    );
                }
                for node in st.all_nodes().skip(1) {
                    let speech = st.speech_at(node);
                    assert!(constraints.is_valid(&renderer, &speech), "{speech:?}");
                    assert_eq!(st.fragment_count(node), speech.fragment_count());
                }
            }
        }
    }

    #[test]
    fn a_node_is_an_increment_not_a_copy() {
        assert!(
            std::mem::size_of::<NodeKind>() <= 40,
            "NodeKind grew to {} bytes",
            std::mem::size_of::<NodeKind>()
        );
    }

    #[test]
    fn tree_layers_follow_grammar() {
        let (table, q) = setup();
        let st = build_tree(
            &table,
            &q,
            SpeechConstraints { max_chars: 300, max_refinements: 1 },
            1_000_000,
        );
        assert!(!st.truncated());
        // Root children are baselines, grandchildren refinements.
        for &b in st.tree().children(SpeechTree::ROOT) {
            assert!(matches!(st.tree().data(b), NodeKind::Baseline(_)));
            for &r in st.tree().children(b) {
                assert!(matches!(st.tree().data(r), NodeKind::Refinement { .. }));
                assert!(st.tree().is_leaf(r), "fragment budget 1 stops here");
            }
        }
    }

    #[test]
    fn speech_at_reconstructs_path() {
        let (table, q) = setup();
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 100_000);
        let b = st.tree().children(SpeechTree::ROOT)[0];
        let r = st.tree().children(b)[0];
        let speech = st.speech_at(r);
        assert_eq!(speech.refinements.len(), 1);
        match st.tree().data(b) {
            NodeKind::Baseline(base) => assert_eq!(speech.baseline.value, base.value),
            _ => unreachable!(),
        }
    }

    #[test]
    fn mean_for_matches_compiled_speech() {
        let (table, q) = setup();
        let schema = table.schema();
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 50_000);
        let layout = q.layout();
        // Compare tree-incremental means with the reference CompiledSpeech
        // implementation for a sample of nodes.
        let mut checked = 0;
        for node in st.all_nodes().step_by(97) {
            let speech = st.speech_at(node);
            if node == SpeechTree::ROOT {
                continue;
            }
            let cs = CompiledSpeech::compile(&speech, layout, schema);
            for agg in 0..layout.n_aggregates() as u32 {
                let coords = layout.coords_of_agg(agg);
                let tree_mean = st.mean_for(node, &coords);
                let ref_mean = cs.mean_for(agg, layout);
                assert!(
                    (tree_mean - ref_mean).abs() < 1e-9,
                    "node {node:?} agg {agg}: {tree_mean} vs {ref_mean}"
                );
            }
            checked += 1;
        }
        assert!(checked > 3, "checked {checked} nodes");
    }

    #[test]
    fn node_cap_truncates() {
        let (table, q) = setup();
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 50);
        assert!(st.truncated());
        assert!(st.tree().node_count() <= 51);
    }

    #[test]
    fn sentences_render_per_node_kind() {
        let (table, q) = setup();
        let schema = table.schema();
        let renderer = Renderer::new(schema, &q);
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 10_000);
        assert_eq!(st.sentence(SpeechTree::ROOT, &renderer), None);
        let b = st.tree().children(SpeechTree::ROOT)[0];
        assert!(st.sentence(b, &renderer).unwrap().contains("is the average"));
        let r = st.tree().children(b)[0];
        assert!(st.sentence(r, &renderer).unwrap().starts_with("Values "));
    }

    #[test]
    fn depth_respects_fragment_budget() {
        let (table, q) = setup();
        for budget in 0..=2 {
            let st = build_tree(
                &table,
                &q,
                SpeechConstraints { max_chars: 10_000, max_refinements: budget },
                2_000_000,
            );
            // Depth = 1 (baseline layer) + refinement budget.
            assert_eq!(st.tree().depth(SpeechTree::ROOT), 1 + budget);
        }
    }
}
