//! The speech search tree (paper Figure 2, Algorithm 2 `ST.Expand`).
//!
//! The tree is generated **in its entirety** during preprocessing (Theorem
//! A.4: height at most the fragment budget, size `O(m^k)`), which is only
//! cheap if a node costs next to nothing. What depends on a refinement
//! alone — AST, scope masks, rendered length, predicate-set id — is compiled
//! once per query into a [`RefinementCatalogue`]. What lies below a
//! baseline does not depend on which baseline it is: a refinement is
//! relative, so a node's delta and implied value are its baseline's value
//! times factors the path fixes (Lemma A.2). So the refinement subtree is
//! stored **once**, as `S` steps in creation (depth-first) order — catalogue
//! entry, parent, the characters the path adds, the ancestor that is its
//! reference, and a contiguous child list — step 0 standing for the
//! baseline. Node (baseline `b`, step `r`) is the id `1 + b·S + r`, and its
//! UCT statistics are one 16-byte [`Stats`] row. Deltas and implied values
//! are recomputed when asked, by the multiplications expansion made, in
//! its order, so every float keeps its bits.
//!
//! A baseline's sentence leaves it a room; a step is in its copy iff the
//! step's characters fit it. The node cap cuts where a per-node expansion —
//! baseline by baseline, each copy depth-first — would have cut: an id is
//! kept iff its step fits its baseline's room and comes before that
//! baseline's kept bound (DESIGN.md §4).

use voxolap_belief::model::rounding_bucket;
use voxolap_belief::normal::Normal;
use voxolap_data::schema::Schema;
use voxolap_engine::query::{AggIdx, Query};
use voxolap_mcts::{Children, NodeId, Stats, Tree};
use voxolap_speech::ast::{Baseline, Speech};
use voxolap_speech::candidates::{CandidateGenerator, CatalogueEntry, RefinementCatalogue};
use voxolap_speech::constraints::SpeechConstraints;
use voxolap_speech::render::Renderer;

use crate::holistic::HolisticConfig;
use crate::sampler::calibrated_sigma;

/// What one node below the root says: its increment over the parent's
/// speech.
#[derive(Debug, Clone)]
pub enum NodeKind {
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

/// One step of the refinement subtree every baseline shares, in creation
/// order. Step 0 is the baseline itself.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The refinement's catalogue index (unused at step 0).
    entry: u32,
    /// The parent step (unused at step 0).
    parent: u32,
    /// Characters the path's refinement sentences add to the baseline
    /// sentence, one joining space each.
    chars: u32,
    /// The step whose implied value this refinement changes: the nearest
    /// ancestor whose scope subsumes its own, or 0, the baseline (§3.4).
    reference: u32,
}

/// A baseline candidate the node cap kept, and which steps it keeps.
#[derive(Debug, Clone, Copy)]
struct Branch {
    /// Ordinal among the baseline candidates.
    ordinal: u32,
    baseline: Baseline,
    /// Characters its sentence leaves the refinements: a step belongs to
    /// this baseline's copy iff its `chars` fit.
    room: u32,
    /// Steps from this index on were cut by the node cap.
    kept: u32,
}

/// The fully expanded speech search tree for one query.
#[derive(Debug)]
pub struct SpeechTree {
    catalogue: RefinementCatalogue,
    /// The shared refinement subtree, `S` steps.
    steps: Vec<Step>,
    /// Each step's children, grouped by parent in step order: step `r`'s
    /// are `kids[first_kid[r]..first_kid[r + 1]]`, ascending. A descent
    /// reads a child list as one contiguous run, not a chain of loads.
    first_kid: Vec<u32>,
    kids: Vec<u32>,
    /// The most characters any step adds.
    deepest: u32,
    branches: Vec<Branch>,
    stats: Stats,
    /// Nodes the cap kept, the root included.
    nodes: usize,
    truncated: bool,
    max_depth: usize,
    /// Decomposed coordinates of every aggregate, indexed by aggregate, so
    /// a reward looks its aggregate up instead of allocating
    /// `coords_of_agg`.
    coords: Vec<Vec<u32>>,
    /// The estimate the baseline candidates were generated around.
    opened_around: f64,
    /// The belief σ of every speech in the tree.
    sigma: f64,
}

/// A query's speech space, compiled but not expanded: the baseline
/// candidates, the refinement catalogue and the budgets that bound their
/// combinations. [`SpeechSpace::into_tree`] expands it — `ST.Expand`,
/// once; a plan kept from an earlier scoring is spoken from it without.
pub(crate) struct SpeechSpace<'a> {
    schema: &'a Schema,
    renderer: Renderer<'a>,
    catalogue: RefinementCatalogue,
    baselines: Vec<Baseline>,
    /// The estimate `baselines` were generated around.
    opened_around: f64,
    sigma: f64,
    constraints: SpeechConstraints,
    max_nodes: usize,
    coords: Vec<Vec<u32>>,
}

/// What `ST.Expand` carries down one path of the shared subtree.
struct Expand<'s> {
    space: &'s SpeechSpace<'s>,
    steps: Vec<Step>,
    /// The steps of the current path below the baseline, outermost first.
    path: Vec<u32>,
    /// The largest room of any baseline: a step no baseline has room for
    /// is not stored.
    widest: u32,
    /// The first baseline's room, and how many of its nodes are stored so
    /// far: once it holds every node the cap leaves it (`budget`), no
    /// later step can be kept.
    first_room: u32,
    first_nodes: usize,
    budget: usize,
}

impl<'a> SpeechSpace<'a> {
    /// Open a plan: calibrate σ from `overall` (a warm-up estimate, or the
    /// exact grand mean) and compile `cfg`'s speech space around it. Every
    /// approach — sampled or exhaustive — opens through here, so they plan
    /// over the same space under the same belief model.
    pub(crate) fn open(
        schema: &'a Schema,
        query: &'a Query,
        cfg: &HolisticConfig,
        overall: f64,
    ) -> Self {
        let generator = CandidateGenerator::new(schema, query, cfg.candidates.clone());
        let renderer = Renderer::new(schema, query);
        let (max_nodes, sigma) = (cfg.max_tree_nodes, cfg.sigma_override);
        SpeechSpace::compile(&generator, &renderer, &cfg.constraints, overall, max_nodes, sigma)
    }

    fn compile(
        generator: &CandidateGenerator<'a>,
        renderer: &Renderer<'a>,
        constraints: &SpeechConstraints,
        overall_estimate: f64,
        max_nodes: usize,
        sigma_override: Option<f64>,
    ) -> Self {
        let layout = generator.query().layout();
        SpeechSpace {
            schema: generator.schema(),
            renderer: *renderer,
            catalogue: RefinementCatalogue::compile(generator, renderer),
            baselines: generator.baselines(overall_estimate),
            opened_around: overall_estimate,
            sigma: calibrated_sigma(overall_estimate, sigma_override),
            constraints: *constraints,
            max_nodes,
            coords: (0..layout.n_aggregates() as u32)
                .map(|agg| layout.coords_of_agg(agg))
                .collect(),
        }
    }

    /// Expand the space (`ST.Expand` from the root): the refinement
    /// subtree once, one step per valid refinement, then the baselines
    /// over it, cut by the node cap where a per-node expansion — one child
    /// per baseline candidate, then recursively one per valid refinement —
    /// would have cut.
    pub(crate) fn into_tree(self) -> SpeechTree {
        let SpeechConstraints { max_chars, max_refinements } = self.constraints;
        // What each baseline's sentence leaves the refinements; `None`
        // when it does not fit alone.
        let rooms: Vec<Option<u32>> = self
            .baselines
            .iter()
            .map(|&baseline| {
                let speech = Speech { baseline, refinements: Vec::new() };
                let chars = self.renderer.baseline_sentence(&speech).chars().count();
                max_chars.checked_sub(chars).map(|room| room.min(u32::MAX as usize) as u32)
            })
            .collect();
        // Every sequence of refinements, ignoring what the character budget
        // and used predicates rule out: an upper bound that sizes the step
        // arena once.
        let m = self.catalogue.entries().len();
        let bound =
            (0..max_refinements).fold(1usize, |below, _| below.saturating_mul(m).saturating_add(1));
        let root = Step { entry: 0, parent: 0, chars: 0, reference: 0 };
        let mut steps = Vec::with_capacity(bound.min(self.max_nodes.max(1)));
        steps.push(root);
        let mut expand = Expand {
            space: &self,
            steps,
            path: Vec::with_capacity(max_refinements),
            widest: rooms.iter().flatten().copied().max().unwrap_or(0),
            first_room: rooms.iter().flatten().copied().next().unwrap_or(0),
            first_nodes: 1,
            budget: self.max_nodes.saturating_sub(1),
        };
        expand.expand(0);
        let steps = expand.steps;
        let (first_kid, kids) = group_children(&steps);
        let deepest = steps.iter().map(|step| step.chars).max().unwrap_or(0);

        // The cut: nodes in per-node creation order until the cap.
        let mut nodes = 1;
        let mut branches = Vec::new();
        // `(ordinal, step)` of the last node kept.
        let mut last = None;
        for (ordinal, (&baseline, &room)) in self.baselines.iter().zip(&rooms).enumerate() {
            if nodes >= self.max_nodes {
                break;
            }
            let Some(room) = room else { continue };
            let mut kept = steps.len();
            for (r, _) in steps.iter().enumerate().filter(|(_, step)| step.chars <= room) {
                if nodes >= self.max_nodes {
                    kept = r;
                    break;
                }
                nodes += 1;
                last = Some((ordinal, r));
            }
            branches.push(Branch { ordinal: ordinal as u32, baseline, room, kept: kept as u32 });
        }
        // A per-node expansion checks the cap before the character budget,
        // at every baseline candidate and at every refinement whose
        // predicates the path has not used: it reports a cut when such a
        // check follows the node that filled the cap.
        let truncated = nodes >= self.max_nodes
            && match last {
                None => !self.baselines.is_empty(),
                Some((ordinal, r)) => {
                    ordinal + 1 < self.baselines.len() || self.checks_follow(&steps, r)
                }
            };
        let ids = branches
            .last()
            .map_or(1, |last| 1 + (branches.len() - 1) * steps.len() + last.kept as usize);
        SpeechTree {
            catalogue: self.catalogue,
            steps,
            first_kid,
            kids,
            deepest,
            branches,
            stats: Stats::new(ids),
            nodes,
            truncated,
            max_depth: 1 + max_refinements,
            coords: self.coords,
            opened_around: self.opened_around,
            sigma: self.sigma,
        }
    }

    /// Whether expansion checks a refinement after step `r`: below it,
    /// when the fragment budget allows one more, or after it in the loop
    /// of any of its ancestors — any catalogue entry the path there has
    /// not used the predicates of.
    fn checks_follow(&self, steps: &[Step], r: usize) -> bool {
        let catalogue = &self.catalogue;
        // The path's entries, innermost first.
        let mut lineage = Vec::new();
        let mut at = r;
        while at != 0 {
            lineage.push(steps[at].entry);
            at = steps[at].parent as usize;
        }
        let unused = |path: &[u32], from: u32| {
            let set = |e: u32| catalogue.entry(e).predicate_set;
            (from..catalogue.entries().len() as u32)
                .any(|e| path.iter().all(|&used| set(used) != set(e)))
        };
        (lineage.len() < self.constraints.max_refinements && unused(&lineage, 0))
            || (0..lineage.len()).any(|i| unused(&lineage[i + 1..], lineage[i] + 1))
    }

    /// The speech and sentences of one path — a baseline ordinal followed
    /// by catalogue entry ids, in speaking order (see
    /// [`SpeechTree::path`]). The empty path is the root: no sentence.
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

/// Group each step's children by parent, in step order: returns
/// `(first_kid, kids)`, step `r`'s children being
/// `kids[first_kid[r]..first_kid[r + 1]]`.
fn group_children(steps: &[Step]) -> (Vec<u32>, Vec<u32>) {
    let mut first_kid = vec![0u32; steps.len() + 1];
    for step in &steps[1..] {
        first_kid[step.parent as usize + 1] += 1;
    }
    for r in 1..first_kid.len() {
        first_kid[r] += first_kid[r - 1];
    }
    let mut free = first_kid.clone();
    let mut kids = vec![0; steps.len() - 1];
    for (r, step) in steps.iter().enumerate().skip(1) {
        let slot = &mut free[step.parent as usize];
        kids[*slot as usize] = r as u32;
        *slot += 1;
    }
    (first_kid, kids)
}

impl Expand<'_> {
    /// Recursive expansion below step `at` (paper Algorithm 2
    /// `ST.Expand`): one child per catalogue entry, in catalogue order,
    /// whose predicates the path has not used yet and whose sentence still
    /// fits some baseline's room.
    fn expand(&mut self, at: u32) {
        let SpeechSpace { catalogue, constraints, .. } = self.space;
        if self.path.len() >= constraints.max_refinements {
            return;
        }
        for index in 0..catalogue.entries().len() as u32 {
            let entry = catalogue.entry(index);
            let set = |s: &u32| catalogue.entry(self.steps[*s as usize].entry).predicate_set;
            if self.path.iter().any(|s| set(s) == entry.predicate_set) {
                continue;
            }
            if self.first_nodes >= self.budget {
                return;
            }
            // Sentences are joined by one space.
            let chars = self.steps[at as usize].chars as usize + 1 + entry.chars;
            if chars > self.widest as usize {
                continue;
            }
            let reference = self.reference(entry);
            let step = self.steps.len() as u32;
            let chars = chars as u32;
            self.steps.push(Step { entry: index, parent: at, chars, reference });
            if chars <= self.first_room {
                self.first_nodes += 1;
            }
            self.path.push(step);
            self.expand(step);
            self.path.pop();
        }
    }

    /// The reference step for `entry` appended to the current path: the
    /// nearest refinement on the path whose scope subsumes the new one, or
    /// the baseline (step 0).
    fn reference(&self, entry: &CatalogueEntry) -> u32 {
        let SpeechSpace { schema, catalogue, .. } = self.space;
        let is_anc =
            |dim: voxolap_data::DimId, a: voxolap_data::MemberId, d: voxolap_data::MemberId| {
                schema.dimension(dim).is_ancestor_or_self(a, d)
            };
        let subsumes = |&s: &u32| {
            catalogue.entry(self.steps[s as usize].entry).ast.subsumes(&entry.ast, is_anc)
        };
        self.path.iter().rev().copied().find(subsumes).unwrap_or(0)
    }
}

impl Children for SpeechTree {
    /// The baselines at the root; below a node, the children of its step
    /// that its baseline keeps: those before the kept bound that fit the
    /// room.
    fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + Clone + '_ {
        // Below the root: `(first id of the branch, its room unless it
        // holds every step, its kept bound)`.
        let (below, mut next, end) = match self.locate(n) {
            None => (None, 0, self.branches.len()),
            Some((b, at)) => {
                let Branch { room, kept, .. } = self.branches[b];
                // Room for the deepest step keeps every step: none is read.
                let room = (room < self.deepest).then_some(room);
                let base = 1 + b * self.steps.len();
                let kids = self.first_kid[at] as usize..self.first_kid[at + 1] as usize;
                (Some((base, room, kept)), kids.start, kids.end)
            }
        };
        std::iter::from_fn(move || {
            let Some((base, room, kept)) = below else {
                let b = next;
                next += 1;
                return (b < end).then(|| self.id(b, 0));
            };
            while next < end {
                let step = self.kids[next];
                next += 1;
                if step >= kept {
                    return None;
                }
                if room.is_none_or(|room| self.steps[step as usize].chars <= room) {
                    return Some(NodeId((base + step as usize) as u32));
                }
            }
            None
        })
    }

    fn node_count(&self) -> usize {
        self.nodes
    }
}

impl SpeechTree {
    /// The root node (represents the preamble).
    pub const ROOT: NodeId = NodeId::ROOT;

    /// [`SpeechSpace::open`], expanded.
    pub(crate) fn open(schema: &Schema, query: &Query, cfg: &HolisticConfig, overall: f64) -> Self {
        SpeechSpace::open(schema, query, cfg, overall).into_tree()
    }

    /// Expand the full tree (`ST.Expand` from the root): one child per
    /// baseline candidate around `overall_estimate`, then recursively one
    /// child per valid refinement, bounded by `constraints` and `max_nodes`.
    /// σ is calibrated from `overall_estimate` with no override.
    pub fn build(
        generator: &CandidateGenerator<'_>,
        renderer: &Renderer<'_>,
        constraints: &SpeechConstraints,
        overall_estimate: f64,
        max_nodes: usize,
    ) -> Self {
        SpeechSpace::compile(generator, renderer, constraints, overall_estimate, max_nodes, None)
            .into_tree()
    }

    /// The id of branch `b`'s step `r`.
    fn id(&self, b: usize, r: usize) -> NodeId {
        NodeId((1 + b * self.steps.len() + r) as u32)
    }

    /// `(branch, step)` of a node; `None` for the root.
    fn locate(&self, n: NodeId) -> Option<(usize, usize)> {
        let i = n.index().checked_sub(1)?;
        Some((i / self.steps.len(), i % self.steps.len()))
    }

    /// Step `r` and its ancestors up to the baseline, innermost first.
    fn lineage(&self, r: usize) -> impl Iterator<Item = &Step> + '_ {
        std::iter::successors(Some(r), |&s| Some(self.steps[s].parent as usize))
            .take_while(|&s| s != 0)
            .map(|s| &self.steps[s])
    }

    /// `(delta, implied value)` of `step` under `branch`: its reference's
    /// value — the baseline's, or the implied value of the ancestor the
    /// step names — times its change factor.
    fn increment(&self, branch: &Branch, step: &Step) -> (f64, f64) {
        let reference = match step.reference {
            0 => branch.baseline.value,
            r => self.increment(branch, &self.steps[r as usize]).1,
        };
        let implied = reference * self.catalogue.entry(step.entry).ast.change.factor();
        (implied - reference, implied)
    }

    /// The per-query refinement catalogue the nodes index into.
    pub fn catalogue(&self) -> &RefinementCatalogue {
        &self.catalogue
    }

    /// The catalogue entry of a refinement node (`None` for the root and
    /// for baselines).
    pub fn refinement(&self, node: NodeId) -> Option<&CatalogueEntry> {
        match self.locate(node)? {
            (_, 0) => None,
            (_, r) => Some(self.catalogue.entry(self.steps[r].entry)),
        }
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let (b, r) = self.locate(node)?;
        Some(match r {
            0 => Self::ROOT,
            r => self.id(b, self.steps[r].parent as usize),
        })
    }

    /// Deepest path the fragment budget allows: a baseline and
    /// `max_refinements` refinements.
    pub(crate) fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Reconstruct the speech a node represents by walking to the root.
    pub fn speech_at(&self, node: NodeId) -> Speech {
        let Some((b, r)) = self.locate(node) else {
            return Speech::baseline_only(0.0);
        };
        let mut refinements: Vec<_> =
            self.lineage(r).map(|step| self.catalogue.entry(step.entry).ast.clone()).collect();
        refinements.reverse();
        Speech { baseline: self.branches[b].baseline, refinements }
    }

    /// A node's path as a plan records it: the baseline candidate's
    /// ordinal, then the refinements' catalogue ids, in speaking order
    /// (empty for the root). [`SpeechSpace::speak`] speaks it back.
    pub(crate) fn path(&self, node: NodeId) -> Vec<u32> {
        let Some((b, r)) = self.locate(node) else {
            return Vec::new();
        };
        let mut path: Vec<u32> = self.lineage(r).map(|step| step.entry).collect();
        path.push(self.branches[b].ordinal);
        path.reverse();
        path
    }

    /// The belief σ of every speech in the tree: calibrated from the
    /// estimate the tree was opened around (see
    /// [`calibrated_sigma`](crate::sampler::calibrated_sigma)).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The probability the belief of the speech at `node` about aggregate
    /// `agg`, `N(M(agg, node), σ)`, gives the rounding bucket of `estimate`
    /// (Definition 2.2 at one aggregate): a sampling iteration's reward for
    /// a posterior draw, or a speech's exact quality term for an exact
    /// value. 0 for a non-finite estimate (the AVG of an empty bucket).
    pub fn reward(&self, node: NodeId, agg: AggIdx, estimate: f64) -> f64 {
        if !estimate.is_finite() {
            return 0.0;
        }
        let mean = self.mean_for(node, &self.coords[agg as usize]);
        let (lo, hi) = rounding_bucket(estimate, self.sigma / 10.0);
        Normal::new(mean, self.sigma).prob_interval(lo, hi)
    }

    /// Belief mean `M(a, t)` for the speech at `node` and the aggregate with
    /// decomposed coordinates `coords` — `O(k)` ancestor walk (Lemma A.2),
    /// summed deepest fragment first, baseline last.
    fn mean_for(&self, node: NodeId, coords: &[u32]) -> f64 {
        let Some((b, r)) = self.locate(node) else {
            return 0.0;
        };
        let branch = &self.branches[b];
        let n = self.coords.len() as f64;
        let mut mean = 0.0;
        for step in self.lineage(r) {
            let scope = &self.catalogue.entry(step.entry).scope;
            let (delta, _) = self.increment(branch, step);
            let m = scope.size() as f64;
            if scope.contains_coords(coords) {
                mean += delta;
            } else if m < n {
                mean -= m * delta / (n - m);
            }
        }
        mean + branch.baseline.value
    }

    /// The child of `node` a sampled plan commits to — the one rule of the
    /// holistic rounds and of Unmerged. With a visited child, the best mean
    /// reward among the visited ones (`Tree::best_child`: the last of equal
    /// maxima). With none, at the root, the baseline candidate nearest the
    /// estimate the tree was opened around (the first of equal distances),
    /// so a run cut before its first sample still says something
    /// defensible; below the root, nothing.
    pub fn commit_child(&self, node: NodeId) -> Option<NodeId> {
        let tree = self.tree();
        let best = tree.best_child(node)?;
        if tree.visits(best) > 0 {
            return Some(best);
        }
        if node != SpeechTree::ROOT {
            return None;
        }
        let distance = |b: &Branch| (b.baseline.value - self.opened_around).abs();
        let nearest = (0..self.branches.len())
            .min_by(|&a, &b| distance(&self.branches[a]).total_cmp(&distance(&self.branches[b])));
        nearest.map(|b| self.id(b, 0))
    }

    /// The sentence a node contributes when spoken (baseline or refinement
    /// sentence; the root has none).
    pub fn sentence(&self, node: NodeId, renderer: &Renderer<'_>) -> Option<String> {
        match self.locate(node)? {
            (b, 0) => Some(renderer.baseline_sentence(&Speech {
                baseline: self.branches[b].baseline,
                refinements: Vec::new(),
            })),
            (_, r) => {
                Some(renderer.refinement_sentence(&self.catalogue.entry(self.steps[r].entry).ast))
            }
        }
    }

    /// The speech at `node` and its sentences, in speaking order.
    pub(crate) fn speak(&self, node: NodeId, renderer: &Renderer<'_>) -> (Speech, Vec<String>) {
        let mut chain: Vec<NodeId> =
            std::iter::successors(Some(node), |&n| self.parent(n)).collect();
        chain.reverse();
        let sentences = chain.into_iter().filter_map(|n| self.sentence(n, renderer)).collect();
        (self.speech_at(node), sentences)
    }

    /// `true` if expansion hit the node cap.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The UCT rules over this tree's shape and statistics.
    pub fn tree(&self) -> Tree<'_, SpeechTree> {
        Tree::new(self, &self.stats)
    }

    /// Visit every node the cap kept but the root, in creation order, with
    /// its fragment count and what it says, until `visit` returns `false`.
    pub(crate) fn walk(&self, mut visit: impl FnMut(NodeId, usize, NodeKind) -> bool) {
        let mut depth = vec![1; self.steps.len()];
        for (b, branch) in self.branches.iter().enumerate() {
            let steps = self.steps[..branch.kept as usize].iter().enumerate();
            for (r, step) in steps.filter(|(_, step)| step.chars <= branch.room) {
                let kind = if r == 0 {
                    NodeKind::Baseline(branch.baseline)
                } else {
                    depth[r] = depth[step.parent as usize] + 1;
                    let (delta, implied_value) = self.increment(branch, step);
                    NodeKind::Refinement { entry: step.entry, delta, implied_value }
                };
                if !visit(self.id(b, r), depth[r], kind) {
                    return;
                }
            }
        }
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

    /// Every node below the root, in creation order: its id, fragment count
    /// and what it says.
    pub(crate) fn walked(st: &SpeechTree) -> Vec<(NodeId, usize, NodeKind)> {
        let mut nodes = Vec::new();
        st.walk(|n, depth, kind| {
            nodes.push((n, depth, kind));
            true
        });
        nodes
    }

    /// Node by node in creation order: payload, path, child lists, and
    /// the truncation flag. The kept ids ascend in creation order, so a
    /// node's position in the reference is its rank among them.
    fn assert_matches_reference(st: &SpeechTree, reference: &Reference<'_>, what: &str) {
        assert_eq!(st.truncated(), reference.truncated, "{what}");
        assert_eq!(st.tree().node_count(), reference.nodes.len(), "{what}");
        let walked = walked(st);
        let ids: Vec<NodeId> =
            std::iter::once(SpeechTree::ROOT).chain(walked.iter().map(|&(n, ..)| n)).collect();
        assert_eq!(ids.len(), reference.nodes.len(), "{what}");
        let position = |n: NodeId| ids.binary_search(&n).expect("a kept id");
        let mut children = vec![Vec::new(); reference.nodes.len()];
        for (at, ((n, depth, kind), want)) in walked.iter().zip(&reference.nodes[1..]).enumerate() {
            let got = RefNode {
                parent: st.parent(*n).map_or(0, position),
                speech: st.speech_at(*n),
                increment: match kind {
                    NodeKind::Refinement { delta, implied_value, .. } => {
                        Some((delta.to_bits(), implied_value.to_bits()))
                    }
                    NodeKind::Baseline(_) => None,
                },
            };
            assert_eq!(&got, want, "{what}: node {n:?}");
            assert_eq!(*depth, want.speech.fragment_count(), "{what}: node {n:?}");
            children[want.parent].push(at + 1);
        }
        for (at, &n) in ids.iter().enumerate() {
            let got: Vec<usize> = st.tree().children(n).map(position).collect();
            assert_eq!(got, children[at], "{what}: under {n:?}");
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
                for (node, depth, _) in walked(&st) {
                    let speech = st.speech_at(node);
                    assert!(constraints.is_valid(&renderer, &speech), "{speech:?}");
                    assert_eq!(depth, speech.fragment_count());
                }
            }
        }
    }

    /// A node is an id into one 16-byte step every baseline shares.
    #[test]
    fn a_node_is_an_increment_not_a_copy() {
        assert_eq!(std::mem::size_of::<Step>(), 16);
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
        for b in st.tree().children(SpeechTree::ROOT) {
            assert_eq!(st.speech_at(b).fragment_count(), 1);
            for r in st.tree().children(b) {
                assert_eq!(st.speech_at(r).fragment_count(), 2);
                assert!(st.tree().is_leaf(r), "fragment budget 1 stops here");
            }
        }
    }

    #[test]
    fn speech_at_reconstructs_path() {
        let (table, q) = setup();
        let st = build_tree(&table, &q, SpeechConstraints::paper_default(), 100_000);
        let b = st.tree().children(SpeechTree::ROOT).next().unwrap();
        let r = st.tree().children(b).next().unwrap();
        let speech = st.speech_at(r);
        assert_eq!(speech.refinements.len(), 1);
        assert_eq!(speech.baseline, st.speech_at(b).baseline);
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
        for &(node, ..) in walked(&st).iter().skip(96).step_by(97) {
            let speech = st.speech_at(node);
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
        let b = st.tree().children(SpeechTree::ROOT).next().unwrap();
        assert!(st.sentence(b, &renderer).unwrap().contains("is the average"));
        let r = st.tree().children(b).next().unwrap();
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
            let deepest = walked(&st).iter().map(|&(_, depth, _)| depth).max();
            assert_eq!(deepest, Some(1 + budget));
        }
    }
    /// The spaces the benchmark and the experiments ask — the eight
    /// `cold_paper` shapes, region × season × airline and state × month on
    /// flights 200 k (seed 42), each opened around its exact grand mean —
    /// under the server's configuration (default quantifiers, 500 000
    /// nodes) and the experiments' (`[5, 20, 50, 100, 200]`, 300 000). In
    /// every one the baselines' copies of the refinement subtree are alike,
    /// so the cap keeps whole baselines and cuts one: the facts a cap that
    /// binds on the subtree alone starts from.
    #[test]
    fn the_asked_spaces_are_one_refinement_subtree_per_baseline() {
        use voxolap_data::flights::FlightsConfig;
        use voxolap_data::MemberId;
        let table = FlightsConfig { rows: 200_000, seed: 42 }.generate();
        let schema = table.schema();
        let member = |dim, phrase| schema.dimension(DimId(dim)).member_by_phrase(phrase).unwrap();
        let (north_east, winter) = (member(0, "the North East"), member(1, "Winter"));
        let (r, d, a) = ((0, 1), (1, 1), (2, 1));
        // `(kept baselines, candidates, S)` where the cap cuts the space.
        type Cut = Option<(usize, usize, usize)>;
        type Shape<'a> = (&'a str, &'a [(u8, u8)], Option<(u8, MemberId)>, Cut, Cut);
        let cut = |kept, of, steps| Some((kept, of, steps));
        let shapes: [Shape<'_>; 10] = [
            (",D", &[d], None, None, None),
            (",R", &[r], None, None, None),
            (",RD", &[r, d], None, None, None),
            ("W,R", &[r], Some((1, winter)), None, None),
            ("N,D", &[d], Some((0, north_east)), None, None),
            (",RA", &[r, a], None, cut(11, 17, 49_477), cut(14, 17, 22_041)),
            (",DA", &[d, a], None, cut(12, 17, 44_281), cut(16, 17, 19_729)),
            ("N,DA", &[d, a], Some((0, north_east)), cut(12, 13, 44_281), None),
            (",RDA", &[r, d, a], None, cut(7, 17, 73_141), cut(10, 17, 32_569)),
            ("state x month", &[(0, 2), (1, 2)], None, cut(2, 17, 285_661), cut(3, 17, 127_081)),
        ];
        let experiment = CandidateConfig {
            quantifiers: vec![5, 20, 50, 100, 200],
            ..CandidateConfig::default()
        };
        for (label, groups, filter, server_cut, experiment_cut) in shapes {
            let mut builder = Query::builder(AggFct::Avg);
            for &(dim, level) in groups {
                builder = builder.group_by(DimId(dim), LevelId(level));
            }
            if let Some((dim, member)) = filter {
                builder = builder.filter(DimId(dim), member);
            }
            let q = builder.build(schema).unwrap();
            let grand = voxolap_engine::exact::evaluate(&q, &table).grand_mean();
            let configs = [
                ("server", CandidateConfig::default(), 500_000, server_cut),
                ("experiment", experiment.clone(), 300_000, experiment_cut),
            ];
            for (config, candidates, max_nodes, want) in configs {
                let generator = CandidateGenerator::new(schema, &q, candidates);
                let renderer = Renderer::new(schema, &q);
                let constraints = HolisticConfig::default().constraints;
                let st = SpeechTree::build(&generator, &renderer, &constraints, grand, max_nodes);
                let what = format!("{label} {config}");
                // Alike: every candidate's sentence leaves room for the
                // longest path of the whole subtree.
                let deepest = st.deepest as usize;
                let candidates = generator.baselines(grand);
                for baseline in &candidates {
                    let alone = Speech { baseline: *baseline, refinements: Vec::new() };
                    let chars = renderer.baseline_sentence(&alone).chars().count();
                    assert!(chars + deepest <= constraints.max_chars, "{what}: {baseline:?}");
                }
                let s = st.steps.len();
                assert!(s < max_nodes, "{what}: the subtree itself is whole");
                let kept = st.branches.len();
                let got = st.truncated().then_some((kept, candidates.len(), s));
                assert_eq!(got, want, "{what}");
                // Whole baselines, and the cut one in part.
                assert_eq!(st.tree().node_count(), (1 + kept * s).min(max_nodes), "{what}");
            }
        }
    }
}
