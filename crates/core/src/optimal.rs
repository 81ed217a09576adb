//! The "optimal" comparison approach (paper §5.1).
//!
//! Generates optimal speeches "considering all data and calculating precise
//! quality for each speech before starting output": a full exact evaluation
//! of the query, followed by exhaustive scoring of **every** speech in the
//! search space under the belief model. It samples "neither from the data
//! nor in the plan space" — its latency is therefore far above the 500 ms
//! interactivity threshold on large data, which is the point Figure 3
//! makes.
//!
//! It is configured by the same [`HolisticConfig`] as the sampled
//! approaches and scores the space they would sample: it is opened around
//! the exact grand mean instead of a warm-up estimate, with the same σ
//! calibration. The holistic engine's exact cache hit runs the same
//! scoring over cached aggregates.
//!
//! Scoring walks the stored tree the sampled approaches descend
//! ([`SpeechTree`]), node by node in creation order, so its node count and
//! cut are the tree's. A node's belief means are sums of per-depth
//! contribution rows carried down the walk, and the probability mass of a
//! rounding bucket under a mean is memoized — a path's means are sums of a
//! few dozen distinct contributions and one-significant-digit rounding
//! leaves a handful of distinct buckets, so a few percent of the
//! (node, aggregate) pairs ever reach `erf`. The widest space (500 000
//! nodes × 12 aggregates) scores in tens of milliseconds; a repeat of a
//! scored query reads the chosen plan back from beside its aggregates
//! ([`SemanticCache::lookup_plan`]) and scores nothing.
//!
//! There is one exact path. `ExactHit::lookup` is the semantic cache's
//! entry protocol for both Optimal and the holistic engine, and
//! `plan_exact` plans on the aggregates whichever way they came: a hit, or
//! Optimal's full scan, whose admitted entry keeps its plan as a hit's
//! does.

use std::sync::Arc;
use std::time::Instant;

use voxolap_belief::model::rounding_bucket;
use voxolap_belief::normal::Normal;
use voxolap_data::schema::Schema;
use voxolap_data::Table;
use voxolap_engine::exact::{evaluate, ExactResult};
use voxolap_engine::query::{Query, ResultLayout};
use voxolap_engine::semantic::{ExactAggregates, ExactLookup, PlanRecord, SemanticCache};
use voxolap_faults::Resilience;
use voxolap_mcts::NodeId;
use voxolap_speech::ast::Speech;
use voxolap_speech::render::Renderer;

use crate::approach::Vocalizer;
use crate::holistic::HolisticConfig;
use crate::pipeline::cancel::{CancelKind, CancelToken};
use crate::pipeline::stream::{Buffered, SpeechStream};
use crate::resilience::{ResCtx, RunState};
use crate::tree::{NodeKind, SpeechSpace, SpeechTree};
use crate::voice::VoiceOutput;

/// The optimal vocalizer.
#[derive(Debug, Clone, Default)]
pub struct Optimal {
    pub(crate) config: HolisticConfig,
    pub(crate) cache: Option<Arc<SemanticCache>>,
    /// A bundle of its own unless replaced; see [`Optimal::with_resilience`].
    pub(crate) resilience: Arc<Resilience>,
}

impl Optimal {
    /// Create with the given configuration (the fields marked *all* in
    /// [`HolisticConfig`] are the ones read).
    pub fn new(config: HolisticConfig) -> Self {
        Optimal { config, cache: None, resilience: Arc::default() }
    }

    /// Replace the bundle the answers are counted in. Optimal's scoring
    /// loop is cut by a deadline like any other planning loop, and the
    /// cut is marked.
    pub fn with_resilience(mut self, resilience: Arc<Resilience>) -> Self {
        self.resilience = resilience;
        self
    }

    /// Attach a cross-query semantic cache: exact results are looked up
    /// before evaluating (skipping the full scan on a repeat query) and
    /// admitted after.
    pub fn with_cache(mut self, cache: Arc<SemanticCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &HolisticConfig {
        &self.config
    }
}

/// Slots of the bucket-mass memo: direct-mapped, a power of two, 24 bytes
/// a slot (192 KiB, cache-resident). On flights 200k it computes 12 % of
/// the masses looked up by season (30 210 nodes × 4 aggregates), 3.9 % by
/// month (500 000 × 12) and 1.7 % by region and airline (500 000 × 70);
/// eight times the slots would compute 12 %, 2.1 % and 0.9 % and run no
/// faster.
const MEMO_SLOTS: usize = 8192;

/// Exact quality (Definition 2.2) of the speech at the walk's current
/// node, from what the walk carried down to it.
struct Scorer {
    sigma: f64,
    /// The distinct rounding buckets `[lo, hi)` of the targets.
    buckets: Vec<(f64, f64)>,
    /// Per target — an aggregate with a finite exact value, in aggregate
    /// order — the index of its bucket.
    bucket_of: Vec<u32>,
    /// `entries × targets`: is the target in the entry's scope?
    in_scope: Vec<bool>,
    /// Per entry `(m, n − m)`: its scope size and the aggregates outside
    /// it, the two factors of Lemma A.2's out-of-scope compensation.
    outside: Vec<(f64, f64)>,
    /// `depths × targets`: what the fragment at each depth of the current
    /// path adds to each target's belief mean.
    rows: Vec<f64>,
    /// `(bucket, mean bits, mass)`; `u32::MAX` marks a free slot.
    memo: Vec<(u32, u64, f64)>,
    /// Bucket masses computed (memo misses).
    evaluations: u64,
}

impl Scorer {
    fn new(tree: &SpeechTree, exact: &ExactResult, layout: &ResultLayout) -> Self {
        let sigma = tree.sigma();
        let mut buckets = Vec::new();
        let mut bucket_of = Vec::new();
        let mut coords = Vec::new();
        for agg in 0..layout.n_aggregates() as u32 {
            let actual = exact.value(agg);
            if !actual.is_finite() {
                continue;
            }
            let bucket = rounding_bucket(actual, sigma / 10.0);
            let id = buckets.iter().position(|&b| b == bucket).unwrap_or_else(|| {
                buckets.push(bucket);
                buckets.len() - 1
            });
            bucket_of.push(id as u32);
            coords.push(layout.coords_of_agg(agg));
        }
        let entries = tree.catalogue().entries();
        let n = layout.n_aggregates() as f64;
        Scorer {
            sigma,
            buckets,
            in_scope: entries
                .iter()
                .flat_map(|e| coords.iter().map(|c| e.scope.contains_coords(c)))
                .collect(),
            outside: entries
                .iter()
                .map(|e| (e.scope.size() as f64, n - e.scope.size() as f64))
                .collect(),
            rows: vec![0.0; tree.max_depth() * bucket_of.len()],
            bucket_of,
            memo: vec![(u32::MAX, 0, 0.0); MEMO_SLOTS],
            evaluations: 0,
        }
    }

    /// The path now starts at a baseline claiming `value`.
    fn enter_baseline(&mut self, value: f64) {
        let targets = self.bucket_of.len();
        self.rows[..targets].fill(value);
    }

    /// The path's fragment at `depth` is now catalogue entry `entry` with
    /// additive change `delta`: in scope it adds `delta`, out of scope the
    /// compensation that keeps the baseline consistent (Lemma A.2).
    fn enter_refinement(&mut self, depth: usize, entry: u32, delta: f64) {
        let targets = self.bucket_of.len();
        let (m, rest) = self.outside[entry as usize];
        // A scope of all `n` aggregates has nothing outside it.
        let out = if rest > 0.0 { -(m * delta / rest) } else { 0.0 };
        let member = &self.in_scope[entry as usize * targets..][..targets];
        let row = &mut self.rows[(depth - 1) * targets..][..targets];
        for (slot, &inside) in row.iter_mut().zip(member) {
            *slot = if inside { delta } else { out };
        }
    }

    /// Quality of the speech the first `depth` fragments of the path make:
    /// each target's mean summed deepest fragment first, baseline last —
    /// the order an ancestor walk from the node adds them in, so the sums
    /// (and therefore the masses and their mean) are bit for bit those of
    /// one `SpeechTree::reward` per pair.
    fn quality(&mut self, depth: usize) -> f64 {
        let targets = self.bucket_of.len();
        if targets == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for t in 0..targets {
            let mut mean = 0.0;
            for d in (0..depth).rev() {
                mean += self.rows[d * targets + t];
            }
            total += self.mass(self.bucket_of[t], mean);
        }
        total / targets as f64
    }

    /// `P(bucket | N(mean, σ))`, a pure function of its two arguments:
    /// looked up by `(bucket, mean.to_bits())`, computed on a miss.
    fn mass(&mut self, bucket: u32, mean: f64) -> f64 {
        let bits = mean.to_bits();
        let hash = (bits ^ u64::from(bucket)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = &mut self.memo[(hash >> (64 - MEMO_SLOTS.trailing_zeros())) as usize];
        if (slot.0, slot.1) != (bucket, bits) {
            let (lo, hi) = self.buckets[bucket as usize];
            *slot = (bucket, bits, Normal::new(mean, self.sigma).prob_interval(lo, hi));
            self.evaluations += 1;
        }
        slot.2
    }
}

/// Scores the tree node by node and keeps only the best speech seen: ties
/// go to the shorter speech, then to the earlier one.
struct Chooser<'a> {
    scorer: Scorer,
    cancel: &'a CancelToken,
    run: &'a RunState,
    since_poll: u32,
    /// The deadline fired: no later node is scored.
    cut: bool,
    /// The best speech so far: its quality, node and fragment count.
    best: Option<(f64, NodeId, usize)>,
}

impl<'a> Chooser<'a> {
    fn new(
        tree: &SpeechTree,
        exact: &ExactResult,
        layout: &ResultLayout,
        cancel: &'a CancelToken,
        run: &'a RunState,
    ) -> Self {
        Chooser {
            scorer: Scorer::new(tree, exact, layout),
            cancel,
            run,
            since_poll: 0,
            cut: false,
            best: None,
        }
    }

    /// Whether the node being entered is still scored. The token is polled
    /// every 32 nodes; once it has fired the walk stops.
    fn live(&mut self) -> bool {
        self.since_poll += 1;
        if self.since_poll >= 32 {
            self.since_poll = 0;
            if self.cancel.fired() {
                self.run.mark_degraded();
                self.cut = true;
            }
        }
        !self.cut
    }

    /// Score every node of `tree` but the root, in creation order — each
    /// node's ancestors come before it, so the scorer's rows above its
    /// depth hold its path — until the deadline cuts the walk.
    fn choose(&mut self, tree: &SpeechTree) {
        tree.walk(|node, depth, kind| {
            if !self.live() {
                return false;
            }
            match kind {
                NodeKind::Baseline(baseline) => self.scorer.enter_baseline(baseline.value),
                NodeKind::Refinement { entry, delta, .. } => {
                    self.scorer.enter_refinement(depth, entry, delta)
                }
            }
            let q = self.scorer.quality(depth);
            let better = match self.best {
                None => true,
                Some((bq, _, frags)) => q > bq + 1e-12 || (q > bq - 1e-12 && depth < frags),
            };
            if better {
                self.best = Some((q, node, depth));
            }
            true
        });
    }
}

/// A fully planned speech derived from exact aggregate values.
pub(crate) struct ExactPlan {
    pub speech: Speech,
    pub sentences: Vec<String>,
    pub tree_nodes: usize,
    pub truncated: bool,
}

/// The source that speaks what [`plan_exact`] returned — the plan, or the
/// no-data report when the query scope was empty — charged with
/// `rows_read` rows.
pub(crate) fn plan_source<'a>(plan: Option<ExactPlan>, rows_read: u64) -> Buffered<'a> {
    match plan {
        Some(plan) => Buffered::planned(
            plan.sentences,
            Some(plan.speech),
            0,
            rows_read,
            plan.tree_nodes,
            plan.truncated,
        ),
        None => Buffered::no_data(rows_read, None),
    }
}

/// Plan the best speech against exact aggregates — the Optimal variant's
/// exhaustive scoring: every speech of the search space T is scored, in
/// the stored tree's creation order. Returns `None` when the grand mean is
/// undefined (empty query scope).
///
/// `slot` is the semantic-cache entry the aggregates are: a hit's, or the
/// one Optimal just admitted. The plan comes out of it when an earlier run
/// under the same configuration and GROUP BY order
/// ([`HolisticConfig::plan_fingerprint`]) left it there; otherwise the
/// space is scored and its plan kept for the next run — unless the deadline
/// cut it: an anytime answer is not the plan. Without a slot (no cache)
/// nothing is read or kept.
///
/// The `cancel` token is polled between nodes: a fired token keeps the best
/// speech found so far (the anytime cut of the exhaustive search) and marks
/// `run` degraded. The tree was counted when it was built, so a cut answer
/// reports the `tree_nodes` and `truncated` of the whole space like any
/// other: neither Optimal nor an exact hit outlasts the deadline that
/// bounds the sampled path by more than one tree build (DESIGN §12).
pub(crate) fn plan_exact(
    schema: &Schema,
    query: &Query,
    exact: &ExactResult,
    slot: Option<(&SemanticCache, &Arc<ExactAggregates>)>,
    cfg: &HolisticConfig,
    cancel: &CancelToken,
    run: &RunState,
) -> Option<ExactPlan> {
    let grand = exact.grand_mean();
    if !grand.is_finite() {
        return None;
    }
    let space = SpeechSpace::open(schema, query, cfg, grand);
    let fingerprint = cfg.plan_fingerprint(query);
    if let Some(kept) = slot.and_then(|(cache, data)| cache.lookup_plan(data, fingerprint)) {
        let (speech, sentences) = space.speak(&kept.path);
        let (tree_nodes, truncated) = (kept.tree_nodes, kept.truncated);
        return Some(ExactPlan { speech, sentences, tree_nodes, truncated });
    }
    let tree = space.into_tree();
    let mut chooser = Chooser::new(&tree, exact, query.layout(), cancel, run);
    chooser.choose(&tree);
    // No node scored (no baseline fits the budgets): the root.
    let best = chooser.best.map_or(SpeechTree::ROOT, |(_, node, _)| node);
    let (speech, sentences) = tree.speak(best, &Renderer::new(schema, query));
    let (tree_nodes, truncated) = (tree.tree().node_count(), tree.truncated());
    if let (Some((cache, data)), false) = (slot, chooser.cut) {
        let record = PlanRecord { path: tree.path(best), tree_nodes, truncated, fingerprint };
        cache.admit_plan(&query.key(), data, record);
    }
    Some(ExactPlan { speech, sentences, tree_nodes, truncated })
}

/// A semantic-cache exact entry a run plans on instead of scanning.
pub(crate) struct ExactHit {
    cache: Arc<SemanticCache>,
    data: Arc<ExactAggregates>,
    /// A version-stale entry served under §12 degradation: the caller marks
    /// its stream `stale`.
    pub(crate) stale: bool,
}

impl ExactHit {
    /// The exact path's entry protocol: look `query` up at the table
    /// `version`. A fresh entry is a hit. A version-stale one is a hit,
    /// counted as a stale serve, when `serve_stale()` allows it — the
    /// holistic engine asks [`serve_stale_exact`]; Optimal, which always
    /// evaluates exactly, passes `|| false` — and is invalidated otherwise.
    /// `None` (no cache, a miss, or an invalidated entry) sends the caller
    /// down its own miss path.
    pub(crate) fn lookup(
        cache: Option<&Arc<SemanticCache>>,
        query: &Query,
        version: u64,
        serve_stale: impl FnOnce() -> bool,
    ) -> Option<Self> {
        let cache = cache?;
        let key = query.key();
        let (data, stale) = match cache.lookup_exact(&key, version) {
            ExactLookup::Fresh(data) => (data, false),
            ExactLookup::Stale(data) if serve_stale() => {
                cache.note_stale_serve();
                (data, true)
            }
            ExactLookup::Stale(_) => {
                cache.invalidate_exact(&key);
                return None;
            }
            ExactLookup::Miss => return None,
        };
        Some(ExactHit { cache: cache.clone(), data, stale })
    }

    /// [`plan_exact`] on the hit's aggregates and plan slot; reads no row.
    pub(crate) fn plan<'a>(
        &self,
        schema: &Schema,
        query: &Query,
        cfg: &HolisticConfig,
        cancel: &CancelToken,
        run: &RunState,
    ) -> Buffered<'a> {
        let exact = self.data.to_result(query.fct());
        let slot = Some((&*self.cache, &self.data));
        plan_source(plan_exact(schema, query, &exact, slot, cfg, cancel, run), 0)
    }
}

/// §12 stale-serve decision for a version-stale exact cache entry: serve
/// it (marked `stale: true`) only when there is no time left to replan —
/// the run's deadline has already fired. Otherwise the entry is
/// invalidated and the query replans fresh. Serving marks the run
/// degraded; the decision consumes nothing, so appendless runs stay
/// byte-identical.
pub(crate) fn serve_stale_exact(cancel: &CancelToken, run: &RunState) -> bool {
    let late = cancel.fired_kind() == Some(CancelKind::Deadline);
    if late {
        run.mark_degraded();
    }
    late
}

impl Vocalizer for Optimal {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn stream<'a>(
        &self,
        table: &'a Table,
        query: &'a Query,
        voice: &'a mut dyn VoiceOutput,
        cancel: CancelToken,
    ) -> SpeechStream<'a> {
        let t0 = Instant::now();
        let schema = table.schema();
        let preamble = Renderer::new(schema, query).preamble();
        let res = ResCtx::new(&self.resilience);
        let cfg = &self.config;

        // Exact aggregates: from the semantic cache on a repeat query,
        // otherwise a full scan — the expensive part on large data. A
        // version-stale entry is invalidated and recomputed: Optimal
        // always evaluates exactly, so it never serves stale data.
        let source = match ExactHit::lookup(self.cache.as_ref(), query, table.version(), || false) {
            Some(hit) => hit.plan(schema, query, cfg, &cancel, &res.run),
            None => {
                let exact = evaluate(query, table);
                // Scored on the entry just admitted, the plan is kept
                // beside it: the first repeat reads it back.
                let admitted = self.cache.as_deref().map(|cache| {
                    cache.record_miss();
                    let (counts, sums) = (exact.counts().to_vec(), exact.sums().to_vec());
                    (cache, cache.admit_exact(&query.key(), table.version(), counts, sums))
                });
                let slot = admitted.as_ref().map(|(cache, data)| (*cache, data));
                let plan = plan_exact(schema, query, &exact, slot, cfg, &cancel, &res.run);
                plan_source(plan, table.row_count() as u64)
            }
        };

        // Only now does output start: latency includes the full scan.
        let latency = t0.elapsed();
        voice.start(&preamble);
        SpeechStream::new(voice, cancel, t0, preamble, latency, Box::new(source), res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_belief::model::BeliefModel;
    use voxolap_belief::quality::speech_quality;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;
    use voxolap_speech::ast::Baseline;
    use voxolap_speech::scope::CompiledSpeech;

    use crate::tree::tests::walked;
    use crate::voice::InstantVoice;

    /// The scorer this module replaced, kept as the oracle: exact quality
    /// of the speech at `node` of a stored tree — one
    /// [`SpeechTree::reward`] per aggregate with a finite exact value.
    fn node_quality(tree: &SpeechTree, node: NodeId, exact: &ExactResult) -> f64 {
        let targets: Vec<u32> =
            (0..exact.len() as u32).filter(|&agg| exact.value(agg).is_finite()).collect();
        if targets.is_empty() {
            return 0.0;
        }
        let total: f64 = targets.iter().map(|&agg| tree.reward(node, agg, exact.value(agg))).sum();
        total / targets.len() as f64
    }

    /// The planner this module replaced: build the whole tree, score every
    /// node of it, walk back from the winner.
    fn oracle_plan(
        schema: &Schema,
        query: &Query,
        exact: &ExactResult,
        cfg: &HolisticConfig,
    ) -> ExactPlan {
        let tree = SpeechTree::open(schema, query, cfg, exact.grand_mean());
        let renderer = voxolap_speech::render::Renderer::new(schema, query);
        let mut best: Option<(NodeId, f64, usize)> = None;
        for (node, frags, _) in walked(&tree) {
            let q = node_quality(&tree, node, exact);
            let better = match best {
                None => true,
                Some((_, bq, bf)) => q > bq + 1e-12 || (q > bq - 1e-12 && frags < bf),
            };
            if better {
                best = Some((node, q, frags));
            }
        }
        let (best_node, _, _) = best.unwrap_or((SpeechTree::ROOT, 0.0, 0));
        let mut chain: Vec<NodeId> =
            std::iter::successors(Some(best_node), |&n| tree.parent(n)).collect();
        chain.reverse();
        ExactPlan {
            speech: tree.speech_at(best_node),
            sentences: chain.iter().filter_map(|&n| tree.sentence(n, &renderer)).collect(),
            tree_nodes: tree.tree().node_count(),
            truncated: tree.truncated(),
        }
    }

    #[test]
    fn every_node_scores_bit_for_bit_what_the_oracle_scores() {
        let mut compared = 0usize;
        for (table, queries, estimate) in crate::tree::tests::differential_queries() {
            let schema = table.schema();
            for q in &queries {
                let cfg = HolisticConfig { max_tree_nodes: 5_000, ..HolisticConfig::default() };
                let exact = evaluate(q, &table);
                let tree = SpeechTree::open(schema, q, &cfg, estimate);
                let want: Vec<u64> = walked(&tree)
                    .into_iter()
                    .map(|(n, ..)| node_quality(&tree, n, &exact).to_bits())
                    .collect();

                // What the chooser feeds the scorer, node by node.
                let mut scorer = Scorer::new(&tree, &exact, q.layout());
                let mut got = Vec::new();
                tree.walk(|_, depth, kind| {
                    match kind {
                        NodeKind::Baseline(baseline) => scorer.enter_baseline(baseline.value),
                        NodeKind::Refinement { entry, delta, .. } => {
                            scorer.enter_refinement(depth, entry, delta)
                        }
                    }
                    got.push(scorer.quality(depth).to_bits());
                    true
                });
                assert_eq!(got, want, "{:?}", q.key());
                compared += want.len();
            }
        }
        assert!(compared > 30_000, "compared {compared} nodes");
    }

    /// Six group-by shapes × {no filter, three states, one region} on the
    /// 200k flights table (the combinations the query builder accepts),
    /// and the salary table: the planner and the oracle loop must agree on
    /// everything a plan says. The 100 000-node cap keeps the oracle's
    /// debug-build cost near ten seconds; `exact_plans_on_flights_are_pinned`
    /// pins three of the shapes at the full one.
    #[test]
    fn plans_equal_the_oracle_loops_on_the_flights_matrix_and_salaries() {
        use voxolap_data::flights::FlightsConfig;
        let flights = FlightsConfig { rows: 200_000, seed: 42 }.generate();
        let (salaries, salary_query) = setup();
        let airport = flights.schema().dimension(DimId(0));
        let places = ["Pennsylvania", "New York", "Massachusetts", "the North East"];
        let filters: Vec<_> = std::iter::once(None)
            .chain(places.iter().map(|p| Some(airport.member_by_phrase(p).unwrap())))
            .collect();
        let shapes: [&[(u8, u8)]; 6] =
            [&[(1, 1)], &[(1, 2)], &[(0, 1), (1, 1)], &[(0, 1), (2, 1)], &[(0, 2)], &[(2, 1)]];
        let mut cases: Vec<(&voxolap_data::Table, Query)> = vec![(&salaries, salary_query)];
        for groups in shapes {
            for &filter in &filters {
                let mut b = Query::builder(AggFct::Avg);
                for &(d, l) in groups {
                    b = b.group_by(DimId(d), LevelId(l));
                }
                if let Some(member) = filter {
                    b = b.filter(DimId(0), member);
                }
                cases.extend(b.build(flights.schema()).ok().map(|q| (&flights, q)));
            }
        }
        assert!(cases.len() > 21, "{} cases", cases.len());
        let cfg = HolisticConfig { max_tree_nodes: 100_000, ..HolisticConfig::default() };
        for (table, q) in &cases {
            let exact = evaluate(q, table);
            let want = oracle_plan(table.schema(), q, &exact, &cfg);
            let run = RunState::default();
            let got =
                plan_exact(table.schema(), q, &exact, None, &cfg, &CancelToken::never(), &run)
                    .unwrap();
            assert_eq!(got.speech, want.speech, "{:?}", q.key());
            assert_eq!(got.sentences, want.sentences, "{:?}", q.key());
            assert_eq!(
                (got.tree_nodes, got.truncated),
                (want.tree_nodes, want.truncated),
                "{:?}",
                q.key()
            );
        }
    }

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    #[test]
    fn optimal_speech_maximizes_exact_quality() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let optimal = Optimal::default();
        let outcome = optimal.vocalize(&table, &q, &mut voice);
        let speech = outcome.speech.unwrap();

        // Verify: no single-change perturbation of the baseline improves
        // exact quality (spot check of optimality).
        let exact = evaluate(&q, &table);
        let sigma = exact.grand_mean().abs() * 0.5;
        let model = BeliefModel::new(sigma);
        let layout = q.layout();
        let chosen_q = speech_quality(
            &CompiledSpeech::compile(&speech, layout, table.schema()),
            &model,
            &exact,
            layout,
        );
        for factor in [0.5, 0.8, 1.25, 2.0] {
            let mut alt = speech.clone();
            alt.baseline.value *= factor;
            let alt_q = speech_quality(
                &CompiledSpeech::compile(&alt, layout, table.schema()),
                &model,
                &exact,
                layout,
            );
            assert!(
                chosen_q >= alt_q - 1e-9,
                "perturbed baseline x{factor} beats optimal: {alt_q} > {chosen_q}"
            );
        }
        assert!(chosen_q > 0.05, "optimal quality is non-trivial: {chosen_q}");
    }

    #[test]
    fn optimal_baseline_matches_grand_mean_grid() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome = Optimal::default().vocalize(&table, &q, &mut voice);
        let exact = evaluate(&q, &table);
        let speech = outcome.speech.unwrap();
        // Grand mean ~88-92: the one-significant-digit optimum is 90.
        assert!(
            (speech.baseline.value - exact.grand_mean()).abs() < 15.0,
            "baseline {} near grand mean {}",
            speech.baseline.value,
            exact.grand_mean()
        );
    }

    #[test]
    fn reads_every_row() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome = Optimal::default().vocalize(&table, &q, &mut voice);
        assert_eq!(outcome.stats.rows_read, 320);
        assert_eq!(outcome.stats.samples, 0, "no sampling in the optimal approach");
    }

    #[test]
    fn cached_repeat_skips_the_scan_and_matches_cold_output() {
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let optimal = Optimal::default().with_cache(cache.clone());
        let mut voice = InstantVoice::default();
        let first = optimal.vocalize(&table, &q, &mut voice);
        assert_eq!(first.stats.rows_read, 320);
        let mut voice = InstantVoice::default();
        let second = optimal.vocalize(&table, &q, &mut voice);
        assert_eq!(second.stats.rows_read, 0, "repeat query served from cache");
        assert_eq!(first.body_text(), second.body_text());
        let stats = cache.stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.plan_hits, 1, "the miss kept its plan for the first repeat");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.admissions, 1);
    }

    /// Optimal always evaluates exactly: even past its deadline, a
    /// version-stale entry is invalidated, never served, and the rescan is
    /// what a repeat reads.
    #[test]
    fn optimal_rescans_a_grown_table_even_past_its_deadline() {
        use crate::holistic::tests::echo_rows;
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let optimal = Optimal::default().with_cache(cache.clone());
        optimal.vocalize(&table, &q, &mut InstantVoice::default());
        let (grown, _) = table.append_rows(&echo_rows(&table, 40)).unwrap();

        let expired = CancelToken::with_deadline(Instant::now());
        let rescan = optimal.stream(&grown, &q, &mut InstantVoice::default(), expired).drain();
        let stats = cache.stats();
        assert_eq!((stats.exact_invalidations, stats.stale_serves), (1, 0), "{stats:?}");
        assert!(!rescan.stats.stale && rescan.stats.degraded, "a cut, not a stale serve");
        assert_eq!(rescan.stats.rows_read, grown.row_count() as u64);

        let repeat = optimal.vocalize(&grown, &q, &mut InstantVoice::default());
        assert_eq!(cache.stats().exact_hits, 1, "the rescan admitted the grown table");
        assert_eq!(repeat.stats.rows_read, 0);
        assert!(!repeat.stats.stale && !repeat.stats.degraded);
    }

    /// Under 12 aggregates the 500 000-node by-month space looks a bucket
    /// mass up six million times; the memo must leave `erf` under an
    /// eighth of them (measured: 3.9 %). A count, not a clock.
    #[test]
    fn by_month_computes_under_an_eighth_of_its_bucket_masses() {
        use voxolap_data::flights::FlightsConfig;
        let table = FlightsConfig { rows: 200_000, seed: 42 }.generate();
        let schema = table.schema();
        let q = Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(2)).build(schema).unwrap();
        let exact = evaluate(&q, &table);
        let cfg = HolisticConfig::default();
        let tree = SpeechTree::open(schema, &q, &cfg, exact.grand_mean());
        assert_eq!((tree.tree().node_count(), tree.truncated()), (500_000, true));
        let (never, run) = (CancelToken::never(), RunState::default());
        let mut chooser = Chooser::new(&tree, &exact, q.layout(), &never, &run);
        chooser.choose(&tree);
        let lookups = 499_999 * 12;
        let computed = chooser.scorer.evaluations;
        assert!(computed > 0 && computed * 8 <= lookups, "{computed} of {lookups}");
    }

    fn cached_holistic() -> (Arc<SemanticCache>, crate::holistic::Holistic) {
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let cfg = HolisticConfig { min_samples_per_sentence: 400, ..HolisticConfig::default() };
        (cache.clone(), crate::holistic::Holistic::new(cfg).with_cache(cache))
    }

    /// Everything an outcome says but how long it took.
    fn untimed(o: &crate::outcome::VocalizationOutcome) -> impl PartialEq + std::fmt::Debug {
        let stats =
            crate::outcome::PlanStats { planning_time: Default::default(), ..o.stats.clone() };
        (o.speech.clone(), o.preamble.clone(), o.sentences.clone(), stats)
    }

    /// A kept plan is spoken from the compiled space: the hit that reads it
    /// expands no tree, and says what the hit that scored it said.
    #[test]
    fn a_kept_plan_says_what_the_rescored_hit_said() {
        let (table, q) = setup();
        let (cache, holistic) = cached_holistic();
        let cold = holistic.vocalize(&table, &q, &mut InstantVoice::default());
        assert_eq!(cold.stats.rows_read, 320, "cold run exhausts the table and admits it");
        let rescored = holistic.vocalize(&table, &q, &mut InstantVoice::default());
        let kept = holistic.vocalize(&table, &q, &mut InstantVoice::default());
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.plan_hits), (2, 1), "{stats:?}");
        assert!(rescored.stats.tree_nodes > 1_000, "the space was still walked and counted");
        assert_eq!(untimed(&kept), untimed(&rescored));
    }

    #[test]
    fn a_cut_hit_speaks_the_anytime_best_and_keeps_no_plan() {
        let (table, q) = setup();
        let (cache, holistic) = cached_holistic();
        holistic.vocalize(&table, &q, &mut InstantVoice::default());

        let expired = CancelToken::with_deadline(Instant::now());
        let cut = holistic.stream(&table, &q, &mut InstantVoice::default(), expired).drain();
        assert!(cut.stats.degraded, "a cut hit is marked");
        assert!(!cut.sentences.is_empty(), "and still speaks the best of what it scored");

        let full = holistic.vocalize(&table, &q, &mut InstantVoice::default());
        assert_eq!(cache.stats().plan_hits, 0, "the cut left the slot empty");
        assert!(!full.stats.degraded);
        assert_ne!(full.sentences, cut.sentences, "31 scored nodes do not hold the optimum");
        assert_eq!((full.stats.tree_nodes, full.stats.truncated), (cut.stats.tree_nodes, false));

        // Even an expired deadline cannot cut a plan that needs no scoring.
        let expired = CancelToken::with_deadline(Instant::now());
        let kept = holistic.stream(&table, &q, &mut InstantVoice::default(), expired).drain();
        assert_eq!(cache.stats().plan_hits, 1);
        assert_eq!(untimed(&kept), untimed(&full));
    }

    #[test]
    fn a_stale_serve_keeps_and_reads_the_plan_of_its_own_entry() {
        use crate::holistic::tests::echo_rows;
        let (table, q) = setup();
        let (cache, holistic) = cached_holistic();
        holistic.vocalize(&table, &q, &mut InstantVoice::default());
        // The first repeat scores a plan on the entry's aggregates and
        // keeps it beside them.
        let fresh = holistic.vocalize(&table, &q, &mut InstantVoice::default());
        let (grown, _) = table.append_rows(&echo_rows(&table, 40)).unwrap();

        // Past the deadline the version-stale entry is served (§12), and
        // its kept plan needs no scoring, so no cut can shorten it.
        let serve = || {
            let expired = CancelToken::with_deadline(Instant::now());
            holistic.stream(&grown, &q, &mut InstantVoice::default(), expired).drain()
        };
        let first = serve();
        let second = serve();
        let stats = cache.stats();
        assert_eq!((stats.stale_serves, stats.plan_hits), (2, 2), "{stats:?}");
        assert!(first.stats.stale && first.stats.degraded, "a kept plan is no fresher");
        assert_eq!(untimed(&first), untimed(&second));
        assert_eq!((&first.speech, &first.sentences), (&fresh.speech, &fresh.sentences));
    }

    #[test]
    fn another_configuration_rescans_and_takes_the_slot_over() {
        use voxolap_speech::constraints::SpeechConstraints;
        let (table, q) = setup();
        let (cache, wide) = cached_holistic();
        let narrow = crate::holistic::Holistic::new(HolisticConfig {
            constraints: SpeechConstraints { max_chars: 300, max_refinements: 1 },
            ..wide.config().clone()
        })
        .with_cache(cache.clone());
        let ask = |engine: &crate::holistic::Holistic| {
            engine.vocalize(&table, &q, &mut InstantVoice::default())
        };
        ask(&wide);
        let wide_plan = ask(&wide);
        assert_eq!(wide_plan.speech.as_ref().unwrap().refinements.len(), 2);

        let narrow_plan = ask(&narrow);
        assert_eq!(cache.stats().plan_hits, 0, "a plan under other constraints is not reused");
        assert_eq!(narrow_plan.speech.as_ref().unwrap().refinements.len(), 1);
        assert_eq!(untimed(&ask(&narrow)), untimed(&narrow_plan));
        assert_eq!(cache.stats().plan_hits, 1, "the rescored plan replaced the other one");
        assert_eq!(untimed(&ask(&wide)), untimed(&wide_plan));
        assert_eq!(cache.stats().plan_hits, 1, "and was replaced in turn");
    }

    /// The cache key sorts the GROUP BY list, the refinement catalogue
    /// enumerates predicates in the order it was written: both orders share
    /// one entry, and a path of catalogue ids means another speech under the
    /// other order.
    #[test]
    fn a_plan_kept_under_one_group_order_is_rescored_under_the_other() {
        let (table, region_first) = setup();
        let bins_first = Query::builder(AggFct::Avg)
            .group_by(DimId(1), LevelId(1))
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        assert_eq!(region_first.key(), bins_first.key());
        let (cache, holistic) = cached_holistic();
        let ask = |q: &Query| holistic.vocalize(&table, q, &mut InstantVoice::default());
        ask(&region_first);
        ask(&region_first);
        let kept = ask(&region_first);
        assert_eq!(cache.stats().plan_hits, 1, "the slot holds the region-first plan");

        let exact = evaluate(&bins_first, &table);
        let want = oracle_plan(table.schema(), &bins_first, &exact, holistic.config());
        let other = ask(&bins_first);
        assert_eq!(cache.stats().plan_hits, 1, "which the other order does not replay");
        assert_eq!(
            (other.speech.as_ref(), &other.sentences),
            (Some(&want.speech), &want.sentences)
        );
        assert_eq!(untimed(&ask(&bins_first)), untimed(&other));
        assert_eq!(cache.stats().plan_hits, 2, "its own plan took the slot over");
        assert_eq!(untimed(&ask(&region_first)), untimed(&kept));
        assert_eq!(cache.stats().exact_hits, 5, "one entry served both orders");
    }

    /// The plans `plan_exact` chooses on the 200k flights table,
    /// recorded at the commit before scoring targets were hoisted out of
    /// the node loop and the fragment count came from the depth: scores,
    /// tie-breaks and the chosen node must not move.
    #[test]
    fn exact_plans_on_flights_are_pinned() {
        use voxolap_data::flights::FlightsConfig;
        let table = FlightsConfig { rows: 200_000, seed: 42 }.generate();
        let schema = table.schema();
        let by = |groups: &[(u8, u8)]| {
            let mut b = Query::builder(AggFct::Avg);
            for &(d, l) in groups {
                b = b.group_by(DimId(d), LevelId(l));
            }
            b.build(schema).unwrap()
        };
        let cases: [(&str, Query, usize, bool, [&str; 3]); 3] = [
            (
                "by season",
                by(&[(1, 1)]),
                30_210,
                false,
                [
                    "Around one point five percent is the average cancellation probability.",
                    "Values increase by 100 percent for flights scheduled in Winter.",
                    "Values decrease by 5 percent for flights scheduled in Fall.",
                ],
            ),
            (
                "by month",
                by(&[(1, 2)]),
                500_000,
                true,
                [
                    "Around one point five percent is the average cancellation probability.",
                    "Values increase by 100 percent for flights scheduled in Winter.",
                    "Values increase by 50 percent for flights scheduled in July.",
                ],
            ),
            (
                "region x season",
                by(&[(0, 1), (1, 1)]),
                178_110,
                false,
                [
                    "One point five to two percent is the average cancellation probability.",
                    "Values increase by 50 percent for flights starting from the North East.",
                    "Values increase by 100 percent for flights scheduled in Winter.",
                ],
            ),
        ];
        for (name, q, tree_nodes, truncated, sentences) in &cases {
            let exact = evaluate(q, &table);
            let cfg = HolisticConfig::default();
            let run = RunState::default();
            let plan =
                plan_exact(schema, q, &exact, None, &cfg, &CancelToken::never(), &run).unwrap();
            assert_eq!(plan.sentences, sentences, "{name}");
            assert_eq!(plan.tree_nodes, *tree_nodes, "{name}");
            assert_eq!(plan.truncated, *truncated, "{name}");
        }
    }

    /// The one input where σ calibration has an edge: a grand mean of
    /// exactly zero takes `calibrated_sigma`'s 1.0 fallback on the sampled
    /// and the exhaustive path alike, and `baselines(0.0)` offers a single
    /// candidate — so every path speaks the same zero baseline.
    #[test]
    fn an_all_zero_measure_speaks_one_zero_baseline_on_every_path() {
        use crate::holistic::Holistic;
        let (salaries, _) = setup();
        let mut tb = voxolap_data::TableBuilder::new(salaries.schema().clone());
        for row in 0..salaries.row_count() {
            tb.push_row(&salaries.row_members(row), 0.0).unwrap();
        }
        let table = tb.build();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();

        let optimal = Optimal::default().vocalize(&table, &q, &mut InstantVoice::default());
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let holistic = Holistic::default().with_cache(cache.clone());
        let cold = holistic.vocalize(&table, &q, &mut InstantVoice::default());
        let hit = holistic.vocalize(&table, &q, &mut InstantVoice::default());
        assert_eq!(cache.stats().exact_hits, 1, "the repeat is an exact hit");
        for outcome in [&optimal, &cold, &hit] {
            assert_eq!(outcome.speech.as_ref().unwrap().baseline, Baseline::point(0.0));
            assert_eq!(outcome.sentences[0], optimal.sentences[0]);
        }
        assert_eq!(hit.sentences, optimal.sentences, "exact hit and Optimal are one planner");
    }

    #[test]
    fn deterministic_output() {
        let (table, q) = setup();
        let run = || {
            let mut voice = InstantVoice::default();
            Optimal::default().vocalize(&table, &q, &mut voice).body_text()
        };
        assert_eq!(run(), run());
    }
}
