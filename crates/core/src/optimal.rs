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
//! approaches and scores the tree they would sample: the space is opened
//! around the exact grand mean instead of a warm-up estimate, with the same
//! σ calibration. The holistic engine's exact cache hit runs the same
//! scoring over cached aggregates.

use std::sync::Arc;
use std::time::Instant;

use voxolap_belief::model::rounding_bucket;
use voxolap_belief::normal::Normal;
use voxolap_data::schema::Schema;
use voxolap_data::Table;
use voxolap_engine::exact::{evaluate, ExactResult};
use voxolap_engine::query::{Query, ResultLayout};
use voxolap_engine::semantic::SemanticCache;
use voxolap_faults::{DegradeReason, Resilience, RunState};
use voxolap_mcts::NodeId;
use voxolap_speech::ast::Speech;
use voxolap_speech::render::Renderer;

use crate::approach::Vocalizer;
use crate::holistic::HolisticConfig;
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::stream::{Buffered, SpeechStream};
use crate::resilience::ResCtx;
use crate::tree::SpeechTree;
use crate::voice::VoiceOutput;

/// The optimal vocalizer.
#[derive(Debug, Clone, Default)]
pub struct Optimal {
    pub(crate) config: HolisticConfig,
    pub(crate) cache: Option<Arc<SemanticCache>>,
    /// Inert unless replaced; see [`Optimal::with_resilience`].
    pub(crate) resilience: Arc<Resilience>,
}

impl Optimal {
    /// Create with the given configuration (the fields marked *all* in
    /// [`HolisticConfig`] are the ones read).
    pub fn new(config: HolisticConfig) -> Self {
        Optimal { config, cache: None, resilience: Arc::default() }
    }

    /// Replace the resilience bundle the answers are counted in. Optimal
    /// reads no fault site before output, but its scoring loop is cut by a
    /// deadline like any other planning loop, and the cut is marked.
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

/// What scoring needs to know about one aggregate with a finite exact
/// value — per-query facts, computed once before the node loop.
struct Target {
    /// The aggregate's decomposed coordinates.
    coords: Vec<u32>,
    /// The rounding bucket `[lo, hi)` around its exact value.
    bucket: (f64, f64),
}

/// One [`Target`] per aggregate with a finite exact value, in aggregate
/// order.
fn scoring_targets(exact: &ExactResult, layout: &ResultLayout, sigma: f64) -> Vec<Target> {
    (0..layout.n_aggregates() as u32)
        .filter_map(|agg| {
            let actual = exact.value(agg);
            actual.is_finite().then(|| Target {
                coords: layout.coords_of_agg(agg),
                bucket: rounding_bucket(actual, sigma / 10.0),
            })
        })
        .collect()
}

/// Exact quality (Definition 2.2) of the speech at `node`, using the
/// tree's incremental belief means.
fn node_quality(tree: &SpeechTree, node: NodeId, targets: &[Target], sigma: f64) -> f64 {
    if targets.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for target in targets {
        let mean = tree.mean_for(node, &target.coords);
        let (lo, hi) = target.bucket;
        total += Normal::new(mean, sigma).prob_interval(lo, hi);
    }
    total / targets.len() as f64
}

/// A fully planned speech derived from exact aggregate values.
pub(crate) struct ExactPlan {
    pub speech: Speech,
    pub sentences: Vec<String>,
    pub tree_nodes: usize,
    pub truncated: bool,
}

/// The source that speaks what [`plan_from_exact`] returned — the plan, or
/// the no-data report when the query scope was empty — charged with
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
/// exhaustive scoring, shared with the Holistic engines' semantic-cache
/// exact-hit path (which obtains the exact values without a table scan).
/// Returns `None` when the grand mean is undefined (empty query scope).
///
/// Scoring visits every node of the search space — over a wide breakdown
/// that is seconds of work (500k nodes × one `node_quality` pass over
/// every aggregate each). The `cancel` token is polled between nodes: a
/// fired token keeps the best speech found so far (the anytime cut of
/// the exhaustive search) and marks `run` degraded, so neither Optimal nor
/// an exact hit can outlast the deadline that bounds the sampled path.
pub(crate) fn plan_from_exact(
    schema: &Schema,
    query: &Query,
    exact: &ExactResult,
    cfg: &HolisticConfig,
    cancel: &CancelToken,
    run: &RunState,
) -> Option<ExactPlan> {
    let grand = exact.grand_mean();
    if !grand.is_finite() {
        return None;
    }
    let (sigma, tree) = SpeechTree::open(schema, query, cfg, grand);
    let renderer = Renderer::new(schema, query);

    // Score every node (every speech in the search space T); ties go to
    // the shorter speech.
    let targets = scoring_targets(exact, query.layout(), sigma);
    let mut best: Option<(NodeId, f64, usize)> = None;
    let mut since_poll = 0u32;
    for node in tree.all_nodes() {
        if node == SpeechTree::ROOT {
            continue;
        }
        since_poll += 1;
        if since_poll >= 32 {
            since_poll = 0;
            if cancel.fired() {
                run.mark_degraded(DegradeReason::Deadline);
                break;
            }
        }
        let q = node_quality(&tree, node, &targets, sigma);
        let frags = tree.fragment_count(node);
        let better = match best {
            None => true,
            Some((_, bq, bf)) => q > bq + 1e-12 || (q > bq - 1e-12 && frags < bf),
        };
        if better {
            best = Some((node, q, frags));
        }
    }

    let (best_node, _, _) = best.unwrap_or((SpeechTree::ROOT, 0.0, 0));
    // Walk root -> best to emit sentences in speaking order.
    let mut chain = Vec::new();
    let mut cur = Some(best_node);
    while let Some(n) = cur {
        if n != SpeechTree::ROOT {
            chain.push(n);
        }
        cur = tree.tree().parent(n);
    }
    chain.reverse();
    let sentences: Vec<String> =
        chain.iter().filter_map(|&n| tree.sentence(n, &renderer)).collect();

    Some(ExactPlan {
        speech: tree.speech_at(best_node),
        sentences,
        tree_nodes: tree.tree().node_count(),
        truncated: tree.truncated(),
    })
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
        let renderer = Renderer::new(schema, query);
        let preamble = renderer.preamble();

        // Exact aggregates: from the semantic cache on a repeat query,
        // otherwise a full scan — the expensive part on large data. A
        // version-stale entry is invalidated and recomputed: Optimal
        // always evaluates exactly, so it never serves stale data.
        let key = self.cache.as_ref().map(|_| query.key());
        let cached = match (&self.cache, &key) {
            (Some(cache), Some(key)) => match cache.lookup_exact(key, table.version()) {
                voxolap_engine::semantic::ExactLookup::Fresh(data) => Some(data),
                voxolap_engine::semantic::ExactLookup::Stale(_) => {
                    cache.invalidate_exact(key);
                    None
                }
                voxolap_engine::semantic::ExactLookup::Miss => None,
            },
            _ => None,
        };
        let hit = cached.is_some();
        let exact = match cached {
            Some(data) => data.to_result(query.fct()),
            None => {
                let exact = evaluate(query, table);
                if let (Some(cache), Some(key)) = (&self.cache, &key) {
                    cache.record_miss();
                    cache.admit_exact(
                        key,
                        table.version(),
                        exact.counts().to_vec(),
                        exact.sums().to_vec(),
                    );
                }
                exact
            }
        };
        let rows_read = if hit { 0 } else { table.row_count() as u64 };

        let res = ResCtx::new(&self.resilience);
        let plan = plan_from_exact(schema, query, &exact, &self.config, &cancel, &res.run);
        let source = plan_source(plan, rows_read);

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

    use crate::voice::InstantVoice;

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
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.admissions, 1);
    }

    /// The plans `plan_from_exact` chooses on the 200k flights table,
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
                plan_from_exact(schema, q, &exact, &cfg, &CancelToken::never(), &run).unwrap();
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
