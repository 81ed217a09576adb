//! Candidate enumeration: the speech-generation functions `SG.Preamble`
//! and `SG.Refinements` that span the planner's search space.
//!
//! * **Baseline candidates** come from the one-significant-digit value grid
//!   around a (cache- or exact-) estimate of the overall aggregate value —
//!   paper Figure 2 shows sibling baselines "70 K", "80 K", "90 K".
//! * **Refinement candidates** combine a predicate pool (grouping-level
//!   members of grouped dimensions plus their coarser ancestors within the
//!   query scope) with change directions and a quantifier menu. The
//!   quantifier menu {5, 10, 20, 25, 50, 100, 200} covers the changes seen
//!   in all of the paper's example speeches.
//!
//! The pool size bounds `m`, the branching factor of the search tree; the
//! paper's complexity results (Theorems A.3/A.4) are stated in terms of it.
//!
//! A query has only `m` distinct refinements however large its search tree
//! grows, so everything that depends on the refinement alone — its scope
//! masks, its rendered length, which other refinements share its predicates
//! — is compiled once into a [`RefinementCatalogue`] that the tree refers
//! to by index.

use voxolap_data::dimension::LevelId;
use voxolap_data::schema::Schema;
use voxolap_engine::query::Query;

use std::collections::HashMap;

use crate::ast::{Baseline, Change, Direction, Predicate, Refinement, Speech};
use crate::render::Renderer;
use crate::scope::RefinementScope;
use crate::verbalize::baseline_grid;

/// Configuration of the candidate space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CandidateConfig {
    /// Change quantifiers, in percent.
    pub quantifiers: Vec<u32>,
    /// Maximum predicates per refinement (the paper's examples use one;
    /// two-predicate refinements pinpoint single aggregates).
    pub max_predicates: usize,
    /// Also offer predicates at levels coarser than the grouping level
    /// (e.g. region-level claims on a by-state breakdown).
    pub include_coarser_levels: bool,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            quantifiers: vec![5, 10, 20, 25, 50, 100, 200],
            max_predicates: 1,
            include_coarser_levels: true,
        }
    }
}

/// Enumerates baseline and refinement candidates for one query.
#[derive(Debug, Clone)]
pub struct CandidateGenerator<'a> {
    schema: &'a Schema,
    query: &'a Query,
    config: CandidateConfig,
    /// Predicate pool, precomputed at construction.
    pool: Vec<Predicate>,
}

impl<'a> CandidateGenerator<'a> {
    /// Build a generator; the predicate pool is resolved eagerly.
    pub fn new(schema: &'a Schema, query: &'a Query, config: CandidateConfig) -> Self {
        let pool = predicate_pool(schema, query, &config);
        CandidateGenerator { schema, query, config, pool }
    }

    /// The predicate pool (for introspection and size accounting).
    pub fn pool(&self) -> &[Predicate] {
        &self.pool
    }

    /// Baseline candidates around `estimate` (one per grid value).
    ///
    /// A zero estimate (e.g. no positive 0/1 measure observed yet) yields
    /// the single candidate "0"; negative estimates mirror the positive
    /// grid.
    pub fn baselines(&self, estimate: f64) -> Vec<Baseline> {
        if estimate == 0.0 {
            return vec![Baseline::point(0.0)];
        }
        if estimate < 0.0 {
            return baseline_grid(-estimate)
                .into_iter()
                .rev()
                .map(|value| Baseline::point(-value))
                .collect();
        }
        let grid = baseline_grid(estimate);
        let mut out: Vec<Baseline> = grid.iter().map(|&v| Baseline::point(v)).collect();
        // Range baselines over adjacent grid values ("five to ten percent",
        // paper Table 13) — their belief anchors on the midpoint, trading
        // precision for honesty about spread.
        for w in grid.windows(2) {
            out.push(Baseline::range(w[0], w[1]));
        }
        out
    }

    /// `SG.Refinements(q, t)`: candidate next sentences extending `prefix`.
    ///
    /// Refinements whose predicate set already occurs in the prefix are
    /// excluded (repeating a scope re-states or contradicts the earlier
    /// claim). Validity against user preferences is checked separately by
    /// the caller (`SG.IsValid`).
    pub fn refinements(&self, prefix: &Speech) -> Vec<Refinement> {
        let mut out = Vec::new();
        let used: Vec<&[Predicate]> =
            prefix.refinements.iter().map(|r| r.predicates.as_slice()).collect();

        let push_for_predicates = |predicates: &[Predicate], out: &mut Vec<Refinement>| {
            if used.contains(&predicates) {
                return;
            }
            for &q in &self.config.quantifiers {
                out.push(Refinement {
                    predicates: predicates.to_vec(),
                    change: Change { direction: Direction::Increase, percent: q },
                });
                // A decrease of 100 % or more would take values to zero
                // or below.
                if q < 100 {
                    out.push(Refinement {
                        predicates: predicates.to_vec(),
                        change: Change { direction: Direction::Decrease, percent: q },
                    });
                }
            }
        };

        for p in &self.pool {
            push_for_predicates(std::slice::from_ref(p), &mut out);
        }
        if self.config.max_predicates >= 2 {
            for (i, p) in self.pool.iter().enumerate() {
                for q in &self.pool[i + 1..] {
                    if p.dim != q.dim {
                        push_for_predicates(&[*p, *q], &mut out);
                    }
                }
            }
        }
        out
    }

    /// The schema this generator renders against.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The query this generator plans for.
    pub fn query(&self) -> &Query {
        self.query
    }
}

/// One distinct refinement of a query's candidate space, with the
/// per-query facts the search would otherwise re-derive at every node.
#[derive(Debug, Clone)]
pub struct CatalogueEntry {
    /// The grammar-level refinement.
    pub ast: Refinement,
    /// Its aggregate scope over the query's result layout.
    pub scope: RefinementScope,
    /// Length in characters of its rendered sentence. A speech body is its
    /// sentences joined by single spaces, so body lengths are sums of these.
    pub chars: usize,
    /// Identifies the predicate set: two entries carry the same id exactly
    /// when their predicates are equal (they differ in the change only), so
    /// `SG.Refinements`' "already used in the prefix" test is an id compare.
    pub predicate_set: u32,
}

/// Every refinement [`CandidateGenerator::refinements`] can offer for one
/// query, enumerated once in the generator's order. The refinements
/// offered after a prefix are this list minus the entries whose
/// `predicate_set` the prefix already used — in the same relative order.
#[derive(Debug, Clone)]
pub struct RefinementCatalogue {
    entries: Vec<CatalogueEntry>,
}

impl RefinementCatalogue {
    /// Enumerate and compile the refinements of `generator`'s query.
    pub fn compile(generator: &CandidateGenerator<'_>, renderer: &Renderer<'_>) -> Self {
        let schema = generator.schema();
        let layout = generator.query().layout();
        let asts = generator.refinements(&Speech::baseline_only(0.0));
        let sets: Vec<u32> = {
            let mut ids: HashMap<&[Predicate], u32> = HashMap::new();
            asts.iter()
                .map(|r| {
                    let next = ids.len() as u32;
                    *ids.entry(r.predicates.as_slice()).or_insert(next)
                })
                .collect()
        };
        let entries = asts
            .into_iter()
            .zip(sets)
            .map(|(ast, predicate_set)| CatalogueEntry {
                scope: RefinementScope::compile(&ast, layout, schema),
                chars: renderer.refinement_sentence(&ast).chars().count(),
                predicate_set,
                ast,
            })
            .collect();
        RefinementCatalogue { entries }
    }

    /// All entries, in the generator's enumeration order.
    pub fn entries(&self) -> &[CatalogueEntry] {
        &self.entries
    }

    /// The entry at `index` (an index into [`entries`](Self::entries)).
    #[inline]
    pub fn entry(&self, index: u32) -> &CatalogueEntry {
        &self.entries[index as usize]
    }
}

/// Build the predicate pool: for every grouped dimension, the members at
/// its grouping level within the query scope, plus (optionally) members at
/// strictly coarser levels below the scope member.
fn predicate_pool(schema: &Schema, query: &Query, config: &CandidateConfig) -> Vec<Predicate> {
    let layout = query.layout();
    let mut pool = Vec::new();
    for &(dim, group_level) in query.group_by() {
        let d = schema.dimension(dim);
        let scope = layout.scope(dim);
        let scope_level = d.member(scope).level;
        let first_level = if config.include_coarser_levels {
            scope_level.index() + 1
        } else {
            group_level.index()
        };
        for li in first_level..=group_level.index() {
            let level = LevelId(li as u8);
            for m in d.level_members(level) {
                if d.is_ancestor_or_self(scope, m) {
                    pool.push(Predicate { dim, member: m });
                }
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::flights::FlightsConfig;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;

    fn salary_query() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    #[test]
    fn pool_contains_grouping_level_members() {
        let (table, q) = salary_query();
        let g = CandidateGenerator::new(table.schema(), &q, CandidateConfig::default());
        // 4 regions + 2 rough salary bins, nothing coarser exists above
        // level 1 (the scope is the root).
        assert_eq!(g.pool().len(), 6);
    }

    #[test]
    fn pool_includes_coarser_levels_for_deep_groupings() {
        let table = FlightsConfig { rows: 100, seed: 1 }.generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(2)) // by state
            .build(table.schema())
            .unwrap();
        let with = CandidateGenerator::new(table.schema(), &q, CandidateConfig::default());
        let without = CandidateGenerator::new(
            table.schema(),
            &q,
            CandidateConfig { include_coarser_levels: false, ..CandidateConfig::default() },
        );
        // 24 states; the coarser pool adds the 5 regions.
        assert_eq!(without.pool().len(), 24);
        assert_eq!(with.pool().len(), 29);
    }

    #[test]
    fn pool_respects_filter_scope() {
        let table = FlightsConfig { rows: 100, seed: 1 }.generate();
        let schema = table.schema();
        let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(0), ne)
            .group_by(DimId(0), LevelId(2))
            .build(schema)
            .unwrap();
        let g = CandidateGenerator::new(schema, &q, CandidateConfig::default());
        // Only the 5 NE states; the region level is the scope level itself
        // so no coarser members are added.
        assert_eq!(g.pool().len(), 5);
        let airport = schema.dimension(DimId(0));
        assert!(g.pool().iter().all(|p| airport.is_ancestor_or_self(ne, p.member)));
    }

    #[test]
    fn baselines_come_from_value_grid() {
        let (table, q) = salary_query();
        let g = CandidateGenerator::new(table.schema(), &q, CandidateConfig::default());
        let b = g.baselines(88.0);
        assert!(b.iter().any(|x| x.value == 90.0 && x.spoken_range.is_none()));
        assert!(b.iter().any(|x| x.value == 80.0 && x.spoken_range.is_none()));
        assert!(b.len() >= 4);
    }

    #[test]
    fn baselines_include_adjacent_ranges() {
        let (table, q) = salary_query();
        let g = CandidateGenerator::new(table.schema(), &q, CandidateConfig::default());
        let b = g.baselines(88.0);
        let range = b
            .iter()
            .find(|x| x.spoken_range == Some((80.0, 90.0)))
            .expect("80-90 K range candidate exists");
        assert!((range.value - 85.0).abs() < 1e-9, "anchored on the midpoint");
    }

    #[test]
    fn zero_estimate_yields_single_zero_baseline() {
        let (table, q) = salary_query();
        let g = CandidateGenerator::new(table.schema(), &q, CandidateConfig::default());
        let b = g.baselines(0.0);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].value, 0.0);
    }

    #[test]
    fn refinements_cover_directions_and_quantifiers() {
        let (table, q) = salary_query();
        let g = CandidateGenerator::new(table.schema(), &q, CandidateConfig::default());
        let prefix = Speech::baseline_only(90.0);
        let refs = g.refinements(&prefix);
        // 6 predicates x (7 increases + 5 decreases < 100%).
        assert_eq!(refs.len(), 6 * (7 + 5));
        assert!(refs.iter().any(|r| r.change.direction == Direction::Decrease));
        // No decrease by >= 100%.
        assert!(refs
            .iter()
            .all(|r| r.change.direction == Direction::Increase || r.change.percent < 100));
    }

    #[test]
    fn used_predicates_are_not_reoffered() {
        let (table, q) = salary_query();
        let g = CandidateGenerator::new(table.schema(), &q, CandidateConfig::default());
        let prefix = Speech::baseline_only(90.0);
        let all = g.refinements(&prefix);
        let extended = prefix.with_refinement(all[0].clone());
        let rest = g.refinements(&extended);
        assert!(rest.iter().all(|r| r.predicates != all[0].predicates));
        assert!(rest.len() < all.len());
    }

    #[test]
    fn two_predicate_refinements_span_dimension_pairs() {
        let (table, q) = salary_query();
        let g = CandidateGenerator::new(
            table.schema(),
            &q,
            CandidateConfig { max_predicates: 2, ..CandidateConfig::default() },
        );
        let refs = g.refinements(&Speech::baseline_only(90.0));
        let pairs: Vec<_> = refs.iter().filter(|r| r.predicates.len() == 2).collect();
        // 4 regions x 2 bins = 8 cross-dimension pairs, each with 12
        // change variants.
        assert_eq!(pairs.len(), 8 * 12);
        assert!(pairs.iter().all(|r| r.predicates[0].dim != r.predicates[1].dim));
    }
}
