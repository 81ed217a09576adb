//! Reimplementation of the prior data-vocalization baseline
//! (Trummer, Zhu, Bryan: "Data vocalization: optimizing voice output of
//! relational data", VLDB 2017) that the paper compares against in §5.2.
//!
//! Characteristics the comparison relies on (paper §6):
//!
//! * it does **not** interleave query processing and vocalization — the
//!   query result is computed exactly first;
//! * it does **not** limit speech output length — every aggregate is
//!   described, so output grows with the result (worst case exponentially
//!   in the number of dimensions, the effect behind Table 9);
//! * it uses greedy merging instead of MCTS: aggregates with the same
//!   one-significant-digit value are grouped into one sentence, and scope
//!   descriptions within a group are greedily collapsed when they cover a
//!   dimension completely (the `m_S = m_C = 1` configuration of the
//!   original paper: one merging pass over scopes and one over values).
//!
//! The resulting output reads like spoken "bullet points": *"Around two
//! percent is the average cancellation probability for flights starting
//! from the West in Spring, for flights starting from the South in Fall,
//! …"*.

use std::collections::HashMap;
use std::time::Instant;

use voxolap_data::schema::Schema;
use voxolap_data::Table;
use voxolap_engine::exact::evaluate;
use voxolap_engine::query::Query;
use voxolap_speech::render::{aggregate_phrase, render_unit, Renderer};
use voxolap_speech::verbalize::{round_significant, verbalize_value};

use crate::approach::Vocalizer;
use crate::pipeline::cancel::CancelToken;
use crate::pipeline::stream::{Buffered, SpeechStream};
use crate::resilience::ResCtx;
use crate::voice::VoiceOutput;

/// A (partial) scope description: one optional coordinate index per
/// dimension; `None` means the dimension is unrestricted ("all").
type ScopeDesc = Vec<Option<u32>>;

/// The prior greedy vocalizer.
#[derive(Debug, Clone, Default)]
pub struct PriorGreedy;

impl PriorGreedy {
    /// Greedy scope merging: repeatedly, when a set of descriptions agrees
    /// on all dimensions but one and covers that dimension's full
    /// coordinate range, collapse it to a single description with the
    /// dimension unrestricted. Runs to fixpoint.
    fn merge_scopes(mut descs: Vec<ScopeDesc>, radixes: &[u32]) -> Vec<ScopeDesc> {
        loop {
            let mut merged_any = false;
            'dims: for d in 0..radixes.len() {
                // Bucket descriptions by their value on all other dims.
                let mut buckets: HashMap<Vec<Option<u32>>, Vec<usize>> = HashMap::new();
                for (i, desc) in descs.iter().enumerate() {
                    if desc[d].is_none() {
                        continue;
                    }
                    let mut key = desc.clone();
                    key[d] = None;
                    buckets.entry(key).or_default().push(i);
                }
                for (key, idxs) in buckets {
                    let mut covered: Vec<bool> = vec![false; radixes[d] as usize];
                    for &i in &idxs {
                        if let Some(c) = descs[i][d] {
                            covered[c as usize] = true;
                        }
                    }
                    if covered.iter().all(|&b| b) && radixes[d] > 1 {
                        // Remove the covering descriptions, insert the
                        // collapsed one.
                        let mut keep: Vec<ScopeDesc> = Vec::with_capacity(descs.len());
                        let drop: Vec<usize> = idxs;
                        for (i, desc) in descs.into_iter().enumerate() {
                            if !drop.contains(&i) {
                                keep.push(desc);
                            }
                        }
                        keep.push(key);
                        descs = keep;
                        merged_any = true;
                        break 'dims;
                    }
                }
            }
            if !merged_any {
                return descs;
            }
        }
    }

    /// Render one scope description, e.g.
    /// `"flights starting from the West in Spring"` or `"all data"`.
    fn describe(desc: &ScopeDesc, query: &Query, schema: &Schema) -> String {
        let layout = query.layout();
        let parts: Vec<String> = query
            .group_by()
            .iter()
            .filter_map(|&(dim, _)| {
                desc[dim.index()].map(|c| {
                    let member = layout.coords(dim)[c as usize];
                    schema.dimension(dim).predicate_phrase(member)
                })
            })
            .collect();
        if parts.is_empty() {
            "all data".to_string()
        } else {
            parts.join(" and ")
        }
    }
}

impl Vocalizer for PriorGreedy {
    fn name(&self) -> &'static str {
        "prior"
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
        let layout = query.layout();

        // Exact evaluation first; no interleaving.
        let exact = evaluate(query, table);

        // Value merging: group aggregates by one-significant-digit value.
        let mut groups: Vec<(f64, Vec<u32>)> = Vec::new();
        for agg in 0..layout.n_aggregates() as u32 {
            let v = exact.value(agg);
            if !v.is_finite() {
                continue;
            }
            let key = round_significant(v, 1);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, aggs)) => aggs.push(agg),
                None => groups.push((key, vec![agg])),
            }
        }
        // Speak larger values first (the original orders by salience).
        groups.sort_by(|a, b| b.0.total_cmp(&a.0));

        let n_dims = schema.dimensions().len();
        let radixes: Vec<u32> =
            (0..n_dims).map(|d| layout.radix(voxolap_data::DimId(d as u8))).collect();
        let measure_info = schema.measure(query.measure());
        let agg_name = aggregate_phrase(query.fct(), &measure_info.name);
        let unit = render_unit(query.fct(), measure_info.unit);

        let mut sentences = Vec::new();
        for (value, aggs) in groups {
            let descs: Vec<ScopeDesc> = aggs
                .iter()
                .map(|&a| layout.coords_of_agg(a).into_iter().map(Some).collect())
                .collect();
            let merged = Self::merge_scopes(descs, &radixes);
            let scope_list: Vec<String> =
                merged.iter().map(|d| Self::describe(d, query, schema)).collect();
            let spoken_value = verbalize_value(value, unit);
            let mut sentence = format!("{spoken_value} is the {agg_name} for ");
            sentence.push_str(&scope_list.join(", for "));
            sentence.push('.');
            // Capitalize the sentence start.
            let mut chars = sentence.chars();
            let sentence = match chars.next() {
                Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
                None => sentence,
            };
            sentences.push(sentence);
        }

        // Only now does output start: no interleaving with evaluation.
        let latency = t0.elapsed();
        voice.start(&preamble);
        let source = Buffered::planned(sentences, None, 0, table.row_count() as u64, 0, false);
        // No planning loop a deadline could cut and no fault site: the run
        // is its own, always clean, and counted in nobody's bundle.
        SpeechStream::new(voice, cancel, t0, preamble, latency, Box::new(source), ResCtx::inert())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::flights::FlightsConfig;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;

    use crate::voice::InstantVoice;

    #[test]
    fn enumerates_every_aggregate_value() {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        let mut voice = InstantVoice::default();
        let outcome = PriorGreedy.vocalize(&table, &q, &mut voice);
        assert!(outcome.speech.is_none());
        assert!(!outcome.sentences.is_empty());
        // Every sentence follows the bullet-point pattern.
        for s in &outcome.sentences {
            assert!(s.contains("is the average mid-career salary for"), "{s}");
        }
    }

    #[test]
    fn output_grows_with_dimensionality() {
        let table = FlightsConfig { rows: 30_000, seed: 42 }.generate();
        let schema = table.schema();
        let small_q = Query::builder(AggFct::Avg)
            .group_by(DimId(1), LevelId(1)) // 4 seasons
            .build(schema)
            .unwrap();
        let big_q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(2)) // 24 states
            .group_by(DimId(1), LevelId(2)) // 12 months
            .build(schema)
            .unwrap();
        let mut voice = InstantVoice::default();
        let small = PriorGreedy.vocalize(&table, &small_q, &mut voice);
        let big = PriorGreedy.vocalize(&table, &big_q, &mut voice);
        assert!(
            big.body_len() > 4 * small.body_len(),
            "prior output explodes with dimensions: {} vs {}",
            big.body_len(),
            small.body_len()
        );
    }

    #[test]
    fn scope_merging_collapses_full_dimensions() {
        // Two dims with radix 2 and 3; six descriptions covering everything
        // must merge down to one unrestricted description.
        let descs: Vec<ScopeDesc> =
            (0..2).flat_map(|a| (0..3).map(move |b| vec![Some(a), Some(b)])).collect();
        let merged = PriorGreedy::merge_scopes(descs, &[2, 3]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0], vec![None, None]);
    }

    #[test]
    fn partial_coverage_does_not_merge() {
        let descs: Vec<ScopeDesc> = vec![vec![Some(0), Some(0)], vec![Some(0), Some(1)]];
        let merged = PriorGreedy::merge_scopes(descs.clone(), &[2, 3]);
        assert_eq!(merged.len(), 2, "2 of 3 coordinates covered: no merge");
    }

    #[test]
    fn merged_scopes_verbalize_as_all_data() {
        let table = SalaryConfig::paper_scale().generate();
        // Group by rough salary only: if both bins round to the same value
        // the result collapses to a single "all data" sentence.
        let q = Query::builder(AggFct::Count)
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        let mut voice = InstantVoice::default();
        let outcome = PriorGreedy.vocalize(&table, &q, &mut voice);
        // Either the bins differ (two sentences) or merged ("all data").
        assert!(!outcome.sentences.is_empty());
    }
}
