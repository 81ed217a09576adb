//! Uncertainty extensions (paper §4.4).
//!
//! The algorithm "can be extended to provide users with information on
//! uncertainty" in two modes: a general warning appended when confidence in
//! spoken values is below a threshold, or precise confidence bounds spoken
//! at the point where voice rendering of the corresponding sentence starts.
//! Bounds come from the random samples in the cache; "the way in which
//! confidence bounds are calculated is not specific to vocalization".

use voxolap_data::schema::MeasureUnit;
use voxolap_engine::query::AggIdx;
use voxolap_engine::sharded::ShardedSampleCache;
use voxolap_speech::verbalize::verbalize_value;

/// How uncertainty information is transmitted to the user.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum UncertaintyMode {
    /// No uncertainty output (the default).
    #[default]
    Off,
    /// Append a general warning when the widest 95 % confidence interval
    /// among the sentence's aggregates exceeds `max_relative_width`
    /// (interval width relative to the estimate's magnitude).
    Warning {
        /// Threshold on relative interval width.
        max_relative_width: f64,
    },
    /// Speak the pooled 95 % confidence bounds after the sentence.
    SpokenBounds,
}

/// The 95 % z-score used for spoken bounds.
const Z95: f64 = 1.96;

/// Compute the uncertainty annotation for a sentence covering `aggs`.
///
/// Returns the extra sentence to append, or `None` when the mode is off,
/// confidence is sufficient, or no aggregate has enough cached samples.
pub fn annotate(
    mode: UncertaintyMode,
    cache: &ShardedSampleCache,
    aggs: &[AggIdx],
    unit: MeasureUnit,
) -> Option<String> {
    match mode {
        UncertaintyMode::Off => None,
        UncertaintyMode::Warning { max_relative_width } => {
            let mut widest = 0.0f64;
            for &a in aggs {
                if let Some((lo, hi)) = cache.confidence_interval(a, Z95) {
                    let mid = (lo + hi) / 2.0;
                    let rel = (hi - lo) / mid.abs().max(f64::MIN_POSITIVE);
                    widest = widest.max(rel);
                }
            }
            (widest > max_relative_width).then(|| {
                "Please note that confidence in the spoken values is still low.".to_string()
            })
        }
        UncertaintyMode::SpokenBounds => {
            let mut lo_min = f64::INFINITY;
            let mut hi_max = f64::NEG_INFINITY;
            let mut any = false;
            for &a in aggs {
                if let Some((lo, hi)) = cache.confidence_interval(a, Z95) {
                    lo_min = lo_min.min(lo);
                    hi_max = hi_max.max(hi);
                    any = true;
                }
            }
            any.then(|| {
                format!(
                    "With 95 percent confidence, values lie between {} and {}.",
                    verbalize_value(lo_min.max(0.0), unit),
                    verbalize_value(hi_max, unit)
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::{AggFct, Query};
    use voxolap_engine::sharded::IngestBatch;

    fn filled_cache(rows: usize) -> (ShardedSampleCache, Query, voxolap_data::Table) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let cache = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let mut batch = IngestBatch::new(q.n_aggregates());
        let mut scan = table.scan_shuffled(5);
        for _ in 0..rows {
            let Some(r) = scan.next_row() else { break };
            batch.push(q.layout().agg_of_row(r.members), r.value);
        }
        cache.observe_batch(&mut batch);
        (cache, q, table)
    }

    #[test]
    fn off_mode_annotates_nothing() {
        let (cache, q, table) = filled_cache(100);
        let aggs: Vec<u32> = (0..q.n_aggregates() as u32).collect();
        let out = annotate(UncertaintyMode::Off, &cache, &aggs, table.schema().measure_unit());
        assert_eq!(out, None);
    }

    #[test]
    fn warning_fires_only_below_threshold() {
        // Half the table: the intervals are still open.
        let (cache, q, table) = filled_cache(160);
        let aggs: Vec<u32> = (0..q.n_aggregates() as u32).collect();
        let unit = table.schema().measure_unit();
        // Salary spreads are ~10%; a generous threshold stays silent...
        let silent =
            annotate(UncertaintyMode::Warning { max_relative_width: 2.0 }, &cache, &aggs, unit);
        assert_eq!(silent, None);
        // ...a strict one warns.
        let warned =
            annotate(UncertaintyMode::Warning { max_relative_width: 0.0001 }, &cache, &aggs, unit);
        assert!(warned.unwrap().contains("confidence"));
    }

    #[test]
    fn spoken_bounds_verbalize_interval() {
        let (cache, q, table) = filled_cache(320);
        let aggs: Vec<u32> = (0..q.n_aggregates() as u32).collect();
        let text =
            annotate(UncertaintyMode::SpokenBounds, &cache, &aggs, table.schema().measure_unit())
                .unwrap();
        assert!(text.starts_with("With 95 percent confidence"));
        assert!(text.contains(" K"), "dollar values verbalized: {text}");
    }

    #[test]
    fn an_exhaustive_scan_claims_no_uncertainty() {
        // All 320 rows read: no warning at any threshold, and the spoken
        // bounds close on the exact values.
        let (cache, q, table) = filled_cache(320);
        let aggs: Vec<u32> = (0..q.n_aggregates() as u32).collect();
        let unit = table.schema().measure_unit();
        let strict = UncertaintyMode::Warning { max_relative_width: 0.0 };
        assert_eq!(annotate(strict, &cache, &aggs, unit), None);
        for a in aggs {
            let text = annotate(UncertaintyMode::SpokenBounds, &cache, &[a], unit).unwrap();
            let (lo, hi) = cache.confidence_interval(a, Z95).unwrap();
            assert_eq!(lo, hi, "{text}");
        }
    }

    #[test]
    fn no_samples_means_no_bounds() {
        let (_, q, table) = filled_cache(0);
        let empty = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let aggs: Vec<u32> = (0..q.n_aggregates() as u32).collect();
        let out =
            annotate(UncertaintyMode::SpokenBounds, &empty, &aggs, table.schema().measure_unit());
        assert_eq!(out, None);
    }
}
