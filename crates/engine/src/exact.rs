//! Exact query evaluation by full scan.
//!
//! Used by the *Optimal* planner variant (which "samples neither from the
//! data nor in the plan space", paper §5.1) and by exact speech-quality
//! measurement over the entire data set.

use std::sync::Arc;

use voxolap_data::{MorselPool, ScanOrder, Table};

use crate::query::{AggFct, AggIdx, Query, AGG_OUT_OF_SCOPE};

/// Exact result of a query: per-aggregate count, sum, and value.
#[derive(Debug, Clone)]
pub struct ExactResult {
    fct: AggFct,
    counts: Vec<u64>,
    sums: Vec<f64>,
}

impl ExactResult {
    /// Reassemble an exact result from per-aggregate counts and sums, e.g.
    /// ones admitted to the semantic cache by an earlier evaluation.
    pub fn from_parts(fct: AggFct, counts: Vec<u64>, sums: Vec<f64>) -> Self {
        assert_eq!(counts.len(), sums.len(), "counts/sums length mismatch");
        ExactResult { fct, counts, sums }
    }

    /// Per-aggregate scope row counts, in layout order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-aggregate measure sums, in layout order.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Number of result aggregates.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if the query had no aggregates (cannot happen for valid
    /// queries, provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Row count of one aggregate's scope.
    pub fn count(&self, agg: AggIdx) -> u64 {
        self.counts[agg as usize]
    }

    /// Measure sum over one aggregate's scope.
    pub fn sum(&self, agg: AggIdx) -> f64 {
        self.sums[agg as usize]
    }

    /// The aggregate value under the query's aggregation function.
    ///
    /// For `AVG` of an empty scope this returns `NaN` (no rows — the paper's
    /// model leaves such aggregates undefined; quality computations skip
    /// them).
    pub fn value(&self, agg: AggIdx) -> f64 {
        match self.fct {
            AggFct::Count => self.counts[agg as usize] as f64,
            AggFct::Sum => self.sums[agg as usize],
            AggFct::Avg => self.sums[agg as usize] / self.counts[agg as usize] as f64,
        }
    }

    /// All aggregate values in layout order (see [`ExactResult::value`]).
    pub fn values(&self) -> Vec<f64> {
        (0..self.counts.len() as u32).map(|a| self.value(a)).collect()
    }

    /// Mean aggregate value over aggregates with non-empty scopes — the
    /// "typical value" a baseline statement should announce.
    pub fn grand_mean(&self) -> f64 {
        let vals: Vec<f64> = (0..self.counts.len() as u32)
            .filter(|&a| self.counts[a as usize] > 0 || self.fct != AggFct::Avg)
            .map(|a| self.value(a))
            .collect();
        if vals.is_empty() {
            return f64::NAN;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Evaluate `query` exactly against `table` with a single full scan, in
/// storage order through the columnar block kernel the sampler ingests
/// with (`ResultLayout::agg_of_block`). Storage order adds every row's
/// value in row order, so each sum has the bits a row-by-row loop gives.
pub fn evaluate(query: &Query, table: &Table) -> ExactResult {
    let layout = query.layout();
    let n = layout.n_aggregates();
    let mut counts = vec![0u64; n];
    let mut sums = vec![0.0f64; n];
    let pool = Arc::new(MorselPool::new(ScanOrder::sequential(table.row_count())));
    let mut scan = table.scan_pooled(pool, query.measure());
    let mut aggs = Vec::new();
    while let Some(block) = scan.next_block(usize::MAX) {
        layout.agg_of_block(block.dims, block.rows, &mut aggs);
        for (&agg, &r) in aggs.iter().zip(block.rows) {
            if agg != AGG_OUT_OF_SCOPE {
                counts[agg as usize] += 1;
                sums[agg as usize] += block.values[r as usize];
            }
        }
    }
    ExactResult { fct: query.fct(), counts, sums }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::flights::{FlightsConfig, TABLE12};
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;

    #[test]
    fn counts_sum_to_scope_size() {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let r = evaluate(&q, &table);
        let total: u64 = (0..r.len() as u32).map(|a| r.count(a)).sum();
        assert_eq!(total, 320);
    }

    #[test]
    fn count_query_values_are_counts() {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Count)
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        let r = evaluate(&q, &table);
        assert_eq!(r.values().iter().sum::<f64>(), 320.0);
    }

    #[test]
    fn sum_equals_avg_times_count() {
        let table = SalaryConfig::paper_scale().generate();
        let avg_q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let r = evaluate(&avg_q, &table);
        for a in 0..r.len() as u32 {
            assert!((r.value(a) * r.count(a) as f64 - r.sum(a)).abs() < 1e-6);
        }
    }

    #[test]
    fn filter_excludes_out_of_scope_rows() {
        let table = SalaryConfig::paper_scale().generate();
        let college = table.schema().dimension(DimId(0));
        let ne = college.member_by_phrase("the North East").unwrap();
        let q = Query::builder(AggFct::Count).filter(DimId(0), ne).build(table.schema()).unwrap();
        let r = evaluate(&q, &table);
        assert_eq!(r.len(), 1);
        assert!(r.value(0) > 0.0 && r.value(0) < 320.0);
    }

    #[test]
    fn region_season_result_tracks_generator_calibration() {
        let table = FlightsConfig { rows: 150_000, seed: 42 }.generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        let r = evaluate(&q, &table);
        assert_eq!(r.len(), 20);
        // Winter North East is cell (0,0): highest probability in Table 12.
        let ne_winter = r.value(0);
        assert!(
            (ne_winter - TABLE12[0][0]).abs() < 0.02,
            "NE winter {ne_winter} vs {}",
            TABLE12[0][0]
        );
        let max = r.values().iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(ne_winter, max, "NE winter is the worst cell");
    }

    #[test]
    fn grand_mean_averages_aggregates() {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let r = evaluate(&q, &table);
        let gm = r.grand_mean();
        let manual: f64 = r.values().iter().sum::<f64>() / r.len() as f64;
        assert!((gm - manual).abs() < 1e-9);
        assert!(gm > 70.0 && gm < 110.0);
    }

    #[test]
    fn empty_avg_scope_yields_nan() {
        // Group flights by airport: some generated airports may get no
        // rows at tiny scale, producing NaN averages that downstream
        // quality code must skip.
        let table = FlightsConfig { rows: 50, seed: 1 }.generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(4))
            .build(table.schema())
            .unwrap();
        let r = evaluate(&q, &table);
        assert!(r.values().iter().any(|v| v.is_nan()), "tiny scale leaves empty airports");
    }
}
