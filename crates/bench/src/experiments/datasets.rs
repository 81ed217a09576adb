//! The full region × season result (Table 12).

use voxolap_data::{DimId, Table};
use voxolap_engine::exact::evaluate;

use crate::region_season_query;

/// Table 12: the exact region × season result as (region, season,
/// cancellation probability), sorted descending as the paper prints it.
pub fn region_season_result(table: &Table) -> Vec<(String, String, f64)> {
    let query = region_season_query(table);
    let exact = evaluate(&query, table);
    let layout = query.layout();
    let schema = table.schema();
    let mut rows: Vec<(String, String, f64)> = (0..layout.n_aggregates() as u32)
        .filter(|&a| exact.value(a).is_finite())
        .map(|a| {
            let scope = layout.scope_of_agg(a);
            (
                schema.dimension(DimId(0)).member(scope[0]).phrase.clone(),
                schema.dimension(DimId(1)).member(scope[1]).phrase.clone(),
                exact.value(a),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}
