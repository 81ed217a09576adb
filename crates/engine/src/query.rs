//! OLAP query model (paper §2).
//!
//! A query is characterized by an aggregation function ([`AggFct`]), an
//! aggregation column (the table's measure), and a set of aggregates. Each
//! aggregate corresponds to one cell of the cross product over grouped
//! dimension members; its scope is the conjunction of one member restriction
//! per dimension. Filters restrict the query scope before grouping (the
//! `WHERE airportState='New York'` of the paper's introductory example).
//!
//! [`ResultLayout`] materializes that cross product: it assigns each
//! aggregate a dense index ([`AggIdx`]) in mixed-radix order and precomputes
//! leaf-member → coordinate lookup tables so the per-row scope test used by
//! the sample cache costs `O(#dimensions)` array lookups.

use voxolap_data::dimension::{LevelId, MemberId};
use voxolap_data::schema::{DimId, MeasureId, Schema};
use voxolap_data::table::DimSlice;

use crate::error::EngineError;

/// Dense index of an aggregate in a query result.
pub type AggIdx = u32;

/// Sentinel aggregate code marking a row outside the query scope, as
/// emitted by the columnar kernel [`ResultLayout::agg_of_block`]. Safe as
/// a sentinel: `QueryBuilder::build` rejects layouts whose aggregate count
/// exceeds `u32::MAX`, so no real aggregate index ever equals it.
pub const AGG_OUT_OF_SCOPE: u32 = u32::MAX;

/// Sentinel marking a leaf member outside the query scope.
const OUT_OF_SCOPE: u32 = u32::MAX;

/// Lift a raw aggregate code from [`ResultLayout::agg_of_block`] into the
/// `Option` form the caches consume.
#[inline]
pub fn decode_agg(code: u32) -> Option<AggIdx> {
    if code == AGG_OUT_OF_SCOPE {
        None
    } else {
        Some(code)
    }
}

/// Aggregation function (paper supports AVG, SUM, COUNT; MIN/MAX are
/// "notoriously difficult to approximate via sampling" and excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFct {
    /// Arithmetic mean of the measure.
    Avg,
    /// Sum of the measure.
    Sum,
    /// Row count.
    Count,
}

impl AggFct {
    /// Spoken qualifier used in baselines (e.g. "the **average** …").
    pub fn spoken(self) -> &'static str {
        match self {
            AggFct::Avg => "average",
            AggFct::Sum => "total",
            AggFct::Count => "number of",
        }
    }
}

/// Per-dimension slice of a [`ResultLayout`].
#[derive(Debug, Clone)]
struct DimLayout {
    /// Scope member for this dimension: the filter member if one is set,
    /// the root otherwise.
    scope: MemberId,
    /// Grouping level if this dimension appears in the GROUP BY.
    group_level: Option<LevelId>,
    /// Coordinate members: the grouping-level members under `scope` for
    /// grouped dimensions, or `[scope]` for ungrouped ones.
    coords: Vec<MemberId>,
    /// Mixed-radix stride of this dimension.
    stride: u32,
    /// `leaf_to_coord[member.index()]` = coordinate index of a leaf member,
    /// or [`OUT_OF_SCOPE`].
    leaf_to_coord: Vec<u32>,
    /// `true` when the dimension contributes nothing to the aggregate
    /// index: ungrouped, unfiltered (scope = root), single coordinate —
    /// every leaf maps to coordinate 0. The columnar kernel skips such
    /// columns entirely.
    trivial: bool,
}

/// Dense mixed-radix layout of a query's result aggregates.
#[derive(Debug, Clone)]
pub struct ResultLayout {
    dims: Vec<DimLayout>,
    n_aggs: u32,
}

impl ResultLayout {
    /// Number of aggregates in the query result (`|q.aggs|`).
    pub fn n_aggregates(&self) -> usize {
        self.n_aggs as usize
    }

    /// Coordinate members of one dimension (grouping-level members for
    /// grouped dimensions, the single scope member otherwise).
    pub fn coords(&self, dim: DimId) -> &[MemberId] {
        &self.dims[dim.index()].coords
    }

    /// The scope member of a dimension (filter member or root).
    pub fn scope(&self, dim: DimId) -> MemberId {
        self.dims[dim.index()].scope
    }

    /// Grouping level of a dimension, if grouped.
    pub fn group_level(&self, dim: DimId) -> Option<LevelId> {
        self.dims[dim.index()].group_level
    }

    /// Map a fact row (leaf member per dimension) to its aggregate index,
    /// or `None` if the row falls outside the query scope.
    #[inline]
    pub fn agg_of_row(&self, members: &[MemberId]) -> Option<AggIdx> {
        debug_assert_eq!(members.len(), self.dims.len());
        let mut idx = 0u32;
        for (d, &m) in members.iter().enumerate() {
            let dl = &self.dims[d];
            let c = dl.leaf_to_coord[m.index()];
            if c == OUT_OF_SCOPE {
                return None;
            }
            idx += c * dl.stride;
        }
        Some(idx)
    }

    /// Columnar counterpart of [`ResultLayout::agg_of_row`]: resolve the
    /// aggregate indices of a whole scan block in per-column passes.
    ///
    /// `dims` are the chunk's per-dimension dictionary-id slices and `rows`
    /// the in-chunk indices of the block's rows (see
    /// `voxolap_data::table::RowBlock`). On return `out[i]` holds the
    /// aggregate index of the block's `i`-th row, or [`AGG_OUT_OF_SCOPE`].
    ///
    /// Instead of materializing a `&[MemberId]` per row, each dimension is
    /// walked as one tight loop over its narrow integer ids: the lookup
    /// table maps ids to coordinate contributions (`coord * stride`,
    /// filters already folded in as `OUT_OF_SCOPE` entries), and the
    /// out-of-scope sentinel is kept sticky by a saturating add — once a
    /// row is `u32::MAX` it stays there, because every legitimate partial
    /// sum is bounded by the aggregate count, which `QueryBuilder::build`
    /// caps below `u32::MAX`. Trivial dimensions (ungrouped, unfiltered)
    /// contribute nothing and are skipped without touching their column.
    pub fn agg_of_block(&self, dims: &[DimSlice<'_>], rows: &[u32], out: &mut Vec<u32>) {
        debug_assert_eq!(dims.len(), self.dims.len());
        out.clear();
        out.resize(rows.len(), 0);
        for (dl, ids) in self.dims.iter().zip(dims) {
            if dl.trivial {
                continue;
            }
            let lut = &dl.leaf_to_coord[..];
            let stride = dl.stride;
            macro_rules! accumulate {
                ($ids:expr) => {
                    for (o, &r) in out.iter_mut().zip(rows) {
                        let c = lut[$ids[r as usize] as usize];
                        *o = if c == OUT_OF_SCOPE {
                            AGG_OUT_OF_SCOPE
                        } else {
                            o.saturating_add(c * stride)
                        };
                    }
                };
            }
            match ids {
                DimSlice::U8(v) => accumulate!(v),
                DimSlice::U16(v) => accumulate!(v),
                DimSlice::U32(v) => accumulate!(v),
            }
        }
    }

    /// Decompose an aggregate index into per-dimension coordinate indices.
    pub fn coords_of_agg(&self, agg: AggIdx) -> Vec<u32> {
        let mut rem = agg;
        let mut out = vec![0u32; self.dims.len()];
        // Strides descend from the first dimension; divide greedily.
        for (d, dl) in self.dims.iter().enumerate() {
            out[d] = rem / dl.stride;
            rem %= dl.stride;
        }
        out
    }

    /// The per-dimension scope members of one aggregate (its conjunction of
    /// atomic conditions).
    pub fn scope_of_agg(&self, agg: AggIdx) -> Vec<MemberId> {
        self.coords_of_agg(agg)
            .iter()
            .enumerate()
            .map(|(d, &c)| self.dims[d].coords[c as usize])
            .collect()
    }

    /// Coordinate indices of `dim` lying at or below `member`
    /// (used to resolve refinement-predicate scopes).
    pub fn coord_indices_under(&self, dim: DimId, member: MemberId, schema: &Schema) -> Vec<u32> {
        let d = schema.dimension(dim);
        self.dims[dim.index()]
            .coords
            .iter()
            .enumerate()
            .filter(|(_, &c)| d.is_ancestor_or_self(member, c))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Per-dimension strides (for building scope bit tests downstream).
    pub fn stride(&self, dim: DimId) -> u32 {
        self.dims[dim.index()].stride
    }

    /// Radix (number of coordinates) of one dimension.
    pub fn radix(&self, dim: DimId) -> u32 {
        self.dims[dim.index()].coords.len() as u32
    }
}

/// An OLAP aggregation query bound to a schema.
#[derive(Debug, Clone)]
pub struct Query {
    fct: AggFct,
    measure: MeasureId,
    group: Vec<(DimId, LevelId)>,
    filters: Vec<(DimId, MemberId)>,
    layout: ResultLayout,
}

impl Query {
    /// Start building a query with the given aggregation function
    /// (over the primary measure; see [`QueryBuilder::measure`]).
    pub fn builder(fct: AggFct) -> QueryBuilder {
        QueryBuilder { fct, measure: MeasureId::PRIMARY, group: Vec::new(), filters: Vec::new() }
    }

    /// The aggregation function.
    pub fn fct(&self) -> AggFct {
        self.fct
    }

    /// The aggregated measure column.
    pub fn measure(&self) -> MeasureId {
        self.measure
    }

    /// Grouped dimensions with their grouping levels, in GROUP BY order.
    pub fn group_by(&self) -> &[(DimId, LevelId)] {
        &self.group
    }

    /// Filter restrictions (dimension, member).
    pub fn filters(&self) -> &[(DimId, MemberId)] {
        &self.filters
    }

    /// The result layout (aggregate enumeration).
    pub fn layout(&self) -> &ResultLayout {
        &self.layout
    }

    /// Number of result aggregates.
    pub fn n_aggregates(&self) -> usize {
        self.layout.n_aggregates()
    }

    /// The canonical cache key of this query (semantic cache, DESIGN.md §9).
    pub fn key(&self) -> QueryKey {
        QueryKey::canonical(self.fct, self.measure, &self.group, &self.filters)
    }
}

/// Canonical, hashable identity of a query for the semantic cache:
/// aggregation function, measure, and **sorted, deduplicated** group-by and
/// filter lists, so syntactically different but semantically identical
/// queries (filter order, repeated group-by entries) collide to one key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    fct: AggFct,
    measure: MeasureId,
    group: Vec<(DimId, LevelId)>,
    filters: Vec<(DimId, MemberId)>,
}

impl QueryKey {
    /// Canonicalize raw query components into a key: group-by and filter
    /// lists are sorted by dimension and deduplicated.
    pub fn canonical(
        fct: AggFct,
        measure: MeasureId,
        group: &[(DimId, LevelId)],
        filters: &[(DimId, MemberId)],
    ) -> Self {
        let mut group = group.to_vec();
        group.sort_unstable();
        group.dedup();
        let mut filters = filters.to_vec();
        filters.sort_unstable();
        filters.dedup();
        QueryKey { fct, measure, group, filters }
    }

    /// The aggregation function of the keyed query.
    pub fn fct(&self) -> AggFct {
        self.fct
    }

    /// The scope key shared by every query over the same row set.
    pub fn scope(&self) -> ScopeKey {
        ScopeKey { measure: self.measure, filters: self.filters.clone() }
    }
}

/// What determines a query's **in-scope row set**: the measure column and
/// the canonical filter list. Group-by clauses merely partition the scope,
/// so two queries sharing a `ScopeKey` observe exactly the same rows under
/// the same seeded scan — the compatibility condition for warm-starting one
/// query's sample cache from another's sampled rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScopeKey {
    measure: MeasureId,
    filters: Vec<(DimId, MemberId)>,
}

impl ScopeKey {
    /// The measure column the scoped rows carry.
    pub fn measure(&self) -> MeasureId {
        self.measure
    }

    /// Canonical filter restrictions defining the row set.
    pub fn filters(&self) -> &[(DimId, MemberId)] {
        &self.filters
    }
}

/// Builder for [`Query`] — validates against a schema in
/// [`QueryBuilder::build`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    fct: AggFct,
    measure: MeasureId,
    group: Vec<(DimId, LevelId)>,
    filters: Vec<(DimId, MemberId)>,
}

impl QueryBuilder {
    /// Aggregate measure `m` instead of the primary measure (the paper's
    /// "multiple columns" extension).
    pub fn measure(mut self, m: MeasureId) -> Self {
        self.measure = m;
        self
    }

    /// Break the result down by `dim` at `level`
    /// (the paper's "Results are broken down by …").
    pub fn group_by(mut self, dim: DimId, level: LevelId) -> Self {
        self.group.push((dim, level));
        self
    }

    /// Restrict the query scope to rows under `member` of `dim`.
    pub fn filter(mut self, dim: DimId, member: MemberId) -> Self {
        self.filters.push((dim, member));
        self
    }

    /// Validate against `schema` and compute the result layout.
    pub fn build(self, schema: &Schema) -> Result<Query, EngineError> {
        let n_dims = schema.dimensions().len();
        if self.measure.index() >= schema.measure_count() {
            return Err(EngineError::BadMeasure { measure: self.measure.index() });
        }

        // Validate group entries.
        let mut group_of_dim: Vec<Option<LevelId>> = vec![None; n_dims];
        for &(dim, level) in &self.group {
            if dim.index() >= n_dims {
                return Err(EngineError::BadGroupLevel { dim: dim.index(), level: level.index() });
            }
            let d = schema.dimension(dim);
            if level.index() == 0 || level.index() >= d.level_count() {
                return Err(EngineError::BadGroupLevel { dim: dim.index(), level: level.index() });
            }
            if group_of_dim[dim.index()].is_some() {
                return Err(EngineError::DuplicateGroupDim { dim: dim.index() });
            }
            group_of_dim[dim.index()] = Some(level);
        }

        // Validate filters; at most one per dimension (later wins replaced
        // by error keeps semantics simple).
        let mut filter_of_dim: Vec<Option<MemberId>> = vec![None; n_dims];
        for &(dim, member) in &self.filters {
            if dim.index() >= n_dims {
                return Err(EngineError::BadFilterMember {
                    dim: dim.index(),
                    member: member.index(),
                });
            }
            let d = schema.dimension(dim);
            if member.index() >= d.member_count() {
                return Err(EngineError::BadFilterMember {
                    dim: dim.index(),
                    member: member.index(),
                });
            }
            if filter_of_dim[dim.index()].is_some() {
                return Err(EngineError::BadFilterMember {
                    dim: dim.index(),
                    member: member.index(),
                });
            }
            filter_of_dim[dim.index()] = Some(member);
        }

        // Build per-dimension layouts.
        let mut dims = Vec::with_capacity(n_dims);
        for (dim_id, d) in schema.dims() {
            let scope = filter_of_dim[dim_id.index()].unwrap_or_else(|| d.root());
            let group_level = group_of_dim[dim_id.index()];
            let coords: Vec<MemberId> = match group_level {
                Some(level) => {
                    // A filter deeper than the grouping level would make the
                    // grouping degenerate; require filter at or above level.
                    if d.member(scope).level.index() > level.index() {
                        return Err(EngineError::BadGroupLevel {
                            dim: dim_id.index(),
                            level: level.index(),
                        });
                    }
                    d.level_members(level)
                        .into_iter()
                        .filter(|&m| d.is_ancestor_or_self(scope, m))
                        .collect()
                }
                None => vec![scope],
            };
            if coords.is_empty() {
                return Err(EngineError::EmptyResult);
            }
            // Leaf lookup table: coordinate index per leaf, OUT_OF_SCOPE if
            // the leaf is not under any coordinate.
            let mut leaf_to_coord = vec![OUT_OF_SCOPE; d.member_count()];
            for (ci, &c) in coords.iter().enumerate() {
                for leaf in d.leaves_under(c) {
                    leaf_to_coord[leaf.index()] = ci as u32;
                }
            }
            // Ungrouped, unfiltered dimensions map every leaf to the root
            // coordinate: zero contribution, never out of scope.
            let trivial = group_level.is_none() && scope == d.root();
            dims.push(DimLayout {
                scope,
                group_level,
                coords,
                stride: 0, // fixed below
                leaf_to_coord,
                trivial,
            });
        }

        // Mixed-radix strides: last dimension is the fastest-varying.
        let mut stride = 1u64;
        for dl in dims.iter_mut().rev() {
            dl.stride = stride as u32;
            stride *= dl.coords.len() as u64;
        }
        if stride == 0 || stride > u32::MAX as u64 {
            return Err(EngineError::EmptyResult);
        }

        Ok(Query {
            fct: self.fct,
            measure: self.measure,
            group: self.group,
            filters: self.filters,
            layout: ResultLayout { dims, n_aggs: stride as u32 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::flights::FlightsConfig;
    use voxolap_data::salary::SalaryConfig;

    fn salary_schema() -> Schema {
        SalaryConfig::schema(320)
    }

    #[test]
    fn region_by_rough_salary_has_eight_aggregates() {
        let schema = salary_schema();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(&schema)
            .unwrap();
        assert_eq!(q.n_aggregates(), 4 * 2);
        assert_eq!(q.layout().radix(DimId(0)), 4);
        assert_eq!(q.layout().radix(DimId(1)), 2);
    }

    #[test]
    fn flights_region_season_has_twenty_aggregates() {
        // Paper Table 12: 5 regions x 4 seasons = 20 result fields.
        let schema = FlightsConfig::schema();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(&schema)
            .unwrap();
        assert_eq!(q.n_aggregates(), 20);
    }

    #[test]
    fn filter_restricts_coordinates() {
        let schema = FlightsConfig::schema();
        let airport = schema.dimension(DimId(0));
        let ne = airport.member_by_phrase("the North East").unwrap();
        // Filter North East, group by state: only NE states remain.
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(0), ne)
            .group_by(DimId(0), LevelId(2))
            .build(&schema)
            .unwrap();
        assert_eq!(q.layout().radix(DimId(0)), 5); // 5 NE states
        assert_eq!(q.layout().radix(DimId(1)), 1);
        assert_eq!(q.layout().radix(DimId(2)), 1);
        assert_eq!(q.n_aggregates(), 5);
    }

    #[test]
    fn agg_of_row_respects_scope() {
        let schema = FlightsConfig::schema();
        let airport = schema.dimension(DimId(0));
        let ne = airport.member_by_phrase("the North East").unwrap();
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(0), ne)
            .group_by(DimId(1), LevelId(1))
            .build(&schema)
            .unwrap();

        let date = schema.dimension(DimId(1));
        let airline = schema.dimension(DimId(2));
        let ne_leaf = airport.leaves_under(ne)[0];
        let other_leaf =
            *airport.leaves().iter().find(|&&l| !airport.is_ancestor_or_self(ne, l)).unwrap();
        let june = date.member_by_phrase("June").unwrap();
        let any_airline = airline.leaves()[0];

        let in_scope = q.layout().agg_of_row(&[ne_leaf, june, any_airline]);
        assert!(in_scope.is_some());
        let out = q.layout().agg_of_row(&[other_leaf, june, any_airline]);
        assert_eq!(out, None);
    }

    #[test]
    fn agg_of_block_matches_agg_of_row() {
        // A filtered query (out-of-scope rows exercise the sticky
        // sentinel) over a real generated table, scanned in blocks.
        let table = FlightsConfig::small().generate();
        let schema = table.schema();
        let airport = schema.dimension(DimId(0));
        let ne = airport.member_by_phrase("the North East").unwrap();
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(0), ne)
            .group_by(DimId(1), LevelId(1))
            .build(schema)
            .unwrap();
        let layout = q.layout();
        let mut scan = table.scan_shuffled(13);
        let mut out = Vec::new();
        let mut seen_out_of_scope = false;
        let mut rows_total = 0usize;
        // Odd block size exercises mid-morsel block boundaries.
        while let Some(b) = scan.next_block(97) {
            layout.agg_of_block(b.dims, b.rows, &mut out);
            assert_eq!(out.len(), b.rows.len());
            for (i, &r) in b.rows.iter().enumerate() {
                let members: Vec<MemberId> = b.dims.iter().map(|d| d.get(r as usize)).collect();
                assert_eq!(decode_agg(out[i]), layout.agg_of_row(&members));
                seen_out_of_scope |= out[i] == AGG_OUT_OF_SCOPE;
            }
            rows_total += b.rows.len();
        }
        assert_eq!(rows_total, table.row_count());
        assert!(seen_out_of_scope, "filter leaves some rows out of scope");
    }

    #[test]
    fn decode_agg_maps_sentinel_to_none() {
        assert_eq!(decode_agg(AGG_OUT_OF_SCOPE), None);
        assert_eq!(decode_agg(0), Some(0));
        assert_eq!(decode_agg(u32::MAX - 1), Some(u32::MAX - 1));
    }

    #[test]
    fn coords_of_agg_roundtrip() {
        let schema = salary_schema();
        let q = Query::builder(AggFct::Sum)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(2))
            .build(&schema)
            .unwrap();
        let layout = q.layout();
        for agg in 0..layout.n_aggregates() as u32 {
            let coords = layout.coords_of_agg(agg);
            let rebuilt: u32 =
                coords.iter().enumerate().map(|(d, &c)| c * layout.stride(DimId(d as u8))).sum();
            assert_eq!(rebuilt, agg);
        }
    }

    #[test]
    fn scope_of_agg_lists_scope_members() {
        let schema = salary_schema();
        let q = Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(&schema).unwrap();
        let scope = q.layout().scope_of_agg(0);
        assert_eq!(scope.len(), 2);
        let college = schema.dimension(DimId(0));
        assert_eq!(college.member(scope[0]).level, LevelId(1));
        // Ungrouped dimension scope is the root.
        let salary = schema.dimension(DimId(1));
        assert_eq!(scope[1], salary.root());
    }

    #[test]
    fn coord_indices_under_region() {
        let schema = FlightsConfig::schema();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(2)) // by state
            .build(&schema)
            .unwrap();
        let airport = schema.dimension(DimId(0));
        let ne = airport.member_by_phrase("the North East").unwrap();
        let under = q.layout().coord_indices_under(DimId(0), ne, &schema);
        assert_eq!(under.len(), 5); // 5 NE states
                                    // Root covers all coordinates.
        let all = q.layout().coord_indices_under(DimId(0), airport.root(), &schema);
        assert_eq!(all.len(), q.layout().radix(DimId(0)) as usize);
    }

    #[test]
    fn duplicate_group_dim_rejected() {
        let schema = salary_schema();
        let err = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(0), LevelId(2))
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateGroupDim { dim: 0 }));
    }

    #[test]
    fn root_level_grouping_rejected() {
        let schema = salary_schema();
        let err =
            Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(0)).build(&schema).unwrap_err();
        assert!(matches!(err, EngineError::BadGroupLevel { .. }));
    }

    #[test]
    fn filter_below_group_level_rejected() {
        let schema = FlightsConfig::schema();
        let airport = schema.dimension(DimId(0));
        let city = airport.member_by_phrase("Boston").unwrap();
        // Filter at city level but group by region (coarser) is degenerate.
        let err = Query::builder(AggFct::Avg)
            .filter(DimId(0), city)
            .group_by(DimId(0), LevelId(1))
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, EngineError::BadGroupLevel { .. }));
    }

    #[test]
    fn two_filters_on_same_dim_rejected() {
        let schema = FlightsConfig::schema();
        let airport = schema.dimension(DimId(0));
        let ne = airport.member_by_phrase("the North East").unwrap();
        let mw = airport.member_by_phrase("the Midwest").unwrap();
        let err = Query::builder(AggFct::Avg)
            .filter(DimId(0), ne)
            .filter(DimId(0), mw)
            .build(&schema)
            .unwrap_err();
        assert!(matches!(err, EngineError::BadFilterMember { .. }));
    }

    #[test]
    fn query_key_collides_for_reordered_filters_and_groups() {
        let schema = FlightsConfig::schema();
        let airport = schema.dimension(DimId(0));
        let date = schema.dimension(DimId(1));
        let ne = airport.member_by_phrase("the North East").unwrap();
        let winter = date.member_by_phrase("Winter").unwrap();
        let a = Query::builder(AggFct::Avg)
            .filter(DimId(0), ne)
            .filter(DimId(1), winter)
            .group_by(DimId(1), LevelId(2))
            .group_by(DimId(2), LevelId(1))
            .build(&schema)
            .unwrap();
        let b = Query::builder(AggFct::Avg)
            .filter(DimId(1), winter)
            .filter(DimId(0), ne)
            .group_by(DimId(2), LevelId(1))
            .group_by(DimId(1), LevelId(2))
            .build(&schema)
            .unwrap();
        assert_eq!(a.key(), b.key(), "filter/group order is not semantic");
        assert_eq!(a.key().scope(), b.key().scope());
    }

    #[test]
    fn query_key_canonicalizes_duplicate_group_entries() {
        // `Query::build` rejects duplicate group dimensions, so exercise the
        // canonicalizer directly: a repeated group-by entry must collapse.
        let dup = QueryKey::canonical(
            AggFct::Sum,
            MeasureId(0),
            &[(DimId(1), LevelId(1)), (DimId(0), LevelId(2)), (DimId(1), LevelId(1))],
            &[],
        );
        let single = QueryKey::canonical(
            AggFct::Sum,
            MeasureId(0),
            &[(DimId(0), LevelId(2)), (DimId(1), LevelId(1))],
            &[],
        );
        assert_eq!(dup, single);
    }

    #[test]
    fn query_key_distinguishes_semantic_differences() {
        let schema = FlightsConfig::schema();
        let base = Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1));
        let a = base.clone().build(&schema).unwrap();
        let sum = Query::builder(AggFct::Sum).group_by(DimId(0), LevelId(1));
        let b = sum.build(&schema).unwrap();
        assert_ne!(a.key(), b.key(), "aggregation function is semantic");
        assert_eq!(a.key().scope(), b.key().scope(), "but the row scope is shared");
        let c = base.build(&schema);
        let ne = schema.dimension(DimId(0)).member_by_phrase("the North East").unwrap();
        let filtered =
            Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).filter(DimId(0), ne);
        let d = filtered.build(&schema).unwrap();
        assert_ne!(c.unwrap().key().scope(), d.key().scope(), "filters change the scope");
    }

    #[test]
    fn spoken_aggregation_names() {
        assert_eq!(AggFct::Avg.spoken(), "average");
        assert_eq!(AggFct::Sum.spoken(), "total");
        assert_eq!(AggFct::Count.spoken(), "number of");
    }
}
