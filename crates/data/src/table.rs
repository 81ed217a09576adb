//! Columnar in-memory fact tables and streaming scanners.
//!
//! A [`Table`] stores one dense dictionary-id column per dimension — packed
//! at the narrowest integer width the dimension's cardinality allows
//! ([`DimColumn`]) — plus one column per measure, stored as one-byte codes
//! into a dictionary of its exact `f64` bit patterns when it has at most
//! 256 distinct values and that is smaller ([`MeasureColumn`]). A
//! [`RowScanner`] streams rows in a deterministic pseudo-random order driven by the
//! chunked two-level scan scheme in [`crate::chunk`]: a seeded permutation
//! of 64K-row chunks plus an on-the-fly in-chunk bijection. This is the row
//! source the sampling cache consumes (paper §4.3 assumes rows arrive in
//! random order so that cache contents form uniform samples); parallel
//! scanners claim whole chunks from a shared [`MorselPool`] so they
//! partition the order without touching a shared memory stream.

use std::ops::Index;
use std::sync::Arc;

use crate::chunk::{Morsel, MorselPool, ScanOrder, CHUNK_ROWS};
use crate::dimension::{Dimension, MemberId};
use crate::error::DataError;
use crate::schema::{DimId, MeasureId, Schema};

/// Borrowed view of one fact row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row<'a> {
    /// Leaf member ids, one per dimension (schema order).
    pub members: &'a [MemberId],
    /// Value of the scanned measure.
    pub value: f64,
}

/// Borrowed view of one dimension's packed dictionary ids over a
/// contiguous row range (one chunk of the table). The variants mirror
/// [`DimColumn`]; downstream kernels match once per column and then walk
/// the raw integer slice without per-row width dispatch.
#[derive(Debug, Clone, Copy)]
pub enum DimSlice<'a> {
    /// Ids of a dimension with at most 256 members.
    U8(&'a [u8]),
    /// Ids of a dimension with at most 65 536 members.
    U16(&'a [u16]),
    /// Everything larger.
    U32(&'a [u32]),
}

impl DimSlice<'_> {
    /// Leaf id at in-slice index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> MemberId {
        match self {
            DimSlice::U8(v) => MemberId(v[i] as u32),
            DimSlice::U16(v) => MemberId(v[i] as u32),
            DimSlice::U32(v) => MemberId(v[i]),
        }
    }

    /// Number of rows covered by the slice.
    pub fn len(&self) -> usize {
        match self {
            DimSlice::U8(v) => v.len(),
            DimSlice::U16(v) => v.len(),
            DimSlice::U32(v) => v.len(),
        }
    }

    /// `true` iff the slice covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Borrowed view of one measure column over a contiguous row range (one
/// chunk of the table). The variants mirror [`MeasureColumn`]; indexing
/// decodes, so `values[i]` reads the stored `f64` bit for bit either way.
#[derive(Debug, Clone, Copy)]
pub enum MeasureSlice<'a> {
    /// Plain values.
    F64(&'a [f64]),
    /// One dictionary code per row.
    Coded {
        /// `dict[codes[i] as usize]` is the value of in-slice row `i`.
        codes: &'a [u8],
        /// The column's distinct values, in first-seen order.
        dict: &'a [f64],
    },
}

impl MeasureSlice<'_> {
    /// Number of rows covered by the slice.
    pub fn len(&self) -> usize {
        match self {
            MeasureSlice::F64(v) => v.len(),
            MeasureSlice::Coded { codes, .. } => codes.len(),
        }
    }

    /// `true` iff the slice covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Index<usize> for MeasureSlice<'_> {
    type Output = f64;

    /// Value at in-slice index `i`.
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match self {
            MeasureSlice::F64(v) => &v[i],
            MeasureSlice::Coded { codes, dict } => &dict[codes[i] as usize],
        }
    }
}

/// Borrowed columnar view of one scan batch. All rows of a block lie in a
/// **single chunk**: `dims` and `values` cover the whole chunk contiguously
/// and `rows` holds the in-chunk indices the batch visits, in scan order —
/// so consumers index `dims[d]` / `values` directly with `rows[i]` and all
/// column accesses stay within one chunk's cache-resident slices.
#[derive(Debug, Clone, Copy)]
pub struct RowBlock<'a> {
    /// First global row of the chunk this block lies in.
    pub base: usize,
    /// In-chunk row indices visited by the block, in scan order.
    pub rows: &'a [u32],
    /// Per-dimension dictionary-id slices of the chunk (schema order).
    pub dims: &'a [DimSlice<'a>],
    /// The chunk's values of the scanned measure.
    pub values: MeasureSlice<'a>,
}

impl RowBlock<'_> {
    /// Number of rows the block delivers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the block delivers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// One dimension's leaf-member column, packed at the narrowest width that
/// holds every dictionary id of the dimension (ids are dense, so the
/// member count bounds them).
#[derive(Debug, Clone)]
pub enum DimColumn {
    /// Dimensions with at most 256 members.
    U8(Vec<u8>),
    /// Dimensions with at most 65 536 members.
    U16(Vec<u16>),
    /// Everything larger.
    U32(Vec<u32>),
}

impl DimColumn {
    /// An empty column sized for a dimension with `members` dictionary
    /// entries.
    pub fn for_cardinality(members: usize) -> Self {
        if members <= u8::MAX as usize + 1 {
            DimColumn::U8(Vec::new())
        } else if members <= u16::MAX as usize + 1 {
            DimColumn::U16(Vec::new())
        } else {
            DimColumn::U32(Vec::new())
        }
    }

    /// Append one leaf id (the builder validated the range).
    fn push(&mut self, m: MemberId) {
        match self {
            DimColumn::U8(v) => v.push(m.0 as u8),
            DimColumn::U16(v) => v.push(m.0 as u16),
            DimColumn::U32(v) => v.push(m.0),
        }
    }

    /// Leaf id of row `row`.
    #[inline]
    pub fn get(&self, row: usize) -> MemberId {
        match self {
            DimColumn::U8(v) => MemberId(v[row] as u32),
            DimColumn::U16(v) => MemberId(v[row] as u32),
            DimColumn::U32(v) => MemberId(v[row]),
        }
    }

    /// Rows stored.
    pub fn len(&self) -> usize {
        match self {
            DimColumn::U8(v) => v.len(),
            DimColumn::U16(v) => v.len(),
            DimColumn::U32(v) => v.len(),
        }
    }

    /// `true` iff no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage bytes per row at this width.
    pub fn bytes_per_row(&self) -> usize {
        match self {
            DimColumn::U8(_) => 1,
            DimColumn::U16(_) => 2,
            DimColumn::U32(_) => 4,
        }
    }

    /// The first stored id that `ok` refuses, if any.
    fn find_id(&self, ok: impl Fn(usize) -> bool) -> Option<usize> {
        match self {
            DimColumn::U8(v) => v.iter().map(|&x| x as usize).find(|&i| !ok(i)),
            DimColumn::U16(v) => v.iter().map(|&x| x as usize).find(|&i| !ok(i)),
            DimColumn::U32(v) => v.iter().map(|&x| x as usize).find(|&i| !ok(i)),
        }
    }

    /// Borrow the packed ids of rows `base..base + len` (one chunk).
    #[inline]
    pub fn slice(&self, base: usize, len: usize) -> DimSlice<'_> {
        match self {
            DimColumn::U8(v) => DimSlice::U8(&v[base..base + len]),
            DimColumn::U16(v) => DimSlice::U16(&v[base..base + len]),
            DimColumn::U32(v) => DimSlice::U32(&v[base..base + len]),
        }
    }

    /// Re-pack to the narrowest width that holds ids of a dictionary with
    /// `members` entries. Widths only ever grow (dictionary extension
    /// never removes members), so existing ids transfer losslessly.
    fn repacked_for_cardinality(self, members: usize) -> Self {
        let needs_u16 = members > u8::MAX as usize + 1;
        let needs_u32 = members > u16::MAX as usize + 1;
        match self {
            DimColumn::U8(v) if needs_u32 => {
                DimColumn::U32(v.into_iter().map(|x| x as u32).collect())
            }
            DimColumn::U8(v) if needs_u16 => {
                DimColumn::U16(v.into_iter().map(|x| x as u16).collect())
            }
            DimColumn::U16(v) if needs_u32 => {
                DimColumn::U32(v.into_iter().map(|x| x as u32).collect())
            }
            other => other,
        }
    }
}

/// One measure's values, one per row. A column with at most 256 distinct
/// `f64` bit patterns is stored as one-byte codes into a dictionary of
/// those exact patterns when that takes fewer bytes than plain `f64`s
/// ([`MeasureColumn::pack`]); every value reads back bit for bit, so sums
/// over either form are identical.
#[derive(Debug, Clone)]
pub enum MeasureColumn {
    /// Plain values.
    F64(Vec<f64>),
    /// One dictionary code per row.
    Coded {
        /// `dict[codes[r] as usize]` is the value of row `r`.
        codes: Vec<u8>,
        /// The column's distinct values (at most 256), in first-seen order.
        dict: Vec<f64>,
    },
}

impl MeasureColumn {
    /// Pack `values`: coded if they hold at most 256 distinct bit patterns
    /// and codes plus dictionary take fewer bytes than `values`, plain
    /// otherwise. Gives up at the 257th distinct pattern.
    pub fn pack(values: Vec<f64>) -> Self {
        let mut index = CodeIndex::new(&[]);
        let mut codes = Vec::with_capacity(values.len());
        let mut dict = Vec::new();
        for &v in &values {
            match index.code(v, &mut dict) {
                Some(c) => codes.push(c),
                None => return MeasureColumn::F64(values),
            }
        }
        let coded_bytes = codes.len() + dict.len() * std::mem::size_of::<f64>();
        if coded_bytes < values.len() * std::mem::size_of::<f64>() {
            MeasureColumn::Coded { codes, dict }
        } else {
            MeasureColumn::F64(values)
        }
    }

    /// Append `values`, keeping every bit: a value the dictionary holds
    /// reuses its code, a new one takes the next code while there is
    /// room, and the 257th distinct value turns the column into plain
    /// `f64`s for good.
    fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        let mut values = values.into_iter();
        let (codes, dict) = match self {
            MeasureColumn::F64(v) => return v.extend(values),
            MeasureColumn::Coded { codes, dict } => (codes, dict),
        };
        let mut index = CodeIndex::new(dict);
        while let Some(v) = values.next() {
            match index.code(v, dict) {
                Some(c) => codes.push(c),
                None => {
                    let mut wide: Vec<f64> = codes.iter().map(|&c| dict[c as usize]).collect();
                    wide.push(v);
                    wide.extend(values);
                    *self = MeasureColumn::F64(wide);
                    return;
                }
            }
        }
    }

    /// Value of row `row`.
    #[inline]
    pub fn get(&self, row: usize) -> f64 {
        match self {
            MeasureColumn::F64(v) => v[row],
            MeasureColumn::Coded { codes, dict } => dict[codes[row] as usize],
        }
    }

    /// Rows stored.
    pub fn len(&self) -> usize {
        match self {
            MeasureColumn::F64(v) => v.len(),
            MeasureColumn::Coded { codes, .. } => codes.len(),
        }
    }

    /// `true` iff no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes held: 8 per row plain, or 1 per row plus the dictionary.
    pub fn approx_bytes(&self) -> usize {
        match self {
            MeasureColumn::F64(v) => std::mem::size_of_val(v.as_slice()),
            MeasureColumn::Coded { codes, dict } => {
                codes.len() + std::mem::size_of_val(dict.as_slice())
            }
        }
    }

    /// Borrow the values of rows `base..base + len` (one chunk).
    #[inline]
    pub fn slice(&self, base: usize, len: usize) -> MeasureSlice<'_> {
        match self {
            MeasureColumn::F64(v) => MeasureSlice::F64(&v[base..base + len]),
            MeasureColumn::Coded { codes, dict } => {
                MeasureSlice::Coded { codes: &codes[base..base + len], dict }
            }
        }
    }
}

/// A coded column's dictionary as (bit pattern, code) pairs sorted by
/// pattern: packing and appends look values up by binary search.
struct CodeIndex(Vec<(u64, u8)>);

impl CodeIndex {
    fn new(dict: &[f64]) -> Self {
        let mut pairs: Vec<(u64, u8)> =
            dict.iter().enumerate().map(|(c, v)| (v.to_bits(), c as u8)).collect();
        pairs.sort_unstable();
        CodeIndex(pairs)
    }

    /// The code of `v`'s bit pattern, adding it to `dict` if new; `None`
    /// when it is new and `dict` already holds 256 patterns.
    #[inline]
    fn code(&mut self, v: f64, dict: &mut Vec<f64>) -> Option<u8> {
        let bits = v.to_bits();
        match self.0.binary_search_by_key(&bits, |&(b, _)| b) {
            Ok(i) => Some(self.0[i].1),
            Err(_) if dict.len() > u8::MAX as usize => None,
            Err(i) => {
                let c = dict.len() as u8;
                dict.push(v);
                self.0.insert(i, (bits, c));
                Some(c)
            }
        }
    }
}

/// Monotonically increasing revision counter of a [`Table`]: the seed load
/// is version 0 and every append batch produces a table one version
/// higher. Caches stamp entries with the version they were computed
/// against so stale results can be invalidated or repaired.
pub type TableVersion = u64;

/// One dimension value of an ingest row.
#[derive(Debug, Clone, PartialEq)]
pub enum DimValue {
    /// Phrase of an **existing leaf** member (e.g. `"Kahului HI"`).
    Phrase(String),
    /// Full level-1-to-leaf phrase path; members missing along the path
    /// are created, extending the dimension's dictionary.
    Path(Vec<String>),
}

/// One fact row to append: a dimension value per schema dimension plus a
/// value per measure column.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRow {
    /// One value per dimension, in schema order.
    pub dims: Vec<DimValue>,
    /// One value per measure column, in schema order.
    pub values: Vec<f64>,
}

/// An in-memory columnar fact table (one or more measure columns).
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    /// `dim_cols[d]` = packed leaf ids of dimension `d`, one per row.
    dim_cols: Vec<DimColumn>,
    /// `measures[m]` = values of measure `m`, one per row.
    measures: Vec<MeasureColumn>,
    /// Revision of this table value (0 = seed load).
    version: TableVersion,
    /// Row counts of the seed load and every append batch, in order.
    /// Scan orders chunk and shuffle per segment so the old-prefix
    /// permutation survives appends.
    segments: Vec<usize>,
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Revision of this table value (0 = seed load, +1 per append batch).
    pub fn version(&self) -> TableVersion {
        self.version
    }

    /// Row counts of the seed load and each append batch, in order.
    pub fn segments(&self) -> &[usize] {
        &self.segments
    }

    /// Append one batch of rows: [`Table::append_batches`] of one.
    pub fn append_rows(&self, rows: &[IngestRow]) -> Result<(Table, usize), DataError> {
        self.append_batches([rows]).map_err(|(_, e)| e)
    }

    /// Append a run of batches, producing the table they grow this one to.
    ///
    /// The storage is copied once (readers keep scanning the old value
    /// untouched — see [`crate::live::LiveTable`] for the swap-on-append
    /// wrapper). Each batch takes the next version and becomes a new
    /// sealed segment of the scan order, and dictionaries grow for any
    /// [`DimValue::Path`] members not seen before, in row order (packed
    /// columns re-widen when a dictionary outgrows its integer width): the
    /// result equals one call per batch. Validation happens before any
    /// state is built, so an error, which carries the index of the failing
    /// batch, leaves nothing half-appended. Returns the grown table and the
    /// number of dictionary members created.
    pub fn append_batches<'a>(
        &self,
        batches: impl IntoIterator<Item = &'a [IngestRow]>,
    ) -> Result<(Table, usize), (usize, DataError)> {
        let mut dims: Vec<Dimension> = self.schema.dimensions().to_vec();
        let mut created = 0usize;
        let mut resolve = |row: &IngestRow| -> Result<Vec<MemberId>, DataError> {
            if row.dims.len() != dims.len() {
                return Err(DataError::LengthMismatch {
                    expected: dims.len(),
                    actual: row.dims.len(),
                });
            }
            if row.values.len() != self.measures.len() {
                return Err(DataError::LengthMismatch {
                    expected: self.measures.len(),
                    actual: row.values.len(),
                });
            }
            let mut members = Vec::with_capacity(dims.len());
            for (dim, value) in dims.iter_mut().zip(&row.dims) {
                let m = match value {
                    DimValue::Phrase(p) => {
                        let m = dim.member_by_phrase(p)?;
                        if dim.member(m).level != dim.leaf_level() {
                            return Err(DataError::LevelMismatch {
                                expected: dim.leaf_level().index(),
                                actual: dim.member(m).level.index(),
                            });
                        }
                        m
                    }
                    DimValue::Path(path) => {
                        let (m, new) = dim.resolve_or_extend_path(path)?;
                        created += new;
                        m
                    }
                };
                members.push(m);
            }
            Ok(members)
        };
        let mut resolved: Vec<(Vec<MemberId>, &[f64])> = Vec::new();
        let mut segments = self.segments.clone();
        let mut version = self.version;
        for (b, rows) in batches.into_iter().enumerate() {
            for row in rows {
                resolved.push((resolve(row).map_err(|e| (b, e))?, &row.values));
            }
            if !rows.is_empty() {
                segments.push(rows.len());
            }
            version += 1;
        }

        let schema =
            Schema::with_measures(self.schema.name(), dims, self.schema.measures().to_vec());
        let mut dim_cols: Vec<DimColumn> = self
            .dim_cols
            .iter()
            .cloned()
            .zip(schema.dimensions())
            .map(|(col, d)| col.repacked_for_cardinality(d.member_count()))
            .collect();
        for (members, _) in &resolved {
            for (col, &m) in dim_cols.iter_mut().zip(members) {
                col.push(m);
            }
        }
        let mut measures = self.measures.clone();
        for (m, col) in measures.iter_mut().enumerate() {
            col.extend(resolved.iter().map(|(_, values)| values[m]));
        }
        Ok((Table { schema, dim_cols, measures, version, segments }, created))
    }

    /// A seed table (version 0, one segment) from whole columns, the bulk
    /// form of [`TableBuilder`]: the checks
    /// [`TableBuilder::push_row_values`] makes per row are made once per
    /// column, refusing with the same [`DataError`] variants, and each
    /// measure column is packed ([`MeasureColumn::pack`]).
    pub(crate) fn from_columns(
        schema: Schema,
        dim_cols: Vec<DimColumn>,
        measures: Vec<Vec<f64>>,
    ) -> Result<Table, DataError> {
        let dims = schema.dimensions();
        for (expected, actual) in
            [(dims.len(), dim_cols.len()), (schema.measure_count(), measures.len())]
        {
            if actual != expected {
                return Err(DataError::LengthMismatch { expected, actual });
            }
        }
        let rows = measures[0].len();
        let mut lens = dim_cols.iter().map(DimColumn::len).chain(measures.iter().map(Vec::len));
        if let Some(actual) = lens.find(|&n| n != rows) {
            return Err(DataError::LengthMismatch { expected: rows, actual });
        }
        for (dim, col) in dims.iter().zip(&dim_cols) {
            let is_leaf: Vec<bool> =
                (0..dim.member_count()).map(|i| check_leaf(dim, i).is_ok()).collect();
            if let Some(id) = col.find_id(|i| is_leaf.get(i) == Some(&true)) {
                check_leaf(dim, id)?;
            }
        }
        Ok(TableBuilder { schema, dim_cols, measures }.build())
    }

    /// Number of fact rows.
    pub fn row_count(&self) -> usize {
        self.measures[0].len()
    }

    /// Leaf member of row `row` in dimension `dim`.
    #[inline]
    pub fn member_at(&self, dim: DimId, row: usize) -> MemberId {
        self.dim_cols[dim.index()].get(row)
    }

    /// Primary-measure value of row `row`.
    #[inline]
    pub fn value_at(&self, row: usize) -> f64 {
        self.measures[0].get(row)
    }

    /// Value of measure `m` in row `row`.
    #[inline]
    pub fn measure_value(&self, m: MeasureId, row: usize) -> f64 {
        self.measures[m.index()].get(row)
    }

    /// Materialize row `row` into per-dimension leaf ids.
    pub fn row_members(&self, row: usize) -> Vec<MemberId> {
        self.dim_cols.iter().map(|c| c.get(row)).collect()
    }

    /// Approximate in-memory size in bytes (for dataset statistics):
    /// packed dimension columns, measure columns, and the materialized
    /// chunk slots one live scan order holds (the in-chunk permutations
    /// are computed on the fly and take no memory).
    pub fn approx_bytes(&self) -> usize {
        let rows = self.row_count();
        self.dim_cols.iter().map(|c| c.bytes_per_row() * rows).sum::<usize>()
            + self.measures.iter().map(MeasureColumn::approx_bytes).sum::<usize>()
            + self.scan_order(0).approx_bytes()
    }

    /// The seeded two-level scan order over this table's rows, segmented
    /// along append boundaries so old-prefix positions are stable across
    /// appends.
    pub fn scan_order(&self, seed: u64) -> ScanOrder {
        ScanOrder::segmented(&self.segments, seed, CHUNK_ROWS)
    }

    /// A shared morsel pool over the seeded scan order — the work source
    /// for a team of parallel scanners ([`Table::scan_pooled`]).
    pub fn morsel_pool(&self, seed: u64) -> Arc<MorselPool> {
        Arc::new(MorselPool::new(self.scan_order(seed)))
    }

    /// Create a scanner over the primary measure delivering rows in a
    /// seeded pseudo-random order.
    pub fn scan_shuffled(&self, seed: u64) -> RowScanner<'_> {
        self.scan_shuffled_measure(seed, MeasureId::PRIMARY)
    }

    /// Create a shuffled scanner delivering values of measure `m`.
    pub fn scan_shuffled_measure(&self, seed: u64, m: MeasureId) -> RowScanner<'_> {
        self.scan_pooled(self.morsel_pool(seed), m)
    }

    /// Create a scanner claiming morsels from a shared pool. Scanners on
    /// one pool partition the seeded order with zero overlap: each claims
    /// whole chunks from the pool's atomic counter and streams them
    /// privately. A single scanner on a fresh pool reproduces
    /// [`Table::scan_shuffled_measure`] row for row.
    pub fn scan_pooled(&self, pool: Arc<MorselPool>, m: MeasureId) -> RowScanner<'_> {
        assert_eq!(pool.order().rows(), self.row_count(), "pool built for another table");
        RowScanner {
            table: self,
            measure: m,
            pool,
            cur: None,
            read: 0,
            done: false,
            buf: vec![MemberId::ROOT; self.dim_cols.len()],
            idx_buf: Vec::new(),
            dim_slices: Vec::with_capacity(self.dim_cols.len()),
        }
    }

    /// Create a scanner delivering exactly the rows an earlier scan under
    /// `seed` consumed: `progress` is its [`RowScanner::progress`], taken
    /// against this revision or one it grew from (old positions survive
    /// appends). Rows come position by position, rank by rank — the order
    /// a single scanner read them in.
    pub fn scan_consumed(&self, seed: u64, m: MeasureId, progress: &[u32]) -> RowScanner<'_> {
        self.scan_pooled(Arc::new(MorselPool::consumed(self.scan_order(seed), progress)), m)
    }
}

/// Streaming scanner over a [`Table`].
///
/// Not an `Iterator` because the row view borrows an internal buffer
/// (a lending iterator); call [`RowScanner::next_row`] in a loop.
#[derive(Debug)]
pub struct RowScanner<'a> {
    table: &'a Table,
    measure: MeasureId,
    /// Work source; possibly shared with other scanners.
    pool: Arc<MorselPool>,
    /// The morsel currently being streamed.
    cur: Option<Morsel>,
    /// Rows delivered by this scanner (resumed prefixes excluded).
    read: usize,
    /// Set once the pool reports no morsels left.
    done: bool,
    buf: Vec<MemberId>,
    /// Reused in-chunk row-index buffer for [`RowScanner::next_block`].
    idx_buf: Vec<u32>,
    /// Reused per-dimension chunk-slice buffer for
    /// [`RowScanner::next_block`].
    dim_slices: Vec<DimSlice<'a>>,
}

impl<'a> RowScanner<'a> {
    /// Number of rows delivered so far (excluding any resumed prefix).
    pub fn rows_read(&self) -> usize {
        self.read
    }

    /// `true` once the scanner has drained its share of the pool.
    pub fn exhausted(&self) -> bool {
        self.done && self.cur.is_none()
    }

    /// Resume the scan from an earlier scan's snapshot (per-chunk-position
    /// progress, see [`MorselPool::progress_vec`]); the recorded prefix is
    /// skipped and does not count toward [`RowScanner::rows_read`]. Only
    /// valid on a fresh scanner with a private pool.
    pub fn resume(&mut self, progress: &[u32]) {
        assert!(self.read == 0 && self.cur.is_none(), "resume before reading");
        self.pool.resume(progress);
    }

    /// Per-chunk-position progress of the underlying pool — the snapshot
    /// a later scan can [`RowScanner::resume`] from.
    pub fn progress(&self) -> Vec<u32> {
        self.pool.progress_vec()
    }

    /// Deliver the next row, or `None` when this scanner's share of the
    /// pool is exhausted.
    pub fn next_row(&mut self) -> Option<Row<'_>> {
        loop {
            if let Some(m) = self.cur.as_mut() {
                if m.off < m.end {
                    let r = m.base + m.perm.apply(m.off) as usize;
                    m.off += 1;
                    self.pool.record(m.pos, m.off);
                    self.read += 1;
                    for (d, col) in self.table.dim_cols.iter().enumerate() {
                        self.buf[d] = col.get(r);
                    }
                    let value = self.table.measures[self.measure.index()].get(r);
                    return Some(Row { members: &self.buf, value });
                }
                self.cur = None;
            }
            if self.done {
                return None;
            }
            match self.pool.claim() {
                Some(m) => self.cur = Some(m),
                None => {
                    self.done = true;
                    return None;
                }
            }
        }
    }

    /// Deliver the next batch of up to `max_rows` rows as a columnar
    /// [`RowBlock`], or `None` on exhaustion. A block never crosses a
    /// chunk boundary, so its `dims` and `values` are contiguous slices of
    /// the chunk and its `rows` are in-chunk indices in scan order. Pool
    /// progress is published once per block. Blocks concatenate to exactly
    /// the [`RowScanner::next_row`] row sequence.
    pub fn next_block(&mut self, max_rows: usize) -> Option<RowBlock<'_>> {
        if max_rows == 0 {
            return None;
        }
        loop {
            if let Some(m) = self.cur.as_mut() {
                if m.off < m.end {
                    let n = ((m.end - m.off) as usize).min(max_rows);
                    self.idx_buf.clear();
                    self.idx_buf.reserve(n);
                    for _ in 0..n {
                        self.idx_buf.push(m.perm.apply(m.off));
                        m.off += 1;
                    }
                    self.pool.record(m.pos, m.off);
                    self.read += n;
                    let base = m.base;
                    let len = m.len as usize;
                    self.dim_slices.clear();
                    for col in &self.table.dim_cols {
                        self.dim_slices.push(col.slice(base, len));
                    }
                    let values = self.table.measures[self.measure.index()].slice(base, len);
                    return Some(RowBlock {
                        base,
                        rows: &self.idx_buf,
                        dims: &self.dim_slices,
                        values,
                    });
                }
                self.cur = None;
            }
            if self.done {
                return None;
            }
            match self.pool.claim() {
                Some(m) => self.cur = Some(m),
                None => {
                    self.done = true;
                    return None;
                }
            }
        }
    }
}

/// Refuse dictionary id `id` unless it names a leaf member of `dim`.
fn check_leaf(dim: &Dimension, id: usize) -> Result<(), DataError> {
    if id >= dim.member_count() {
        return Err(DataError::InvalidId { kind: "member", id });
    }
    let (leaf, level) = (dim.leaf_level(), dim.member(MemberId(id as u32)).level);
    if level != leaf {
        return Err(DataError::LevelMismatch { expected: leaf.index(), actual: level.index() });
    }
    Ok(())
}

/// Builder accumulating rows for a [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    dim_cols: Vec<DimColumn>,
    measures: Vec<Vec<f64>>,
}

impl TableBuilder {
    /// Start building a table for `schema`.
    pub fn new(schema: Schema) -> Self {
        let dim_cols = schema
            .dimensions()
            .iter()
            .map(|d| DimColumn::for_cardinality(d.member_count()))
            .collect();
        let n_measures = schema.measure_count();
        TableBuilder { schema, dim_cols, measures: vec![Vec::new(); n_measures] }
    }

    /// Append one fact row with a single measure value (requires a
    /// single-measure schema; use [`TableBuilder::push_row_values`] for
    /// multi-measure tables).
    ///
    /// `members` must hold one **leaf** member per dimension, in schema
    /// order. Returns an error on arity or level mismatches.
    pub fn push_row(&mut self, members: &[MemberId], value: f64) -> Result<(), DataError> {
        self.push_row_values(members, &[value])
    }

    /// Append one fact row with one value per measure column.
    pub fn push_row_values(
        &mut self,
        members: &[MemberId],
        values: &[f64],
    ) -> Result<(), DataError> {
        if members.len() != self.dim_cols.len() {
            return Err(DataError::LengthMismatch {
                expected: self.dim_cols.len(),
                actual: members.len(),
            });
        }
        if values.len() != self.measures.len() {
            return Err(DataError::LengthMismatch {
                expected: self.measures.len(),
                actual: values.len(),
            });
        }
        for (dim, &m) in self.schema.dimensions().iter().zip(members) {
            check_leaf(dim, m.index())?;
        }
        for (d, &m) in members.iter().enumerate() {
            self.dim_cols[d].push(m);
        }
        for (col, &v) in self.measures.iter_mut().zip(values) {
            col.push(v);
        }
        Ok(())
    }

    /// Schema the table is being built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Finalize the table (version 0, one seed segment), packing each
    /// measure column ([`MeasureColumn::pack`]).
    pub fn build(self) -> Table {
        let rows = self.measures[0].len();
        Table {
            schema: self.schema,
            dim_cols: self.dim_cols,
            measures: self.measures.into_iter().map(MeasureColumn::pack).collect(),
            version: 0,
            segments: vec![rows],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionBuilder;
    use crate::schema::MeasureUnit;

    fn tiny_table() -> Table {
        let mut b = DimensionBuilder::new("region", "in", "anywhere");
        let l = b.add_level("region");
        let ne = b.add_member(l, b.root(), "the North East");
        let mw = b.add_member(l, b.root(), "the Midwest");
        let dim = b.build();
        let schema = Schema::new("t", vec![dim], "value", MeasureUnit::Plain);
        let mut tb = TableBuilder::new(schema);
        for (m, v) in [(ne, 1.0), (mw, 2.0), (ne, 3.0), (mw, 4.0)] {
            tb.push_row(&[m], v).unwrap();
        }
        tb.build()
    }

    #[test]
    fn builder_and_access() {
        let t = tiny_table();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.value_at(2), 3.0);
        assert_eq!(t.row_members(0), vec![MemberId(1)]);
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn small_cardinality_dimensions_pack_to_one_byte() {
        let t = tiny_table();
        // 3 members (root + 2 leaves) -> u8 ids: 1 byte per dimension row
        // plus 8 per measure row plus the (single-chunk) scan-order slot
        // (base + len + id).
        assert_eq!(t.approx_bytes(), 4 * (1 + 8) + 16);
    }

    #[test]
    fn measure_columns_read_back_every_bit_and_code_exactly_by_the_rule() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let special = [0.0, -0.0, f64::from_bits(0x7ff8_0000_0000_1234), f64::INFINITY]
            .into_iter()
            .chain([f64::NEG_INFINITY, f64::from_bits(1)]);
        let mut gen = StdRng::seed_from_u64(0x5eed);
        for case in 0..200 {
            // Every tenth case sits on the size rule's tie: 8 rows of 7
            // patterns take 64 bytes either way, so they stay plain.
            let (distinct, len) = match case % 10 {
                0 => (7, 8),
                _ => (gen.gen_range(1..=300), gen.gen_range(1..2_000)),
            };
            let mut pool: Vec<f64> = special.clone().collect();
            while pool.len() < distinct {
                pool.push(f64::from_bits(gen.gen()));
            }
            pool.truncate(distinct);
            let values: Vec<f64> = (0..len)
                .map(|i| pool[if i < distinct { i } else { gen.gen_range(0..distinct) }])
                .collect();
            let mut seen: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            seen.sort_unstable();
            seen.dedup();
            let coded = seen.len() <= 256 && len + 8 * seen.len() < 8 * len;
            let col = MeasureColumn::pack(values.clone());
            assert_eq!(matches!(col, MeasureColumn::Coded { .. }), coded, "{len} rows");
            assert_eq!(col.len(), len);
            for (r, v) in values.iter().enumerate() {
                assert_eq!(col.get(r).to_bits(), v.to_bits(), "row {r}");
            }
            let base = gen.gen_range(0..len);
            let slice = col.slice(base, gen.gen_range(0..=len - base));
            for i in 0..slice.len() {
                assert_eq!(slice[i].to_bits(), values[base + i].to_bits());
            }
        }
    }

    #[test]
    fn appends_keep_every_bit_and_widen_at_the_257th_distinct_value() {
        let mut tb = TableBuilder::new(tiny_table().schema().clone());
        for row in 0..1_000 {
            tb.push_row(&[MemberId(1)], (row % 2) as f64).unwrap();
        }
        let mut t = tb.build();
        let mut want: Vec<f64> = (0..1_000).map(|r| (r % 2) as f64).collect();
        let row = |v: f64| IngestRow {
            dims: vec![DimValue::Phrase("the North East".into())],
            values: vec![v],
        };
        // 254 new values fill the dictionary to 256; the next batch repeats
        // one and brings the 257th, `-0.0`, whose bits are not `0.0`'s.
        for (batch, coded) in
            [((2..256).map(f64::from).collect::<Vec<_>>(), true), (vec![7.0, -0.0], false)]
        {
            t = t.append_rows(&batch.iter().map(|&v| row(v)).collect::<Vec<_>>()).unwrap().0;
            want.extend(&batch);
            assert_eq!(matches!(t.measures[0], MeasureColumn::Coded { .. }), coded);
            assert_eq!(t.row_count(), want.len());
            assert!(want.iter().enumerate().all(|(r, v)| t.value_at(r).to_bits() == v.to_bits()));
        }
    }

    #[test]
    fn flights_cancellation_flags_take_one_byte_a_row() {
        let t = crate::flights::FlightsConfig { rows: 200_000, seed: 3 }.generate();
        // Three one-byte id columns, the coded 0/1 flag with its two-entry
        // dictionary, the delay as plain f64, and the scan-order slots.
        let rows = t.row_count();
        assert_eq!(t.approx_bytes(), rows * (3 + 1 + 8) + 2 * 8 + t.scan_order(0).approx_bytes());
    }

    #[test]
    fn push_row_rejects_wrong_arity() {
        let t = tiny_table();
        let mut tb = TableBuilder::new(t.schema().clone());
        let err = tb.push_row(&[], 1.0).unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }));
    }

    #[test]
    fn push_row_rejects_non_leaf() {
        let t = tiny_table();
        let mut tb = TableBuilder::new(t.schema().clone());
        let err = tb.push_row(&[MemberId::ROOT], 1.0).unwrap_err();
        assert!(matches!(err, DataError::LevelMismatch { .. }));
    }

    #[test]
    fn push_row_rejects_out_of_range_member() {
        let t = tiny_table();
        let mut tb = TableBuilder::new(t.schema().clone());
        let err = tb.push_row(&[MemberId(99)], 1.0).unwrap_err();
        assert!(matches!(err, DataError::InvalidId { .. }));
    }

    #[test]
    fn shuffled_scan_is_a_permutation_and_deterministic() {
        let t = tiny_table();
        let collect = |seed| {
            let mut s = t.scan_shuffled(seed);
            let mut vals = Vec::new();
            while let Some(r) = s.next_row() {
                vals.push(r.value);
            }
            vals
        };
        let a = collect(7);
        let b = collect(7);
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![1.0, 2.0, 3.0, 4.0], "permutation covers all rows");
    }

    #[test]
    fn pooled_scanners_partition_the_shuffled_order() {
        // A single scanner on a fresh pool == the plain shuffled scan.
        let t = tiny_table();
        let mut full = t.scan_shuffled(9);
        let mut solo = t.scan_pooled(t.morsel_pool(9), MeasureId::PRIMARY);
        while let Some(a) = full.next_row() {
            let b = solo.next_row().unwrap();
            assert_eq!(a.value, b.value);
        }
        assert!(solo.next_row().is_none());

        // Scanners sharing one pool partition the table: union of values
        // == multiset of all rows.
        for n_scanners in [2usize, 3] {
            let pool = t.morsel_pool(9);
            let mut all = Vec::new();
            for _ in 0..n_scanners {
                let mut s = t.scan_pooled(pool.clone(), MeasureId::PRIMARY);
                while let Some(r) = s.next_row() {
                    all.push(r.value);
                }
            }
            all.sort_by(f64::total_cmp);
            assert_eq!(all, vec![1.0, 2.0, 3.0, 4.0], "{n_scanners} scanners");
        }
    }

    #[test]
    fn resume_continues_the_seeded_scan_where_a_prefix_left_off() {
        let t = tiny_table();
        let mut donor = t.scan_shuffled(3);
        donor.next_row();
        donor.next_row();
        let snapshot = donor.progress();
        let mut resumed = t.scan_shuffled(3);
        resumed.resume(&snapshot);
        assert_eq!(resumed.rows_read(), 0, "resumed rows are not counted as read");
        while let Some(expect) = donor.next_row() {
            let expect = expect.value;
            assert_eq!(resumed.next_row().unwrap().value, expect);
        }
        assert!(resumed.next_row().is_none());
        assert_eq!(resumed.rows_read(), 2);
    }

    #[test]
    fn block_scan_delivers_the_same_rows_as_next_row() {
        let t = tiny_table();
        let mut by_row = t.scan_shuffled(5);
        let mut expect = Vec::new();
        while let Some(r) = by_row.next_row() {
            expect.push((r.members.to_vec(), r.value));
        }
        let mut blocked = t.scan_shuffled(5);
        let mut got = Vec::new();
        // Odd block size exercises the mid-morsel resume of the loop.
        while let Some(b) = blocked.next_block(3) {
            for &r in b.rows {
                let members: Vec<MemberId> = b.dims.iter().map(|d| d.get(r as usize)).collect();
                got.push((members, b.values[r as usize]));
            }
        }
        assert_eq!(got, expect);
        assert_eq!(blocked.rows_read(), expect.len());
        assert!(blocked.exhausted());
    }

    #[test]
    fn zero_sized_block_request_returns_none_without_consuming() {
        let t = tiny_table();
        let mut s = t.scan_shuffled(5);
        assert!(s.next_block(0).is_none());
        assert_eq!(s.rows_read(), 0);
        assert!(s.next_block(10).is_some(), "scan not perturbed");
    }

    #[test]
    fn consumed_set_scan_delivers_exactly_the_rows_progress_names() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut gen = StdRng::seed_from_u64(0xc0a5);
        for _ in 0..32 {
            let segs: Vec<usize> =
                (0..gen.gen_range(1..4)).map(|_| gen.gen_range(1usize..400)).collect();
            let order = ScanOrder::segmented(&segs, gen.gen(), gen.gen_range(1usize..150));
            // A ragged frontier: any watermark on the claimed positions.
            let progress: Vec<u32> = (0..gen.gen_range(0..=order.n_chunks()))
                .map(|pos| gen.gen_range(0..=order.chunk_len(pos)))
                .collect();
            // value = row index, so a delivered value names its row.
            let mut tb = TableBuilder::new(tiny_table().schema().clone());
            for row in 0..order.rows() {
                tb.push_row(&[MemberId(1)], row as f64).unwrap();
            }
            let t = tb.build();
            let pooled = |pool| t.scan_pooled(Arc::new(pool), MeasureId::PRIMARY);
            let want: Vec<f64> = (0..progress.len())
                .flat_map(|pos| (0..progress[pos]).map(move |rank| (pos, rank)))
                .map(|(pos, rank)| order.row_at(pos, rank) as f64)
                .collect();
            let mut by_row = Vec::new();
            let mut scan = pooled(MorselPool::consumed(order.clone(), &progress));
            while let Some(r) = scan.next_row() {
                by_row.push(r.value);
            }
            let mut by_block = Vec::new();
            let mut scan = pooled(MorselPool::consumed(order.clone(), &progress));
            while let Some(b) = scan.next_block(7) {
                by_block.extend(b.rows.iter().map(|&r| b.values[r as usize]));
            }
            assert_eq!(by_row, want, "segments {segs:?}, progress {progress:?}");
            assert_eq!(by_block, want, "block path == row path");
            assert_eq!(scan.rows_read(), want.len());
            // The resumed scan delivers the complement: nothing twice.
            let mut rest = pooled(MorselPool::new(order));
            rest.resume(&progress);
            while let Some(r) = rest.next_row() {
                by_row.push(r.value);
            }
            by_row.sort_by(f64::total_cmp);
            assert!(by_row.iter().enumerate().all(|(i, &v)| v == i as f64), "not a partition");
            assert_eq!(by_row.len(), t.row_count());
        }
    }
}
