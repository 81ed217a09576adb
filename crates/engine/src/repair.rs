//! Sample-snapshot repair after appends (DESIGN.md §16).
//!
//! A [`SampleSnapshot`] drawn against table version `v` names a uniform
//! scan prefix of that version's rows. When the table grows to version
//! `v' > v` (one or more append batches), the snapshot is not discarded:
//! because segmented scan orders keep the old-prefix permutation stable and
//! give the appended suffix its own seeded sub-order, the snapshot can be
//! *repaired* by rebasing its progress vector onto the grown order — no row
//! is read here; the warm start that follows replays what the repaired
//! vector names.
//!
//! **Proportional suffix.** The donor read `k0` of the old `N0` rows —
//! inclusion rate `k0/N0`. Repair marks the first
//! `k1 = round(N1 · k0 / N0)` rows of the suffix's seeded sub-order consumed
//! (`N1` = appended rows), so every row of the grown table — old or new —
//! is included with (approximately) the same rate, and the merged prefix of
//! `k0 + k1` rows stays a uniform sample of all `N0 + N1` rows. The
//! `e = N · seen/read` estimators of paper Algorithm 3 remain unbiased
//! with `N` and `read` both updated. An exhausted donor (`k0 = N0`) takes
//! the whole suffix and is exact again.
//!
//! Repair itself is arithmetic over chunk positions; its cost to the answer
//! is the `k1 ≤ N1` suffix rows the replay then reads for the first time
//! ([`RepairOutcome::rows_read`]) — never a rescan of the old prefix on the
//! repair's account.

use voxolap_data::Table;

use crate::query::ScopeKey;
use crate::semantic::SampleSnapshot;

/// A repaired snapshot plus the suffix rows it newly names (the repair's
/// cost, reported to cache counters and bench output).
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The snapshot re-stamped to the live version: donor progress on the
    /// old positions, the proportional suffix prefix behind it.
    pub snapshot: SampleSnapshot,
    /// Suffix rows added to the consumed set (`≤` appended rows).
    pub rows_read: u64,
}

/// Repair a version-stale snapshot against the live table by extending its
/// consumed set into the appended suffix (see module docs). Returns `None`
/// when the snapshot needs no repair (same version) or cannot be repaired
/// (its table was empty, or its row count is not a segment boundary of the
/// live order — e.g. a snapshot that somehow outlived a non-append
/// change); callers fall back to a cold scan in that case. A snapshot
/// holds no row, so the scope plays no part.
pub fn repair_snapshot(
    donor: &SampleSnapshot,
    table: &Table,
    _scope: &ScopeKey,
) -> Option<RepairOutcome> {
    let n_total = table.row_count() as u64;
    let n0 = donor.table_rows;
    if donor.version == table.version() || n0 == 0 || n0 > n_total {
        return None;
    }
    // Appends always land as whole segments, so the donor's row count must
    // be a prefix of the live segment list.
    let mut acc = 0u64;
    let boundary = table.segments().iter().any(|&s| {
        acc += s as u64;
        acc == n0
    });
    if !boundary && n0 != n_total {
        return None;
    }

    let n1 = n_total - n0;
    let k0 = donor.nr_read;
    let k1 = (((n1 as f64) * (k0 as f64) / (n0 as f64)).round() as u64).min(n1);

    // Old positions keep the donor's watermarks (positions it never
    // claimed stay at 0); the suffix sub-order is consumed front to back.
    let order = table.scan_order(donor.seed);
    let prefix = order.prefix_positions(n0 as usize);
    let mut progress = donor.progress.clone();
    progress.resize(prefix, 0);
    let mut left = k1;
    for pos in prefix..order.n_chunks() {
        let take = left.min(order.chunk_len(pos) as u64);
        progress.push(take as u32);
        left -= take;
    }
    while progress.last() == Some(&0) {
        progress.pop();
    }

    Some(RepairOutcome {
        snapshot: SampleSnapshot {
            seed: donor.seed,
            progress,
            nr_read: k0 + k1,
            version: table.version(),
            table_rows: n_total,
        },
        rows_read: k1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::schema::MeasureId;
    use voxolap_data::table::{DimValue, IngestRow};
    use voxolap_data::{DimId, MemberId};

    use crate::query::{AggFct, Query};

    /// A deterministic one-dimension table: `n` rows, value = row index.
    fn base_table(n: usize) -> Table {
        use voxolap_data::dimension::DimensionBuilder;
        use voxolap_data::schema::MeasureUnit;
        use voxolap_data::table::TableBuilder;
        let mut b = DimensionBuilder::new("region", "in", "anywhere");
        let l = b.add_level("region");
        let a = b.add_member(l, b.root(), "alpha");
        let z = b.add_member(l, b.root(), "zeta");
        let schema = voxolap_data::Schema::new("t", vec![b.build()], "value", MeasureUnit::Plain);
        let mut tb = TableBuilder::new(schema);
        for i in 0..n {
            let m = if i % 3 == 0 { a } else { z };
            tb.push_row(&[m], i as f64).unwrap();
        }
        tb.build()
    }

    fn suffix_rows(n: usize, start: usize) -> Vec<IngestRow> {
        (0..n)
            .map(|i| IngestRow {
                dims: vec![DimValue::Phrase(
                    if (start + i).is_multiple_of(3) { "alpha" } else { "zeta" }.into(),
                )],
                values: vec![(start + i) as f64],
            })
            .collect()
    }

    /// Draw a donor snapshot: scan `k0` rows of `table` under `seed`.
    fn draw_snapshot(table: &Table, seed: u64, k0: usize) -> SampleSnapshot {
        let mut scan = table.scan_shuffled(seed);
        for _ in 0..k0 {
            scan.next_row().expect("table has k0 rows");
        }
        SampleSnapshot {
            seed,
            progress: scan.progress(),
            nr_read: k0 as u64,
            version: table.version(),
            table_rows: table.row_count() as u64,
        }
    }

    /// The values of the rows `snap` names in `table` whose members pass
    /// `keep`, in replay order (value = row index in these tables, so a
    /// value names its row).
    fn named_rows(
        table: &Table,
        snap: &SampleSnapshot,
        keep: impl Fn(&[MemberId]) -> bool,
    ) -> Vec<f64> {
        let mut scan = table.scan_consumed(snap.seed, MeasureId::PRIMARY, &snap.progress);
        let mut values = Vec::new();
        while let Some(r) = scan.next_row() {
            if keep(r.members) {
                values.push(r.value);
            }
        }
        values
    }

    fn unfiltered_scope(table: &Table) -> ScopeKey {
        Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap()
            .key()
            .scope()
    }

    #[test]
    fn repair_reads_only_a_proportional_suffix_prefix() {
        let old = base_table(3_000);
        let scope = unfiltered_scope(&old);
        let donor = draw_snapshot(&old, 17, 900); // rate 0.3
        let (new, _) = old.append_rows(&suffix_rows(600, 3_000)).unwrap();
        let out = repair_snapshot(&donor, &new, &scope).expect("repairable");
        assert_eq!(out.rows_read, 180, "round(600 * 900/3000)");
        assert_eq!(out.snapshot.nr_read, 900 + 180);
        assert_eq!(out.snapshot.version, 1);
        assert_eq!(out.snapshot.table_rows, 3_600);
        // The repaired set is the donor's rows (nothing dropped, nothing
        // re-drawn) followed by 180 rows of the suffix and no other.
        let named = named_rows(&new, &out.snapshot, |_| true);
        assert_eq!(named[..900], named_rows(&old, &donor, |_| true)[..]);
        assert_eq!(named.len(), 900 + 180);
        assert!(named[900..].iter().all(|&v| v >= 3_000.0), "repair named an old row");
    }

    #[test]
    fn repaired_snapshot_matches_a_fresh_scan_of_the_same_depth() {
        // Resuming the repaired progress and reading the remaining rows
        // must visit each remaining row exactly once — i.e. the repaired
        // consumed-set is a valid scan state of the grown table.
        let old = base_table(500);
        let scope = unfiltered_scope(&old);
        let donor = draw_snapshot(&old, 5, 200);
        let (new, _) = old.append_rows(&suffix_rows(250, 500)).unwrap();
        let out = repair_snapshot(&donor, &new, &scope).expect("repairable");

        let mut resumed = new.scan_shuffled(5);
        resumed.resume(&out.snapshot.progress);
        let mut remaining = Vec::new();
        while let Some(r) = resumed.next_row() {
            remaining.push(r.value);
        }
        assert_eq!(
            remaining.len() as u64,
            new.row_count() as u64 - out.snapshot.nr_read,
            "repaired progress + remainder covers the table exactly"
        );
        // The named rows and the remainder partition all row values.
        let mut all = named_rows(&new, &out.snapshot, |_| true);
        assert_eq!(all.len() as u64, out.snapshot.nr_read);
        all.extend(&remaining);
        all.sort_by(f64::total_cmp);
        let expect: Vec<f64> = (0..new.row_count()).map(|i| i as f64).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn exhausted_donor_repairs_to_exact_again() {
        let old = base_table(400);
        let scope = unfiltered_scope(&old);
        let donor = draw_snapshot(&old, 9, 400);
        let (new, _) = old.append_rows(&suffix_rows(100, 400)).unwrap();
        let out = repair_snapshot(&donor, &new, &scope).expect("repairable");
        assert_eq!(out.rows_read, 100, "whole suffix");
        assert_eq!(out.snapshot.nr_read, 500, "exact over the grown table");
    }

    #[test]
    fn same_version_needs_no_repair() {
        let t = base_table(100);
        let scope = unfiltered_scope(&t);
        let donor = draw_snapshot(&t, 3, 40);
        assert!(repair_snapshot(&donor, &t, &scope).is_none());
    }

    #[test]
    fn filtered_scope_replay_finds_the_suffix_rows_in_scope() {
        // Repair is scope-blind; the filter applies when the named rows
        // are replayed through the query's layout. Every third row is an
        // alpha, old or appended.
        let old = base_table(900);
        let alpha = old.schema().dimension(DimId(0)).member_by_phrase("alpha").unwrap();
        let q = Query::builder(AggFct::Avg).filter(DimId(0), alpha).build(old.schema()).unwrap();
        let donor = draw_snapshot(&old, 11, 300);
        let (new, _) = old.append_rows(&suffix_rows(300, 900)).unwrap();
        let out = repair_snapshot(&donor, &new, &q.key().scope()).expect("repairable");
        let in_scope = |members: &[MemberId]| q.layout().agg_of_row(members).is_some();
        let repaired = named_rows(&new, &out.snapshot, in_scope);
        assert!(
            repaired.iter().all(|&v| (v as usize).is_multiple_of(3)),
            "out-of-scope row replayed"
        );
        let suffix_alphas = repaired.iter().filter(|&&v| v >= 900.0).count();
        assert_eq!(repaired.len() - suffix_alphas, named_rows(&old, &donor, in_scope).len());
        assert!(suffix_alphas > 0, "suffix alphas were found");
    }
}
