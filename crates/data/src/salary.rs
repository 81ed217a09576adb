//! Synthetic mid-career-salary dataset.
//!
//! Substitute for the Kaggle college-salaries data (320 rows, 36 KB) used in
//! the paper. The generator reproduces:
//!
//! * the schema — dimension *college location* (region → state →
//!   institution) and *start salary* (rough category → precise 10 K bin),
//!   with mid-career salary (in thousands of dollars) as the measure;
//! * the paper's running examples — the overall average mid-career salary is
//!   ≈ 80–90 K, values run ≈ 5 % higher for the North East and ≈ 20 % higher
//!   for start salaries of at least 50 K (Examples 3.1 and 3.4);
//! * scale — exactly 320 rows by default, one per institution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dimension::{DimensionBuilder, LevelId};
use crate::schema::{DimId, MeasureUnit, Schema};
use crate::table::{Table, TableBuilder};

/// Region names matching the paper's Example 3.4.
pub const REGIONS: [&str; 4] = ["the North East", "the Midwest", "the West", "the South"];

/// States per region.
const STATES: [&[&str]; 4] = [
    &["New York", "Massachusetts", "Pennsylvania", "Connecticut"],
    &["Ohio", "Illinois", "Michigan", "Wisconsin"],
    &["California", "Washington", "Oregon", "Colorado"],
    &["Texas", "Florida", "Georgia", "North Carolina"],
];

/// Precise start-salary bins (thousands of dollars). Bins below 50 K roll up
/// to the rough category `"less than 50 K"`, the others to `"at least 50 K"`.
pub const START_SALARY_BINS: [u32; 5] = [35, 45, 55, 65, 75];

/// Multiplicative salary lift per region (North East +5 %, Example 3.1).
const REGION_LIFT: [f64; 4] = [1.05, 0.99, 1.01, 0.97];

/// Multiplicative lift applied to rows with start salary ≥ 50 K (+20 %,
/// Example 3.1's "values increase by 20 % for a start salary of at least
/// 50 K").
const HIGH_START_LIFT: f64 = 1.20;

/// Configuration for the salary generator.
#[derive(Debug, Clone, Copy)]
pub struct SalaryConfig {
    /// Number of institutions (rows). Paper: 320.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SalaryConfig {
    /// The paper's dataset size: 320 institutions.
    pub fn paper_scale() -> Self {
        SalaryConfig { rows: 320, seed: 42 }
    }

    /// Build the salary schema (dimensions only).
    ///
    /// Institutions are named deterministically from the row count so the
    /// college dimension's leaf level has exactly `rows` members.
    pub fn schema(rows: usize) -> Schema {
        let mut b = DimensionBuilder::new("college location", "graduates from", "any college");
        let l_region = b.add_level("region");
        let l_state = b.add_level("state");
        let l_inst = b.add_level("institution");
        let mut inst = 0usize;
        // Deal institutions round-robin across states until `rows` leaves.
        let mut state_members = Vec::new();
        for (r, &region) in REGIONS.iter().enumerate() {
            let rm = b.add_member(l_region, b.root(), region);
            for &state in STATES[r] {
                state_members.push((b.add_member(l_state, rm, state), state.to_string()));
            }
        }
        while inst < rows {
            let (sm, state) = &state_members[inst % state_members.len()];
            let n = inst / state_members.len() + 1;
            b.add_member(l_inst, *sm, &format!("{state} Institute {n}"));
            inst += 1;
        }
        let college = b.build();

        let mut b = DimensionBuilder::new("start salary", "a start salary of", "any amount");
        let l_rough = b.add_level("rough start salary");
        let l_precise = b.add_level("precise start salary");
        let low = b.add_member(l_rough, b.root(), "less than 50 K");
        let high = b.add_member(l_rough, b.root(), "at least 50 K");
        for &bin in &START_SALARY_BINS {
            let parent = if bin < 50 { low } else { high };
            b.add_member(l_precise, parent, &format!("around {bin} K"));
        }
        let start_salary = b.build();

        Schema::new(
            "mid-career salary",
            vec![college, start_salary],
            "mid-career salary",
            MeasureUnit::DollarsK,
        )
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Table {
        let schema = Self::schema(self.rows);
        let mut rng = StdRng::seed_from_u64(self.seed);

        let college = schema.dimension(DimId(0));
        let start = schema.dimension(DimId(1));
        let institutions = college.leaves().to_vec();
        let salary_bins = start.leaves().to_vec();
        let regions = college.level_members(LevelId(1));

        // Region index per institution, resolved before `schema` moves
        // into the builder.
        let region_of: Vec<usize> = institutions
            .iter()
            .map(|&leaf| {
                regions
                    .iter()
                    .position(|&r| college.is_ancestor_or_self(r, leaf))
                    .expect("every institution sits under a region")
            })
            .collect();

        let mut tb = TableBuilder::new(schema);
        for (idx, &inst) in institutions.iter().take(self.rows).enumerate() {
            let bin_idx = rng.gen_range(0..salary_bins.len());
            let bin_leaf = salary_bins[bin_idx];
            let high_start = START_SALARY_BINS[bin_idx] >= 50;
            let r = region_of[idx];
            // Base calibrated so the overall mean lands near 88 K
            // ("around 90 K" after one-significant-digit rounding, matching
            // Example 3.1's spoken baseline).
            let base = 80.0;
            let lift = REGION_LIFT[r] * if high_start { HIGH_START_LIFT } else { 1.0 };
            let noise = rng.gen_range(0.9..1.1);
            let mid_career = base * lift * noise;
            tb.push_row(&[inst, bin_leaf], mid_career).expect("valid leaf row");
        }
        tb.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape_matches_paper() {
        let s = SalaryConfig::schema(320);
        assert_eq!(s.dimensions().len(), 2);
        let college = s.dimension(DimId(0));
        assert_eq!(college.level_count(), 4); // root, region, state, institution
        assert_eq!(college.leaves().len(), 320);
        let start = s.dimension(DimId(1));
        assert_eq!(start.level_count(), 3); // root, rough, precise
        assert_eq!(start.level_members(LevelId(1)).len(), 2);
        assert_eq!(start.leaves().len(), START_SALARY_BINS.len());
    }

    #[test]
    fn row_count_matches_config() {
        let t = SalaryConfig::paper_scale().generate();
        assert_eq!(t.row_count(), 320);
    }

    #[test]
    fn deterministic_generation() {
        let a = SalaryConfig { rows: 100, seed: 9 }.generate();
        let b = SalaryConfig { rows: 100, seed: 9 }.generate();
        assert!((0..a.row_count()).all(|r| a.value_at(r).to_bits() == b.value_at(r).to_bits()));
    }

    #[test]
    fn calibration_matches_running_examples() {
        let t = SalaryConfig::paper_scale().generate();
        let overall = (0..t.row_count()).map(|r| t.value_at(r)).sum::<f64>() / t.row_count() as f64;
        assert!(overall > 80.0 && overall < 96.0, "overall mean {overall}");

        // High start salaries should run roughly 20% above low ones.
        let start = t.schema().dimension(DimId(1));
        let high = start.member_by_phrase("at least 50 K").unwrap();
        let (mut hi_sum, mut hi_n, mut lo_sum, mut lo_n) = (0.0, 0usize, 0.0, 0usize);
        for row in 0..t.row_count() {
            let leaf = t.member_at(DimId(1), row);
            if start.is_ancestor_or_self(high, leaf) {
                hi_sum += t.value_at(row);
                hi_n += 1;
            } else {
                lo_sum += t.value_at(row);
                lo_n += 1;
            }
        }
        let ratio = (hi_sum / hi_n as f64) / (lo_sum / lo_n as f64);
        assert!(
            (ratio - HIGH_START_LIFT).abs() < 0.06,
            "high/low start-salary ratio {ratio:.3}, expected ~{HIGH_START_LIFT}"
        );
    }

    #[test]
    fn northeast_lift_present() {
        let t = SalaryConfig { rows: 320, seed: 7 }.generate();
        let college = t.schema().dimension(DimId(0));
        let ne = college.member_by_phrase("the North East").unwrap();
        let (mut ne_sum, mut ne_n, mut rest_sum, mut rest_n) = (0.0, 0usize, 0.0, 0usize);
        for row in 0..t.row_count() {
            let leaf = t.member_at(DimId(0), row);
            if college.is_ancestor_or_self(ne, leaf) {
                ne_sum += t.value_at(row);
                ne_n += 1;
            } else {
                rest_sum += t.value_at(row);
                rest_n += 1;
            }
        }
        assert!(ne_sum / ne_n as f64 > rest_sum / rest_n as f64, "NE average above the rest");
    }
}
