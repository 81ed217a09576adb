//! Synthetic flight-cancellations dataset.
//!
//! Substitute for the 2015 Kaggle flight-delays data (5.3 M rows, 600 MB)
//! used in the paper. The generator reproduces:
//!
//! * the schema — dimensions *start airport* (levels region → state → city →
//!   airport), *flight date* (season → month), *airline* (one level), and a
//!   0/1 cancellation measure whose average is the cancellation probability;
//! * the published group means — the per-(region, season) cancellation
//!   probabilities of the paper's Table 12 are the generator's base rates,
//!   so exact evaluation of `AVG(cancelled) GROUP BY region, season`
//!   reproduces that table up to sampling noise;
//! * scale — row count is configurable up to the paper's 5.3 M.
//!
//! Per-state and per-airline multiplicative factors add realistic
//! fine-grained structure. They are normalized to mean 1 (traffic-weighted)
//! so coarse group means stay pinned to Table 12.
//!
//! The table carries a second measure — **departure delay in minutes** —
//! exercising the paper's "multiple columns" extension (§2): queries pick
//! the measure to aggregate via
//! [`QueryBuilder::measure`](https://docs.rs/voxolap-engine). Delays share
//! the cancellation risk factors (bad-weather regions and seasons also
//! delay flights), scaled to a ~12-minute overall mean.

use std::num::NonZeroUsize;
use std::thread;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::chunk::CHUNK_ROWS;
use crate::dimension::{DimensionBuilder, MemberId};
use crate::schema::{Measure, MeasureUnit, Schema};
use crate::table::{DimColumn, Table};

/// Region names, matching the paper's Table 12 row labels.
pub const REGIONS: [&str; 5] =
    ["the North East", "the Midwest", "the South", "the West", "the United States territories"];

/// Season names (Winter first, as in the paper's examples).
pub const SEASONS: [&str; 4] = ["Winter", "Spring", "Summer", "Fall"];

/// Months by season (meteorological convention).
pub const MONTHS_BY_SEASON: [[&str; 3]; 4] = [
    ["December", "January", "February"],
    ["March", "April", "May"],
    ["June", "July", "August"],
    ["September", "October", "November"],
];

/// Airline names from the 2015 dataset (paper Table 13 cites
/// "American Eagle Airlines Inc.").
pub const AIRLINES: [&str; 14] = [
    "United Air Lines Inc.",
    "American Airlines Inc.",
    "US Airways Inc.",
    "Frontier Airlines Inc.",
    "JetBlue Airways",
    "Skywest Airlines Inc.",
    "Alaska Airlines Inc.",
    "Spirit Air Lines",
    "Southwest Airlines Co.",
    "Delta Air Lines Inc.",
    "Atlantic Southeast Airlines",
    "Hawaiian Airlines Inc.",
    "American Eagle Airlines Inc.",
    "Virgin America",
];

/// Paper Table 12: exact cancellation probability per (region, season).
/// Index order: `TABLE12[region][season]` with [`REGIONS`] / [`SEASONS`] order.
pub const TABLE12: [[f64; 4]; 5] = [
    // Winter, Spring, Summer, Fall
    [0.0555, 0.02296, 0.01662, 0.00794],  // North East
    [0.03944, 0.01576, 0.018, 0.01313],   // Midwest
    [0.02851, 0.01656, 0.01097, 0.00537], // South
    [0.01562, 0.00725, 0.00927, 0.0056],  // West
    [0.01424, 0.0065, 0.00741, 0.00183],  // US territories
];

/// Share of flights departing from each region (traffic weights).
const REGION_WEIGHTS: [f64; 5] = [0.20, 0.25, 0.30, 0.22, 0.03];

/// States per region (subset of the real dataset's geography).
const STATES: [&[&str]; 5] = [
    &["New York", "Massachusetts", "Pennsylvania", "Connecticut", "New Jersey"],
    &["Illinois", "Ohio", "Michigan", "Minnesota", "Wisconsin", "Iowa"],
    &["Texas", "Florida", "Georgia", "North Carolina", "Tennessee", "Arkansas"],
    &["California", "Washington", "Colorado", "Oregon", "Nevada"],
    &["Puerto Rico", "Guam"],
];

/// Cities per state (keyed by state name).
const CITIES: [(&str, &[&str]); 24] = [
    ("New York", &["New York City", "Buffalo"]),
    ("Massachusetts", &["Boston"]),
    ("Pennsylvania", &["Philadelphia", "Pittsburgh"]),
    ("Connecticut", &["Hartford"]),
    ("New Jersey", &["Newark"]),
    ("Illinois", &["Chicago"]),
    ("Ohio", &["Columbus", "Cleveland"]),
    ("Michigan", &["Detroit"]),
    ("Minnesota", &["Minneapolis"]),
    ("Wisconsin", &["Milwaukee"]),
    ("Iowa", &["Des Moines"]),
    ("Texas", &["Dallas", "Houston", "Austin"]),
    ("Florida", &["Orlando", "Miami", "Tampa"]),
    ("Georgia", &["Atlanta"]),
    ("North Carolina", &["Charlotte"]),
    ("Tennessee", &["Nashville"]),
    ("Arkansas", &["Little Rock"]),
    ("California", &["Los Angeles", "San Francisco", "San Diego"]),
    ("Washington", &["Seattle"]),
    ("Colorado", &["Denver"]),
    ("Oregon", &["Portland"]),
    ("Nevada", &["Las Vegas"]),
    ("Puerto Rico", &["San Juan"]),
    ("Guam", &["Hagatna"]),
];

/// Configuration for the flights generator.
#[derive(Debug, Clone, Copy)]
pub struct FlightsConfig {
    /// Number of fact rows to generate.
    pub rows: usize,
    /// RNG seed — same seed, same dataset.
    pub seed: u64,
}

impl FlightsConfig {
    /// 20 000 rows — fast unit-test scale.
    pub fn small() -> Self {
        FlightsConfig { rows: 20_000, seed: 42 }
    }

    /// 5.3 M rows — the paper's full dataset scale.
    pub fn paper_scale() -> Self {
        FlightsConfig { rows: 5_300_000, seed: 42 }
    }

    /// Build the flights schema (dimensions only, no rows).
    pub fn schema() -> Schema {
        // Start airport: region -> state -> city -> airport.
        let mut b = DimensionBuilder::new("start airport", "flights starting from", "anywhere");
        let l_region = b.add_level("region");
        let l_state = b.add_level("state");
        let l_city = b.add_level("city");
        let l_airport = b.add_level("airport");
        for (r, &region) in REGIONS.iter().enumerate() {
            let rm = b.add_member(l_region, b.root(), region);
            for &state in STATES[r] {
                let sm = b.add_member(l_state, rm, state);
                let cities = CITIES
                    .iter()
                    .find(|(s, _)| *s == state)
                    .map(|(_, c)| *c)
                    .unwrap_or(&[] as &[&str]);
                for &city in cities {
                    let cm = b.add_member(l_city, sm, city);
                    b.add_member(l_airport, cm, &format!("{city} International"));
                    if city.len() % 2 == 0 {
                        // Larger cities get a second airport.
                        b.add_member(l_airport, cm, &format!("{city} Regional"));
                    }
                }
            }
        }
        let airport = b.build();

        // Flight date: season -> month.
        let mut b = DimensionBuilder::new("flight date", "flights scheduled in", "any date");
        let l_season = b.add_level("season");
        let l_month = b.add_level("month");
        for (s, &season) in SEASONS.iter().enumerate() {
            let sm = b.add_member(l_season, b.root(), season);
            for &month in &MONTHS_BY_SEASON[s] {
                b.add_member(l_month, sm, month);
            }
        }
        let date = b.build();

        // Airline: single level.
        let mut b = DimensionBuilder::new("airline", "flights operated by", "any airline");
        let l_airline = b.add_level("airline");
        for &a in &AIRLINES {
            b.add_member(l_airline, b.root(), a);
        }
        let airline = b.build();

        Schema::with_measures(
            "flight cancellations",
            vec![airport, date, airline],
            vec![
                Measure {
                    name: "cancellation probability".to_string(),
                    unit: MeasureUnit::Fraction,
                },
                Measure {
                    name: "departure delay in minutes".to_string(),
                    unit: MeasureUnit::Plain,
                },
            ],
        )
    }

    /// Generate the dataset, on every core: contiguous ranges of whole
    /// [`CHUNK_ROWS`]-row chunks, one scoped thread each, written straight
    /// into the table's final columns. After the seeded prefix every row
    /// draws exactly seven values, so a range starting at row `f` steps a
    /// clone of the stream `7 · f` draws and runs the serial row body: the
    /// table is the same bytes on any core count.
    pub fn generate(&self) -> Table {
        self.generate_in(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// [`FlightsConfig::generate`] in at most `ranges` ranges.
    pub(crate) fn generate_in(&self, ranges: usize) -> Table {
        let schema = Self::schema();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let airport_dim = schema.dimension(crate::schema::DimId(0));
        let date_dim = schema.dimension(crate::schema::DimId(1));
        let airline_dim = schema.dimension(crate::schema::DimId(2));
        // Every flights dimension has under 256 members: the id columns
        // are one byte wide, and the lookups below hold those bytes.
        let bytes = |ms: &[MemberId]| -> Vec<u8> {
            ms.iter().map(|m| u8::try_from(m.0).expect("flights ids fit one byte")).collect()
        };

        // Pre-index airport leaves by region.
        let region_members = airport_dim.level_members(crate::dimension::LevelId(1));
        let leaves_by_region: Vec<Vec<u8>> =
            region_members.iter().map(|&r| bytes(&airport_dim.leaves_under(r))).collect();

        // Per-airport-leaf factor, normalized per region to mean 1 so that
        // region x season means stay pinned to Table 12.
        let mut leaf_factor = vec![1.0f64; airport_dim.member_count()];
        for leaves in &leaves_by_region {
            let mut sum = 0.0;
            for &l in leaves {
                let f = rng.gen_range(0.6..1.4);
                leaf_factor[l as usize] = f;
                sum += f;
            }
            let mean = sum / leaves.len() as f64;
            for &l in leaves {
                leaf_factor[l as usize] /= mean;
            }
        }

        // Airline factors, weighted mean 1 under the airline draw weights.
        let airline_members = bytes(airline_dim.leaves());
        let airline_weights: Vec<f64> =
            (0..airline_members.len()).map(|i| 1.0 + (i % 5) as f64 * 0.45).collect();
        let weight_sum: f64 = airline_weights.iter().sum();
        let mut airline_factor: Vec<f64> =
            (0..airline_members.len()).map(|_| rng.gen_range(0.5..1.5)).collect();
        let weighted_mean: f64 =
            airline_factor.iter().zip(&airline_weights).map(|(f, w)| f * w / weight_sum).sum();
        for f in &mut airline_factor {
            *f /= weighted_mean;
        }

        // Month leaves by season, month factor 1 (uniform within season).
        let season_members = date_dim.level_members(crate::dimension::LevelId(1));
        let months_by_season: Vec<Vec<u8>> =
            season_members.iter().map(|&s| bytes(&date_dim.leaves_under(s))).collect();

        // One row: its airport, month and airline ids, cancellation flag
        // and delay, drawing `DRAWS_PER_ROW` values.
        let row = |rng: &mut StdRng| {
            // Region by traffic weight.
            let region = weighted_pick(rng.gen(), &REGION_WEIGHTS);
            let leaves = &leaves_by_region[region];
            let airport = leaves[rng.gen_range(0..leaves.len())];

            let season = rng.gen_range(0..SEASONS.len());
            let months = &months_by_season[season];
            let month = months[rng.gen_range(0..months.len())];

            // Airline by weight.
            let airline_idx = weighted_pick(rng.gen_range(0.0..weight_sum), &airline_weights);

            let risk = TABLE12[region][season]
                * leaf_factor[airport as usize]
                * airline_factor[airline_idx];
            let p = risk.clamp(0.0, 1.0);
            let cancelled = if rng.gen::<f64>() < p { 1.0 } else { 0.0 };
            // Delay shares the risk landscape: the overall mean lands near
            // 12 minutes (risk mean ~0.0145 x 830), with noise and a floor
            // at zero.
            let delay = (risk * 830.0 * rng.gen_range(0.3..1.7)).max(0.0);
            (airport, month, airline_members[airline_idx], cancelled, delay)
        };

        let rows = self.rows;
        let (mut airport, mut month, mut airline) = (vec![0; rows], vec![0; rows], vec![0; rows]);
        let (mut cancelled, mut delay) = (vec![0.0; rows], vec![0.0; rows]);
        let range_rows = rows.div_ceil(CHUNK_ROWS).div_ceil(ranges.max(1)).max(1) * CHUNK_ROWS;
        thread::scope(|s| {
            let ranges = airport
                .chunks_mut(range_rows)
                .zip(month.chunks_mut(range_rows))
                .zip(airline.chunks_mut(range_rows))
                .zip(cancelled.chunks_mut(range_rows).zip(delay.chunks_mut(range_rows)));
            for (i, (((a, m), l), (c, d))) in ranges.enumerate() {
                let mut rng = rng.clone();
                for _ in 0..DRAWS_PER_ROW * range_rows * i {
                    rng.next_u64();
                }
                let row = &row;
                s.spawn(move || {
                    let cols = a.iter_mut().zip(m).zip(l).zip(c.iter_mut().zip(d));
                    for (((a, m), l), (c, d)) in cols {
                        (*a, *m, *l, *c, *d) = row(&mut rng);
                    }
                });
            }
        });
        let dims = vec![DimColumn::U8(airport), DimColumn::U8(month), DimColumn::U8(airline)];
        Table::from_columns(schema, dims, vec![cancelled, delay])
            .expect("generator produces valid leaf rows")
    }
}

/// Values each generated row draws from the seeded stream: region,
/// airport, season, month, airline, cancellation and delay, on every row.
/// [`FlightsConfig::generate_in`] places each range in the stream by it.
const DRAWS_PER_ROW: usize = 7;

/// The first index `i` with `x < weights[i]`, `x` having had the weights
/// before `i` subtracted in order, or the last index if none: the walk of
/// a loop that `break`s at the hit, run to its end without a branch (the
/// data-dependent exit mispredicts).
#[inline]
fn weighted_pick(mut x: f64, weights: &[f64]) -> usize {
    let (mut pick, mut open) = (weights.len() - 1, true);
    for (i, &w) in weights.iter().enumerate() {
        let hit = open & (x < w);
        pick = if hit { i } else { pick };
        open &= !hit;
        x -= w;
    }
    pick
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::LevelId;
    use crate::error::DataError;
    use crate::schema::{DimId, MeasureId};

    #[test]
    fn schema_shape_matches_paper() {
        let s = FlightsConfig::schema();
        assert_eq!(s.dimensions().len(), 3);
        let airport = s.dimension(DimId(0));
        // root + region + state + city + airport
        assert_eq!(airport.level_count(), 5);
        assert_eq!(airport.level_members(LevelId(1)).len(), 5);
        let date = s.dimension(DimId(1));
        assert_eq!(date.level_count(), 3);
        assert_eq!(date.level_members(LevelId(1)).len(), 4);
        assert_eq!(date.leaves().len(), 12);
        let airline = s.dimension(DimId(2));
        assert_eq!(airline.leaves().len(), 14);
    }

    #[test]
    fn generation_is_deterministic() {
        let bytes = |seed| fingerprint(&FlightsConfig { rows: 500, seed }.generate(), 500);
        assert_eq!(bytes(1), bytes(1));
        assert_ne!(bytes(1), bytes(2));
    }

    #[test]
    fn primary_measure_is_binary() {
        let t = FlightsConfig { rows: 1_000, seed: 5 }.generate();
        assert!((0..t.row_count()).map(|r| t.value_at(r)).all(|v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn delay_measure_has_plausible_scale() {
        use crate::schema::MeasureId;
        let t = FlightsConfig { rows: 30_000, seed: 5 }.generate();
        assert_eq!(t.schema().measure_count(), 2);
        let delays: Vec<f64> =
            (0..t.row_count()).map(|r| t.measure_value(MeasureId(1), r)).collect();
        assert!(delays.iter().all(|&d| d >= 0.0));
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        assert!((5.0..25.0).contains(&mean), "mean delay {mean} minutes");
        // Winter flights are delayed more than fall flights.
        let date = t.schema().dimension(DimId(1));
        let winter = date.member_by_phrase("Winter").unwrap();
        let fall = date.member_by_phrase("Fall").unwrap();
        let seasonal = |season| {
            let (mut sum, mut n) = (0.0, 0usize);
            for row in 0..t.row_count() {
                if date.is_ancestor_or_self(season, t.member_at(DimId(1), row)) {
                    sum += t.measure_value(MeasureId(1), row);
                    n += 1;
                }
            }
            sum / n as f64
        };
        assert!(seasonal(winter) > seasonal(fall), "winter delays exceed fall delays");
    }

    #[test]
    fn group_means_track_table12() {
        // With enough rows, AVG(cancelled) per (region, season) must be
        // close to the paper's Table 12 base rates.
        let t = FlightsConfig { rows: 120_000, seed: 42 }.generate();
        let airport = t.schema().dimension(DimId(0));
        let date = t.schema().dimension(DimId(1));
        let regions = airport.level_members(LevelId(1));
        let seasons = date.level_members(LevelId(1));
        let mut sums = vec![vec![0.0f64; 4]; 5];
        let mut counts = vec![vec![0usize; 4]; 5];
        for row in 0..t.row_count() {
            let leaf_airport = t.member_at(DimId(0), row);
            let leaf_month = t.member_at(DimId(1), row);
            let r = regions
                .iter()
                .position(|&reg| airport.is_ancestor_or_self(reg, leaf_airport))
                .unwrap();
            let s =
                seasons.iter().position(|&sea| date.is_ancestor_or_self(sea, leaf_month)).unwrap();
            sums[r][s] += t.value_at(row);
            counts[r][s] += 1;
        }
        // Check the biggest cells (small ones are noisy at this scale).
        for (r, s) in [(0usize, 0usize), (1, 0), (2, 0), (0, 1), (1, 2)] {
            let mean = sums[r][s] / counts[r][s] as f64;
            let expect = TABLE12[r][s];
            assert!(
                (mean - expect).abs() < expect * 0.35 + 0.002,
                "region {r} season {s}: mean {mean:.4} vs table {expect:.4}"
            );
        }
    }

    /// FNV-1a over the member ids and measure value bits of the first
    /// `rows` rows.
    fn fingerprint(t: &Table, rows: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for row in 0..rows {
            for m in t.row_members(row) {
                eat(&m.0.to_le_bytes());
            }
            for m in 0..t.schema().measure_count() {
                eat(&t.measure_value(MeasureId(m as u8), row).to_bits().to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn every_range_count_generates_the_same_bytes() {
        // Five chunks, the last one partial: a range's stream position is
        // only right if every row draws exactly `DRAWS_PER_ROW` values.
        let config = FlightsConfig { rows: 300_000, seed: 7 };
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let serial = fingerprint(&config.generate_in(1), config.rows);
        for ranges in [2, 3, 5, cores] {
            let t = config.generate_in(ranges);
            assert_eq!(fingerprint(&t, config.rows), serial, "{ranges} ranges");
        }
    }

    #[test]
    fn edge_sizes_are_prefixes_of_one_stream() {
        let longest = FlightsConfig { rows: CHUNK_ROWS + 1, seed: 3 }.generate_in(2);
        for n in [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1] {
            let t = FlightsConfig { rows: n, seed: 3 }.generate_in(2);
            assert_eq!((t.row_count(), fingerprint(&t, n)), (n, fingerprint(&longest, n)));
        }
    }

    #[test]
    fn seed_42_table_is_pinned() {
        // Any change to the generated stream has to edit this golden.
        let t = FlightsConfig { rows: 200_000, seed: 42 }.generate();
        assert_eq!(fingerprint(&t, t.row_count()), 0xddae_cbff_145b_10dd);
    }

    #[test]
    fn bulk_constructor_refuses_what_push_row_values_refuses() {
        let build = |airport: u8, delays: Vec<f64>| {
            let dims = [airport, 2, 1].map(|id| DimColumn::U8(vec![id])).to_vec();
            Table::from_columns(FlightsConfig::schema(), dims, vec![vec![0.0], delays])
                .map(|t| t.row_count())
        };
        let leaf = FlightsConfig::schema().dimension(DimId(0)).leaves()[0].0 as u8;
        assert_eq!(build(leaf, vec![1.0]), Ok(1));
        let unequal = DataError::LengthMismatch { expected: 1, actual: 2 };
        assert_eq!(build(leaf, vec![1.0, 2.0]), Err(unequal));
        assert_eq!(build(255, vec![1.0]), Err(DataError::InvalidId { kind: "member", id: 255 }));
        let not_a_leaf = DataError::LevelMismatch { expected: 4, actual: 1 };
        assert_eq!(build(1, vec![1.0]), Err(not_a_leaf));
    }

    #[test]
    fn winter_northeast_is_worst() {
        let t = FlightsConfig { rows: 60_000, seed: 42 }.generate();
        // Overall cancellation rate should be low single digits.
        let overall = (0..t.row_count()).map(|r| t.value_at(r)).sum::<f64>() / t.row_count() as f64;
        assert!(overall > 0.005 && overall < 0.05, "overall {overall}");
    }
}
