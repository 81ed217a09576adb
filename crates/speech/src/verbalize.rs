//! Number verbalization.
//!
//! Following the paper's setup (§B.2, citing prior user studies), numerical
//! values are spoken at **one significant digit**. Fractions are spoken as
//! percentages with small numbers written out ("around two percent",
//! "around one point five percent"); dollar amounts in thousands ("90 K").

use voxolap_data::schema::MeasureUnit;

/// Round `v` to `digits` significant digits (`digits ≥ 1`), ties to even:
/// the value `format!("{v:.prec$e}")` writes, read back.
///
/// `0`, `NaN`, and infinities are returned unchanged. Rounding is exact:
/// the decimal digits come from integer arithmetic on `v`'s binary value
/// (see `round_in_integers`), not from multiplying or dividing by
/// powers of ten — that route returns values like `199999.99999999997`
/// for `round_significant(200000.0, 1)` because `1e-5` is not exactly
/// representable. Outside the integer route's window the formatter itself
/// rounds.
pub fn round_significant(v: f64, digits: u32) -> f64 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let digits = digits.max(1);
    round_in_integers(v, digits).unwrap_or_else(|| {
        let prec = (digits - 1) as usize;
        format!("{v:.prec$e}").parse().expect("scientific notation round-trips")
    })
}

/// `10^0 ..= 10^22`, every one exact in an `f64` (`5^22 < 2^53`).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// [`round_significant`] of a finite, non-zero, normal `v` when the
/// rounded value is `n · 10^p` with `|p| ≤ 22` and `digits ≤ 15`; `None`
/// otherwise.
///
/// `|v| = m · 2^e` exactly, so `|v| / 10^p = m · 2^(e − p) / 5^p` is a
/// ratio of integers that fits a `u128`: its quotient is the `digits`
/// leading digits and its remainder decides the rounding, ties to even.
/// `n < 2^53` and `10^|p|` are exact `f64`s, so one IEEE multiply or
/// divide rounds `n · 10^p` correctly — the nearest `f64`, which is what
/// parsing the formatter's digits returns.
fn round_in_integers(v: f64, digits: u32) -> Option<f64> {
    let bits = v.to_bits();
    let biased = (bits >> 52 & 0x7ff) as i32;
    if biased == 0 || digits > 15 {
        return None;
    }
    let m = u128::from(bits & ((1 << 52) - 1) | 1 << 52);
    let e = biased - 1075;
    let limit = 10u128.pow(digits);
    // `2^(e + 52) ≤ |v| < 2^(e + 53)`, so `⌊log10 |v|⌋` is `⌊log10 2^(e + 52)⌋`
    // (`78 913 / 2^18 ≈ log10 2` gives it exactly at every `f64` exponent)
    // or one more, which a quotient with one digit too many shows.
    let mut k = ((e + 52) * 78_913) >> 18;
    loop {
        let p = k + 1 - digits as i32;
        if p.unsigned_abs() > 22 {
            return None;
        }
        let five = 5u128.pow(p.unsigned_abs());
        let (num, den) = if p >= 0 { (m, five) } else { (m * five, 1) };
        // Keep a spare bit in each, so `2 · rem` below cannot overflow.
        let shift = |x: u128, by: u32| (by + 1 < x.leading_zeros()).then(|| x << by);
        let (num, den) = match e - p {
            s if s >= 0 => (shift(num, s.unsigned_abs())?, den),
            s => (num, shift(den, s.unsigned_abs())?),
        };
        let n = num / den;
        if n >= limit {
            k += 1;
            continue;
        }
        let rem = num - n * den;
        let up = 2 * rem > den || (2 * rem == den && n % 2 == 1);
        let n = (n + u128::from(up)) as f64;
        let pow = POW10[p.unsigned_abs() as usize];
        let r = if p >= 0 { n * pow } else { n / pow };
        return Some(r.copysign(v));
    }
}

/// English words for small cardinals; larger values fall back to digits.
pub fn number_word(n: u32) -> String {
    const SMALL: [&str; 21] = [
        "zero",
        "one",
        "two",
        "three",
        "four",
        "five",
        "six",
        "seven",
        "eight",
        "nine",
        "ten",
        "eleven",
        "twelve",
        "thirteen",
        "fourteen",
        "fifteen",
        "sixteen",
        "seventeen",
        "eighteen",
        "nineteen",
        "twenty",
    ];
    const TENS: [(u32, &str); 8] = [
        (30, "thirty"),
        (40, "forty"),
        (50, "fifty"),
        (60, "sixty"),
        (70, "seventy"),
        (80, "eighty"),
        (90, "ninety"),
        (100, "one hundred"),
    ];
    if (n as usize) < SMALL.len() {
        return SMALL[n as usize].to_string();
    }
    for (v, w) in TENS {
        if n == v {
            return w.to_string();
        }
    }
    n.to_string()
}

/// Speak a (already rounded) percentage number: `2.0` → `"two"`,
/// `1.5` → `"one point five"`, `0.25` → `"a quarter"`, `0.5` → `"half a"`,
/// `35.0` → `"35"`.
pub fn percent_number(p: f64) -> String {
    if (p - 0.25).abs() < 1e-9 {
        return "a quarter".to_string();
    }
    if (p - 0.5).abs() < 1e-9 {
        return "half a".to_string();
    }
    let rounded = (p * 10.0).round() / 10.0;
    let int = rounded.trunc() as u32;
    let tenth = ((rounded - rounded.trunc()) * 10.0).round() as u32;
    if tenth == 0 {
        if int <= 20 {
            number_word(int)
        } else {
            int.to_string()
        }
    } else if int <= 20 {
        format!("{} point {}", number_word(int), number_word(tenth))
    } else {
        format!("{rounded}")
    }
}

/// Verbalize an aggregate value `v` for the baseline statement.
///
/// * `Fraction` — `0.02` → `"around two percent"`;
/// * `DollarsK` — `90.0` → `"90 K"`;
/// * `Plain` — one-significant-digit number.
pub fn verbalize_value(v: f64, unit: MeasureUnit) -> String {
    match unit {
        MeasureUnit::Fraction => {
            let p = round_significant(v * 100.0, 2);
            format!("around {} percent", percent_number(p))
        }
        MeasureUnit::DollarsK => {
            let k = round_significant(v, 2);
            if k == k.trunc() {
                format!("{} K", k as i64)
            } else {
                format!("{k} K")
            }
        }
        MeasureUnit::Plain => {
            let r = round_significant(v, 1);
            if r == r.trunc() && r.abs() < 1e15 {
                format!("{}", r as i64)
            } else {
                format!("{r}")
            }
        }
    }
}

/// Verbalize a value range for range baselines (paper Table 13:
/// "Five to ten percent is the average cancellation probability").
pub fn verbalize_range(lo: f64, hi: f64, unit: MeasureUnit) -> String {
    match unit {
        MeasureUnit::Fraction => {
            let l = percent_number(round_significant(lo * 100.0, 2));
            let h = percent_number(round_significant(hi * 100.0, 2));
            format!("{l} to {h} percent")
        }
        MeasureUnit::DollarsK => {
            let fmt = |v: f64| {
                let k = round_significant(v, 2);
                if k == k.trunc() {
                    format!("{}", k as i64)
                } else {
                    format!("{k}")
                }
            };
            format!("{} to {} K", fmt(lo), fmt(hi))
        }
        MeasureUnit::Plain => {
            // Two significant digits: range bounds come from the
            // one-significant-digit grid, so rounding them back to one
            // digit would collapse 150000..200000 into a single value.
            let fmt = |v: f64| {
                let r = round_significant(v, 2);
                if r == r.trunc() && r.abs() < 1e15 {
                    format!("{}", r as i64)
                } else {
                    format!("{r}")
                }
            };
            format!("{} to {}", fmt(lo), fmt(hi))
        }
    }
}

/// One-significant-digit candidate values around an estimate `v`:
/// the baseline value grid the planner searches over (paper Figure 2 shows
/// sibling baselines "70 K", "80 K", "90 K").
///
/// Returns values of the form `m · 10^e` (`m ∈ 1..=9`) within
/// `[0.4·v, 2.6·v]`, plus the halfway mantissas (1.5, 2.5, …) at the
/// dominant magnitude, sorted ascending. Empty for non-positive or
/// non-finite `v`.
pub fn baseline_grid(v: f64) -> Vec<f64> {
    if !(v.is_finite() && v > 0.0) {
        return Vec::new();
    }
    let lo = 0.4 * v;
    let hi = 2.6 * v;
    let e_lo = lo.log10().floor() as i32;
    let e_hi = hi.log10().floor() as i32;
    let mut out = Vec::new();
    for e in e_lo..=e_hi {
        let base = 10f64.powi(e);
        for m in 1..=9 {
            let cand = m as f64 * base;
            if cand >= lo && cand <= hi {
                out.push(cand);
            }
        }
        // Halfway mantissas give finer resolution near the estimate
        // ("one point five percent" in the paper's holistic speech).
        for m in [1.5, 2.5] {
            let cand = m * base;
            if cand >= lo && cand <= hi {
                out.push(cand);
            }
        }
    }
    out.sort_by(f64::total_cmp);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_significant_is_exact_at_magnitude_boundaries() {
        // The arithmetic implementation returned 199999.99999999997 here.
        assert_eq!(round_significant(200000.0, 1), 200000.0);
        assert_eq!(round_significant(150000.0, 2), 150000.0);
        assert_eq!(round_significant(199999.99999999997, 1), 200000.0);
        assert_eq!(round_significant(1e-5, 1), 1e-5);
    }

    /// What `round_significant` must return: the formatter's digits,
    /// read back.
    fn formatted(v: f64, digits: u32) -> f64 {
        let prec = (digits - 1) as usize;
        format!("{v:.prec$e}").parse().unwrap()
    }

    fn assert_formatted(v: f64) {
        for digits in [1, 2] {
            let (got, want) = (round_significant(v, digits), formatted(v, digits));
            assert_eq!(got.to_bits(), want.to_bits(), "{v:e} at {digits}: {got:e} vs {want:e}");
        }
    }

    #[test]
    fn round_significant_matches_the_formatter_on_random_magnitudes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_0017);
        for _ in 0..100_000 {
            let v = 10f64.powf(rng.gen_range(-30.0..30.0)) * rng.gen_range(1.0..10.0);
            assert_formatted(if rng.gen_bool(0.5) { v } else { -v });
        }
    }

    /// Every exactly representable tie `(q + ½) · 10^p` at one and two
    /// digits for `p` in −12..=12, and its one-ulp neighbours: the
    /// rounding mode (ties to even) and the boundary of the remainder
    /// test. A tie with `p < 0` is dyadic only when `5^−p` divides
    /// `2q + 1`.
    #[test]
    fn round_significant_matches_the_formatter_at_every_exact_tie() {
        let mut ties = 0;
        for digits in [1u32, 2] {
            for p in -12i32..=12 {
                for q in 10u64.pow(digits - 1)..10u64.pow(digits) {
                    let odd = 2 * q + 1;
                    let tie = if p >= 0 {
                        (odd * 10u64.pow(p as u32)) as f64 / 2.0
                    } else {
                        let five = 5u64.pow(p.unsigned_abs());
                        if odd % five != 0 {
                            continue;
                        }
                        (odd / five) as f64 / 2f64.powi(1 - p)
                    };
                    ties += 1;
                    for t in
                        [tie, f64::from_bits(tie.to_bits() - 1), f64::from_bits(tie.to_bits() + 1)]
                    {
                        assert_formatted(t);
                        assert_formatted(-t);
                    }
                }
            }
        }
        assert_eq!(ties, 1_312);
    }

    #[test]
    fn round_significant_basics() {
        assert_eq!(round_significant(0.0555, 1), 0.06);
        assert_eq!(round_significant(0.0555, 2), 0.056);
        assert_eq!(round_significant(87.3, 1), 90.0);
        assert_eq!(round_significant(87.3, 2), 87.0);
        assert_eq!(round_significant(-87.3, 1), -90.0);
        assert_eq!(round_significant(0.0, 1), 0.0);
        assert!(round_significant(f64::NAN, 1).is_nan());
    }

    #[test]
    fn number_words() {
        assert_eq!(number_word(0), "zero");
        assert_eq!(number_word(7), "seven");
        assert_eq!(number_word(20), "twenty");
        assert_eq!(number_word(50), "fifty");
        assert_eq!(number_word(37), "37");
    }

    #[test]
    fn percent_numbers_match_paper_style() {
        assert_eq!(percent_number(2.0), "two");
        assert_eq!(percent_number(1.5), "one point five");
        assert_eq!(percent_number(0.25), "a quarter");
        assert_eq!(percent_number(0.5), "half a");
        assert_eq!(percent_number(10.0), "ten");
        assert_eq!(percent_number(35.0), "35");
    }

    #[test]
    fn verbalize_fraction_values() {
        use MeasureUnit::Fraction;
        assert_eq!(verbalize_value(0.02, Fraction), "around two percent");
        assert_eq!(verbalize_value(0.015, Fraction), "around one point five percent");
        assert_eq!(verbalize_value(0.0025, Fraction), "around a quarter percent");
    }

    #[test]
    fn verbalize_dollar_values() {
        use MeasureUnit::DollarsK;
        assert_eq!(verbalize_value(90.0, DollarsK), "90 K");
        assert_eq!(verbalize_value(88.7, DollarsK), "89 K");
    }

    #[test]
    fn verbalize_plain_values() {
        use MeasureUnit::Plain;
        assert_eq!(verbalize_value(4321.0, Plain), "4000");
        assert_eq!(verbalize_value(7.0, Plain), "7");
    }

    #[test]
    fn verbalize_ranges_match_paper_style() {
        use MeasureUnit::*;
        // Paper Table 13: "Five to ten percent is the Average
        // cancellation probability."
        assert_eq!(verbalize_range(0.05, 0.10, Fraction), "five to ten percent");
        assert_eq!(verbalize_range(80.0, 90.0, DollarsK), "80 to 90 K");
        assert_eq!(verbalize_range(5.0, 10.0, Plain), "5 to 10");
        assert_eq!(verbalize_range(150_000.0, 200_000.0, Plain), "150000 to 200000");
    }

    #[test]
    fn baseline_grid_spans_estimate() {
        let grid = baseline_grid(0.02);
        assert!(grid.contains(&0.02));
        assert!(grid.contains(&0.01));
        assert!(grid.contains(&0.05));
        assert!(grid.iter().all(|&g| (0.008..=0.052).contains(&g)));
        // Sorted, deduped.
        for w in grid.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn baseline_grid_dollar_scale() {
        let grid = baseline_grid(88.0);
        assert!(grid.contains(&90.0));
        assert!(grid.contains(&80.0));
        assert!(grid.contains(&70.0));
        assert!(grid.contains(&150.0));
    }

    #[test]
    fn baseline_grid_handles_degenerate_inputs() {
        assert!(baseline_grid(0.0).is_empty());
        assert!(baseline_grid(-3.0).is_empty());
        assert!(baseline_grid(f64::NAN).is_empty());
    }
}
