//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! 1. **Pipelining** — holistic speech quality as a function of the
//!    per-character sampling budget the voice grants (0 = no overlap at
//!    all, the degenerate case; larger = slower speech or faster sampler).
//!    Shows why interleaving processing with read-out is the headline
//!    idea: quality climbs with speaking time at *zero* latency cost.
//! 2. **UCT prioritization** — UCT descent vs. uniform-random descent at
//!    equal iteration budgets. Shows what the exploration/exploitation
//!    balance buys over plain Monte-Carlo sampling.
//! 3. **Resample size** — the fixed cache-resample size (paper: 10) swept
//!    over {10, 50, 100, 400, 1000} on the 0/1 cancellation measure.
//!    Quantifies the substitution note in DESIGN.md.
//! 4. **σ calibration** — the belief σ as a fraction of the overall mean
//!    (paper: 0.5), swept to show the quality metric's sensitivity.

use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::sampler::SelectionPolicy;
use voxolap_core::voice::VirtualVoice;
use voxolap_data::Table;

use crate::{experiment_config, markdown_table, outcome_quality, region_season_query};

/// Average holistic quality over `seeds` runs with a given config and
/// voice budget.
fn mean_quality(
    table: &Table,
    cfg_of: impl Fn(u64) -> HolisticConfig,
    iterations_per_char: f64,
    seeds: &[u64],
) -> f64 {
    let query = region_season_query(table);
    let total: f64 = seeds
        .iter()
        .map(|&s| {
            let mut voice = VirtualVoice::new(iterations_per_char);
            let outcome = Holistic::new(cfg_of(s)).vocalize(table, &query, &mut voice);
            outcome_quality(&outcome, table, &query)
        })
        .sum();
    total / seeds.len() as f64
}

/// Run all four ablations and render markdown.
pub fn run(table: &Table, seed: u64) -> String {
    let seeds: Vec<u64> = (0..5).map(|i| seed + i * 101).collect();
    let mut out = String::from("### Ablations (flights, region x season, mean over 5 seeds)\n\n");

    // 1. Pipelining budget.
    let mut rows = Vec::new();
    for ipc in [0.0, 50.0, 200.0, 600.0, 2000.0] {
        let q = mean_quality(table, experiment_config, ipc, &seeds);
        rows.push(vec![format!("{ipc:.0}"), format!("{q:.3}")]);
    }
    out.push_str("#### Pipelining: sampling iterations per spoken character\n\n");
    out.push_str(&markdown_table(&["iterations/char", "quality"], &rows));

    // 2. UCT vs uniform random at a fixed modest budget.
    let mut rows = Vec::new();
    for (name, policy) in
        [("UCT", SelectionPolicy::Uct), ("uniform random", SelectionPolicy::UniformRandom)]
    {
        let q = mean_quality(
            table,
            |s| HolisticConfig { policy, ..experiment_config(s) },
            200.0,
            &seeds,
        );
        rows.push(vec![name.to_string(), format!("{q:.3}")]);
    }
    out.push_str("\n#### Tree-descent policy (200 iterations/char)\n\n");
    out.push_str(&markdown_table(&["policy", "quality"], &rows));

    // 3. Resample size.
    let mut rows = Vec::new();
    for rs in [10usize, 50, 100, 400, 1000] {
        let q = mean_quality(
            table,
            |s| HolisticConfig { resample_size: rs, ..experiment_config(s) },
            600.0,
            &seeds,
        );
        rows.push(vec![rs.to_string(), format!("{q:.3}")]);
    }
    out.push_str("\n#### Fixed cache-resample size (paper default: 10)\n\n");
    out.push_str(&markdown_table(&["resample size", "quality"], &rows));

    // 4. Sigma calibration (fraction of overall mean; paper: 0.5). The
    // sweep fixes sigma via the override computed from the exact mean.
    let exact = voxolap_engine::exact::evaluate(&region_season_query(table), table);
    let grand = exact.grand_mean();
    let mut rows = Vec::new();
    for frac in [0.25, 0.5, 1.0, 2.0] {
        let q = mean_quality(
            table,
            |s| HolisticConfig { sigma_override: Some(grand.abs() * frac), ..experiment_config(s) },
            600.0,
            &seeds,
        );
        rows.push(vec![format!("{frac}"), format!("{q:.3}")]);
    }
    out.push_str("\n#### Belief sigma as a fraction of the overall mean (paper: 0.5)\n\n");
    out.push_str(&markdown_table(&["sigma fraction", "quality"], &rows));
    out.push_str(
        "\nNote: quality is itself measured under the paper's sigma = mean/2 model, so the \
         sigma sweep shows planner robustness to mis-calibrated sampling beliefs, not \
         listener-model changes.\n",
    );
    out
}
