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
use voxolap_engine::exact::evaluate;

use crate::{experiment_config, outcome_quality, region_season_query};

/// Mean holistic quality on the region × season query per setting of each
/// ablation, as (setting, quality).
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Sampling iterations per spoken character.
    pub pipelining: Vec<(f64, f64)>,
    /// Tree-descent policy, at 200 iterations per character.
    pub policy: Vec<(&'static str, f64)>,
    /// Fixed cache-resample size.
    pub resample_size: Vec<(usize, f64)>,
    /// Belief σ as a fraction of the overall mean.
    pub sigma: Vec<(f64, f64)>,
}

/// Run all four ablations, each setting averaged over five seeds from
/// `seed`.
pub fn run(table: &Table, seed: u64) -> Ablations {
    let query = region_season_query(table);
    let seeds: Vec<u64> = (0..5).map(|i| seed + i * 101).collect();
    let mean_quality = |cfg_of: &dyn Fn(u64) -> HolisticConfig, iterations_per_char: f64| {
        let total: f64 = seeds
            .iter()
            .map(|&s| {
                let mut voice = VirtualVoice::new(iterations_per_char);
                let outcome = Holistic::new(cfg_of(s)).vocalize(table, &query, &mut voice);
                outcome_quality(&outcome, table, &query)
            })
            .sum();
        total / seeds.len() as f64
    };
    // The σ sweep fixes σ through the override, from the exact mean.
    let grand = evaluate(&query, table).grand_mean().abs();
    Ablations {
        pipelining: [0.0, 50.0, 200.0, 600.0, 2000.0]
            .map(|ipc| (ipc, mean_quality(&experiment_config, ipc)))
            .to_vec(),
        policy: [("UCT", SelectionPolicy::Uct), ("uniform random", SelectionPolicy::UniformRandom)]
            .map(|(name, policy)| {
                (name, mean_quality(&|s| HolisticConfig { policy, ..experiment_config(s) }, 200.0))
            })
            .to_vec(),
        resample_size: [10, 50, 100, 400, 1000]
            .map(|rs| {
                let cfg = |s| HolisticConfig { resample_size: rs, ..experiment_config(s) };
                (rs, mean_quality(&cfg, 600.0))
            })
            .to_vec(),
        sigma: [0.25, 0.5, 1.0, 2.0]
            .map(|frac| {
                let cfg = |s| HolisticConfig {
                    sigma_override: Some(grand * frac),
                    ..experiment_config(s)
                };
                (frac, mean_quality(&cfg, 600.0))
            })
            .to_vec(),
    }
}
