//! The simulated user studies: the pilot on implicit assumptions (Tables 2
//! and 10), listener estimation error and tendencies (Tables 6 and 14),
//! facts from exploratory sessions (Table 7), and preferences and speech
//! lengths (Tables 8 and 9).

use voxolap_core::holistic::Holistic;
use voxolap_core::voice::VirtualVoice;
use voxolap_data::Table;
use voxolap_simuser::estimation::{EstimationResult, EstimationStudy};
use voxolap_simuser::explore::{extract_facts, Fact};
use voxolap_simuser::pilot::{PilotResult, PilotStudy};
use voxolap_simuser::preference::{PreferenceResult, PreferenceStudy};
use voxolap_voice::session::Session;

use super::Comparison;
use crate::{experiment_config, region_season_query};

/// Tables 2 and 10: 20 simulated workers answer the pilot battery.
pub fn pilot(seed: u64) -> PilotResult {
    PilotStudy { n_workers: 20, seed }.run()
}

/// Tables 6 and 14: eight simulated listeners (users 1 and 8 misread
/// "increase by" as "increase to", the paper's outliers) estimate every
/// field of the region × season query from each approach's speech in
/// Table 5's comparison.
pub fn estimation(table: &Table, table_5: &Comparison, seed: u64) -> EstimationResult {
    let speeches: Vec<_> = table_5
        .runs()
        .into_iter()
        .filter_map(|(name, run)| Some((name.to_string(), run.outcome.speech.clone()?)))
        .collect();
    EstimationStudy { n_users: 8, noise_rel: 0.05, seed }.run(
        table,
        &region_season_query(table),
        &speeches,
    )
}

/// The scripted exploratory sessions of Table 7; each ends in a
/// vocalization of its final query.
const SCRIPTS: [&[&str]; 4] = [
    &["break down by season"],
    &["break down by airline", "break down by region"],
    &["drill down into the start airport", "drill down into the start airport"],
    &["break down by region", "break down by season", "winter"],
];

/// Table 7: the facts a careful listener could state after each scripted
/// holistic session, annotated with the dimensions they refer to.
pub fn facts(table: &Table, seed: u64) -> Vec<Fact> {
    let holistic = Holistic::new(experiment_config(seed));
    let mut facts = Vec::new();
    for script in SCRIPTS {
        let mut session = Session::new(table);
        for cmd in script {
            session.input(cmd).expect("scripted command parses");
        }
        let query = session.query().expect("scripted query builds");
        let outcome =
            session.vocalize_with(&holistic, &mut VirtualVoice::default()).expect("vocalizes");
        facts.extend(extract_facts(&outcome, &query, table.schema()));
    }
    facts
}

/// Tables 8 and 9: preferences between this approach and the prior
/// baseline, and both approaches' speech lengths, over salary and flights
/// sessions (flights generated at `flights_rows`).
pub fn preferences(flights_rows: usize, seed: u64) -> PreferenceResult {
    PreferenceStudy { flights_rows, seed, ..PreferenceStudy::default() }.run()
}
