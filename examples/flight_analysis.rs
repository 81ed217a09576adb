//! Flight-cancellation analysis: the paper's motivating workload.
//!
//! Walks through the introduction's example interaction ("How does the
//! flight cancellation probability depend on flight date and start
//! airport?"), compares all four vocalization approaches on the same
//! query, and demonstrates the §4.4 uncertainty extensions.
//!
//! Run: `cargo run --release -p voxolap-examples --example flight_analysis`

use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::optimal::Optimal;
use voxolap_core::prior::PriorGreedy;
use voxolap_core::uncertainty::UncertaintyMode;
use voxolap_core::unmerged::Unmerged;
use voxolap_core::voice::{InstantVoice, VirtualVoice};
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::DimId;
use voxolap_engine::query::{AggFct, Query};

fn main() {
    println!("generating flights dataset...");
    let table = FlightsConfig { rows: 200_000, seed: 42 }.generate();
    let schema = table.schema();

    // "How does the cancellation probability in New York depend on flight
    // date and start airport?" -> filter to New York, break down by season
    // and city.
    let ny =
        schema.dimension(DimId(0)).member_by_phrase("New York").expect("New York state exists");
    let query = Query::builder(AggFct::Avg)
        .filter(DimId(0), ny)
        .group_by(DimId(1), LevelId(1)) // season
        .group_by(DimId(0), LevelId(3)) // city
        .build(schema)
        .expect("valid query");

    println!("\n== the paper's introductory query, all approaches ==");
    let approaches: Vec<Box<dyn Vocalizer>> = vec![
        Box::new(Holistic::default()),
        Box::new(Optimal::default()),
        Box::new(Unmerged::default()),
        Box::new(PriorGreedy),
    ];
    for approach in &approaches {
        let mut voice = VirtualVoice::default();
        let outcome = approach.vocalize(&table, &query, &mut voice);
        println!(
            "\n[{}] latency {:?}, {} chars:",
            approach.name(),
            outcome.latency,
            outcome.body_len()
        );
        let text = outcome.full_text();
        if text.len() > 400 {
            println!("  {}...", &text[..400]);
        } else {
            println!("  {text}");
        }
    }

    println!("\n== uncertainty extensions (paper 4.4) ==");
    for (label, mode) in [
        ("warning", UncertaintyMode::Warning { max_relative_width: 0.5 }),
        ("spoken bounds", UncertaintyMode::SpokenBounds),
    ] {
        let holistic =
            Holistic::new(HolisticConfig { uncertainty: mode, ..HolisticConfig::default() });
        let mut voice = InstantVoice::default();
        let outcome = holistic.vocalize(&table, &query, &mut voice);
        println!("\n[{label}]");
        println!("  {}", outcome.body_text());
    }
}
