//! Interactive voice-OLAP session over the flights dataset.
//!
//! Type keyword commands like the paper's crowd workers did ("break down
//! by region", "drill down into the start airport", "winter", "help", ...)
//! and hear — well, read, with realistic speaking pauses — the vocalized
//! answers. When stdin is closed (e.g. piped), a scripted demo session
//! runs instead.
//!
//! Run: `cargo run --release -p voxolap-examples --example interactive_session`

use std::io::BufRead;

use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_data::flights::FlightsConfig;
use voxolap_voice::session::{Response, Session};
use voxolap_voice::tts::RealTimeVoice;

fn main() {
    println!("generating flights dataset...");
    let table = FlightsConfig { rows: 200_000, seed: 42 }.generate();
    let mut session = Session::new(&table);
    let holistic = Holistic::new(HolisticConfig::default());
    // A brisk voice so the demo doesn't crawl; 15 chars/s is realistic.
    let mut voice = RealTimeVoice::new(120.0);

    println!("say \"help\" for keywords, \"quit\" to leave.\n");

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let demo: Vec<&str> = vec![
        "help",
        "break down by region",
        "break down by season",
        "winter",
        "drill down into the start airport",
        "quit",
    ];
    let mut demo_iter = demo.into_iter();
    let mut interactive = true;

    loop {
        let input = if interactive {
            match lines.next() {
                Some(Ok(line)) => line,
                _ => {
                    interactive = false;
                    println!("(stdin closed; running scripted demo)");
                    continue;
                }
            }
        } else {
            match demo_iter.next() {
                Some(cmd) => {
                    println!("> {cmd}");
                    cmd.to_string()
                }
                None => break,
            }
        };

        match session.input(&input) {
            Ok(Response::Quit) => {
                println!("goodbye.");
                break;
            }
            Ok(Response::Help(text)) => {
                println!("[voice] {text}");
            }
            Ok(Response::Updated) => match session.vocalize_with(&holistic, &mut voice) {
                Ok(outcome) => {
                    println!("[voice] {}", outcome.full_text());
                    println!(
                        "        (latency {:?}, {} rows sampled, {} planner iterations)",
                        outcome.latency, outcome.stats.rows_read, outcome.stats.samples
                    );
                    voice.wait_until_done();
                }
                Err(e) => println!("[error] {e}"),
            },
            Err(e) => println!("[error] {e}"),
        }
    }
}
