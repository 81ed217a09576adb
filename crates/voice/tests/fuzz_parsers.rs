//! Robustness: the keyword and question parsers, and the session state
//! behind them, must never panic on arbitrary input — they sit directly
//! behind user-facing surfaces (repl, HTTP API). Seeded random fuzzing,
//! 256 cases per property (mirroring the old proptest configuration).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use voxolap_data::flights::FlightsConfig;
use voxolap_voice::parser::parse;
use voxolap_voice::question::parse_question;
use voxolap_voice::session::Session;

const CASES: usize = 256;

/// Arbitrary unicode-ish text: mixes ASCII, punctuation, digits, and a
/// few multi-byte codepoints, which is what reaches the parsers in
/// practice (and what tends to break naive byte indexing).
fn arb_text(gen: &mut StdRng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'e', 'i', 'o', 'r', 's', 't', 'n', 'w', 'y', 'z', 'A', 'Z', '0', '1', '9', ' ',
        ' ', ' ', '\t', '\n', '.', ',', '?', '!', '"', '\'', '-', '_', '/', '\\', '%', 'é', 'ß',
        '漢', '😀', '\u{0}', '\u{7f}',
    ];
    let len = gen.gen_range(0..=max_len);
    (0..len).map(|_| *POOL.choose(gen).unwrap()).collect()
}

#[test]
fn keyword_parser_never_panics() {
    let schema = FlightsConfig::schema();
    let mut gen = StdRng::seed_from_u64(0xf022_0001);
    for _ in 0..CASES {
        let input = arb_text(&mut gen, 120);
        let _ = parse(&schema, &input);
    }
}

#[test]
fn question_parser_never_panics() {
    let schema = FlightsConfig::schema();
    let mut gen = StdRng::seed_from_u64(0xf022_0002);
    for _ in 0..CASES {
        let input = arb_text(&mut gen, 160);
        let _ = parse_question(&schema, &input);
    }
}

/// Words of the keyword vocabulary.
const WORDS: &[&str] = &[
    "break", "down", "by", "region", "drill", "roll", "up", "remove", "winter", "airline", "help",
    "total", "new", "york", "city", "month",
];

/// More of it, for sessions: the other functions, filters and levels.
const SESSION_WORDS: &[&str] = &[
    "average",
    "count",
    "clear",
    "filters",
    "season",
    "state",
    "in",
    "the",
    "north",
    "east",
    "california",
    "date",
    "quit",
    "for",
    "delta",
    "air",
    "lines",
    "inc.",
];

/// Up to seven words of `vocabulary` in any order.
fn keyword_soup(gen: &mut StdRng, vocabulary: &[&str]) -> String {
    let n = gen.gen_range(0..8);
    let words: Vec<&str> = (0..n).map(|_| *vocabulary.choose(gen).unwrap()).collect();
    words.join(" ")
}

#[test]
fn keyword_parser_handles_keyword_soup() {
    let schema = FlightsConfig::schema();
    let mut gen = StdRng::seed_from_u64(0xf022_0003);
    for _ in 0..CASES {
        let input = keyword_soup(&mut gen, WORDS);
        // Any combination parses or errors; never panics, and a parsed
        // command is well-formed by type.
        let _ = parse(&schema, &input);
    }
}

/// One session through 1–12 utterances of keyword soup, arbitrary text or
/// both: neither `input` nor `query` panics, and replaying the log of
/// applied commands into a fresh session reaches the same state — the
/// server rebuilds a session from its log on every utterance.
#[test]
fn a_session_replays_its_log_to_the_same_state() {
    let table = FlightsConfig { rows: 64, seed: 1 }.generate();
    let vocabulary = [WORDS, SESSION_WORDS].concat();
    let mut gen = StdRng::seed_from_u64(0xf022_0004);
    let mut applied = 0;
    for _ in 0..CASES {
        let mut session = Session::new(&table);
        let mut inputs = Vec::new();
        for _ in 0..gen.gen_range(1..=12) {
            let input = match gen.gen_range(0..4) {
                0 => arb_text(&mut gen, 60),
                1 => format!("{} {}", keyword_soup(&mut gen, &vocabulary), arb_text(&mut gen, 12)),
                _ => keyword_soup(&mut gen, &vocabulary),
            };
            let _ = session.input(&input);
            let _ = session.query();
            inputs.push(input);
        }
        let mut replay = Session::new(&table);
        for command in session.log() {
            assert!(replay.input(command).is_ok(), "{command:?} of {inputs:?}");
        }
        assert_eq!(replay.log(), session.log(), "{inputs:?}");
        assert_eq!(replay.breakdown(), session.breakdown(), "{inputs:?}");
        assert_eq!(replay.fct(), session.fct(), "{inputs:?}");
        let query = |s: &Session<'_>| format!("{:?}", s.query());
        assert_eq!(query(&replay), query(&session), "{inputs:?}");
        applied += session.commands_applied();
    }
    assert!(applied > CASES, "{applied} commands applied over {CASES} sessions");
}
