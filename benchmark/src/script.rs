//! Seeded workload inputs: question order, session scripts, ingest rows.
//!
//! `--seed` reaches the benchmark only through this module. The table and
//! the planner keep the product's default seed, so every run asks about
//! the same data and only *what is asked, in which order* varies.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::schema::MeasureId;
use voxolap_data::{DimId, DimValue, IngestRow, MemberId, Schema, Table};
use voxolap_engine::query::{AggFct, Query};
use voxolap_voice::parser::{parse, Command};
use voxolap_voice::question::parse_question;

/// One full question: its Fig.-3 label, the text sent, and the result
/// size the text must parse to (checked at set-up, so a drifting keyword
/// parser fails the run instead of silently changing the workload).
#[derive(Debug, Clone, Copy)]
pub struct Question {
    pub label: &'static str,
    pub text: &'static str,
    pub aggregates: usize,
}

/// The eight Fig.-3-shaped questions of the `cold_*` workloads: filter
/// (`∅`, `N` = the North East, `W` = Winter) × breakdown (`R` region, `D`
/// season, `A` airline), 4 to 70 aggregates.
pub const COLD_QUESTIONS: [Question; 8] = [
    Question { label: ",D", text: "cancellation probability by season", aggregates: 4 },
    Question { label: ",R", text: "cancellation probability by region", aggregates: 5 },
    Question {
        label: ",RD",
        text: "cancellation probability by region and season",
        aggregates: 20,
    },
    Question { label: "W,R", text: "cancellation probability in winter by region", aggregates: 5 },
    Question {
        label: "N,D",
        text: "cancellation probability in the north east by season",
        aggregates: 4,
    },
    Question {
        label: ",RA",
        text: "cancellation probability by region and airline",
        aggregates: 70,
    },
    Question {
        label: ",DA",
        text: "cancellation probability by season and airline",
        aggregates: 56,
    },
    Question {
        label: "N,DA",
        text: "cancellation probability in the north east by season and airline",
        aggregates: 56,
    },
];

/// The reader's cycle on `live_append`: no airline breakdown, so every
/// spoken answer parses back (see README, "known product findings").
pub const LIVE_QUESTIONS: [Question; 4] =
    [COLD_QUESTIONS[1], COLD_QUESTIONS[0], COLD_QUESTIONS[2], COLD_QUESTIONS[3]];

/// The untimed warm-up of every set-up. No workload filters on Fall, so
/// warming up never pre-fills a measured scope.
pub const WARMUP_QUESTION: &str = "cancellation probability in fall by region";

/// Parse `q` against `schema`, insisting on the advertised result size.
pub fn parse_checked(schema: &Schema, q: &Question) -> Result<Query, String> {
    let query = parse_question(schema, q.text).map_err(|e| format!("{}: {e}", q.label))?;
    if query.n_aggregates() != q.aggregates {
        return Err(format!(
            "{} parsed to {} aggregates, expected {}",
            q.label,
            query.n_aggregates(),
            q.aggregates
        ));
    }
    Ok(query)
}

/// The order one pass asks `n` questions in: a seeded permutation, fresh
/// per pass.
pub fn question_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    order
}

/// What a scripted turn does to the semantic cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TurnKind {
    /// A filter this session has not used: new scope, cold plan.
    NewScope,
    /// Same scope, a breakdown not answered yet: warm start.
    FollowUp,
    /// A query this session already got answered: exact hit.
    Repeat,
}

/// One scripted utterance with the dialogue state it leads to.
#[derive(Debug, Clone, PartialEq)]
pub struct Turn {
    pub text: String,
    pub kind: TurnKind,
    /// The query the session holds after this utterance, as
    /// `(filter, breakdown)` over the flights schema.
    pub state: DialogueState,
}

/// The part of `voxolap_voice::session::Session` state the scripts move
/// through: one optional filter and the breakdown levels.
/// [`DialogueState::query`] builds the real query, and a unit test replays
/// every script through the real `Session` to pin this mirror to it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct DialogueState {
    pub filter: Option<(DimId, MemberId)>,
    pub group: Vec<(DimId, LevelId)>,
}

impl DialogueState {
    pub fn query(&self, schema: &Schema) -> Option<Query> {
        let mut b = Query::builder(AggFct::Avg);
        for &(d, l) in &self.group {
            b = b.group_by(d, l);
        }
        if let Some((d, m)) = self.filter {
            b = b.filter(d, m);
        }
        b.build(schema).ok()
    }
}

/// Places a session visits: the same in every run, so that runs differ in
/// the order of the work and not in the work.
pub const SESSION_PLACES: usize = 3;

/// What `Session` does with the two commands the scripts use.
fn apply(state: &DialogueState, cmd: &Command) -> DialogueState {
    let mut next = state.clone();
    match *cmd {
        Command::Filter(d, m) => next.filter = Some((d, m)),
        Command::GroupBy(d, l) => {
            next.group.retain(|g| g.0 != d);
            next.group.push((d, l));
        }
        _ => unreachable!("scripts only filter and group"),
    }
    next
}

/// The script of one session: an opening "break down by season", then
/// ten utterances that visit [`SESSION_PLACES`] places in
/// seeded order — "only <place>" (new scope, cold plan, 4 aggregates),
/// "break down by month" (in-scope follow-up, warm start, 12 aggregates),
/// "break down by season" (exact repeat) — except that the third visit,
/// instead of going back to seasons, returns to one of the two earlier
/// places, seeded: "only <earlier place>" repeats its by-month answer (the
/// wide exact hit `plan_from_exact` rescoring is slowest on), "break down
/// by season" its by-season one. Ten turns hold 3 new scopes, 3 follow-ups
/// and 4 exact repeats, one of them wide: the 30 / 30 / 40 mix of the issue.
///
/// Places are the first states of the start-airport dimension the session
/// can name: an utterance the keyword parser reads differently from what is
/// meant is dropped, not trusted. Kinds are derived from what the session
/// has been answered, not assumed.
pub fn session_script(schema: &Schema, seed: u64) -> Vec<Turn> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd134_2543_de82_ef95);
    let airport = DimId(0);
    let date = DimId(1);
    let dim = schema.dimension(airport);
    let state_level = dim.level_by_name("state").expect("flights level");
    let mut places: Vec<(String, Command)> = dim
        .level_members(state_level)
        .into_iter()
        .map(|m| {
            (format!("only {}", dim.member(m).phrase.to_lowercase()), Command::Filter(airport, m))
        })
        .filter(|(text, cmd)| parse(schema, text).as_ref() == Ok(cmd))
        .take(SESSION_PLACES)
        .collect();
    places.shuffle(&mut rng);
    let breakdown = |by_month: bool| {
        let name = if by_month { "month" } else { "season" };
        let l = schema.dimension(date).level_by_name(name).expect("flights level");
        (format!("break down by {name}"), Command::GroupBy(date, l))
    };
    let [first, second, third] = <[_; SESSION_PLACES]>::try_from(places)
        .unwrap_or_else(|p| panic!("the session can name only {} states", p.len()));
    let back = if rng.gen() { first.clone() } else { second.clone() };
    let moves = [
        breakdown(false),
        first,
        breakdown(true),
        breakdown(false),
        second,
        breakdown(true),
        breakdown(false),
        third,
        breakdown(true),
        back,
        breakdown(false),
    ];

    let mut state = DialogueState::default();
    let mut answered: BTreeSet<DialogueState> = BTreeSet::new();
    let mut scopes: BTreeSet<Option<(DimId, MemberId)>> = BTreeSet::new();
    moves
        .into_iter()
        .map(|(text, cmd)| {
            state = apply(&state, &cmd);
            let kind = if answered.contains(&state) {
                TurnKind::Repeat
            } else if scopes.contains(&state.filter) {
                TurnKind::FollowUp
            } else {
                TurnKind::NewScope
            };
            answered.insert(state.clone());
            scopes.insert(state.filter);
            Turn { text, kind, state: state.clone() }
        })
        .collect()
}

/// `batches` ingest batches of `batch_rows` rows drawn from the flights
/// generator under the run's seed: the typed rows (for the reopen check
/// and the trace mirror) and the NDJSON body `POST /ingest` takes.
pub fn ingest_batches(
    seed: u64,
    batches: usize,
    batch_rows: usize,
) -> Vec<(Vec<IngestRow>, String)> {
    let donor = FlightsConfig { rows: batches * batch_rows, seed: seed ^ 0x1a9e_57ed }.generate();
    (0..batches)
        .map(|b| {
            let rows = echo_rows(&donor, b * batch_rows, batch_rows);
            let body = ingest_body(&rows);
            (rows, body)
        })
        .collect()
}

/// Rows `start..start+n` of `table` as leaf-phrase ingest rows.
pub fn echo_rows(table: &Table, start: usize, n: usize) -> Vec<IngestRow> {
    let schema = table.schema();
    (start..start + n)
        .map(|row| IngestRow {
            dims: schema
                .dims()
                .map(|(id, d)| DimValue::Phrase(d.member(table.member_at(id, row)).phrase.clone()))
                .collect(),
            values: (0..schema.measure_count())
                .map(|m| table.measure_value(MeasureId(m as u8), row))
                .collect(),
        })
        .collect()
}

/// The NDJSON wire form of a batch (one `{"dims":[…],"values":[…]}` per
/// line).
pub fn ingest_body(rows: &[IngestRow]) -> String {
    let mut body = String::with_capacity(rows.len() * 96);
    for row in rows {
        body.push_str("{\"dims\":[");
        for (i, d) in row.dims.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let DimValue::Phrase(phrase) = d else {
                unreachable!("echo_rows names every member by its leaf phrase")
            };
            voxolap_json::escape_into(phrase, &mut body);
        }
        body.push_str("],\"values\":[");
        for (i, v) in row.values.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&v.to_string());
        }
        body.push_str("]}\n");
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_voice::session::{Response, Session};

    #[test]
    fn questions_parse_to_their_advertised_shapes() {
        let schema = FlightsConfig::schema();
        for q in COLD_QUESTIONS.iter().chain(&LIVE_QUESTIONS) {
            parse_checked(&schema, q).unwrap();
        }
        let warm = parse_question(&schema, WARMUP_QUESTION).unwrap();
        assert_eq!(warm.n_aggregates(), 5);
        assert_eq!(warm.filters().len(), 1);
    }

    #[test]
    fn generators_are_deterministic_in_the_seed_and_vary_with_it() {
        let schema = FlightsConfig::schema();
        assert_eq!(question_order(7, 3, 8), question_order(7, 3, 8));
        assert_ne!(question_order(7, 3, 8), question_order(7, 4, 8));
        let mut sorted = question_order(7, 3, 8);
        sorted.sort();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());

        let a = session_script(&schema, 11);
        assert_eq!(a, session_script(&schema, 11));
        assert!((12..20).any(|seed| session_script(&schema, seed) != a));
        let a = ingest_batches(5, 2, 50);
        assert_eq!(a, ingest_batches(5, 2, 50));
        assert_ne!(a[0].1, ingest_batches(6, 2, 50)[0].1);
        assert_eq!(a[0].1.lines().count(), 50);
    }

    #[test]
    fn scripts_keep_their_mix_and_their_places_whatever_the_seed() {
        let schema = FlightsConfig::schema();
        let scopes = |script: &[Turn]| -> BTreeSet<_> {
            script[1..].iter().map(|t| t.state.filter.expect("every visit filters")).collect()
        };
        let places = scopes(&session_script(&schema, 0));
        assert_eq!(places.len(), SESSION_PLACES);
        for seed in 0..20 {
            let script = session_script(&schema, seed);
            assert_eq!(script.len(), 11);
            let count = |k| script[1..].iter().filter(|t| t.kind == k).count();
            assert_eq!(
                (count(TurnKind::NewScope), count(TurnKind::FollowUp), count(TurnKind::Repeat)),
                (3, 3, 4),
                "seed {seed}"
            );
            assert_eq!(script[0].kind, TurnKind::NewScope);
            assert_eq!(scopes(&script), places, "seed {seed}");
            let by_month = |t: &&Turn| t.state.query(&schema).unwrap().n_aggregates() == 12;
            assert_eq!(script[1..].iter().filter(by_month).count(), 4);
            let wide_repeats =
                script.iter().filter(|t| t.kind == TurnKind::Repeat).filter(by_month).count();
            assert_eq!(wide_repeats, 1, "one wide exact repeat per ten turns");
        }
    }

    /// The mirror must stay the real dialogue machine: replay every script
    /// through `Session` and compare the query it holds turn by turn.
    #[test]
    fn scripts_replay_identically_through_the_real_session() {
        let table = FlightsConfig { rows: 500, seed: 42 }.generate();
        let schema = table.schema();
        let script = session_script(schema, 3);
        let mut session = Session::new(&table);
        let mut seen = BTreeSet::new();
        for turn in &script {
            assert!(matches!(session.input(&turn.text), Ok(Response::Updated)), "{turn:?}");
            let real = session.query().unwrap();
            let mirrored = turn.state.query(schema).unwrap();
            assert_eq!(real.key(), mirrored.key(), "{turn:?}");
            assert!(real.n_aggregates() <= 12, "by-month is the widest scripted breakdown");
            let repeat = !seen.insert(format!("{:?}", real.key()));
            assert_eq!(repeat, turn.kind == TurnKind::Repeat, "{turn:?}");
        }
    }

    #[test]
    fn ingest_bodies_round_trip_through_the_json_crate() {
        let (rows, body) = ingest_batches(9, 1, 20).remove(0);
        for (row, line) in rows.iter().zip(body.lines()) {
            let v = voxolap_json::Value::parse(line).unwrap();
            let dims = v["dims"].as_array().unwrap();
            assert_eq!(dims.len(), row.dims.len());
            for (d, sent) in dims.iter().zip(&row.dims) {
                assert_eq!(&DimValue::Phrase(d.as_str().unwrap().to_string()), sent);
            }
            let values: Vec<f64> =
                v["values"].as_array().unwrap().iter().map(|x| x.as_f64().unwrap()).collect();
            assert_eq!(values, row.values);
        }
    }
}
