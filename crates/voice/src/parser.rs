//! Keyword-based voice-input parsing.
//!
//! The paper's input component is deliberately simple: "users can drill
//! down, roll up, and add or remove dimensions in the OLAP result by
//! mentioning related keywords" and "can request help to obtain all
//! available keywords" (§5.2). This module resolves free-form text against
//! a schema's dimension names, level names, and member phrases.

use std::fmt;

use voxolap_data::dimension::{LevelId, MemberId};
use voxolap_data::schema::{DimId, Schema};
use voxolap_engine::query::AggFct;

/// A parsed user command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Read out the available keywords.
    Help,
    /// End the session.
    Quit,
    /// Switch the aggregation function.
    SetFct(AggFct),
    /// Group by one more level of detail in a dimension (or start grouping
    /// it at its coarsest level).
    DrillDown(DimId),
    /// Group one level coarser (or stop grouping the dimension).
    RollUp(DimId),
    /// Break results down by a specific level.
    GroupBy(DimId, LevelId),
    /// Remove a dimension from the breakdown (and any filter on it).
    Remove(DimId),
    /// Restrict the scope to one member.
    Filter(DimId, MemberId),
    /// Drop all filters.
    ClearFilters,
}

/// Parse failure: no keyword matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The unrecognized input.
    pub input: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "did not understand: {:?} (say \"help\" for keywords)", self.input)
    }
}

impl std::error::Error for ParseError {}

/// `text` lower-cased, with every run of non-alphanumeric characters
/// collapsed to one space and a space at both ends: `" sum "` occurs in the
/// result exactly when "sum" is one of the words of `text`.
pub(crate) fn padded_words(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push(' ');
    for word in text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()) {
        out.extend(word.chars().flat_map(char::to_lowercase));
        out.push(' ');
    }
    out
}

/// Whether the words of `phrase` occur in `words` (from [`padded_words`])
/// as consecutive whole words. The last one may carry a plural "s"
/// ("clear filters", "by regions"); "summer" does not mention "sum".
pub(crate) fn mentions(words: &str, phrase: &str) -> bool {
    let mut phrase = padded_words(phrase);
    if phrase == " " {
        return false;
    }
    if words.contains(&phrase) {
        return true;
    }
    phrase.insert(phrase.len() - 1, 's');
    words.contains(&phrase)
}

pub(crate) fn mentions_any(words: &str, phrases: &[&str]) -> bool {
    phrases.iter().any(|p| mentions(words, p))
}

/// Find a dimension whose name is mentioned in `words`.
fn find_dimension(schema: &Schema, words: &str) -> Option<DimId> {
    schema.dims().find(|(_, d)| mentions(words, d.name())).map(|(id, _)| id)
}

/// Find a level (of any dimension) whose name is mentioned in `words`,
/// together with the matched length. Longer names win so "rough start
/// salary" beats the dimension "start salary".
fn find_level(schema: &Schema, words: &str) -> Option<(DimId, LevelId, usize)> {
    let mut best: Option<(DimId, LevelId, usize)> = None;
    for (id, d) in schema.dims() {
        for li in 1..d.level_count() {
            let level = LevelId(li as u8);
            let name = d.level_name(level);
            if best.is_none_or(|(_, _, l)| name.len() > l) && mentions(words, name) {
                best = Some((id, level, name.len()));
            }
        }
    }
    best
}

/// Find a member (of any dimension) whose phrase is mentioned in `words`,
/// together with the matched length. Longest phrase wins ("the North East"
/// over "the North").
fn find_member(schema: &Schema, words: &str) -> Option<(DimId, MemberId, usize)> {
    let mut best: Option<(DimId, MemberId, usize)> = None;
    for (id, d) in schema.dims() {
        for mi in 1..d.member_count() {
            let m = MemberId(mi as u32);
            let phrase = &d.member(m).phrase;
            if best.is_none_or(|(_, _, l)| phrase.len() > l) && mentions(words, phrase) {
                best = Some((id, m, phrase.len()));
            }
        }
    }
    best
}

/// Parse one utterance against a schema.
///
/// Keywords, schema names and member phrases match as whole words, never
/// inside one — speech-to-text output is noisy, and "only summer" is a
/// filter, not a `SUM`.
///
/// Recognition order: explicit commands (help/quit/clear), structural
/// verbs (drill/roll/remove) with a dimension mention, "break down"-style
/// level mentions, aggregation keywords, then bare level mentions as
/// breakdowns and member mentions as filters.
pub fn parse(schema: &Schema, input: &str) -> Result<Command, ParseError> {
    let words = padded_words(input);
    let words = words.as_str();
    let unrecognized = || ParseError { input: input.to_string() };

    if mentions(words, "help") {
        return Ok(Command::Help);
    }
    if mentions_any(words, &["quit", "exit", "goodbye"]) {
        return Ok(Command::Quit);
    }
    if mentions_any(words, &["clear filter", "remove filter"]) {
        return Ok(Command::ClearFilters);
    }
    if mentions_any(words, &["drill down", "drill into"]) {
        return find_dimension(schema, words).map(Command::DrillDown).ok_or_else(unrecognized);
    }
    if mentions(words, "roll up") {
        return find_dimension(schema, words).map(Command::RollUp).ok_or_else(unrecognized);
    }
    if mentions_any(words, &["remove", "without"]) {
        return find_dimension(schema, words).map(Command::Remove).ok_or_else(unrecognized);
    }
    if mentions(words, "by") {
        if let Some((d, l, _)) = find_level(schema, words) {
            return Ok(Command::GroupBy(d, l));
        }
    }
    // Aggregation function switches.
    if mentions_any(words, &["how many", "count", "number of"]) {
        return Ok(Command::SetFct(AggFct::Count));
    }
    if mentions_any(words, &["total", "sum"]) {
        return Ok(Command::SetFct(AggFct::Sum));
    }
    if mentions_any(words, &["average", "mean"]) {
        return Ok(Command::SetFct(AggFct::Avg));
    }
    // A bare level mention groups; a member mention filters. When both
    // match ("new york city" contains the level name "city"), the longer
    // match wins.
    let level = find_level(schema, words);
    let member = find_member(schema, words);
    match (level, member) {
        (Some((d, l, ll)), Some((_, _, ml))) if ll >= ml => Ok(Command::GroupBy(d, l)),
        (_, Some((d, m, _))) => Ok(Command::Filter(d, m)),
        (Some((d, l, _)), None) => Ok(Command::GroupBy(d, l)),
        (None, None) => Err(unrecognized()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::flights::FlightsConfig;

    fn schema() -> Schema {
        FlightsConfig::schema()
    }

    #[test]
    fn parses_control_commands() {
        let s = schema();
        assert_eq!(parse(&s, "help").unwrap(), Command::Help);
        assert_eq!(parse(&s, "please HELP me").unwrap(), Command::Help);
        assert_eq!(parse(&s, "quit").unwrap(), Command::Quit);
        assert_eq!(parse(&s, "clear filters").unwrap(), Command::ClearFilters);
    }

    #[test]
    fn parses_aggregation_switches() {
        let s = schema();
        assert_eq!(parse(&s, "how many flights").unwrap(), Command::SetFct(AggFct::Count));
        assert_eq!(parse(&s, "show the total").unwrap(), Command::SetFct(AggFct::Sum));
        assert_eq!(parse(&s, "back to the average").unwrap(), Command::SetFct(AggFct::Avg));
    }

    #[test]
    fn parses_structure_commands() {
        let s = schema();
        assert_eq!(
            parse(&s, "drill down into the start airport").unwrap(),
            Command::DrillDown(DimId(0))
        );
        assert_eq!(parse(&s, "roll up the flight date").unwrap(), Command::RollUp(DimId(1)));
        assert_eq!(parse(&s, "remove the airline").unwrap(), Command::Remove(DimId(2)));
    }

    #[test]
    fn parses_group_by_level() {
        let s = schema();
        assert_eq!(
            parse(&s, "break down by region").unwrap(),
            Command::GroupBy(DimId(0), LevelId(1))
        );
        assert_eq!(
            parse(&s, "break down by season").unwrap(),
            Command::GroupBy(DimId(1), LevelId(1))
        );
        assert_eq!(parse(&s, "by month please").unwrap(), Command::GroupBy(DimId(1), LevelId(2)));
        // Bare level mention works too.
        assert_eq!(parse(&s, "state").unwrap(), Command::GroupBy(DimId(0), LevelId(2)));
    }

    #[test]
    fn parses_member_filters() {
        let s = schema();
        let airport = s.dimension(DimId(0));
        let ne = airport.member_by_phrase("the North East").unwrap();
        assert_eq!(parse(&s, "only the north east").unwrap(), Command::Filter(DimId(0), ne));
        let date = s.dimension(DimId(1));
        let winter = date.member_by_phrase("Winter").unwrap();
        assert_eq!(parse(&s, "winter").unwrap(), Command::Filter(DimId(1), winter));
    }

    #[test]
    fn longest_member_phrase_wins() {
        let s = schema();
        let airport = s.dimension(DimId(0));
        // "New York City" (city) contains "New York" (state): the longer
        // phrase must win.
        let nyc = airport.member_by_phrase("New York City").unwrap();
        assert_eq!(
            parse(&s, "flights from new york city").unwrap(),
            Command::Filter(DimId(0), nyc)
        );
    }

    #[test]
    fn unknown_input_errors_with_hint() {
        let s = schema();
        let err = parse(&s, "play some jazz").unwrap_err();
        assert!(err.to_string().contains("help"));
    }

    #[test]
    fn drill_without_dimension_errors() {
        let s = schema();
        assert!(parse(&s, "drill down").is_err());
    }

    #[test]
    fn keywords_match_whole_words_only() {
        let s = schema();
        let summer = s.dimension(DimId(1)).member_by_phrase("Summer").unwrap();
        let ok: [(&str, Command); 8] = [
            ("only summer", Command::Filter(DimId(1), summer)),
            ("what about the Summer?", Command::Filter(DimId(1), summer)),
            ("the sum, please", Command::SetFct(AggFct::Sum)),
            ("count", Command::SetFct(AggFct::Count)),
            ("counts per region", Command::SetFct(AggFct::Count)),
            ("clear filters", Command::ClearFilters),
            ("by regions", Command::GroupBy(DimId(0), LevelId(1))),
            ("Help!", Command::Help),
        ];
        for (text, want) in ok {
            assert_eq!(parse(&s, text), Ok(want), "{text:?}");
        }
        for text in ["county", "our country", "recount", "summary", "meaning", "helpful", "totally"]
        {
            assert!(parse(&s, text).is_err(), "{text:?} parsed as {:?}", parse(&s, text));
        }
    }

    /// Everything `help_text` tells the user to say, on both datasets.
    #[test]
    fn every_help_text_phrase_parses() {
        use voxolap_data::salary::SalaryConfig;
        let tables = [
            FlightsConfig { rows: 10, seed: 1 }.generate(),
            SalaryConfig { rows: 8, seed: 1 }.generate(),
        ];
        for table in &tables {
            let s = table.schema();
            let help = crate::session::Session::new(table).help_text();
            let mut cases = vec![
                ("help".to_string(), Command::Help),
                ("quit".to_string(), Command::Quit),
                ("average".to_string(), Command::SetFct(AggFct::Avg)),
                ("total".to_string(), Command::SetFct(AggFct::Sum)),
                ("count".to_string(), Command::SetFct(AggFct::Count)),
            ];
            assert!(cases.iter().all(|(keyword, _)| help.contains(keyword)), "{help}");
            for (id, d) in s.dims() {
                assert!(help.contains(d.name()), "{help}");
                cases.push((format!("drill down {}", d.name()), Command::DrillDown(id)));
                cases.push((format!("roll up {}", d.name()), Command::RollUp(id)));
                cases.push((format!("remove {}", d.name()), Command::Remove(id)));
                for li in 1..d.level_count() {
                    let level = LevelId(li as u8);
                    assert!(help.contains(d.level_name(level)), "{help}");
                    cases.push((
                        format!("break down by {}", d.level_name(level)),
                        Command::GroupBy(id, level),
                    ));
                }
            }
            for (text, want) in cases {
                assert_eq!(parse(s, &text), Ok(want), "{text:?}");
            }
        }
    }

    /// `benchmark/src/script.rs` builds `session_drill` from the first
    /// three states whose "only ‹state›" parses as a filter on that state.
    /// Pin them, so the workload keeps asking the same questions.
    #[test]
    fn first_three_nameable_states_are_stable() {
        let s = schema();
        let dim = s.dimension(DimId(0));
        let named: Vec<&str> = dim
            .level_members(dim.level_by_name("state").unwrap())
            .into_iter()
            .filter(|&m| {
                let text = format!("only {}", dim.member(m).phrase.to_lowercase());
                parse(&s, &text) == Ok(Command::Filter(DimId(0), m))
            })
            .take(3)
            .map(|m| dim.member(m).phrase.as_str())
            .collect();
        assert_eq!(named, ["New York", "Massachusetts", "Pennsylvania"]);
    }
}
