//! Interactive analysis sessions.
//!
//! Tracks the evolving OLAP query state (aggregation function, breakdown
//! levels, filters) as a user issues keyword commands, and vocalizes the
//! current result on demand — the server-side state behind the paper's web
//! interface for the exploratory study (§5.2).

use voxolap_core::approach::Vocalizer;
use voxolap_core::outcome::VocalizationOutcome;
use voxolap_core::voice::VoiceOutput;
use voxolap_data::dimension::{LevelId, MemberId};
use voxolap_data::schema::DimId;
use voxolap_data::Table;
use voxolap_engine::error::EngineError;
use voxolap_engine::query::{AggFct, Query};

use crate::parser::{parse, Command, ParseError};

/// Outcome of feeding one utterance into a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Keyword listing to read out.
    Help(String),
    /// The query state changed; re-vocalize to hear the new result.
    Updated,
    /// The user ended the session.
    Quit,
}

/// Session-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The utterance matched no keyword.
    Parse(ParseError),
    /// The command would produce an invalid query; state was not changed.
    InvalidQuery(EngineError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::InvalidQuery(e) => write!(f, "command rejected: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The tentative session state a command produces: breakdown levels,
/// filters, and aggregation function.
type TentativeState = (Vec<(DimId, LevelId)>, Vec<(DimId, MemberId)>, AggFct);

/// An interactive voice-OLAP session over one table.
#[derive(Debug)]
pub struct Session<'a> {
    table: &'a Table,
    fct: AggFct,
    group: Vec<(DimId, LevelId)>,
    filters: Vec<(DimId, MemberId)>,
    /// Correctly parsed commands, in order (the study counts these).
    log: Vec<String>,
}

impl<'a> Session<'a> {
    /// Start a session with no breakdown and AVG aggregation.
    pub fn new(table: &'a Table) -> Self {
        Session { table, fct: AggFct::Avg, group: Vec::new(), filters: Vec::new(), log: Vec::new() }
    }

    /// Feed one utterance. On success the command is logged and applied;
    /// on failure the session state is unchanged.
    pub fn input(&mut self, text: &str) -> Result<Response, SessionError> {
        let cmd = parse(self.table.schema(), text).map_err(SessionError::Parse)?;
        if cmd == Command::Help {
            return Ok(Response::Help(self.help_text()));
        }
        if cmd == Command::Quit {
            return Ok(Response::Quit);
        }
        // Apply tentatively; only commit if the resulting query builds.
        let (group, filters, fct) = self.applied(&cmd);
        let trial = Self::build_query(self.table, fct, &group, &filters)
            .map_err(SessionError::InvalidQuery)?;
        let _ = trial;
        self.group = group;
        self.filters = filters;
        self.fct = fct;
        self.log.push(text.to_string());
        Ok(Response::Updated)
    }

    /// The new state a command would produce (without committing).
    fn applied(&self, cmd: &Command) -> TentativeState {
        let mut group = self.group.clone();
        let mut filters = self.filters.clone();
        let mut fct = self.fct;
        let schema = self.table.schema();
        match *cmd {
            Command::Help | Command::Quit => {}
            Command::SetFct(f) => fct = f,
            Command::GroupBy(dim, level) => {
                group.retain(|&(d, _)| d != dim);
                group.push((dim, level));
            }
            Command::DrillDown(dim) => {
                let leaf = schema.dimension(dim).leaf_level();
                match group.iter_mut().find(|(d, _)| *d == dim) {
                    Some((_, l)) => {
                        if l.index() < leaf.index() {
                            *l = LevelId(l.0 + 1);
                        }
                    }
                    None => group.push((dim, LevelId(1))),
                }
            }
            Command::RollUp(dim) => {
                if let Some(pos) = group.iter().position(|&(d, _)| d == dim) {
                    if group[pos].1.index() <= 1 {
                        group.remove(pos);
                    } else {
                        group[pos].1 = LevelId(group[pos].1 .0 - 1);
                    }
                }
            }
            Command::Remove(dim) => {
                group.retain(|&(d, _)| d != dim);
                filters.retain(|&(d, _)| d != dim);
            }
            Command::Filter(dim, member) => {
                filters.retain(|&(d, _)| d != dim);
                filters.push((dim, member));
                // A filter finer than the current grouping level deepens
                // the grouping to stay meaningful.
                if let Some((_, l)) = group.iter_mut().find(|(d, _)| *d == dim) {
                    let member_level = schema.dimension(dim).member(member).level;
                    if member_level.index() > l.index() {
                        *l = member_level;
                    }
                }
            }
            Command::ClearFilters => filters.clear(),
        }
        (group, filters, fct)
    }

    fn build_query(
        table: &Table,
        fct: AggFct,
        group: &[(DimId, LevelId)],
        filters: &[(DimId, MemberId)],
    ) -> Result<Query, EngineError> {
        let mut b = Query::builder(fct);
        for &(d, l) in group {
            b = b.group_by(d, l);
        }
        for &(d, m) in filters {
            b = b.filter(d, m);
        }
        b.build(table.schema())
    }

    /// The query for the current session state.
    pub fn query(&self) -> Result<Query, EngineError> {
        Self::build_query(self.table, self.fct, &self.group, &self.filters)
    }

    /// Vocalize the current result with the given approach.
    pub fn vocalize_with(
        &self,
        vocalizer: &dyn Vocalizer,
        voice: &mut dyn VoiceOutput,
    ) -> Result<VocalizationOutcome, EngineError> {
        let query = self.query()?;
        Ok(vocalizer.vocalize(self.table, &query, voice))
    }

    /// Help text listing all available keywords (read out on request).
    pub fn help_text(&self) -> String {
        let schema = self.table.schema();
        let mut out = String::from(
            "Say help, quit, average, total, or count. \
             Say drill down, roll up, or remove, followed by a dimension. \
             Say break down by, followed by a level. Dimensions: ",
        );
        let dims: Vec<&str> = schema.dimensions().iter().map(|d| d.name()).collect();
        out.push_str(&dims.join(", "));
        out.push_str(". Levels: ");
        let levels: Vec<String> = schema
            .dimensions()
            .iter()
            .flat_map(|d| {
                (1..d.level_count()).map(move |l| d.level_name(LevelId(l as u8)).to_string())
            })
            .collect();
        out.push_str(&levels.join(", "));
        out.push('.');
        out
    }

    /// Number of correctly parsed (applied) commands — the paper's per-user
    /// query count.
    pub fn commands_applied(&self) -> usize {
        self.log.len()
    }

    /// The applied-command log.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// The current aggregation function.
    pub fn fct(&self) -> AggFct {
        self.fct
    }

    /// The current breakdown (dimension, level) pairs.
    pub fn breakdown(&self) -> &[(DimId, LevelId)] {
        &self.group
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_core::holistic::{Holistic, HolisticConfig};
    use voxolap_core::voice::InstantVoice;
    use voxolap_data::flights::FlightsConfig;

    fn table() -> Table {
        FlightsConfig { rows: 5_000, seed: 42 }.generate()
    }

    #[test]
    fn drill_and_roll_navigate_levels() {
        let t = table();
        let mut s = Session::new(&t);
        s.input("drill down into the start airport").unwrap();
        assert_eq!(s.breakdown(), &[(DimId(0), LevelId(1))]);
        s.input("drill down into the start airport").unwrap();
        assert_eq!(s.breakdown(), &[(DimId(0), LevelId(2))]);
        s.input("roll up the start airport").unwrap();
        assert_eq!(s.breakdown(), &[(DimId(0), LevelId(1))]);
        s.input("roll up the start airport").unwrap();
        assert!(s.breakdown().is_empty(), "rolling past the top removes the dim");
    }

    #[test]
    fn filters_combine_with_breakdowns() {
        let t = table();
        let mut s = Session::new(&t);
        s.input("break down by season").unwrap();
        s.input("only the north east").unwrap();
        let q = s.query().unwrap();
        assert_eq!(q.n_aggregates(), 4);
        assert_eq!(q.filters().len(), 1);
    }

    #[test]
    fn filter_deepens_grouping_when_needed() {
        let t = table();
        let mut s = Session::new(&t);
        s.input("break down by region").unwrap();
        // Filtering to a specific city while grouped by region would be
        // degenerate; the session deepens the grouping to city level.
        s.input("boston").unwrap();
        let q = s.query().unwrap();
        assert_eq!(q.group_by()[0].1, LevelId(3));
    }

    #[test]
    fn help_lists_keywords() {
        let t = table();
        let mut s = Session::new(&t);
        match s.input("help").unwrap() {
            Response::Help(text) => {
                assert!(text.contains("start airport"));
                assert!(text.contains("season"));
                assert!(text.contains("drill down"));
            }
            other => panic!("expected help, got {other:?}"),
        }
        assert_eq!(s.commands_applied(), 0, "help is not logged as a query");
    }

    #[test]
    fn quit_is_signalled() {
        let t = table();
        let mut s = Session::new(&t);
        assert_eq!(s.input("quit").unwrap(), Response::Quit);
    }

    #[test]
    fn bad_input_leaves_state_untouched() {
        let t = table();
        let mut s = Session::new(&t);
        s.input("break down by season").unwrap();
        let before = s.breakdown().to_vec();
        assert!(s.input("make me a sandwich").is_err());
        assert_eq!(s.breakdown(), before);
        assert_eq!(s.commands_applied(), 1);
    }

    #[test]
    fn remove_drops_dimension_and_filter() {
        let t = table();
        let mut s = Session::new(&t);
        s.input("break down by season").unwrap();
        s.input("winter").unwrap();
        s.input("remove the flight date").unwrap();
        assert!(s.breakdown().is_empty());
        assert!(s.query().unwrap().filters().is_empty());
    }

    #[test]
    fn session_vocalizes_current_query() {
        let t = table();
        let mut s = Session::new(&t);
        s.input("break down by region").unwrap();
        s.input("break down by season").unwrap();
        let holistic = Holistic::new(HolisticConfig {
            min_samples_per_sentence: 200,
            ..HolisticConfig::default()
        });
        let mut voice = InstantVoice::default();
        let outcome = s.vocalize_with(&holistic, &mut voice).unwrap();
        assert!(outcome.preamble.contains("broken down by region and season"));
    }

    #[test]
    fn aggregation_switch_changes_fct() {
        let t = table();
        let mut s = Session::new(&t);
        s.input("how many flights are there").unwrap();
        assert_eq!(s.fct(), AggFct::Count);
        s.input("back to the average").unwrap();
        assert_eq!(s.fct(), AggFct::Avg);
    }

    #[test]
    fn degraded_outcomes_surface_through_session_vocalization() {
        use std::sync::Arc;
        use std::time::Instant;
        use voxolap_core::{CancelToken, SpeechStream};
        use voxolap_faults::Resilience;

        /// The engine, asked after its deadline has already passed.
        struct Late(Holistic);
        impl Vocalizer for Late {
            fn name(&self) -> &'static str {
                "late"
            }
            fn stream<'a>(
                &self,
                table: &'a Table,
                query: &'a Query,
                voice: &'a mut dyn VoiceOutput,
                _: CancelToken,
            ) -> SpeechStream<'a> {
                self.0.stream(table, query, voice, CancelToken::with_deadline(Instant::now()))
            }
        }

        let t = table();
        let mut s = Session::new(&t);
        s.input("break down by region").unwrap();
        // The deadline cuts the plan before its first sample: the session
        // answer must still come back, marked degraded.
        let res = Arc::new(Resilience::default());
        let late = Late(Holistic::new(HolisticConfig::default()).with_resilience(res.clone()));
        let mut voice = InstantVoice::default();
        let outcome = s.vocalize_with(&late, &mut voice).unwrap();
        assert!(outcome.stats.degraded, "a deadline cut must mark the answer degraded");
        assert_eq!(outcome.sentences.len(), 1, "the anytime answer is a baseline");
        assert_eq!(res.degraded_answers(), 1);
        // The same session state with no deadline stays clean.
        let clean = Holistic::new(HolisticConfig::default()).with_resilience(res.clone());
        let outcome = s.vocalize_with(&clean, &mut voice).unwrap();
        assert!(!outcome.stats.degraded);
    }
}
