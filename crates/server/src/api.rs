//! The JSON API: questions, per-session keyword commands, statistics.
//!
//! Voice output is rendered client-side (the paper used ResponsiveVoiceJS
//! in the browser), so the server returns *text* plus planner statistics;
//! the `approach` field switches vocalization methods per request, the
//! mechanism behind the paper's Table 8 study ("users can switch freely
//! between the two compared vocalization methods for each single query").
//!
//! The four answer routes (`/ask`, `/query/stream`, `/session/<id>/input`
//! and `utter` on an attached session) are one path — `AppState::resolve`
//! → `AppState::speak` → one encoder per event (DESIGN.md §11) — and
//! differ only in where the words come from, the voice that paces
//! planning, and the sink the events go to.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use voxolap_json::Value;

use voxolap_core::approach::{self, ApproachOptions, Vocalizer};
use voxolap_core::outcome::{PlanStats, VocalizationOutcome};
use voxolap_core::voice::{InstantVoice, VirtualVoice, VoiceOutput};
use voxolap_core::{CancelKind, CancelToken, PlannedSentence};
use voxolap_data::stats::DatasetStats;
use voxolap_data::{DataError, DimValue, DurableTable, IngestRow, Table};
use voxolap_engine::query::Query;
use voxolap_engine::semantic::SemanticCache;
use voxolap_faults::Resilience;
use voxolap_voice::question::parse_question;
use voxolap_voice::session::{Response as SessionResponse, Session};

use crate::http::{HttpMetrics, LineSink, Request, Response, SessionUpgrade, SessionVerdict};

/// Default semantic-cache budget when `--cache-mb` is not given.
const DEFAULT_CACHE_MB: usize = 64;

/// Per-session server-side state, kept across utterances and transports
/// (the blocking `/session/<id>/input` route and the long-lived attach
/// transport share entries, so a client can reconnect and resume).
#[derive(Debug, Default, Clone)]
pub struct SessionEntry {
    /// The applied command log, replayed into a fresh [`Session`] per
    /// utterance (sessions are small — tens of commands).
    pub log: Vec<String>,
    /// Canonical scope of the last answered query, used to detect when a
    /// follow-up stays in-scope and the semantic cache will warm-start
    /// from cached sample snapshots (DESIGN.md §9).
    pub last_scope: Option<String>,
}

/// Per-session state table, keyed by session id. The map lock is held
/// only to find, create or remove an entry — never while a turn plans, so
/// `GET /stats` and every other session stay responsive; a turn holds its
/// own entry's lock from log replay to log append, which keeps turns on
/// one session in order whichever transports they arrive on.
pub type SessionStore = Mutex<HashMap<String, Arc<Mutex<SessionEntry>>>>;

/// Shared application state.
pub struct AppState {
    /// Live (append-capable) revision chain of the dataset, optionally
    /// backed by a write-ahead log (DESIGN.md §17). Every request pins one
    /// snapshot for its whole run, so a query's result layout stays
    /// consistent however many `POST /ingest` batches land while it
    /// plans; the next request sees the new revision. In durable mode an
    /// ingest acknowledges only after the WAL commit lands, and a log
    /// poisoned by a failed fsync refuses every later batch (fsyncgate);
    /// queries are unaffected.
    live: DurableTable,
    sessions: SessionStore,
    /// Planning threads used by the `parallel` approach.
    threads: usize,
    /// Cross-query semantic cache shared by all requests (`None` when
    /// disabled via `--cache-mb 0`).
    semantic: Option<Arc<SemanticCache>>,
    /// One vocalizer per approach, built on first use and reused by every
    /// subsequent request (vocalizers are stateless apart from shared
    /// caches, so one instance serves all connections).
    vocalizers: Mutex<HashMap<String, Arc<dyn Vocalizer>>>,
    /// Resilience bundle shared by every vocalizer built here: inert
    /// (deadline cuts and the clean/degraded tally only) unless
    /// `--fault-plan` attached an injecting one.
    resilience: Arc<Resilience>,
    /// Latency distributions and stream counters behind `/stats`, shared
    /// with in-flight streaming responses.
    stats: Arc<AnswerStats>,
    /// Batches accepted by `POST /ingest`, for `/stats`.
    ingest_batches: AtomicU64,
    /// Rows appended by `POST /ingest`, for `/stats`.
    ingest_rows: AtomicU64,
    /// Serving-layer counters shared with the HTTP pool (`None` when the
    /// state is exercised without a real server, e.g. in unit tests).
    http_metrics: Option<Arc<HttpMetrics>>,
    /// Expose `GET /debug/panic` (panic-isolation testing).
    debug_routes: bool,
    /// Planning deadline of every turn, on every route. A wide scope (say,
    /// a city-level drill-down crossed with another breakdown) can take
    /// minutes to converge; unbounded, one such turn pins a worker and
    /// starves the pool. Past the deadline the planner commits the §12
    /// anytime answer and the answer carries `"degraded":true`. `None` =
    /// run to convergence.
    utterance_deadline: Option<Duration>,
}

/// One answer turn, resolved: the vocalizer to plan with, the revision
/// pinned for the whole turn, and the query parsed against that revision's
/// dictionaries. What all four answer routes hand to [`AppState::speak`].
struct Turn {
    approach: String,
    vocalizer: Arc<dyn Vocalizer>,
    table: Arc<Table>,
    query: Query,
}

/// Where a turn's query comes from.
enum Words<'a> {
    /// A full question (`POST /ask`, `POST /query/stream`).
    Question(&'a str),
    /// A keyword command on top of a session's applied-command log (both
    /// session transports).
    Command { log: &'a [String], text: &'a str },
}

/// Why a turn produced no speech.
enum Stop {
    /// The utterance was `help`: the keyword listing to read out.
    Help(String),
    /// The utterance was `quit`: the session is over.
    Quit,
    /// Malformed request, unknown approach, unparseable words.
    Error(String),
}

impl Stop {
    fn error(e: impl ToString) -> Stop {
        Stop::Error(e.to_string())
    }
}

/// A spoken answer: what [`AppState::speak`] made of a [`Turn`].
struct Answer {
    approach: String,
    outcome: VocalizationOutcome,
}

/// The words (under `key`) and the approach (default holistic) of a
/// request body or an `utter` event.
fn turn_fields(v: &Value, key: &str) -> Option<(String, String)> {
    let approach = v["approach"].as_str().unwrap_or("holistic");
    Some((v[key].as_str()?.to_string(), approach.to_string()))
}

/// [`turn_fields`] of an HTTP request body.
fn body_fields(req: &Request, key: &str) -> Result<(String, String), Stop> {
    let fields = Value::parse_slice(&req.body).ok().and_then(|v| turn_fields(&v, key));
    fields.ok_or_else(|| Stop::Error(format!("expected {{\"{key}\": \"...\"}}")))
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Append the answer flags to a JSON object under construction. Each
/// appears only when set, so clients that predate a flag see the answers
/// they always saw: `degraded` (the answer was cut short — the deadline
/// included — or fell back), `stale` (a version-stale cached result was
/// served because a fault or the deadline blocked a fresh plan),
/// `truncated` (the speech was chosen from a search space cut at the node
/// cap — the last baselines have no refinements under them).
fn push_flags(fields: &mut Vec<(&'static str, Value)>, stats: &PlanStats) {
    let flags =
        [("degraded", stats.degraded), ("stale", stats.stale), ("truncated", stats.truncated)];
    for (name, set) in flags {
        if set {
            fields.push((name, true.into()));
        }
    }
}

// The event schema (DESIGN.md §11): one encoder per event, shared by the
// chunked-body and the session transport.

fn preamble_event(text: &str, latency: Duration) -> Value {
    Value::obj([
        ("type", "preamble".into()),
        ("text", text.into()),
        ("latency_ms", millis(latency).into()),
    ])
}

fn sentence_event(sentence: &PlannedSentence) -> Value {
    Value::obj([
        ("type", "sentence".into()),
        ("index", sentence.index.into()),
        ("text", sentence.text.as_str().into()),
        ("samples", sentence.stats.samples.into()),
        ("rows_read", sentence.stats.rows_read.into()),
        ("elapsed_ms", millis(sentence.stats.elapsed).into()),
    ])
}

/// `cancelled` is the client's doing only (it hung up mid-turn); a
/// deadline cut shows as `degraded`. `scope_warm` exists on session turns.
fn done_event(
    outcome: &VocalizationOutcome,
    ttfs_ms: Option<f64>,
    cancelled: bool,
    scope_warm: Option<bool>,
) -> Value {
    let mut fields = vec![
        ("type", "done".into()),
        ("sentences", outcome.sentences.len().into()),
        ("samples", outcome.stats.samples.into()),
        ("rows_read", outcome.stats.rows_read.into()),
        ("planning_ms", millis(outcome.stats.planning_time).into()),
        ("ttfs_ms", ttfs_ms.unwrap_or(0.0).into()),
        ("cancelled", cancelled.into()),
    ];
    fields.extend(scope_warm.map(|warm| ("scope_warm", warm.into())));
    push_flags(&mut fields, &outcome.stats);
    Value::obj(fields)
}

fn error_event(message: &str) -> Value {
    Value::obj([("type", "error".into()), ("message", message.into())])
}

/// The body the two blocking routes answer with: a turn's outcome, or the
/// reason there is none.
fn blocking_reply(reply: Result<Answer, Stop>) -> Response {
    let Answer { approach, outcome } = match reply {
        Ok(answer) => answer,
        Err(Stop::Help(text)) => {
            return Response::ok(format!("{{\"help\":{}}}", voxolap_json::escape(&text)))
        }
        Err(Stop::Quit) => return Response::ok("{\"ended\":true}".to_string()),
        Err(Stop::Error(message)) => return Response::error(400, &message),
    };
    let (text, chars) = (outcome.full_text(), outcome.body_len());
    let mut fields = vec![
        ("approach", approach.into()),
        ("text", text.into()),
        ("preamble", outcome.preamble.into()),
        ("sentences", outcome.sentences.into()),
        ("latency_ms", millis(outcome.latency).into()),
        ("chars", chars.into()),
        ("rows_sampled", outcome.stats.rows_read.into()),
        ("planner_iterations", outcome.stats.samples.into()),
    ];
    push_flags(&mut fields, &outcome.stats);
    Response::ok(Value::obj(fields).to_string())
}

/// Buckets per factor of two. Edges grow by 2^(1/8) ≈ 1.09, so a
/// bucket's upper edge overstates any value inside it by less than 10 %.
const DIST_PER_OCTAVE: usize = 8;
/// Upper edge of bucket 0, in ms (≈ 1 µs). Smaller values land there too.
const DIST_MIN_MS: f64 = 1.0 / 1024.0;
/// 35 octaves above [`DIST_MIN_MS`]: the last edge is 2^25 ms ≈ 9 h, and
/// larger values are counted at it.
const DIST_BUCKETS: usize = 35 * DIST_PER_OCTAVE;

/// A latency distribution in fixed memory: counts in log-spaced buckets.
/// Recording is one relaxed add; percentiles are nearest-rank over the
/// counts, reported as the bucket's upper edge.
struct Dist {
    counts: [AtomicU64; DIST_BUCKETS],
}

impl Default for Dist {
    fn default() -> Self {
        Dist { counts: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Dist {
    fn upper_edge_ms(bucket: usize) -> f64 {
        DIST_MIN_MS * (bucket as f64 / DIST_PER_OCTAVE as f64).exp2()
    }

    fn record(&self, ms: f64) {
        // `as usize` saturates: NaN, zero and anything under the first
        // edge count in bucket 0.
        let bucket = ((ms / DIST_MIN_MS).log2() * DIST_PER_OCTAVE as f64).ceil() as usize;
        self.counts[bucket.min(DIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// `count`, `p50`, `p90`, `p99` for `/stats`.
    fn fields(&self) -> [(&'static str, Value); 4] {
        let counts: [u64; DIST_BUCKETS] =
            std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        let n: u64 = counts.iter().sum();
        let percentile = |p: f64| {
            if n == 0 {
                return 0.0;
            }
            let rank = ((p / 100.0) * (n - 1) as f64).round() as u64;
            let mut seen = 0;
            let bucket = counts.iter().position(|&c| {
                seen += c;
                seen > rank
            });
            Self::upper_edge_ms(bucket.unwrap_or(DIST_BUCKETS - 1))
        };
        [
            ("count", n.into()),
            ("p50", percentile(50.0).into()),
            ("p90", percentile(90.0).into()),
            ("p99", percentile(99.0).into()),
        ]
    }

    fn to_json(&self) -> Value {
        Value::obj(self.fields())
    }
}

/// What `/stats` reports about answers served, in milliseconds. Fed by
/// [`AppState::speak`] alone, so every counter means the same on every
/// route.
#[derive(Default)]
struct AnswerStats {
    /// Planning latency of every answer.
    planning: Dist,
    /// Planning latency of answers that completed degraded, reported
    /// separately under `/stats` `"degradation"`.
    planning_degraded: Dist,
    /// Planning latency of answers that completed clean.
    planning_clean: Dist,
    /// Time to first sentence, of turns that produced one.
    ttfs: Dist,
    /// Gaps between consecutive planned sentences.
    gap: Dist,
    /// Turns aborted because the client hung up mid-turn.
    stream_cancellations: AtomicU64,
    /// Answers planned over a search space cut at the node cap.
    truncated_plans: AtomicU64,
}

impl AnswerStats {
    fn record_turn(&self, outcome: &VocalizationOutcome, cancelled: bool) {
        let ms = millis(outcome.stats.planning_time);
        self.planning.record(ms);
        let split =
            if outcome.stats.degraded { &self.planning_degraded } else { &self.planning_clean };
        split.record(ms);
        if outcome.stats.truncated {
            self.truncated_plans.fetch_add(1, Ordering::Relaxed);
        }
        if cancelled {
            self.stream_cancellations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl AppState {
    /// Create state over one dataset, with all cores available to the
    /// `parallel` approach and a default-sized semantic cache. Appends
    /// stay purely in memory; use [`AppState::durable`] for crash safety.
    pub fn new(table: Table) -> Self {
        Self::durable(DurableTable::memory(table))
    }

    /// Create state over an already-opened durable table (recovery runs in
    /// [`DurableTable::open`], *before* this state ever serves a request).
    pub fn durable(table: DurableTable) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        AppState {
            live: table,
            sessions: Mutex::new(HashMap::new()),
            threads,
            semantic: Some(Arc::new(SemanticCache::with_capacity_mb(DEFAULT_CACHE_MB))),
            vocalizers: Mutex::new(HashMap::new()),
            resilience: Arc::default(),
            stats: Arc::default(),
            ingest_batches: AtomicU64::new(0),
            ingest_rows: AtomicU64::new(0),
            http_metrics: None,
            debug_routes: false,
            utterance_deadline: None,
        }
    }

    /// Bound every turn's planning time, on all four answer routes: past
    /// the deadline the answer is committed through the anytime path
    /// (DESIGN.md §12) and reports `"degraded":true`. Keeps one wide-scope
    /// turn from monopolizing a serving worker for minutes.
    pub fn with_utterance_deadline(mut self, deadline: Duration) -> Self {
        self.utterance_deadline = Some(deadline);
        self
    }

    /// Override the planning-thread count used by the `parallel` approach
    /// (min 1; the server's `--threads` flag).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the semantic-cache budget in MiB (the server's `--cache-mb`
    /// flag); `0` disables cross-query caching entirely.
    pub fn with_cache_mb(mut self, mb: usize) -> Self {
        self.semantic = (mb > 0).then(|| Arc::new(SemanticCache::with_capacity_mb(mb)));
        self
    }

    /// Replace the resilience bundle (the server's `--fault-plan` flag;
    /// see `voxolap_faults::FaultPlan::parse` for the spec grammar).
    /// Vocalizers built after this call roll its injector at their sample
    /// cache's shard site and count their answers in its stats. The server
    /// binary builds the bundle itself, to share one fault injector between
    /// the durability layer (which needs it before the table opens) and
    /// the planner.
    pub fn with_resilience(mut self, resilience: Arc<Resilience>) -> Self {
        self.resilience = resilience;
        self
    }

    /// Attach the serving-layer counter block so `GET /stats` can report
    /// it. Pass the same `Arc` to [`crate::http::serve_with`].
    pub fn with_http_metrics(mut self, metrics: Arc<HttpMetrics>) -> Self {
        self.http_metrics = Some(metrics);
        self
    }

    /// Enable `GET /debug/panic`, a route that panics on purpose so the
    /// pool's panic isolation can be exercised end to end.
    pub fn with_debug_routes(mut self, on: bool) -> Self {
        self.debug_routes = on;
        self
    }

    /// Dispatch one request. Takes `&Arc<Self>` because the session
    /// transport parks callbacks that outlive the request (the upgraded
    /// connection keeps a handle on the state for every later utterance).
    pub fn handle(self: &Arc<Self>, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/health") => Response::ok("{\"status\":\"ok\"}".to_string()),
            ("GET", "/stats") => {
                let table = self.live.snapshot();
                let stats = DatasetStats::of(&table);
                let body = Value::obj([
                    ("name", stats.name.as_str().into()),
                    ("dimensions", stats.dimensions.clone().into()),
                    ("rows", stats.rows.into()),
                    ("bytes", stats.bytes.into()),
                    ("version", table.version().into()),
                    ("ingest", self.ingest_json()),
                    ("cache", self.cache_json()),
                    ("latency_ms", self.latency_json()),
                    ("degradation", self.degradation_json()),
                    ("durability", self.durability_json()),
                    ("http", self.http_json()),
                    ("sessions", Value::obj([("active", self.sessions.lock().len().into())])),
                ]);
                Response::ok(body.to_string())
            }
            ("GET", "/debug/panic") if self.debug_routes => {
                panic!("debug route: deliberate handler panic")
            }
            ("POST", "/ask") => blocking_reply(self.question_turn(req).map(|turn| {
                let mut voice = InstantVoice::default();
                self.speak(turn, &mut voice, None, None)
            })),
            ("POST", "/ingest") => self.handle_ingest(req),
            ("POST", "/query/stream") => self.handle_query_stream(req),
            ("POST", path) => {
                match path.strip_prefix("/session/").and_then(|rest| rest.strip_suffix("/input")) {
                    Some(id) if !id.is_empty() && !id.contains('/') => {
                        blocking_reply(body_fields(req, "text").and_then(|(text, approach)| {
                            self.session_turn(id, &text, &approach, None)
                        }))
                    }
                    _ => Response::error(404, "not found"),
                }
            }
            ("GET", path) => {
                match path.strip_prefix("/session/").and_then(|rest| rest.strip_suffix("/attach")) {
                    Some(id) if !id.is_empty() && !id.contains('/') => {
                        self.handle_session_attach(id)
                    }
                    _ => Response::error(404, "not found"),
                }
            }
            _ => Response::error(405, "method not allowed"),
        }
    }

    /// Semantic-cache counters for `/stats` (`null` when caching is off).
    fn cache_json(&self) -> Value {
        let Some(cache) = &self.semantic else { return Value::Null };
        let s = cache.stats();
        Value::obj([
            ("exact_hits", s.exact_hits.into()),
            ("plan_hits", s.plan_hits.into()),
            ("warm_hits", s.warm_hits.into()),
            ("replayed_rows", s.replayed_rows.into()),
            ("misses", s.misses.into()),
            ("admissions", s.admissions.into()),
            ("evictions", s.evictions.into()),
            ("exact_invalidations", s.exact_invalidations.into()),
            ("snapshot_repairs", s.snapshot_repairs.into()),
            ("repair_rows_read", s.repair_rows_read.into()),
            ("stale_serves", s.stale_serves.into()),
            ("bytes_used", s.bytes_used.into()),
            ("capacity_bytes", cache.capacity_bytes().into()),
        ])
    }

    /// Ingest counters for `/stats`: accepted batches and appended rows.
    fn ingest_json(&self) -> Value {
        Value::obj([
            ("batches", self.ingest_batches.load(Ordering::Relaxed).into()),
            ("rows", self.ingest_rows.load(Ordering::Relaxed).into()),
        ])
    }

    /// Degradation counters for `/stats`: rebuilt locks, clean and degraded
    /// answers, plus planning-latency percentiles split degraded vs clean.
    fn degradation_json(&self) -> Value {
        let s = self.resilience.stats().snapshot();
        // Serving-layer lock recoveries (http pool) count under the same
        // stat as engine-side ones: one number answers "how often did a
        // poisoned lock get rebuilt instead of crashing something".
        let http_recoveries =
            self.http_metrics.as_ref().map_or(0, |m| m.snapshot().poison_recoveries);
        Value::obj([
            ("poison_recoveries", (s.poison_recoveries + http_recoveries).into()),
            ("degraded_answers", s.degraded_answers.into()),
            ("clean_answers", s.clean_answers.into()),
            ("planning_ms_degraded", self.stats.planning_degraded.to_json()),
            ("planning_ms_clean", self.stats.planning_clean.to_json()),
        ])
    }

    /// Storage counters for `/stats` (`null` when the table is purely
    /// in-memory): WAL activity, what boot recovery did, and whether a
    /// failed fsync poisoned the log.
    fn durability_json(&self) -> Value {
        let Some(s) = self.live.stats() else { return Value::Null };
        Value::obj([
            ("fsync_mode", s.fsync_mode.into()),
            ("wal_bytes", s.wal_bytes.into()),
            ("wal_appends", s.wal_appends.into()),
            ("fsyncs", s.fsyncs.into()),
            ("fsync_failures", s.fsync_failures.into()),
            ("replayed_batches", s.replayed_batches.into()),
            ("replayed_rows", s.replayed_rows.into()),
            ("torn_tail_truncations", s.torn_tail_truncations.into()),
            ("recovery_ms", s.recovery_ms.into()),
            ("wal_poisoned", s.wal_poisoned.into()),
        ])
    }

    /// Flush and fsync the WAL; part of graceful shutdown, after the
    /// serving layer drained. A no-op for in-memory tables.
    pub fn shutdown_durability(&self) -> Result<(), DataError> {
        self.live.shutdown_clean()
    }

    /// Serving-layer counters for `/stats` (`null` when the state runs
    /// without an attached HTTP pool).
    fn http_json(&self) -> Value {
        self.http_metrics.as_ref().map_or(Value::Null, |m| m.snapshot().to_json())
    }

    /// Look up (or lazily build) the shared vocalizer for `approach`.
    /// `"concurrent"` aliases `"parallel"` so both names share one
    /// instance.
    fn vocalizer_for(&self, approach: &str) -> Result<Arc<dyn Vocalizer>, String> {
        let key = if approach == "concurrent" { "parallel" } else { approach };
        let mut cache = self.vocalizers.lock();
        if let Some(v) = cache.get(key) {
            return Ok(Arc::clone(v));
        }
        let options = ApproachOptions {
            threads: Some(self.threads),
            cache: self.semantic.clone(),
            resilience: self.resilience.clone(),
            ..ApproachOptions::default()
        };
        let v: Arc<dyn Vocalizer> = Arc::from(approach::vocalizer(key, &options)?);
        cache.insert(key.to_string(), Arc::clone(&v));
        Ok(v)
    }

    /// Planning-latency percentiles over the queries served so far, plus
    /// the streaming counters (time-to-first-sentence, inter-sentence
    /// gaps, client-abort count) and how many plans hit the node cap.
    fn latency_json(&self) -> Value {
        let stats = &self.stats;
        Value::obj(stats.planning.fields().into_iter().chain([
            ("ttfs_ms", stats.ttfs.to_json()),
            ("gap_ms", stats.gap.to_json()),
            ("stream_cancellations", stats.stream_cancellations.load(Ordering::Relaxed).into()),
            ("truncated_plans", stats.truncated_plans.load(Ordering::Relaxed).into()),
        ]))
    }

    /// **Resolve**: turn a route's words into a [`Turn`], or the reason
    /// there is none. The revision is pinned *before* parsing — the
    /// query's result layout must match the dictionaries it was parsed
    /// against — and serves the whole turn, however many ingest batches
    /// land while its sentences are still playing.
    fn resolve(&self, words: Words<'_>, approach: &str) -> Result<Turn, Stop> {
        let vocalizer = self.vocalizer_for(approach).map_err(Stop::Error)?;
        let table = self.live.snapshot();
        let query = match words {
            Words::Question(question) => {
                parse_question(table.schema(), question).map_err(Stop::error)?
            }
            Words::Command { log, text } => {
                // Replay the session's applied commands, then the new one
                // (sessions are small — tens of commands).
                let mut session = Session::new(&table);
                for cmd in log {
                    let _ = session.input(cmd);
                }
                match session.input(text).map_err(Stop::error)? {
                    SessionResponse::Help(help) => return Err(Stop::Help(help)),
                    SessionResponse::Quit => return Err(Stop::Quit),
                    SessionResponse::Updated => session.query().map_err(Stop::error)?,
                }
            }
        };
        Ok(Turn { approach: approach.to_string(), vocalizer, table, query })
    }

    /// [`resolve`](Self::resolve) the question in a one-shot request body.
    fn question_turn(&self, req: &Request) -> Result<Turn, Stop> {
        let (question, approach) = body_fields(req, "question")?;
        self.resolve(Words::Question(&question), &approach)
    }

    /// **Speak**: Algorithm 1's output loop, the only consumer of a
    /// [`SpeechStream`](voxolap_core::SpeechStream) in this crate. Starts
    /// the stream, puts the preamble on the sink before the first sentence
    /// is pulled (it needs no data; Ingest runs inside that first pull),
    /// then pulls, records and sends sentence by sentence, and closes with
    /// `done`. A route without a sink (the blocking ones) gets the same
    /// loop and the same `/stats` bookkeeping, minus the writes.
    ///
    /// The configured deadline, if any, bounds the turn on every route. A
    /// client that hung up (polled between sentences) or cannot be written
    /// to cancels the turn: sampling stops within one iteration budget.
    fn speak(
        &self,
        turn: Turn,
        voice: &mut dyn VoiceOutput,
        mut sink: Option<&mut LineSink<'_>>,
        scope_warm: Option<bool>,
    ) -> Answer {
        let t0 = Instant::now();
        let cancel = match self.utterance_deadline {
            Some(d) => CancelToken::with_deadline(t0 + d),
            None => CancelToken::new(),
        };
        // Events are only built for a route that has somewhere to send them.
        let send = |sink: &mut Option<&mut LineSink<'_>>, event: &dyn Fn() -> Value| {
            if sink.as_mut().is_some_and(|sink| !sink.send_line(&event().to_string())) {
                cancel.cancel();
            }
        };
        let mut stream = turn.vocalizer.stream(&turn.table, &turn.query, voice, cancel.clone());
        send(&mut sink, &|| preamble_event(stream.preamble(), stream.latency()));
        let mut ttfs_ms = None;
        let mut last = t0;
        loop {
            if sink.as_mut().is_some_and(|sink| sink.client_gone()) {
                cancel.cancel();
            }
            let Some(sentence) = stream.next_sentence() else { break };
            let now = Instant::now();
            let since_last = millis(now - last);
            last = now;
            let dist = if ttfs_ms.is_none() { &self.stats.ttfs } else { &self.stats.gap };
            dist.record(since_last);
            ttfs_ms.get_or_insert(since_last);
            send(&mut sink, &|| sentence_event(&sentence));
        }
        let cancelled = cancel.fired_kind() == Some(CancelKind::Client);
        let outcome = stream.finish();
        self.stats.record_turn(&outcome, cancelled);
        send(&mut sink, &|| done_event(&outcome, ttfs_ms, cancelled, scope_warm));
        Answer { approach: turn.approach, outcome }
    }

    /// `POST /query/stream`: the answer as newline-delimited JSON over
    /// chunked transfer encoding. Malformed requests fail fast with a
    /// plain `400` before the stream starts.
    fn handle_query_stream(self: &Arc<Self>, req: &Request) -> Response {
        let turn = match self.question_turn(req) {
            Ok(turn) => turn,
            Err(stop) => return blocking_reply(Err(stop)),
        };
        let state = Arc::clone(self);
        Response::streaming(move |sink| {
            state.speak(turn, &mut VirtualVoice::default(), Some(sink), None);
        })
    }

    /// One turn on session `id`, from either session transport: replay
    /// the log, apply `text`, speak the result (onto `sink`, if the
    /// transport has one), append `text` to the log. The entry's own lock
    /// is held throughout; the store's only to find or remove the entry.
    fn session_turn(
        &self,
        id: &str,
        text: &str,
        approach: &str,
        sink: Option<&mut LineSink<'_>>,
    ) -> Result<Answer, Stop> {
        let entry = Arc::clone(self.sessions.lock().entry(id.to_string()).or_default());
        let mut entry = entry.lock();
        let turn = match self.resolve(Words::Command { log: &entry.log, text }, approach) {
            Err(Stop::Quit) => {
                self.sessions.lock().remove(id);
                return Err(Stop::Quit);
            }
            resolved => resolved?,
        };
        // An in-scope follow-up (same measure + filters, e.g. a different
        // breakdown) warm-starts from cached samples (DESIGN.md §9).
        let scope = Some(format!("{:?}", turn.query.key().scope()));
        let scope_warm = self.semantic.is_some() && scope == entry.last_scope;
        let mut voice = InstantVoice::default();
        let answer = self.speak(turn, &mut voice, sink, Some(scope_warm));
        entry.log.push(text.to_string());
        entry.last_scope = scope;
        Ok(answer)
    }

    /// `POST /ingest`: append a batch of fact rows to the live table,
    /// one NDJSON object per line:
    ///
    /// ```text
    /// {"dims": ["Kahului HI", "summer"], "values": [1.0, 0.0]}
    /// ```
    ///
    /// A string dimension value names an existing leaf member; an array
    /// is a full level-1-to-leaf phrase path, creating members missing
    /// along the way (DESIGN.md §16). The batch is atomic: any malformed
    /// line, unknown member, or arity mismatch 400s (naming the line)
    /// and the table stays on its current version. Cached results are
    /// not touched here — queries against the new version invalidate
    /// stale exact entries and repair sample snapshots lazily, scanning
    /// only the appended suffix.
    fn handle_ingest(&self, req: &Request) -> Response {
        let Ok(text) = std::str::from_utf8(&req.body) else {
            return Response::error(400, "ingest body must be UTF-8 NDJSON");
        };
        let mut rows = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bad = |msg: &str| Response::error(400, &format!("line {}: {msg}", no + 1));
            let Ok(v) = Value::parse(line) else {
                return bad("expected one JSON object per line");
            };
            let Some(dims) = v["dims"].as_array() else {
                return bad("rows need a \"dims\" array");
            };
            let Some(values) = v["values"].as_array() else {
                return bad("rows need a \"values\" array");
            };
            let mut row = IngestRow {
                dims: Vec::with_capacity(dims.len()),
                values: Vec::with_capacity(values.len()),
            };
            for d in dims {
                if let Some(phrase) = d.as_str() {
                    row.dims.push(DimValue::Phrase(phrase.to_string()));
                } else if let Some(path) = d.as_array() {
                    let mut steps = Vec::with_capacity(path.len());
                    for step in path {
                        let Some(s) = step.as_str() else {
                            return bad("path steps must be strings");
                        };
                        steps.push(s.to_string());
                    }
                    row.dims.push(DimValue::Path(steps));
                } else {
                    return bad("dimension values are member phrases (string) or paths (array)");
                }
            }
            for m in values {
                let Some(x) = m.as_f64() else {
                    return bad("measure values must be numbers");
                };
                row.values.push(x);
            }
            rows.push(row);
        }
        if rows.is_empty() {
            return Response::error(400, "empty ingest batch");
        }
        match self.live.append_rows(&rows) {
            Ok(report) => {
                self.ingest_batches.fetch_add(1, Ordering::Relaxed);
                self.ingest_rows.fetch_add(report.appended as u64, Ordering::Relaxed);
                Response::ok(
                    Value::obj([
                        ("appended", report.appended.into()),
                        ("version", report.version.into()),
                        ("total_rows", report.total_rows.into()),
                        ("new_members", report.new_members.into()),
                    ])
                    .to_string(),
                )
            }
            Err(e @ DataError::Wal { .. }) => {
                // The batch is NOT acknowledged: it never published and
                // (per the fsyncgate rule) is never retried here — a
                // poisoned log refuses every later batch too, and the
                // client owns the retry against a recovered process.
                Response::error(503, &format!("ingest not durable: {e}"))
            }
            // Validation failure — storage was never touched.
            Err(e) => Response::error(400, &e.to_string()),
        }
    }

    /// `GET /session/<id>/attach`: upgrade the connection to the
    /// long-lived NDJSON session transport (DESIGN.md §15). The client
    /// then writes one JSON line per utterance:
    ///
    /// ```text
    /// {"type":"utter","text":"break down by region","approach":"holistic"?}
    /// {"type":"ping"}
    /// {"type":"bye"}
    /// ```
    ///
    /// and receives `hello`, `preamble`/`sentence`/`done` (one §11 speech
    /// stream per utterance, the events of `POST /query/stream`), `help`,
    /// `pong`, `error`, `heartbeat`, and `bye` events. Dialogue state
    /// lives server-side under the session id, shared with
    /// `POST /session/<id>/input`, so transports can be mixed and a
    /// dropped connection can re-attach and resume.
    fn handle_session_attach(self: &Arc<Self>, id: &str) -> Response {
        // Materialize the entry so re-attach after disconnect resumes
        // rather than restarts, and /stats counts the session as active.
        self.sessions.lock().entry(id.to_string()).or_default();
        // Dialogue state deliberately survives the connection: the session
        // can re-attach (or fall back to the POST route). The transport
        // writes the `hello` with its own heartbeat and idle timeout.
        let state = Arc::clone(self);
        let line_id = id.to_string();
        Response::upgrade_session(SessionUpgrade {
            id: id.to_string(),
            on_line: Arc::new(move |line, sink| state.session_line(&line_id, line, sink)),
        })
    }

    /// Handle one NDJSON line from an attached session connection.
    fn session_line(&self, id: &str, line: &str, sink: &mut LineSink<'_>) -> SessionVerdict {
        use SessionVerdict::{Close, Continue};
        let bye = |reason: &str| Value::obj([("type", "bye".into()), ("reason", reason.into())]);
        let (reply, verdict) = match Value::parse(line) {
            Err(_) => (error_event("expected one JSON object per line"), Continue),
            Ok(v) => match v["type"].as_str().unwrap_or("") {
                "ping" => (Value::obj([("type", "pong".into())]), Continue),
                "bye" => (bye("client"), Close),
                "utter" => {
                    let turn = turn_fields(&v, "text")
                        .ok_or_else(|| Stop::error("utter events need a \"text\" field"))
                        .and_then(|(text, approach)| {
                            self.session_turn(id, &text, &approach, Some(sink))
                        });
                    match turn {
                        // The whole answer, `done` included, is already out.
                        Ok(_) => return Continue,
                        Err(Stop::Help(text)) => {
                            (Value::obj([("type", "help".into()), ("text", text.into())]), Continue)
                        }
                        Err(Stop::Quit) => (bye("quit"), Close),
                        Err(Stop::Error(message)) => (error_event(&message), Continue),
                    }
                }
                other => (error_event(&format!("unknown event type {other:?}")), Continue),
            },
        };
        sink.send_line(&reply.to_string());
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxolap_data::flights::FlightsConfig;

    fn raw_state() -> AppState {
        AppState::new(FlightsConfig { rows: 8_000, seed: 42 }.generate())
    }

    fn state() -> Arc<AppState> {
        Arc::new(raw_state())
    }

    /// What `--fault-plan <spec>` serves.
    fn faulty_state(spec: &str) -> AppState {
        let plan = voxolap_faults::FaultPlan::parse(spec).unwrap();
        raw_state().with_resilience(Arc::new(Resilience::new(Some(plan))))
    }

    fn post(state: &Arc<AppState>, path: &str, body: &str) -> Response {
        state.handle(&Request::new("POST", path, body.as_bytes()))
    }

    fn get(state: &Arc<AppState>, path: &str) -> Response {
        state.handle(&Request::new("GET", path, &[]))
    }

    #[test]
    fn health_and_stats() {
        let s = state();
        assert_eq!(get(&s, "/health").body, "{\"status\":\"ok\"}");
        let stats = get(&s, "/stats");
        assert_eq!(stats.status, 200);
        assert!(stats.body.contains("\"rows\":8000"), "{}", stats.body);
    }

    #[test]
    fn stats_exposes_cache_counters_and_latency_percentiles() {
        let s = state();
        let ask =
            "{\"question\": \"cancellation probability by season\", \"approach\": \"optimal\"}";
        assert_eq!(post(&s, "/ask", ask).status, 200);
        // The identical repeat is served from the semantic cache.
        assert_eq!(post(&s, "/ask", ask).status, 200);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert_eq!(stats["cache"]["exact_hits"].as_u64().unwrap(), 1, "{stats:?}");
        assert_eq!(stats["cache"]["plan_hits"].as_u64(), Some(1), "the miss kept its plan");
        assert_eq!(stats["cache"]["misses"].as_u64().unwrap(), 1);
        assert_eq!(stats["cache"]["admissions"].as_u64().unwrap(), 1);
        assert!(stats["cache"]["capacity_bytes"].as_u64().unwrap() > 0);
        assert_eq!(stats["latency_ms"]["count"].as_u64().unwrap(), 2);
        assert!(stats["latency_ms"]["p50"].as_f64().unwrap() >= 0.0);
        assert!(
            stats["latency_ms"]["p99"].as_f64().unwrap()
                >= stats["latency_ms"]["p50"].as_f64().unwrap()
        );
    }

    #[test]
    fn stats_counts_the_rows_a_warm_start_replays() {
        let s = state();
        let ask = |q: &str| post(&s, "/ask", &format!("{{\"question\": \"{q}\"}}")).status;
        let cache = || Value::parse(&get(&s, "/stats").body).unwrap()["cache"].clone();
        assert_eq!(ask("cancellation probability by season"), 200);
        assert_eq!(cache()["replayed_rows"].as_u64(), Some(0), "a cold answer replays nothing");
        // Same scope, other group-by: the follow-up replays the rows the
        // first answer's snapshot names — the cost `rows_read` leaves out.
        assert_eq!(ask("cancellation probability by region"), 200);
        let cache = cache();
        assert_eq!(cache["warm_hits"].as_u64(), Some(1), "{cache:?}");
        assert!((1..=8000).contains(&cache["replayed_rows"].as_u64().unwrap()), "{cache:?}");
    }

    #[test]
    fn cache_mb_zero_disables_the_semantic_cache() {
        let s = Arc::new(raw_state().with_cache_mb(0));
        let ask =
            "{\"question\": \"cancellation probability by season\", \"approach\": \"optimal\"}";
        assert_eq!(post(&s, "/ask", ask).status, 200);
        assert_eq!(post(&s, "/ask", ask).status, 200);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert!(stats["cache"].is_null(), "{stats:?}");
    }

    #[test]
    fn ask_returns_spoken_answer() {
        let s = state();
        let r = post(
            &s,
            "/ask",
            "{\"question\": \"how does the cancellation probability depend on region and season?\"}",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert!(v["text"].as_str().unwrap().contains("cancellation probability"));
        assert_eq!(v["approach"], "holistic");
        assert!(v["latency_ms"].as_f64().unwrap() < 500.0);
    }

    #[test]
    fn ask_with_prior_approach() {
        let s = state();
        let r = post(
            &s,
            "/ask",
            "{\"question\": \"cancellation probability by season\", \"approach\": \"prior\"}",
        );
        assert_eq!(r.status, 200);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["approach"], "prior");
    }

    #[test]
    fn ask_with_parallel_approach() {
        let s = Arc::new(raw_state().with_threads(2));
        let r = post(
            &s,
            "/ask",
            "{\"question\": \"cancellation probability by season\", \"approach\": \"parallel\"}",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["approach"], "parallel");
        assert!(v["text"].as_str().unwrap().contains("cancellation probability"));
    }

    /// `parallel` at one thread (`--threads 1`, or a one-core host) is the
    /// one-thread engine: it is named `holistic`, while replies still echo
    /// the approach asked for. Every thread count streams on the virtual
    /// voice.
    #[test]
    fn parallel_at_one_thread_streams_on_the_virtual_voice() {
        for (threads, name) in [(1, "holistic"), (2, "holistic-parallel")] {
            let s = Arc::new(raw_state().with_threads(threads));
            assert_eq!(s.vocalizer_for("parallel").unwrap().name(), name, "{threads}");
        }
        let s = Arc::new(raw_state().with_threads(1));
        let ask =
            "{\"question\": \"cancellation probability by season\", \"approach\": \"parallel\"}";
        let r = post(&s, "/ask", ask);
        assert_eq!(Value::parse(&r.body).unwrap()["approach"], "parallel", "{}", r.body);
        assert!(post(&s, "/query/stream", ask).stream.is_some());
    }

    #[test]
    fn session_accumulates_state() {
        let s = state();
        let r1 = post(&s, "/session/w1/input", "{\"text\": \"break down by region\"}");
        assert_eq!(r1.status, 200, "{}", r1.body);
        let r2 = post(&s, "/session/w1/input", "{\"text\": \"break down by season\"}");
        let v = Value::parse(&r2.body).unwrap();
        assert!(v["preamble"].as_str().unwrap().contains("region and season"), "{}", r2.body);
        // A different session starts fresh.
        let r3 = post(&s, "/session/w2/input", "{\"text\": \"break down by season\"}");
        let v = Value::parse(&r3.body).unwrap();
        assert!(!v["preamble"].as_str().unwrap().contains("region and"));
    }

    #[test]
    fn session_help_and_quit() {
        let s = state();
        let help = post(&s, "/session/w1/input", "{\"text\": \"help\"}");
        assert!(help.body.contains("\"help\""));
        let quit = post(&s, "/session/w1/input", "{\"text\": \"quit\"}");
        assert!(quit.body.contains("\"ended\":true"));
    }

    /// A planning turn holds up nothing but its own session. Every
    /// sample-cache stripe lock of the `POST /session/a/input` below is
    /// stalled 200 µs by a latency-only shard fault (thousands of them: the
    /// turn reads the whole table); while it is in flight `/stats` answers
    /// and a turn on session `b` completes.
    #[test]
    fn a_planning_session_turn_blocks_neither_stats_nor_other_sessions() {
        let plan = "seed=1,shard=1.0,latency_us=200,latency_only";
        let s = Arc::new(faulty_state(plan));
        let slow = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                post(&s, "/session/a/input", "{\"text\": \"break down by region\"}").status
            })
        };
        // Session `a` is listed from the moment its turn starts.
        let active =
            || Value::parse(&get(&s, "/stats").body).unwrap()["sessions"]["active"].as_u64();
        while active() != Some(1) {
            std::thread::yield_now();
        }
        // `prior` has no sample cache, so this turn is not stalled itself.
        let other = "{\"text\": \"break down by season\", \"approach\": \"prior\"}";
        assert_eq!(post(&s, "/session/b/input", other).status, 200);
        assert!(!slow.is_finished(), "/stats and session b had to wait for session a's turn");
        assert_eq!(slow.join().unwrap(), 200);
    }

    #[test]
    fn stats_http_section_reflects_attached_metrics() {
        // Without an attached pool the section is null…
        let s = state();
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert!(stats["http"].is_null(), "{stats:?}");
        // …and with one it mirrors the shared counters.
        let metrics = HttpMetrics::new();
        metrics.requests.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        metrics.panics.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let s = Arc::new(raw_state().with_http_metrics(metrics));
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert_eq!(stats["http"]["requests"].as_u64().unwrap(), 3, "{stats:?}");
        assert_eq!(stats["http"]["panics"].as_u64().unwrap(), 1);
    }

    #[test]
    fn debug_panic_route_is_off_by_default() {
        let s = state();
        assert_eq!(get(&s, "/debug/panic").status, 404);
    }

    #[test]
    #[should_panic(expected = "deliberate handler panic")]
    fn debug_panic_route_panics_when_enabled() {
        let s = Arc::new(raw_state().with_debug_routes(true));
        let _ = get(&s, "/debug/panic");
    }

    #[test]
    fn vocalizers_are_cached_per_approach() {
        let s = state();
        let a = s.vocalizer_for("holistic").unwrap();
        let b = s.vocalizer_for("holistic").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the instance");
        // The legacy alias shares the parallel vocalizer.
        let p = s.vocalizer_for("parallel").unwrap();
        let c = s.vocalizer_for("concurrent").unwrap();
        assert!(Arc::ptr_eq(&p, &c));
        assert!(s.vocalizer_for("quantum").is_err());
    }

    #[test]
    fn stats_reports_streaming_counters() {
        let s = state();
        let ask = "{\"question\": \"cancellation probability by region and season\"}";
        assert_eq!(post(&s, "/ask", ask).status, 200);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        let planning = &stats["latency_ms"];
        assert_eq!(planning["ttfs_ms"]["count"].as_u64().unwrap(), 1, "{stats:?}");
        assert!(planning["ttfs_ms"]["p50"].as_f64().unwrap() >= 0.0);
        assert!(planning["gap_ms"]["count"].as_u64().unwrap() >= 1, "{stats:?}");
        assert_eq!(planning["stream_cancellations"].as_u64().unwrap(), 0);
    }

    #[test]
    fn query_stream_route_returns_a_streaming_response() {
        let s = state();
        let r = post(&s, "/query/stream", "{\"question\": \"cancellation probability by season\"}");
        assert_eq!(r.status, 200);
        assert!(r.stream.is_some(), "must be a chunked streaming response");
        // Malformed bodies and unknown approaches fail fast, pre-stream.
        assert_eq!(post(&s, "/query/stream", "not json").status, 400);
        let bad = "{\"question\": \"by season\", \"approach\": \"quantum\"}";
        assert_eq!(post(&s, "/query/stream", bad).status, 400);
    }

    #[test]
    fn fault_free_plan_counts_clean_answers_and_omits_degraded_field() {
        // A plan with a seed but no fault sites: the resilience machinery
        // is live yet every answer completes clean.
        let s = Arc::new(faulty_state("seed=1"));
        let r = post(&s, "/ask", "{\"question\": \"cancellation probability by season\"}");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(!r.body.contains("\"degraded\""), "{}", r.body);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        let d = &stats["degradation"];
        assert_eq!(d["degraded_answers"].as_u64().unwrap(), 0, "{stats:?}");
        assert_eq!(d["clean_answers"].as_u64().unwrap(), 1, "{stats:?}");
        assert_eq!(d["planning_ms_clean"]["count"].as_u64().unwrap(), 1, "{stats:?}");
    }

    #[test]
    fn stats_degradation_counts_clean_answers_without_a_fault_plan() {
        let s = state();
        for approach in ["holistic", "optimal"] {
            let ask = format!("{{\"question\": \"by season\", \"approach\": \"{approach}\"}}");
            assert_eq!(post(&s, "/ask", &ask).status, 200);
        }
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        let d = &stats["degradation"];
        let Value::Object(fields) = d else { panic!("{stats:?}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "poison_recoveries",
                "degraded_answers",
                "clean_answers",
                "planning_ms_degraded",
                "planning_ms_clean"
            ],
            "only counters that can move"
        );
        assert_eq!(d["degraded_answers"].as_u64(), Some(0), "{stats:?}");
        assert_eq!(d["clean_answers"].as_u64(), Some(2), "{stats:?}");
        assert_eq!(stats["latency_ms"]["count"].as_u64(), Some(2), "every answer served");
    }

    /// A deadline cut is marked on every approach, not only the holistic
    /// engines: `optimal`'s scoring loop is cut and says so.
    #[test]
    fn a_deadline_cut_on_optimal_is_marked_degraded() {
        let s = Arc::new(raw_state().with_utterance_deadline(Duration::from_millis(1)));
        let ask = "{\"question\": \"cancellation probability by region and season\", \
                   \"approach\": \"optimal\"}";
        let r = post(&s, "/ask", ask);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["degraded"].as_bool(), Some(true), "{}", r.body);
        assert!(v["text"].as_str().unwrap().contains("cancellation probability"), "{}", r.body);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        let d = &stats["degradation"];
        assert_eq!(d["degraded_answers"].as_u64(), Some(1), "{stats:?}");
        assert_eq!(d["planning_ms_degraded"]["count"].as_u64(), Some(1), "{stats:?}");
        assert_eq!(d["planning_ms_clean"]["count"].as_u64(), Some(0), "{stats:?}");
    }

    /// One NDJSON ingest line that clones `row` of the pinned table, so
    /// tests can append rows that are valid under the flights schema.
    fn echo_line(table: &Table, row: usize) -> String {
        use voxolap_data::schema::{DimId, MeasureId};
        let schema = table.schema();
        let dims: Vec<Value> = (0..schema.dimensions().len())
            .map(|d| {
                let id = DimId(d as u8);
                schema.dimension(id).member(table.member_at(id, row)).phrase.as_str().into()
            })
            .collect();
        let values: Vec<Value> = (0..schema.measures().len())
            .map(|m| table.measure_value(MeasureId(m as u8), row).into())
            .collect();
        Value::obj([("dims", Value::Array(dims)), ("values", Value::Array(values))]).to_string()
    }

    #[test]
    fn ingest_appends_rows_and_bumps_version() {
        let s = state();
        let table = s.live.snapshot();
        let batch = format!("{}\n{}\n", echo_line(&table, 0), echo_line(&table, 1));
        let r = post(&s, "/ingest", &batch);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = Value::parse(&r.body).unwrap();
        assert_eq!(v["appended"].as_u64(), Some(2), "{}", r.body);
        assert_eq!(v["version"].as_u64(), Some(1));
        assert_eq!(v["total_rows"].as_u64(), Some(8_002));
        assert_eq!(v["new_members"].as_u64(), Some(0));
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert_eq!(stats["rows"].as_u64(), Some(8_002), "{stats:?}");
        assert_eq!(stats["version"].as_u64(), Some(1));
        assert_eq!(stats["ingest"]["batches"].as_u64(), Some(1));
        assert_eq!(stats["ingest"]["rows"].as_u64(), Some(2));
    }

    /// A failed fsync poisons the WAL (fsyncgate): the batch it hit is not
    /// acknowledged, every later batch is refused before a revision is
    /// built, and queries keep answering.
    #[test]
    fn a_poisoned_wal_refuses_ingest_and_keeps_answering() {
        use voxolap_data::{DurabilityOptions, FsyncMode};
        use voxolap_faults::{FaultInjector, FaultPlan};
        let dir = std::env::temp_dir().join(format!("voxolap_api_fsync_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let table = FlightsConfig { rows: 8_000, seed: 42 }.generate();
        let plan = FaultPlan::parse("fsync=1.0").unwrap();
        let options = DurabilityOptions {
            fsync_mode: FsyncMode::Always,
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..DurabilityOptions::default()
        };
        let (durable, _) = DurableTable::open(table.clone(), &dir, options).unwrap();
        let s = Arc::new(AppState::durable(durable));
        let batch = format!("{}\n", echo_line(&table, 0));
        let first = post(&s, "/ingest", &batch);
        assert_eq!(first.status, 503, "{}", first.body);
        assert!(first.body.contains("not durable"), "{}", first.body);
        let second = post(&s, "/ingest", &batch);
        assert_eq!(second.status, 503, "{}", second.body);
        let ask = post(&s, "/ask", "{\"question\": \"cancellation probability by season\"}");
        assert_eq!(ask.status, 200, "{}", ask.body);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert_eq!(stats["version"].as_u64(), Some(0), "nothing was published: {stats:?}");
        assert_eq!(stats["durability"]["wal_poisoned"].as_bool(), Some(true), "{stats:?}");
        assert_eq!(stats["durability"]["fsync_failures"].as_u64(), Some(1), "{stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_rejects_bad_batches_atomically() {
        let s = state();
        let table = s.live.snapshot();
        // Malformed second line: the error names it, nothing is applied.
        let batch = format!("{}\nnot json\n", echo_line(&table, 0));
        let r = post(&s, "/ingest", &batch);
        assert_eq!(r.status, 400);
        assert!(r.body.contains("line 2"), "{}", r.body);
        // Unknown member phrase: rejected by the dictionary, atomically.
        let r = post(&s, "/ingest", "{\"dims\": [\"Atlantis\"], \"values\": [1.0]}");
        assert_eq!(r.status, 400, "{}", r.body);
        // Empty batches are refused too.
        assert_eq!(post(&s, "/ingest", "\n\n").status, 400);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert_eq!(stats["version"].as_u64(), Some(0), "{stats:?}");
        assert_eq!(stats["rows"].as_u64(), Some(8_000));
        assert_eq!(stats["ingest"]["batches"].as_u64(), Some(0));
    }

    /// 100 000 seeded log-uniform latencies (10 µs … 100 s): every
    /// percentile `Dist` reports is within 10 % of exact nearest-rank, and
    /// the `/stats` body does not grow with them (bar the digits of `count`).
    #[test]
    fn dist_percentiles_within_ten_percent_in_fixed_memory() {
        let s = state();
        let few = get(&s, "/stats").body.len();
        let mut x = 42u64;
        let mut exact: Vec<f64> = (0..100_000)
            .map(|_| {
                // Knuth's 64-bit LCG; the high 53 bits make a unit float.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
                10f64.powf(unit * 7.0 - 2.0)
            })
            .collect();
        for &ms in &exact {
            s.stats.ttfs.record(ms);
        }
        exact.sort_by(f64::total_cmp);
        let body = get(&s, "/stats").body;
        let ttfs = &Value::parse(&body).unwrap()["latency_ms"]["ttfs_ms"];
        assert_eq!(ttfs["count"].as_u64(), Some(100_000));
        for (key, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            let want = exact[(p * (exact.len() - 1) as f64).round() as usize];
            let got = ttfs[key].as_f64().unwrap();
            assert!((got / want - 1.0).abs() <= 0.10, "{key}: {got} vs exact {want}");
        }
        assert!(body.len() <= few + 64, "{} -> {} bytes", few, body.len());
    }

    #[test]
    fn append_invalidates_exact_answers_and_repairs_snapshots() {
        let s = state();
        let ask = "{\"question\": \"cancellation probability by season\"}";
        assert_eq!(post(&s, "/ask", ask).status, 200);
        let table = s.live.snapshot();
        let batch: String = (0..6).map(|r| format!("{}\n", echo_line(&table, r))).collect();
        assert_eq!(post(&s, "/ingest", &batch).status, 200);
        // The repeat is no longer an exact hit: the entry is version-stale,
        // so the planner invalidates it and replans, repairing the cached
        // sample snapshot by scanning only the 6 appended rows.
        let r = post(&s, "/ask", ask);
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(!r.body.contains("\"stale\""), "{}", r.body);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        let cache = &stats["cache"];
        assert_eq!(cache["exact_invalidations"].as_u64(), Some(1), "{stats:?}");
        assert!(cache["snapshot_repairs"].as_u64().unwrap() >= 1, "{stats:?}");
        // DESIGN §16's O(suffix) promise: repair happened, and read no
        // more than what was appended.
        assert!((1..=6).contains(&cache["repair_rows_read"].as_u64().unwrap()), "{stats:?}");
        assert_eq!(cache["stale_serves"].as_u64(), Some(0), "{stats:?}");
        // Same question again, no append in between: exact hit.
        let rescored = post(&s, "/ask", ask);
        assert_eq!(rescored.status, 200);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert_eq!(stats["cache"]["exact_hits"].as_u64(), Some(1), "{stats:?}");
        assert_eq!(stats["cache"]["plan_hits"].as_u64(), Some(0), "{stats:?}");
        // And again: the plan scored a moment ago is beside the aggregates,
        // and the answer is the same in everything but its timing.
        let kept = post(&s, "/ask", ask);
        let stats = Value::parse(&get(&s, "/stats").body).unwrap();
        assert_eq!(stats["cache"]["exact_hits"].as_u64(), Some(2), "{stats:?}");
        assert_eq!(stats["cache"]["plan_hits"].as_u64(), Some(1), "{stats:?}");
        let untimed = |r: &Response| {
            let Value::Object(fields) = Value::parse(&r.body).unwrap() else {
                panic!("{}", r.body)
            };
            fields.into_iter().filter(|(k, _)| k != "latency_ms").collect::<Vec<_>>()
        };
        assert_eq!(untimed(&kept), untimed(&rescored));
    }

    #[test]
    fn bad_requests_get_400s() {
        let s = state();
        assert_eq!(post(&s, "/ask", "not json").status, 400);
        assert_eq!(post(&s, "/ask", "{\"question\": \"gibberish xyz\"}").status, 400);
        assert_eq!(
            post(&s, "/ask", "{\"question\": \"by region\", \"approach\": \"quantum\"}").status,
            400
        );
        assert_eq!(post(&s, "/session/w1/input", "{\"text\": \"make me a sandwich\"}").status, 400);
        assert_eq!(post(&s, "/session//input", "{\"text\": \"help\"}").status, 404);
        assert_eq!(get(&s, "/nope").status, 404);
    }
}
