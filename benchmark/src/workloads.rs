//! The four workloads: the real server in-process, driven over loopback
//! sockets with one request in flight at a time (beside it, on
//! `live_append`, the open-loop writer).
//!
//! Each workload exists to load a different set of layers (see
//! [`Workload::why`] and the README); an optimisation should move the
//! workload that exercises its mechanism and leave the others flat.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::parallel::ParallelHolistic;
use voxolap_core::voice::{InstantVoice, VirtualVoice, VoiceOutput};
use voxolap_core::{CancelToken, Vocalizer};
use voxolap_data::flights::FlightsConfig;
use voxolap_data::{
    DurabilityOptions, DurableTable, FsyncMode, IngestRow, LiveTable, RecoveryReport, Table,
};
use voxolap_engine::query::Query;
use voxolap_engine::semantic::SemanticCache;
use voxolap_faults::Resilience;
use voxolap_json::Value;
use voxolap_server::{serve_with, AppState, HttpMetrics, ServerConfig, ServerHandle};
use voxolap_voice::question::parse_question;
use voxolap_voice::session::Session;
use voxolap_voice::tts::RealTimeVoice;

use crate::client::{Answer, Conn};
use crate::host;
use crate::quality::{Judge, Judged};
use crate::script::{self, Question};
use crate::tracer::Tracer;

/// The paper's scale (§5: 5.3 M flights).
pub const PAPER_ROWS: usize = 5_300_000;
/// Small enough that one answer scans the whole table and admits an exact
/// cache entry.
pub const SMALL_ROWS: usize = 200_000;
/// `--smoke` scale for both.
pub const SMOKE_ROWS: usize = 20_000;
/// The product's default table and planner seed; `--seed` never reaches
/// either.
pub const TABLE_SEED: u64 = 42;
/// Per-utterance planning bound on `session_drill`.
pub const UTTERANCE_DEADLINE: Duration = Duration::from_secs(4);
/// `live_append` writer: batch size and open-loop rate. The server caps a
/// request body at 64 KiB, which a batch of 500 of the longest rows (about
/// 110 bytes each as NDJSON) stays under; a 2 000-row batch is a `413`.
pub const BATCH_ROWS: usize = 500;
pub const APPENDS_PER_S: f64 = 8.0;
/// Batches generated per run: thirty seconds' worth, four times what a
/// pass of `live_append` takes, and every pass sends them from the first.
const LIVE_BATCHES: usize = 240;
/// Set-ups per untraced run; `setup_s` is their median. Three, so that
/// the window, not setting up, gets the run's time.
pub const SETUP_REPEATS: usize = 3;
/// Where `result.json`, `trace.json` and the durable table's scratch
/// directory go, relative to the repository root `run.sh` starts in.
pub const OUT_DIR: &str = "benchmark/out";
/// Most client threads any workload runs: `live_append`'s reader and
/// writer. Every other workload has one.
pub const CLIENT_THREADS_MAX: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdPaper,
    ColdPaperPar,
    SessionDrill,
    LiveAppend,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdPaper, Workload::ColdPaperPar, Workload::SessionDrill, Workload::LiveAppend];

    /// The workloads `BENCHMARK.json` lists, which the driver runs and
    /// gates on. The runs the driver makes must fit its time cap, and three
    /// workloads leave each run a window long enough for the best-of
    /// metrics to repeat on a shared host. `cold_paper_par` is the one left
    /// to `run`, `trace` and `compare`: its planner threads take every core
    /// of the host, so whatever else the host runs is in its timings.
    pub const GATED: [Workload; 3] =
        [Workload::ColdPaper, Workload::SessionDrill, Workload::LiveAppend];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPaper => "cold_paper",
            Workload::ColdPaperPar => "cold_paper_par",
            Workload::SessionDrill => "session_drill",
            Workload::LiveAppend => "live_append",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — the line `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdPaper => {
                "paper headline: 5.3M rows, 1 client, cold cache for every question; tree build, morsel scan, agg_of_block, observe and UCT do all the work"
            }
            Workload::ColdPaperPar => {
                "same questions through the parallel engine (sharded cache, morsel pool, lock-free UCT): shows whether threads help"
            }
            Workload::SessionDrill => {
                "200k rows, one attached session, 30% new scopes, 30% follow-ups, 40% exact repeats: cache lookup, plan_from_exact, warm start, session transport; scanning does little"
            }
            Workload::LiveAppend => {
                "200k-row durable table, open-loop 500-row ingest at 8/s beside one reader: WAL, copy-on-append, MVCC pin, invalidation and repair"
            }
        }
    }

    pub fn rows(self, smoke: bool) -> usize {
        match (smoke, self) {
            (true, _) => SMOKE_ROWS,
            (false, Workload::ColdPaper | Workload::ColdPaperPar) => PAPER_ROWS,
            (false, Workload::SessionDrill | Workload::LiveAppend) => SMALL_ROWS,
        }
    }

    fn approach(self) -> &'static str {
        if self == Workload::ColdPaperPar {
            "parallel"
        } else {
            "holistic"
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Target length of the measuring window, in seconds a client spends
    /// with a request in flight.
    pub window_s: f64,
    pub smoke: bool,
    /// Number of set-ups (their median is `setup_s`).
    pub setups: usize,
    /// Ask whole passes only — as many as come nearest to the window — so
    /// every run measures the same mix of questions; traced stretches are
    /// too short for that and stop mid-pass.
    pub whole_passes: bool,
}

/// One request as asked, answered and (when traced) replayed.
#[derive(Debug, Clone)]
pub struct Asked {
    /// In which pass (0 on `cold_*`) and as its how-manieth request this
    /// was asked: the untraced and traced stretches of a traced pass ask
    /// the same questions in the same order, so equal slots pair up.
    pub slot: (usize, usize),
    pub label: String,
    pub query: Query,
    pub answer: Answer,
    /// Process CPU seconds (user + system) while the request was in
    /// flight: the server's and the client's, and on `live_append` the
    /// writer's and the append's share as well.
    pub cpu_s: f64,
    pub judged: Option<Result<Judged, String>>,
    pub replay: Option<ReplayTimes>,
}

/// Layer times of the in-process replay of one request, in ms.
#[derive(Debug, Clone, Default)]
pub struct ReplayTimes {
    pub parse_ms: f64,
    pub stream_open_ms: f64,
    pub sentence_ms: Vec<f64>,
}

/// One `POST /ingest` of the open-loop writer.
#[derive(Debug, Clone)]
pub struct Append {
    /// Due time → acknowledgement, so a stalled server's backlog counts.
    pub latency_ms: f64,
    /// How late the generator itself sent the batch.
    pub lateness_ms: f64,
    /// Table version the server acknowledged.
    pub version: Option<u64>,
    pub error: Option<String>,
}

#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub health_rtt_us: Vec<f64>,
    pub keepalive_rtt_us: Vec<f64>,
    pub attach_ms: Vec<f64>,
}

/// Everything one run of a workload observed.
pub struct Outcome {
    pub config: RunConfig,
    /// Spans were recorded and every request was replayed in-process.
    pub traced: bool,
    pub setup_s: Vec<f64>,
    pub asked: Vec<Asked>,
    /// Seconds the clients were busy (the closed-loop window).
    pub window_s: f64,
    pub cpu_s: f64,
    /// Peak resident set while a pass was served, median over the passes,
    /// above what the benchmark itself held before the server was built
    /// (its own copy of the table and its inputs).
    pub rss_peak_mb: f64,
    pub appends: Vec<Append>,
    /// `GET /stats` at workload end, and how long it took.
    pub stats: Value,
    pub stats_ms: f64,
    pub probes: Probes,
    pub recovery: Option<RecoveryReport>,
    /// Correctness failures that are not a single failed request (a lost
    /// acknowledged batch, a session that did not close, …).
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn rows(&self) -> usize {
        self.config.workload.rows(self.config.smoke)
    }

    pub fn attempted(&self) -> u64 {
        (self.asked.len() + self.appends.len()) as u64
    }

    /// Requests that did not complete correctly: transport or protocol
    /// errors, cancelled answers, answers whose baseline does not parse,
    /// unacknowledged appends.
    pub fn failed(&self) -> u64 {
        let answers = self
            .asked
            .iter()
            .filter(|a| a.answer.error.is_some() || matches!(a.judged, Some(Err(_))))
            .count();
        let appends = self.appends.iter().filter(|a| a.error.is_some()).count();
        (answers + appends) as u64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.failures.is_empty() && !self.asked.is_empty()
    }
}

/// The real server around a replaceable [`AppState`], so a cold question
/// can start from a fresh state without rebinding the listener. The slot
/// is empty only between two requests of the one client that replaces it.
struct Served {
    handle: ServerHandle,
    addr: SocketAddr,
    slot: Arc<RwLock<Option<Arc<AppState>>>>,
    metrics: Arc<HttpMetrics>,
}

impl Served {
    fn start(build: impl FnOnce(Arc<HttpMetrics>) -> AppState) -> std::io::Result<Served> {
        let metrics = HttpMetrics::new();
        let slot = Arc::new(RwLock::new(Some(Arc::new(build(metrics.clone())))));
        let config =
            ServerConfig { threads: host::nproc(), log_requests: false, ..ServerConfig::default() };
        let handler_slot = Arc::clone(&slot);
        let handle = serve_with("127.0.0.1:0", config, metrics.clone(), move |req| {
            let state = handler_slot.read().expect("state slot poisoned").clone();
            state.expect("no request is in flight while the state is replaced").handle(req)
        })?;
        Ok(Served { addr: handle.addr, handle, slot, metrics })
    }

    /// Drop the served state and wait until the worker that streamed its
    /// last answer has let go of its handle: the table is freed and a data
    /// directory closed when this returns.
    fn retire(&self) {
        let old = self.slot.write().expect("state slot poisoned").take();
        if let Some(old) = old {
            let patience = Instant::now() + Duration::from_secs(1);
            while Arc::strong_count(&old) > 1 && Instant::now() < patience {
                std::thread::yield_now();
            }
        }
    }

    /// Retire the served state, then build and serve its successor: the
    /// old table is gone before the new one is allocated, so peak memory
    /// holds one served copy, as a restarted server's would.
    fn replace(&self, build: impl FnOnce() -> AppState) {
        self.retire();
        *self.slot.write().expect("state slot poisoned") = Some(Arc::new(build()));
    }

    fn state(&self) -> Arc<AppState> {
        self.slot.read().expect("state slot poisoned").clone().expect("a state is being served")
    }
}

fn generate(rows: usize) -> Table {
    FlightsConfig { rows, seed: TABLE_SEED }.generate()
}

fn durability() -> DurabilityOptions {
    DurabilityOptions { fsync_mode: FsyncMode::Batch, ..DurabilityOptions::default() }
}

/// A set-up environment: the benchmark's own copy of the table (for
/// judging and for fresh states) and the serving stack.
struct Env {
    table: Table,
    /// Resident set just before the server was built: the benchmark's own
    /// table copy and inputs, which `rss_peak_mb` leaves out.
    own_rss_mb: f64,
    served: Served,
    data_dir: Option<PathBuf>,
}

/// Table generation + open + bind + one untimed warm-up request: what
/// `setup_s` times.
fn set_up(cfg: &RunConfig, nth: usize) -> Result<Env, String> {
    let table = generate(cfg.workload.rows(cfg.smoke));
    let own_rss_mb = host::rss_mb();
    let mut data_dir = None;
    let served = match cfg.workload {
        Workload::ColdPaper | Workload::ColdPaperPar => {
            let copy = table.clone();
            Served::start(|m| AppState::new(copy).with_http_metrics(m))
        }
        Workload::SessionDrill => {
            let copy = table.clone();
            Served::start(|m| {
                AppState::new(copy).with_http_metrics(m).with_utterance_deadline(UTTERANCE_DEADLINE)
            })
        }
        Workload::LiveAppend => {
            let dir = scratch_dir(&format!("setup-{nth}"))?;
            let (durable, _) = DurableTable::open(table.clone(), &dir, durability())
                .map_err(|e| format!("open durable table: {e}"))?;
            data_dir = Some(dir);
            Served::start(|m| AppState::durable(durable).with_http_metrics(m))
        }
    }
    .map_err(|e| format!("bind server: {e}"))?;
    let warm = Conn::connect(served.addr)
        .map_err(|e| format!("connect: {e}"))?
        .ask_stream(script::WARMUP_QUESTION, cfg.workload.approach());
    if let Some(e) = warm.error {
        return Err(format!("warm-up request failed: {e}"));
    }
    Ok(Env { table, own_rss_mb, served, data_dir })
}

fn tear_down(env: Env) {
    let Env { served, data_dir, .. } = env;
    served.handle.shutdown();
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The planner configuration `voxolap-server` builds its vocalizers with
/// (`make_vocalizer` is private there; a drift shows up as replay times
/// that stop adding up to the client's).
pub fn server_planner_config() -> HolisticConfig {
    HolisticConfig {
        min_samples_per_sentence: 8_000,
        resample_size: 200,
        ..HolisticConfig::default()
    }
}

/// Which voice the server paces a stream with on each route.
#[derive(Clone, Copy)]
enum Pace {
    /// `/query/stream`, cooperative planner.
    Virtual,
    /// `/query/stream`, parallel planner (2 000 chars/s wall clock).
    RealTime,
    /// Session transport.
    Instant,
}

/// In-process replay of traced requests: the same question against a
/// mirror of the table and a shadow semantic cache that has seen exactly
/// the queries the server's has, timed layer by layer through public
/// functions.
struct Replayer<'t> {
    tracer: &'t Tracer,
    workload: Workload,
    live: Arc<LiveTable>,
    cache: Arc<SemanticCache>,
    vocalizer: Box<dyn Vocalizer>,
    /// Commands a session has applied so far (the server replays them per
    /// utterance; so does the replay).
    log: Vec<String>,
}

impl<'t> Replayer<'t> {
    fn new(tracer: &'t Tracer, workload: Workload, live: Arc<LiveTable>) -> Self {
        let (cache, vocalizer) = Self::fresh_planner(workload);
        Replayer { tracer, workload, live, cache, vocalizer, log: Vec::new() }
    }

    fn fresh_planner(workload: Workload) -> (Arc<SemanticCache>, Box<dyn Vocalizer>) {
        let cache = Arc::new(SemanticCache::with_capacity_mb(64));
        let vocalizer: Box<dyn Vocalizer> = match workload {
            Workload::ColdPaperPar => Box::new(
                ParallelHolistic::new(server_planner_config())
                    .with_threads(host::nproc())
                    .with_cache(Arc::clone(&cache)),
            ),
            Workload::SessionDrill => Box::new(
                Holistic::new(server_planner_config())
                    .with_cache(Arc::clone(&cache))
                    .with_resilience(Arc::new(Resilience::default())),
            ),
            _ => Box::new(Holistic::new(server_planner_config()).with_cache(Arc::clone(&cache))),
        };
        (cache, vocalizer)
    }

    /// Forget everything, as a fresh `AppState` does.
    fn reset(&mut self) {
        (self.cache, self.vocalizer) = Self::fresh_planner(self.workload);
        self.log.clear();
    }

    fn replay(&mut self, request: u64, caused_by: u64, utterance: &str) -> ReplayTimes {
        let tracer = self.tracer;
        let start = Instant::now();
        let root = tracer.record(request, Some(caused_by), "replay.request", start, start);
        let ms = |from: Instant| from.elapsed().as_secs_f64() * 1e3;
        let mut times = ReplayTimes::default();

        let table = tracer.time(request, root, "data.snapshot", || self.live.snapshot());
        let t = Instant::now();
        let (query, pace) = if self.workload == Workload::SessionDrill {
            let query = tracer.time(request, root, "voice.session_input", || {
                let mut session = Session::new(&table);
                for cmd in &self.log {
                    let _ = session.input(cmd);
                }
                let _ = session.input(utterance);
                session.query().expect("scripted utterances build valid queries")
            });
            self.log.push(utterance.to_string());
            (query, Pace::Instant)
        } else {
            let query = tracer.time(request, root, "voice.parse_question", || {
                parse_question(table.schema(), utterance).expect("questions parse at set-up")
            });
            let pace = if self.workload == Workload::ColdPaperPar {
                Pace::RealTime
            } else {
                Pace::Virtual
            };
            (query, pace)
        };
        times.parse_ms = ms(t);

        tracer.time(request, root, "engine.sem_lookup", || {
            std::hint::black_box(self.cache.lookup_exact(&query.key(), table.version()));
        });

        let mut voice: Box<dyn VoiceOutput> = match pace {
            Pace::Virtual => Box::new(VirtualVoice::default()),
            Pace::RealTime => Box::new(RealTimeVoice::new(2_000.0)),
            Pace::Instant => Box::new(InstantVoice::default()),
        };
        let cancel = match pace {
            Pace::Instant => CancelToken::with_deadline(Instant::now() + UTTERANCE_DEADLINE),
            _ => CancelToken::new(),
        };
        let t = Instant::now();
        let mut stream = tracer.time(request, root, "core.stream_open", || {
            self.vocalizer.stream(&table, &query, voice.as_mut(), cancel)
        });
        times.stream_open_ms = ms(t);
        let mut index = 0;
        loop {
            let t = Instant::now();
            let name = format!("core.sentence.{index}");
            let Some(sentence) = tracer.time(request, root, &name, || stream.next_sentence())
            else {
                break;
            };
            times.sentence_ms.push(ms(t));
            tracer.time(request, root, "json.serialize", || {
                std::hint::black_box(
                    Value::obj([
                        ("type", "sentence".into()),
                        ("index", sentence.index.into()),
                        ("text", sentence.text.as_str().into()),
                        ("samples", sentence.stats.samples.into()),
                        ("rows_read", sentence.stats.rows_read.into()),
                    ])
                    .to_string(),
                );
            });
            index += 1;
        }
        let outcome = tracer.time(request, root, "core.finish", || stream.finish());
        tracer.time(request, root, "json.serialize", || {
            std::hint::black_box(
                Value::obj([
                    ("type", "done".into()),
                    ("sentences", outcome.sentences.len().into()),
                    ("samples", outcome.stats.samples.into()),
                    ("rows_read", outcome.stats.rows_read.into()),
                ])
                .to_string(),
            );
        });
        tracer.close(root, Instant::now());
        times
    }
}

/// Record the client-side spans of one answer; returns the root span id.
fn record_client_spans(tracer: &Tracer, request: u64, answer: &Answer) -> u64 {
    let t0 = answer.t0.expect("answers carry their start");
    let at = |ms: f64| t0 + Duration::from_secs_f64(ms.max(0.0) / 1e3);
    let end = if answer.error.is_some() { t0 } else { at(answer.done_ms) };
    let root = tracer.record(request, None, "client.request", t0, end);
    if answer.error.is_some() {
        return root;
    }
    tracer.record(request, Some(root), "client.write", t0, at(answer.write_ms));
    tracer.record(
        request,
        Some(root),
        "client.wait_preamble",
        at(answer.write_ms),
        at(answer.preamble_ms),
    );
    let mut last = answer.preamble_ms;
    for (i, &ms) in answer.sentence_ms.iter().enumerate() {
        tracer.record(request, Some(root), &format!("client.wait_sentence.{i}"), at(last), at(ms));
        last = ms;
    }
    tracer.record(request, Some(root), "client.wait_done", at(last), at(answer.done_ms));
    root
}

/// Shared by every client thread of a run.
struct Clients<'t> {
    tracer: Option<&'t Tracer>,
    next_request: AtomicU64,
}

impl<'t> Clients<'t> {
    /// Account one answer: spans, replay (when traced), the record.
    fn finish(
        &self,
        replayer: Option<&mut Replayer<'t>>,
        slot: (usize, usize),
        label: &str,
        utterance: &str,
        query: Query,
        answer: Answer,
    ) -> Asked {
        let mut replay = None;
        if let Some(tracer) = self.tracer {
            let request = self.next_request.fetch_add(1, Ordering::Relaxed);
            let root = record_client_spans(tracer, request, &answer);
            if let Some(replayer) = replayer {
                replay = Some(replayer.replay(request, root, utterance));
            }
        }
        Asked { slot, label: label.to_string(), query, answer, cpu_s: 0.0, judged: None, replay }
    }
}

/// Whether a client that has been busy for `busy` seconds, `last_pass` of
/// them on its latest pass, starts another: while the window has room,
/// and under `whole_passes` only if at least half of the next pass fits
/// (the count of passes nearest to the window).
fn another_pass(cfg: &RunConfig, busy: f64, last_pass: f64) -> bool {
    if cfg.whole_passes {
        busy + last_pass / 2.0 <= cfg.window_s
    } else {
        busy < cfg.window_s
    }
}

/// Seconds since `answer`'s request was written. Taken after the answer
/// is accounted for, so on a traced stretch the in-process replay counts
/// against the stretch's time as well.
fn busy_s(answer_t0: Option<Instant>) -> f64 {
    answer_t0.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// What driving a workload through its window produced.
#[derive(Default)]
struct Driven {
    asked: Vec<Asked>,
    window_s: f64,
    appends: Vec<Append>,
    /// Peak resident set of each pass, in MiB.
    rss_peaks_mb: Vec<f64>,
    /// `live_append`, whose passes each end by closing their table: `GET
    /// /stats` of the last one before it closed, and what reopening its
    /// directory reported.
    stats: Option<(Value, f64)>,
    recovery: Option<RecoveryReport>,
    failures: Vec<String>,
}

impl Driven {
    /// A pass has been served: note its peak resident set.
    fn pass_served(&mut self) {
        self.rss_peaks_mb.push(host::rss_peak_mb());
    }
}

/// `cold_*`: one client on one keep-alive connection, eight questions
/// per pass in seeded order, every one against a cold semantic cache.
fn drive_cold(
    cfg: &RunConfig,
    env: &Env,
    clients: &Clients<'_>,
    questions: &[Question],
) -> Result<Driven, String> {
    let schema = env.table.schema();
    let queries: Vec<Query> =
        questions.iter().map(|q| script::parse_checked(schema, q)).collect::<Result<_, _>>()?;
    let mut replayer = clients
        .tracer
        .map(|t| Replayer::new(t, cfg.workload, Arc::new(LiveTable::new(env.table.clone()))));
    let mut out = Driven::default();
    let mut last_pass = 0.0;
    let mut pass = 0u64;
    let mut conn = Conn::connect(env.served.addr).map_err(|e| format!("connect: {e}"))?;
    'window: while another_pass(cfg, out.window_s, last_pass) {
        let pass_start = out.window_s;
        host::reset_rss_peak();
        for qi in script::question_order(cfg.seed, pass, questions.len()) {
            if !cfg.whole_passes && out.window_s >= cfg.window_s {
                break 'window;
            }
            // A fresh state per question: five of the eight share the
            // unfiltered scope, and within one state whichever came first
            // would warm-start the others. Building it is not part of any
            // request; the window clock only runs while one is in flight.
            let metrics = env.served.metrics.clone();
            env.served.replace(|| AppState::new(env.table.clone()).with_http_metrics(metrics));
            if let Some(r) = replayer.as_mut() {
                r.reset();
            }
            let q = &questions[qi];
            let cpu0 = host::cpu_seconds();
            let answer = conn.ask_stream(q.text, cfg.workload.approach());
            let cpu_s = host::cpu_seconds() - cpu0;
            let t0 = answer.t0;
            let slot = (0, out.asked.len());
            let query = queries[qi].clone();
            let done = clients.finish(replayer.as_mut(), slot, q.label, q.text, query, answer);
            out.asked.push(Asked { cpu_s, ..done });
            out.window_s += busy_s(t0);
        }
        out.pass_served();
        last_pass = out.window_s - pass_start;
        pass += 1;
    }
    Ok(out)
}

/// `session_drill`: a pass is one whole session — attach, the opening
/// turn, ten scripted turns, `bye` — on a fresh state, so every pass of a
/// run is the same work against the same cache contents.
fn drive_session(cfg: &RunConfig, env: &Env, clients: &Clients<'_>) -> Result<Driven, String> {
    let schema = env.table.schema();
    let script = script::session_script(schema, cfg.seed);
    let mut replayer = clients
        .tracer
        .map(|t| Replayer::new(t, cfg.workload, Arc::new(LiveTable::new(env.table.clone()))));
    let mut out = Driven::default();
    let mut last_pass = 0.0;
    let mut pass = 0;
    while another_pass(cfg, out.window_s, last_pass) {
        let pass_start = out.window_s;
        host::reset_rss_peak();
        let metrics = env.served.metrics.clone();
        env.served.replace(|| {
            AppState::new(env.table.clone())
                .with_http_metrics(metrics)
                .with_utterance_deadline(UTTERANCE_DEADLINE)
        });
        if let Some(r) = replayer.as_mut() {
            r.reset();
        }
        let id = format!("drill-{}-{pass}", cfg.seed);
        let mut conn =
            Conn::attach(env.served.addr, &id).map_err(|e| format!("attach {id}: {e}"))?;
        for (i, turn) in script.iter().enumerate() {
            if !cfg.whole_passes && out.window_s >= cfg.window_s {
                break;
            }
            let query = turn.state.query(schema).expect("scripted states are valid");
            // Kind, result size and place: each is a cost class of its own.
            let place = turn
                .state
                .filter
                .map_or("everywhere", |(d, m)| schema.dimension(d).member(m).phrase.as_str());
            let label = format!("{:?}{} {place}", turn.kind, query.n_aggregates());
            let cpu0 = host::cpu_seconds();
            let answer = conn.utter(&turn.text);
            let cpu_s = host::cpu_seconds() - cpu0;
            let t0 = answer.t0;
            let slot = (pass, i);
            let done = clients.finish(replayer.as_mut(), slot, &label, &turn.text, query, answer);
            if let Some(e) = &done.answer.error {
                // The transport state is unknown after a protocol error:
                // the workload ends here, without a `bye`.
                out.failures.push(format!("session {id} turn {i}: {e}"));
                out.asked.push(Asked { cpu_s, ..done });
                return Ok(out);
            }
            // The opening turn gives the session its breakdown. It is
            // answered and checked but not part of the mix.
            if i > 0 {
                out.asked.push(Asked { cpu_s, ..done });
                out.window_s += busy_s(t0);
            }
        }
        out.failures.extend(conn.bye().err().map(|e| format!("session {id} bye: {e}")));
        out.pass_served();
        last_pass = out.window_s - pass_start;
        pass += 1;
    }
    Ok(out)
}

/// The open-loop writer of `live_append`: batch `k` is due at
/// `start + k / rate`, whether or not batch `k-1` has been acknowledged.
fn drive_writer(
    addr: SocketAddr,
    batches: &[(Vec<IngestRow>, String)],
    start: Instant,
    stop: &AtomicBool,
    mirror: Option<&LiveTable>,
) -> Vec<Append> {
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            return vec![Append {
                latency_ms: 0.0,
                lateness_ms: 0.0,
                version: None,
                error: Some(format!("connect: {e}")),
            }]
        }
    };
    let mut out = Vec::with_capacity(batches.len());
    for (k, (rows, body)) in batches.iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / APPENDS_PER_S);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let lateness_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        let result = conn.exchange("POST", "/ingest", body.as_bytes());
        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
        let (version, error) = match result {
            Ok((200, reply)) => match Value::parse(&reply).ok().and_then(|v| v["version"].as_u64())
            {
                Some(v) => (Some(v), None),
                None => (None, Some(format!("ack without a version: {reply}"))),
            },
            Ok((status, reply)) => (None, Some(format!("status {status}: {reply}"))),
            Err(e) => (None, Some(e.to_string())),
        };
        if let (Some(mirror), Some(_)) = (mirror, version) {
            // Keeps the trace mirror on the server's version sequence.
            let _ = mirror.append_rows(rows);
        }
        let broken = error.is_some();
        out.push(Append { latency_ms, lateness_ms, version, error });
        if broken {
            break;
        }
    }
    out
}

/// Reader cycles per pass of `live_append`: the first meets an empty
/// cache, the others repair what it left while the table grows.
const LIVE_CYCLES: u64 = 3;

/// `live_append`: a pass is a fresh durable table in a directory of its
/// own, the writer above from its first batch, and beside it one
/// closed-loop reader asking the four questions [`LIVE_CYCLES`] times over
/// in seeded order; then a clean shutdown, and the directory is reopened
/// and checked. Every pass of a run appends the same batches and asks the
/// same questions of the same cache contents.
fn drive_live(
    cfg: &RunConfig,
    env: &Env,
    clients: &Clients<'_>,
    batches: &[(Vec<IngestRow>, String)],
) -> Result<Driven, String> {
    let schema = env.table.schema();
    let questions = script::LIVE_QUESTIONS;
    let queries: Vec<Query> =
        questions.iter().map(|q| script::parse_checked(schema, q)).collect::<Result<_, _>>()?;
    let mut out = Driven::default();
    let mut last_pass = 0.0;
    let mut pass = 0;
    while another_pass(cfg, out.window_s, last_pass) {
        // The table served before goes before this one is allocated.
        env.served.retire();
        host::reset_rss_peak();
        let dir = scratch_dir(&format!("pass-{pass}"))?;
        let (durable, _) = DurableTable::open(env.table.clone(), &dir, durability())
            .map_err(|e| format!("open durable table: {e}"))?;
        let metrics = env.served.metrics.clone();
        env.served.replace(|| AppState::durable(durable).with_http_metrics(metrics));
        let mirror = clients.tracer.map(|_| Arc::new(LiveTable::new(env.table.clone())));
        let mut replayer = clients
            .tracer
            .zip(mirror.clone())
            .map(|(t, live)| Replayer::new(t, cfg.workload, live));

        let reader_done = AtomicBool::new(false);
        let start = Instant::now();
        let so_far = out.window_s;
        let (asked, appends) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                drive_writer(env.served.addr, batches, start, &reader_done, mirror.as_deref())
            });
            let reader = (|| -> Result<Vec<Asked>, String> {
                let mut conn =
                    Conn::connect(env.served.addr).map_err(|e| format!("connect: {e}"))?;
                let mut asked = Vec::new();
                'pass: for cycle in 0..LIVE_CYCLES {
                    for qi in script::question_order(cfg.seed, cycle, questions.len()) {
                        let busy = so_far + start.elapsed().as_secs_f64();
                        if !cfg.whole_passes && busy >= cfg.window_s {
                            break 'pass;
                        }
                        let q = &questions[qi];
                        // How far the table and the cache have moved on is
                        // part of what a question costs here.
                        let label = format!("{} #{cycle}", q.label);
                        // The writer's and the server's share of the append
                        // work is in the reading: a read-side gain that costs
                        // appends shows.
                        let cpu0 = host::cpu_seconds();
                        let answer = conn.ask_stream(q.text, cfg.workload.approach());
                        let cpu_s = host::cpu_seconds() - cpu0;
                        let slot = (pass, asked.len());
                        let query = queries[qi].clone();
                        let done =
                            clients.finish(replayer.as_mut(), slot, &label, q.text, query, answer);
                        asked.push(Asked { cpu_s, ..done });
                    }
                }
                Ok(asked)
            })();
            reader_done.store(true, Ordering::SeqCst);
            (reader, writer.join().expect("writer panicked"))
        });
        let mut asked = asked?;
        last_pass = start.elapsed().as_secs_f64();
        out.window_s += last_pass;

        // Close the table, let go of it, and reopen its directory. What was
        // spoken is held against the reopened table: rows appended after an
        // answer come from the same generator and shift group means by
        // less than the sampling error of a spoken digit.
        out.stats = Some(fetch_stats(env.served.addr)?);
        out.pass_served();
        env.served
            .state()
            .shutdown_durability()
            .map_err(|e| format!("WAL flush at shutdown: {e}"))?;
        env.served.retire();
        let checked = check_recovery(&env.table, &dir, &appends, batches);
        let _ = std::fs::remove_dir_all(&dir);
        let (report, recovered, lost) = checked?;
        out.failures.extend(lost);
        out.recovery = Some(report);
        {
            let mut judge = Judge::new(&recovered);
            for a in asked.iter_mut().filter(|a| a.answer.error.is_none()) {
                a.judged = Some(judge.judge(&a.query, &a.answer.sentences));
            }
        }
        out.asked.extend(asked);
        out.appends.extend(appends);
        pass += 1;
    }
    Ok(out)
}

/// Reopen the data directory after a clean shutdown and check that every
/// acknowledged batch survived: version and row count add up, and the
/// first row of each acknowledged batch sits where its version puts it.
fn check_recovery(
    seed_table: &Table,
    dir: &Path,
    appends: &[Append],
    batches: &[(Vec<IngestRow>, String)],
) -> Result<(RecoveryReport, Table, Vec<String>), String> {
    let (durable, report) = DurableTable::open(seed_table.clone(), dir, durability())
        .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    let table = durable.snapshot();
    let base = seed_table.row_count();
    let acked: Vec<(usize, u64)> =
        appends.iter().enumerate().filter_map(|(k, a)| a.version.map(|v| (k, v))).collect();
    let mut lost = Vec::new();
    if (report.version as usize) < acked.len()
        || report.total_rows != base + report.version as usize * BATCH_ROWS
    {
        lost.push(format!(
            "reopened at version {} with {} rows; {} batches were acknowledged over {base} rows",
            report.version,
            report.total_rows,
            acked.len()
        ));
    }
    let schema = table.schema();
    for (k, version) in acked {
        let row = base + (version as usize - 1) * BATCH_ROWS;
        let sent = &batches[k].0[0];
        let matches = row < table.row_count()
            && schema.dims().zip(&sent.dims).all(|((id, d), v)| {
                matches!(v, voxolap_data::DimValue::Phrase(p) if *p == d.member(table.member_at(id, row)).phrase)
            })
            && table.value_at(row) == sent.values[0];
        if !matches {
            lost.push(format!(
                "acknowledged batch {k} (version {version}) is not in the reopened table"
            ));
        }
    }
    Ok((report, Table::clone(&table), lost))
}

/// Round trips that need a live server: new-connection and keep-alive
/// `GET /health`, and session attach.
fn probe(addr: SocketAddr) -> Probes {
    let mut probes = Probes::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for _ in 0..30 {
        let t = Instant::now();
        if let Ok(mut c) = Conn::connect(addr) {
            if matches!(c.exchange("GET", "/health", b""), Ok((200, _))) {
                probes.health_rtt_us.push(us(t));
            }
        }
    }
    if let Ok(mut c) = Conn::connect(addr) {
        for _ in 0..100 {
            let t = Instant::now();
            if matches!(c.exchange("GET", "/health", b""), Ok((200, _))) {
                probes.keepalive_rtt_us.push(us(t));
            }
        }
    }
    for i in 0..15 {
        let t = Instant::now();
        if let Ok(c) = Conn::attach(addr, &format!("probe-{i}")) {
            probes.attach_ms.push(us(t) / 1e3);
            let _ = c.bye();
        }
    }
    probes
}

/// `GET /stats`, and how long it took in ms.
fn fetch_stats(addr: SocketAddr) -> Result<(Value, f64), String> {
    let t = Instant::now();
    let (status, body) = Conn::connect(addr)
        .and_then(|mut c| c.exchange("GET", "/stats", b""))
        .map_err(|e| format!("GET /stats: {e}"))?;
    let stats =
        Value::parse(&body).map_err(|_| format!("/stats ({status}) is not JSON: {body}"))?;
    Ok((stats, t.elapsed().as_secs_f64() * 1e3))
}

/// A directory of this process under [`OUT_DIR`] for a durable table,
/// emptied; [`clean_scratch`] removes what a failed run leaves of them.
fn scratch_dir(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(OUT_DIR).join(format!("data-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run one workload once.
pub fn run(cfg: &RunConfig, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    // The writer's batches exist before any set-up, so they count as the
    // benchmark's own memory. Every pass sends them from the first.
    let batches = if cfg.workload == Workload::LiveAppend {
        script::ingest_batches(cfg.seed, LIVE_BATCHES, BATCH_ROWS)
    } else {
        Vec::new()
    };
    host::reset_rss_peak();
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut env = None;
    for nth in 0..cfg.setups.max(1) {
        // One environment at a time: peak memory is the workload's, not
        // the repetition's.
        if let Some(previous) = env.take() {
            tear_down(previous);
        }
        let t = Instant::now();
        env = Some(set_up(cfg, nth)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up ran");
    let clients = Clients { tracer, next_request: AtomicU64::new(1) };
    // Before the window: `live_append` ends with its last table closed.
    let probes = if tracer.is_some() { probe(env.served.addr) } else { Probes::default() };

    let cpu0 = host::cpu_seconds();
    let driven = match cfg.workload {
        Workload::ColdPaper | Workload::ColdPaperPar => {
            drive_cold(cfg, &env, &clients, &script::COLD_QUESTIONS)?
        }
        Workload::SessionDrill => drive_session(cfg, &env, &clients)?,
        Workload::LiveAppend => drive_live(cfg, &env, &clients, &batches)?,
    };
    let cpu_s = host::cpu_seconds() - cpu0;
    let Driven { mut asked, window_s, appends, rss_peaks_mb, stats, recovery, failures } = driven;
    // A traced stretch may end before its first pass does.
    let peak_mb = if rss_peaks_mb.is_empty() {
        host::rss_peak_mb()
    } else {
        crate::stats::median(&rss_peaks_mb)
    };
    let rss_peak_mb = peak_mb - env.own_rss_mb;
    let (stats, stats_ms) = match stats {
        Some(stats) => stats,
        None => fetch_stats(env.served.addr)?,
    };

    // Judge what was spoken and has not been judged yet.
    let mut judge = Judge::new(&env.table);
    for a in asked.iter_mut().filter(|a| a.answer.error.is_none() && a.judged.is_none()) {
        a.judged = Some(judge.judge(&a.query, &a.answer.sentences));
    }
    drop(judge);
    tear_down(env);

    Ok(Outcome {
        config: cfg.clone(),
        traced: tracer.is_some(),
        setup_s,
        asked,
        window_s,
        cpu_s,
        rss_peak_mb,
        appends,
        stats,
        stats_ms,
        probes,
        recovery,
        failures,
    })
}

/// Remove a leftover scratch directory of this process (set-up failures).
pub fn clean_scratch() {
    if let Ok(entries) = std::fs::read_dir(OUT_DIR) {
        let prefix = format!("data-{}-", std::process::id());
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}
