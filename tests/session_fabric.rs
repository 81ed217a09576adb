//! End-to-end tests of the long-lived session transport (DESIGN.md §15):
//! HTTP upgrade to NDJSON, per-utterance speech streams, warm-started
//! follow-ups, heartbeats, idle reaping, and state surviving re-attach —
//! the full fabric a voice client holds open for a whole analysis
//! conversation.

mod support;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_json::Value;
use voxolap_server::{serve_with, AppState, HttpMetrics, ServerConfig};

use support::{ndjson_request as request, small_table, watchdog};

/// An attached session connection: `101` handshake consumed, `hello`
/// parsed, ready for line traffic.
struct SessionConn {
    reader: BufReader<TcpStream>,
    hello: Value,
}

impl SessionConn {
    fn attach(addr: std::net::SocketAddr, id: &str) -> SessionConn {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write!(stream, "GET /session/{id}/attach HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        assert!(head.starts_with("HTTP/1.1 101"), "{head}");
        assert!(head.contains("Upgrade: voxolap-session"), "{head}");
        let mut conn = SessionConn { reader, hello: Value::Null };
        let hello = conn.next_event();
        assert_eq!(hello["type"], "hello", "{hello:?}");
        conn.hello = hello;
        conn
    }

    fn send(&mut self, event: &str) {
        self.reader.get_mut().write_all(format!("{event}\n").as_bytes()).unwrap();
    }

    fn next_event(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "connection closed while waiting for an event");
        Value::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad event {line:?}: {e:?}"))
    }

    /// Send an utterance and collect events up to (and including) its
    /// terminal `done`/`help`/`error`.
    fn utter(&mut self, text: &str) -> Vec<Value> {
        self.send(&format!("{{\"type\":\"utter\",\"text\":\"{text}\"}}"));
        let mut events = Vec::new();
        loop {
            let ev = self.next_event();
            let kind = ev["type"].as_str().unwrap_or("").to_string();
            if kind == "heartbeat" {
                continue;
            }
            events.push(ev);
            if matches!(kind.as_str(), "done" | "help" | "error") {
                return events;
            }
        }
    }
}

fn count_sentences(events: &[Value]) -> usize {
    events.iter().filter(|e| e["type"] == "sentence").count()
}

fn serve_state(
    config: ServerConfig,
    state: Arc<AppState>,
) -> (voxolap_server::ServerHandle, Arc<HttpMetrics>) {
    let metrics = HttpMetrics::new();
    let handler_state = Arc::clone(&state);
    let handle =
        serve_with("127.0.0.1:0", config, metrics.clone(), move |req| handler_state.handle(req))
            .unwrap();
    (handle, metrics)
}

/// One utterance over the session transport carries a full §11 speech
/// stream (preamble → sentences → done), and an in-scope follow-up is
/// flagged as warm-started from the semantic cache.
#[test]
fn utterance_streams_speech_and_warm_starts_in_scope_follow_ups() {
    let _guard = watchdog(120);
    let state = Arc::new(AppState::new(small_table()));
    let (handle, metrics) = serve_state(ServerConfig::default(), state);

    let mut conn = SessionConn::attach(handle.addr, "analyst");
    assert_eq!(conn.hello["session"], "analyst");
    assert!(conn.hello["heartbeat_ms"].as_u64().unwrap() > 0);

    let events = conn.utter("cancellation probability by region");
    assert_eq!(events.first().unwrap()["type"], "preamble");
    assert!(
        events.iter().filter(|e| e["type"] == "sentence").count() >= 1,
        "no sentences streamed: {events:?}"
    );
    let done = events.last().unwrap();
    assert_eq!(done["type"], "done", "{events:?}");
    assert_eq!(done["scope_warm"].as_bool(), Some(false));
    assert!(done["ttfs_ms"].as_f64().unwrap() > 0.0);
    assert!(done["sentences"].as_u64().unwrap() >= 1);

    // Same scope (no filters), different breakdown: the semantic cache
    // warm-starts sampling and the transport says so.
    let events = conn.utter("cancellation probability by season");
    let done = events.last().unwrap();
    assert_eq!(done["type"], "done", "{events:?}");
    assert_eq!(done["scope_warm"].as_bool(), Some(true), "{done:?}");

    // Liveness probe and orderly goodbye.
    conn.send("{\"type\":\"ping\"}");
    assert_eq!(conn.next_event()["type"], "pong");
    conn.send("{\"type\":\"bye\"}");
    let bye = conn.next_event();
    assert_eq!(bye["type"], "bye");
    assert_eq!(bye["reason"], "client");
    let mut rest = Vec::new();
    conn.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after bye");

    let snap = metrics.snapshot();
    assert_eq!(snap.sessions_opened, 1);
    assert_eq!(snap.sessions_closed, 1);
    assert!(snap.session_lines >= 4, "{snap:?}");
    handle.shutdown();
}

/// `/stats` `latency_ms` means the same whichever route answered: one
/// turn through each of the four on one state records four first-sentence
/// times, one gap per later sentence, four planning times, and no
/// cancellation.
#[test]
fn all_four_answer_routes_feed_the_same_latency_counters() {
    let _guard = watchdog(120);
    let (handle, _metrics) =
        serve_state(ServerConfig::default(), Arc::new(AppState::new(small_table())));
    let addr = handle.addr;
    let question = "{\"question\": \"cancellation probability by region and season\"}";

    let (status, body) = request(addr, "POST", "/ask", question);
    assert_eq!(status, 200, "{body:?}");
    let mut sentences = vec![body[0]["sentences"].as_array().unwrap().len()];
    let (status, events) = request(addr, "POST", "/query/stream", question);
    assert_eq!(status, 200, "{events:?}");
    sentences.push(count_sentences(&events));
    let (status, body) =
        request(addr, "POST", "/session/mixed/input", "{\"text\": \"break down by region\"}");
    assert_eq!(status, 200, "{body:?}");
    sentences.push(body[0]["sentences"].as_array().unwrap().len());
    let mut conn = SessionConn::attach(addr, "mixed");
    sentences.push(count_sentences(&conn.utter("break down by season")));
    conn.send("{\"type\":\"bye\"}");
    assert!(sentences.iter().all(|&n| n >= 1), "{sentences:?}");

    let (_, stats) = request(addr, "GET", "/stats", "");
    let latency = &stats[0]["latency_ms"];
    assert_eq!(latency["count"].as_u64(), Some(4), "{latency:?}");
    assert_eq!(latency["ttfs_ms"]["count"].as_u64(), Some(4), "{latency:?}");
    let gaps: usize = sentences.iter().map(|n| n - 1).sum();
    assert_eq!(latency["gap_ms"]["count"].as_u64(), Some(gaps as u64), "{sentences:?} {latency:?}");
    assert_eq!(latency["stream_cancellations"].as_u64(), Some(0), "{latency:?}");
    handle.shutdown();
}

/// Hanging up mid-utterance cancels the turn exactly as it does on
/// `/query/stream`: the planner stops at the next sentence boundary and
/// `/stats` counts one client cancellation.
#[test]
fn hanging_up_mid_utterance_cancels_the_turn_and_counts() {
    let _guard = watchdog(120);
    let (handle, _metrics) =
        serve_state(ServerConfig::default(), Arc::new(AppState::new(small_table())));

    let mut conn = SessionConn::attach(handle.addr, "fickle");
    conn.send("{\"type\":\"utter\",\"text\":\"cancellation probability by region and season\"}");
    assert_eq!(conn.next_event()["type"], "preamble");
    drop(conn); // gone with the whole speech still unplanned

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, stats) = request(handle.addr, "GET", "/stats", "");
        let latency = &stats[0]["latency_ms"];
        if latency["count"].as_u64() == Some(1) {
            assert_eq!(latency["stream_cancellations"].as_u64(), Some(1), "{latency:?}");
            break;
        }
        assert!(Instant::now() < deadline, "the turn never finished: {latency:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// The wire contract: the same question through `/query/stream` and
/// through `attach` + `utter` yields the same event types in the same
/// order with the same keys (`scope_warm` is the one session-only key),
/// and the two blocking routes answer with the same body keys.
#[test]
fn both_event_transports_and_both_blocking_routes_share_one_schema() {
    let _guard = watchdog(120);
    let (handle, _metrics) =
        serve_state(ServerConfig::default(), Arc::new(AppState::new(small_table())));
    let addr = handle.addr;
    fn keys(v: &Value) -> Vec<String> {
        let Value::Object(fields) = v else { panic!("not an object: {v:?}") };
        let mut keys: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
        keys.sort();
        keys
    }
    // (type, keys) per event, runs of sentences collapsed to one entry.
    fn shape(events: &[Value]) -> Vec<(String, Vec<String>)> {
        let mut shape: Vec<_> =
            events.iter().map(|e| (e["type"].as_str().unwrap().to_string(), keys(e))).collect();
        shape.dedup();
        shape
    }

    let text = "cancellation probability by region";
    let (status, streamed) =
        request(addr, "POST", "/query/stream", &format!("{{\"question\": \"{text}\"}}"));
    assert_eq!(status, 200, "{streamed:?}");
    let mut conn = SessionConn::attach(addr, "contract");
    let mut uttered = conn.utter(text);
    conn.send("{\"type\":\"bye\"}");
    let types: Vec<_> = shape(&streamed).into_iter().map(|(kind, _)| kind).collect();
    assert_eq!(types, ["preamble", "sentence", "done"], "{streamed:?}");
    assert!(streamed.last().unwrap().get("scope_warm").is_none(), "{streamed:?}");
    let Some(Value::Object(done)) = uttered.last_mut() else { panic!("{uttered:?}") };
    let before = done.len();
    done.retain(|(key, _)| key != "scope_warm");
    assert_eq!(done.len(), before - 1, "session `done` carries scope_warm");
    assert_eq!(shape(&streamed), shape(&uttered));
    for key in ["sentences", "samples", "rows_read", "planning_ms", "ttfs_ms", "cancelled"] {
        assert!(streamed.last().unwrap().get(key).is_some(), "done lacks {key}: {streamed:?}");
    }

    let (_, asked) = request(addr, "POST", "/ask", &format!("{{\"question\": \"{text}\"}}"));
    let (_, input) =
        request(addr, "POST", "/session/contract/input", &format!("{{\"text\": \"{text}\"}}"));
    assert_eq!(keys(&asked[0]), keys(&input[0]));
    assert!(asked[0].get("text").is_some() && asked[0].get("approach").is_some(), "{asked:?}");
    handle.shutdown();
}

/// Dialogue state lives server-side under the session id: a dropped
/// connection re-attaches and continues the drill-down where it left
/// off (and the POST transport sees the same state).
#[test]
fn dialogue_state_survives_reattach() {
    let _guard = watchdog(120);
    let state = Arc::new(AppState::new(small_table()));
    let (handle, _metrics) = serve_state(ServerConfig::default(), state);

    let mut conn = SessionConn::attach(handle.addr, "worker");
    let events = conn.utter("break down by region");
    assert_eq!(events.last().unwrap()["type"], "done");
    drop(conn); // connection lost without a bye

    // Re-attach: the winter filter applies on top of the region
    // breakdown established on the previous connection.
    let mut conn = SessionConn::attach(handle.addr, "worker");
    let events = conn.utter("only the winter");
    let preamble = events.first().unwrap();
    assert_eq!(preamble["type"], "preamble", "{events:?}");
    let text = preamble["text"].as_str().unwrap();
    assert!(text.contains("Winter"), "filter lost across re-attach: {text}");
    assert!(text.contains("region"), "breakdown lost across re-attach: {text}");
    conn.send("{\"type\":\"bye\"}");
    handle.shutdown();
}

/// Unknown event kinds and unparseable lines produce `error` events and
/// leave the session usable; `quit` utterances end it from the dialogue
/// layer with `bye(reason=quit)`.
#[test]
fn malformed_lines_recoverable_and_quit_closes() {
    let _guard = watchdog(120);
    let state = Arc::new(AppState::new(small_table()));
    let (handle, metrics) = serve_state(ServerConfig::default(), state);

    let mut conn = SessionConn::attach(handle.addr, "messy");
    conn.send("this is not json");
    assert_eq!(conn.next_event()["type"], "error");
    conn.send("{\"type\":\"frobnicate\"}");
    assert_eq!(conn.next_event()["type"], "error");
    conn.send("{\"type\":\"utter\"}");
    assert_eq!(conn.next_event()["type"], "error");

    // Still alive: a help request round-trips through the dialogue layer.
    let events = conn.utter("help");
    assert_eq!(events.last().unwrap()["type"], "help");

    conn.send("{\"type\":\"utter\",\"text\":\"quit\"}");
    let bye = conn.next_event();
    assert_eq!(bye["type"], "bye");
    assert_eq!(bye["reason"], "quit");
    let mut rest = Vec::new();
    conn.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after quit");

    // A line that never ends: one byte past the 64 KiB line cap, the
    // server closes the connection and counts the session closed once.
    let mut conn = SessionConn::attach(handle.addr, "endless");
    conn.reader.get_mut().write_all(&vec![b'x'; 64 * 1024 + 1]).unwrap();
    let mut rest = Vec::new();
    conn.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close on an endless line");
    assert_eq!(metrics.snapshot().sessions_closed, 2);
    handle.shutdown();
}

/// Idle sessions receive heartbeats at the configured cadence and are
/// reaped with `bye(reason=idle)` at the idle timeout — holding a fleet
/// of silent connections costs heartbeat writes, not planning permits.
#[test]
fn idle_sessions_heartbeat_then_reap() {
    let _guard = watchdog(60);
    let config = ServerConfig {
        heartbeat: Duration::from_millis(150),
        session_idle_timeout: Duration::from_millis(700),
        ..ServerConfig::default()
    };
    let (handle, metrics) = serve_state(config, Arc::new(AppState::new(small_table())));

    // The hello announces the cadence of the config actually serving.
    let mut conn = SessionConn::attach(handle.addr, "quiet");
    assert_eq!(conn.hello["heartbeat_ms"].as_u64().unwrap(), 150);
    assert_eq!(conn.hello["idle_timeout_ms"].as_u64().unwrap(), 700);
    let mut saw_heartbeat = false;
    loop {
        let mut line = String::new();
        if conn.reader.read_line(&mut line).unwrap() == 0 {
            break; // reaped
        }
        let ev = Value::parse(line.trim_end()).unwrap();
        match ev["type"].as_str().unwrap() {
            "heartbeat" => saw_heartbeat = true,
            "bye" => assert_eq!(ev["reason"], "idle", "{ev:?}"),
            other => panic!("unexpected idle-session event {other}: {ev:?}"),
        }
    }
    assert!(saw_heartbeat, "no heartbeat before the idle reap");
    let snap = metrics.snapshot();
    assert!(snap.heartbeats_sent >= 1, "{snap:?}");
    assert_eq!(snap.sessions_closed, 1, "{snap:?}");
    assert_eq!(snap.idle_closed, 1, "{snap:?}");
    handle.shutdown();
}

/// A turn's planning time is bounded by the configured deadline on every
/// route: past it the answer commits through the anytime path and says
/// `degraded` — not `cancelled`, which is the client's doing only. Without
/// the bound, a wide-scope utterance (e.g. a city-level drill-down)
/// converges for minutes while pinning a planning permit — starving every
/// other session of it.
#[test]
fn utterance_deadline_degrades_instead_of_pinning_a_worker() {
    let _guard = watchdog(120);
    let state =
        Arc::new(AppState::new(small_table()).with_utterance_deadline(Duration::from_millis(1)));
    let (handle, _metrics) = serve_state(ServerConfig::default(), state);

    let mut conn = SessionConn::attach(handle.addr, "impatient");
    let t0 = Instant::now();
    let events = conn.utter("break down by region");
    let done = events.last().unwrap();
    assert_eq!(done["type"], "done", "{events:?}");
    assert_eq!(done["degraded"].as_bool(), Some(true), "{done:?}");
    assert_eq!(done["cancelled"].as_bool(), Some(false), "{done:?}");
    // "Bounded" means seconds, not the minutes an unbounded convergence
    // can take — generous margin for a loaded CI host.
    assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());

    // The session survives a degraded answer and keeps serving.
    let events = conn.utter("how many flights");
    let done = events.last().unwrap();
    assert_eq!(done["type"], "done", "{events:?}");
    conn.send("{\"type\":\"bye\"}");

    // The same scope over the blocking one-shot route: same bound.
    let ask = "{\"question\": \"cancellation probability by region\"}";
    let (status, body) = request(handle.addr, "POST", "/ask", ask);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body[0]["degraded"].as_bool(), Some(true), "{body:?}");
    handle.shutdown();
}

/// Server shutdown farewells attached sessions with `bye(reason=
/// shutdown)` and closes them — a client blocked on its next event gets
/// a clean goodbye, not a hang or a reset. A hundred rounds (fresh server
/// each, one shared table and cache) because the window is narrow: `stop`
/// flips while the connection's thread may still be in the turn of the
/// utterance the client just saw `done` for, and that connection must be
/// farewelled too.
#[test]
fn shutdown_farewells_attached_sessions() {
    let _guard = watchdog(180);
    let state = Arc::new(AppState::new(small_table()));
    let config = ServerConfig::default();
    assert!(config.threads >= 2, "the race needs a worker beside the reactor");
    for round in 0..100 {
        let (handle, _metrics) = serve_state(config.clone(), Arc::clone(&state));

        let mut conn = SessionConn::attach(handle.addr, &format!("interrupted-{round}"));
        let events = conn.utter("break down by season");
        assert_eq!(events.last().unwrap()["type"], "done", "round {round}");

        handle.shutdown();
        let bye = conn.next_event();
        assert_eq!(bye["type"], "bye", "round {round}: {bye:?}");
        assert_eq!(bye["reason"], "shutdown");
        let mut rest = Vec::new();
        conn.reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close after the farewell");
    }
}

/// The fleet gate: a thousand sessions attached at once (two fds each —
/// client and server live in this process — so fewer where the fd limit
/// is low), all held idle across a heartbeat, one in fifty speaking, and
/// every one closed by its own `bye`. None may be dropped, reaped or
/// lost to an I/O error on the way.
#[test]
fn thousand_attached_sessions_none_dropped() {
    let _guard = watchdog(120);
    let n = (voxolap_server::raise_nofile_limit().saturating_sub(128) / 2).min(1_000) as usize;
    let config = ServerConfig { heartbeat: Duration::from_millis(250), ..ServerConfig::default() };
    let (handle, metrics) = serve_state(config, Arc::new(AppState::new(small_table())));

    let mut fleet: Vec<SessionConn> =
        (0..n).map(|i| SessionConn::attach(handle.addr, &format!("fleet-{i}"))).collect();
    for (i, conn) in fleet.iter_mut().enumerate() {
        let ev = conn.next_event();
        assert_eq!(ev["type"], "heartbeat", "session {i}: {ev:?}");
    }
    for (i, conn) in fleet.iter_mut().enumerate().step_by(50) {
        let events = conn.utter("break down by region");
        assert_eq!(events.last().unwrap()["type"], "done", "session {i}: {events:?}");
    }
    for (i, mut conn) in fleet.into_iter().enumerate() {
        conn.send("{\"type\":\"bye\"}");
        let bye = loop {
            let ev = conn.next_event();
            if ev["type"] != "heartbeat" {
                break ev;
            }
        };
        assert_eq!(bye["type"], "bye", "session {i}: {bye:?}");
        assert_eq!(bye["reason"], "client", "session {i}: {bye:?}");
        let mut rest = Vec::new();
        conn.reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "session {i}: server must close after bye");
    }

    let snap = metrics.snapshot();
    assert_eq!(snap.sessions_opened, n as u64, "{snap:?}");
    assert_eq!(snap.sessions_closed, n as u64, "{snap:?}");
    assert_eq!(snap.io_errors, 0, "{snap:?}");
    assert_eq!(snap.idle_closed, 0, "{snap:?}");
    handle.shutdown();
}
