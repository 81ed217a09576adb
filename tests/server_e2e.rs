//! End-to-end test of the HTTP interface: real TCP, real JSON, real
//! planner — the full stack a browser client would exercise, including
//! the hardened serving path (timeouts, saturation, panic isolation).
//!
//! Every test runs under a [`watchdog`] that aborts the process if the
//! test exceeds its deadline, so a reintroduced hang (e.g. a stalled
//! client wedging the accept path) fails CI instead of stalling it.

mod support;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_json::Value;
use voxolap_server::{serve, serve_with, AppState, HttpMetrics, Response, ServerConfig};

use support::{echo_line, request, response, send, small_table, watchdog};

/// Saturate a `threads: 1, queue: 1` server with two `/health` requests —
/// one in the worker, one in the queue slot — and return the threads
/// waiting for their answers (both must be `200`).
///
/// `metrics.accepted` counts connections parked in the reactor. It proves
/// the reactor holds the connection; it does not prove a worker has taken
/// its request off the queue. So occupant 2 is sent only once `requests`
/// shows a worker dequeued occupant 1 — sent any earlier it can find
/// occupant 1 still in the one queue slot and be 503'd. For occupant 2
/// itself `accepted` is enough: its request is written before the wait, so
/// the one reactor thread reads and queues it before the request of any
/// connection made after this returns.
fn saturate(
    addr: std::net::SocketAddr,
    metrics: &HttpMetrics,
) -> Vec<std::thread::JoinHandle<(u16, String)>> {
    fn wait_for(reached: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !reached() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let in_worker = std::thread::spawn(move || request(addr, "GET", "/health", ""));
    wait_for(|| metrics.snapshot().requests >= 1);
    let queued = send(addr, "GET", "/health", "");
    wait_for(|| metrics.snapshot().accepted >= 2);
    vec![in_worker, std::thread::spawn(move || response(queued))]
}

#[test]
fn full_stack_question_and_session_flow() {
    let _guard = watchdog(120);
    let state = Arc::new(AppState::new(small_table()));
    let handle = serve("127.0.0.1:0", move |req| state.handle(req)).unwrap();
    let addr = handle.addr;

    // Health.
    let (status, body) = request(addr, "GET", "/health", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

    // One-shot question.
    let (status, body) = request(
        addr,
        "POST",
        "/ask",
        "{\"question\": \"how does the cancellation probability depend on region?\"}",
    );
    assert_eq!(status, 200, "{body}");
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert!(v["text"].as_str().unwrap().contains("broken down by region"));
    assert!(v["latency_ms"].as_f64().unwrap() < 500.0, "interactivity threshold");

    // Session accumulation across separate TCP connections.
    let (s1, _) =
        request(addr, "POST", "/session/worker/input", "{\"text\": \"break down by region\"}");
    assert_eq!(s1, 200);
    let (_, body) =
        request(addr, "POST", "/session/worker/input", "{\"text\": \"break down by season\"}");
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert!(v["preamble"].as_str().unwrap().contains("region and season"), "{body}");

    // Approach switching mid-session (the Table 8 study workflow).
    let (_, body) = request(
        addr,
        "POST",
        "/session/worker/input",
        "{\"text\": \"winter\", \"approach\": \"prior\"}",
    );
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert_eq!(v["approach"], "prior");
    assert!(v["preamble"].as_str().unwrap().contains("Winter"));

    // Bad input surfaces a JSON error with a 4xx.
    let (status, body) =
        request(addr, "POST", "/session/worker/input", "{\"text\": \"gibberish xyz\"}");
    assert_eq!(status, 400);
    assert!(body.contains("error"));

    handle.shutdown();
}

/// Send a `POST /query/stream` request and return the open socket without
/// reading the response.
fn open_stream(addr: std::net::SocketAddr, question: &str) -> TcpStream {
    let body = format!("{{\"question\": \"{question}\"}}");
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "POST /query/stream HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

/// The streaming endpoint delivers the first sentence while later
/// sentences are still being planned: the read burst that carries the
/// first sentence record must not already carry the done record.
#[test]
fn streaming_endpoint_delivers_sentences_incrementally() {
    let _guard = watchdog(120);
    let state = Arc::new(AppState::new(small_table()));
    let handle = serve("127.0.0.1:0", move |req| state.handle(req)).unwrap();
    let addr = handle.addr;

    let mut s =
        open_stream(addr, "how does the cancellation probability depend on region and season?");
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let mut saw_first_sentence = false;
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                let text = String::from_utf8_lossy(&raw);
                if !saw_first_sentence && text.contains("\"type\":\"sentence\"") {
                    saw_first_sentence = true;
                    assert!(
                        !text.contains("\"type\":\"done\""),
                        "first sentence must arrive before planning completes"
                    );
                }
            }
            Err(e) => panic!("read error: {e}"),
        }
    }
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
    assert!(text.contains("Content-Type: application/x-ndjson"), "{text}");
    assert!(text.contains("\"type\":\"preamble\""), "{text}");
    assert!(text.matches("\"type\":\"sentence\"").count() >= 2, "{text}");
    assert!(text.contains("\"cancelled\":false"), "{text}");
    assert!(text.ends_with("0\r\n\r\n"), "terminal chunk missing: {text}");

    // The streaming counters are visible in /stats afterwards.
    let (status, body) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert!(v["latency_ms"]["ttfs_ms"]["count"].as_u64().unwrap() >= 1, "{body}");
    assert!(v["latency_ms"]["gap_ms"]["count"].as_u64().unwrap() >= 1, "{body}");
    assert_eq!(v["latency_ms"]["stream_cancellations"].as_u64().unwrap(), 0, "{body}");

    handle.shutdown();
}

/// A plan over a search space cut at the node cap says so —
/// `"truncated":true`, present only when set, like `degraded` and `stale` —
/// on `/ask` and on the stream's `done` line, and `/stats` counts it.
#[test]
fn truncated_search_spaces_are_flagged() {
    let _guard = watchdog(120);
    let state = Arc::new(AppState::new(small_table()));
    let handle = serve("127.0.0.1:0", move |req| state.handle(req)).unwrap();
    let addr = handle.addr;
    let ask = |question: &str| {
        let (status, body) =
            request(addr, "POST", "/ask", &format!("{{\"question\": \"{question}\"}}"));
        assert_eq!(status, 200, "{body}");
        body
    };

    // 19 predicates × 12 changes, two deep, under 11 baselines: far past
    // the 500 000-node cap.
    let body = ask("cancellation probability by region and airline");
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert_eq!(v["truncated"].as_bool(), Some(true), "{body}");
    let body = ask("cancellation probability by season");
    assert!(!body.contains("\"truncated\""), "{body}");

    let mut s = open_stream(addr, "cancellation probability by season and airline");
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    let done = text.lines().find(|l| l.contains("\"type\":\"done\"")).expect("done line");
    assert!(done.contains("\"truncated\":true"), "{done}");

    let (_, body) = request(addr, "GET", "/stats", "");
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert_eq!(v["latency_ms"]["truncated_plans"].as_u64(), Some(2), "{body}");

    handle.shutdown();
}

/// Hanging up mid-stream fires the server-side cancel token: sampling
/// stops at the next sentence boundary and the abort shows up in /stats.
#[test]
fn client_disconnect_cancels_stream_and_counts() {
    let _guard = watchdog(120);
    let state = Arc::new(AppState::new(small_table()));
    let handle = serve("127.0.0.1:0", move |req| state.handle(req)).unwrap();
    let addr = handle.addr;

    {
        let mut s =
            open_stream(addr, "how does the cancellation probability depend on region and season?");
        let mut raw = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0, "stream ended before the first sentence");
            raw.extend_from_slice(&buf[..n]);
            if String::from_utf8_lossy(&raw).contains("\"type\":\"sentence\"") {
                break;
            }
        }
        // Drop the socket with most of the speech still unplanned.
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = request(addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        let v = voxolap_json::Value::parse(&body).unwrap();
        if v["latency_ms"]["stream_cancellations"].as_u64().unwrap() == 1 {
            // The aborted stream still recorded its first-sentence time.
            assert!(v["latency_ms"]["ttfs_ms"]["count"].as_u64().unwrap() >= 1, "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "cancellation not observed: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
}

/// A stalled client (headers promise a body that never arrives) must get
/// a 408 within the configured timeout — and must not delay concurrent
/// well-formed queries, which a worker-per-connection server with no
/// socket timeouts would have wedged forever.
#[test]
fn stalled_client_gets_408_without_delaying_others() {
    let _guard = watchdog(120);
    let metrics = HttpMetrics::new();
    let state = Arc::new(AppState::new(small_table()).with_http_metrics(metrics.clone()));
    let config = ServerConfig { threads: 4, ..ServerConfig::default() }.with_timeout_ms(500);
    let handle = serve_with("127.0.0.1:0", config, metrics, move |req| state.handle(req)).unwrap();
    let addr = handle.addr;

    // The stalled client: header sent, body withheld.
    let staller = std::thread::spawn(move || {
        let start = Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /ask HTTP/1.1\r\nContent-Length: 64\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        (out, start.elapsed())
    });

    // Meanwhile, parallel well-formed queries are answered normally.
    let parallel: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                request(
                    addr,
                    "POST",
                    "/ask",
                    "{\"question\": \"cancellation probability by season\"}",
                )
            })
        })
        .collect();
    for h in parallel {
        let (status, body) = h.join().unwrap();
        assert_eq!(status, 200, "{body}");
    }

    let (out, elapsed) = staller.join().unwrap();
    assert!(out.starts_with("HTTP/1.1 408"), "stalled client should time out: {out}");
    assert!(elapsed < Duration::from_secs(10), "408 took too long: {elapsed:?}");

    // The serving-layer counters surface the timeout and the successes.
    let (status, body) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert_eq!(v["http"]["timeouts"].as_u64().unwrap(), 1, "{body}");
    assert!(v["http"]["responses_2xx"].as_u64().unwrap() >= 4, "{body}");
    assert!(v["http"]["requests"].as_u64().unwrap() >= 4, "{body}");

    handle.shutdown();
}

/// When the bounded queue is full, excess connections get an immediate
/// 503 + Retry-After instead of piling up unbounded — and the rejection
/// is visible in /stats.
#[test]
fn saturation_yields_503s_and_counts_rejections() {
    let _guard = watchdog(120);
    let metrics = HttpMetrics::new();
    let state = Arc::new(AppState::new(small_table()).with_http_metrics(metrics.clone()));
    // One worker that takes ~300ms per request + one queue slot.
    let config = ServerConfig { threads: 1, queue: 1, ..ServerConfig::default() };
    let handle = serve_with("127.0.0.1:0", config, metrics.clone(), move |req| {
        std::thread::sleep(Duration::from_millis(300));
        state.handle(req)
    })
    .unwrap();
    let addr = handle.addr;

    // Occupy the worker, then the queue slot.
    let slow = saturate(addr, &metrics);

    // Both capacity slots taken: the next connection is turned away.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("Retry-After: 1"), "{out}");

    // The occupants complete normally.
    for h in slow {
        let (status, _) = h.join().unwrap();
        assert_eq!(status, 200);
    }
    let (_, body) = request(addr, "GET", "/stats", "");
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert_eq!(v["http"]["rejected"].as_u64().unwrap(), 1, "{body}");
    assert!(v["http"]["responses_5xx"].as_u64().unwrap() >= 1, "{body}");

    handle.shutdown();
}

/// A panicking handler yields a 500 JSON error (not a dropped
/// connection), the worker survives, and the panic counter shows up in
/// /stats.
#[test]
fn panicking_route_returns_500_json_and_counts() {
    let _guard = watchdog(120);
    let metrics = HttpMetrics::new();
    let state = Arc::new(
        AppState::new(small_table()).with_http_metrics(metrics.clone()).with_debug_routes(true),
    );
    let handle =
        serve_with("127.0.0.1:0", ServerConfig::default(), metrics, move |req| state.handle(req))
            .unwrap();
    let addr = handle.addr;

    let (status, body) = request(addr, "GET", "/debug/panic", "");
    assert_eq!(status, 500, "{body}");
    assert_eq!(body, "{\"error\":\"internal server error\"}");

    // The pool keeps serving afterwards, and the counter is exposed.
    let (status, body) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let v = voxolap_json::Value::parse(&body).unwrap();
    assert_eq!(v["http"]["panics"].as_u64().unwrap(), 1, "{body}");
    assert_eq!(v["http"]["responses_5xx"].as_u64().unwrap(), 1, "{body}");

    handle.shutdown();
}

/// Shutdown completes within its drain deadline even while clients are
/// connected, and malformed framing is rejected at the parsing layer.
#[test]
fn parsing_rejections_and_bounded_shutdown() {
    let _guard = watchdog(120);
    let metrics = HttpMetrics::new();
    let state = Arc::new(AppState::new(small_table()).with_http_metrics(metrics.clone()));
    let config = ServerConfig::default().with_timeout_ms(500);
    let handle = serve_with("127.0.0.1:0", config, metrics, move |req| state.handle(req)).unwrap();
    let addr = handle.addr;

    // Non-numeric Content-Length → 400 (previously parsed as "no body").
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /ask HTTP/1.1\r\nContent-Length: ten\r\n\r\n0123456789").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");

    // Conflicting duplicates → 400.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /ask HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nab").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");

    // Oversized declared body → 413 without reading it.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /ask HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 413"), "{out}");

    // Shutdown with a live idle connection still returns promptly.
    let _idle = TcpStream::connect(addr).unwrap();
    let start = Instant::now();
    handle.shutdown_within(Duration::from_secs(2));
    assert!(start.elapsed() < Duration::from_secs(30), "shutdown not deadline-bounded");
}

/// Regression (§15): clients that accept their 503 but never read it
/// ("slowloris" on the reject path) must not stall the accept loop. The
/// old pool lingered up to 4 s per rejected connection *on the accept
/// thread*; the reactor bounds the linger by a deadline and handles it
/// off the accept path, so a healthy client still gets its (prompt)
/// answer while a crowd of slowloris rejects is mid-linger.
#[test]
fn slowloris_rejects_do_not_delay_healthy_accepts() {
    let _guard = watchdog(120);
    let metrics = HttpMetrics::new();
    let state = Arc::new(AppState::new(small_table()).with_http_metrics(metrics.clone()));
    // One busy worker + one queue slot: everything else is rejected.
    let config = ServerConfig { threads: 1, queue: 1, ..ServerConfig::default() };
    let handle = serve_with("127.0.0.1:0", config, metrics.clone(), move |req| {
        std::thread::sleep(Duration::from_millis(1500));
        state.handle(req)
    })
    .unwrap();
    let addr = handle.addr;

    // Saturate: one request in the worker, one in the queue.
    let occupants = saturate(addr, &metrics);

    // A crowd of slowloris clients: send a request, never read the 503.
    let slowloris: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
            s // kept open and unread
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.snapshot().rejected < 8 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    // A healthy client connecting now must be answered promptly — with
    // a 503 (still saturated), but without waiting on anyone's linger.
    let start = Instant::now();
    let (status, _) = request(addr, "GET", "/health", "");
    let elapsed = start.elapsed();
    assert_eq!(status, 503);
    assert!(elapsed < Duration::from_secs(2), "healthy accept delayed {elapsed:?} by rejects");

    // The occupants complete normally despite the slowloris crowd.
    for h in occupants {
        let (status, _) = h.join().unwrap();
        assert_eq!(status, 200);
    }
    drop(slowloris);
    handle.shutdown();
}

/// Regression (§15): shutdown under load answers every admitted request
/// exactly once — workers drain the queue (no busy-poll race that could
/// 503 a request a worker already dequeued), and late rejects cover the
/// rest. Every client sees exactly one well-formed HTTP response.
#[test]
fn shutdown_under_load_answers_every_admitted_request_exactly_once() {
    let _guard = watchdog(120);
    let metrics = HttpMetrics::new();
    let state = Arc::new(AppState::new(small_table()).with_http_metrics(metrics.clone()));
    let config = ServerConfig { threads: 2, queue: 32, ..ServerConfig::default() };
    let handle = serve_with("127.0.0.1:0", config, metrics.clone(), move |req| {
        std::thread::sleep(Duration::from_millis(100));
        state.handle(req)
    })
    .unwrap();
    let addr = handle.addr;

    let clients: Vec<_> = (0..12)
        .map(|_| {
            std::thread::spawn(move || {
                // A refused connect or failed write means the shutdown beat
                // this client to the listener: no response owed.
                let Ok(mut s) = TcpStream::connect(addr) else { return String::new() };
                if s.write_all(b"GET /health HTTP/1.1\r\n\r\n").is_err() {
                    return String::new();
                }
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut out = String::new();
                s.read_to_string(&mut out).unwrap_or(0);
                out
            })
        })
        .collect();
    // Let the load build, then shut down mid-flight. Accepts alone are not
    // enough: shutdown stops parsing new requests, so a connection that was
    // accepted but never read owes its client nothing — on a loaded host
    // (debug profile, suites in parallel) shutdown can land before any
    // request is parsed and every client legitimately ends empty. Wait for
    // a worker to dispatch at least one request (the `requests` counter
    // ticks at dequeue) with more accepted connections still behind it; the
    // deadline only bounds a wedged server.
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        let snap = metrics.snapshot();
        if snap.requests >= 1 && snap.accepted >= 6 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.shutdown_within(Duration::from_secs(10));

    let mut ok = 0u64;
    let mut turned_away = 0u64;
    for c in clients {
        let out = c.join().unwrap();
        if out.is_empty() {
            continue; // connected after the listener closed: no response owed
        }
        // Exactly one response per connection: one status line, complete.
        assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "double answer: {out}");
        let status: u16 = out.split_whitespace().nth(1).unwrap().parse().unwrap();
        match status {
            200 => ok += 1,
            503 => turned_away += 1,
            other => panic!("unexpected status {other}: {out}"),
        }
    }
    let snap = metrics.snapshot();
    assert_eq!(
        ok, snap.requests,
        "every request a worker handled must reach its client exactly once ({snap:?})"
    );
    assert!(ok + turned_away > 0, "no client was answered at all ({snap:?})");
}

/// Regression (§15): a client that disappears while its 503 is being
/// written (reset instead of FIN) must be counted as a reject-write
/// failure — never a panic, never a wedged reactor.
#[test]
fn client_reset_during_rejection_is_counted_not_fatal() {
    let _guard = watchdog(120);
    let metrics = HttpMetrics::new();
    let state = Arc::new(AppState::new(small_table()).with_http_metrics(metrics.clone()));
    let config = ServerConfig { threads: 1, queue: 1, ..ServerConfig::default() };
    let handle = serve_with("127.0.0.1:0", config, metrics.clone(), move |req| {
        std::thread::sleep(Duration::from_millis(800));
        state.handle(req)
    })
    .unwrap();
    let addr = handle.addr;

    let occupants = saturate(addr, &metrics);

    // Doomed clients: send a request, give the 503 time to land in the
    // receive buffer, then close without reading it. Closing with unread
    // data makes the kernel answer with RST, which is exactly the
    // mid-rejection hang-up the reject path must absorb.
    for _ in 0..4 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        drop(s); // RST while the server writes / lingers the 503
    }

    for h in occupants {
        let (status, _) = h.join().unwrap();
        assert_eq!(status, 200);
    }
    // The server is still healthy and nothing panicked.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = request(addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        let v = voxolap_json::Value::parse(&body).unwrap();
        assert_eq!(v["http"]["panics"].as_u64().unwrap(), 0, "{body}");
        // The resets surface as rejected connections; any undeliverable
        // 503 increments the write-failure counter rather than crashing.
        if v["http"]["rejected"].as_u64().unwrap() >= 4 {
            break;
        }
        assert!(Instant::now() < deadline, "rejects not recorded: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
    handle.shutdown();
}

/// Send `raw` on a fresh connection and require the first bytes back to be
/// exactly `expected`; the connection is returned for what follows.
fn exchange(addr: std::net::SocketAddr, raw: &str, expected: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut got = vec![0; expected.len()];
    s.read_exact(&mut got).unwrap();
    assert_eq!(String::from_utf8_lossy(&got), expected);
    s
}

/// Require the server to have closed `s` with nothing more to say.
fn assert_closed(mut s: TcpStream) {
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest));
}

/// The bytes on the wire, pinned: a plain `200` with either connection
/// disposition, a `503` with its `Retry-After`, a chunked NDJSON line and
/// the terminal chunk, and the session handshake with the `hello` the
/// default config announces.
#[test]
fn wire_bytes_are_pinned() {
    let _guard = watchdog(60);
    let state = Arc::new(AppState::new(small_table()));
    let handle = serve("127.0.0.1:0", move |req| match req.path.as_str() {
        "/busy" => Response::error(503, "busy"),
        "/stream" => Response::streaming(|sink| {
            sink.send_line("{\"n\":1}");
        }),
        _ => state.handle(req),
    })
    .unwrap();
    let addr = handle.addr;
    let health = |connection: &str| {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\
             Connection: {connection}\r\n\r\n{{\"status\":\"ok\"}}"
        )
    };
    assert_closed(exchange(addr, "GET /health HTTP/1.1\r\n\r\n", &health("close")));
    let keep_alive = "GET /health HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
    drop(exchange(addr, keep_alive, &health("keep-alive")));
    assert_closed(exchange(
        addr,
        "GET /busy HTTP/1.1\r\n\r\n",
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: 16\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{\"error\":\"busy\"}",
    ));
    assert_closed(exchange(
        addr,
        "GET /stream HTTP/1.1\r\n\r\n",
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\
         Connection: close\r\n\r\n8\r\n{\"n\":1}\n\r\n0\r\n\r\n",
    ));
    drop(exchange(
        addr,
        "GET /session/s1/attach HTTP/1.1\r\n\r\n",
        "HTTP/1.1 101 Switching Protocols\r\nUpgrade: voxolap-session\r\nConnection: Upgrade\r\n\r\n\
         {\"type\":\"hello\",\"session\":\"s1\",\"heartbeat_ms\":15000,\"idle_timeout_ms\":120000}\n",
    ));
    handle.shutdown();
}

/// `POST /ingest` has its own 1 MiB body cap, so the 2 000-row batch the
/// workloads are built around is appended as one version. Every other
/// route keeps 64 KiB, and an oversized declared length is refused before
/// any body byte is read.
#[test]
fn ingest_takes_a_two_thousand_row_batch_while_other_routes_keep_64_kib() {
    let _guard = watchdog(120);
    let table = small_table();
    let state = Arc::new(AppState::new(table.clone()));
    let handle = serve("127.0.0.1:0", move |req| state.handle(req)).unwrap();
    let addr = handle.addr;
    let version = || {
        let (_, body) = request(addr, "GET", "/stats", "");
        Value::parse(&body).unwrap()["version"].as_u64().unwrap()
    };

    let before = version();
    let batch: String = (0..2_000).map(|row| echo_line(&table, row) + "\n").collect();
    assert!(batch.len() > 64 * 1024, "the batch must be over the old cap: {}", batch.len());
    let (status, body) = request(addr, "POST", "/ingest", &batch);
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).unwrap();
    assert_eq!(v["appended"].as_u64(), Some(2_000), "{body}");
    assert_eq!(v["version"].as_u64(), Some(before + 1), "{body}");
    assert_eq!(version(), before + 1);

    let question = format!("{{\"question\": \"{}\"}}", "x".repeat(65 * 1024));
    let (status, body) = request(addr, "POST", "/ask", &question);
    assert_eq!(status, 413, "{body}");
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /ingest HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n").unwrap();
    let (status, body) = response(s);
    assert_eq!(status, 413, "{body}");
    assert_eq!(version(), before + 1);
    handle.shutdown();
}

/// A body nested 20 000 arrays deep is 20 KB, well under every body cap.
/// Parsing it used to recurse once per level and overflow a worker's
/// stack, which aborts the whole server — no `catch_unwind` can stop
/// that. Both JSON routes must refuse it, and the server must still be up.
#[test]
fn a_deeply_nested_body_is_a_400_not_an_abort() {
    let _guard = watchdog(120);
    let state = Arc::new(AppState::new(small_table()));
    let handle = serve("127.0.0.1:0", move |req| state.handle(req)).unwrap();
    let addr = handle.addr;
    let deep = "[".repeat(20_000);
    for path in ["/ask", "/ingest"] {
        let (status, body) = request(addr, "POST", path, &deep);
        assert_eq!(status, 400, "{path}: {body}");
    }
    let (status, body) = request(addr, "GET", "/health", "");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    handle.shutdown();
}
