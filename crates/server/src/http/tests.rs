use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::wire::{parse_request, Parsed, MAX_BODY, MAX_HEADER_BYTES};
use super::*;

fn start_echo() -> ServerHandle {
    serve("127.0.0.1:0", |req| {
        Response::ok(format!(
            "{{\"method\":{:?},\"path\":{:?},\"len\":{}}}",
            req.method,
            req.path,
            req.body.len()
        ))
    })
    .expect("bind")
}

fn raw_request(addr: std::net::SocketAddr, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// Read exactly one `Content-Length`-framed response off a keep-alive
/// connection (header section + declared body bytes).
fn read_one_response(s: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut tmp = [0u8; 1024];
    let head_len = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = s.read(&mut tmp).unwrap();
        assert!(n > 0, "EOF before headers: {:?}", String::from_utf8_lossy(&buf));
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_len]).to_string();
    let body_len: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string))
        .map(|v| v.trim().parse().unwrap())
        .unwrap_or(0);
    while buf.len() < head_len + body_len {
        let n = s.read(&mut tmp).unwrap();
        assert!(n > 0, "EOF mid-body");
        buf.extend_from_slice(&tmp[..n]);
    }
    String::from_utf8_lossy(&buf[..head_len + body_len]).to_string()
}

#[test]
fn parses_method_path_and_body() {
    let server = start_echo();
    let out = raw_request(
        server.addr,
        "POST /ask?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
    );
    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    assert!(out.contains("\"method\":\"POST\""));
    assert!(out.contains("\"path\":\"/ask\""), "query string stripped: {out}");
    assert!(out.contains("\"len\":4"));
    server.shutdown();
}

#[test]
fn bodyless_get() {
    let server = start_echo();
    let out = raw_request(server.addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(out.contains("\"path\":\"/health\""));
    assert!(out.contains("\"len\":0"));
    server.shutdown();
}

#[test]
fn oversized_body_is_rejected_without_reading_it() {
    let server = start_echo();
    // Only the headers are sent — the server must answer 413 from the
    // declared length alone, without waiting for body bytes.
    let out = raw_request(
        server.addr,
        &format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 10),
    );
    assert!(out.starts_with("HTTP/1.1 413"), "{out}");
    assert_eq!(server.metrics().snapshot().parse_errors, 1);
    server.shutdown();
}

#[test]
fn non_numeric_content_length_is_a_400() {
    let server = start_echo();
    let out = raw_request(server.addr, "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\nabcd");
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    assert!(out.contains("invalid Content-Length"), "{out}");
    server.shutdown();
}

#[test]
fn conflicting_content_lengths_are_a_400() {
    let server = start_echo();
    let out = raw_request(
        server.addr,
        "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd",
    );
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    assert!(out.contains("conflicting Content-Length"), "{out}");
    // Identical duplicates stay accepted.
    let out = raw_request(
        server.addr,
        "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
    );
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    server.shutdown();
}

#[test]
fn truncated_body_is_a_400() {
    let server = start_echo();
    // Fewer bytes than declared, then EOF (not a stall): the client
    // must close its write half so the server sees EOF, not silence.
    let mut s = TcpStream::connect(server.addr).unwrap();
    s.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    server.shutdown();
}

#[test]
fn oversized_headers_are_a_431() {
    let server = start_echo();
    let huge = format!("GET / HTTP/1.1\r\nX-Junk: {}\r\n\r\n", "j".repeat(MAX_HEADER_BYTES));
    let mut s = TcpStream::connect(server.addr).unwrap();
    // The server may respond and close before the write finishes;
    // tolerate the resulting EPIPE.
    let _ = s.write_all(huge.as_bytes());
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 431"), "{out}");
    server.shutdown();
}

/// Seeded mutational fuzz of [`parse_request`] (ROADMAP 10b): 512
/// cases grown from three valid requests by bit flips, truncation and
/// splices. The parser never panics, never claims more bytes than it
/// was given nor a body over the cap, and what it parsed does not
/// depend on what follows the bytes it consumed — the next pipelined
/// request, here garbage.
#[test]
fn parse_request_survives_mutated_requests() {
    const VALID: [&[u8]; 3] = [
        b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
        b"POST /ask?x=1 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\
          Content-Length: 17\r\n\r\n{\"question\":\"hi\"}",
        b"POST /ingest HTTP/1.1\nContent-Length: 4\nContent-Length: 4\n\nabcd",
    ];
    const GARBAGE: &[u8] = b"\xff\n\nGET /next HTTP/1.1\r\nContent-Length: 9\r\n\r\n\0";
    // splitmix64, as in `voxolap_data::chunk`: the case list is its seed.
    let mut state = 0x10b_f022_u64;
    let mut below = move |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((x ^ (x >> 31)) % bound.max(1) as u64) as usize
    };
    let parts = |p: Parsed| match p {
        Parsed::Request { req, consumed } => {
            Some((req.method, req.path, req.body, req.keep_alive, consumed))
        }
        _ => None,
    };
    let check = |buf: &[u8], case: &str| {
        let Some(first) = parts(parse_request(buf)) else { return false };
        let consumed = first.4;
        assert!(consumed <= buf.len() && first.2.len() <= MAX_BODY, "{case}");
        let followed = [&buf[..consumed], GARBAGE].concat();
        assert_eq!(parts(parse_request(&followed)), Some(first), "{case}");
        true
    };
    for valid in VALID {
        assert!(check(valid, "unmutated"), "{:?}", String::from_utf8_lossy(valid));
    }
    let mut parsed = 0;
    for case in 0..512 {
        let mut buf = VALID[below(3)].to_vec();
        for _ in 0..=below(3) {
            match below(3) {
                0 if !buf.is_empty() => {
                    let at = below(buf.len());
                    buf[at] ^= 1 << below(8);
                }
                1 => buf.truncate(below(buf.len() + 1)),
                _ => {
                    let donor = VALID[below(3)];
                    let from = below(donor.len());
                    let piece = &donor[from..from + below(donor.len() - from + 1)];
                    let at = below(buf.len() + 1);
                    buf.splice(at..at, piece.iter().copied());
                }
            }
        }
        let case = format!("case {case}: {:?}", String::from_utf8_lossy(&buf));
        parsed += usize::from(check(&buf, &case));
    }
    assert!(parsed > 64, "most mutants must not be trivially rejected: {parsed}");
}

#[test]
fn stalled_body_times_out_with_a_408() {
    let config = ServerConfig::default().with_timeout_ms(200);
    let metrics = HttpMetrics::new();
    let server =
        serve_with("127.0.0.1:0", config, metrics, |_| Response::ok("{}".to_string())).unwrap();
    let start = Instant::now();
    let mut s = TcpStream::connect(server.addr).unwrap();
    // Headers promise 10 bytes; the body never comes.
    s.write_all(b"POST /ask HTTP/1.1\r\nContent-Length: 10\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 408"), "{out}");
    assert!(start.elapsed() < Duration::from_secs(3), "timeout fired late");
    assert_eq!(server.metrics().snapshot().timeouts, 1);
    server.shutdown();
}

#[test]
fn panicking_handler_returns_500_and_counts() {
    let server = serve("127.0.0.1:0", |req| {
        if req.path == "/boom" {
            panic!("handler exploded");
        }
        Response::ok("{}".to_string())
    })
    .unwrap();
    let out = raw_request(server.addr, "GET /boom HTTP/1.1\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 500"), "{out}");
    assert!(out.contains("{\"error\":\"internal server error\"}"), "{out}");
    // The worker survives the panic and keeps serving.
    let out = raw_request(server.addr, "GET /fine HTTP/1.1\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    let snap = server.metrics().snapshot();
    assert_eq!(snap.panics, 1);
    assert_eq!(snap.responses_5xx, 1);
    server.shutdown();
}

#[test]
fn saturated_queue_yields_503_with_retry_after() {
    use std::sync::mpsc;
    // One worker stuck in the handler + a single queue slot: the
    // third concurrent connection must be rejected up front.
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let config = ServerConfig { threads: 1, queue: 1, ..ServerConfig::default() };
    let server = serve_with("127.0.0.1:0", config, HttpMetrics::new(), move |_| {
        let _ = release_rx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recv_timeout(Duration::from_secs(5));
        Response::ok("{}".to_string())
    })
    .unwrap();
    let addr = server.addr;

    let mut occupy = Vec::new();
    // First connection: wait until its request is *in the handler*
    // (the `requests` counter ticks just before dispatch), so the
    // single worker is provably busy before the next one arrives.
    occupy.push(std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n")));
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().snapshot().requests < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Second connection: fills the single queue slot.
    occupy.push(std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n")));
    let deadline = Instant::now() + Duration::from_secs(5);
    while {
        let q = server.shared.queue.lock().len();
        q < 1 && Instant::now() < deadline
    } {
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = raw_request(addr, "GET /rejected HTTP/1.1\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("Retry-After: 1"), "{out}");
    assert_eq!(server.metrics().snapshot().rejected, 1);

    release_tx.send(()).unwrap();
    release_tx.send(()).unwrap();
    for h in occupy {
        assert!(h.join().unwrap().starts_with("HTTP/1.1 200"));
    }
    server.shutdown();
}

#[test]
fn concurrent_requests_are_served() {
    let server = start_echo();
    let addr = server.addr;
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || raw_request(addr, &format!("GET /r{i} HTTP/1.1\r\n\r\n")))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h.join().unwrap();
        assert!(out.contains(&format!("/r{i}")));
    }
    let snap = server.metrics().snapshot();
    assert_eq!(snap.requests, 8);
    assert_eq!(snap.responses_2xx, 8);
    server.shutdown();
}

#[test]
fn streaming_response_is_chunked_with_terminal_chunk() {
    let server = serve("127.0.0.1:0", |_req| {
        Response::streaming(|w| {
            assert!(w.send_line("{\"n\":1}"));
            assert!(w.send_line("{\"n\":2}"));
        })
    })
    .unwrap();
    let out = raw_request(server.addr, "GET /s HTTP/1.1\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert!(out.contains("Transfer-Encoding: chunked"), "{out}");
    assert!(out.contains("application/x-ndjson"), "{out}");
    assert!(out.contains("{\"n\":1}"), "{out}");
    assert!(out.contains("{\"n\":2}"), "{out}");
    assert!(out.ends_with("0\r\n\r\n"), "terminal chunk present: {out:?}");
    let snap = server.metrics().snapshot();
    assert_eq!(snap.bytes_out, 16, "two 8-byte chunks counted");
    server.shutdown();
}

#[test]
fn stream_writer_detects_client_disconnect() {
    use std::sync::mpsc;
    let (tx, rx) = mpsc::channel::<bool>();
    let tx = Mutex::new(tx);
    let server = serve("127.0.0.1:0", move |_req| {
        let tx = tx.lock().unwrap_or_else(|e| e.into_inner()).clone();
        Response::streaming(move |w| {
            assert!(w.send_line("{\"n\":1}"));
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut gone = false;
            while !gone && Instant::now() < deadline {
                gone = w.client_gone();
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = tx.send(gone);
        })
    })
    .unwrap();
    let mut s = TcpStream::connect(server.addr).unwrap();
    s.write_all(b"GET /s HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = [0u8; 256];
    let _ = s.read(&mut buf); // first chunk arrived
    drop(s);
    assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "writer saw the disconnect");
    server.shutdown();
}

#[test]
fn shutdown_stops_accepting() {
    let server = start_echo();
    let addr = server.addr;
    server.shutdown();
    // After shutdown the port refuses or resets; either way no 200.
    let result = TcpStream::connect(addr);
    if let Ok(mut s) = result {
        let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(!out.contains("200 OK"), "{out}");
    }
}

#[test]
fn shutdown_is_deadline_bounded() {
    // Even with traffic in flight, shutdown_within returns promptly.
    let server = start_echo();
    let start = Instant::now();
    server.shutdown_within(Duration::from_millis(500));
    assert!(start.elapsed() < Duration::from_secs(5), "shutdown hung");
}

#[test]
fn keep_alive_reuses_one_connection_for_many_requests() {
    let server = start_echo();
    let mut s = TcpStream::connect(server.addr).unwrap();
    for i in 0..3 {
        s.write_all(format!("GET /ka{i} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").as_bytes())
            .unwrap();
        let out = read_one_response(&mut s);
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.contains("Connection: keep-alive"), "{out}");
        assert!(out.contains(&format!("/ka{i}")), "{out}");
    }
    let snap = server.metrics().snapshot();
    assert_eq!(snap.requests, 3);
    assert_eq!(snap.keepalive_reuses, 2, "follow-ups counted as reuses");
    assert_eq!(snap.accepted, 1, "one TCP connection for all three");
    server.shutdown();
}

#[test]
fn keep_alive_is_opt_in_per_request() {
    // Without the header the server closes after one response, so
    // legacy read-to-EOF clients keep working.
    let server = start_echo();
    let out = raw_request(server.addr, "GET /one HTTP/1.1\r\n\r\n");
    assert!(out.contains("Connection: close"), "{out}");
    assert_eq!(server.metrics().snapshot().keepalive_reuses, 0);
    server.shutdown();
}

#[test]
fn session_upgrade_carries_ndjson_lines_both_ways() {
    let server = serve("127.0.0.1:0", |req| {
        if req.path == "/attach" {
            Response::upgrade_session(SessionUpgrade {
                id: "s1".to_string(),
                on_line: Arc::new(|line, sink| {
                    if line.contains("bye") {
                        sink.send_line("{\"type\":\"bye\"}");
                        return SessionVerdict::Close;
                    }
                    sink.send_line(&format!("{{\"type\":\"echo\",\"got\":{}}}", line.len()));
                    SessionVerdict::Continue
                }),
            })
        } else {
            Response::error(404, "not found")
        }
    })
    .unwrap();
    let mut s = TcpStream::connect(server.addr).unwrap();
    s.write_all(b"GET /attach HTTP/1.1\r\nConnection: Upgrade\r\n\r\n").unwrap();
    let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    use std::io::BufRead;
    // 101 + empty line + hello.
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 101"), "{line}");
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim().is_empty() {
            break;
        }
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    // The transport's own hello, with the default cadence.
    assert_eq!(
        line,
        "{\"type\":\"hello\",\"session\":\"s1\",\"heartbeat_ms\":15000,\"idle_timeout_ms\":120000}\n"
    );
    // Two utterances on the same connection.
    for n in [3usize, 7] {
        s.write_all(format!("{{\"utter\":\"{}\"}}\n", "x".repeat(n)).as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"echo\""), "{line}");
    }
    // Farewell closes the connection server-side.
    s.write_all(b"{\"cmd\":\"bye\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"bye\""), "{line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF after bye: {line}");
    let snap = server.metrics().snapshot();
    assert_eq!(snap.sessions_opened, 1);
    assert_eq!(snap.sessions_closed, 1);
    assert_eq!(snap.session_lines, 3);
    server.shutdown();
}

#[test]
fn idle_session_gets_heartbeats_and_is_eventually_reaped() {
    let config = ServerConfig {
        heartbeat: Duration::from_millis(80),
        session_idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let server = serve_with("127.0.0.1:0", config, HttpMetrics::new(), move |_| {
        Response::upgrade_session(SessionUpgrade {
            id: "idle".to_string(),
            on_line: Arc::new(|_, _| SessionVerdict::Continue),
        })
    })
    .unwrap();
    let mut s = TcpStream::connect(server.addr).unwrap();
    s.write_all(b"GET /attach HTTP/1.1\r\n\r\n").unwrap();
    let mut out = String::new();
    // The server heartbeats, then reaps the idle session and closes,
    // unblocking read_to_string.
    s.read_to_string(&mut out).unwrap();
    assert!(out.contains("\"heartbeat_ms\":80,\"idle_timeout_ms\":400}"), "{out}");
    assert!(out.contains("\"heartbeat\""), "{out}");
    assert!(out.contains("\"reason\":\"idle\""), "{out}");
    let snap = server.metrics().snapshot();
    assert!(snap.heartbeats_sent >= 1, "{snap:?}");
    assert_eq!(snap.idle_closed, 1);
    assert_eq!(snap.sessions_closed, 1, "the close counted exactly once");
    server.shutdown();
}

#[test]
fn reject_write_failure_is_counted_not_panicked() {
    // A client that vanishes before its 503 can be written: the
    // reactor counts the failed delivery and moves on.
    let config = ServerConfig { max_connections: 1, ..ServerConfig::default() };
    let server =
        serve_with("127.0.0.1:0", config, HttpMetrics::new(), |_| Response::ok("{}".to_string()))
            .unwrap();
    // Occupy the single slot with a parked connection.
    let _held = TcpStream::connect(server.addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().snapshot().accepted < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Over-capacity connections get an immediate best-effort 503.
    let mut over = TcpStream::connect(server.addr).unwrap();
    let mut out = String::new();
    let _ = over.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 503") || out.is_empty(), "{out}");
    assert!(server.metrics().snapshot().rejected >= 1);
    server.shutdown();
}
