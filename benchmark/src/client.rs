//! The loopback client: a buffered wire reader for HTTP heads, chunked
//! NDJSON bodies and upgraded session lines, and the request helpers the
//! workloads drive the real server with. Everything a workload measures
//! is stamped here, on the client's clock.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use voxolap_json::Value;

/// Client-side socket timeout: far above any healthy answer, so a hung
/// server fails the run instead of hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// An HTTP response head, reduced to what the client acts on.
#[derive(Debug, PartialEq, Eq)]
pub struct Head {
    pub status: u16,
    pub chunked: bool,
    pub content_length: usize,
}

/// Buffered reader over any byte source. Reads may split a line, a chunk
/// header or a payload anywhere, or coalesce several of them into one
/// buffer; every method loops on `fill` until its unit is complete.
pub struct Wire<R> {
    inner: R,
    buf: Vec<u8>,
    /// De-chunked body bytes not yet handed out as a line.
    body: Vec<u8>,
    /// The terminal zero-length chunk of the current body was consumed.
    body_done: bool,
}

impl<R: Read> Wire<R> {
    pub fn new(inner: R) -> Self {
        Wire { inner, buf: Vec::new(), body: Vec::new(), body_done: false }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.inner.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// One `\n`-terminated line off the raw stream (CR stripped).
    pub fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line).map_err(|_| bad("line is not UTF-8"));
            }
            self.fill()?;
        }
    }

    /// Status line plus headers, up to the blank line.
    pub fn read_head(&mut self) -> io::Result<Head> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut head = Head { status, chunked: false, content_length: 0 };
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                self.body.clear();
                self.body_done = false;
                return Ok(head);
            }
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("transfer-encoding") {
                head.chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("content-length") {
                head.content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }

    /// Exactly `n` raw bytes (a `Content-Length` body).
    pub fn read_exact_body(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    /// Pull one chunk into `body`; `false` on the terminal chunk.
    fn read_chunk(&mut self) -> io::Result<bool> {
        let size_line = self.read_line()?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
        while self.buf.len() < size + 2 {
            self.fill()?;
        }
        self.body.extend(self.buf.drain(..size));
        if self.buf.drain(..2).collect::<Vec<u8>>() != b"\r\n" {
            return Err(bad("chunk not CRLF-terminated"));
        }
        Ok(size != 0)
    }

    /// Next NDJSON line of a chunked body, however the lines fall across
    /// chunks; `None` once the terminal chunk has been read.
    pub fn next_body_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.body.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.body.drain(..=pos).collect();
                line.pop();
                return String::from_utf8(line).map(Some).map_err(|_| bad("line is not UTF-8"));
            }
            if self.body_done {
                if self.body.is_empty() {
                    return Ok(None);
                }
                return Err(bad("chunked body ended mid-line"));
            }
            self.body_done = !self.read_chunk()?;
        }
    }
}

/// One answer as the client saw it: arrival offsets from the request
/// write, the spoken text, and the `done` record's counters.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    /// Offsets in ms from `t0` (taken just before the request is written).
    pub write_ms: f64,
    pub preamble_ms: f64,
    pub sentence_ms: Vec<f64>,
    pub done_ms: f64,
    pub preamble: String,
    pub sentences: Vec<String>,
    pub rows_read: u64,
    pub samples: u64,
    pub degraded: bool,
    pub stale: bool,
    /// Why the answer does not count as served (non-2xx, no `done`, …).
    pub error: Option<String>,
    /// Start of the request on the process clock, for the tracer.
    pub t0: Option<Instant>,
}

impl Answer {
    /// The answer as read, or — after a transport or protocol fault — a
    /// failed one that keeps only when it was asked and why it failed.
    fn settle(self, t0: Instant, read: io::Result<()>) -> Answer {
        match read {
            Ok(()) => self,
            Err(e) => Answer { error: Some(e.to_string()), t0: Some(t0), ..Answer::default() },
        }
    }

    /// Request write → first result sentence.
    pub fn ttfs_ms(&self) -> Option<f64> {
        self.sentence_ms.first().copied()
    }
}

/// Fold one speech event into `answer`; `true` when it was the `done`.
fn absorb_event(answer: &mut Answer, line: &str, at_ms: f64) -> io::Result<bool> {
    let v = Value::parse(line).map_err(|_| bad(format!("event is not JSON: {line:?}")))?;
    match v["type"].as_str().unwrap_or("") {
        "preamble" => {
            answer.preamble_ms = at_ms;
            answer.preamble = v["text"].as_str().unwrap_or("").to_string();
        }
        "sentence" => {
            answer.sentence_ms.push(at_ms);
            answer.sentences.push(v["text"].as_str().unwrap_or("").to_string());
        }
        "done" => {
            answer.done_ms = at_ms;
            answer.rows_read = v["rows_read"].as_u64().unwrap_or(0);
            answer.samples = v["samples"].as_u64().unwrap_or(0);
            answer.degraded = v["degraded"].as_bool().unwrap_or(false);
            answer.stale = v["stale"].as_bool().unwrap_or(false);
            if v["cancelled"].as_bool().unwrap_or(false) {
                answer.error = Some("answer was cancelled".to_string());
            }
            return Ok(true);
        }
        "heartbeat" | "pong" => {}
        "error" | "bye" | "help" => {
            return Err(bad(format!("unexpected event mid-answer: {line}")));
        }
        other => return Err(bad(format!("unknown event type {other:?}"))),
    }
    Ok(false)
}

/// A keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    wire: Wire<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let wire = Wire::new(stream.try_clone()?);
        Ok(Conn { stream, wire })
    }

    fn write_request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.stream.write_all(&req)
    }

    /// A plain request/response exchange; returns status and body.
    pub fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, String)> {
        self.write_request(method, path, body)?;
        let head = self.wire.read_head()?;
        let body = if head.chunked {
            let mut out = String::new();
            while let Some(line) = self.wire.next_body_line()? {
                out.push_str(&line);
                out.push('\n');
            }
            out
        } else {
            String::from_utf8(self.wire.read_exact_body(head.content_length)?)
                .map_err(|_| bad("body is not UTF-8"))?
        };
        Ok((head.status, body))
    }

    /// `POST /query/stream`: one spoken answer over chunked NDJSON.
    /// Transport and protocol faults come back inside the [`Answer`] so
    /// the caller counts them instead of aborting the workload.
    pub fn ask_stream(&mut self, question: &str, approach: &str) -> Answer {
        let body =
            Value::obj([("question", question.into()), ("approach", approach.into())]).to_string();
        let t0 = Instant::now();
        let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
        let mut answer = Answer { t0: Some(t0), ..Answer::default() };
        let result = (|| -> io::Result<()> {
            self.write_request("POST", "/query/stream", body.as_bytes())?;
            answer.write_ms = ms(t0);
            let head = self.wire.read_head()?;
            if head.status != 200 || !head.chunked {
                let detail = self.wire.read_exact_body(head.content_length)?;
                return Err(bad(format!(
                    "status {}: {}",
                    head.status,
                    String::from_utf8_lossy(&detail)
                )));
            }
            let mut done = false;
            while let Some(line) = self.wire.next_body_line()? {
                done |= absorb_event(&mut answer, &line, ms(t0))?;
            }
            if !done {
                return Err(bad("stream ended without a done record"));
            }
            Ok(())
        })();
        answer.settle(t0, result)
    }

    /// `GET /session/<id>/attach`: upgrade to the NDJSON session transport
    /// and consume the `hello`.
    pub fn attach(addr: SocketAddr, id: &str) -> io::Result<Conn> {
        let mut conn = Conn::connect(addr)?;
        let req = format!("GET /session/{id}/attach HTTP/1.1\r\nHost: bench\r\n\r\n");
        conn.stream.write_all(req.as_bytes())?;
        let head = conn.wire.read_head()?;
        if head.status != 101 {
            return Err(bad(format!("attach got {}, want 101", head.status)));
        }
        let hello = conn.wire.read_line()?;
        if !hello.contains("\"hello\"") {
            return Err(bad(format!("expected hello, got {hello:?}")));
        }
        Ok(conn)
    }

    /// One utterance on an attached session, read to its `done`.
    pub fn utter(&mut self, text: &str) -> Answer {
        let line = Value::obj([("type", "utter".into()), ("text", text.into())]).to_string();
        let t0 = Instant::now();
        let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
        let mut answer = Answer { t0: Some(t0), ..Answer::default() };
        let result = (|| -> io::Result<()> {
            self.stream.write_all(format!("{line}\n").as_bytes())?;
            answer.write_ms = ms(t0);
            loop {
                let event = self.wire.read_line()?;
                if absorb_event(&mut answer, &event, ms(t0))? {
                    return Ok(());
                }
            }
        })();
        answer.settle(t0, result)
    }

    /// End an attached session: send `bye`, expect the server's farewell.
    pub fn bye(mut self) -> io::Result<()> {
        self.stream.write_all(b"{\"type\":\"bye\"}\n")?;
        loop {
            let line = self.wire.read_line()?;
            if line.contains("\"bye\"") {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte source that hands out its script in fixed-size reads.
    struct Drip {
        data: Vec<u8>,
        pos: usize,
        step: usize,
    }

    impl Read for Drip {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn chunk(payload: &str) -> String {
        format!("{:x}\r\n{payload}\r\n", payload.len())
    }

    /// A streamed answer whose second line is split across two chunks and
    /// whose third shares a chunk with it, then a plain keep-alive
    /// response on the same connection.
    fn response() -> String {
        [
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\n\r\n",
            &chunk("{\"type\":\"preamble\"}\n"),
            &chunk("{\"type\":\""),
            &chunk("sentence\"}\n{\"type\":\"sentence\"}\n"),
            &chunk("{\"type\":\"done\"}\n"),
            &chunk(""),
            "HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n{\"status\":\"ok\"}",
        ]
        .concat()
    }

    fn drain(step: usize) -> (Head, Vec<String>, Head, Vec<u8>) {
        let mut wire = Wire::new(Drip { data: response().into_bytes(), pos: 0, step });
        let head = wire.read_head().unwrap();
        let mut lines = Vec::new();
        while let Some(line) = wire.next_body_line().unwrap() {
            lines.push(line);
        }
        let next = wire.read_head().unwrap();
        let body = wire.read_exact_body(next.content_length).unwrap();
        (head, lines, next, body)
    }

    #[test]
    fn chunked_ndjson_survives_split_and_coalesced_reads() {
        // One byte at a time splits every header, chunk size and payload;
        // one huge read coalesces both responses into a single buffer.
        for step in [1, 2, 3, 7, 64, 1 << 16] {
            let (head, lines, next, body) = drain(step);
            assert_eq!(head, Head { status: 200, chunked: true, content_length: 0 }, "{step}");
            assert_eq!(
                lines,
                [
                    "{\"type\":\"preamble\"}",
                    "{\"type\":\"sentence\"}",
                    "{\"type\":\"sentence\"}",
                    "{\"type\":\"done\"}"
                ],
                "step {step}: a line split across chunks and two lines in one chunk"
            );
            assert_eq!(next, Head { status: 200, chunked: false, content_length: 15 });
            assert_eq!(body, b"{\"status\":\"ok\"}");
        }
    }

    #[test]
    fn truncated_streams_are_errors_not_answers() {
        let full = response();
        let cut = &full.as_bytes()[..full.find("{\"type\":\"done\"}").unwrap()];
        let mut wire = Wire::new(Drip { data: cut.to_vec(), pos: 0, step: 5 });
        wire.read_head().unwrap();
        let mut seen = 0;
        let err = loop {
            match wire.next_body_line() {
                Ok(Some(_)) => seen += 1,
                Ok(None) => panic!("a cut stream must not end cleanly"),
                Err(e) => break e,
            }
        };
        assert_eq!(seen, 3);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn events_fold_into_an_answer() {
        let mut a = Answer::default();
        assert!(!absorb_event(&mut a, "{\"type\":\"preamble\",\"text\":\"P\"}", 1.0).unwrap());
        assert!(!absorb_event(&mut a, "{\"type\":\"heartbeat\"}", 1.5).unwrap());
        assert!(!absorb_event(&mut a, "{\"type\":\"sentence\",\"text\":\"S\"}", 2.0).unwrap());
        let done = "{\"type\":\"done\",\"rows_read\":7,\"samples\":3,\"degraded\":true}";
        assert!(absorb_event(&mut a, done, 3.0).unwrap());
        assert_eq!((a.preamble.as_str(), a.ttfs_ms(), a.done_ms), ("P", Some(2.0), 3.0));
        assert_eq!((a.rows_read, a.samples, a.degraded, a.stale), (7, 3, true, false));
        assert!(a.error.is_none());
        assert!(absorb_event(&mut a, "{\"type\":\"error\",\"message\":\"x\"}", 4.0).is_err());
        assert!(absorb_event(&mut a, "not json", 4.0).is_err());
    }
}
