//! # voxolap-server
//!
//! The server-side component of a web interface for voice-based OLAP —
//! the substrate behind the paper's exploratory user study (§B.2: a JEE
//! server on Heroku whose JavaScript client sent asynchronous requests;
//! "users can switch freely between the two compared vocalization methods
//! for each single query").
//!
//! A deliberately dependency-free HTTP/1.1 implementation over
//! `std::net::TcpListener` — a bounded worker pool with socket timeouts,
//! panic isolation, graceful shutdown, and per-request counters (see
//! [`http`] and DESIGN.md §10) — with a small JSON API:
//!
//! | Method & path | Body | Response |
//! |---|---|---|
//! | `GET /health` | — | `{"status":"ok"}` |
//! | `GET /stats` | — | dataset statistics |
//! | `POST /ingest` | NDJSON fact rows | append report (see DESIGN.md §16) |
//! | `POST /ask` | `{"question": "...", "approach": "holistic"?}` | spoken answer + planner stats |
//! | `POST /query/stream` | `{"question": "...", "approach": ...?}` | the answer as chunked NDJSON events |
//! | `POST /session/<id>/input` | `{"text": "...", "approach": ...?}` | per-session keyword command → spoken answer, same body as `/ask` |
//! | `GET /session/<id>/attach` | — | `101` upgrade to a long-lived NDJSON session (see DESIGN.md §15); each `utter` line is answered with the events of `/query/stream` |
//!
//! The four answer routes are one path — resolve → speak → encode
//! (DESIGN.md §11) — and differ only in where the words come from, the
//! voice that paces planning, and the sink the events go to. Sessions
//! accumulate drill-down state per id, exactly like the paper's per-worker
//! sessions; the `approach` field switches vocalization method per
//! request, enabling the Table 8 comparison workflow.

pub mod api;
pub mod http;
pub mod reactor;

pub use api::{AppState, SessionEntry, SessionStore};
pub use http::{
    serve, serve_with, HttpMetrics, HttpMetricsSnapshot, LineSink, Request, Response, ServerConfig,
    ServerHandle, SessionUpgrade, SessionVerdict, StreamBody,
};
pub use reactor::{install_shutdown_signals, raise_nofile_limit};
