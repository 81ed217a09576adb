//! The streaming speech pipeline (DESIGN.md §11).
//!
//! Every vocalizer is decomposed into four stages sharing one driver:
//!
//! ```text
//! Ingest ──► Plan/Sample ──► Commit ──► Emit
//! ```
//!
//! * **Ingest** happens at stream construction: start the preamble,
//!   consult the semantic cache, warm up the sample cache, calibrate σ,
//!   build the speech tree. (Optimal and PriorGreedy plug in here as an
//!   exact-plan stage — their whole speech is planned up front.)
//! * **Plan/Sample + Commit** run once per
//!   [`SpeechStream::next_sentence`] call through the holistic engine's
//!   driver: a team of [`ShardWorker`](crate::sampler::ShardWorker)s
//!   sampling under a `SelectionPolicy`, cooperatively at one thread or
//!   on scoped threads at several.
//! * **Emit** is the pull: the caller decides when to ask for the next
//!   sentence, and a [`CancelToken`] threaded through ingestion and UCT
//!   sampling aborts planning within one iteration when the consumer is
//!   gone.
//!
//! The blocking `Vocalizer::vocalize()` survives as a thin adapter —
//! [`SpeechStream::drain`] — with transcript bit-parity to the
//! pre-pipeline engines.

pub mod cancel;
pub(crate) mod driver;
pub mod stream;

pub use cancel::{CancelKind, CancelToken};
pub use stream::{PlannedSentence, SentenceStats, SpeechStream};
