//! The streaming speech pipeline (DESIGN.md §11).
//!
//! Every vocalizer is decomposed into four stages sharing one driver:
//!
//! ```text
//! Ingest ──► Plan/Sample ──► Commit ──► Emit
//! ```
//!
//! * **Ingest** is split at the preamble. Stream construction does what
//!   needs no data: consult the semantic cache's exact entries, start the
//!   preamble. The holistic engine's data-dependent part — snapshot
//!   repair and warm start, warm-up, σ calibration, the speech tree, or
//!   the whole exhaustive plan of an exact hit — is
//!   [`Deferred`](stream) to the first pull, where it overlaps the
//!   preamble being spoken. (Optimal, Unmerged and PriorGreedy plan their
//!   whole speech before output starts: that is their definition.)
//! * **Plan/Sample + Commit** run once per
//!   [`SpeechStream::next_sentence`] call through the holistic engine's
//!   driver: the engine's [`Team`](crate::sampler::Team) sampling under
//!   a `SelectionPolicy`, every member running one loop on a shared
//!   iteration counter that paces them all against the voice.
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
