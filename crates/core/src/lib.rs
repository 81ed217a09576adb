//! # voxolap-core
//!
//! The paper's primary contribution: **holistic query evaluation and result
//! vocalization for voice-based OLAP** (paper §4), together with the
//! comparison approaches of its evaluation (§5).
//!
//! Four vocalizers share the [`Vocalizer`] interface:
//!
//! * [`holistic::Holistic`] — Algorithm 1: pipelined sampling + UCT
//!   planning overlapped with voice output; starts speaking the preamble
//!   immediately and refines quality estimates while each sentence plays.
//! * [`optimal::Optimal`] — evaluates the query exactly and scores every
//!   valid speech before speaking; the quality gold standard, far above the
//!   500 ms interactivity threshold on large data.
//! * [`unmerged::Unmerged`] — samples and plans for a fixed 500 ms budget,
//!   then commits to a whole speech; no overlap with voice output.
//! * [`prior::PriorGreedy`] — reimplementation of the greedy relational
//!   data-vocalization baseline (Trummer et al., VLDB'17) the paper
//!   compares against: enumerates the full result in value groups with
//!   greedy scope merging and no length budget.
//!
//! The holistic engine takes its planning-thread count from
//! [`Holistic::with_threads`](holistic::Holistic::with_threads) and nothing
//! else: at one thread (the default) it is deterministic under a seed; at N
//! the same workers — sharded row ingestion, lock-free UCT sampling — run
//! on scoped threads.
//!
//! Holistic, Optimal and Unmerged take one planner configuration,
//! [`HolisticConfig`] (Unmerged adds its
//! [`SamplingBudget`](unmerged::SamplingBudget)), and open their plan —
//! σ calibration and tree expansion around the overall value — through one
//! function, so the paper's comparison holds the speech space and the
//! estimator fixed by construction.
//!
//! ```
//! use voxolap_core::approach::Vocalizer;
//! use voxolap_core::holistic::{Holistic, HolisticConfig};
//! use voxolap_core::voice::VirtualVoice;
//! use voxolap_data::salary::SalaryConfig;
//! use voxolap_data::{DimId, dimension::LevelId};
//! use voxolap_engine::query::{AggFct, Query};
//!
//! let table = SalaryConfig::paper_scale().generate();
//! let query = Query::builder(AggFct::Avg)
//!     .group_by(DimId(0), LevelId(1))
//!     .group_by(DimId(1), LevelId(1))
//!     .build(table.schema()).unwrap();
//! let mut voice = VirtualVoice::default();
//! let outcome = Holistic::new(HolisticConfig::default())
//!     .vocalize(&table, &query, &mut voice);
//! assert!(outcome.body_text().contains("mid-career salary"));
//! ```

#![deny(unsafe_code)]

pub mod approach;
pub mod holistic;
pub mod optimal;
pub mod outcome;
pub mod parallel;
pub mod pipeline;
pub mod prior;
pub(crate) mod resilience;
pub mod sampler;
pub mod tree;
pub mod uncertainty;
pub mod unmerged;
pub mod voice;

pub use approach::Vocalizer;
pub use holistic::{Holistic, HolisticConfig};
pub use optimal::Optimal;
pub use outcome::{PlanStats, VocalizationOutcome};
pub use parallel::{ingest_throughput, IngestReport};
pub use pipeline::{CancelKind, CancelToken, PlannedSentence, SentenceStats, SpeechStream};
pub use prior::PriorGreedy;
pub use uncertainty::UncertaintyMode;
pub use unmerged::Unmerged;
pub use voice::{InstantVoice, VirtualVoice, VoiceOutput};
