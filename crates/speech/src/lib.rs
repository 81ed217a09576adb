//! # voxolap-speech
//!
//! The speech grammar of paper §3.2 and everything needed to work with it:
//!
//! * [`ast`] — the abstract syntax (preamble ∘ baseline ∘ refinement*), with
//!   relative change descriptors;
//! * [`verbalize`] — number verbalization at one significant digit
//!   ("around two percent", "90 K");
//! * [`render`] — EBNF-faithful text rendering of speeches;
//! * [`scope`] — compilation of refinement predicates into aggregate-scope
//!   masks over a query's [`ResultLayout`](voxolap_engine::ResultLayout);
//! * [`candidates`] — enumeration of baseline and refinement candidates
//!   (the `SG.Refinements` speech-generation function) and the per-query
//!   refinement catalogue the search tree indexes into;
//! * [`constraints`] — user-preference limits on speech length (characters)
//!   and fragment count (`SG.IsValid`).
//!
//! ```
//! use voxolap_data::salary::SalaryConfig;
//! use voxolap_data::{DimId, dimension::LevelId};
//! use voxolap_engine::query::{AggFct, Query};
//! use voxolap_speech::ast::{Speech, Baseline, Refinement, Predicate, Change, Direction};
//! use voxolap_speech::render::Renderer;
//!
//! let table = SalaryConfig::paper_scale().generate();
//! let schema = table.schema();
//! let query = Query::builder(AggFct::Avg)
//!     .group_by(DimId(0), LevelId(1))
//!     .group_by(DimId(1), LevelId(1))
//!     .build(schema).unwrap();
//!
//! let college = schema.dimension(DimId(0));
//! let ne = college.member_by_phrase("the North East").unwrap();
//! let speech = Speech {
//!     baseline: Baseline::point(90.0),
//!     refinements: vec![Refinement {
//!         predicates: vec![Predicate { dim: DimId(0), member: ne }],
//!         change: Change { direction: Direction::Increase, percent: 5 },
//!     }],
//! };
//! let text = Renderer::new(schema, &query).speech_text(&speech);
//! assert!(text.contains("90 K is the average"));
//! assert!(text.contains("increase by 5 percent"));
//! ```

pub mod ast;
pub mod candidates;
pub mod constraints;
pub mod parse;
pub mod render;
pub mod scope;
pub mod verbalize;

pub use ast::{Baseline, Change, Direction, Predicate, Refinement, Speech};
pub use candidates::{CandidateConfig, CandidateGenerator, CatalogueEntry, RefinementCatalogue};
pub use constraints::SpeechConstraints;
pub use parse::{parse_body, SpeechParseError};
pub use render::{aggregate_phrase, render_unit, Renderer};
pub use scope::{CompiledSpeech, RefinementScope};
