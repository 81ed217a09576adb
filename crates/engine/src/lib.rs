//! # voxolap-engine
//!
//! OLAP query model and evaluation substrate for VoxOLAP.
//!
//! A [`Query`] is characterized by an aggregation function,
//! an (implicit) aggregation column — the table's measure — and a set of
//! aggregates arising as the cross product of grouped dimension members
//! under optional filter restrictions (paper §2).
//!
//! Two evaluation paths are provided:
//!
//! * [`exact`] — a full scan with group-by, used by the *Optimal* planner
//!   variant and by exact speech-quality computation;
//! * [`sharded`] — the continuously-filled sample cache of paper
//!   Algorithm 3, supplying count estimates and the normal posterior of
//!   each aggregate's mean from running moments to the *Holistic* and
//!   *Unmerged* planners, at any thread count. [`cache`] holds the
//!   sequential [`SampleCache`] the sharded cache is tested against, and
//!   [`resample`] its fixed-size resample estimator; both are a reference
//!   and the subject of a benchmark micro-measurement, with no planner
//!   caller.
//!
//! ```
//! use voxolap_data::salary::SalaryConfig;
//! use voxolap_engine::query::{AggFct, Query};
//! use voxolap_engine::exact::evaluate;
//! use voxolap_data::{DimId, dimension::LevelId};
//!
//! let table = SalaryConfig::paper_scale().generate();
//! // AVG(midCareer) GROUP BY region, rough start salary
//! let query = Query::builder(AggFct::Avg)
//!     .group_by(DimId(0), LevelId(1))
//!     .group_by(DimId(1), LevelId(1))
//!     .build(table.schema())
//!     .unwrap();
//! let result = evaluate(&query, &table);
//! assert_eq!(result.values().len(), 4 * 2); // 4 regions x 2 rough bins
//! ```

pub mod cache;
pub mod error;
pub mod exact;
pub mod poison;
pub mod query;
pub mod repair;
pub mod resample;
pub mod semantic;
pub mod sharded;

pub use cache::SampleCache;
pub use error::EngineError;
pub use exact::{evaluate, ExactResult};
pub use query::{
    decode_agg, AggFct, AggIdx, Query, QueryBuilder, QueryKey, ResultLayout, ScopeKey,
    AGG_OUT_OF_SCOPE,
};
pub use repair::{repair_snapshot, RepairOutcome};
pub use resample::{CacheEstimate, ResampleScratch};
pub use semantic::{
    CacheStats, ExactAggregates, ExactLookup, PlanRecord, SampleSnapshot, SemanticCache,
};
pub use sharded::{IngestBatch, Moments, Posterior, ShardedSampleCache};
