//! # voxolap-faults
//!
//! How an engine's answers ended (DESIGN.md §12): [`Resilience`] counts
//! clean answers and answers degraded by a deadline cut, across runs, for
//! observability (`GET /stats`).
//!
//! The one failure a planner meets, a deadline, needs no injector: when
//! it passes mid-plan the planner commits the best baseline it has and
//! stops, tagging the answer degraded. A worker panicking ends its run,
//! and the request with it. Storage failures stay in the storage layer
//! (`voxolap_data::wal`), where tests force them through `WalFaults`.

#![deny(unsafe_code)]

mod hub;

pub use hub::Resilience;
