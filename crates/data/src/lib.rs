//! # voxolap-data
//!
//! Data substrate for VoxOLAP: an in-memory columnar store with dimension
//! hierarchies, streaming (shuffled) row scanners, and deterministic
//! synthetic dataset generators reproducing the statistical structure of the
//! two datasets used in the paper's evaluation (flight cancellations and
//! mid-career salaries).
//!
//! The engine layered on top of this crate only requires that rows "can be
//! produced without significant startup overheads and at a sufficiently high
//! frequency" (paper §2). [`table::RowScanner`] delivers rows of a
//! [`table::Table`] in a deterministic pseudo-random order, which is what
//! the sampling cache in `voxolap-engine` consumes.
//!
//! ## Quick example
//!
//! ```
//! use voxolap_data::flights::FlightsConfig;
//!
//! // A small deterministic flights dataset (paper uses 5.3M rows).
//! let table = FlightsConfig::small().generate();
//! assert!(table.row_count() > 0);
//! // Three dimensions: start airport, flight date, airline.
//! assert_eq!(table.schema().dimensions().len(), 3);
//! ```

#![deny(unsafe_code)]

pub mod chunk;
pub mod csv;
pub mod dimension;
pub mod durable;
pub mod error;
pub mod flights;
pub mod live;
pub mod salary;
pub mod schema;
pub mod stats;
pub mod table;
pub mod wal;

pub use chunk::{InChunkPerm, Morsel, MorselPool, ScanOrder, CHUNK_ROWS};
pub use dimension::{Dimension, DimensionBuilder, LevelId, Member, MemberId};
pub use durable::{
    DurabilityOptions, DurabilitySnapshot, DurabilityStats, DurableTable, RecoveryReport,
};
pub use error::DataError;
pub use live::{AppendReport, LiveTable};
pub use schema::{DimId, Schema};
pub use stats::DatasetStats;
pub use table::{
    DimSlice, DimValue, IngestRow, MeasureSlice, Row, RowBlock, RowScanner, Table, TableBuilder,
    TableVersion,
};
pub use wal::{FsyncMode, WalBatch, WalFaults};
