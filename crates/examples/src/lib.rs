//! Thin anchor crate for the workspace-level `examples/` directory.
//!
//! Run the examples with, e.g.:
//!
//! ```text
//! cargo run --release -p voxolap-examples --example quickstart
//! cargo run --release -p voxolap-examples --example flight_analysis
//! cargo run --release -p voxolap-examples --example interactive_session
//! cargo run --release -p voxolap-examples --example custom_dataset
//! ```

#![deny(unsafe_code)]
