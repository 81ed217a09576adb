//! # voxolap-belief
//!
//! The user belief model of paper §3.4 and the speech-quality metric of
//! Definition 2.2.
//!
//! A pilot user study (paper Table 2) established that listeners fill gaps
//! in concise voice output by assuming **symmetric**, **unimodal**
//! (concentrated), **composable**, and **maximum-entropy-uniform** value
//! distributions, well approximated by normal distributions with a standard
//! deviation proportional to the mean. Accordingly, the belief a speech `t`
//! induces about aggregate `a` is
//!
//! ```text
//! B(a, t) = N( M(a, t), σ )
//! ```
//!
//! where the mean assignment `M` is computed by
//! [`CompiledSpeech`](voxolap_speech::scope::CompiledSpeech) and σ is a
//! scenario constant ≈ 50 % of the overall mean ([`BeliefModel`]).
//!
//! Speech quality (Definition 2.2) is the average, over all result
//! aggregates, of the probability the belief assigns to (a value range
//! including) the actual aggregate value.
//!
//! ```
//! use voxolap_belief::normal::Normal;
//! let n = Normal::new(120_000.0, 40_000.0);
//! // Beliefs concentrate around the mean and are symmetric.
//! assert!((n.cdf(120_000.0) - 0.5).abs() < 1e-9);
//! ```

#![deny(unsafe_code)]

pub mod model;
pub mod normal;
pub mod quality;

pub use model::{rounding_bucket, BeliefModel};
pub use normal::Normal;
pub use quality::speech_quality;
