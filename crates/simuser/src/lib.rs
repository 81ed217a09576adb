//! # voxolap-simuser
//!
//! Simulated-listener user studies reproducing the paper's crowd
//! experiments without crowd workers. The substitution is principled: the
//! paper's own belief model (§3.4) *is* a model of how an average listener
//! fills information gaps, validated by its pilot study. Our simulated
//! listeners instantiate that model with calibrated noise, plus the one
//! deviant behaviour the paper observed — workers who misread "values
//! increase **by** 100 %" as "increase **to** 100 %" (the user 1/8
//! outliers of Table 6).
//!
//! * [`listener`] — the simulated listener: belief-model estimates with
//!   noise, optional "increase-to" misunderstanding;
//! * [`pilot`] — the implicit-assumptions pilot study (Tables 2 and 10);
//! * [`estimation`] — the estimation study (Tables 6 and 14): absolute
//!   error and relative-tendency accuracy per approach;
//! * [`preference`] — the exploratory preference study (Tables 8 and 9):
//!   scripted analysis sessions, speech-length statistics, and a
//!   length-driven preference model;
//! * [`explore`] — fact extraction from vocalizations (Table 7 analogue).

pub mod estimation;
pub mod explore;
pub mod listener;
pub mod pilot;
pub mod preference;

pub use estimation::{EstimationResult, EstimationStudy};
pub use listener::{ListenerConfig, SimulatedListener};
pub use pilot::{PilotResult, PilotStudy};
pub use preference::{PreferenceResult, PreferenceStudy};
