//! # voxolap-voice
//!
//! The interactive front-end substrate: a wall-clock text-to-speech
//! simulator, the keyword-based voice-input parser (the paper's input
//! component is "rather simple and based on keywords", §5.2), and an
//! interactive analysis session driver supporting drill-down, roll-up, and
//! dimension add/remove — the operations crowd workers used in the
//! exploratory study.
//!
//! ```
//! use voxolap_data::flights::FlightsConfig;
//! use voxolap_voice::session::Session;
//!
//! let table = FlightsConfig::small().generate();
//! let mut session = Session::new(&table);
//! session.input("break down by region").unwrap();
//! session.input("break down by season").unwrap();
//! let query = session.query().unwrap();
//! assert_eq!(query.n_aggregates(), 20); // 5 regions x 4 seasons
//! ```

pub mod parser;
pub mod question;
pub mod session;
pub mod tts;

pub use parser::{parse, Command};
pub use question::parse_question;
pub use session::Session;
pub use tts::RealTimeVoice;
