//! `voxolap` — voice-based OLAP from the command line.
//!
//! ```text
//! voxolap ask "how does the cancellation probability depend on region and season?"
//! voxolap repl                      # interactive keyword session
//! voxolap stats                     # dataset statistics
//! voxolap compare "<question>"      # all four approaches side by side
//! ```
//!
//! Options (before the subcommand):
//!   --data flights|salary   dataset (default flights)
//!   --rows N                generated rows for flights (default 200000;
//!                           the paper's scale is 5300000)
//!   --csv PATH              load a CSV exported by voxolap instead
//!   --approach NAME         holistic|parallel|optimal|unmerged|prior
//!   --threads N             planning threads for --approach parallel
//!                           (default: all cores; 1 = deterministic)
//!   --chars-per-sec R       printed "speaking" rate (default 15; 0 = instant)
//!   --uncertainty MODE      off|warning|bounds
//!   --seed N                RNG seed (default 42)
//!   --cache-mb N            cross-query semantic cache budget in MiB
//!                           (default 64; 0 disables caching)
//!   --strict                fail on the first malformed CSV row instead of
//!                           skipping it (lenient-skip is the default)
//!   --data-dir PATH         recover ingested batches from a durable store
//!                           (the WAL, DESIGN.md §17) on top of the
//!                           generated/loaded seed before answering; the
//!                           WAL is flushed on exit
//!   --fsync-mode MODE       always|batch|off (default batch); only
//!                           meaningful with --data-dir
//!
//! An unknown flag, a missing value, or a value its flag cannot take is
//! refused with a message and exit status 1.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

use voxolap_core::approach::{self, ApproachOptions, Vocalizer};
use voxolap_core::uncertainty::UncertaintyMode;
use voxolap_core::voice::{InstantVoice, VoiceOutput};
use voxolap_core::CancelToken;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::salary::SalaryConfig;
use voxolap_data::stats::DatasetStats;
use voxolap_data::{DurabilityOptions, DurableTable, FsyncMode, Table};
use voxolap_engine::query::Query;
use voxolap_engine::semantic::SemanticCache;
use voxolap_voice::question::parse_question;
use voxolap_voice::session::{Response, Session};
use voxolap_voice::tts::{RealTimeVoice, DEFAULT_CHARS_PER_SEC};

/// Parsed command-line options.
struct Options {
    data: String,
    rows: usize,
    csv: Option<String>,
    approach: String,
    threads: Option<usize>,
    chars_per_sec: f64,
    uncertainty: UncertaintyMode,
    seed: u64,
    cache_mb: usize,
    strict: bool,
    data_dir: Option<String>,
    fsync_mode: FsyncMode,
    command: String,
    args: Vec<String>,
}

fn usage() -> &'static str {
    "usage: voxolap [options] <ask \"question\" | repl | stats | compare \"question\">\n\
     options:\n\
       --data flights|salary   dataset to generate (default flights)\n\
       --rows N                rows for the flights dataset (default 200000; paper: 5300000)\n\
       --csv PATH              load rows from a CSV exported by voxolap\n\
       --approach NAME         holistic|parallel|optimal|unmerged|prior (default holistic)\n\
       --threads N             planning threads for --approach parallel (default: all cores)\n\
       --chars-per-sec R       speaking rate for printed output (default 15; 0 = instant)\n\
       --uncertainty MODE      off|warning|bounds (default off)\n\
       --seed N                RNG seed (default 42)\n\
       --cache-mb N            semantic-cache budget in MiB (default 64; 0 disables)\n\
       --strict                fail on the first malformed CSV row (default: skip + count)\n\
       --data-dir PATH         recover durable ingest state (the WAL) over the seed\n\
       --fsync-mode MODE       always|batch|off (default batch); with --data-dir"
}

/// `value` parsed as `flag`'s number type.
fn num<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag} value"))
}

/// Parse `argv` (program name excluded).
fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        data: "flights".into(),
        rows: 200_000,
        csv: None,
        approach: "holistic".into(),
        threads: None,
        chars_per_sec: DEFAULT_CHARS_PER_SEC,
        uncertainty: UncertaintyMode::Off,
        seed: 42,
        cache_mb: 64,
        strict: false,
        data_dir: None,
        fsync_mode: FsyncMode::Batch,
        command: String::new(),
        args: Vec::new(),
    };
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().cloned().ok_or_else(|| format!("missing value after {arg}"));
        match arg.as_str() {
            "--data" => opts.data = value()?,
            "--rows" => opts.rows = num(arg, value()?)?,
            "--csv" => opts.csv = Some(value()?),
            "--approach" => opts.approach = value()?,
            "--threads" => match num(arg, value()?)? {
                0 => return Err("--threads must be at least 1".to_string()),
                n => opts.threads = Some(n),
            },
            "--chars-per-sec" => {
                opts.chars_per_sec = Some(num(arg, value()?)?)
                    .filter(|r: &f64| r.is_finite() && *r >= 0.0)
                    .ok_or("--chars-per-sec takes a finite number >= 0 (0 = instant)")?
            }
            "--uncertainty" => {
                opts.uncertainty = match value()?.as_str() {
                    "off" => UncertaintyMode::Off,
                    "warning" => UncertaintyMode::Warning { max_relative_width: 0.5 },
                    "bounds" => UncertaintyMode::SpokenBounds,
                    other => return Err(format!("unknown uncertainty mode {other:?}")),
                }
            }
            "--seed" => opts.seed = num(arg, value()?)?,
            "--cache-mb" => opts.cache_mb = num(arg, value()?)?,
            "--strict" => opts.strict = true,
            "--data-dir" => opts.data_dir = Some(value()?),
            "--fsync-mode" => opts.fsync_mode = FsyncMode::parse(&value()?)?,
            "--help" | "-h" => return Err(usage().to_string()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}\n{}", usage()))
            }
            _ if opts.command.is_empty() => opts.command = arg.clone(),
            _ => opts.args.push(arg.clone()),
        }
    }
    if opts.command.is_empty() {
        opts.command = "repl".into();
    }
    Ok(opts)
}

fn load_table(opts: &Options) -> Result<Table, String> {
    if let Some(path) = &opts.csv {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let schema = match opts.data.as_str() {
            "flights" => FlightsConfig::schema(),
            "salary" => SalaryConfig::schema(320),
            other => return Err(format!("unknown --data {other:?}")),
        };
        let mode = if opts.strict {
            voxolap_data::csv::CsvMode::Strict
        } else {
            voxolap_data::csv::CsvMode::Lenient
        };
        let import =
            voxolap_data::csv::import_csv(schema, &text, mode).map_err(|e| e.to_string())?;
        if import.skipped_rows > 0 {
            let first = import.first_error.as_ref().map(|e| e.to_string()).unwrap_or_default();
            eprintln!(
                "warning: skipped {} malformed row(s) in {path} (first: {first}); \
                 use --strict to fail instead",
                import.skipped_rows
            );
        }
        return Ok(import.table);
    }
    match opts.data.as_str() {
        "flights" => {
            eprintln!("generating flights dataset ({} rows)...", opts.rows);
            Ok(FlightsConfig { rows: opts.rows, seed: opts.seed }.generate())
        }
        "salary" => Ok(SalaryConfig::paper_scale().generate()),
        other => Err(format!("unknown --data {other:?}")),
    }
}

/// This invocation's seed, uncertainty mode and thread count for the
/// workspace's approach factory; no cache.
fn approach_options(opts: &Options) -> ApproachOptions {
    ApproachOptions {
        seed: opts.seed,
        uncertainty: opts.uncertainty,
        threads: opts.threads,
        ..ApproachOptions::default()
    }
}

/// Build `--approach` with what every query of one invocation shares: the
/// semantic cache (repeated and scope-overlapping repl questions get
/// faster as the session goes on; `--cache-mb 0` turns it off).
fn shared_vocalizer(opts: &Options) -> Result<Box<dyn Vocalizer>, String> {
    let mut options = approach_options(opts);
    options.cache =
        (opts.cache_mb > 0).then(|| Arc::new(SemanticCache::with_capacity_mb(opts.cache_mb)));
    approach::vocalizer(&opts.approach, &options)
}

fn make_voice(opts: &Options) -> Box<dyn VoiceOutput> {
    if opts.chars_per_sec == 0.0 {
        Box::new(InstantVoice::default())
    } else {
        Box::new(RealTimeVoice::new(opts.chars_per_sec))
    }
}

fn speak_stats(outcome: &voxolap_core::outcome::VocalizationOutcome) {
    eprintln!(
        "[latency {:?} | {} rows sampled | {} planner iterations | {} chars]",
        outcome.latency,
        outcome.stats.rows_read,
        outcome.stats.samples,
        outcome.body_len()
    );
}

/// Speak one query incrementally: print the preamble as soon as the query
/// compiles and each sentence the moment the planner commits to it, while
/// the planner keeps sampling behind the (simulated) speech.
fn speak_stream(
    vocalizer: &dyn Vocalizer,
    table: &Table,
    query: &Query,
    voice: &mut dyn VoiceOutput,
) {
    let mut stream = vocalizer.stream(table, query, voice, CancelToken::never());
    println!("{}", stream.preamble());
    while let Some(sentence) = stream.next_sentence() {
        println!("{}", sentence.text);
    }
    speak_stats(&stream.finish());
}

fn cmd_ask(opts: &Options, table: &Table) -> Result<(), String> {
    let question = opts.args.first().ok_or("ask needs a quoted question")?;
    let query = parse_question(table.schema(), question).map_err(|e| e.to_string())?;
    let vocalizer = shared_vocalizer(opts)?;
    let mut voice = make_voice(opts);
    speak_stream(vocalizer.as_ref(), table, &query, voice.as_mut());
    Ok(())
}

fn cmd_compare(opts: &Options, table: &Table) -> Result<(), String> {
    let question = opts.args.first().ok_or("compare needs a quoted question")?;
    let query = parse_question(table.schema(), question).map_err(|e| e.to_string())?;
    for name in ["holistic", "optimal", "unmerged", "prior"] {
        // No shared cache in compare mode: each approach
        // plans cold so the side-by-side isolates the planning strategies.
        let vocalizer = approach::vocalizer(name, &approach_options(opts))?;
        let mut voice: Box<dyn VoiceOutput> = Box::new(InstantVoice::default());
        let outcome = vocalizer.vocalize(table, &query, voice.as_mut());
        println!("\n== {name} (latency {:?}, {} chars) ==", outcome.latency, outcome.body_len());
        let text = outcome.full_text();
        if text.len() > 600 {
            println!("{}…", &text[..600]);
        } else {
            println!("{text}");
        }
    }
    Ok(())
}

fn cmd_stats(table: &Table) {
    let s = DatasetStats::of(table);
    println!("dataset:    {}", s.name);
    println!("dimensions: {}", s.dimensions.join(", "));
    println!("rows:       {}", s.rows);
    println!("size:       {}", s.size_display());
}

fn cmd_repl(opts: &Options, table: &Table) -> Result<(), String> {
    let vocalizer = shared_vocalizer(opts)?;
    let mut voice = make_voice(opts);
    let mut session = Session::new(table);
    eprintln!("voxolap repl — say \"help\" for keywords, \"quit\" to leave.");
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        // Session keywords take priority — "break down by region" must
        // accumulate state, not spawn a one-shot question. Only inputs
        // that look like full questions take the question path.
        let lower = line.to_lowercase();
        let looks_like_question = line.contains('?')
            || lower.starts_with("how ")
            || lower.starts_with("what ")
            || lower.contains("depend");
        if looks_like_question {
            match parse_question(table.schema(), &line) {
                Ok(query) => {
                    speak_stream(vocalizer.as_ref(), table, &query, voice.as_mut());
                    continue;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    continue;
                }
            }
        }
        match session.input(&line) {
            Ok(Response::Quit) => break,
            Ok(Response::Help(text)) => println!("{text}"),
            Ok(Response::Updated) => match session.query() {
                Ok(query) => speak_stream(vocalizer.as_ref(), table, &query, voice.as_mut()),
                Err(e) => eprintln!("error: {e}"),
            },
            Err(e) => eprintln!("error: {e}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let seed = match load_table(&opts) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // With --data-dir, replay durably ingested batches (e.g. from a
    // voxolap-server run against the same directory) on top of the seed
    // before answering anything.
    let durable = match &opts.data_dir {
        Some(dir) => {
            let options =
                DurabilityOptions { fsync_mode: opts.fsync_mode, ..DurabilityOptions::default() };
            match DurableTable::open(seed, dir, options) {
                Ok((durable, recovery)) => {
                    eprintln!(
                        "recovered {} batch(es), {} row(s) from {dir} \
                         (version {}, torn_truncations {}, {:.1}ms)",
                        recovery.replayed_batches,
                        recovery.replayed_rows,
                        recovery.version,
                        recovery.torn_tail_truncations,
                        recovery.recovery_ms,
                    );
                    durable
                }
                Err(e) => {
                    eprintln!("error: recovery from {dir} failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => DurableTable::memory(seed),
    };
    let table = durable.snapshot();
    let table = table.as_ref();
    let result = match opts.command.as_str() {
        "ask" => cmd_ask(&opts, table),
        "compare" => cmd_compare(&opts, table),
        "stats" => {
            cmd_stats(table);
            Ok(())
        }
        "repl" => cmd_repl(&opts, table),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    if let Err(e) = durable.shutdown_clean() {
        eprintln!("warning: could not flush the WAL: {e}");
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Options, String> {
        parse_options(&args.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn options_parse_from_a_slice_and_refuse_bad_rates_and_unknown_flags() {
        let o = parse("--rows 2000 --chars-per-sec 0 ask q").unwrap();
        assert_eq!((o.rows, o.chars_per_sec, o.command.as_str()), (2000, 0.0, "ask"));
        let o = parse("").unwrap();
        assert_eq!((o.chars_per_sec, o.command.as_str()), (DEFAULT_CHARS_PER_SEC, "repl"));
        for (args, names) in [
            ("--chars-per-sec nan ask q", "--chars-per-sec"),
            ("--chars-per-sec inf", "--chars-per-sec"),
            ("--chars-per-sec 1e400", "--chars-per-sec"),
            ("--chars-per-sec -1", "--chars-per-sec"),
            ("--scale-rows 5 ask q", "\"--scale-rows\""),
            ("--verbose", "\"--verbose\""),
            ("--fault-plan seed=1 ask q", "\"--fault-plan\""),
        ] {
            let err = parse(args).err().unwrap_or_else(|| panic!("{args} parsed"));
            assert!(err.contains(names), "{args}: {err}");
        }
    }
}
