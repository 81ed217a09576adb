//! One benchmark for the whole voice loop: socket-to-sentence latency,
//! speech quality and a per-layer budget. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   # one run, one JSON line
//! benchmark run     [--seed N] [--seconds S] [--repeat K] [--smoke]
//! benchmark trace   [--seed N] [--seconds S] [--smoke]
//! benchmark compare A.json B.json     # bounds from ./BENCHMARK.json
//! benchmark manifest                  # BENCHMARK.json, from the metric registry
//! ```

mod client;
mod compare;
mod host;
mod micro;
mod quality;
mod report;
mod script;
mod stats;
mod tracer;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use voxolap_json::Value;

use report::Metric;
use tracer::{Span, Tracer};
use workloads::{Outcome, RunConfig, Workload};

/// Window length when `--seconds` is not given; also `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 40.0;

/// The record an untraced one-run invocation leaves under [`OUT_DIR`]
/// for `run` to collect.
///
/// [`OUT_DIR`]: workloads::OUT_DIR
const RUN_RECORD: &str = "run.json";

struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key} {v:?} is not a valid value")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// What every mode shares.
struct Common {
    seed: u64,
    seconds: f64,
    smoke: bool,
}

impl Common {
    fn from(args: &Args) -> Result<Common, String> {
        let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
        if !(1.0..=600.0).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 1..=600"));
        }
        Ok(Common { seed: args.parsed("--seed", 1)?, seconds, smoke: args.flag("--smoke") })
    }

    fn config(&self, workload: Workload, seed: u64) -> RunConfig {
        RunConfig {
            workload,
            seed,
            window_s: self.seconds,
            smoke: self.smoke,
            setups: workloads::SETUP_REPEATS,
            whole_passes: true,
        }
    }

    fn header(&self) -> Value {
        host::header(vec![
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("smoke", self.smoke.into()),
            ("paper_rows", Workload::ColdPaper.rows(self.smoke).into()),
            ("small_rows", Workload::SessionDrill.rows(self.smoke).into()),
            ("table_seed", workloads::TABLE_SEED.into()),
            ("http_threads", host::nproc().into()),
            ("planner_threads", host::nproc().into()),
            ("client_threads_max", workloads::CLIENT_THREADS_MAX.into()),
            ("setups_per_run", workloads::SETUP_REPEATS.into()),
            ("utterance_deadline_ms", (workloads::UTTERANCE_DEADLINE.as_millis() as u64).into()),
            ("ingest_batch_rows", workloads::BATCH_ROWS.into()),
            ("ingest_batches_per_s", workloads::APPENDS_PER_S.into()),
            ("fsync_mode", "batch".into()),
        ])
    }
}

/// Everything a traced pass of one workload produced.
struct Traced {
    plain: Outcome,
    traced: Outcome,
    spans: Vec<Span>,
    metrics: Vec<Metric>,
}

/// A traced pass: a quarter of the time untraced, a quarter traced with
/// every request replayed in-process, half on the micro-series.
fn traced_pass(common: &Common, workload: Workload) -> Result<Traced, String> {
    let stretch = RunConfig {
        window_s: common.seconds / 4.0,
        setups: 1,
        whole_passes: false,
        ..common.config(workload, common.seed)
    };
    let plain = workloads::run(&stretch, None)?;
    let tracer = Tracer::new();
    let traced = workloads::run(&stretch, Some(&tracer))?;
    let micro = micro::run(
        Workload::ColdPaper.rows(common.smoke),
        Workload::SessionDrill.rows(common.smoke),
        Duration::from_secs_f64(common.seconds / 2.0),
    );
    let spans = tracer.spans();
    let metrics = report::per_layer(&plain, &traced, &spans, micro);
    Ok(Traced { plain, traced, spans, metrics })
}

/// `value` with one array element or object field per line, two levels
/// deep: enough to make `BENCHMARK.json` diffable.
fn pretty(value: &Value, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match value {
        Value::Object(fields) if depth < 1 => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", voxolap_json::escape(k), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        Value::Array(items) if depth < 2 && items.iter().any(|i| matches!(i, Value::Object(_))) => {
            let body: Vec<String> = items.iter().map(|v| format!("{pad}{v}")).collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        other => other.to_string(),
    }
}

fn out_file(name: &str) -> PathBuf {
    Path::new(workloads::OUT_DIR).join(name)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{value}\n")).map_err(|e| format!("write {}: {e}", path.display()))
}

fn trace_json(passes: &[(Workload, &[Span])]) -> Value {
    Value::obj([(
        "workloads",
        Value::Array(
            passes
                .iter()
                .map(|(w, spans)| {
                    let Value::Object(mut fields) = tracer::to_json(spans) else { unreachable!() };
                    fields.insert(0, ("workload".to_string(), w.name().into()));
                    Value::Object(fields)
                })
                .collect(),
        ),
    )])
}

/// Everything one untraced run has to say, for people: the bounded
/// metrics, what was observed beside them, the question kinds the best-of
/// metrics are made of, the writer's lateness, the reopen check, failures.
fn print_run(o: &Outcome, metrics: &[Metric], observed: &[Metric]) {
    let title = format!(
        "{} (seed {}, {} rows, {} answers, {:.1} s)",
        o.config.workload.name(),
        o.config.seed,
        o.rows(),
        o.asked.len(),
        o.window_s
    );
    report::print_table(&title, metrics);
    report::print_table("  observed, not bounded", observed);
    for (label, n, [ttfs_best, ttfs_p50, done_best, done_p50]) in report::by_label(o) {
        eprintln!(
            "    {label:<10} n={n:<3} ttfs best {ttfs_best:>8.1} p50 {ttfs_p50:>8.1} ms   \
             answer best {done_best:>8.1} p50 {done_p50:>8.1} ms"
        );
    }
    if let Some(rec) = &o.recovery {
        eprintln!(
            "  reopened: version {} with {} rows, {} batches replayed in {:.1} ms",
            rec.version,
            rec.total_rows,
            rec.snapshot_batches + rec.replayed_batches,
            rec.recovery_ms
        );
    }
    if !o.appends.is_empty() {
        let late: Vec<f64> = o.appends.iter().map(|a| a.lateness_ms).collect();
        eprintln!(
            "  writer lateness p50 {:.3} ms, max {:.3} ms over {} batches",
            stats::median(&late),
            late.iter().copied().fold(0.0, f64::max),
            late.len()
        );
    }
    report_failures(o);
}

fn report_failures(o: &Outcome) {
    for a in &o.asked {
        if let Some(e) = &a.answer.error {
            eprintln!("  FAILED {} {:?}: {e}", o.config.workload.name(), a.label);
        }
        if let Some(Err(e)) = &a.judged {
            eprintln!(
                "  FAILED {} {:?}: unreadable speech: {e}",
                o.config.workload.name(),
                a.label
            );
        }
    }
    for a in o.appends.iter().filter_map(|a| a.error.as_ref()) {
        eprintln!("  FAILED {} append: {a}", o.config.workload.name());
    }
    for f in &o.failures {
        eprintln!("  FAILED {}: {f}", o.config.workload.name());
    }
}

/// The form `BENCHMARK.json`'s command is run in: one workload, one JSON
/// object as the last line of standard output.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let common = Common::from(args)?;
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    let (correct, attempted, failed, metrics) = if trace {
        let pass = traced_pass(&common, workload)?;
        write_json(&out_file("trace.json"), &trace_json(&[(workload, &pass.spans)]))?;
        report_failures(&pass.plain);
        report_failures(&pass.traced);
        report::print_table(&format!("{name} per layer"), &pass.metrics);
        (
            pass.plain.correct() && pass.traced.correct(),
            pass.plain.attempted() + pass.traced.attempted(),
            pass.plain.failed() + pass.traced.failed(),
            report::driver_metrics(&pass.metrics, &report::PER_LAYER)?,
        )
    } else {
        let outcome = workloads::run(&common.config(workload, common.seed), None)?;
        let metrics = report::end_to_end(&outcome);
        let observed = report::observed(&outcome);
        print_run(&outcome, &metrics, &observed);
        // What `run` collects into `result.json`.
        let all: Vec<Metric> = metrics.iter().chain(&observed).cloned().collect();
        write_json(&out_file(RUN_RECORD), &run_record(&outcome, &all))?;
        (
            outcome.correct(),
            outcome.attempted(),
            outcome.failed(),
            report::driver_metrics(&metrics, &report::END_TO_END)?,
        )
    };
    println!(
        "{}",
        Value::obj([
            ("correct", correct.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", metrics),
        ])
    );
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_record(o: &Outcome, metrics: &[Metric]) -> Value {
    Value::obj([
        ("workload", o.config.workload.name().into()),
        ("why", o.config.workload.why().into()),
        ("seed", o.config.seed.into()),
        ("trace", u64::from(o.traced).into()),
        ("rows", o.rows().into()),
        ("window_s", o.window_s.into()),
        ("correct", o.correct().into()),
        ("attempted", o.attempted().into()),
        ("failed", o.failed().into()),
        ("metrics", report::metrics_json(metrics)),
        (
            "answers",
            Value::Array(
                o.asked
                    .iter()
                    .filter(|a| a.answer.error.is_none())
                    .map(|a| {
                        Value::obj([
                            ("label", a.label.as_str().into()),
                            ("preamble_ms", a.answer.preamble_ms.into()),
                            ("ttfs_ms", a.answer.ttfs_ms().unwrap_or(0.0).into()),
                            ("answer_ms", a.answer.done_ms.into()),
                            ("rows_read", a.answer.rows_read.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `benchmark run`: the four workloads, every end-to-end metric by name.
/// Each run is a process of its own in the one-run form, as the driver
/// starts it: a workload's peak memory, and what its allocator keeps, must
/// not depend on which workloads ran before it.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let common = Common::from(args)?;
    let repeat: u64 = args.parsed("--repeat", 1)?;
    let header = common.header();
    eprintln!("header: {header}");
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let record = out_file(RUN_RECORD);
    let mut runs = Vec::new();
    let mut all_correct = true;
    for r in 0..repeat {
        for workload in Workload::ALL {
            let _ = std::fs::remove_file(&record);
            let mut one = Command::new(&exe);
            one.args(["--workload", workload.name(), "--trace", "0"])
                .args(["--seed", &(common.seed + r).to_string()])
                .args(["--seconds", &common.seconds.to_string()])
                .args(common.smoke.then_some("--smoke"))
                .stdout(Stdio::null());
            let status = one.status().map_err(|e| format!("start {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&record).map_err(|e| {
                format!("{} ended with {status} and left no record: {e}", workload.name())
            })?;
            runs.push(Value::parse(&text).map_err(|e| format!("{}: {e:?}", record.display()))?);
        }
    }
    let _ = std::fs::remove_file(&record);
    let path = out_file("result.json");
    write_json(&path, &Value::obj([("header", header), ("runs", Value::Array(runs))]))?;
    eprintln!("\nwrote {}", path.display());
    if !all_correct {
        eprintln!("correctness failures above");
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `benchmark trace`: a traced pass of every workload, the per-layer
/// table, and `trace.json`.
fn trace_all(args: &Args) -> Result<ExitCode, String> {
    let common = Common::from(args)?;
    let header = common.header();
    eprintln!("header: {header}");
    let mut passes = Vec::new();
    for workload in Workload::ALL {
        let pass = traced_pass(&common, workload)?;
        report::print_table(&format!("{} per layer", workload.name()), &pass.metrics);
        eprintln!("\n{} self time by layer (traced stretch)", workload.name());
        for (layer, t) in tracer::layer_table(&pass.spans) {
            eprintln!(
                "  {layer:<8} {:>6} spans {:>11.3} ms total {:>11.3} ms self",
                t.spans,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        report_failures(&pass.plain);
        report_failures(&pass.traced);
        passes.push((workload, pass));
    }
    let all_correct = passes.iter().all(|(_, p)| p.plain.correct() && p.traced.correct());
    let spans: Vec<(Workload, &[Span])> =
        passes.iter().map(|(w, p)| (*w, p.spans.as_slice())).collect();
    let path = out_file("trace.json");
    write_json(&path, &trace_json(&spans))?;
    let runs = passes.iter().map(|(_, p)| run_record(&p.traced, &p.metrics)).collect::<Vec<_>>();
    let result = out_file("trace_result.json");
    write_json(&result, &Value::obj([("header", header), ("runs", Value::Array(runs))]))?;
    eprintln!("\nwrote {} and {}", path.display(), result.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.0.as_slice() else {
        return Err("usage: benchmark compare A.json B.json".to_string());
    };
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e:?}"))
    };
    let bounds = compare::bounds_of(&read("BENCHMARK.json")?)?;
    let code = compare::compare(&read(a)?, &read(b)?, &bounds);
    Ok(ExitCode::from(code as u8))
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("run") => run_all(&args),
        Some("trace") => trace_all(&args),
        Some("compare") => compare_files(&args),
        Some("manifest") => {
            println!("{}", pretty(&report::manifest(DEFAULT_SECONDS), 0));
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => driver(&args),
        _ => Err("usage: benchmark run|trace|compare …, or --workload W --seed N --seconds S --trace 0|1"
            .to_string()),
    };
    // Whatever happened, leave no durable-table scratch behind.
    workloads::clean_scratch();
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract, the registry in `report` is what
    /// is measured: the file must be exactly what the registry generates.
    #[test]
    fn benchmark_json_matches_what_the_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file = Value::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(file, report::manifest(DEFAULT_SECONDS), "regenerate with `benchmark manifest`");
        assert_eq!(Value::parse(&pretty(&file, 0)).unwrap(), file, "pretty-printing loses nothing");
        for m in file["end_to_end"].as_array().unwrap() {
            let bound = m["bound"].as_f64().unwrap();
            assert!((0.10..=0.25).contains(&bound), "{m}");
        }
        for w in file["workloads"].as_array().unwrap() {
            assert!(w["why"].as_str().unwrap().len() <= 200, "{w}");
        }
        assert!(file["end_to_end"].as_array().unwrap().iter().any(|m| m["name"] == "setup_s"));
    }
}
