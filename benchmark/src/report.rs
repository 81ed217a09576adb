//! From what a run observed to named metrics with units and sample
//! counts, and the JSON records built from them.

use voxolap_json::Value;

use crate::stats::{mean, median, percentile, supported};
use crate::tracer::Span;
use crate::workloads::{Asked, Outcome, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's fixed identity: what `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

/// The end-to-end metrics: measured on the client's clock with tracing
/// off, defined and non-zero on all four workloads, each with the bound a
/// later change may worsen it by. `BENCHMARK.json` lists exactly these,
/// and `compare` judges exactly these.
///
/// The timings are *best-of* statistics. A run asks every question kind
/// many times and each time it is the same work, but on the shared 2-core
/// reference VM a neighbour's memory traffic makes identical deterministic
/// work cost up to 1.5 times more for tens of seconds at a time, so a
/// median over a run's answers spreads by 20 to 40 % between runs and no
/// bound the contract allows would mean anything. The fastest answer of
/// each question kind is what the product costs when nothing disturbs the
/// host: disturbance only ever adds time. Question kinds are combined by
/// geometric mean, so every kind weighs the same whatever it costs and a
/// slowdown of any one of them shows in proportion; throughput and CPU per
/// answer are those of the run as asked, every answer taken at the fastest
/// and the cheapest of its kind. The pooled percentiles a listener would
/// experience on this host are reported beside them ([`observed`]) without
/// a bound.
pub const END_TO_END: [MetricDef; 9] = [
    bounded("setup_s", "s", Better::Lower, 0.25),
    bounded("preamble_ms_best", "ms", Better::Lower, 0.25),
    bounded("ttfs_ms_best", "ms", Better::Lower, 0.25),
    bounded("answer_ms_best", "ms", Better::Lower, 0.25),
    bounded("answers_per_s_best", "1/s", Better::Higher, 0.25),
    bounded("cpu_s_per_answer_best", "s", Better::Lower, 0.25),
    bounded("rss_peak_mb", "MiB", Better::Lower, 0.25),
    bounded("quality_lift_p50", "ratio", Better::Higher, 0.25),
    bounded("clean_ratio", "ratio", Better::Higher, 0.10),
];

/// `BENCHMARK.json`, generated from the registries here so the file and
/// the binary cannot drift (`benchmark manifest > BENCHMARK.json`).
pub fn manifest(run_seconds: f64) -> Value {
    let metrics = |defs: &[MetricDef]| {
        Value::Array(
            defs.iter()
                .map(|d| {
                    let mut fields = vec![
                        ("name", d.name.into()),
                        ("unit", d.unit.into()),
                        ("better", d.better.name().into()),
                    ];
                    fields.extend(d.bound.map(|b| ("bound", b.into())));
                    Value::obj(fields)
                })
                .collect(),
        )
    };
    Value::obj([
        ("command", vec!["bash", "benchmark/run.sh"].into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", run_seconds.into()),
        (
            "workloads",
            Value::Array(
                Workload::GATED
                    .iter()
                    .map(|w| Value::obj([("name", w.name().into()), ("why", w.why().into())]))
                    .collect(),
            ),
        ),
        ("end_to_end", metrics(&END_TO_END)),
        ("per_layer", metrics(&PER_LAYER)),
    ])
}

/// One measured value. `n` is the number of samples behind it (1 for a
/// counter or a total).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

pub fn metric(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric { name: name.to_string(), value, unit, n }
}

fn answered(o: &Outcome) -> Vec<&Asked> {
    o.asked.iter().filter(|a| a.answer.error.is_none()).collect()
}

/// Per question kind (label), in first-asked order: how many answers
/// carry a `value`, the smallest of them, and their median.
fn by_kind<'a>(answers: &[&'a Asked], value: impl Fn(&Asked) -> Option<f64>) -> Vec<Kind<'a>> {
    let mut samples: Vec<(&str, Vec<f64>)> = Vec::new();
    for a in answers {
        let Some(v) = value(a) else { continue };
        match samples.iter_mut().find(|(label, _)| *label == a.label) {
            Some((_, of)) => of.push(v),
            None => samples.push((&a.label, vec![v])),
        }
    }
    samples
        .into_iter()
        .map(|(label, of)| Kind {
            label,
            n: of.len(),
            best: of.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(&of),
        })
        .collect()
}

struct Kind<'a> {
    label: &'a str,
    n: usize,
    best: f64,
    median: f64,
}

fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// What the run's answers add up to with each taken at the best of its kind.
fn undisturbed_total(kinds: &[Kind<'_>]) -> f64 {
    kinds.iter().map(|k| k.n as f64 * k.best).sum()
}

/// One value per [`END_TO_END`] name, in that order.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let ok = answered(o);
    let n = ok.len();
    let best = |name: &str, value: &dyn Fn(&Asked) -> Option<f64>| {
        metric(name, geometric_mean(by_kind(&ok, value).iter().map(|k| k.best)), "ms", n)
    };
    let busy_s = undisturbed_total(&by_kind(&ok, |a| Some(a.answer.done_ms / 1e3)));
    let cpu_s = undisturbed_total(&by_kind(&ok, |a| Some(a.cpu_s)));
    // The kinds differ in what there is to say, and their medians differ
    // with it: a median over all answers would jump between them.
    let lifts = by_kind(&ok, |a| Some(a.judged.as_ref()?.as_ref().ok()?.quality_lift));
    let judged: usize = lifts.iter().map(|k| k.n).sum();
    let clean = ok.iter().filter(|a| !(a.answer.degraded || a.answer.stale)).count();
    vec![
        metric("setup_s", median(&o.setup_s), "s", o.setup_s.len()),
        best("preamble_ms_best", &|a| Some(a.answer.preamble_ms)),
        best("ttfs_ms_best", &|a| a.answer.ttfs_ms()),
        best("answer_ms_best", &|a| Some(a.answer.done_ms)),
        metric("answers_per_s_best", n as f64 / busy_s.max(1e-9), "1/s", n),
        metric("cpu_s_per_answer_best", cpu_s / n.max(1) as f64, "s", n),
        metric("rss_peak_mb", o.rss_peak_mb, "MiB", 1),
        metric(
            "quality_lift_p50",
            mean(&lifts.iter().map(|k| k.median).collect::<Vec<_>>()),
            "ratio",
            judged,
        ),
        metric("clean_ratio", clean as f64 / n.max(1) as f64, "ratio", n),
    ]
}

/// A pooled percentile, present only when the sample supports it (ten
/// samples beyond, see `stats`).
fn pct(name: &str, samples: &[f64], p: f64, unit: &'static str) -> Option<Metric> {
    let value = percentile(samples, p)?;
    supported(samples.len(), p).then(|| metric(name, value, unit, samples.len()))
}

/// What a run observed besides the bounded metrics, printed and recorded
/// but never judged: the pooled percentiles over all answers whatever their
/// kind (what a listener on this host experienced, disturbance included),
/// plain totals, and the writer's view on `live_append`.
pub fn observed(o: &Outcome) -> Vec<Metric> {
    let ok = answered(o);
    let n = ok.len();
    let preamble: Vec<f64> = ok.iter().map(|a| a.answer.preamble_ms).collect();
    let ttfs: Vec<f64> = ok.iter().filter_map(|a| a.answer.ttfs_ms()).collect();
    let done: Vec<f64> = ok.iter().map(|a| a.answer.done_ms).collect();
    let errs: Vec<f64> =
        ok.iter().filter_map(|a| Some(a.judged.as_ref()?.as_ref().ok()?.baseline_err)).collect();
    let rows: Vec<f64> = ok.iter().map(|a| a.answer.rows_read as f64).collect();

    let mut out = Vec::new();
    out.extend(pct("preamble_ms_p50", &preamble, 50.0, "ms"));
    out.extend(pct("ttfs_ms_p50", &ttfs, 50.0, "ms"));
    out.extend(pct("ttfs_ms_p75", &ttfs, 75.0, "ms"));
    out.extend(pct("answer_ms_p50", &done, 50.0, "ms"));
    out.push(metric("answers_per_s", n as f64 / o.window_s.max(1e-9), "1/s", n));
    out.push(metric("cpu_s_per_answer", o.cpu_s / n.max(1) as f64, "s", n));
    out.extend(pct("baseline_err_p50", &errs, 50.0, "ratio"));
    out.push(metric("rows_read_per_answer", mean(&rows), "count", n));
    out.push(metric(
        "fail_ratio",
        o.failed() as f64 / o.attempted().max(1) as f64,
        "ratio",
        o.attempted() as usize,
    ));
    if o.config.workload == Workload::LiveAppend {
        let acked: Vec<f64> =
            o.appends.iter().filter(|a| a.error.is_none()).map(|a| a.latency_ms).collect();
        out.extend(pct("append_ms_p50", &acked, 50.0, "ms"));
        out.extend(pct("append_ms_p75", &acked, 75.0, "ms"));
        let rows = acked.len() * crate::workloads::BATCH_ROWS;
        out.push(metric(
            "append_rows_per_s",
            rows as f64 / o.window_s.max(1e-9),
            "1/s",
            acked.len(),
        ));
    }
    out
}

/// Per question kind, in first-asked order: answers, and the fastest and
/// the median time to first sentence and to `done` — what the best-of
/// metrics are made of.
pub fn by_label(o: &Outcome) -> Vec<(String, usize, [f64; 4])> {
    let ok = answered(o);
    let ttfs = by_kind(&ok, |a| a.answer.ttfs_ms());
    by_kind(&ok, |a| Some(a.answer.done_ms))
        .iter()
        .map(|done| {
            let (first, first_p50) = ttfs
                .iter()
                .find(|t| t.label == done.label)
                .map_or((f64::NAN, f64::NAN), |t| (t.best, t.median));
            (done.label.to_string(), done.n, [first, first_p50, done.best, done.median])
        })
        .collect()
}

pub fn find<'m>(metrics: &'m [Metric], name: &str) -> Option<&'m Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// `{"name": {"value": v, "unit": u}}` for exactly the names in `defs`;
/// `Err` names the first one missing.
pub fn driver_metrics(metrics: &[Metric], defs: &[MetricDef]) -> Result<Value, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let m =
            find(metrics, d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
        fields.push((d.name, Value::obj([("value", m.value.into()), ("unit", d.unit.into())])));
    }
    Ok(Value::obj(fields))
}

/// Metrics with their sample counts, for `result.json`.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let v = Value::obj([
                    ("value", m.value.into()),
                    ("unit", m.unit.into()),
                    ("n", m.n.into()),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// A fixed-width table of metrics for people.
pub fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("\n{title}");
    for m in metrics {
        eprintln!("  {:<34} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
}

/// The per-layer metrics `BENCHMARK.json` lists, by module. Every traced
/// run reports all of them; a metric a workload does not exercise (append
/// latency without a writer) reads 0 with `n = 0`. No bounds: they say
/// *where* an end-to-end number moved, not whether it may.
pub const PER_LAYER: [MetricDef; 82] = [
    // data
    def("data.generate_rows_per_s", "1/s", Better::Higher),
    def("data.scan_rows_per_s", "1/s", Better::Higher),
    def("data.scan_block_us", "us", Better::Lower),
    def("data.snapshot_pin_ns", "ns", Better::Lower),
    def("data.append_ms_p50", "ms", Better::Lower),
    def("data.wal_append_ms_p50", "ms", Better::Lower),
    def("data.wal_bytes_per_row", "B", Better::Lower),
    def("data.fsyncs", "count", Better::Lower),
    def("data.recovery_ms", "ms", Better::Lower),
    def("data.recovered_batches", "count", Better::Higher),
    // engine
    def("engine.resolve_rows_per_s", "1/s", Better::Higher),
    def("engine.observe_rows_per_s", "1/s", Better::Higher),
    def("engine.estimate_ns", "ns", Better::Lower),
    def("engine.exact_eval_ms", "ms", Better::Lower),
    def("engine.sem_lookup_exact_ns", "ns", Better::Lower),
    def("engine.sem_lookup_snapshot_ns", "ns", Better::Lower),
    def("engine.sem_admit_us", "us", Better::Lower),
    def("engine.repair_ms_p50", "ms", Better::Lower),
    def("engine.repair_rows_read", "count", Better::Lower),
    def("engine.exact_hits", "count", Better::Higher),
    def("engine.warm_hits", "count", Better::Higher),
    def("engine.misses", "count", Better::Lower),
    def("engine.exact_hit_ratio", "ratio", Better::Higher),
    def("engine.evictions", "count", Better::Lower),
    def("engine.exact_invalidations", "count", Better::Lower),
    def("engine.snapshot_repairs", "count", Better::Higher),
    def("engine.stale_serves", "count", Better::Lower),
    // mcts
    def("mcts.select_update_ns", "ns", Better::Lower),
    def("mcts.samples_per_s_t1", "1/s", Better::Higher),
    def("mcts.samples_per_s_tN", "1/s", Better::Higher),
    // belief / speech
    def("belief.quality_us_20", "us", Better::Lower),
    def("belief.quality_us_70", "us", Better::Lower),
    def("speech.candidates_us", "us", Better::Lower),
    def("speech.render_us", "us", Better::Lower),
    def("speech.parse_body_us", "us", Better::Lower),
    def("speech.unparseable_ratio", "ratio", Better::Lower),
    def("speech.quality_lift_mean", "ratio", Better::Higher),
    def("speech.baseline_err_p50", "ratio", Better::Lower),
    // core
    def("core.tree_build_ms_20", "ms", Better::Lower),
    def("core.tree_build_ms_70", "ms", Better::Lower),
    def("core.tree_nodes_20", "count", Better::Lower),
    def("core.tree_nodes_70", "count", Better::Lower),
    def("core.stream_open_ms_p50", "ms", Better::Lower),
    def("core.first_sentence_ms_p50", "ms", Better::Lower),
    def("core.next_sentence_ms_p50", "ms", Better::Lower),
    def("core.exact_hit_answer_ms_20", "ms", Better::Lower),
    def("core.ingest_rows_per_s_t1", "1/s", Better::Higher),
    def("core.ingest_rows_per_s_tN", "1/s", Better::Higher),
    def("core.rows_read_per_answer", "count", Better::Lower),
    def("core.samples_per_answer", "count", Better::Higher),
    def("core.degraded_ratio", "ratio", Better::Lower),
    // voice / json
    def("voice.parse_question_us", "us", Better::Lower),
    def("voice.session_input_us", "us", Better::Lower),
    def("json.parse_mb_per_s", "MB/s", Better::Higher),
    def("json.serialize_us", "us", Better::Lower),
    // server
    def("server.health_rtt_us_p50", "us", Better::Lower),
    def("server.keepalive_rtt_us_p50", "us", Better::Lower),
    def("server.attach_ms_p50", "ms", Better::Lower),
    def("server.queue_wait_ms_total", "ms", Better::Lower),
    def("server.handler_ms_total", "ms", Better::Lower),
    def("server.rejected", "count", Better::Lower),
    def("server.timeouts", "count", Better::Lower),
    def("server.responses_5xx", "count", Better::Lower),
    def("server.stats_ms", "ms", Better::Lower),
    def("server.append_ms_p50", "ms", Better::Lower),
    def("server.append_ms_p75", "ms", Better::Lower),
    def("server.append_rows_per_s", "1/s", Better::Higher),
    def("server.writer_lateness_ms_p50", "ms", Better::Lower),
    def("server.ingest_overhead_ms_p50", "ms", Better::Lower),
    def("server.unattributed_ms_p50", "ms", Better::Lower),
    // the client's own view and the tracer
    def("client.write_us_p50", "us", Better::Lower),
    def("client.preamble_ms_p50", "ms", Better::Lower),
    def("client.answer_ms_p50", "ms", Better::Lower),
    def("client.answers_per_s", "1/s", Better::Higher),
    def("client.cpu_s_per_answer", "s", Better::Lower),
    def("client.ttfs_ms_p50_untraced", "ms", Better::Lower),
    def("client.ttfs_ms_p50_traced", "ms", Better::Lower),
    def("client.ttfs_ms_p75", "ms", Better::Lower),
    def("trace.overhead_pct", "%", Better::Lower),
    def("trace.spans", "count", Better::Higher),
    def("trace.replay_self_ms", "ms", Better::Lower),
    def("trace.client_wait_ms", "ms", Better::Lower),
];

fn stat(o: &Outcome, section: &str, key: &str) -> f64 {
    o.stats[section][key].as_f64().unwrap_or(0.0)
}

/// The per-layer metrics of one traced pass: `plain` and `traced` are the
/// untraced and traced stretches of the same workload, `spans` what the
/// traced one recorded, `micro` the micro-series. Returns one metric per
/// [`PER_LAYER`] name.
pub fn per_layer(
    plain: &Outcome,
    traced: &Outcome,
    spans: &[Span],
    micro: Vec<Metric>,
) -> Vec<Metric> {
    let mut got = micro;
    let ok = answered;
    let both: Vec<_> = ok(plain).into_iter().chain(ok(traced)).collect();
    let n = both.len();
    let ttfs =
        |o: &Outcome| -> Vec<f64> { ok(o).iter().filter_map(|a| a.answer.ttfs_ms()).collect() };
    let (ttfs_plain, ttfs_traced) = (ttfs(plain), ttfs(traced));
    let ttfs_all: Vec<f64> = ttfs_plain.iter().chain(&ttfs_traced).copied().collect();

    // engine: the serving cache's own counters, summed over both stretches.
    for key in [
        "exact_hits",
        "warm_hits",
        "misses",
        "evictions",
        "exact_invalidations",
        "snapshot_repairs",
        "stale_serves",
    ] {
        let v = stat(plain, "cache", key) + stat(traced, "cache", key);
        got.push(metric(&format!("engine.{key}"), v, "count", 1));
    }
    let lookups: f64 = ["exact_hits", "warm_hits", "misses"]
        .iter()
        .map(|k| find(&got, &format!("engine.{k}")).map_or(0.0, |m| m.value))
        .sum();
    let hits = find(&got, "engine.exact_hits").map_or(0.0, |m| m.value);
    got.push(metric("engine.exact_hit_ratio", hits / lookups.max(1.0), "ratio", lookups as usize));

    // speech / core: what the answers said and cost.
    let judged: Vec<_> = both.iter().filter_map(|a| a.judged.as_ref()?.as_ref().ok()).collect();
    let lifts: Vec<f64> = judged.iter().map(|j| j.quality_lift).collect();
    let errs: Vec<f64> = judged.iter().map(|j| j.baseline_err).collect();
    // Answers the product's own `parse_body` cannot read back (the
    // benchmark's sentence reader could, or they would have failed).
    let unparseable = judged.iter().filter(|j| !j.parse_body_ok).count();
    got.push(metric(
        "speech.unparseable_ratio",
        unparseable as f64 / judged.len().max(1) as f64,
        "ratio",
        judged.len(),
    ));
    got.push(metric("speech.quality_lift_mean", mean(&lifts), "ratio", lifts.len()));
    got.push(median_metric("speech.baseline_err_p50", &errs, "ratio"));
    let rows: Vec<f64> = both.iter().map(|a| a.answer.rows_read as f64).collect();
    let samples: Vec<f64> = both.iter().map(|a| a.answer.samples as f64).collect();
    got.push(metric("core.rows_read_per_answer", mean(&rows), "count", n));
    got.push(metric("core.samples_per_answer", mean(&samples), "count", n));
    let flagged = both.iter().filter(|a| a.answer.degraded || a.answer.stale).count();
    got.push(metric("core.degraded_ratio", flagged as f64 / n.max(1) as f64, "ratio", n));

    // core: the replayed pipeline, per request.
    let replays: Vec<_> = traced.asked.iter().filter_map(|a| a.replay.as_ref()).collect();
    let opens: Vec<f64> = replays.iter().map(|r| r.stream_open_ms).collect();
    let firsts: Vec<f64> = replays.iter().filter_map(|r| r.sentence_ms.first().copied()).collect();
    let nexts: Vec<f64> =
        replays.iter().flat_map(|r| r.sentence_ms.iter().skip(1).copied()).collect();
    got.push(median_metric("core.stream_open_ms_p50", &opens, "ms"));
    got.push(median_metric("core.first_sentence_ms_p50", &firsts, "ms"));
    got.push(median_metric("core.next_sentence_ms_p50", &nexts, "ms"));

    // server: probes, the serving layer's counters, the writer's view.
    got.push(median_metric("server.health_rtt_us_p50", &traced.probes.health_rtt_us, "us"));
    got.push(median_metric("server.keepalive_rtt_us_p50", &traced.probes.keepalive_rtt_us, "us"));
    got.push(median_metric("server.attach_ms_p50", &traced.probes.attach_ms, "ms"));
    for (name, key, unit) in [
        ("server.queue_wait_ms_total", "queue_wait_ms_total", "ms"),
        ("server.handler_ms_total", "handler_ms_total", "ms"),
        ("server.rejected", "rejected", "count"),
        ("server.timeouts", "timeouts", "count"),
        ("server.responses_5xx", "responses_5xx", "count"),
    ] {
        got.push(metric(name, stat(plain, "http", key) + stat(traced, "http", key), unit, 1));
    }
    got.push(metric("server.stats_ms", (plain.stats_ms + traced.stats_ms) / 2.0, "ms", 2));
    let appends: Vec<_> =
        plain.appends.iter().chain(&traced.appends).filter(|a| a.error.is_none()).collect();
    let append_ms: Vec<f64> = appends.iter().map(|a| a.latency_ms).collect();
    let late_ms: Vec<f64> = appends.iter().map(|a| a.lateness_ms).collect();
    got.push(median_metric("server.append_ms_p50", &append_ms, "ms"));
    got.push(metric(
        "server.append_ms_p75",
        percentile(&append_ms, 75.0).unwrap_or(0.0),
        "ms",
        append_ms.len(),
    ));
    let append_window = plain.window_s + traced.window_s;
    got.push(metric(
        "server.append_rows_per_s",
        (appends.len() * crate::workloads::BATCH_ROWS) as f64 / append_window.max(1e-9),
        "1/s",
        appends.len(),
    ));
    got.push(median_metric("server.writer_lateness_ms_p50", &late_ms, "ms"));
    let wal_ms = find(&got, "data.wal_append_ms_p50").map_or(0.0, |m| m.value);
    let overhead = if append_ms.is_empty() { 0.0 } else { median(&append_ms) - wal_ms };
    got.push(metric("server.ingest_overhead_ms_p50", overhead, "ms", append_ms.len()));
    // Client time to first sentence that the replayed layers do not
    // account for: the serving layer, the socket, and whatever the replay
    // cannot see.
    let unattributed: Vec<f64> = traced
        .asked
        .iter()
        .filter_map(|a| {
            let r = a.replay.as_ref()?;
            Some(a.answer.ttfs_ms()? - r.parse_ms - r.stream_open_ms - r.sentence_ms.first()?)
        })
        .collect();
    got.push(median_metric("server.unattributed_ms_p50", &unattributed, "ms"));

    // client / tracer: the untraced stretch's end-to-end timings.
    let writes: Vec<f64> = both.iter().map(|a| a.answer.write_ms * 1e3).collect();
    got.push(median_metric("client.write_us_p50", &writes, "us"));
    let plain_ok = ok(plain);
    let preamble: Vec<f64> = plain_ok.iter().map(|a| a.answer.preamble_ms).collect();
    let done: Vec<f64> = plain_ok.iter().map(|a| a.answer.done_ms).collect();
    got.push(median_metric("client.preamble_ms_p50", &preamble, "ms"));
    got.push(median_metric("client.answer_ms_p50", &done, "ms"));
    let answers = plain_ok.len();
    got.push(metric(
        "client.answers_per_s",
        answers as f64 / plain.window_s.max(1e-9),
        "1/s",
        answers,
    ));
    got.push(metric("client.cpu_s_per_answer", plain.cpu_s / answers.max(1) as f64, "s", answers));
    got.push(median_metric("client.ttfs_ms_p50_untraced", &ttfs_plain, "ms"));
    got.push(median_metric("client.ttfs_ms_p50_traced", &ttfs_traced, "ms"));
    got.push(metric(
        "client.ttfs_ms_p75",
        percentile(&ttfs_all, 75.0).unwrap_or(0.0),
        "ms",
        ttfs_all.len(),
    ));
    // Both stretches ask the same questions in the same order; pair them
    // by slot, so the overhead compares like with like.
    let ratios: Vec<f64> = ok(traced)
        .iter()
        .filter_map(|t| {
            let p = plain.asked.iter().find(|p| p.slot == t.slot && p.answer.error.is_none())?;
            Some(t.answer.ttfs_ms()? / p.answer.ttfs_ms()?)
        })
        .collect();
    let overhead_pct = if ratios.is_empty() { 0.0 } else { (median(&ratios) - 1.0) * 100.0 };
    got.push(metric("trace.overhead_pct", overhead_pct, "%", ratios.len()));
    got.push(metric("trace.spans", spans.len() as f64, "count", 1));
    let layers = crate::tracer::layer_table(spans);
    let self_ms = |layer: &str| layers.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    got.push(metric("trace.replay_self_ms", self_ms("replay"), "ms", replays.len()));
    got.push(metric("trace.client_wait_ms", self_ms("client"), "ms", traced.asked.len()));

    // One metric per listed name, in the listed order.
    PER_LAYER
        .iter()
        .map(|d| find(&got, d.name).cloned().unwrap_or_else(|| metric(d.name, 0.0, d.unit, 0)))
        .collect()
}

/// Median of `samples` as a metric (0 with `n = 0` when there are none).
pub fn median_metric(name: &str, samples: &[f64], unit: &'static str) -> Metric {
    metric(name, median(samples), unit, samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Answer;
    use crate::quality::Judged;
    use crate::workloads::RunConfig;
    use voxolap_data::flights::FlightsConfig;
    use voxolap_voice::question::parse_question;

    fn asked(label: &str, done_ms: f64, cpu_s: f64, lift: f64) -> Asked {
        let schema = FlightsConfig::schema();
        Asked {
            slot: (0, 0),
            label: label.to_string(),
            query: parse_question(&schema, "cancellation probability by season").unwrap(),
            answer: Answer {
                preamble_ms: done_ms / 4.0,
                sentence_ms: vec![done_ms / 2.0],
                done_ms,
                ..Answer::default()
            },
            cpu_s,
            judged: Some(Ok(Judged { baseline_err: 0.0, quality_lift: lift, parse_body_ok: true })),
            replay: None,
        }
    }

    /// Two kinds, asked three times and once: the timings take each kind at
    /// its fastest, whatever order and however disturbed the others were.
    #[test]
    fn bounded_timings_are_built_from_the_fastest_answer_of_each_kind() {
        let o = Outcome {
            config: RunConfig {
                workload: Workload::ColdPaper,
                seed: 1,
                window_s: 1.0,
                smoke: true,
                setups: 1,
                whole_passes: true,
            },
            traced: false,
            setup_s: vec![3.0, 1.0, 2.0],
            asked: vec![
                asked("a", 150.0, 0.15, 1.0),
                asked("b", 400.0, 0.5, 3.0),
                asked("a", 100.0, 0.2, 1.2),
                asked("a", 900.0, 0.1, 1.4),
            ],
            window_s: 1.55,
            cpu_s: 0.95,
            rss_peak_mb: 10.0,
            appends: Vec::new(),
            stats: Value::Null,
            stats_ms: 0.0,
            probes: Default::default(),
            recovery: None,
            failures: Vec::new(),
        };
        let metrics = end_to_end(&o);
        let value = |name: &str| find(&metrics, name).unwrap().value;
        let close = |name: &str, want: f64| {
            assert!((value(name) - want).abs() < 1e-9, "{name}: {} vs {want}", value(name));
        };
        close("setup_s", 2.0);
        // sqrt(100 · 400), and the same at a half and a quarter.
        close("answer_ms_best", 200.0);
        close("ttfs_ms_best", 100.0);
        close("preamble_ms_best", 50.0);
        // Three answers at 0.1 s and one at 0.4 s; at 0.1 and 0.5 CPU-s.
        close("answers_per_s_best", 4.0 / 0.7);
        close("cpu_s_per_answer_best", 0.8 / 4.0);
        // Median lift of each kind (1.2 and 3), averaged.
        close("quality_lift_p50", 2.1);
        close("clean_ratio", 1.0);
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}
