//! Runs every experiment and prints an `EXPERIMENTS.md`-shaped report:
//! Figure 3, Tables 2 and 5–14, the ablations and the data-scale sweep.
//!
//! Usage: `cargo run --release -p voxolap-bench --bin all_experiments
//! [--rows N] [--seed S]`. `--rows` (default 200 000) sizes the flights
//! table the experiments run on; Table 11 always describes the paper's
//! 5.3 M rows, and the sweep runs at a quarter, one, four and sixteen
//! times `--rows`, capped at 5.3 M. Any other argument is a usage error.

use std::fmt::Display;

use voxolap_bench::experiments::{ablations, datasets, studies, sweep_rows, Comparison, Lineup};
use voxolap_bench::{
    flights_table, markdown_table, region_season_query, salary_table, state_month_query,
    usage_error, Flags, DEFAULT_FLIGHTS_ROWS, PAPER_FLIGHTS_ROWS,
};
use voxolap_data::stats::DatasetStats;
use voxolap_simuser::estimation::{EstimationResult, UserRow};
use voxolap_simuser::pilot::questions;

/// A titled markdown table.
fn section(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    format!("### {title}\n\n{}", markdown_table(headers, rows))
}

/// One row per comparison: latency and quality of each approach.
fn comparison_table(title: &str, key: &str, rows: &[(String, Comparison)]) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, c)| {
            let runs = c.runs();
            let latency =
                runs.iter().map(|(_, r)| format!("{:.1}", r.outcome.latency.as_secs_f64() * 1e3));
            let quality = runs.iter().map(|(_, r)| format!("{:.3}", r.quality));
            std::iter::once(label.clone()).chain(latency).chain(quality).collect()
        })
        .collect();
    let headers = [key, "latency optimal (ms)", "latency holistic (ms)", "latency unmerged (ms)"];
    let headers = [&headers[..], &["quality optimal", "quality holistic", "quality unmerged"]];
    section(title, &headers.concat(), &rows)
}

/// Each approach's speech and its quality.
fn speech_table(title: &str, c: &Comparison) -> String {
    let rows: Vec<Vec<String>> = c
        .runs()
        .iter()
        .map(|(name, r)| vec![name.to_string(), r.outcome.body_text(), format!("{:.2}", r.quality)])
        .collect();
    section(title, &["Approach", "Speech", "Quality"], &rows)
}

/// Tables 6 and 14: one row per listener, then the summary row.
fn listener_tables(est: &EstimationResult) -> String {
    let headers: Vec<&str> =
        std::iter::once("User").chain(est.approaches.iter().map(String::as_str)).collect();
    let rows = |of_user: fn(&UserRow) -> &[f64], last: &str, summary: &[f64], digits: usize| {
        let users = est.per_user.iter().map(|u| (u.user.to_string(), of_user(u)));
        let rows: Vec<Vec<String>> = (users.chain([(last.to_string(), summary)]))
            .map(|(label, v)| {
                std::iter::once(label).chain(v.iter().map(|x| format!("{x:.digits$}"))).collect()
            })
            .collect();
        rows
    };
    let errors = rows(|u| u.abs_err.as_slice(), "Median", &est.median_abs_err, 2);
    let tendencies = rows(|u| u.tendency_pct.as_slice(), "Total", &est.total_tendency_pct, 0);
    let title = "Table 6: absolute error (percentage points) estimating all result fields";
    let tab6 = section(title, &headers, &errors);
    let tab14 = section("Table 14: correct relative tendencies (%)", &headers, &tendencies);
    format!("{tab6}\n{tab14}")
}

/// One ablation: quality per setting.
fn ablation_table<K: Display>(title: &str, key: &str, rows: &[(K, f64)]) -> String {
    let rows: Vec<Vec<String>> =
        rows.iter().map(|(k, q)| vec![k.to_string(), format!("{q:.3}")]).collect();
    format!("#### {title}\n\n{}", markdown_table(&[key, "quality"], &rows))
}

fn main() {
    let flags = Flags::from_env(&["--rows", "--seed"]);
    let rows = flags.usize("--rows", DEFAULT_FLIGHTS_ROWS).unwrap_or_else(usage_error);
    let seed = flags.usize("--seed", 42).unwrap_or_else(usage_error) as u64;
    let lineup = Lineup::paper(seed);

    eprintln!("generating datasets ({rows} flight rows)...");
    let flights = flights_table(rows);
    let salary = salary_table();
    println!("## Regenerated evaluation (flights scale: {rows} rows, seed {seed})\n");

    eprintln!("tab11...");
    let paper_scale = (rows != PAPER_FLIGHTS_ROWS).then(|| flights_table(PAPER_FLIGHTS_ROWS));
    let stats = [&salary, paper_scale.as_ref().unwrap_or(&flights)].map(DatasetStats::of);
    drop(paper_scale);
    let md: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            vec![s.name.clone(), s.dimensions.join(", "), s.rows.to_string(), s.size_display()]
        })
        .collect();
    let headers = ["Data Set", "Dimensions", "#Rows", "Size"];
    println!("{}", section("Table 11: benchmark data statistics", &headers, &md));

    eprintln!("fig3...");
    let fig3 = lineup.figure_3(&flights);
    let title = "Figure 3: latency and speech quality per approach";
    println!("{}", comparison_table(title, "query", &fig3));

    eprintln!("tab5 + tab6/tab14...");
    let tab5 = lineup.compare(&flights, &region_season_query(&flights));
    let title = "Table 5: speeches for the region x season query (20 fields)";
    println!("{}", speech_table(title, &tab5));
    println!("{}", listener_tables(&studies::estimation(&flights, &tab5, seed)));

    eprintln!("tab12...");
    let md: Vec<Vec<String>> = datasets::region_season_result(&flights)
        .into_iter()
        .map(|(r, s, p)| vec![r, s, format!("{p:.5}")])
        .collect();
    let title = format!("Table 12: full region x season cancellation result ({} rows)", md.len());
    println!("{}", section(&title, &["Region", "Season", "Cancellation"], &md));

    eprintln!("tab13...");
    let query = state_month_query(&flights);
    let n = query.n_aggregates();
    let title = format!("Table 13: speeches for the state x month query ({n} fields)");
    println!("{}", speech_table(&title, &lineup.compare(&flights, &query)));

    eprintln!("tab2/tab10...");
    let pilot = studies::pilot(seed);
    let md: Vec<Vec<String>> = (pilot.per_aspect.iter())
        .map(|(a, c, i)| vec![a.clone(), c.to_string(), i.to_string()])
        .collect();
    let title = "Table 2: pilot study summary (consistent vs inconsistent)";
    println!("{}", section(title, &["Model aspect", "#Consistent", "#Inconsistent"], &md));
    let md: Vec<Vec<String>> = (questions().iter().zip(&pilot.replies))
        .map(|(q, n)| {
            let replies = format!("{}/{}/{}", n[0], n[1], n[2]);
            vec![q.aspect.to_string(), q.question.to_string(), replies]
        })
        .collect();
    let title = "Table 10: detailed replies per question";
    println!("{}", section(title, &["Aspect", "Question", "#Replies (1/2/3)"], &md));

    eprintln!("tab7...");
    let md: Vec<Vec<String>> = (studies::facts(&flights, seed).into_iter())
        .map(|f| vec![f.dimensions.join(", "), f.text])
        .collect();
    let title = "Table 7: facts extracted via voice-based analysis";
    println!("{}", section(title, &["Dimensions", "Fact"], &md));

    eprintln!("tab8/tab9...");
    let prefs = studies::preferences(30_000.min(rows), seed);
    let md: Vec<Vec<String>> = (prefs.datasets.iter())
        .map(|d| {
            std::iter::once(d.dataset.clone()).chain(d.counts.map(|c| c.to_string())).collect()
        })
        .collect();
    let headers = ["Data", "Prior++", "Prior+", "Neutral", "This+", "This++"];
    println!("{}", section("Table 8: vocalization preferences (Prior vs This)", &headers, &md));
    let md: Vec<Vec<String>> = (prefs.datasets.iter())
        .flat_map(|d| {
            let (this, prior) = (d.this_len, d.prior_len);
            let avg = [format!("{:.0}", this.avg), format!("{:.0}", prior.avg)];
            let max = [this.max.to_string(), prior.max.to_string()];
            [("Average", avg), ("Maximum", max)]
                .map(|(agg, v)| [vec![d.dataset.clone(), agg.to_string()], v.to_vec()].concat())
        })
        .collect();
    let title = "Table 9: speech lengths (characters) during the study";
    println!("{}", section(title, &["Scenario", "Aggregate", "This", "Prior"], &md));
    let queries: Vec<String> =
        prefs.datasets.iter().map(|d| format!("{} ({})", d.queries, d.dataset)).collect();
    println!("Queries vocalized: {}.\n", queries.join(", "));
    println!(
        "Input-method preferences (paper: 9 of 40 preferred keyboard): {} voice, {} keyboard.\n",
        prefs.input.voice, prefs.input.keyboard
    );

    eprintln!("ablations...");
    let ab = ablations::run(&flights, seed);
    println!("### Ablations (flights, region x season, mean over 5 seeds)\n");
    let title = "Pipelining: sampling iterations per spoken character";
    println!("{}", ablation_table(title, "iterations/char", &ab.pipelining));
    let title = "Tree-descent policy (200 iterations/char)";
    println!("{}", ablation_table(title, "policy", &ab.policy));
    let title = "Fixed cache-resample size (paper default: 10)";
    println!("{}", ablation_table(title, "resample size", &ab.resample_size));
    let title = "Belief sigma as a fraction of the overall mean (paper: 0.5)";
    println!("{}", ablation_table(title, "sigma fraction", &ab.sigma));
    println!(
        "Quality is itself measured under the paper's sigma = mean/2 model, so the sigma sweep \
         shows planner robustness to mis-calibrated sampling beliefs, not listener-model \
         changes.\n"
    );

    drop(flights);
    eprintln!("scale sweep...");
    let sweep: Vec<(String, Comparison)> = (lineup.scale_sweep(&sweep_rows(rows)).into_iter())
        .map(|(n, c)| (n.to_string(), c))
        .collect();
    print!("{}", comparison_table("Data-scale sweep (region x season query)", "rows", &sweep));
}
