//! Diagnostic tool: after heavy sampling, compare the UCT mean rewards of
//! the best baseline's children against their exact qualities (Def. 2.2).
//!
//! Useful to see (a) how discriminative the reward signal is for a given
//! measure/σ and (b) whether sampled rankings converge toward the exact
//! ranking. A flat exact-quality landscape here is a property of the
//! paper's belief model, not a planner defect — many distinct refinements
//! describe the data almost equally well at one-significant-digit
//! granularity. Takes no arguments.

use voxolap_bench::{experiment_candidates, flights_table, region_season_query, Flags};
use voxolap_core::holistic::HolisticConfig;
use voxolap_core::sampler::Team;
use voxolap_core::tree::SpeechTree;
use voxolap_core::CancelToken;
use voxolap_engine::exact::evaluate;
use voxolap_speech::candidates::CandidateGenerator;
use voxolap_speech::constraints::SpeechConstraints;
use voxolap_speech::render::Renderer;

fn main() {
    Flags::from_env(&[]);
    let table = flights_table(50_000);
    let query = region_season_query(&table);
    let schema = table.schema();
    let exact = evaluate(&query, &table);
    let layout = query.layout();

    let gen = CandidateGenerator::new(schema, &query, experiment_candidates());
    let renderer = Renderer::new(schema, &query);
    let constraints = SpeechConstraints { max_chars: 300, max_refinements: 1 };

    let mut team = Team::new(&table, &query, &HolisticConfig::default(), 1);
    let overall = team.warmup(200).unwrap();
    let tree = SpeechTree::build(&gen, &renderer, &constraints, overall, 300_000);
    team.sample(&tree, SpeechTree::ROOT, |done| done < 60_000, &CancelToken::never());

    // Pick the best baseline, then rank its children.
    let base = tree.tree().best_child(SpeechTree::ROOT).unwrap();
    println!(
        "baseline: {:?}  mean reward {:.4}  visits {}",
        tree.sentence(base, &renderer),
        tree.tree().mean_reward(base),
        tree.tree().visits(base)
    );

    let mut rows: Vec<(f64, f64, u64, String)> = tree
        .tree()
        .children(base)
        .map(|c| {
            let mean = tree.tree().mean_reward(c);
            // exact quality of this child's speech
            let mut total = 0.0;
            let mut n = 0;
            for agg in 0..layout.n_aggregates() as u32 {
                let actual = exact.value(agg);
                if !actual.is_finite() {
                    continue;
                }
                total += tree.reward(c, agg, actual);
                n += 1;
            }
            let q = total / n as f64;
            let label = tree.sentence(c, &renderer).unwrap_or_else(|| "?".into());
            (mean, q, tree.tree().visits(c), label)
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("\ntop by SAMPLED mean reward:");
    for (mean, q, v, label) in rows.iter().take(8) {
        println!("  sampled {mean:.4}  exact {q:.4}  visits {v:>6}  {label}");
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop by EXACT quality:");
    for (mean, q, v, label) in rows.iter().take(8) {
        println!("  sampled {mean:.4}  exact {q:.4}  visits {v:>6}  {label}");
    }
}
