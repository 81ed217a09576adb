//! The common interface all vocalization approaches implement, and the
//! factory that builds one from the name a front end was given.

use std::sync::Arc;

use voxolap_data::Table;
use voxolap_engine::query::Query;
use voxolap_engine::semantic::SemanticCache;
use voxolap_faults::Resilience;

use crate::holistic::{Holistic, HolisticConfig};
use crate::optimal::Optimal;
use crate::outcome::VocalizationOutcome;
use crate::pipeline::{CancelToken, SpeechStream};
use crate::prior::PriorGreedy;
use crate::uncertainty::UncertaintyMode;
use crate::unmerged::{SamplingBudget, Unmerged};
use crate::voice::VoiceOutput;

/// A query-evaluation-and-vocalization approach (paper §5 compares
/// Holistic, Optimal, Unmerged, and the Prior greedy baseline).
///
/// The primary API is [`stream`](Vocalizer::stream): a pull-based
/// [`SpeechStream`] that yields each sentence as it is planned, so
/// callers (server, CLI, voice sessions) can deliver output while
/// planning continues in the background and abort it via the
/// [`CancelToken`]. [`vocalize`](Vocalizer::vocalize) is the blocking
/// drain adapter over it.
pub trait Vocalizer: Send + Sync {
    /// Short identifier used in experiment output (e.g. `"holistic"`).
    fn name(&self) -> &'static str;

    /// Begin evaluating `query` against `table`, speaking through
    /// `voice`. The preamble has already been started when this returns;
    /// pull sentences with [`SpeechStream::next_sentence`]. Firing
    /// `cancel` stops sampling within one iteration.
    fn stream<'a>(
        &self,
        table: &'a Table,
        query: &'a Query,
        voice: &'a mut dyn VoiceOutput,
        cancel: CancelToken,
    ) -> SpeechStream<'a>;

    /// Evaluate `query` against `table` and speak the result through
    /// `voice`. Returns the spoken text and planner statistics.
    fn vocalize(
        &self,
        table: &Table,
        query: &Query,
        voice: &mut dyn VoiceOutput,
    ) -> VocalizationOutcome {
        self.stream(table, query, voice, CancelToken::never()).drain()
    }
}

/// What a front end (server, CLI) supplies besides the approach's name
/// when it asks [`vocalizer`] for one.
#[derive(Debug, Clone)]
pub struct ApproachOptions {
    /// RNG seed; same seed, same speech (at one planning thread).
    pub seed: u64,
    /// Uncertainty transmission mode of the holistic engines (paper §4.4).
    pub uncertainty: UncertaintyMode,
    /// Planning threads of the `parallel` approach (`None`: one per core).
    /// A `parallel` engine at one thread is the `holistic` one.
    pub threads: Option<usize>,
    /// Cross-query semantic cache, for the approaches that can use one
    /// (`holistic`, `parallel`, `optimal`).
    pub cache: Option<Arc<SemanticCache>>,
    /// The answer counters of every approach with a planning loop
    /// (`holistic`, `parallel`, `optimal`, `unmerged`): a deadline cut
    /// commits the anytime answer marked `degraded`, and each answer is
    /// counted clean or degraded in the bundle. `prior` computes its whole
    /// answer before output and has nothing to cut: it takes no bundle and
    /// its answers are not counted here.
    pub resilience: Arc<Resilience>,
}

impl Default for ApproachOptions {
    fn default() -> Self {
        ApproachOptions {
            seed: HolisticConfig::default().seed,
            uncertainty: UncertaintyMode::Off,
            threads: None,
            cache: None,
            resilience: Arc::default(),
        }
    }
}

impl ApproachOptions {
    /// The planner configuration every approach is served with — one
    /// speech space and one estimator, so a side-by-side isolates the
    /// evaluation strategy.
    pub fn holistic_config(&self) -> HolisticConfig {
        HolisticConfig {
            seed: self.seed,
            uncertainty: self.uncertainty,
            // Under an instant voice there is no speaking time to overlap,
            // so each sentence gets a real sampling floor (tens of
            // milliseconds of planning).
            min_samples_per_sentence: 8_000,
            ..HolisticConfig::default()
        }
    }

    fn optimal(&self) -> Optimal {
        Optimal {
            config: self.holistic_config(),
            cache: self.cache.clone(),
            resilience: self.resilience.clone(),
        }
    }

    fn unmerged(&self) -> Unmerged {
        Unmerged::new(self.holistic_config(), SamplingBudget::PAPER)
            .with_resilience(self.resilience.clone())
    }
}

/// Build the vocalizer a front end names in its `approach` field or
/// `--approach` flag: `holistic`, `parallel` (alias `concurrent`, the
/// pre-parallel engine's name), `optimal`, `unmerged` or `prior`. Every
/// configurable approach gets [`ApproachOptions::holistic_config`]; this is
/// the one place that decides which of them also gets the cache and the
/// resilience bundle.
pub fn vocalizer(name: &str, opts: &ApproachOptions) -> Result<Box<dyn Vocalizer>, String> {
    let engine = |threads: usize| {
        let engine = Holistic::new(opts.holistic_config())
            .with_threads(threads)
            .with_resilience(opts.resilience.clone());
        match &opts.cache {
            Some(cache) => engine.with_cache(cache.clone()),
            None => engine,
        }
    };
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(match name {
        "holistic" => Box::new(engine(1)),
        "parallel" | "concurrent" => Box::new(engine(opts.threads.unwrap_or_else(cores))),
        "optimal" => Box::new(opts.optimal()),
        "unmerged" => Box::new(opts.unmerged()),
        "prior" => Box::new(PriorGreedy),
        other => {
            return Err(format!(
                "unknown approach {other:?} (holistic|parallel|optimal|unmerged|prior)"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_its_approach_and_unknown_names_are_errors() {
        let opts = ApproachOptions { threads: Some(2), ..ApproachOptions::default() };
        for (name, reports) in [
            ("holistic", "holistic"),
            ("parallel", "holistic-parallel"),
            ("concurrent", "holistic-parallel"),
            ("optimal", "optimal"),
            ("unmerged", "unmerged"),
            ("prior", "prior"),
        ] {
            assert_eq!(vocalizer(name, &opts).unwrap().name(), reports, "{name}");
        }
        assert!(vocalizer("quantum", &opts).err().unwrap().contains("quantum"));
        // The name follows the thread count: a team of one is `holistic`.
        let one = ApproachOptions { threads: Some(1), ..ApproachOptions::default() };
        assert_eq!(vocalizer("parallel", &one).unwrap().name(), "holistic");
        // The serving configuration is the defaults plus these two, and
        // the comparison approaches carry it too — not a default.
        let opts = ApproachOptions { seed: 9, ..opts };
        let cfg = opts.holistic_config();
        assert_eq!((cfg.seed, cfg.min_samples_per_sentence), (9, 8_000));
        for served in [opts.optimal().config(), opts.unmerged().config()] {
            assert_eq!((served.seed, served.min_samples_per_sentence), (9, 8_000));
        }
    }
}
