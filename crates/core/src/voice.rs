//! Voice output abstraction (`VO.Start` / `VO.IsPlaying`, paper Table 3).
//!
//! Algorithm 1 only observes voice output through two operations: an
//! asynchronous `start` and an `is_playing(done)` poll, where `done` is the
//! number of sampling iterations the planner (all its threads) ran since
//! the last `start`. That makes the engine testable against a **virtual
//! clock** — [`VirtualVoice`] turns speaking time into an iteration budget
//! per character, so a test or benchmark reproduces the pipelining ("while
//! the current sentence is spoken, we determine the best follow-up in the
//! background") without real time or audio, at any thread count. A
//! wall-clock implementation, which ignores `done`, lives in `voxolap-voice`.

/// Asynchronous voice output as seen by the planner.
///
/// `Sync` so that every thread of a planning team can poll one voice.
pub trait VoiceOutput: Sync {
    /// Start speaking `sentence`; returns immediately (`VO.Start`).
    fn start(&mut self, sentence: &str);

    /// `true` iff the last sentence is still playing (`VO.IsPlaying`),
    /// given that the planner has run `done` sampling iterations since the
    /// last [`start`](VoiceOutput::start).
    fn is_playing(&self, done: u64) -> bool;

    /// Everything spoken so far, in order.
    fn transcript(&self) -> &[String];
}

/// Virtual-time voice output: speaking a sentence of `n` characters grants
/// the planner `n × iterations_per_char` sampling iterations.
///
/// The default calibration corresponds to ≈ 15 characters/second of speech
/// and ≈ 3 000 planner iterations/second (measured on commodity hardware),
/// i.e. 200 iterations per character — a typical 60-character sentence buys
/// the planner ≈ 4 seconds ≈ 12 000 iterations of background sampling,
/// matching the paper's "many seconds of sampling time" observation.
#[derive(Debug, Clone)]
pub struct VirtualVoice {
    iterations_per_char: f64,
    budget: f64,
    transcript: Vec<String>,
}

impl VirtualVoice {
    /// Create with an explicit iterations-per-character budget.
    pub fn new(iterations_per_char: f64) -> Self {
        assert!(iterations_per_char >= 0.0 && iterations_per_char.is_finite());
        VirtualVoice { iterations_per_char, budget: 0.0, transcript: Vec::new() }
    }
}

impl Default for VirtualVoice {
    fn default() -> Self {
        VirtualVoice::new(200.0)
    }
}

impl VoiceOutput for VirtualVoice {
    fn start(&mut self, sentence: &str) {
        self.budget = sentence.chars().count() as f64 * self.iterations_per_char;
        self.transcript.push(sentence.to_string());
    }

    fn is_playing(&self, done: u64) -> bool {
        (done + 1) as f64 <= self.budget
    }

    fn transcript(&self) -> &[String] {
        &self.transcript
    }
}

/// Voice output that finishes instantly — degenerates the holistic planner
/// to its minimum per-sentence sample count. Useful to isolate planner
/// behaviour from pipelining in tests.
#[derive(Debug, Clone, Default)]
pub struct InstantVoice {
    transcript: Vec<String>,
}

impl VoiceOutput for InstantVoice {
    fn start(&mut self, sentence: &str) {
        self.transcript.push(sentence.to_string());
    }

    fn is_playing(&self, _done: u64) -> bool {
        false
    }

    fn transcript(&self) -> &[String] {
        &self.transcript
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many iterations the planner runs before `voice` stops playing.
    fn iterations(voice: &dyn VoiceOutput) -> u64 {
        (0..).find(|&done| !voice.is_playing(done)).unwrap()
    }

    #[test]
    fn virtual_voice_budget_scales_with_length() {
        let mut v = VirtualVoice::new(2.0);
        v.start("abcde"); // 5 chars -> 10 iterations
        assert_eq!(iterations(&v), 10);
        assert!(!v.is_playing(11), "stays stopped");
    }

    #[test]
    fn virtual_voice_records_transcript() {
        let mut v = VirtualVoice::default();
        v.start("one");
        v.start("two");
        assert_eq!(v.transcript(), &["one".to_string(), "two".to_string()]);
    }

    #[test]
    fn starting_new_sentence_resets_budget() {
        let mut v = VirtualVoice::new(1.0);
        v.start("aaaaaaaaaa");
        assert!(v.is_playing(5));
        v.start("b"); // interrupt with a short sentence: one iteration left
        assert_eq!(iterations(&v), 1);
    }

    #[test]
    fn a_fractional_budget_plays_its_whole_iterations() {
        let mut v = VirtualVoice::new(0.75);
        v.start("abc"); // 2.25 iterations
        assert_eq!(iterations(&v), 2);
    }

    #[test]
    fn instant_voice_never_plays() {
        let mut v = InstantVoice::default();
        v.start("hello");
        assert!(!v.is_playing(0));
        assert_eq!(v.transcript().len(), 1);
    }

    #[test]
    fn zero_budget_voice_is_instant() {
        let mut v = VirtualVoice::new(0.0);
        v.start("hello");
        assert!(!v.is_playing(0));
    }
}
