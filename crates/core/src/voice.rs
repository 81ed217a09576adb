//! Voice output abstraction (`VO.Start` / `VO.IsPlaying`, paper Table 3).
//!
//! Algorithm 1 only observes voice output through two operations: an
//! asynchronous `start` and an `is_playing` poll. That makes the engine
//! testable against a **virtual clock** — [`VirtualVoice`] models speaking
//! time as a per-character iteration budget, so a unit test or benchmark
//! deterministically reproduces the pipelining behaviour ("while the
//! current sentence is spoken, we determine the best follow-up in the
//! background") without real time or audio. A wall-clock implementation
//! lives in `voxolap-voice`.

/// Asynchronous voice output as seen by the planner.
pub trait VoiceOutput {
    /// Start speaking `sentence`; returns immediately (`VO.Start`).
    fn start(&mut self, sentence: &str);

    /// `true` iff the last sentence is still playing (`VO.IsPlaying`).
    ///
    /// Takes `&mut self` because virtual implementations advance their
    /// clock by one planner iteration per poll — the planner calls this
    /// exactly once per sampling iteration.
    fn is_playing(&mut self) -> bool;

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
    remaining: f64,
    transcript: Vec<String>,
}

impl VirtualVoice {
    /// Create with an explicit iterations-per-character budget.
    pub fn new(iterations_per_char: f64) -> Self {
        assert!(iterations_per_char >= 0.0 && iterations_per_char.is_finite());
        VirtualVoice { iterations_per_char, remaining: 0.0, transcript: Vec::new() }
    }
}

impl Default for VirtualVoice {
    fn default() -> Self {
        VirtualVoice::new(200.0)
    }
}

impl VoiceOutput for VirtualVoice {
    fn start(&mut self, sentence: &str) {
        self.remaining = sentence.chars().count() as f64 * self.iterations_per_char;
        self.transcript.push(sentence.to_string());
    }

    fn is_playing(&mut self) -> bool {
        if self.remaining >= 1.0 {
            self.remaining -= 1.0;
            true
        } else {
            self.remaining = 0.0;
            false
        }
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

    fn is_playing(&mut self) -> bool {
        false
    }

    fn transcript(&self) -> &[String] {
        &self.transcript
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_voice_budget_scales_with_length() {
        let mut v = VirtualVoice::new(2.0);
        v.start("abcde"); // 5 chars -> 10 iterations
        let mut polls = 0;
        while v.is_playing() {
            polls += 1;
        }
        assert_eq!(polls, 10);
        assert!(!v.is_playing(), "stays stopped");
    }

    #[test]
    fn virtual_voice_records_transcript() {
        let mut v = VirtualVoice::default();
        v.start("one");
        while v.is_playing() {}
        v.start("two");
        assert_eq!(v.transcript(), &["one".to_string(), "two".to_string()]);
    }

    #[test]
    fn starting_new_sentence_resets_budget() {
        let mut v = VirtualVoice::new(1.0);
        v.start("aaaaaaaaaa");
        assert!(v.is_playing());
        v.start("b"); // interrupt with a short sentence: one iteration left
        assert!(v.is_playing());
        assert!(!v.is_playing());
    }

    #[test]
    fn instant_voice_never_plays() {
        let mut v = InstantVoice::default();
        v.start("hello");
        assert!(!v.is_playing());
        assert_eq!(v.transcript().len(), 1);
    }

    #[test]
    fn zero_budget_voice_is_instant() {
        let mut v = VirtualVoice::new(0.0);
        v.start("hello");
        assert!(!v.is_playing());
    }
}
