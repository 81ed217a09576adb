//! Wall-clock text-to-speech simulation.
//!
//! Stands in for the ResponsiveVoiceJS / Google TTS service of the paper's
//! web interface: speaking time is `characters / rate`. `start` returns
//! immediately (as the paper's `VO.Start` requires) and `is_playing`
//! compares against the wall clock, ignoring how many iterations the
//! planner ran, so the holistic planner genuinely overlaps sampling with
//! "speaking" in real time.

use std::time::{Duration, Instant};

use voxolap_core::voice::VoiceOutput;

/// Default speaking rate: ≈ 15 characters per second, a typical synthetic
/// voice at normal speed.
pub const DEFAULT_CHARS_PER_SEC: f64 = 15.0;

/// A wall-clock voice: sentences "play" for `len / chars_per_sec` seconds.
#[derive(Debug, Clone)]
pub struct RealTimeVoice {
    chars_per_sec: f64,
    playing_until: Option<Instant>,
    transcript: Vec<String>,
}

impl RealTimeVoice {
    /// Create with an explicit speaking rate (characters per second).
    pub fn new(chars_per_sec: f64) -> Self {
        assert!(chars_per_sec > 0.0 && chars_per_sec.is_finite());
        RealTimeVoice { chars_per_sec, playing_until: None, transcript: Vec::new() }
    }

    /// Speaking time for a given sentence at this voice's rate.
    pub fn duration_of(&self, sentence: &str) -> Duration {
        Duration::from_secs_f64(sentence.chars().count() as f64 / self.chars_per_sec)
    }

    /// Block until the current sentence finishes (used at session end so a
    /// transcript is complete before the process moves on).
    pub fn wait_until_done(&mut self) {
        if let Some(t) = self.playing_until {
            let now = Instant::now();
            if t > now {
                std::thread::sleep(t - now);
            }
            self.playing_until = None;
        }
    }
}

impl VoiceOutput for RealTimeVoice {
    fn start(&mut self, sentence: &str) {
        self.playing_until = Some(Instant::now() + self.duration_of(sentence));
        self.transcript.push(sentence.to_string());
    }

    /// Reads the wall clock; the planner's iteration count plays no part.
    fn is_playing(&self, _done: u64) -> bool {
        self.playing_until.is_some_and(|t| Instant::now() < t)
    }

    fn transcript(&self) -> &[String] {
        &self.transcript
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn playing_state_follows_wall_clock() {
        // Very fast voice: 10 chars in 1 ms.
        let mut v = RealTimeVoice::new(10_000.0);
        v.start("aaaaaaaaaa");
        assert!(v.is_playing(0));
        std::thread::sleep(Duration::from_millis(5));
        assert!(!v.is_playing(0));
    }

    #[test]
    fn duration_scales_with_length() {
        let v = RealTimeVoice::new(15.0);
        assert_eq!(v.duration_of("abc"), Duration::from_secs_f64(0.2));
        assert!(v.duration_of("a longer sentence") > v.duration_of("short"));
    }

    #[test]
    fn wait_until_done_blocks() {
        let mut v = RealTimeVoice::new(1_000.0);
        v.start("aaaaaaaaaaaaaaaaaaaa"); // 20 ms
        let t0 = Instant::now();
        v.wait_until_done();
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert!(!v.is_playing(0));
    }

    #[test]
    fn transcript_accumulates() {
        let mut v = RealTimeVoice::new(10_000.0);
        v.start("one");
        v.start("two");
        assert_eq!(v.transcript(), &["one".to_string(), "two".to_string()]);
    }
}
