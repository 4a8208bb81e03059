//! The benchmark's only wall-clock source.

// lint: allow(determinism-time) — the benchmark measures wall time by design; no program output depends on it
use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // lint: allow(determinism-time) — see the module import
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            // lint: allow(determinism-time) — see the module import
            start: Instant::now(),
        }
    }

    /// Wall seconds since `start`.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}
