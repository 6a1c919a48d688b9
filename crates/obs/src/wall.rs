//! The one module sanctioned to read the wall clock.
//!
//! Real-time measurements are inherently nondeterministic, so clock
//! reads are quarantined here: the engine self-profiler
//! ([`crate::prof`]) and the benchmark harnesses read the clock through
//! a [`WallProfile`], and nothing they measure is ever mixed into seeded
//! (simulated-time) output.

use std::time::Instant;

/// A switchable wall clock. Disabled by default; a disabled clock's
/// [`WallProfile::start`] returns `None` without reading the clock.
#[derive(Debug, Clone, Default)]
pub struct WallProfile {
    enabled: bool,
}

impl WallProfile {
    /// A clock that reads.
    pub fn enabled() -> Self {
        WallProfile { enabled: true }
    }

    /// A clock that never reads.
    pub fn disabled() -> Self {
        WallProfile::default()
    }

    /// Whether this clock reads.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Read the clock iff enabled. The caller measures the elapsed time
    /// from the returned instant after the timed section.
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_an_enabled_clock_reads() {
        assert!(WallProfile::disabled().start().is_none());
        assert!(!WallProfile::disabled().is_enabled());
        assert!(WallProfile::enabled().is_enabled());
        assert!(WallProfile::enabled().start().is_some());
    }
}
