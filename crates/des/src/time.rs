//! Simulated time.
//!
//! The kernel keeps time as an integer count of **microseconds** since the
//! start of the simulation. Microsecond resolution is fine enough to order
//! network telemetry events and coarse enough that a `u64` covers ~584,000
//! years of simulated time — no overflow handling is needed anywhere else.
//!
//! Two types are provided, mirroring `std::time`:
//!
//! * [`SimTime`] — an instant (point on the simulation clock),
//! * [`SimDuration`] — a span between two instants.
//!
//! Both are `Copy`, totally ordered, and implement the arithmetic that makes
//! sense (`SimTime + SimDuration = SimTime`, `SimTime - SimTime =
//! SimDuration`, durations add/scale). Arithmetic is saturating rather than
//! panicking: a scheduler fed a corrupted delay should clamp, not abort a
//! multi-hour experiment.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const MICROS_PER_MILLI: u64 = 1_000;
const MICROS_PER_SEC: u64 = 1_000_000;
const MICROS_PER_MIN: u64 = 60 * MICROS_PER_SEC;
const MICROS_PER_HOUR: u64 = 60 * MICROS_PER_MIN;
const MICROS_PER_DAY: u64 = 24 * MICROS_PER_HOUR;

/// An instant on the simulation clock, in microseconds since time zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

dcmaint_ckpt::persist!(SimTime(us));
dcmaint_ckpt::persist!(SimDuration(us));

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event is ever scheduled at or after this instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Raw microsecond count since time zero.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since time zero, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Hours since time zero, as a float (for reporting only).
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_HOUR as f64
    }

    /// Days since time zero, as a float (for reporting only).
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_DAY as f64
    }

    /// Duration elapsed since `earlier`. Saturates to zero if `earlier` is
    /// actually later (callers comparing out-of-order telemetry rely on
    /// this).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Time-of-day offset within a 24-hour simulated day. Used by diurnal
    /// models (utilization curves, technician shifts).
    pub fn time_of_day(self) -> SimDuration {
        SimDuration(self.0 % MICROS_PER_DAY)
    }

    /// Whole simulated days elapsed since time zero.
    pub fn day_index(self) -> u64 {
        self.0 / MICROS_PER_DAY
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MILLI)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * MICROS_PER_MIN)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * MICROS_PER_HOUR)
    }

    /// Construct from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * MICROS_PER_DAY)
    }

    /// Construct from fractional seconds. Negative or non-finite inputs
    /// clamp to zero; values beyond the representable range clamp to
    /// [`SimDuration::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let us = s * MICROS_PER_SEC as f64;
        if us >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(us as u64)
        }
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Span in hours, as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_HOUR as f64
    }

    /// Span in days, as a float.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_DAY as f64
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a float factor, clamping at the representable range.
    /// Negative / NaN factors clamp to zero.
    pub fn mul_f64(self, k: f64) -> Self {
        if !k.is_finite() || k <= 0.0 {
            return SimDuration::ZERO;
        }
        let v = self.0 as f64 * k;
        if v >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(v as u64)
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

fn fmt_micros(us: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if us >= MICROS_PER_DAY {
        write!(f, "{:.2}d", us as f64 / MICROS_PER_DAY as f64)
    } else if us >= MICROS_PER_HOUR {
        write!(f, "{:.2}h", us as f64 / MICROS_PER_HOUR as f64)
    } else if us >= MICROS_PER_MIN {
        write!(f, "{:.2}m", us as f64 / MICROS_PER_MIN as f64)
    } else if us >= MICROS_PER_SEC {
        write!(f, "{:.2}s", us as f64 / MICROS_PER_SEC as f64)
    } else if us >= MICROS_PER_MILLI {
        write!(f, "{:.2}ms", us as f64 / MICROS_PER_MILLI as f64)
    } else {
        write!(f, "{us}us")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+")?;
        fmt_micros(self.0, f)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_micros(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_plus_duration() {
        let t = SimTime::from_micros(10) + SimDuration::from_secs(2);
        assert_eq!(t.as_micros(), 2_000_010);
    }

    #[test]
    fn instant_difference_is_duration() {
        let a = SimTime::from_micros(500);
        let b = SimTime::from_micros(1_700);
        assert_eq!(b - a, SimDuration::from_micros(1_200));
        // Reverse order saturates.
        assert_eq!(a - b, SimDuration::ZERO);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn mul_f64_scales_and_clamps() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn time_of_day_wraps() {
        let t = SimTime::ZERO + SimDuration::from_days(3) + SimDuration::from_hours(5);
        assert_eq!(t.time_of_day(), SimDuration::from_hours(5));
        assert_eq!(t.day_index(), 3);
    }

    #[test]
    fn saturating_add_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn display_picks_human_unit() {
        assert_eq!(SimDuration::from_secs(90).to_string(), "1.50m");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_days(2).to_string(), "2.00d");
        assert_eq!(SimTime::from_micros(1_500_000).to_string(), "t+1.50s");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
