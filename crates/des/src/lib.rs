//! # dcmaint-des — deterministic discrete-event simulation kernel
//!
//! The foundation every other `dcmaint` crate builds on. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time,
//! * [`Scheduler`] — a deterministic timestamped event queue (FIFO within a
//!   timestamp, optional horizon),
//! * [`SimRng`] / [`Stream`] — reproducible named RNG substreams so each
//!   stochastic process owns an independent sequence,
//! * [`Dist`] — the sampling distributions (exponential and log-normal)
//!   used by failure and repair models.
//!
//! ## Why not an async runtime?
//!
//! The networking guides this project follows favour explicit, poll-driven
//! designs with no hidden clocks (the smoltcp idiom). A simulation must be
//! bit-reproducible: same seed, same event order, same report. A
//! work-stealing executor schedules tasks nondeterministically; a binary
//! heap with a sequence-number tiebreaker does not. All "concurrency" in the
//! simulated datacenter (robots moving while links flap while technicians
//! drive) is expressed as interleaved events on one logical timeline.
//!
//! ## Shape of a model
//!
//! A model defines a single event enum and runs the loop itself:
//!
//! ```
//! use dcmaint_des::{Dist, Scheduler, SimDuration, SimRng};
//!
//! enum Ev { Fail(u32), Repair(u32) }
//!
//! let rng = SimRng::root(1);
//! let mut arrivals = rng.stream("arrivals", 0);
//! let mut sched = Scheduler::with_horizon(
//!     dcmaint_des::SimTime::ZERO + SimDuration::from_hours(24),
//! );
//! let mtbf = Dist::Exp { mean: 3600.0 };
//! sched.schedule_in(mtbf.sample_duration(&mut arrivals), Ev::Fail(0));
//!
//! let mut failures = 0;
//! while let Some(fired) = sched.pop() {
//!     match fired.payload {
//!         Ev::Fail(link) => {
//!             failures += 1;
//!             sched.schedule_in(SimDuration::from_mins(5), Ev::Repair(link));
//!             sched.schedule_in(mtbf.sample_duration(&mut arrivals), Ev::Fail(link));
//!         }
//!         Ev::Repair(_) => {}
//!     }
//! }
//! assert!(failures > 0);
//! ```

#![warn(missing_docs)]

mod dist;
mod rng;
mod sched;
mod time;

pub use dist::Dist;
pub use rng::{SimRng, Stream};
pub use sched::{Fired, SchedProf, Scheduler};
pub use time::{SimDuration, SimTime};
