//! # dcmaint-faults — failure physics for the self-maintaining network
//!
//! The paper's problem statement (§1) is a taxonomy of how cloud network
//! hardware actually fails: rarely fail-stop, mostly gray — flapping
//! links, dirt-dependent transients modulated by temperature and
//! vibration, failures seeded by nearby human activity. This crate models
//! each mechanism:
//!
//! * [`cause`] — hidden [`RootCause`]s per incident, the
//!   [`RepairAction`] vocabulary, and the efficacy matrix that reproduces
//!   "reseating is surprisingly effective" and "multiple attempts needed"
//!   without scripting outcomes;
//! * `env` — diurnal temperature / humidity / vibration stress field
//!   and the fabric-utilization curve the proactive planner reads;
//! * [`gilbert`] — the Gilbert–Elliott flapping process;
//! * [`contamination`] — per-core end-face dirt with IEC-style
//!   inspection, dry/wet cleaning, and mating recontamination;
//! * [`disturb`](mod@disturb) — the cascading-failure model: contact sets, actor
//!   profiles (human vs robot gripper), transient bursts and latent
//!   faults on neighboring cables;
//! * [`injector`] — the Poisson incident process tying it together.
//!
//! ```
//! use dcmaint_des::SimRng;
//! use dcmaint_dcnet::CableMedium;
//! use dcmaint_faults::{RepairAction, RootCause};
//!
//! // The §3.2 story in three lines: sample a hidden cause on a
//! // separable MPO link and try the first-line repair.
//! let mut rng = SimRng::root(1).stream("demo", 0);
//! let medium = CableMedium::FiberMpo { cores: 8 };
//! let cause = RootCause::sample(medium, &mut rng);
//! let fixed = RepairAction::Reseat.attempt(cause, medium, &mut rng);
//! // Sometimes it works (that is the point of the efficacy matrix);
//! // either way the workflow only ever sees `fixed`, never `cause`.
//! let _ = fixed;
//! ```

#![warn(missing_docs)]

pub mod cause;
pub mod contamination;
pub mod disturb;
pub mod env;
pub mod gilbert;
pub mod injector;
pub mod robot;

pub use cause::{RepairAction, RootCause};
pub use contamination::EndFace;
pub use disturb::{contact_set, disturb, ActorProfile, DisturbanceEffect};
pub use env::{diurnal_utilization, Environment};
pub use gilbert::{FlapPhase, FlapProcess};
pub use injector::{FaultConfig, FaultInjector, Incident};
pub use robot::{RobotFault, RobotFaultConfig, RobotPhaseClass};
