//! # dcmaint-tickets — ticketing workflow and the human baseline
//!
//! The paper's Level-0 world (§1, §2.1): services detect failures, open
//! tickets, and skilled technicians walk to racks on an
//! hours-to-days timescale. This crate models that pipeline:
//!
//! * [`ticket`] — ticket lifecycle, priorities, per-link repair memory
//!   (the §3.2 escalation time window), and service-window measurement;
//! * [`techs`] — the shift-staffed technician pool with triage queues,
//!   travel, per-action task times, and human error.
//!
//! The robotic path (`dcmaint-robotics` + `maintctl`) replaces the
//! *execution* of tickets; the board itself is shared — §2's fully
//! self-maintaining endpoint "will not require the service to create a
//! ticket", which automation levels L3/L4 model by closing the loop
//! without a human ever being assigned.

#![warn(missing_docs)]

pub mod techs;
pub mod ticket;

pub use techs::{Assignment, TechConfig, TechnicianPool};
pub use ticket::{
    AttemptRecord, Priority, Ticket, TicketBoard, TicketId, TicketState, TicketTrigger,
};
