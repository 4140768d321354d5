//! # rss-control — PID control and Ziegler–Nichols tuning
//!
//! The control-theory substrate of the *Restricted Slow-Start for TCP*
//! reproduction. The paper's contribution is a PID controller that paces the
//! TCP sender during slow-start, with the host's network-interface-queue
//! occupancy as the process variable and 90 % of the queue's capacity as the
//! setpoint; the gains come from a Ziegler–Nichols ultimate-gain experiment.
//!
//! This crate provides:
//!
//! * [`PidController`] — the discrete-time transfer function
//!   `Kp (E + 1/Ti ∫E dt + Td dE/dt)` with anti-windup and derivative
//!   filtering;
//! * [`plant`] — reference plants (first-order lag, integrators, dead time)
//!   with analytic ultimate gains for validation;
//! * [`ziegler_nichols`] — the automated closed-loop ultimate-gain search
//!   and the paper's `0.33 Kc / 0.5 Tc / 0.33 Tc` tuning rule.
//!
//! ```
//! use rss_control::{find_ultimate_gain, DeadTimePlant, FirstOrderPlant, ZnSearchConfig};
//!
//! // Tune against a first-order-plus-dead-time plant, as the paper tuned
//! // against the live host.
//! let mut plant = DeadTimePlant::new(FirstOrderPlant::new(1.0, 1.0, 0.0), 1.0);
//! let zn = find_ultimate_gain(&mut plant, &ZnSearchConfig::default()).unwrap();
//! let gains = zn.paper_gains(); // Kp = 0.33 Kc, Ti = 0.5 Tc, Td = 0.33 Tc
//! assert!(gains.kp > 0.0);
//! ```

#![warn(missing_docs)]

pub mod pid;
pub mod plant;
pub mod ziegler_nichols;

pub use pid::{PidConfig, PidController, PidGains};
pub use plant::{fopdt_ultimate, DeadTimePlant, FirstOrderPlant, IntegratorPlant, Plant};
pub use ziegler_nichols::{
    classify_response, find_ultimate_gain, LoopBehavior, ZnError, ZnResult, ZnSearchConfig,
};
