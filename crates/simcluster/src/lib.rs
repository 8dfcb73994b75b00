//! # stellaris-simcluster
//!
//! A discrete-event simulator of the Stellaris training pipeline. The
//! laptop-scale experiments in `stellaris-core` run the real system with
//! real threads; this crate complements them by replaying the *paper-scale*
//! configurations (128 actors x 1024 steps, 8 learner slots, 50 rounds —
//! and the 16-GPU/960-core HPC profile) in virtual time, using the exact
//! `AggregationRule`/`StalenessSchedule` logic from `stellaris-core` with
//! tensor math replaced by calibrated service times.
//!
//! Use it for the cost/utilisation/staleness questions that need full
//! scale: Fig. 2(b), Fig. 3(a)/(b) and Fig. 8's economics.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod profile;
pub mod sim;

pub use profile::TimingProfile;
pub use sim::{simulate, SimBilling, SimConfig, SimResult, SimRound};
