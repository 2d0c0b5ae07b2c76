//! # emumap-bench
//!
//! The evaluation harness: reruns the ICPP 2009 experiment grid and
//! regenerates every table and figure.
//!
//! Binaries (all accept `--reps N --seed S --attempts A`):
//!
//! * `table2` — mean objective function + failure counts (paper Table 2);
//! * `table3` — mean mapping wall-clock time (paper Table 3);
//! * `figure1` — HMN mapping time vs. routed virtual links on the torus
//!   cluster (paper Figure 1);
//! * `correlation` — Pearson correlation between the Eq. 10 objective and
//!   simulated experiment runtime (§5.2 reports r ≈ 0.7).
//!
//! Criterion benches cover per-stage costs and the ablations listed in
//! DESIGN.md §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod crosscheck;
pub mod report;
pub mod runner;
pub mod stats;
