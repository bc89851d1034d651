//! End-to-end and per-layer benchmark of the Bento reproduction.
//!
//! Three closed-loop workloads — `bulk_fetch`, `client_swarm` and
//! `bento_browse` — built from the repository's public constructors and
//! generated from a seed. An untraced run reports host wall-clock
//! end-to-end metrics; a traced run wraps every node in a timing wrapper
//! and splits the wall time across the repository's layers. See
//! `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod bento_browse;
pub mod bulk_fetch;
pub mod client_swarm;
pub mod host;
pub mod net;
mod pace;
pub mod replay;
pub mod run;
pub mod stats;
pub mod workload;
