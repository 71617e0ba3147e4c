//! Paper-scale benchmark of the GridFTP virtual-circuit reproduction.
//!
//! Three workloads ([`workloads`]) are timed end to end with the
//! benchmark's own spans off; a traced run ([`layers`]) times the calls
//! into each crate and the differential runs the per-layer report
//! needs. See `README.md` in this directory.

pub mod harness;
pub mod hostspeed;
pub mod layers;
pub mod measure;
pub mod workloads;
