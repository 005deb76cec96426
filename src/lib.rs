//! `eend` — energy-efficient network design for wireless ad hoc networks.
//!
//! A from-scratch Rust reproduction of **Sengul & Kravets, "Heuristic
//! Approaches to Energy-Efficient Network Design Problem" (ICDCS 2007)**:
//! the formal design problem, the paper's three heuristic approaches
//! (communication-energy first, joint optimisation, idling-energy first),
//! the analytical characteristic-hop-count study, and a packet-level
//! wireless simulator (MAC + PSM + ODPM + TITAN + DSR/MTPR/DSRH/DSDV)
//! that regenerates every table and figure of the paper's evaluation.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `eend-sim` | deterministic discrete-event engine |
//! | [`graph`] | `eend-graph` | graph algorithms, Steiner approximations |
//! | [`radio`] | `eend-radio` | Table 1 cards, path loss, energy meters |
//! | [`core`] | `eend-core` | design problem, heuristics, Eqs 5–15 |
//! | [`wireless`] | `eend-wireless` | the packet-level simulator |
//! | [`stats`] | `eend-stats` | run summaries, 95 % CIs, tables |
//! | [`campaign`] | `eend-campaign` | scenario-matrix sweeps, bounded executor |
//! | [`opt`] | `eend-opt` | design-space search, evaluation oracles + cache |
//! | [`fail`] | `eend-fail` | deterministic failpoints for chaos tests |
//!
//! [`signals`] (this crate) is the SIGTERM/SIGINT flag both binaries
//! drain on.
//!
//! # Quick start
//!
//! ```
//! use eend::wireless::{presets, stacks, Simulator};
//!
//! // The paper's small-network scenario under its proposed protocol
//! // (shortened from 900 s to keep the doctest fast).
//! let mut scenario = presets::small_network(stacks::titan_pc(), 4.0, 7);
//! scenario.duration = eend::sim::SimDuration::from_secs(40);
//! let m = Simulator::new(&scenario).run();
//! println!("delivery {:.3}, goodput {:.0} bit/J",
//!          m.delivery_ratio(), m.energy_goodput_bit_per_j());
//! # assert!(m.data_sent > 0);
//! ```

#![warn(missing_docs)]

pub use eend_campaign as campaign;
pub use eend_core as core;
pub use eend_fail as fail;
pub use eend_graph as graph;
pub use eend_opt as opt;
pub use eend_radio as radio;
pub use eend_sim as sim;
pub use eend_stats as stats;
pub use eend_wireless as wireless;

pub mod signals;
