//! # emumap-model
//!
//! Domain model for the emulation-testbed mapping problem of Calheiros,
//! Buyya & De Rose (ICPP 2009):
//!
//! * [`PhysicalTopology`] — the cluster `c = (C, E_c)`: hosts with
//!   CPU/memory/storage capacities and links with bandwidth/latency, plus
//!   capacity-less switch nodes for switched topologies,
//! * [`VirtualEnvironment`] — the emulated system `v = (V, E_v)`: guests and
//!   virtual links with resource demands,
//! * [`Mapping`] / [`Route`] — a solution: the guest→host assignment `G_i`
//!   and the per-link physical paths `P_j`,
//! * [`ResidualState`] — incremental residual-capacity bookkeeping used by
//!   the mappers,
//! * [`validate::validate_mapping`] — an independent checker for the paper's
//!   constraints (Eqs. 1–9),
//! * [`objective`] — the load-balance objective (Eq. 10).
//!
//! ```
//! use emumap_model::{
//!     HostSpec, LinkSpec, PhysicalTopology, VirtualEnvironment, GuestSpec, VLinkSpec,
//!     Mips, MemMb, StorGb, Kbps, Millis, VmmOverhead,
//! };
//! use emumap_graph::generators;
//!
//! // A 2x2 torus of identical hosts with gigabit links.
//! let phys = PhysicalTopology::from_shape(
//!     &generators::torus2d(2, 2),
//!     std::iter::repeat(HostSpec::new(Mips(2000.0), MemMb::from_gb(2), StorGb(2000.0))),
//!     LinkSpec::new(Kbps::from_gbps(1.0), Millis(5.0)),
//!     VmmOverhead::NONE,
//! );
//!
//! // Two guests joined by a 1 Mbps virtual link.
//! let mut venv = VirtualEnvironment::new();
//! let a = venv.add_guest(GuestSpec::new(Mips(75.0), MemMb(192), StorGb(150.0)));
//! let b = venv.add_guest(GuestSpec::new(Mips(75.0), MemMb(192), StorGb(150.0)));
//! venv.add_link(a, b, VLinkSpec::new(Kbps::from_mbps(1.0), Millis(45.0)));
//!
//! assert_eq!(phys.host_count(), 4);
//! assert_eq!(venv.guest_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
pub mod fractional;
mod mapping;
pub mod objective;
mod physical;
mod residual;
mod resources;
pub mod validate;
mod virtualenv;

pub use accumulator::{ObjectiveAccumulator, REFRESH_INTERVAL};
pub use fractional::{ExpectedLoads, FractionalPlacement};
pub use mapping::{Mapping, Route};
pub use physical::{HostSpec, LinkSpec, PhysNode, PhysicalTopology, VmmOverhead};
pub use residual::{FeasBitset, PlaceError, ResidualState};
pub use resources::{Kbps, MemMb, Millis, Mips, StorGb};
pub use validate::{validate_mapping, Violation};
pub use virtualenv::{GuestId, GuestSpec, VLinkId, VLinkSpec, VirtualEnvironment};
