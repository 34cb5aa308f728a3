#![deny(missing_docs)]
//! Analytical latency/energy cost model for spatial DNN accelerators, in
//! the spirit of Timeloop (Parashar et al., ISPASS 2019).
//!
//! The VAESA paper scores every candidate design with Timeloop; this crate
//! provides the equivalent: a deterministic analytical model that maps a
//! `(architecture, layer, mapping)` triple to latency, energy, and area.
//!
//! - [`Mapping`]: Simba-style weight-stationary loop-nest tiling (spatial K
//!   over PEs, spatial C over MAC lanes, two temporal tile levels).
//! - [`CostModel`] / [`Evaluation`]: tile-reuse data-movement analysis with
//!   capacity checks, 40 nm-inspired per-access energies that grow with
//!   buffer capacity, and compute/bandwidth-bound latency.
//! - [`PreparedModel`]: a cost model bound to one `(arch, layer)` pair, for
//!   the mappers that score many mappings of it.
//! - [`EnergyModel`]: the technology constants.
//!
//! The substitution from the real Timeloop is documented in the repository's
//! `DESIGN.md`: the paper only consumes `(latency, energy)` labels, so any
//! deterministic, discrete-input cost surface with realistic structure
//! (buffer-fit cliffs, DRAM-refetch tradeoffs, utilization plateaus)
//! exercises the same code paths in the VAE and DSE stack.

mod energy;
mod mapping;
mod model;
mod noc;

pub use energy::EnergyModel;
pub use mapping::{Dataflow, Mapping, MappingError};
pub use model::{AccessCounts, CostModel, EnergyBreakdown, EvalError, Evaluation, PreparedModel};
pub use noc::NocModel;
