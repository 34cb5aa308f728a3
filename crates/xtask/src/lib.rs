//! CI gate checkers and manifest tooling for the vaesa workspace.
//!
//! The `xtask` binary has four subcommands:
//!
//! - [`gate::check`] (`xtask gate`) — checks declarative threshold rules
//!   against one [`snapshot::Snapshot`], optionally relative to a
//!   baseline snapshot. A snapshot loads any export CI gates on: a run
//!   manifest, a Prometheus scrape, or a criterion-shim capture;
//! - [`determinism::determinism`] — diffs two runs of the same figure at
//!   different `VAESA_THREADS`, byte-comparing result files and comparing
//!   the deterministic slice of their manifests;
//! - [`prom::prom_check`] — validates a scraped Prometheus snapshot's
//!   structure;
//! - [`trace`] — parses, validates, and folds the Chrome `trace_event`
//!   JSON the obs layer exports (`xtask trace-check`, `vaesa-cli
//!   obs-flame`).
//!
//! [`manifest`] and [`report`] also back `vaesa-cli obs-report`.
//!
//! Everything here is a *reader* of `vaesa-obs` output; the obs crate
//! itself stays write-only (and dependency-free).

pub mod determinism;
pub mod gate;
pub mod manifest;
pub mod prom;
pub mod report;
pub mod snapshot;
pub mod trace;
