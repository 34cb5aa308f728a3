#![deny(missing_docs)]
//! Dependency-free SVG charts for the VAESA experiment harness.
//!
//! Every experiment binary writes CSV series; this crate turns them into
//! figures directly — line charts with ±std bands for the convergence plots
//! (Figures 10–12), log-scale EDP curves (Figure 11), and value-colored
//! scatter plots for the latent-space visualizations (Figure 4) and Pareto
//! fronts — without pulling a plotting dependency into the workspace.
//!
//! # Examples
//!
//! ```
//! use vaesa_plot::{LineChart, Series};
//!
//! let mut chart = LineChart::new("Best EDP vs samples", "sample", "EDP");
//! chart.log_y();
//! chart.series(Series::new("random", vec![(1.0, 3e16), (50.0, 2e16)]));
//! chart.series(Series::new("vae_bo", vec![(1.0, 3e16), (50.0, 1.6e16)]));
//! let svg = chart.render();
//! assert!(svg.starts_with("<svg"));
//! ```

mod chart;
pub mod color;
mod flame;
mod heatmap;
mod histogram;
pub mod scale;
mod svg;

pub use chart::{LineChart, ScatterChart, Series};
pub use flame::FlameGraph;
pub use heatmap::Heatmap;
pub use histogram::Histogram;
pub use svg::Svg;
