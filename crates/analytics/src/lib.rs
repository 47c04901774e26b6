//! # crowd-analytics
//!
//! Every analysis of the VLDB'17 crowdsourcing-marketplace study as a
//! typed Rust API, organized exactly like the paper:
//!
//! * [`marketplace`] — §3: task arrivals, worker availability, load
//!   distribution over clusters, task-type characterization, complexity
//!   trends (Figs 1–12);
//! * [`design`] — §4: effectiveness metrics, the feature/metric correlation
//!   methodology, label drill-downs, summary tables 1–3, and the §4.9
//!   predictive setting (Figs 13–14, 25);
//! * [`workers`] — §5: labor sources, geography, workloads, lifetimes and
//!   engagement (Figs 26–30).
//!
//! All analyses run against a [`Study`], which performs the paper's §2.4
//! enrichment over a raw [`crowd_core::Dataset`]: clustering batches by
//! task-HTML similarity, extracting design parameters from the HTML, and
//! computing the three effectiveness metrics per batch and cluster. The
//! analyses never look at generator internals — only at dataset rows.
//!
//! ```no_run
//! use crowd_sim::{simulate, SimConfig};
//! use crowd_analytics::Study;
//!
//! let study = Study::new(simulate(&SimConfig::default_scale(7)));
//! let arrivals = crowd_analytics::marketplace::arrivals::weekly(&study);
//! let t1 = crowd_analytics::design::summary::disagreement_table(&study);
//! println!("{} weeks, {} feature rows", arrivals.weeks.len(), t1.rows.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod fused;
pub mod marketplace;
pub mod study;
#[cfg(test)]
pub(crate) mod testutil;
pub mod view;
pub mod workers;

pub use study::{BatchMetrics, ClusterInfo, StreamingEnricher, Study};
pub use view::{FusedView, ViewSnapshot};
