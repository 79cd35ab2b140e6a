//! Event telemetry for the conditional-cuckoo-filter stack.
//!
//! The rest of the workspace can report point-in-time *state* (occupancy, growth
//! history, shard balance) but was blind to *events*: kick-loop depth distributions,
//! grow/rollback frequency, delete outcomes, batch latencies, per-shard op mix. This
//! crate provides the missing layer with nothing beyond `std::sync::atomic`:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — cheap handles around relaxed-ordering
//!   atomics. A handle is an `Option<Arc<…>>` internally, so a **disabled** instrument
//!   (the default everywhere) costs exactly one branch per operation and allocates
//!   nothing.
//! * [`Registry`] — named instruments with label support (`variant`, `shard`,
//!   …), deduplicated by `(name, labels)` so independently attached
//!   components share series.
//! * [`Snapshot`] — a plain-data capture of every registered series with
//!   [`Snapshot::diff`] semantics for before/after measurements.
//! * Prometheus-style text exposition ([`Telemetry::render_text`]) plus a compact
//!   human table ([`Telemetry::render_table`]).
//!
//! The filter crates thread a [`Telemetry`] handle (a clone-cheap `Arc`) through their
//! constructors and `attach_telemetry` methods; `Telemetry::disabled()` is the
//! always-available no-op default.
//!
//! # Example
//!
//! ```
//! use ccf_telemetry::{buckets, Telemetry};
//!
//! let telemetry = Telemetry::enabled();
//! let inserts = telemetry.counter("ccf_inserts_total", "Rows inserted", &[("variant", "plain")]);
//! let depth = telemetry.histogram(
//!     "ccf_kick_depth",
//!     "Kick rounds per insert",
//!     &buckets::log2(512),
//!     &[],
//! );
//! inserts.inc();
//! depth.observe(3);
//! let text = telemetry.render_text();
//! assert!(text.contains("ccf_inserts_total{variant=\"plain\"} 1"));
//! assert!(text.contains("ccf_kick_depth_bucket{le=\"4\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buckets;
pub mod instruments;
pub mod registry;
pub mod render;
pub mod snapshot;

pub use instruments::{Counter, Gauge, Histogram, Timer};
pub use registry::{Registry, Telemetry};
pub use snapshot::{HistogramSnapshot, MetricEntry, MetricValue, Snapshot};
