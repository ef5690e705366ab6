//! Observability substrate for the StarNUMA reproduction.
//!
//! The paper's analysis (§II-B vagabond characterization, Fig. 13 sharing
//! breakdowns, Algorithm 1 threshold behavior) is *distributional*: which
//! pages migrated, when, why, and what latency each access class actually
//! saw. End-of-run aggregates cannot answer those questions, so this crate
//! provides the layer the rest of the stack records into:
//!
//! * a **metrics registry** ([`MetricsRegistry`]): monotonic counters plus
//!   fixed-bucket log2 latency histograms ([`LatencyHistogram`]), keyed by
//!   socket, phase, and access class. Hot paths record through an
//!   [`ObsSink`] handle whose disabled form costs one branch per record;
//!   per-phase frames are merged deterministically at phase barriers, so
//!   `--jobs N` output is bit-identical to a sequential run.
//! * a **structured event journal** ([`EventJournal`]): ring-buffered,
//!   severity- and category-tagged records for migration decisions,
//!   threshold crossings, pool-capacity pressure, and checkpoint events.
//! * **exporters** ([`trace_jsonl`], [`metrics_json`]): a self-describing
//!   JSONL journal that `starnuma inspect` reads back (and re-emits as
//!   Chrome `trace_event` JSON), and a metrics JSON document. Both write
//!   through the workspace's one JSON module, [`starnuma_types::json`].
//!
//! Everything is deterministic: events are ordered by a monotonic sequence
//! number (never the host clock), counter maps are `BTreeMap`s, and every
//! run owns its sink, so worker scheduling cannot reorder anything.
//!
//! # Examples
//!
//! ```
//! use starnuma_obs::{EventCategory, EventLevel, FieldValue, ObsSink};
//!
//! let mut sink = ObsSink::enabled(2, ["a", "b", "c", "d", "e", "f"], 1024);
//! sink.begin_phase(0);
//! sink.record_access(0, 1, 180.0);
//! sink.event(EventLevel::Info, EventCategory::Checkpoint, "phase_checkpoint", || {
//!     vec![("planned_moves", FieldValue::U64(0))]
//! });
//! sink.end_phase();
//! let report = sink.finish();
//! assert_eq!(report.events.len(), 1);
//! assert_eq!(report.metrics.merged().sockets[0].class_hist[1].count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod journal;
mod ledger;
mod metrics;
mod monitor;
mod sink;

pub use export::{metrics_json, trace_jsonl, RunMeta};
pub use journal::{Event, EventCategory, EventJournal, EventLevel, FieldValue};
pub use ledger::{
    ClassSummary, RunExtras, RunRecord, SiteSummary, LEDGER_FILE, LEDGER_SCHEMA_VERSION,
};
pub use metrics::{
    percentile_from_counts, try_percentile_from_counts, LatencyHistogram, MetricsFrame,
    MetricsRegistry, Observe, SocketMetrics, HIST_BUCKETS, NUM_CLASSES,
};
pub use monitor::{MonitorReport, MonitorSet, MonitorViolation, PhaseCheck, MONITOR_NAMES};
pub use sink::{ObsReport, ObsSink, DEFAULT_JOURNAL_CAPACITY};
