//! Deterministic self-profiler for the StarNUMA reproduction.
//!
//! Answers "where does the wall time go?" without compromising the repo's
//! determinism contract. Three pieces:
//!
//! * **Sites** ([`Site`]): a closed, ordered registry of simulation
//!   components (trace generation, TLB tracking, LLC, directory, DRAM,
//!   coherence, the timing loop, migration policy, checkpointing, obs
//!   export). Closed and ordered is the point — it makes cross-worker
//!   merges and rendered reports canonical, like the obs metric registry.
//! * **Scopes** ([`ProfScope`]): RAII guards placed in the simulation hot
//!   paths. Disabled (the default) a scope is one relaxed atomic load;
//!   enabled it stamps [`ProfClock`] and charges inclusive ns + a call to
//!   a `(phase, site, parent)` edge in a thread-local table. Workers flush
//!   via [`flush_thread`]; [`take_report`] drains the merged registry.
//! * **Reports** ([`ProfReport`]): the top-down attribution tree
//!   (`% wall`, ns/call, calls), schema-versioned `profile.json`, and
//!   folded stacks for flamegraph tooling.
//!
//! Wall-clock isolation: [`ProfClock`] is the *only* sanctioned
//! `Instant` reader in the workspace (lint SN002 enforces the boundary),
//! and profiling never feeds back into simulation state — a profiled run
//! produces bit-identical `RunResult`s and obs exports (the
//! `prof_determinism` tier-1 gate proves it).
//!
//! # Examples
//!
//! ```
//! use starnuma_prof::{set_enabled, take_report, ProfScope, Site};
//!
//! starnuma_prof::reset();
//! set_enabled(true);
//! {
//!     let _timing = ProfScope::enter(Site::Timing);
//!     let _llc = ProfScope::enter(Site::Llc);
//! }
//! set_enabled(false);
//! let report = take_report();
//! assert!(!report.is_empty());
//! assert!(report.render_tree(1_000_000).contains("timing"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod report;
mod scope;
mod site;

pub use clock::{ClockStamp, ProfClock, SessionTimer};
pub use report::{PhaseProfile, ProfEdge, ProfReport, SavedProfile};
pub use scope::{
    clear_phase, flush_thread, is_enabled, reset, set_enabled, set_phase, take_report, ProfScope,
    SETUP_KEY,
};
pub use site::{Site, NUM_SITES};
