//! `mdw-routed` — a resident fault-tolerant fabric-control service
//! (DESIGN.md §12).
//!
//! The offline pipeline (the [`FaultResponder`](crate::respond) and its
//! reroute vet) handles one outage at a time under a test harness's
//! control. This module packages it as a *service* that
//! owns a live [`System`](crate::build::System) and survives fault
//! storms:
//!
//! * [`proto`] — the line-delimited request protocol clients speak
//!   (link up/down, multicast join/leave, route/reach/health/metrics
//!   queries, deterministic `step`);
//! * [`queue`] — bounded request queues with the explicit
//!   backpressure/shed split: fabric *events* block the producer (they
//!   must never be lost), *queries* are shed with a counted error when
//!   the service falls behind;
//! * [`damp`] — per-link flap damping layered over the responder's
//!   debounce: each confirmed transition charges a penalty that decays
//!   exponentially; links over the suppress threshold are masked until
//!   they cool below the reuse threshold, so one flapping cable cannot
//!   force a reroute per flap;
//! * [`backoff`] — capped exponential retry backoff with deterministic
//!   jitter for responses the vet rejected or the purge timed out on;
//! * [`ladder`] — the degradation ladder (full mcast → masked mcast →
//!   U-Min unicast → read-only) with hysteresis on heal: descent is
//!   immediate, each climb waits out a calm window;
//! * [`storm`] — the storm controller gluing damper, backoff, ladder,
//!   and the detect→vet→install watchdog around the responder;
//! * [`metrics`] — first-class service metrics: p50/p99 detect→install
//!   latency (cycles), p50/p99 vet wall time (ns), shed/served counts;
//! * [`service`] — the resident loop: owns the `System` (which is
//!   `!Send` — `Rc` everywhere — so the service thread is the only one
//!   that touches it) and consumes request envelopes from reader
//!   threads over an `mpsc::sync_channel`.

pub mod backoff;
pub mod damp;
pub mod ladder;
pub mod metrics;
pub mod proto;
pub mod queue;
pub mod service;
pub mod storm;

pub use backoff::Backoff;
pub use damp::FlapDamper;
pub use ladder::Ladder;
pub use metrics::ServiceMetrics;
pub use proto::{LinkRef, Request};
pub use queue::{Envelope, ShedCounter};
pub use service::RoutedService;
pub use storm::{StormCounters, StormResponder};

use netsim::Cycle;

/// Tuning knobs of the resident control service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedConfig {
    /// Capacity of the bounded request queue between reader threads and
    /// the service loop. Fabric events block when it fills (backpressure);
    /// queries are shed with an error.
    pub queue_cap: usize,
    /// Engine cycles advanced per service-loop slice (also the storm
    /// controller's tick cadence).
    pub slice: Cycle,
    /// Flap penalty charged per debounce-confirmed link transition.
    pub flap_penalty: u64,
    /// Penalty at or above which a link is suppressed (treated as dead).
    pub flap_suppress: u64,
    /// Penalty at or below which a suppressed link is reinstated.
    pub flap_reuse: u64,
    /// Half-life of the flap penalty decay, in cycles.
    pub flap_half_life: Cycle,
    /// Base delay of the reroute retry backoff, in cycles.
    pub retry_base: Cycle,
    /// Cap on a single backoff delay, in cycles.
    pub retry_cap: Cycle,
    /// Retry attempts before the ladder drops the fabric to read-only.
    pub retry_max: u32,
    /// Calm cycles required before the ladder climbs one rung on heal.
    pub heal_hysteresis: Cycle,
    /// Watchdog deadline on a detect→vet→install episode, in cycles; an
    /// episode running past it force-degrades the fabric to U-Min.
    pub deadline: Cycle,
}

impl Default for RoutedConfig {
    fn default() -> Self {
        RoutedConfig {
            queue_cap: 64,
            slice: 32,
            flap_penalty: 1_000,
            flap_suppress: 2_500,
            flap_reuse: 800,
            flap_half_life: 2_048,
            retry_base: 64,
            retry_cap: 4_096,
            retry_max: 5,
            heal_hysteresis: 2_048,
            deadline: 4_096,
        }
    }
}
