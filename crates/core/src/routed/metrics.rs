//! First-class service metrics: detect→vet→install latency percentiles
//! plus the storm/queue counters, rendered in a stable `key=value` line
//! format that both the `metrics` protocol query and the E18 bench
//! tables consume.

use collectives::Rung;
use mdw_analysis::{Samples, VetStats};

/// One snapshot of the service's headline metrics.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Completed detect→install episodes.
    pub episodes: usize,
    /// p50 detect→install latency, cycles.
    pub detect_install_p50: u64,
    /// p99 detect→install latency, cycles.
    pub detect_install_p99: u64,
    /// Worst detect→install latency, cycles.
    pub detect_install_max: u64,
    /// Structural + behavioral vet invocations timed.
    pub vet_calls: usize,
    /// p50 wall time of a structural vet, nanoseconds.
    pub vet_p50_ns: u64,
    /// p99 wall time of a structural vet, nanoseconds.
    pub vet_p99_ns: u64,
    /// Queries answered.
    pub queries_served: u64,
    /// Queries shed at the queue boundary.
    pub queries_shed: u64,
    /// Fabric events consumed.
    pub events_in: u64,
    /// Retries scheduled after rejected/incomplete responses.
    pub retries: u64,
    /// Watchdog deadline breaches (each force-degrades).
    pub watchdog_trips: u64,
    /// Degradation-ladder rung changes, both directions.
    pub ladder_transitions: u64,
    /// The rung at snapshot time.
    pub rung: Rung,
    /// Responder event-log entries evicted by the ring.
    pub events_dropped: u64,
}

impl ServiceMetrics {
    /// Builds the latency-derived fields from the raw series; the caller
    /// fills the counter fields.
    pub fn from_series(detect_install: &Samples, vet: &VetStats) -> Self {
        ServiceMetrics {
            episodes: detect_install.count(),
            detect_install_p50: detect_install.percentile(50.0),
            detect_install_p99: detect_install.percentile(99.0),
            detect_install_max: detect_install.max(),
            vet_calls: vet.structural_ns.count() + vet.model_ns.count(),
            vet_p50_ns: vet.structural_ns.percentile(50.0),
            vet_p99_ns: vet.structural_ns.percentile(99.0),
            queries_served: 0,
            queries_shed: 0,
            events_in: 0,
            retries: 0,
            watchdog_trips: 0,
            ladder_transitions: 0,
            rung: Rung::FullMcast,
            events_dropped: 0,
        }
    }

    /// The stable one-line `key=value` rendering.
    pub fn render(&self) -> String {
        format!(
            "episodes={} p50={} p99={} max={} vet_calls={} vet_p50_ns={} \
             vet_p99_ns={} queries={} shed={} events={} retries={} \
             watchdog={} ladder={} rung={} events_dropped={}",
            self.episodes,
            self.detect_install_p50,
            self.detect_install_p99,
            self.detect_install_max,
            self.vet_calls,
            self.vet_p50_ns,
            self.vet_p99_ns,
            self.queries_served,
            self.queries_shed,
            self.events_in,
            self.retries,
            self.watchdog_trips,
            self.ladder_transitions,
            self.rung,
            self.events_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_rendering() {
        let mut s = Samples::new();
        for v in [100, 200, 300, 400] {
            s.record(v);
        }
        let m = ServiceMetrics::from_series(&s, &VetStats::default());
        assert_eq!(m.episodes, 4);
        assert_eq!(m.detect_install_p50, 200);
        assert_eq!(m.detect_install_p99, 400);
        assert_eq!(m.detect_install_max, 400);
        let line = m.render();
        assert!(line.contains("p50=200"), "{line}");
        assert!(line.contains("p99=400"), "{line}");
        assert!(line.contains("rung=full-mcast"), "{line}");
    }
}
