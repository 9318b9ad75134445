//! Shared scales and parameter sets for the experiment harness.
//!
//! Every evaluation axis of the paper has a *full* parameter set (used by
//! the `figures` binary to regenerate the tables recorded in
//! EXPERIMENTS.md) and a *quick* set (`figures --scale quick`, which runs
//! every experiment in minutes, not hours, and is what `figures --bench`
//! times into `BENCH_sweep.json`).

use mdworm::sim::RunConfig;
use mdworm::SystemConfig;

pub mod perf;
pub mod suite;

/// How much work to spend per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full measurement windows and sweeps (the recorded results).
    Full,
    /// Shrunk windows and sweeps for smoke benchmarking.
    Quick,
}

impl Scale {
    /// Parses `"full"` / `"quick"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "quick" => Some(Scale::Quick),
            _ => None,
        }
    }

    /// The run-length configuration for this scale.
    pub fn run(self) -> RunConfig {
        match self {
            Scale::Full => RunConfig {
                warmup: 5_000,
                measure: 40_000,
                drain_max: 300_000,
                watchdog_grace: 30_000,
                faults: None,
                outages: Vec::new(),
            },
            Scale::Quick => RunConfig {
                warmup: 1_000,
                measure: 5_000,
                drain_max: 80_000,
                watchdog_grace: 20_000,
                faults: None,
                outages: Vec::new(),
            },
        }
    }

    /// Offered-load sweep for E2/E3.
    pub fn loads(self) -> Vec<f64> {
        match self {
            Scale::Full => vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            Scale::Quick => vec![0.2, 0.6],
        }
    }

    /// Offered-load sweep for E4/E5.
    pub fn bimodal_loads(self) -> Vec<f64> {
        match self {
            Scale::Full => vec![0.1, 0.3, 0.5, 0.7, 0.9],
            Scale::Quick => vec![0.3],
        }
    }

    /// Degree sweep for E6 / E10 (64-processor system).
    pub fn degrees(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![2, 4, 8, 16, 32, 63],
            Scale::Quick => vec![4, 16],
        }
    }

    /// Message-length sweep for E7.
    pub fn lengths(self) -> Vec<u16> {
        match self {
            Scale::Full => vec![16, 32, 64, 128, 256, 512],
            Scale::Quick => vec![32, 128],
        }
    }

    /// Tree stages for E8 (16 / 64 / 256 processors).
    pub fn stages(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![2, 3, 4],
            Scale::Quick => vec![2],
        }
    }

    /// Tree stages for E11 (barrier).
    pub fn barrier_stages(self) -> Vec<usize> {
        match self {
            Scale::Full => vec![2, 3, 4],
            Scale::Quick => vec![2],
        }
    }

    /// Barrier rounds for E11.
    pub fn barrier_rounds(self) -> u64 {
        match self {
            Scale::Full => 10,
            Scale::Quick => 3,
        }
    }

    /// Hot-spot fractions for E12.
    pub fn hotspot_fractions(self) -> Vec<f64> {
        match self {
            Scale::Full => vec![0.0, 0.02, 0.05, 0.08],
            Scale::Quick => vec![0.0, 0.05],
        }
    }

    /// Per-flit drop rates for the E16 fault-degradation sweep.
    pub fn drop_rates(self) -> Vec<f64> {
        match self {
            Scale::Full => vec![0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3],
            Scale::Quick => vec![0.0, 1e-4, 1e-3],
        }
    }

    /// Per-phase window length for the E17 fault-response timeline
    /// (healthy / rerouted / degraded / healed) and the E18 storm script.
    pub fn fault_phase_len(self) -> u64 {
        match self {
            Scale::Full => 8_000,
            Scale::Quick => 2_500,
        }
    }

    /// Per-phase window length for the E19 crash-sweep storm script. The
    /// sweep re-runs the whole experiment once per protocol boundary, so
    /// the phase stays short at both scales; it must still clear the
    /// responder's debounce + drain-wait + purge budget (~600 cycles at
    /// defaults) or every episode goes stale before the install window.
    pub fn crash_phase_len(self) -> u64 {
        match self {
            Scale::Full => 800,
            Scale::Quick => 400,
        }
    }
}

/// The paper's default 64-processor base system.
pub fn base_system() -> SystemConfig {
    SystemConfig::default()
}

/// Default workload constants shared by the experiments.
pub mod defaults {
    /// Multicast degree for the load sweeps.
    pub const DEGREE: usize = 16;
    /// Message payload length in flits.
    pub const LEN: u16 = 64;
    /// Multicast share of bimodal traffic.
    pub const MCAST_FRACTION: f64 = 0.10;
    /// Fixed load for the degree/length/size sweeps.
    pub const SWEEP_LOAD: f64 = 0.4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.run().measure < Scale::Full.run().measure);
        assert!(Scale::Quick.loads().len() < Scale::Full.loads().len());
    }
}
