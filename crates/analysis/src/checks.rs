//! Buffer-sufficiency and protocol-invariant checks per switch
//! architecture.
//!
//! The paper's deadlock-freedom condition is *weaker than virtual
//! cut-through*: a packet accepted for transmission must **eventually** be
//! completely bufferable — not necessarily at every hop the moment it
//! arrives. Statically that turns into sizing rules per architecture:
//!
//! * **Central buffer** (SP2-class): the maximum worm must fit in the
//!   shared central queue, and the queue must hold at least *two* maximum
//!   worms so one worm's worth of chunks can be reserved for descending
//!   traffic (the store-and-forward escape path; see
//!   [`SwitchConfig::cq_down_reserve`]).
//! * **Input buffered**: the maximum worm must fit in a single input
//!   FIFO, and branch replication must be *asynchronous* — synchronous
//!   (lock-step) replication admits grant-wait cycles between partially
//!   granted multidestination worms (paper §3, Chiang & Ni), a hazard the
//!   runtime watchdog demonstrably catches.
//!
//! The sizing rules themselves live once, in
//! [`SwitchConfig::violations`]: [`SwitchConfig::validate`] surfaces the
//! first violation, and [`switch_sizing`] records every one.

use crate::report::ConfigReport;
use switches::{ReplicationMode, SwitchConfig};

/// Switch architecture, as the analysis sees it (mirrors
/// `core::SwitchArch` without depending on the `core` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchClass {
    /// Shared central queue with chunk-refcount replication.
    CentralBuffer,
    /// Per-input packet FIFOs with cursor replication.
    InputBuffered,
}

/// Runs every switch-level sizing and protocol check, appending findings
/// to `report`.
///
/// Every [`SwitchConfig::violations`] entry becomes an error, in rule
/// order, so [`ConfigReport::first_error`] names the same violation
/// [`SwitchConfig::validate`] returns; the architecture-specific hazard
/// checks follow as warnings.
pub fn switch_sizing(cfg: &SwitchConfig, arch: ArchClass, report: &mut ConfigReport) {
    for (code, message) in cfg.violations() {
        report.error(code, message);
    }

    // Architecture-specific protocol hazards (warnings: the configuration
    // can run — existing ablation experiments do — but is not
    // unconditionally safe).
    if arch == ArchClass::InputBuffered && cfg.replication == ReplicationMode::Synchronous {
        report.warning(
            "sync-replication-hazard",
            format!(
                "synchronous (lock-step) replication on the input-buffered switch \
                 admits grant-wait cycles between partially granted \
                 multidestination worms (paper §3): two worms can each hold a \
                 subset of the other's output ports and neither ever streams; \
                 use {:?} replication for a deadlock-freedom guarantee",
                ReplicationMode::Asynchronous
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    #[test]
    fn defaults_pass_clean_on_both_architectures() {
        for arch in [ArchClass::CentralBuffer, ArchClass::InputBuffered] {
            let mut r = ConfigReport::new();
            switch_sizing(&SwitchConfig::default(), arch, &mut r);
            assert!(r.is_clean(), "{:?}: {:?}", arch, r.diagnostics);
        }
    }

    #[test]
    fn messages_match_legacy_validate_exactly() {
        // Each broken field must yield the same first message the legacy
        // `SwitchConfig::validate` Result interface produces.
        let broken = [
            SwitchConfig {
                ports: 1,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                chunk_flits: 0,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                cq_chunks: 0,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                max_packet_flits: 1,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                max_packet_flits: 2048,
                input_buf_flits: 4096,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                cq_chunks: 20,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                input_buf_flits: 64,
                ..SwitchConfig::default()
            },
            SwitchConfig {
                staging_flits: 2,
                ..SwitchConfig::default()
            },
        ];
        for cfg in broken {
            let legacy = cfg.validate().expect_err("config is broken").to_string();
            let mut r = ConfigReport::new();
            switch_sizing(&cfg, ArchClass::CentralBuffer, &mut r);
            let first = r.first_error().expect("analysis flags it too");
            assert_eq!(first.message, legacy);
        }
    }

    #[test]
    fn undersized_central_queue_is_a_hard_error() {
        // The crafted deadlock-prone shape: a worm longer than the entire
        // central queue can never be completely buffered.
        let cfg = SwitchConfig {
            cq_chunks: 4,
            chunk_flits: 8,
            max_packet_flits: 64,
            input_buf_flits: 256,
            ..SwitchConfig::default()
        };
        let mut r = ConfigReport::new();
        switch_sizing(&cfg, ArchClass::CentralBuffer, &mut r);
        assert!(r.has_errors());
        assert!(r.errors().any(|d| d.code == "cb-packet-exceeds-cq"));
    }

    #[test]
    fn sync_replication_warns_on_input_buffered_only() {
        let cfg = SwitchConfig {
            replication: ReplicationMode::Synchronous,
            ..SwitchConfig::default()
        };
        let mut r = ConfigReport::new();
        switch_sizing(&cfg, ArchClass::InputBuffered, &mut r);
        assert!(!r.has_errors(), "hazard, not a hard error");
        let w = r.warnings().next().expect("warning emitted");
        assert_eq!(w.code, "sync-replication-hazard");
        assert_eq!(w.severity, Severity::Warning);

        let mut r = ConfigReport::new();
        switch_sizing(&cfg, ArchClass::CentralBuffer, &mut r);
        assert!(
            r.is_clean(),
            "central-buffer replication is inherently asynchronous"
        );
    }
}
