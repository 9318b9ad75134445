//! Differential acceptance tests for quiescence skipping (DESIGN.md §13):
//! the engine's one schedule must be **bit-identical** to the plain loop
//! that ticks every component every cycle (`netsim::engine::oracle`) —
//! same ledgers every cycle, same per-switch stats, same link-event logs,
//! same `RunOutcome` — on clean, fault-injected, fault-response,
//! crash-recovery and `mdw-routed` runs, while actually skipping work.
//! The last test pins the out-of-band control API's wake.

use mdworm::build::{build_system, System};
use mdworm::chaos::{self, ChaosMode};
use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::respond::ResponseConfig;
use mdworm::routed::{Request, RoutedConfig, RoutedService};
use mdworm::sim::{run_experiment, RunConfig, RunOutcome};
use mdworm::workload::{make_sources, TrafficSpec};
use netsim::engine::oracle;
use netsim::FaultPlan;
use std::rc::Rc;

/// 8 hosts on a 2-ary 3-tree — a real multi-stage fabric that still keeps
/// paired runs quick.
fn base_cfg() -> SystemConfig {
    SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 3 },
        ..SystemConfig::default()
    }
}

/// Every field of the outcome, bit-for-bit (floats compared by bits).
fn assert_outcomes_identical(oracle: &RunOutcome, skipping: &RunOutcome, what: &str) {
    assert_eq!(oracle.mcast_last, skipping.mcast_last, "{what}: mcast_last");
    assert_eq!(oracle.mcast_avg, skipping.mcast_avg, "{what}: mcast_avg");
    assert_eq!(oracle.unicast, skipping.unicast, "{what}: unicast");
    assert_eq!(
        oracle.throughput.to_bits(),
        skipping.throughput.to_bits(),
        "{what}: throughput"
    );
    assert_eq!(
        oracle.eject_utilization.to_bits(),
        skipping.eject_utilization.to_bits(),
        "{what}: eject_utilization"
    );
    assert_eq!(
        oracle.fabric_utilization.to_bits(),
        skipping.fabric_utilization.to_bits(),
        "{what}: fabric_utilization"
    );
    // The Debug rendering covers every remaining field (counts, flags,
    // fault/recovery/response counters, forensic reports).
    assert_eq!(
        format!("{oracle:?}"),
        format!("{skipping:?}"),
        "{what}: full outcome"
    );
}

/// Runs one experiment under both schedules.
fn run_both(cfg: &SystemConfig, spec: &TrafficSpec, run: &RunConfig) -> (RunOutcome, RunOutcome) {
    let oracle = oracle::with(|| run_experiment(cfg, spec, run));
    (oracle, run_experiment(cfg, spec, run))
}

/// `RunOutcome` byte-identity on an E2-style run (the paper's multiple-
/// multicast workload) across architectures and schemes.
#[test]
fn e2_style_outcome_identical_to_oracle() {
    for (arch, mcast) in [
        (SwitchArch::CentralBuffer, McastImpl::HwBitString),
        (SwitchArch::InputBuffered, McastImpl::HwBitString),
        (SwitchArch::CentralBuffer, McastImpl::SwBinomial),
    ] {
        let spec = TrafficSpec::multiple_multicast(0.08, 4, 16);
        let mut cfg = base_cfg();
        cfg.arch = arch;
        cfg.mcast = mcast;
        let (oracle, skipping) = run_both(&cfg, &spec, &RunConfig::quick());
        assert!(!oracle.deadlocked);
        assert!(oracle.completed_mcasts > 0, "workload must do something");
        assert_outcomes_identical(&oracle, &skipping, &format!("{arch:?}/{mcast:?}"));
    }
}

/// `RunOutcome` byte-identity on a fault-injected run with end-to-end
/// recovery — drops, retransmissions and all.
#[test]
fn fault_injected_outcome_identical_to_oracle() {
    let mut cfg = base_cfg();
    cfg.recovery = Some(collectives::RecoveryConfig {
        timeout: 1_500,
        timeout_cap: 12_000,
        max_retries: 10,
    });
    let spec = TrafficSpec::multiple_multicast(0.05, 4, 24);
    let run = RunConfig {
        faults: Some(FaultPlan::drops(9, 1e-3)),
        ..RunConfig::quick()
    };
    let (oracle, skipping) = run_both(&cfg, &spec, &run);
    assert!(oracle.faults.worms_dropped > 0, "fault plan never fired");
    assert!(oracle.recovery.retransmits > 0, "recovery never exercised");
    assert_outcomes_identical(&oracle, &skipping, "faulty");
}

/// Steps a skipping system against the oracle **cycle by cycle** on a
/// fault-injected run and demands identical ledgers at every cycle, then
/// identical per-switch stats, link-event logs, and tracker state at the
/// end — while the skipping engine provably skipped ticks.
#[test]
fn faulty_run_matches_oracle_cycle_by_cycle() {
    let build = || {
        let cfg = base_cfg();
        let spec = TrafficSpec::multiple_multicast(0.1, 4, 16);
        let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, Some(4_000));
        let mut sys = build_system(cfg, sources, None);
        sys.engine.install_faults(&FaultPlan::drops(9, 2e-3));
        sys.engine.publish_link_events();
        sys
    };
    let mut oracle = oracle::with(build);
    let mut skipping = build();
    for cycle in 1..=5_000u64 {
        oracle.engine.step();
        skipping.engine.step();
        assert_eq!(
            oracle.engine.total_flit_moves(),
            skipping.engine.total_flit_moves(),
            "flit-move ledger diverged at cycle {cycle}"
        );
        assert_eq!(
            oracle.engine.flits_in_links(),
            skipping.engine.flits_in_links(),
            "in-flight ledger diverged at cycle {cycle}"
        );
    }
    skipping.engine.flush();

    // Per-switch statistics: every counter and per-cycle gauge.
    for (i, (a, b)) in oracle
        .switch_stats
        .iter()
        .zip(&skipping.switch_stats)
        .enumerate()
    {
        let (a, b) = (a.borrow(), b.borrow());
        assert_eq!(
            a.cq_used_chunks.samples(),
            b.cq_used_chunks.samples(),
            "switch {i}: occupancy sample count"
        );
        assert_eq!(
            a.cq_used_chunks.mean().map(f64::to_bits),
            b.cq_used_chunks.mean().map(f64::to_bits),
            "switch {i}: occupancy mean"
        );
        assert_eq!(
            format!("{:?}", *a),
            format!("{:?}", *b),
            "switch {i}: stats diverged"
        );
    }

    // Link up/down event logs, in order.
    assert_eq!(
        oracle.engine.drain_link_events(),
        skipping.engine.drain_link_events(),
        "link-event logs diverged"
    );

    // Delivery-tracker state.
    let (ta, tb) = (oracle.tracker(), skipping.tracker());
    let (ta, tb) = (ta.borrow(), tb.borrow());
    assert_eq!(ta.mcast_last.summary(), tb.mcast_last.summary());
    assert_eq!(ta.mcast_avg.summary(), tb.mcast_avg.summary());
    assert_eq!(ta.unicast.summary(), tb.unicast.summary());
    assert_eq!(ta.completed_mcasts(), tb.completed_mcasts());
    assert_eq!(ta.completed_unicasts(), tb.completed_unicasts());
    assert_eq!(ta.outstanding(), tb.outstanding());

    // The identical results must have come from actual skipping.
    assert_eq!(oracle.engine.schedule_stats().ticks_skipped, 0);
    let stats = skipping.engine.schedule_stats();
    assert!(stats.ticks_skipped > 0, "no switch ever slept: {stats:?}");
}

/// The shipped fault-response config under scripted outages: the
/// responder purges, prepares, vets, commits a masked reroute and later
/// heals, all through out-of-band switch control that sleeping switches
/// only see when woken.
#[test]
fn fault_response_config_with_scripted_outages_matches_oracle() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/configs/fault-response.mdw"
    ))
    .expect("shipped config");
    let cfg = mdworm::cfgtext::parse_config(&text).expect("parses");
    let spec = TrafficSpec::bimodal(0.1, 0.1, 16, 64);
    let run = RunConfig {
        warmup: 0,
        measure: 4_000,
        drain_max: 20_000,
        watchdog_grace: 4_000,
        faults: None,
        outages: vec![(0, 500, 1_500), (7, 2_000, 3_000)],
    };
    let (oracle, skipping) = run_both(&cfg, &spec, &run);
    let rc = oracle.response;
    assert!(rc.purges >= 2, "{rc:?}");
    assert!(rc.reroutes >= 1 && rc.heals >= 1, "{rc:?}");
    assert_eq!(oracle.leftover, 0, "lossless through the outages");
    assert_outcomes_identical(&oracle, &skipping, "fault-response.mdw");
}

/// One E19 crash: the skipping run crashes the responder at a protocol
/// boundary mid-storm, recovers from its journal, and must land on the
/// uncrashed oracle's outcome byte for byte, with no torn install.
#[test]
fn crash_and_recover_boundary_matches_oracle() {
    let cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 2 },
        recovery: Some(collectives::RecoveryConfig::default()),
        response: Some(ResponseConfig::default()),
        epoch_audit: true,
        ..SystemConfig::default()
    };
    let spec = TrafficSpec::multiple_multicast(0.05, 2, 16);
    let phase = 1_500;
    let run = RunConfig {
        warmup: 0,
        measure: 3 * phase,
        drain_max: 12 * phase,
        watchdog_grace: 4 * phase,
        faults: None,
        outages: vec![(0, phase, 2 * phase)],
    };
    // Memo hit/miss counters are process-local, not durable state.
    let comparable = |o: &RunOutcome| {
        format!(
            "{:?}",
            RunOutcome {
                vet_memo: Default::default(),
                ..o.clone()
            }
        )
    };
    let census = chaos::handle(ChaosMode::Record);
    let oracle = oracle::with(|| {
        chaos::install(census.clone());
        run_experiment(&cfg, &spec, &run)
    });
    let boundaries = census.borrow().boundaries;
    assert!(boundaries > 4, "the storm must cross protocol boundaries");

    let crash = chaos::handle(ChaosMode::CrashAt {
        boundary: boundaries / 2,
        tear_bytes: 0,
    });
    chaos::install(crash.clone());
    let recovered = run_experiment(&cfg, &spec, &run);
    assert!(crash.borrow().fired && crash.borrow().recoveries >= 1);
    assert_eq!(recovered.torn_cycles, 0, "torn install after recovery");
    assert_eq!(comparable(&oracle), comparable(&recovered));
}

/// An `mdw-routed` session that forces a fabric link down and back up:
/// every reply and the final fabric state match the oracle.
#[test]
fn routed_forced_down_session_matches_oracle() {
    let session = || {
        let cfg = SystemConfig {
            topology: TopologyKind::KaryTree { k: 4, n: 2 },
            response: Some(ResponseConfig::default()),
            routed: Some(RoutedConfig::default()),
            ..SystemConfig::default()
        };
        let mut service = RoutedService::new(cfg).expect("config is clean");
        let replies: Vec<String> = [
            "health",
            "join 7 3",
            "join 7 5",
            "link down f0",
            "step 3000",
            "health",
            "route 0 group 7",
            "link up f0",
            "step 9000",
            "health",
        ]
        .iter()
        .map(|line| service.handle(&Request::parse(line).expect(line)))
        .collect();
        let engine = &service.system().engine;
        let fabric = (engine.now(), engine.total_flit_moves());
        (replies, fabric, engine.schedule_stats())
    };
    let (oracle_replies, oracle_fabric, _) = oracle::with(session);
    let (replies, fabric, stats) = session();
    assert!(
        oracle_replies[5].contains("masked=1"),
        "the outage must mask a port: {}",
        oracle_replies[5]
    );
    assert_eq!(oracle_replies, replies);
    assert_eq!(oracle_fabric, fabric);
    assert!(stats.ticks_skipped > 0, "{stats:?}");
}

/// Component ticks one more step adds.
fn ticks_in_one_step(sys: &mut System) -> u64 {
    let before = sys.engine.schedule_stats().ticks_run;
    sys.engine.step();
    sys.engine.schedule_stats().ticks_run - before
}

/// The out-of-band control API wakes its targets: on an idle fabric
/// where every switch sleeps, a purge, an armed commit and a forensics
/// request each take effect on the very next cycle with no other wake.
#[test]
fn control_wakes_sleeping_switches_on_the_next_cycle() {
    let cfg = base_cfg();
    let spec = TrafficSpec::multiple_multicast(0.1, 4, 16);
    let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, Some(500));
    let mut sys = build_system(cfg, sources, None);
    let (hosts, switches) = (sys.n_hosts() as u64, sys.switch_ctls.len() as u64);
    let idle = |sys: &mut System| {
        sys.engine.run_for(3_000);
        assert_eq!(sys.tracker().borrow().outstanding(), 0);
        assert_eq!(ticks_in_one_step(sys), hosts, "every switch sleeps");
    };
    idle(&mut sys);

    // Purge: every switch ticks next cycle and stays awake while it lasts.
    sys.control_all(|ctl, _| ctl.begin_purge());
    assert_eq!(ticks_in_one_step(&mut sys), hosts + switches);
    assert_eq!(ticks_in_one_step(&mut sys), hosts + switches);
    sys.control_all(|ctl, _| ctl.end_purge());
    idle(&mut sys);

    // Commit: every (empty) switch swaps the armed epoch in next cycle.
    let tables = Rc::clone(&sys.tables);
    sys.control_all(|ctl, _| {
        ctl.prepare(1, tables.clone());
        assert!(ctl.commit(1));
    });
    sys.engine.step();
    for (s, ctl) in sys.switch_ctls.iter().enumerate() {
        assert_eq!(ctl.committed_epoch(), 1, "switch {s} did not swap");
    }
    idle(&mut sys);

    // Forensics: every switch deposits its snapshot next cycle.
    sys.control_all(|_, st| st.forensics_requested = true);
    sys.engine.step();
    for (s, st) in sys.switch_stats.iter().enumerate() {
        assert!(st.borrow().forensics.is_some(), "switch {s}: no snapshot");
    }
}
