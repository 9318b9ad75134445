//! Perf measurement: times the sweep suite serial vs parallel and the
//! engine's cycle rate and skipped ticks across offered load, and
//! serializes the result as `BENCH_sweep.json` — the repo's recorded
//! performance trajectory.

use crate::suite::{run_suite, Table};
use crate::Scale;
use mdworm::{build_system, make_sources, sweep, SystemConfig, TopologyKind, TrafficSpec};
use std::time::Instant;

/// Outcome of one `figures --bench` run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Scale the suite ran at (`full` / `quick`).
    pub scale: String,
    /// Experiment filter (`all` or one id).
    pub exp: String,
    /// Worker-pool size of the parallel pass.
    pub jobs_parallel: usize,
    /// CPUs available on the benchmarking host — the speedup ceiling.
    /// On a single-core host the parallel pass cannot beat serial.
    pub host_cpus: usize,
    /// Wall-clock of the serial pass (jobs = 1), seconds.
    pub serial_secs: f64,
    /// Wall-clock of the parallel pass, seconds.
    pub parallel_secs: f64,
    /// serial_secs / parallel_secs.
    pub speedup: f64,
    /// Serial and parallel passes produced byte-identical tables.
    pub outputs_identical: bool,
    /// Number of tables rendered per pass.
    pub tables: usize,
    /// Detect→install episodes in the storm microbench.
    pub storm_episodes: usize,
    /// p50 detect→install latency of the storm microbench, cycles.
    pub storm_p50_cycles: u64,
    /// p99 detect→install latency of the storm microbench, cycles.
    pub storm_p99_cycles: u64,
    /// p50 wall time of a structural reroute vet, nanoseconds.
    pub storm_vet_p50_ns: u64,
    /// p99 wall time of a structural reroute vet, nanoseconds.
    pub storm_vet_p99_ns: u64,
    /// Protocol boundaries the crash-recovery microbench swept (E19
    /// shape, CB-HW scheme).
    pub crash_boundaries: u64,
    /// Responder recoveries completed across the crash microbench.
    pub crash_recoveries: u64,
    /// p50 restart→caught-up recovery latency (journal replay + episode
    /// re-drive), nanoseconds.
    pub crash_recovery_p50_ns: u64,
    /// p99 restart→caught-up recovery latency, nanoseconds.
    pub crash_recovery_p99_ns: u64,
    /// Engine cycles/sec and skipped ticks on the default fabric at
    /// light, moderate and heavy load.
    pub bench_scale: Vec<ScalePoint>,
    /// Reduced-vs-unreduced model-check state counts and wall time at
    /// the 8/16-switch scale tiers (DESIGN.md §14).
    pub bench_model_check: Vec<ModelCheckBench>,
    /// Certificate-vs-explicit deadlock-verdict wall times at the
    /// 64/4K/64K-host fat-tree tiers (DESIGN.md §16).
    pub bench_certify: Vec<CertifyBench>,
}

/// One fabric tier of the deadlock-verdict benchmark: the O(routes)
/// rank-certificate checker over compressed reach sets against the
/// explicit channel-dependency-graph analysis, bounded at the default
/// `certify.cdg_budget` (DESIGN.md §16). At the 64K tier dense routing
/// tables are infeasible (gigabytes of bit-strings), so only the
/// symbolic compact path runs and the explicit columns record the skip.
#[derive(Debug, Clone)]
pub struct CertifyBench {
    /// Host count of the fabric (`k^n` for the k-ary n-tree tier).
    pub hosts: usize,
    /// Switch count of the fabric.
    pub switches: usize,
    /// Channels the certificate checker enumerated.
    pub channels: usize,
    /// Dependency edges the certificate checker verified for rank
    /// descent (each visited exactly once, never stored).
    pub dependencies: usize,
    /// The certificate accepted the fabric.
    pub certify_ok: bool,
    /// Wall time of the certificate path (table compression + descent
    /// check), seconds.
    pub certify_secs: f64,
    /// Dependency-edge budget the explicit enumeration ran under (0
    /// when it was not attempted).
    pub explicit_budget: usize,
    /// Dependency edges the explicit enumeration actually built (0 when
    /// it was not attempted).
    pub explicit_deps: usize,
    /// The explicit enumeration finished inside its budget.
    pub explicit_completed: bool,
    /// The explicit analysis accepted the fabric (meaningful only when
    /// it completed).
    pub explicit_ok: bool,
    /// Wall time of the explicit path, seconds (0 when not attempted).
    pub explicit_secs: f64,
    /// Dense per-port destination bit-strings fit in memory at this
    /// tier; `false` = the symbolic compact path only, no explicit CDG.
    pub dense_feasible: bool,
    /// Certificate and explicit verdicts agree wherever both were
    /// reached (vacuously true past the explicit path's budget).
    pub verdicts_agree: bool,
}

/// One fabric tier of the model-check scale benchmark: the unreduced
/// oracle, the symmetry+POR-reduced exact checker, and the
/// compositional checker over the same scenarios and state budget.
#[derive(Debug, Clone)]
pub struct ModelCheckBench {
    /// Fabric-size bound of the tier (largest scenario explored).
    pub switches: usize,
    /// States the unreduced oracle explored before finishing or
    /// exhausting the budget.
    pub unreduced_states: usize,
    /// Whether the oracle delivered a verdict (`false` = state-bound
    /// exhausted; `unreduced_states` is then the budget it burned).
    pub unreduced_completed: bool,
    /// Wall time of the unreduced run, seconds.
    pub unreduced_secs: f64,
    /// States the symmetry+POR-reduced exact checker explored.
    pub reduced_states: usize,
    /// Wall time of the reduced run, seconds.
    pub reduced_secs: f64,
    /// `unreduced_states / reduced_states` — a lower bound on the true
    /// reduction when the oracle did not complete.
    pub reduction_factor: f64,
    /// States the compositional (per-switch) checker explored.
    pub compositional_states: usize,
    /// Wall time of the compositional run, seconds.
    pub compositional_secs: f64,
}

/// Engine cycle rate at one offered load on the default 64-host fabric.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Offered load of the multiple-multicast workload.
    pub load: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Component ticks actually executed.
    pub ticks_run: u64,
    /// Component ticks skipped as provably idle.
    pub ticks_skipped: u64,
}

impl BenchReport {
    /// Serializes the report as pretty-printed JSON (hand-rolled; the
    /// workspace carries no serde dependency).
    pub fn json(&self) -> String {
        let mut scale_rows = String::new();
        for (i, p) in self.bench_scale.iter().enumerate() {
            scale_rows.push_str(&format!(
                "    {{\"load\": {:.2}, \"cycles\": {}, \"cycles_per_sec\": {:.0}, \
                 \"ticks_run\": {}, \"ticks_skipped\": {}}}{}\n",
                p.load,
                p.cycles,
                p.cycles_per_sec,
                p.ticks_run,
                p.ticks_skipped,
                if i + 1 < self.bench_scale.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        let mut model_rows = String::new();
        for (i, m) in self.bench_model_check.iter().enumerate() {
            model_rows.push_str(&format!(
                "    {{\"switches\": {}, \"unreduced_states\": {}, \
                 \"unreduced_completed\": {}, \"unreduced_secs\": {:.3}, \
                 \"reduced_states\": {}, \"reduced_secs\": {:.3}, \
                 \"reduction_factor\": {:.1}, \"compositional_states\": {}, \
                 \"compositional_secs\": {:.3}}}{}\n",
                m.switches,
                m.unreduced_states,
                m.unreduced_completed,
                m.unreduced_secs,
                m.reduced_states,
                m.reduced_secs,
                m.reduction_factor,
                m.compositional_states,
                m.compositional_secs,
                if i + 1 < self.bench_model_check.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        let mut certify_rows = String::new();
        for (i, c) in self.bench_certify.iter().enumerate() {
            certify_rows.push_str(&format!(
                "    {{\"hosts\": {}, \"switches\": {}, \"channels\": {}, \
                 \"dependencies\": {}, \"certify_ok\": {}, \
                 \"certify_secs\": {:.3}, \"explicit_budget\": {}, \
                 \"explicit_deps\": {}, \"explicit_completed\": {}, \
                 \"explicit_ok\": {}, \"explicit_secs\": {:.3}, \
                 \"dense_feasible\": {}, \"verdicts_agree\": {}}}{}\n",
                c.hosts,
                c.switches,
                c.channels,
                c.dependencies,
                c.certify_ok,
                c.certify_secs,
                c.explicit_budget,
                c.explicit_deps,
                c.explicit_completed,
                c.explicit_ok,
                c.explicit_secs,
                c.dense_feasible,
                c.verdicts_agree,
                if i + 1 < self.bench_certify.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        format!(
            "{{\n  \"scale\": \"{}\",\n  \"exp\": \"{}\",\n  \"jobs_serial\": 1,\n  \
             \"jobs_parallel\": {},\n  \"host_cpus\": {},\n  \"serial_secs\": {:.3},\n  \
             \"parallel_secs\": {:.3},\n  \"speedup\": {:.3},\n  \
             \"outputs_identical\": {},\n  \"tables\": {},\n  \
             \"storm_episodes\": {},\n  \"storm_p50_cycles\": {},\n  \
             \"storm_p99_cycles\": {},\n  \"storm_vet_p50_ns\": {},\n  \
             \"storm_vet_p99_ns\": {},\n  \
             \"crash_boundaries\": {},\n  \"crash_recoveries\": {},\n  \
             \"crash_recovery_p50_ns\": {},\n  \"crash_recovery_p99_ns\": {},\n  \
             \"bench_scale\": [\n{scale_rows}  ],\n  \
             \"bench_model_check\": [\n{model_rows}  ],\n  \
             \"bench_certify\": [\n{certify_rows}  ]\n}}\n",
            self.scale,
            self.exp,
            self.jobs_parallel,
            self.host_cpus,
            self.serial_secs,
            self.parallel_secs,
            self.speedup,
            self.outputs_identical,
            self.tables,
            self.storm_episodes,
            self.storm_p50_cycles,
            self.storm_p99_cycles,
            self.storm_vet_p50_ns,
            self.storm_vet_p99_ns,
            self.crash_boundaries,
            self.crash_recoveries,
            self.crash_recovery_p50_ns,
            self.crash_recovery_p99_ns,
        )
    }
}

/// Detect→vet→install latency of the resident control plane under a
/// short scripted storm: p50/p99 in cycles (deterministic) plus the
/// wall-clock cost of the structural vet (host-dependent — the perf
/// number that moves when the analyzer moves).
///
/// Returns `(episodes, p50_cycles, p99_cycles, vet_p50_ns, vet_p99_ns)`.
pub fn storm_latency() -> (usize, u64, u64, u64, u64) {
    use mdworm::respond::ResponseConfig;
    use mdworm::routed::{RoutedConfig, StormResponder};
    use mdworm::TopologyKind;

    let cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 4, n: 2 },
        recovery: Some(collectives::RecoveryConfig::default()),
        response: Some(ResponseConfig::default()),
        routed: Some(RoutedConfig::default()),
        ..SystemConfig::default()
    };
    let spec = TrafficSpec::multiple_multicast(0.04, 4, 16);
    let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, Some(8_000));
    let mut sys = build_system(cfg, sources, None);
    // One cut per fabric-link pair boundary: fail, heal, fail the next —
    // enough episodes for stable percentiles without a long run.
    let fabric: Vec<_> = sys.links.fabric.iter().copied().take(4).collect();
    for (i, link) in fabric.iter().enumerate() {
        let start = 1_000 + 3_000 * i as u64;
        sys.engine.script_outage(*link, start, start + 1_500);
    }
    let mut storm =
        StormResponder::new(RoutedConfig::default(), ResponseConfig::default(), &mut sys);
    let end = 1_000 + 3_000 * fabric.len() as u64 + 4_000;
    while sys.engine.now() < end {
        sys.engine.run_for(32);
        storm.tick(&mut sys);
    }
    let resp = storm.responder();
    let lat = resp.latency();
    let vet = resp.vet_stats();
    (
        lat.count(),
        lat.percentile(50.0),
        lat.percentile(99.0),
        vet.structural_ns.percentile(50.0),
        vet.structural_ns.percentile(99.0),
    )
}

/// Restart→caught-up cost of the journaled control plane: a small
/// exhaustive crash sweep (the E19 shape — every protocol boundary,
/// clean and torn-tail) on the smallest multi-root tree, reporting the
/// CB-HW scheme's recovery-latency percentiles. This is the perf number
/// that moves when journal replay or episode re-drive moves.
///
/// Returns `(boundaries, recoveries, p50_ns, p99_ns)`.
pub fn crash_recovery_latency() -> (u64, u64, u64, u64) {
    let cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k: 2, n: 2 },
        ..SystemConfig::default()
    };
    let rows = mdworm::experiments::e19_crash_storm(&cfg, 400, 0.02, 2, 8);
    let r = rows.first().expect("e19 produces a CB-HW row");
    assert_eq!(
        (r.mismatches, r.torn_cycles),
        (0, 0),
        "the bench host reproduced a crash-recovery divergence: {r:?}"
    );
    (r.boundaries, r.recoveries, r.rec_p50_ns, r.rec_p99_ns)
}

/// Runs the default 64-host fabric for `cycles` cycles of degree-16,
/// 64-flit multiple multicast at loads 0.05, 0.3 and 0.6, recording the
/// cycle rate and how many component ticks quiescence skipping avoided.
/// Light load leaves most switches idle, heavy load almost none, so the
/// three points bracket what skipping can harvest. The load-0.3 row is
/// the engine hot-path number: one engine, one core, no sweep
/// parallelism.
pub fn bench_scale(cycles: u64) -> Vec<ScalePoint> {
    [0.05, 0.3, 0.6]
        .into_iter()
        .map(|load| {
            let cfg = SystemConfig::default();
            let spec = TrafficSpec::multiple_multicast(load, 16, 64);
            let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, None);
            let mut sys = build_system(cfg, sources, None);
            let t = Instant::now();
            sys.engine.run_for(cycles);
            let secs = t.elapsed().as_secs_f64();
            let stats = sys.engine.schedule_stats();
            ScalePoint {
                load,
                cycles,
                cycles_per_sec: cycles as f64 / secs.max(1e-9),
                ticks_run: stats.ticks_run,
                ticks_skipped: stats.ticks_skipped,
            }
        })
        .collect()
}

/// Measures the model checker's reductions at the 8/16-switch scale
/// tiers (DESIGN.md §14): the unreduced sequential oracle against the
/// symmetry+POR-reduced exact checker and the compositional per-switch
/// checker, all on the shipped default architecture (central-buffer,
/// asynchronous, return-only) with a 50k-state budget. The oracle is
/// *expected* to exhaust the budget at these tiers — that is recorded
/// honestly (`unreduced_completed: false`) rather than hidden, and the
/// reduction factor is then a lower bound.
pub fn bench_model_check() -> Vec<ModelCheckBench> {
    use mdw_analysis::{
        check_model, check_model_opts, ArchClass, CheckOutcome, ModelBounds, ModelMode,
    };
    use mintopo::route::ReplicatePolicy;

    // `None` runs the unreduced oracle, `Some(mode)` the reduced checker.
    let timed = |bounds: &ModelBounds, mode: Option<ModelMode>| {
        let (arch, policy) = (ArchClass::CentralBuffer, ReplicatePolicy::ReturnOnly);
        let t = Instant::now();
        let out = match mode {
            None => check_model(arch, false, policy, bounds),
            Some(mode) => check_model_opts(arch, false, policy, bounds, mode),
        };
        (out, t.elapsed().as_secs_f64())
    };
    [8usize, 16]
        .iter()
        .map(|&switches| {
            let bounds = ModelBounds {
                max_switches: switches,
                max_states: 50_000,
                ..ModelBounds::default()
            };
            let (oracle, unreduced_secs) = timed(&bounds, None);
            let (unreduced_states, unreduced_completed) = match &oracle {
                CheckOutcome::Verified(stats) => (stats.states, true),
                // The only violation the known-good default config can
                // produce is the state-bound; the budget it burned is
                // the honest state count.
                CheckOutcome::Violated(_) => (bounds.max_states, false),
            };
            let (reduced, reduced_secs) = timed(&bounds, Some(ModelMode::Exact));
            let CheckOutcome::Verified(reduced_stats) = reduced else {
                panic!("reduced checker must verify the {switches}-switch tier: {reduced:?}");
            };
            let (comp, compositional_secs) = timed(&bounds, Some(ModelMode::Compositional));
            let CheckOutcome::Verified(comp_stats) = comp else {
                panic!("compositional checker must verify the {switches}-switch tier: {comp:?}");
            };
            ModelCheckBench {
                switches,
                unreduced_states,
                unreduced_completed,
                unreduced_secs,
                reduced_states: reduced_stats.states,
                reduced_secs,
                reduction_factor: unreduced_states as f64 / reduced_stats.states.max(1) as f64,
                compositional_states: comp_stats.states,
                compositional_secs,
            }
        })
        .collect()
}

/// Times both deadlock-verdict paths (DESIGN.md §16) at three fat-tree
/// tiers: 64 hosts (explicit CDG completes, the verdicts must agree),
/// 4096 hosts (the explicit pass is *expected* to exhaust the default
/// `certify.cdg_budget` — recorded honestly, the certificate carries
/// the verdict), and 65 536 hosts, where dense destination bit-strings
/// would need gigabytes, so the tier runs only the symbolic compact
/// path (`dense_feasible: false`).
pub fn bench_certify() -> Vec<CertifyBench> {
    vec![
        certify_dense_tier(4, 3),
        certify_dense_tier(4, 6),
        certify_symbolic_tier(4, 8),
    ]
}

/// One tier where dense tables fit: both paths run and are timed via
/// [`SystemConfig::certify_comparison`].
fn certify_dense_tier(k: usize, n: usize) -> CertifyBench {
    let cfg = SystemConfig {
        topology: TopologyKind::KaryTree { k, n },
        ..SystemConfig::default()
    };
    let cmp = cfg.certify_comparison();
    CertifyBench {
        hosts: k.pow(n as u32),
        switches: n * k.pow(n as u32 - 1),
        channels: cmp.channels,
        dependencies: cmp.dependencies,
        certify_ok: cmp.certify_ok,
        certify_secs: cmp.certify_secs,
        explicit_budget: cmp.explicit_budget,
        explicit_deps: cmp.explicit_deps,
        explicit_completed: cmp.explicit_completed,
        explicit_ok: cmp.explicit_ok,
        explicit_secs: cmp.explicit_secs,
        dense_feasible: true,
        verdicts_agree: cmp.agree,
    }
}

/// One tier past dense feasibility: closed-form compressed tables and
/// the parametric certificate, no dense strings ever materialized. The
/// explicit columns are zeroed — the comparison point at this scale is
/// that there *is* no affordable explicit run.
fn certify_symbolic_tier(k: usize, n: usize) -> CertifyBench {
    use mdw_analysis::{Certificate, CompactTables};
    use mintopo::KaryTree;

    let tree = KaryTree::new(k, n);
    let t = Instant::now();
    let tables = CompactTables::for_karytree(&tree);
    let cert = Certificate::for_karytree(&tree);
    let out = cert.check(tree.topology(), &tables);
    let certify_secs = t.elapsed().as_secs_f64();
    CertifyBench {
        hosts: tree.n_hosts(),
        switches: tree.topology().n_switches(),
        channels: out.channels,
        dependencies: out.dependencies,
        certify_ok: out.mismatch.is_none() && out.violations.is_empty(),
        certify_secs,
        explicit_budget: 0,
        explicit_deps: 0,
        explicit_completed: false,
        explicit_ok: false,
        explicit_secs: 0.0,
        dense_feasible: false,
        verdicts_agree: true,
    }
}

/// Runs the suite serially (jobs = 1), then with `jobs_parallel` workers,
/// verifies the outputs are byte-identical, and runs the microbenches
/// (`scale_cycles` cycles per [`bench_scale`] load point). Returns the
/// report and the parallel pass's tables (for writing to `results/`).
///
/// Restores the worker-pool override to `jobs_parallel` on return.
pub fn bench_sweep(
    base: &SystemConfig,
    scale: Scale,
    exp: &str,
    jobs_parallel: usize,
    scale_cycles: u64,
) -> (BenchReport, Vec<Table>) {
    sweep::set_jobs(1);
    let t = Instant::now();
    let serial = run_suite(base, scale, exp);
    let serial_secs = t.elapsed().as_secs_f64();

    sweep::set_jobs(jobs_parallel);
    // Record the pool the pass actually ran with: `jobs()` clamps the
    // request to the host's CPU count (see the 0.888 "speedup" this file
    // once recorded from oversubscribing a 1-core host).
    let jobs_parallel = sweep::jobs();
    let t = Instant::now();
    let parallel = run_suite(base, scale, exp);
    let parallel_secs = t.elapsed().as_secs_f64();

    let outputs_identical = serial == parallel;
    let (storm_episodes, storm_p50, storm_p99, vet_p50, vet_p99) = storm_latency();
    let (crash_boundaries, crash_recoveries, crash_p50, crash_p99) = crash_recovery_latency();
    let scale_points = bench_scale(scale_cycles);
    let report = BenchReport {
        scale: format!("{scale:?}").to_lowercase(),
        exp: exp.to_string(),
        jobs_parallel,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        serial_secs,
        parallel_secs,
        speedup: serial_secs / parallel_secs.max(1e-9),
        outputs_identical,
        tables: parallel.len(),
        storm_episodes,
        storm_p50_cycles: storm_p50,
        storm_p99_cycles: storm_p99,
        storm_vet_p50_ns: vet_p50,
        storm_vet_p99_ns: vet_p99,
        crash_boundaries,
        crash_recoveries,
        crash_recovery_p50_ns: crash_p50,
        crash_recovery_p99_ns: crash_p99,
        bench_scale: scale_points,
        bench_model_check: bench_model_check(),
        bench_certify: bench_certify(),
    };
    (report, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_wellformed() {
        let r = BenchReport {
            scale: "quick".into(),
            exp: "all".into(),
            jobs_parallel: 4,
            host_cpus: 8,
            serial_secs: 10.0,
            parallel_secs: 4.0,
            speedup: 2.5,
            outputs_identical: true,
            tables: 14,
            storm_episodes: 8,
            storm_p50_cycles: 256,
            storm_p99_cycles: 257,
            storm_vet_p50_ns: 1_000,
            storm_vet_p99_ns: 2_000,
            crash_boundaries: 40,
            crash_recoveries: 80,
            crash_recovery_p50_ns: 12_000,
            crash_recovery_p99_ns: 48_000,
            bench_scale: vec![ScalePoint {
                load: 0.05,
                cycles: 20_000,
                cycles_per_sec: 90_000.0,
                ticks_run: 1_000,
                ticks_skipped: 9_000,
            }],
            bench_model_check: vec![ModelCheckBench {
                switches: 16,
                unreduced_states: 50_000,
                unreduced_completed: false,
                unreduced_secs: 1.25,
                reduced_states: 2_000,
                reduced_secs: 0.05,
                reduction_factor: 25.0,
                compositional_states: 500,
                compositional_secs: 0.01,
            }],
            bench_certify: vec![CertifyBench {
                hosts: 65_536,
                switches: 131_072,
                channels: 1_310_720,
                dependencies: 5_242_880,
                certify_ok: true,
                certify_secs: 0.42,
                explicit_budget: 0,
                explicit_deps: 0,
                explicit_completed: false,
                explicit_ok: false,
                explicit_secs: 0.0,
                dense_feasible: false,
                verdicts_agree: true,
            }],
        };
        let j = r.json();
        assert!(j.contains("\"speedup\": 2.500"));
        assert!(j.contains("\"outputs_identical\": true"));
        assert!(j.contains("\"jobs_serial\": 1"));
        assert!(j.contains("\"storm_p99_cycles\": 257"));
        assert!(j.contains("\"crash_recovery_p99_ns\": 48000"));
        assert!(j.contains("\"crash_boundaries\": 40"));
        assert!(j.contains("\"bench_scale\": ["));
        assert!(j.contains("{\"load\": 0.05, \"cycles\": 20000, \"cycles_per_sec\": 90000"));
        assert!(j.contains("\"ticks_skipped\": 9000}"));
        assert!(j.contains("\"bench_model_check\": ["));
        assert!(j.contains("\"switches\": 16, \"unreduced_states\": 50000"));
        assert!(j.contains("\"unreduced_completed\": false"));
        assert!(j.contains("\"reduction_factor\": 25.0"));
        assert!(j.contains("\"bench_certify\": ["));
        assert!(j.contains("{\"hosts\": 65536, \"switches\": 131072"));
        assert!(j.contains("\"dense_feasible\": false"));
        assert!(j.contains("\"verdicts_agree\": true}"));
        assert!(j.ends_with("}\n"));
    }

    /// The small dense tier runs both verdict paths to completion and
    /// they agree; the symbolic tier at the same shape enumerates the
    /// identical channel and dependency counts without ever building a
    /// dense table.
    #[test]
    fn certify_tiers_agree_where_both_paths_reach() {
        let dense = certify_dense_tier(4, 3);
        assert!(dense.dense_feasible && dense.certify_ok, "{dense:?}");
        assert!(dense.explicit_completed && dense.explicit_ok, "{dense:?}");
        assert!(dense.verdicts_agree, "{dense:?}");
        assert_eq!((dense.hosts, dense.switches), (64, 48));

        let sym = certify_symbolic_tier(4, 3);
        assert!(!sym.dense_feasible && sym.certify_ok, "{sym:?}");
        assert_eq!(sym.explicit_budget, 0, "explicit path never attempted");
        assert_eq!(
            (sym.channels, sym.dependencies),
            (dense.channels, dense.dependencies),
            "symbolic and dense enumerations must count the same fabric"
        );
    }

    /// The model-check scale benchmark records the §14 claim: at both
    /// tiers the unreduced oracle exhausts its budget while the reduced
    /// and compositional checkers verify with ≥10× fewer states.
    #[test]
    fn bench_model_check_shows_the_reduction() {
        let rows = bench_model_check();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                !row.unreduced_completed,
                "{}-switch tier: the oracle finishing means the tier is too easy",
                row.switches
            );
            assert!(row.reduction_factor >= 10.0, "{row:?}");
            assert!(row.reduced_states * 10 <= row.unreduced_states, "{row:?}");
            assert!(row.compositional_states > 0, "{row:?}");
        }
    }

    /// The load sweep runs, skips real work at every load, and accounts
    /// for every component tick of every cycle.
    #[test]
    fn bench_scale_skips_ticks_at_every_load() {
        let points = bench_scale(400);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.cycles_per_sec > 0.0);
            assert!(p.ticks_skipped > 0, "load {}", p.load);
            // The default fabric: 64 hosts plus 48 switches.
            assert_eq!(p.ticks_run + p.ticks_skipped, 112 * p.cycles);
        }
    }

    #[test]
    fn storm_microbench_records_episodes_and_ordered_percentiles() {
        let (episodes, p50, p99, vet_p50, vet_p99) = storm_latency();
        assert!(episodes >= 4, "{episodes} episodes");
        assert!(p50 > 0 && p99 >= p50, "cycle percentiles ordered");
        assert!(vet_p99 >= vet_p50, "vet percentiles ordered");
    }
}
