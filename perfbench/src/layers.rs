//! The traced operation and the per-layer metrics it yields.
//!
//! Spans and counts are taken in the benchmark's own code, around calls
//! into each layer's public functions: `mdworm::build_system`,
//! `RouteTables::build` and `build_masked`, `SystemConfig::report` and
//! the analysis passes it runs, `FaultResponder::poll`, and every switch
//! and host tick through the decorator of [`crate::trace`].

use crate::stats::{percentile, Quartiles};
use crate::trace::{topology_of, Bucket, Kind, SpanLog, TraceState};
use crate::workload::{
    check_sim, config_of, lint_verdict, prepare, simulate, EpisodeTrace, Inputs, Sim, SimOutcome,
    Traced, Wiring, Workload,
};
use mdw_analysis::{
    analyze_fabric_budgeted, certify_fabric, Certificate, CompactTables, ConfigReport,
};
use mdworm::{build_system, make_sources};
use mintopo::route::RouteTables;
use std::cell::RefCell;
use std::rc::Rc;

/// What one traced operation measured.
#[derive(Debug)]
pub struct TracedOp {
    /// Digest of the outcome; must equal the untraced digest.
    pub digest: String,
    /// `Err` with a reason when the outcome is wrong.
    pub check: Result<(), String>,
    /// Host ns of the part the untraced operation times as `op_ns`.
    pub op_ns: u64,
    /// Tick counters and timings.
    pub state: Rc<TraceState>,
    /// Components in the engine.
    pub components: u64,
    /// Steps timed whole.
    pub sampled_steps: u64,
    /// Host ns of the steps timed whole.
    pub step_ns: u64,
    /// Cycles whose ticks were timed one by one.
    pub tick_cycles: u64,
    /// Masked route builds and their host ns.
    pub masked_builds: u64,
    /// Host ns of the masked route builds.
    pub masked_ns: u64,
    /// Responder episodes.
    pub episodes: Vec<EpisodeTrace>,
    /// The simulated outcome.
    pub sim: Option<SimOutcome>,
    /// Dependencies the certificate verified.
    pub certify_dependencies: u64,
}

impl TracedOp {
    fn new() -> Self {
        TracedOp {
            digest: String::new(),
            check: Ok(()),
            op_ns: 0,
            state: Rc::new(TraceState::new()),
            components: 0,
            sampled_steps: 0,
            step_ns: 0,
            tick_cycles: 0,
            masked_builds: 0,
            masked_ns: 0,
            episodes: Vec::new(),
            sim: None,
            certify_dependencies: 0,
        }
    }
}

/// Times the analysis passes `SystemConfig::report` runs, one call each,
/// as spans under the open operation span.
fn attribute_report(cfg: &mdworm::SystemConfig, log: &RefCell<SpanLog>) -> u64 {
    let (topology, tree) = topology_of(cfg.topology);
    let mut log = log.borrow_mut();
    let (tables, _) = log.time("mintopo.route_build", || RouteTables::build(&topology));
    let budget = if cfg.certify.enabled {
        cfg.certify.cdg_budget
    } else {
        usize::MAX
    };
    log.time("analysis.cdg_budgeted", || {
        let mut r = ConfigReport::new();
        analyze_fabric_budgeted(&topology, &tables, cfg.switch.policy, budget, &mut r)
    });
    if !cfg.certify.enabled {
        return 0;
    }
    let (report, _) = log.time("analysis.certify", || {
        let cert = match &tree {
            Some(t) => Certificate::for_karytree(t),
            None => Certificate::for_topology(&topology),
        };
        let compact = CompactTables::from_dense(&tables);
        let mut r = ConfigReport::new();
        certify_fabric(&cert, &topology, &compact, &mut r);
        r
    });
    report.stats.dependencies as u64
}

/// Runs one traced operation of `inputs` as operation number `run`.
///
/// # Errors
///
/// The config does not parse.
pub fn run_traced_op(
    inputs: &Inputs,
    log: &RefCell<SpanLog>,
    run: u32,
) -> Result<TracedOp, String> {
    log.borrow_mut().set_run(run);
    let op_span = log.borrow_mut().open("bench.op");
    let mut op = TracedOp::new();
    if inputs.workload == Workload::Certify4k {
        let (cfg, _) = log.borrow_mut().time("bench.setup", || config_of(inputs));
        let cfg = cfg?;
        let (report, ns) = log.borrow_mut().time("analysis.report", || cfg.report());
        let (digest, check) = lint_verdict(&report, true);
        op.digest = digest;
        op.check = check;
        op.op_ns = ns;
        op.certify_dependencies = attribute_report(&cfg, log);
        log.borrow_mut().close(op_span);
        return Ok(op);
    }

    let cfg = config_of(inputs)?;
    let Sim { traffic, run } = inputs.sim.as_ref().expect("a simulation workload");
    let sources = make_sources(
        traffic,
        cfg.n_hosts(),
        cfg.seed,
        Some(run.warmup + run.measure),
    );
    log.borrow_mut()
        .time("core.build_system", || build_system(cfg, sources, None));

    let setup = log.borrow_mut().open("bench.setup");
    let mut prepared = prepare(inputs, Wiring::Traced(&op.state, log))?;
    log.borrow_mut().close(setup);

    let (report, _) = log
        .borrow_mut()
        .time("analysis.report", || prepared.sys.config.report());
    let (_, lint_check) = lint_verdict(&report, false);
    attribute_report(&prepared.sys.config, log);

    let mut probe = Traced::new(op.state.clone(), log, inputs.seed);
    if let Some(r) = prepared.responder.as_mut() {
        probe.wrap_builder(r);
    }
    let sim_span = log.borrow_mut().open("bench.simulate");
    let sim = simulate(&mut prepared, &mut probe);
    op.op_ns = log.borrow_mut().close(sim_span);
    log.borrow_mut().close(op_span);

    op.digest = sim.digest();
    op.check = lint_check.and_then(|()| check_sim(&sim));
    op.components = prepared.sys.engine.n_components() as u64;
    op.sampled_steps = probe.sampled_steps;
    op.step_ns = probe.step_ns;
    op.tick_cycles = probe.tick_cycles;
    op.masked_builds = probe.masked_builds.get();
    op.masked_ns = probe.masked_ns.get();
    op.episodes = std::mem::take(&mut probe.episodes);
    op.sim = Some(sim);
    Ok(op)
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(v: &[f64]) -> f64 {
    Quartiles::of(v).map_or(0.0, |q| q.median)
}

/// The per-layer metrics of the traced operations `ops`, given the
/// untraced operations' `op_ns` for the overhead and per-flit figures.
/// A layer the workload does not exercise reads 0.
pub fn layer_metrics(ops: &[TracedOp], log: &SpanLog, untraced_op_ns: &[f64]) -> Vec<Metric> {
    let n = ops.len().max(1) as f64;
    let sum = |f: &dyn Fn(&TracedOp) -> f64| ops.iter().map(f).sum::<f64>();
    let class_sum =
        |k: Kind, f: &dyn Fn(&crate::trace::ClassCounters) -> f64| sum(&|o| f(o.state.class(k)));
    let timed = |k: Kind| class_sum(k, &|c| c.times[Bucket::Sampled as usize].timed.get() as f64);
    let tick_ns = |k: Kind| class_sum(k, &|c| c.times[Bucket::Sampled as usize].ns.get() as f64);
    let idle = |k: Kind| class_sum(k, &|c| c.times[Bucket::Sampled as usize].idle.get() as f64);
    let ticks = |k: Kind| class_sum(k, &|c| c.ticks.get() as f64);
    let step = ratio(sum(&|o| o.step_ns as f64), sum(&|o| o.sampled_steps as f64));
    let tick_cycles = sum(&|o| o.tick_cycles as f64);
    // Tick time per cycle of one class, and its share of a step.
    let per_cycle = |k: Kind| ratio(tick_ns(k), tick_cycles);
    let busy = |k: Kind| ratio(per_cycle(k), step);
    let all_ticks_per_cycle = per_cycle(Kind::Cb) + per_cycle(Kind::Ib) + per_cycle(Kind::Host);
    let all_ticks = ticks(Kind::Cb) + ticks(Kind::Ib) + ticks(Kind::Host);
    let comp_cycles = sum(&|o| (o.components * o.sim.as_ref().map_or(0, |s| s.cycles)) as f64);

    let sim = ops.first().and_then(|o| o.sim.as_ref());
    let sw = sim.map(|s| s.switches.clone()).unwrap_or_default();
    let flit_moves = sim.map_or(0.0, |s| s.flit_moves as f64);
    let response = sim.and_then(|s| s.response.as_ref());
    let us = |ns: &[u64], p: f64| {
        let v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
        percentile(&v, p).unwrap_or(0.0)
    };
    let episodes: Vec<&EpisodeTrace> = ops.iter().flat_map(|o| &o.episodes).collect();
    let ep = |f: &dyn Fn(&EpisodeTrace) -> f64| {
        median(&episodes.iter().map(|e| f(e)).collect::<Vec<_>>())
    };
    let span_ms = |name: &str| {
        let v: Vec<f64> = log
            .durations(name)
            .iter()
            .map(|&x| x as f64 / 1e6)
            .collect();
        median(&v)
    };
    let report_ms = span_ms("analysis.report");
    let route_ms = span_ms("mintopo.route_build");
    let cdg_ms = span_ms("analysis.cdg_budgeted");
    let certify_ms = span_ms("analysis.certify");
    let traced_op = median(&ops.iter().map(|o| o.op_ns as f64).collect::<Vec<_>>());
    let untraced_op = median(untraced_op_ns);

    vec![
        ("netsim.step_ns", step, "ns"),
        (
            "netsim.self_ns",
            if step > 0.0 {
                step - all_ticks_per_cycle
            } else {
                0.0
            },
            "ns",
        ),
        (
            "netsim.tick_run_share",
            ratio(all_ticks, comp_cycles),
            "share",
        ),
        ("netsim.flit_moves", flit_moves, "count"),
        (
            "netsim.host_ns_per_flit_move",
            ratio(untraced_op, flit_moves),
            "ns",
        ),
        ("switches.cb.ticks", ticks(Kind::Cb) / n, "count"),
        (
            "switches.cb.tick_ns",
            ratio(tick_ns(Kind::Cb), timed(Kind::Cb)),
            "ns",
        ),
        ("switches.cb.busy_share", busy(Kind::Cb), "share"),
        ("switches.ib.ticks", ticks(Kind::Ib) / n, "count"),
        (
            "switches.ib.tick_ns",
            ratio(tick_ns(Kind::Ib), timed(Kind::Ib)),
            "ns",
        ),
        ("switches.ib.busy_share", busy(Kind::Ib), "share"),
        (
            "switches.idle_tick_share",
            ratio(
                idle(Kind::Cb) + idle(Kind::Ib),
                timed(Kind::Cb) + timed(Kind::Ib),
            ),
            "share",
        ),
        (
            "switches.branches_created",
            sw.branches_created as f64,
            "count",
        ),
        (
            "switches.packets_replicated",
            sw.packets_replicated as f64,
            "count",
        ),
        ("switches.bypass_flits", sw.bypass_flits as f64, "count"),
        (
            "switches.reservation_wait_cycles",
            sw.reservation_wait_cycles as f64,
            "cycles",
        ),
        ("switches.purged_flits", sw.purged_flits as f64, "count"),
        ("switches.cq_occupancy_mean", sw.cq_occupancy_mean, "chunks"),
        ("collectives.host.ticks", ticks(Kind::Host) / n, "count"),
        (
            "collectives.host.tick_ns",
            ratio(tick_ns(Kind::Host), timed(Kind::Host)),
            "ns",
        ),
        ("collectives.host.busy_share", busy(Kind::Host), "share"),
        (
            "collectives.host.idle_tick_share",
            ratio(idle(Kind::Host), timed(Kind::Host)),
            "share",
        ),
        (
            "collectives.retransmits",
            sim.map_or(0.0, |s| s.recovery.retransmits as f64),
            "count",
        ),
        (
            "collectives.gave_up",
            sim.map_or(0.0, |s| s.recovery.gave_up as f64),
            "count",
        ),
        ("mintopo.route_build_ms", route_ms, "ms"),
        (
            "mintopo.masked_build_us",
            ratio(
                sum(&|o| o.masked_ns as f64),
                sum(&|o| o.masked_builds as f64),
            ) / 1e3,
            "us",
        ),
        (
            "analysis.vet_structural_us_p50",
            response.map_or(0.0, |r| us(&r.vet_structural_ns, 0.5)),
            "us",
        ),
        (
            "analysis.vet_structural_us_p95",
            response.map_or(0.0, |r| us(&r.vet_structural_ns, 0.95)),
            "us",
        ),
        (
            "analysis.model_check_ms",
            response.map_or(0.0, |r| {
                ratio(
                    r.model_check_ns.iter().sum::<u64>() as f64,
                    r.model_check_ns.len() as f64,
                ) / 1e6
            }),
            "ms",
        ),
        (
            "analysis.vet_memo_hit_share",
            response.map_or(0.0, |r| {
                ratio(
                    r.vet_memo.hits as f64,
                    (r.vet_memo.hits + r.vet_memo.misses) as f64,
                )
            }),
            "share",
        ),
        ("analysis.certify_ms", certify_ms, "ms"),
        ("analysis.cdg_budgeted_ms", cdg_ms, "ms"),
        (
            "analysis.certify_dependencies",
            sum(&|o| o.certify_dependencies as f64) / n,
            "count",
        ),
        (
            "analysis.report_self_ms",
            report_ms - route_ms - cdg_ms - certify_ms,
            "ms",
        ),
        ("core.build_system_ms", span_ms("core.build_system"), "ms"),
        (
            "core.respond.poll_self_us",
            ep(&|e| e.self_ns() / 1e3),
            "us",
        ),
        (
            "core.respond.quiesce_cycles",
            ep(&|e| e.quiesce_cycles as f64),
            "cycles",
        ),
        (
            "core.journal.bytes_per_episode",
            ep(&|e| e.journal_delta as f64),
            "bytes",
        ),
        (
            "bench.trace_overhead_share",
            ratio(traced_op, untraced_op) - 1.0,
            "share",
        ),
    ]
}
