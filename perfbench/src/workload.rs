//! The four workloads: their inputs, generated from the seed, and one
//! operation of each — untraced, or traced through a [`Probe`].

use crate::digest::Fnv;
use crate::trace::{self, Bucket, SpanLog, TraceState, SAMPLE_EVERY};
use mdworm::config::{SwitchArch, SystemConfig};
use mdworm::{
    build_system, make_sources, parse_config, FaultResponder, RunConfig, System, TrafficSpec,
};
use mintopo::route::RouteTables;
use netsim::stats::Summary;
use netsim::Cycle;
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// The seed whose outcome digests the benchmark records
/// (`perfbench/digests.txt`).
pub const DEFAULT_SEED: u64 = 1;

/// Cycles between responder polls — `run_experiment`'s cadence.
const RESPONDER_POLL: Cycle = 32;

/// Upper bound of a drain probe step — `run_experiment`'s value.
const PROBE: Cycle = 500;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64-host CB fabric, multiple multicast (degree 16, 64 flits) at 0.6.
    McastCbLoaded,
    /// The same fabric on IB switches, bimodal traffic at 0.1.
    BimodalIbLight,
    /// The fault-response fabric, bimodal at 0.1, 100 link-outage windows.
    RerouteStorm,
    /// The 4096-host certified lint.
    Certify4k,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::McastCbLoaded,
        Workload::BimodalIbLight,
        Workload::RerouteStorm,
        Workload::Certify4k,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McastCbLoaded => "mcast-cb-loaded",
            Workload::BimodalIbLight => "bimodal-ib-light",
            Workload::RerouteStorm => "reroute-storm",
            Workload::Certify4k => "certify-4k",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The shipped config the workload starts from.
    pub fn config_file(self) -> &'static str {
        match self {
            Workload::McastCbLoaded | Workload::BimodalIbLight => "sp2-default.mdw",
            Workload::RerouteStorm => "fault-response.mdw",
            Workload::Certify4k => "fat-tree-4k.mdw",
        }
    }
}

/// What a simulated operation runs: the traffic mix and the run
/// (warm-up, window, drain, watchdog and scripted outages).
#[derive(Debug, Clone)]
pub struct Sim {
    /// Traffic mix.
    pub traffic: TrafficSpec,
    /// Run lengths and the outage script; outage link indices are taken
    /// modulo the fabric link count, as `run_experiment` does.
    pub run: RunConfig,
}

/// Everything one operation receives: the config text, the seed, an
/// architecture override and, for a simulation, its traffic and run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Text of the shipped config.
    pub config_text: String,
    /// Master seed of the simulation.
    pub seed: u64,
    /// Switch architecture override (`None` keeps the config's).
    pub arch: Option<SwitchArch>,
    /// The simulation (`None` for the certified lint).
    pub sim: Option<Sim>,
}

/// Outage windows of the storm, and their period: each link is down for
/// half the period, so one window yields one reroute and one heal.
pub const STORM_WINDOWS: u64 = 100;
const STORM_PERIOD: Cycle = 2_000;

/// SplitMix64: the benchmark's own generator for outage scripts.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Directory of the shipped configs.
pub fn configs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs")
}

/// The inputs of `workload` for `seed`.
///
/// # Errors
///
/// The config file cannot be read.
pub fn inputs(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let path = configs_dir().join(workload.config_file());
    let config_text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let run = |measure| RunConfig {
        warmup: 2_000,
        measure,
        drain_max: 200_000,
        watchdog_grace: 20_000,
        faults: None,
        outages: Vec::new(),
    };
    let (arch, sim) = match workload {
        Workload::McastCbLoaded => (
            None,
            Some(Sim {
                traffic: TrafficSpec::multiple_multicast(0.6, 16, 64),
                run: run(40_000),
            }),
        ),
        Workload::BimodalIbLight => (
            Some(SwitchArch::InputBuffered),
            Some(Sim {
                traffic: TrafficSpec::bimodal(0.1, 0.1, 16, 64),
                run: run(60_000),
            }),
        ),
        Workload::RerouteStorm => {
            let mut run = run(STORM_WINDOWS * STORM_PERIOD + STORM_PERIOD);
            let mut rng = seed ^ 0x5EED_0F0A_7A6E;
            for i in 0..STORM_WINDOWS {
                let down = run.warmup + i * STORM_PERIOD + STORM_PERIOD / 4;
                let link = (splitmix(&mut rng) >> 1) as usize;
                run.outages.push((link, down, down + STORM_PERIOD / 2));
            }
            (
                None,
                Some(Sim {
                    traffic: TrafficSpec::bimodal(0.1, 0.1, 16, 64),
                    run,
                }),
            )
        }
        Workload::Certify4k => (None, None),
    };
    Ok(Inputs {
        workload,
        config_text,
        seed,
        arch,
        sim,
    })
}

/// Parses the config text and applies the seed and overrides.
///
/// # Errors
///
/// The config does not parse.
pub fn config_of(inputs: &Inputs) -> Result<SystemConfig, String> {
    let mut cfg = parse_config(&inputs.config_text)?;
    cfg.seed = inputs.seed;
    if let Some(arch) = inputs.arch {
        cfg.arch = arch;
    }
    Ok(cfg)
}

/// A simulation ready to run: the system and, on the storm, its
/// responder.
pub struct Prepared {
    /// The wired system.
    pub sys: System,
    /// The fault responder (configs with `response = on`).
    pub responder: Option<FaultResponder>,
    /// The run it follows.
    pub run: RunConfig,
}

/// How a system is wired.
pub enum Wiring<'a> {
    /// [`mdworm::build_system`].
    Plain,
    /// [`trace::assemble`], recording into the trace state and span log.
    Traced(&'a Rc<TraceState>, &'a RefCell<SpanLog>),
}

/// Set-up of one simulation: parse, generate sources, build the system,
/// script the outages, attach the responder.
///
/// # Errors
///
/// The config does not parse.
///
/// # Panics
///
/// Panics on inputs without traffic.
pub fn prepare(inputs: &Inputs, wiring: Wiring<'_>) -> Result<Prepared, String> {
    let cfg = config_of(inputs)?;
    let Sim { traffic, run } = inputs.sim.as_ref().expect("a simulation workload");
    let stop_at = run.warmup + run.measure;
    let sources = make_sources(traffic, cfg.n_hosts(), cfg.seed, Some(stop_at));
    let mut sys = match wiring {
        Wiring::Plain => build_system(cfg, sources, None),
        Wiring::Traced(state, log) => trace::assemble(cfg, sources, state, log),
    };
    if !sys.links.fabric.is_empty() {
        for &(idx, down, up) in &run.outages {
            let link = sys.links.fabric[idx % sys.links.fabric.len()];
            sys.engine.script_outage(link, down, up);
        }
    }
    sys.shared.tracker.borrow_mut().set_measure_from(run.warmup);
    let responder = sys
        .config
        .response
        .clone()
        .map(|rc| FaultResponder::new(rc, &mut sys));
    Ok(Prepared {
        sys,
        responder,
        run: run.clone(),
    })
}

/// How the simulation loop advances the engine and polls the responder.
pub trait Probe {
    /// Advances the engine by `cycles`.
    fn advance(&mut self, sys: &mut System, cycles: Cycle);
    /// Polls the responder; returns whether a response ran.
    fn poll(&mut self, r: &mut FaultResponder, sys: &mut System) -> bool;
}

/// Simulated cycles per timed segment of an untraced simulation.
pub const SEGMENT: Cycle = 4_096;

/// The untraced probe: runs the engine as is, notes the host time at
/// every [`SEGMENT`] boundary of simulated time, and times each poll that
/// ran a response.
#[derive(Debug)]
pub struct Plain {
    start: Instant,
    /// Host ns since the probe was made, at each segment boundary the
    /// engine crossed.
    pub marks_ns: Vec<u64>,
    /// Host ns of each poll that ran a response.
    pub episode_ns: Vec<u64>,
}

impl Plain {
    /// A probe whose clock starts now.
    pub fn new() -> Self {
        Plain {
            start: Instant::now(),
            marks_ns: Vec::new(),
            episode_ns: Vec::new(),
        }
    }
}

impl Default for Plain {
    fn default() -> Self {
        Plain::new()
    }
}

impl Probe for Plain {
    fn advance(&mut self, sys: &mut System, cycles: Cycle) {
        let mut left = cycles;
        while left > 0 {
            let step = left.min(SEGMENT - sys.engine.now() % SEGMENT);
            sys.engine.run_for(step);
            left -= step;
            if sys.engine.now().is_multiple_of(SEGMENT) {
                self.marks_ns.push(self.start.elapsed().as_nanos() as u64);
            }
        }
    }

    fn poll(&mut self, r: &mut FaultResponder, sys: &mut System) -> bool {
        let t = Instant::now();
        let ran = r.poll(sys);
        if ran {
            self.episode_ns.push(t.elapsed().as_nanos() as u64);
        }
        ran
    }
}

/// Sums of switch counters over every switch (`System::switch_stats`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwitchTotals {
    /// Flits sent out of switches.
    pub flits_sent: u64,
    /// Flits that used the bypass crossbar.
    pub bypass_flits: u64,
    /// Packets that fanned out to more than one output.
    pub packets_replicated: u64,
    /// Output branches created.
    pub branches_created: u64,
    /// Cycles packets waited for a central-queue reservation.
    pub reservation_wait_cycles: u64,
    /// Flits destroyed by quiesce purges.
    pub purged_flits: u64,
    /// Worms killed by quiesce purges.
    pub purged_worms: u64,
    /// Mean central-queue occupancy, chunks, over all switch-cycles.
    pub cq_occupancy_mean: f64,
    /// Mean input-buffer occupancy, flits, over all switch-cycles.
    pub ib_occupancy_mean: f64,
}

/// What the responder did over one storm.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSummary {
    /// Responder counters.
    pub counters: mdworm::ResponseCounters,
    /// FNV-64 of the responder's durable state.
    pub state_digest: String,
    /// Detect→install latency of each episode, cycles.
    pub detect_install: Vec<u64>,
    /// Structural-vet memo activity.
    pub vet_memo: mdworm::MemoStats,
    /// Host ns of each structural vet.
    pub vet_structural_ns: Vec<u64>,
    /// Host ns of each model check.
    pub model_check_ns: Vec<u64>,
}

/// The simulated outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Simulated cycles.
    pub cycles: Cycle,
    /// Flits sent over any link.
    pub flit_moves: u64,
    /// Multicast latency to the last destination, cycles.
    pub mcast_last: Summary,
    /// Mean-over-destinations multicast latency, cycles.
    pub mcast_avg: Summary,
    /// Unicast latency, cycles.
    pub unicast: Summary,
    /// Multicasts completed in the window.
    pub completed_mcasts: u64,
    /// Unicasts completed in the window.
    pub completed_unicasts: u64,
    /// Messages completed over the whole run.
    pub completed_total: u64,
    /// Messages left undelivered.
    pub leftover: usize,
    /// The watchdog fired.
    pub deadlocked: bool,
    /// Switch counters.
    pub switches: SwitchTotals,
    /// Host recovery counters.
    pub recovery: collectives::RecoveryCounters,
    /// Responder activity (storm only).
    pub response: Option<ResponseSummary>,
}

impl SimOutcome {
    /// Messages generated: completed plus left over.
    pub fn generated(&self) -> u64 {
        self.completed_total + self.leftover as u64
    }

    /// FNV-64 of every simulated quantity: latency summaries, completion
    /// counts, cycles, flit moves, switch and recovery counters, and the
    /// responder's state digest and latencies. Host times are left out.
    pub fn digest(&self) -> String {
        let mut h = Fnv::new();
        for s in [&self.mcast_last, &self.mcast_avg, &self.unicast] {
            h.u64s(&[s.count, s.mean.to_bits(), s.p50, s.p95, s.p99, s.min, s.max]);
        }
        h.u64s(&[
            self.cycles,
            self.flit_moves,
            self.completed_mcasts,
            self.completed_unicasts,
            self.completed_total,
            self.leftover as u64,
            u64::from(self.deadlocked),
        ]);
        let sw = &self.switches;
        h.u64s(&[
            sw.flits_sent,
            sw.bypass_flits,
            sw.packets_replicated,
            sw.branches_created,
            sw.reservation_wait_cycles,
            sw.purged_flits,
            sw.purged_worms,
            sw.cq_occupancy_mean.to_bits(),
            sw.ib_occupancy_mean.to_bits(),
        ]);
        let rc = &self.recovery;
        h.u64s(&[
            rc.retransmits,
            rc.packets_retransmitted,
            rc.corrupt_discards,
            rc.duplicate_discards,
            rc.gave_up,
        ]);
        if let Some(r) = &self.response {
            h.bytes(r.state_digest.as_bytes());
            h.u64s(&r.detect_install);
        }
        h.hex()
    }
}

/// The failure shares a run must keep at zero, with a reason if not.
///
/// # Errors
///
/// A description of the first failure: a deadlock, an undelivered
/// message, a rejected reroute, an incomplete purge or a stale detect.
pub fn check_sim(o: &SimOutcome) -> Result<(), String> {
    if o.deadlocked {
        return Err(format!("deadlocked at cycle {}", o.cycles));
    }
    if o.leftover > 0 {
        return Err(format!("{} messages undelivered", o.leftover));
    }
    if let Some(r) = &o.response {
        let c = &r.counters;
        let failed = c.reroutes_rejected + c.purges_incomplete + c.stale_detects;
        if failed > 0 {
            return Err(format!("{failed} failed episodes: {c:?}"));
        }
        if c.reroutes < STORM_WINDOWS || c.heals < STORM_WINDOWS {
            return Err(format!(
                "{STORM_WINDOWS} outage windows gave {} reroutes and {} heals",
                c.reroutes, c.heals
            ));
        }
    }
    Ok(())
}

/// Runs the `run_experiment` loop over a prepared system: traffic until
/// the window closes (polling the responder every 32 cycles when there is
/// one), then a drain under the deadlock watchdog.
pub fn simulate(p: &mut Prepared, probe: &mut impl Probe) -> SimOutcome {
    let Prepared {
        sys,
        responder,
        run,
    } = p;
    let stop_at = run.warmup + run.measure;
    match responder.as_mut() {
        None => {
            let left = stop_at.saturating_sub(sys.engine.now());
            probe.advance(sys, left);
        }
        Some(r) => {
            while sys.engine.now() < stop_at {
                let step = RESPONDER_POLL.min(stop_at - sys.engine.now());
                probe.advance(sys, step);
                probe.poll(r, sys);
            }
        }
    }
    let drain_end = stop_at + run.drain_max;
    let mut deadlocked = false;
    let mut last_moves = sys.engine.total_flit_moves();
    let mut last_progress = sys.engine.now();
    while sys.tracker().borrow().outstanding() > 0 && sys.engine.now() < drain_end && !deadlocked {
        let step = PROBE
            .min(run.watchdog_grace / 2)
            .max(1)
            .min(drain_end - sys.engine.now());
        probe.advance(sys, step);
        if let Some(r) = responder.as_mut() {
            probe.poll(r, sys);
        }
        let moves = sys.engine.total_flit_moves();
        if moves != last_moves {
            last_moves = moves;
            last_progress = sys.engine.now();
        } else if sys.engine.now() - last_progress >= run.watchdog_grace {
            deadlocked = true;
        }
    }
    sys.engine.flush();
    outcome(sys, responder.as_ref(), deadlocked)
}

fn outcome(sys: &System, responder: Option<&FaultResponder>, deadlocked: bool) -> SimOutcome {
    let mut sw = SwitchTotals::default();
    let (mut cq_sum, mut cq_n, mut ib_sum, mut ib_n) = (0.0, 0u64, 0.0, 0u64);
    for s in &sys.switch_stats {
        let s = s.borrow();
        sw.flits_sent += s.flits_sent;
        sw.bypass_flits += s.bypass_flits;
        sw.packets_replicated += s.packets_replicated;
        sw.branches_created += s.branches_created;
        sw.reservation_wait_cycles += s.reservation_wait_cycles;
        sw.purged_flits += s.purged_flits;
        sw.purged_worms += s.purged_worms;
        if let Some(m) = s.cq_used_chunks.mean() {
            cq_sum += m * s.cq_used_chunks.samples() as f64;
            cq_n += s.cq_used_chunks.samples();
        }
        if let Some(m) = s.ib_used_flits.mean() {
            ib_sum += m * s.ib_used_flits.samples() as f64;
            ib_n += s.ib_used_flits.samples();
        }
    }
    sw.cq_occupancy_mean = if cq_n > 0 { cq_sum / cq_n as f64 } else { 0.0 };
    sw.ib_occupancy_mean = if ib_n > 0 { ib_sum / ib_n as f64 } else { 0.0 };
    let tracker = sys.tracker();
    let t = tracker.borrow();
    SimOutcome {
        cycles: sys.engine.now(),
        flit_moves: sys.engine.total_flit_moves(),
        mcast_last: t.mcast_last.summary(),
        mcast_avg: t.mcast_avg.summary(),
        unicast: t.unicast.summary(),
        completed_mcasts: t.completed_mcasts(),
        completed_unicasts: t.completed_unicasts(),
        completed_total: t.completed_total(),
        leftover: t.outstanding(),
        deadlocked,
        switches: sw,
        recovery: sys.shared.recovery.borrow().counters,
        response: responder.map(|r| ResponseSummary {
            counters: r.counters(),
            state_digest: r.state_digest(),
            detect_install: r.latency().values().to_vec(),
            vet_memo: r.vet_memo_stats(),
            vet_structural_ns: r.vet_stats().structural_ns.values().to_vec(),
            model_check_ns: r.vet_stats().model_ns.values().to_vec(),
        }),
    }
}

/// Host time of the phases of one untraced operation, ns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTimes {
    /// Set-up: parse the config, generate sources, build the system (and
    /// attach the responder).
    pub setup_ns: u64,
    /// One `SystemConfig::report()` of the workload's config.
    pub lint_ns: u64,
    /// The operation proper: the simulation, or the certified lint.
    pub op_ns: u64,
    /// The simulation's host ns per [`SEGMENT`] of simulated time, the
    /// last segment cut short by the end of the run (empty for the
    /// lint). Every operation of a run simulates the same cycles, so
    /// segment `i` is the same work in each.
    pub segment_ns: Vec<u64>,
    /// Responder polls that ran a response, ns each.
    pub episode_ns: Vec<u64>,
}

/// The result of one untraced operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Host times.
    pub times: OpTimes,
    /// Digest of the outcome (simulated outcome or lint verdict).
    pub digest: String,
    /// The simulated outcome (simulation workloads).
    pub sim: Option<SimOutcome>,
    /// `Err` with a reason when the outcome is wrong.
    pub check: Result<(), String>,
}

/// Digest and verdict of a lint report; a certified lint must pass on
/// the certificate's verdict (the explicit pass exhausting its budget).
pub(crate) fn lint_verdict(
    report: &mdw_analysis::ConfigReport,
    certified: bool,
) -> (String, Result<(), String>) {
    let mut h = Fnv::new();
    for d in &report.diagnostics {
        h.bytes(d.code.as_bytes());
        h.bytes(format!("{:?}", d.severity).as_bytes());
        h.bytes(d.message.as_bytes());
    }
    let s = &report.stats;
    h.u64s(&[
        s.channels as u64,
        s.dependencies as u64,
        s.sccs as u64,
        s.roundtrips as u64,
    ]);
    let check = if let Some(e) = report.first_error() {
        Err(format!("lint error {}: {}", e.code, e.message))
    } else if certified
        && !report
            .diagnostics
            .iter()
            .any(|d| d.code == "cdg-budget-exhausted")
    {
        Err("the explicit CDG finished: the certificate supplied no verdict".to_string())
    } else if s.dependencies == 0 {
        Err("the lint verified no dependencies".to_string())
    } else {
        Ok(())
    };
    (h.hex(), check)
}

/// Runs one untraced operation of `inputs`.
///
/// # Errors
///
/// The config does not parse.
pub fn run_op(inputs: &Inputs) -> Result<OpResult, String> {
    let t = Instant::now();
    if inputs.workload == Workload::Certify4k {
        let cfg = config_of(inputs)?;
        let setup_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let report = cfg.report();
        let lint_ns = t.elapsed().as_nanos() as u64;
        let (digest, check) = lint_verdict(&report, true);
        return Ok(OpResult {
            times: OpTimes {
                setup_ns,
                lint_ns,
                op_ns: lint_ns,
                segment_ns: Vec::new(),
                episode_ns: Vec::new(),
            },
            digest,
            sim: None,
            check,
        });
    }
    let mut prepared = prepare(inputs, Wiring::Plain)?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let report = prepared.sys.config.report();
    let lint_ns = t.elapsed().as_nanos() as u64;
    let (_, lint_check) = lint_verdict(&report, false);
    let mut probe = Plain::new();
    let sim = simulate(&mut prepared, &mut probe);
    let op_ns = probe.start.elapsed().as_nanos() as u64;
    let check = lint_check.and_then(|()| check_sim(&sim));
    let mut marks = probe.marks_ns;
    marks.push(op_ns);
    let segment_ns = marks
        .iter()
        .scan(0, |prev, &m| Some(m - std::mem::replace(prev, m)))
        .collect();
    Ok(OpResult {
        times: OpTimes {
            setup_ns,
            lint_ns,
            op_ns,
            segment_ns,
            episode_ns: probe.episode_ns,
        },
        digest: sim.digest(),
        sim: Some(sim),
        check,
    })
}

/// Host ns of one set-up of `inputs` (a parse, for the certified lint),
/// the system dropped: an extra `setup_s` sample.
///
/// # Errors
///
/// The config does not parse.
pub fn time_setup(inputs: &Inputs) -> Result<u64, String> {
    let t = Instant::now();
    if inputs.workload == Workload::Certify4k {
        config_of(inputs)?;
    } else {
        prepare(inputs, Wiring::Plain)?;
    }
    Ok(t.elapsed().as_nanos() as u64)
}

/// Per-episode attribution of one traced responder poll.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpisodeTrace {
    /// The whole poll, ns.
    pub total_ns: u64,
    /// Switch and host ticks inside it, ns (estimated from the sampled
    /// ticks).
    pub tick_ns: f64,
    /// Masked route-table rebuilds inside it, ns.
    pub masked_build_ns: u64,
    /// Structural vets and model checks inside it, ns.
    pub vet_ns: u64,
    /// Cycles the engine advanced inside it.
    pub quiesce_cycles: u64,
    /// Journal bytes it appended (negative across a compacting snapshot).
    pub journal_delta: i64,
}

impl EpisodeTrace {
    /// What the poll spent outside ticks, rebuilds and vets, ns.
    pub fn self_ns(&self) -> f64 {
        self.total_ns as f64 - self.tick_ns - (self.masked_build_ns + self.vet_ns) as f64
    }
}

/// The traced probe: samples one cycle in [`SAMPLE_EVERY`] for step or
/// tick timing, samples ticks inside responder polls, and records an
/// [`EpisodeTrace`] and a span for each poll that ran a response.
pub struct Traced<'a> {
    state: Rc<TraceState>,
    log: &'a RefCell<SpanLog>,
    rng: u64,
    /// Masked-build ns accumulated by the wrapped candidate builder.
    pub masked_ns: Rc<Cell<u64>>,
    /// Masked builds run.
    pub masked_builds: Rc<Cell<u64>>,
    /// Steps timed whole.
    pub sampled_steps: u64,
    /// Host ns of the steps timed whole.
    pub step_ns: u64,
    /// Cycles whose ticks were timed one by one.
    pub tick_cycles: u64,
    /// Per episode.
    pub episodes: Vec<EpisodeTrace>,
}

impl<'a> Traced<'a> {
    /// A probe recording into `state` and `log`, sampling cycles from a
    /// generator seeded with `seed`.
    pub fn new(state: Rc<TraceState>, log: &'a RefCell<SpanLog>, seed: u64) -> Self {
        Traced {
            state,
            log,
            rng: seed,
            masked_ns: Rc::new(Cell::new(0)),
            masked_builds: Rc::new(Cell::new(0)),
            sampled_steps: 0,
            step_ns: 0,
            tick_cycles: 0,
            episodes: Vec::new(),
        }
    }

    /// Routes the responder's candidate rebuilds through a timer around
    /// the default builder, [`RouteTables::build_masked`].
    pub fn wrap_builder(&self, r: &mut FaultResponder) {
        let (ns, count) = (self.masked_ns.clone(), self.masked_builds.clone());
        r.set_candidate_builder(Box::new(move |topo, dead| {
            let t = Instant::now();
            let tables = RouteTables::build_masked(topo, dead);
            ns.set(ns.get() + t.elapsed().as_nanos() as u64);
            count.set(count.get() + 1);
            tables
        }));
    }
}

impl Probe for Traced<'_> {
    fn advance(&mut self, sys: &mut System, cycles: Cycle) {
        for _ in 0..cycles {
            let draw = splitmix(&mut self.rng);
            if !draw.is_multiple_of(SAMPLE_EVERY) {
                sys.engine.step();
            } else if draw >> 63 == 0 {
                let t = Instant::now();
                sys.engine.step();
                self.step_ns += t.elapsed().as_nanos() as u64;
                self.sampled_steps += 1;
            } else {
                self.state.bucket.set(Bucket::Sampled as usize);
                self.state.timing.set(true);
                sys.engine.step();
                self.state.timing.set(false);
                self.tick_cycles += 1;
            }
        }
    }

    fn poll(&mut self, r: &mut FaultResponder, sys: &mut System) -> bool {
        let vet_before = vet_counts(r);
        let ticks_before = self.state.tick_ns(Bucket::Poll);
        let masked_before = self.masked_ns.get();
        let journal_before = r.journal().len_bytes() as i64;
        let now_before = sys.engine.now();
        let span = self.log.borrow_mut().open("core.respond.poll");
        self.state.bucket.set(Bucket::Poll as usize);
        self.state.timing.set(true);
        let ran = r.poll(sys);
        self.state.timing.set(false);
        let total_ns = self.log.borrow_mut().close(span);
        if ran {
            self.episodes.push(EpisodeTrace {
                total_ns,
                tick_ns: self.state.tick_ns(Bucket::Poll) - ticks_before,
                masked_build_ns: self.masked_ns.get() - masked_before,
                vet_ns: vet_ns_since(r, vet_before),
                quiesce_cycles: sys.engine.now() - now_before,
                journal_delta: r.journal().len_bytes() as i64 - journal_before,
            });
        } else {
            self.log.borrow_mut().discard_last(span);
        }
        ran
    }
}

fn vet_counts(r: &FaultResponder) -> (usize, usize) {
    let v = r.vet_stats();
    (v.structural_ns.count(), v.model_ns.count())
}

/// Host ns of the structural vets and model checks recorded since the
/// counts `before` were taken.
fn vet_ns_since(r: &FaultResponder, before: (usize, usize)) -> u64 {
    let v = r.vet_stats();
    let s: u64 = v.structural_ns.values()[before.0..].iter().sum();
    let m: u64 = v.model_ns.values()[before.1..].iter().sum();
    s + m
}
