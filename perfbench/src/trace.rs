//! The traced run's instruments: a [`Component`] decorator that counts
//! every tick and times ticks on sampled cycles, an in-memory span log,
//! and [`assemble`], which wires the same system as
//! [`mdworm::build_system`] from the public constructors with every
//! switch and host wrapped in the decorator.
//!
//! Timing every tick is not affordable: one `Instant` pair per tick more
//! than doubles a run. Ticks are therefore timed only on cycles the
//! traced loop samples and, inside responder polls (where the responder
//! steps the engine itself), on one tick in [`SAMPLE_EVERY`] per class,
//! scaled up by the exact count of ticks run. A sampled cycle times
//! either its whole step or each of its ticks, never both, so the timer's
//! own cost stays out of the step time; each timed tick has the cost of
//! an empty timed interval taken off.

use collectives::{FabricMode, Host, HostConfig, HostShared, McastScheme, TrafficSource};
use mdworm::config::{McastImpl, SwitchArch, SystemConfig, TopologyKind};
use mdworm::System;
use mintopo::irregular::Irregular;
use mintopo::karytree::KaryTree;
use mintopo::route::RouteTables;
use mintopo::topology::{End, Topology};
use mintopo::unimin::UniMin;
use netsim::engine::{Component, Engine, EpochStatus, PortIo};
use netsim::ids::{LinkId, NodeId, SwitchId};
use netsim::trace::SemTrace;
use netsim::Cycle;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;
use switches::{CentralBufferSwitch, InputBufferedSwitch, SwitchConfig, SwitchCtl, SwitchStats};

/// One cycle in this many is sampled on average (half of them to time
/// the whole step, half to time each tick), and inside a responder poll
/// one tick in this many per component class is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// The component classes the decorator reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Central-buffer switch (`switches::central`).
    Cb = 0,
    /// Input-buffered switch (`switches::input_buffered`).
    Ib = 1,
    /// Host adapter (`collectives::host`).
    Host = 2,
}

/// Where timed ticks are accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// A cycle the traced loop sampled.
    Sampled = 0,
    /// Inside a responder poll, where every tick is timed.
    Poll = 1,
}

/// Timed-tick accumulators of one component class in one bucket.
#[derive(Debug, Default)]
pub struct TickTimes {
    /// Ticks run while the bucket was active.
    pub seen: Cell<u64>,
    /// Ticks timed: all of them on a sampled cycle, one in
    /// [`SAMPLE_EVERY`] inside a poll.
    pub timed: Cell<u64>,
    /// Host nanoseconds inside those ticks.
    pub ns: Cell<u64>,
    /// Timed ticks that left the component idle: for a switch,
    /// `quiescent()` held afterwards; for a host, no flit arrived and no
    /// credit was spent.
    pub idle: Cell<u64>,
}

/// Counters of one component class.
#[derive(Debug, Default)]
pub struct ClassCounters {
    /// Every tick run, timed or not (exact).
    pub ticks: Cell<u64>,
    /// Timed ticks, per [`Bucket`].
    pub times: [TickTimes; 2],
}

/// State shared by the traced loop and every decorator.
#[derive(Debug, Default)]
pub struct TraceState {
    /// Host ns an empty timed interval reads, taken off every timed tick.
    pub timer_ns: u64,
    /// Time the ticks of the current cycle.
    pub timing: Cell<bool>,
    /// Bucket timed ticks go to (a [`Bucket`] as `usize`).
    pub bucket: Cell<usize>,
    /// Per [`Kind`].
    pub classes: [ClassCounters; 3],
}

impl TraceState {
    /// A state whose timed ticks are corrected by the median reading of
    /// an empty timed interval on this host.
    pub fn new() -> Self {
        let mut empty: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        empty.sort_unstable();
        TraceState {
            timer_ns: empty[empty.len() / 2],
            ..TraceState::default()
        }
    }

    /// Counters of one component class.
    pub fn class(&self, kind: Kind) -> &ClassCounters {
        &self.classes[kind as usize]
    }

    /// Host nanoseconds of every tick run in `bucket`, all classes:
    /// the timed ticks' time scaled up to the ticks seen.
    pub fn tick_ns(&self, bucket: Bucket) -> f64 {
        self.classes
            .iter()
            .map(|c| {
                let t = &c.times[bucket as usize];
                if t.timed.get() == 0 {
                    0.0
                } else {
                    t.ns.get() as f64 * t.seen.get() as f64 / t.timed.get() as f64
                }
            })
            .sum()
    }
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// Forwards every [`Component`] call to the wrapped switch or host,
/// counting each tick and timing it when the trace state asks.
struct Traced {
    inner: Box<dyn Component>,
    kind: Kind,
    state: Rc<TraceState>,
}

impl Component for Traced {
    fn tick(&mut self, now: Cycle, io: &mut PortIo<'_>) {
        let class = self.state.class(self.kind);
        bump(&class.ticks, 1);
        if !self.state.timing.get() {
            self.inner.tick(now, io);
            return;
        }
        let times = &class.times[self.state.bucket.get()];
        bump(&times.seen, 1);
        if self.state.bucket.get() == Bucket::Poll as usize
            && !times.seen.get().is_multiple_of(SAMPLE_EVERY)
        {
            self.inner.tick(now, io);
            return;
        }
        let host_before = (self.kind == Kind::Host).then(|| (io.peek(0).is_none(), io.credits(0)));
        let t = Instant::now();
        self.inner.tick(now, io);
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(self.state.timer_ns);
        let idle = match host_before {
            Some((nothing_arrived, credits)) => nothing_arrived && io.credits(0) >= credits,
            None => self.inner.quiescent(),
        };
        bump(&times.timed, 1);
        bump(&times.ns, ns);
        bump(&times.idle, u64::from(idle));
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn flush(&mut self, now: Cycle) {
        self.inner.flush(now);
    }

    fn epoch_status(&self) -> Option<EpochStatus> {
        self.inner.epoch_status()
    }
}

/// One span: a named interval of host time, the span it ran inside, and
/// the operation it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran, `layer.function`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Operation (run) number.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

impl SpanLog {
    /// Sets the operation number new spans carry.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one; returns
    /// its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].ns()
    }

    /// Removes span `id`, which must be the last one recorded and
    /// closed: a span that turned out to hold nothing worth keeping.
    pub fn discard_last(&mut self, id: usize) {
        assert_eq!(id + 1, self.spans.len(), "only the last span is discarded");
        assert!(
            !self.open.contains(&id),
            "close a span before discarding it"
        );
        self.spans.pop();
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in ns.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// One JSON object per line: name, start, end, parent, run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent, s.run
            ));
        }
        out
    }
}

/// The topology object for a config, plus the tree handle multiport
/// encoding needs (the same construction `build_system` performs).
pub fn topology_of(kind: TopologyKind) -> (Rc<Topology>, Option<Rc<KaryTree>>) {
    match kind {
        TopologyKind::KaryTree { k, n } => {
            let tree = Rc::new(KaryTree::new(k, n));
            (Rc::new(tree.topology().clone()), Some(tree))
        }
        TopologyKind::UniMin { k, n } => (Rc::new(UniMin::new(k, n).into_topology()), None),
        TopologyKind::Irregular {
            switches,
            ports,
            hosts,
            extra_links,
            seed,
        } => (
            Rc::new(Irregular::new(switches, ports, hosts, extra_links, seed).into_topology()),
            None,
        ),
    }
}

/// Wires the system [`mdworm::build_system`] builds — same links, same
/// registration order, same handles — with every switch and host wrapped
/// in the tick-counting decorator. The [`RouteTables::build`] call is
/// recorded in `log` as a `mintopo.route_build` span.
///
/// # Panics
///
/// Panics where `build_system` does: an invalid config or a source count
/// that differs from the host count.
pub fn assemble(
    config: SystemConfig,
    sources: Vec<Box<dyn TrafficSource>>,
    state: &Rc<TraceState>,
    log: &RefCell<SpanLog>,
) -> System {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid system config: {e}"));
    let (topology, tree) = topology_of(config.topology);
    assert_eq!(
        sources.len(),
        topology.n_hosts(),
        "need exactly one traffic source per host"
    );
    let (tables, _) = log.borrow_mut().time("mintopo.route_build", || {
        Rc::new(RouteTables::build(&topology))
    });
    let swcfg = config.effective_switch();
    let mut engine = Engine::new();
    let switch_in_credits = match config.arch {
        SwitchArch::CentralBuffer => swcfg.staging_flits,
        SwitchArch::InputBuffered => swcfg.input_buf_flits,
    };

    let n_sw = topology.n_switches();
    let mut sw_in: Vec<Vec<Option<LinkId>>> = (0..n_sw)
        .map(|s| vec![None; topology.ports(SwitchId::from(s))])
        .collect();
    let mut sw_out = sw_in.clone();
    let mut host_inject: Vec<Option<LinkId>> = vec![None; topology.n_hosts()];
    let mut host_eject: Vec<Option<LinkId>> = vec![None; topology.n_hosts()];
    let mut links = mdworm::build::LinkMap::default();
    for conn in topology.connections() {
        match (conn.a, conn.b) {
            (End::SwitchPort(a, ap), End::SwitchPort(b, bp)) => {
                let l_ab = engine.add_link(config.link_delay, switch_in_credits);
                let l_ba = engine.add_link(config.link_delay, switch_in_credits);
                links.fabric.push(l_ab);
                links.fabric.push(l_ba);
                sw_out[a.index()][ap] = Some(l_ab);
                sw_in[b.index()][bp] = Some(l_ab);
                sw_out[b.index()][bp] = Some(l_ba);
                sw_in[a.index()][ap] = Some(l_ba);
            }
            (End::Host(h), End::SwitchPort(s, p)) | (End::SwitchPort(s, p), End::Host(h)) => {
                if topology.host_inject(h) == (s, p) {
                    let l = engine.add_link(config.link_delay, switch_in_credits);
                    host_inject[h.index()] = Some(l);
                    sw_in[s.index()][p] = Some(l);
                    links.inject.push(l);
                }
                if topology.host_eject(h) == (s, p) {
                    let l = engine.add_link(config.link_delay, config.host_eject_credits);
                    host_eject[h.index()] = Some(l);
                    sw_out[s.index()][p] = Some(l);
                    links.eject.push(l);
                }
            }
            (End::Host(_), End::Host(_)) => unreachable!("hosts never connect directly"),
        }
    }
    for s in 0..n_sw {
        for p in 0..topology.ports(SwitchId::from(s)) {
            for slot in [&mut sw_in[s][p], &mut sw_out[s][p]] {
                if slot.is_none() {
                    *slot = Some(engine.add_link(1, 1));
                }
            }
        }
    }
    let dense = |m: &[Vec<Option<LinkId>>]| -> Vec<Vec<LinkId>> {
        m.iter()
            .map(|v| v.iter().map(|l| l.expect("dense")).collect())
            .collect()
    };
    let (sw_in, sw_out) = (dense(&sw_in), dense(&sw_out));

    let combining_plan = config
        .barrier_combining
        .then(|| mintopo::combining::plan_combining(&topology, &tables));
    let mut switch_stats = Vec::with_capacity(n_sw);
    let mut switch_ctls = Vec::with_capacity(n_sw);
    let mut sem_traces = Vec::with_capacity(n_sw);
    for s in 0..n_sw {
        let id = SwitchId::from(s);
        let stats = Rc::new(RefCell::new(SwitchStats::default()));
        switch_stats.push(stats.clone());
        let ctl = SwitchCtl::new();
        switch_ctls.push(ctl.clone());
        let sem = SemTrace::handle();
        sem_traces.push(sem.clone());
        let cfg = SwitchConfig {
            ports: topology.ports(id),
            ..swcfg.clone()
        };
        let (inner, kind): (Box<dyn Component>, Kind) = match config.arch {
            SwitchArch::CentralBuffer => {
                let mut switch = CentralBufferSwitch::new(id, cfg, tables.clone(), stats);
                switch.set_ctl(ctl);
                switch.set_sem_trace(sem);
                if let Some(plan) = &combining_plan {
                    if plan.expected[s] > 0 {
                        switch.enable_barrier_combining(
                            plan.expected[s],
                            topology.n_hosts(),
                            config.bits_per_flit,
                        );
                    }
                }
                (Box::new(switch), Kind::Cb)
            }
            SwitchArch::InputBuffered => {
                let mut switch = InputBufferedSwitch::new(id, cfg, tables.clone(), stats);
                switch.set_ctl(ctl);
                (Box::new(switch), Kind::Ib)
            }
        };
        engine.add_component(
            Box::new(Traced {
                inner,
                kind,
                state: state.clone(),
            }),
            sw_in[s].clone(),
            sw_out[s].clone(),
        );
    }

    let shared = HostShared::new(topology.n_hosts());
    let fabric_mode = FabricMode::new();
    let scheme = match config.mcast {
        McastImpl::HwBitString => McastScheme::HardwareBitString,
        McastImpl::HwMultiport => {
            McastScheme::HardwareMultiport(tree.clone().expect("validated: tree topology"))
        }
        McastImpl::SwBinomial => McastScheme::SoftwareBinomial,
    };
    for (h, source) in sources.into_iter().enumerate() {
        let hcfg = HostConfig {
            node: NodeId::from(h),
            n_hosts: topology.n_hosts(),
            bits_per_flit: config.bits_per_flit,
            max_packet_flits: swcfg.max_packet_flits,
            send_overhead: config.send_overhead,
            recv_overhead: config.recv_overhead,
            scheme: scheme.clone(),
            recovery: config.recovery.clone(),
        };
        let mut host = Host::new(hcfg, shared.clone(), source);
        host.set_fabric_mode(fabric_mode.clone());
        engine.add_component(
            Box::new(Traced {
                inner: Box::new(host),
                kind: Kind::Host,
                state: state.clone(),
            }),
            vec![host_eject[h].expect("every host ejects somewhere")],
            vec![host_inject[h].expect("every host injects somewhere")],
        );
    }

    System {
        engine,
        shared,
        switch_stats,
        config,
        topology,
        links,
        sw_in,
        sw_out,
        switch_ctls,
        fabric_mode,
        tables,
        sem_traces,
    }
}
