//! Online fault response: detection → quiesce → reroute → degrade → heal
//! (DESIGN.md §10), made crash-tolerant by a write-ahead journal and
//! two-phase epoch'd table installs (DESIGN.md §15).
//!
//! The [`FaultResponder`] models an SP2-style service processor sitting
//! beside the fabric. It watches the engine's link up/down event stream
//! through a debounced [`netsim::health::FabricHealth`] view and, whenever
//! the set of confirmed-dead *fabric* ports changes, runs the response
//! protocol:
//!
//! 1. **gate** — hosts stop injecting ([`collectives::FabricMode`]);
//!    ejection keeps draining, so worms already past the cut complete;
//! 2. **drain + purge** — after a grace window the per-switch
//!    [`switches::SwitchCtl`] purge command kills whatever is still
//!    resident (wedged against the dead link), returning credits so
//!    link-level conservation holds; the killed payloads come back through
//!    the end-to-end retransmission ledger;
//! 3. **reroute** — new LCA tables are derived with the dead ports masked
//!    ([`mintopo::route::RouteTables::build_masked`]) and **prepared**
//!    under a fresh epoch on every switch (two-phase: staged, inactive).
//!    The candidate is vetted by the responder's one [`Vetter`], whose
//!    gates run in order: liveness and reachability; the rank
//!    certificate, with the budgeted explicit CDG deciding whenever the
//!    certificate is inconclusive; the header round-trip lint; and the
//!    bounded model check, run once per responder. Verdicts are memoized
//!    by dead-port set, which fixes the candidate. A passing candidate is
//!    **committed** — armed on every switch, each swapping it in on its
//!    first empty tick and stamping the epoch; a failing candidate is
//!    **aborted** and the fabric stays on the old tables, degraded rather
//!    than deadlocked;
//! 4. **degrade** — while masked tables are active, each hardware
//!    multicast is split into the worm-coverable part and a peeled
//!    remainder served by binomial-tree unicast
//!    ([`collectives::DegradePlanner`]);
//! 5. **heal** — when every cut is confirmed back up the original tables
//!    are re-derived, vetted and swapped in, and hosts return to pure
//!    hardware multicast.
//!
//! ## Crash tolerance (DESIGN.md §15)
//!
//! Every change to durable responder state is a journal record
//! ([`crate::journal`]) with one effect: the live path *writes* a record
//! (appends it, then applies it) and recovery applies the same records
//! in order, through the same `apply` — no other code touches counters,
//! the event log, the latency series, the health view, the masked and
//! suppressed sets, the epoch cursor or the episode stage. The one
//! exception is the snapshot record, which the live path only appends:
//! it describes state that already holds.
//!
//! The in-flight episode is part of that state, and the episode driver
//! runs one step per stage, each ending in a journaled step that
//! advances the stage and crosses a crash boundary. Every wait inside
//! an episode is keyed to an *absolute* engine-cycle deadline derived
//! from the detection cycle. A responder that crashes (modeled by the
//! [`crate::chaos`] harness as an early unwind at a protocol boundary)
//! therefore recovers by applying the journal — rebuilding its durable
//! state byte-identically, the episode stage included — and
//! *re-driving* the episode from that stage. Every re-driven step is
//! idempotent: deadlines in the past are no-ops,
//! [`SwitchCtl::prepare`]/[`SwitchCtl::commit`] tolerate re-issue, and
//! journaled verdicts short-circuit re-vetting. An install whose commit
//! record is durable but whose per-switch commits were cut short is
//! completed by recovery, so the fabric can never be left torn — the
//! engine's epoch audit ([`netsim::engine::Engine::enable_epoch_audit`])
//! holds every cycle to that.
//!
//! Two bits are deliberately ephemeral. A
//! [`request_retry`](FaultResponder::request_retry) lost to a crash is
//! re-armed by the storm controller's backoff on its own schedule, so
//! journaling it would buy nothing; the vet memo only caches verdicts
//! that are pure functions of the journaled dead set.
//!
//! Table swaps ride the switches' install-only-when-empty rule, so no worm
//! ever decodes against a mix of old and new tables.
//!
//! Only switch→switch links are masked. A dead injection/ejection link
//! makes a *host* unreachable — no reroute can fix that, exactly as no
//! spare path exists to a dead adapter in a real machine — so those
//! outages are left to the end-to-end recovery layer alone.

use crate::build::System;
use crate::chaos::{ChaosHandle, ChaosMode, Crashed};
use crate::journal::{
    EpisodeOutcome, Journal, JournalConfig, JournalRecord, JournalStore, ResponderSnapshot,
};
use collectives::DegradePlanner;
use mdw_analysis::{MemoStats, Samples, VetStats, Vetter};
use mintopo::route::RouteTables;
use mintopo::topology::Topology;
use netsim::health::FabricHealth;
use netsim::ids::{LinkId, SwitchId};
use netsim::Cycle;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Tuning knobs of the online fault-response protocol. The reroute vet
/// has none here: its gates come from the [`SystemConfig`] the
/// responder's [`Vetter`] is built from (`certify.cdg_budget`,
/// `model.mode`, architecture and replication), and its memo capacity is
/// the constant [`mdw_analysis::vet::MEMO_CAP`].
///
/// [`SystemConfig`]: crate::config::SystemConfig
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseConfig {
    /// Cycles a link must hold a new state before the transition is
    /// confirmed (absorbs fault-injector blips).
    pub debounce: Cycle,
    /// Gated grace window before the purge: in-flight worms get this many
    /// cycles to complete on their own.
    pub drain_wait: Cycle,
    /// Maximum cycles the purge may take to empty the fabric before the
    /// responder gives up waiting (and records the incident).
    pub purge_max: Cycle,
    /// Hop budget for coverage traces on the degraded planner.
    pub max_hops: usize,
    /// Capacity of the bounded event log; the oldest entries are evicted
    /// (and counted) once the ring fills, so a responder embedded in a
    /// long-running service holds steady-state memory.
    pub event_log_cap: usize,
    /// Capacity of the detect→install latency ring (oldest evicted and
    /// counted, like the event log).
    pub latency_cap: usize,
    /// Journal records between snapshots (config key
    /// `journal.snapshot_every`); each snapshot compacts the journal, so
    /// this bounds both replay time and journal memory.
    pub snapshot_every: u64,
}

impl Default for ResponseConfig {
    fn default() -> Self {
        ResponseConfig {
            debounce: 64,
            drain_wait: 256,
            purge_max: 256,
            max_hops: 64,
            event_log_cap: 1024,
            latency_cap: 4096,
            snapshot_every: 256,
        }
    }
}

/// One entry in the responder's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseEvent {
    /// A link transition survived the debounce window.
    LinkConfirmed {
        /// The link that changed state.
        link: LinkId,
        /// `true` = confirmed down, `false` = confirmed back up.
        down: bool,
    },
    /// New masked tables passed the deadlock vet and were committed.
    Rerouted {
        /// Directed dead fabric ports masked out of the new tables.
        masked_ports: usize,
    },
    /// The candidate tables failed the deadlock vet; its epoch was
    /// aborted and the fabric stays on the previous tables, degraded.
    RerouteRejected {
        /// Diagnostic code of the first analyzer error (e.g. "cdg-cycle").
        code: String,
        /// Human-readable analyzer message.
        message: String,
    },
    /// All cuts confirmed back up; original tables restored.
    Healed,
    /// The purge did not empty the fabric within `purge_max` cycles.
    PurgeIncomplete {
        /// Flits still sitting in links when the responder gave up.
        flits_left: usize,
    },
    /// The dead-port set re-sampled after the quiesce matched the masking
    /// already installed: the transition that triggered this response
    /// reverted during the drain/purge window, so no tables were built.
    StaleDetect,
}

/// A bounded ring of the most recent responder events. Once `cap`
/// entries are held, each push evicts the oldest and bumps the drop
/// counter — the log never grows past its capacity, however long the
/// responder lives.
#[derive(Debug)]
pub struct EventLog {
    cap: usize,
    buf: VecDeque<(Cycle, ResponseEvent)>,
    dropped: u64,
}

impl EventLog {
    fn new(cap: usize) -> Self {
        EventLog {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Rebuilds a log from snapshot state: the retained window (already
    /// within `cap`) plus the historical drop count.
    fn restore(cap: usize, entries: Vec<(Cycle, ResponseEvent)>, dropped: u64) -> Self {
        let mut log = EventLog::new(cap);
        log.dropped = dropped;
        for (at, ev) in entries {
            log.push(at, ev);
        }
        log
    }

    fn push(&mut self, at: Cycle, ev: ResponseEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back((at, ev));
    }

    /// Iterates the retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(Cycle, ResponseEvent)> {
        self.buf.iter()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been logged (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a (Cycle, ResponseEvent);
    type IntoIter = std::collections::vec_deque::Iter<'a, (Cycle, ResponseEvent)>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

/// A debounce-confirmed link transition, as handed to callers of
/// [`FaultResponder::drain_confirmed`] (the flap damper feeds on these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmedTransition {
    /// Cycle the confirmation fired.
    pub at: Cycle,
    /// The link that changed state.
    pub link: LinkId,
    /// `true` = confirmed down, `false` = confirmed back up.
    pub down: bool,
}

/// Running totals of responder activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResponseCounters {
    /// Debounce-confirmed link-down transitions.
    pub links_down: u64,
    /// Debounce-confirmed link-up transitions.
    pub links_up: u64,
    /// Masked reroutes vetted, committed and activated.
    pub reroutes: u64,
    /// Reroute candidates rejected by the deadlock vet (epoch aborted).
    pub reroutes_rejected: u64,
    /// Full heals (all cuts back up, original tables restored).
    pub heals: u64,
    /// Quiesce windows that purged the fabric.
    pub purges: u64,
    /// Purges that hit the `purge_max` budget with flits still in flight.
    pub purges_incomplete: u64,
    /// Responses abandoned because the triggering transition reverted
    /// during the quiesce (the post-purge recheck found nothing to do).
    pub stale_detects: u64,
}

/// Builds candidate routing tables for a set of dead directed fabric
/// ports. The default is the honest masked rebuild; tests substitute
/// deliberately broken builders to exercise the rejection path (modelling
/// a buggy out-of-band route-planner — exactly what the vet gate exists
/// to catch). The builder must be deterministic in its inputs: episode
/// recovery re-invokes it to rebuild a candidate whose epoch was prepared
/// before the crash.
pub type CandidateBuilder = Box<dyn Fn(&Topology, &[(SwitchId, usize)]) -> RouteTables>;

/// How far the in-flight episode has durably progressed. Only
/// [`FaultResponder::apply`] moves it, one journal record at a time, so
/// the live path and journal replay walk the same stages; each stage has
/// exactly one driver step in [`FaultResponder::drive`].
#[derive(Debug)]
enum Stage {
    /// Hosts gated; drain window may or may not have elapsed.
    Started,
    /// Purge raised on every switch.
    Purging,
    /// Purge loop finished (fabric empty or budget exhausted).
    Purged,
    /// Post-purge resample found nothing new to do.
    Staled,
    /// Epoch allocated; candidate staged (or staging) on the switches.
    Prepared,
    /// Vet verdict durable.
    Vetted(Result<(), (String, String)>),
    /// Commit decision durable; per-switch commits may be cut short.
    Committing,
    /// Abort decision durable; per-switch aborts may be cut short.
    Aborting,
}

/// The in-flight response episode: journaled progress plus the staged
/// candidate, which is process memory only and rebuilt on demand after a
/// crash.
#[derive(Debug)]
struct Episode {
    /// Cycle the episode was triggered (all deadlines key off this).
    detect: Cycle,
    stage: Stage,
    /// Epoch allocated by `prepared` (0 before that).
    epoch: u64,
    /// The dead-port set the episode masks (valid from `Prepared` on).
    masked: Vec<(SwitchId, usize)>,
    /// The candidate prepared on every switch under `epoch`; `None`
    /// until staged in this process.
    candidate: Option<Rc<RouteTables>>,
}

/// The fault-response orchestrator. Owns the debounced health view, the
/// write-ahead journal, and drives the gate/purge/two-phase-install
/// protocol against a [`System`].
pub struct FaultResponder {
    cfg: ResponseConfig,
    health: FabricHealth,
    /// Directed fabric ports currently masked out of the active tables,
    /// sorted; empty on a healthy fabric.
    masked: Vec<(SwitchId, usize)>,
    /// Fabric link → the directed (switch, out-port) that drives it.
    fabric_ports: HashMap<LinkId, (SwitchId, usize)>,
    builder: Option<CandidateBuilder>,
    events: EventLog,
    counters: ResponseCounters,
    /// Links administratively suppressed by a flap damper: treated as
    /// dead regardless of their confirmed health state.
    suppressed: Vec<LinkId>,
    /// Confirmed transitions accumulated since the last
    /// [`drain_confirmed`](Self::drain_confirmed) call.
    fresh_confirmed: Vec<ConfirmedTransition>,
    /// One-shot override of the `dead == masked` early-exit, set by
    /// [`request_retry`](Self::request_retry) so a storm controller can
    /// re-run the response after a backoff even though nothing changed.
    /// Deliberately not journaled — see the module docs.
    retry_requested: bool,
    /// Detect→install (or detect→reject) latency of each completed
    /// response episode, in cycles (bounded ring, drops counted).
    latency: Samples,
    /// Write-ahead journal of every durable decision.
    journal: Journal,
    /// Highest epoch allocated so far (0 = none; build-time tables).
    last_epoch: u64,
    /// The response episode in flight, if any (never across a public
    /// call that returned normally).
    episode: Option<Episode>,
    /// The reroute admission gate, with its verdict memo and vet
    /// timings.
    vetter: Vetter,
    /// Crash-injection harness hook; `None` outside chaos runs.
    chaos: Option<ChaosHandle>,
    /// Completed crash recoveries (journal replays).
    recoveries: u64,
    /// Wall-clock restart→caught-up duration of each recovery, ns.
    recovery_ns: Samples,
}

impl std::fmt::Debug for FaultResponder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultResponder")
            .field("cfg", &self.cfg)
            .field("masked", &self.masked)
            .field("counters", &self.counters)
            .field("last_epoch", &self.last_epoch)
            .field("recoveries", &self.recoveries)
            .finish_non_exhaustive()
    }
}

impl FaultResponder {
    /// Shared construction: a fresh responder against `sys`, with the
    /// given journal write end.
    fn base(cfg: ResponseConfig, sys: &mut System, journal: Journal) -> Self {
        sys.engine.publish_link_events();
        let mut fabric_ports = HashMap::new();
        for (s, outs) in sys.sw_out.iter().enumerate() {
            for (p, &l) in outs.iter().enumerate() {
                if sys.links.fabric.contains(&l) {
                    fabric_ports.insert(l, (SwitchId::from(s), p));
                }
            }
        }
        let health = FabricHealth::new(cfg.debounce);
        let events = EventLog::new(cfg.event_log_cap);
        let latency = Samples::with_cap(cfg.latency_cap);
        let vetter = sys.config.vetter(sys.topology.clone());
        FaultResponder {
            cfg,
            health,
            masked: Vec::new(),
            fabric_ports,
            builder: None,
            events,
            counters: ResponseCounters::default(),
            suppressed: Vec::new(),
            fresh_confirmed: Vec::new(),
            retry_requested: false,
            latency,
            journal,
            last_epoch: 0,
            episode: None,
            vetter,
            chaos: None,
            recoveries: 0,
            recovery_ns: Samples::new(),
        }
    }

    /// Attaches a responder to `sys` with a fresh journal and enables
    /// link-event publication on its engine. Picks up a crash-injection
    /// handle if the chaos harness installed one
    /// ([`crate::chaos::install`]).
    pub fn new(cfg: ResponseConfig, sys: &mut System) -> Self {
        let journal = Journal::new(JournalConfig {
            snapshot_every: cfg.snapshot_every,
        });
        let mut r = FaultResponder::base(cfg, sys, journal);
        r.chaos = crate::chaos::take_installed();
        r
    }

    /// Rebuilds a responder from a surviving journal store: applies every
    /// intact record (snapshot first, then the tail; duplicated-tail
    /// sequence numbers are skipped, torn tails were dropped at reopen).
    /// The recovered state is byte-identical to the pre-crash responder's
    /// durable state, including the in-flight episode to re-drive, if the
    /// crash interrupted one.
    pub(crate) fn recover(cfg: ResponseConfig, store: JournalStore, sys: &mut System) -> Self {
        let (journal, records) = Journal::reopen(
            store,
            JournalConfig {
                snapshot_every: cfg.snapshot_every,
            },
        );
        let mut r = FaultResponder::base(cfg, sys, journal);
        let mut last_seq: Option<u64> = None;
        for (seq, rec) in records {
            if last_seq.is_some_and(|s| seq <= s) {
                continue; // duplicated tail: already applied
            }
            last_seq = Some(seq);
            r.apply(rec);
        }
        r
    }

    /// Makes a decision durable and then takes effect: appends `rec` to
    /// the journal and [`apply`](Self::apply)s it, so the live path and
    /// replay share one effect per record.
    fn write(&mut self, rec: JournalRecord) {
        self.journal.append(&rec);
        self.apply(rec);
    }

    /// [`write`](Self::write) followed by a crash boundary — every
    /// journaled protocol step goes through here, so none can escape the
    /// crash sweep.
    fn step(&mut self, rec: JournalRecord) -> Result<(), Crashed> {
        self.write(rec);
        self.chaos_point()
    }

    /// The in-flight episode; episode records only occur inside one.
    fn in_flight(&mut self) -> &mut Episode {
        self.episode.as_mut().expect("no episode in flight")
    }

    /// Applies one journal record's in-memory effects. The only code
    /// that changes journaled responder state: the live path reaches it
    /// through [`write`](Self::write), recovery through
    /// [`recover`](Self::recover).
    fn apply(&mut self, rec: JournalRecord) {
        match rec {
            JournalRecord::Snapshot(s) => {
                self.last_epoch = s.last_epoch;
                self.masked = s.masked;
                self.suppressed = s.suppressed;
                self.counters = s.counters;
                self.latency =
                    Samples::restore(self.cfg.latency_cap, &s.latency, s.latency_dropped);
                self.events = EventLog::restore(self.cfg.event_log_cap, s.events, s.events_dropped);
                self.fresh_confirmed = s.fresh;
                self.health = FabricHealth::restore(
                    self.cfg.debounce,
                    &s.health_confirmed,
                    &s.health_pending,
                );
            }
            JournalRecord::Observed { link, at, down } => {
                self.health.observe(netsim::LinkEvent { link, at, down });
            }
            JournalRecord::Polled { now } => self.apply_poll(now),
            JournalRecord::Drained => self.fresh_confirmed.clear(),
            JournalRecord::Suppressed { links } => self.suppressed = links,
            JournalRecord::RespondStarted { detect } => {
                self.episode = Some(Episode {
                    detect,
                    stage: Stage::Started,
                    epoch: 0,
                    masked: Vec::new(),
                    candidate: None,
                });
            }
            JournalRecord::PurgeStarted { .. } => {
                self.counters.purges += 1;
                self.in_flight().stage = Stage::Purging;
            }
            JournalRecord::PurgeDone {
                at,
                flits_left,
                complete,
            } => {
                if !complete {
                    self.counters.purges_incomplete += 1;
                    self.events.push(
                        at,
                        ResponseEvent::PurgeIncomplete {
                            flits_left: flits_left as usize,
                        },
                    );
                }
                self.in_flight().stage = Stage::Purged;
            }
            JournalRecord::StaleDetected { at } => {
                self.counters.stale_detects += 1;
                self.events.push(at, ResponseEvent::StaleDetect);
                self.in_flight().stage = Stage::Staled;
            }
            JournalRecord::Prepared { epoch, masked } => {
                self.last_epoch = self.last_epoch.max(epoch);
                let ep = self.in_flight();
                ep.epoch = epoch;
                ep.masked = masked;
                ep.stage = Stage::Prepared;
            }
            JournalRecord::Vetted { verdict, .. } => {
                self.in_flight().stage = Stage::Vetted(verdict);
            }
            JournalRecord::Committed { .. } => self.in_flight().stage = Stage::Committing,
            JournalRecord::Aborted {
                at, code, message, ..
            } => {
                self.counters.reroutes_rejected += 1;
                self.events
                    .push(at, ResponseEvent::RerouteRejected { code, message });
                self.in_flight().stage = Stage::Aborting;
            }
            JournalRecord::Finalized { at, outcome, .. } => {
                let ep = self.episode.take().expect("no episode in flight");
                self.apply_finalized(at, ep.detect, ep.masked, outcome);
            }
        }
    }

    /// A chaos-harness protocol-step boundary: in a crash-injected run,
    /// unwinds with [`Crashed`] when the scheduled boundary is reached,
    /// optionally dirtying the journal with a partial record first —
    /// modeling a process that died mid-way through its *next* append.
    /// (Records already appended are durable by the WAL convention; a
    /// mid-append crash can only tear the line being written.)
    fn chaos_point(&mut self) -> Result<(), Crashed> {
        let Some(h) = &self.chaos else { return Ok(()) };
        let mut st = h.borrow_mut();
        let b = st.boundaries;
        st.boundaries += 1;
        if let ChaosMode::CrashAt {
            boundary,
            tear_bytes,
        } = st.mode
        {
            if !st.fired && b == boundary {
                st.fired = true;
                if tear_bytes > 0 {
                    crate::chaos::dirty_tail(&self.journal.store(), tear_bytes);
                }
                return Err(Crashed);
            }
        }
        Ok(())
    }

    /// Simulated process restart: rebuilds this responder from its
    /// surviving journal store and resumes whatever was in flight.
    /// Returns `true` if a response protocol ran (before or after the
    /// crash). The restart itself consumes **zero engine cycles** — only
    /// the responder's memory is lost — so a recovered run's outcome is
    /// byte-identical to an uncrashed one.
    fn crash_recover(&mut self, sys: &mut System) -> bool {
        let cfg = self.cfg.clone();
        let mut recoveries = self.recoveries;
        let mut recovery_ns = std::mem::take(&mut self.recovery_ns);
        loop {
            recoveries += 1;
            let t0 = std::time::Instant::now();
            let store = self.journal.store();
            let builder = self.builder.take();
            let chaos = self.chaos.take();
            *self = FaultResponder::recover(cfg.clone(), store, sys);
            self.builder = builder;
            self.chaos = chaos;
            let ns = t0.elapsed().as_nanos() as u64;
            recovery_ns.record(ns);
            if let Some(h) = &self.chaos {
                let mut st = h.borrow_mut();
                st.recoveries += 1;
                st.recovery_ns.push(ns);
            }
            let result = if self.episode.is_some() {
                self.drive(sys).map(|()| true)
            } else {
                self.try_poll(sys)
            };
            match result {
                Ok(ran) => {
                    self.recoveries = recoveries;
                    self.recovery_ns = recovery_ns;
                    return ran;
                }
                Err(Crashed) => continue,
            }
        }
    }

    /// Substitutes the candidate-table builder (rejection-path tests).
    /// Clears the vet memo: its verdicts were reached on the old
    /// builder's candidates.
    pub fn set_candidate_builder(&mut self, builder: CandidateBuilder) {
        self.builder = Some(builder);
        self.vetter.clear_memo();
    }

    /// The bounded event log (most recent `event_log_cap` entries, in
    /// occurrence order, tagged with the cycle).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Snapshot of the activity counters.
    pub fn counters(&self) -> ResponseCounters {
        self.counters
    }

    /// Activity counters of the vet memo (LRU-bounded at
    /// [`mdw_analysis::vet::MEMO_CAP`]).
    pub fn vet_memo_stats(&self) -> MemoStats {
        self.vetter.memo_stats()
    }

    /// Directed fabric ports currently masked out of the active tables.
    pub fn masked_ports(&self) -> &[(SwitchId, usize)] {
        &self.masked
    }

    /// Wall-clock accounting of the structural and behavioral vet halves.
    pub fn vet_stats(&self) -> &VetStats {
        self.vetter.stats()
    }

    /// Detect→install (or detect→reject) latency of every completed
    /// response episode, in cycles. p50/p99 of this series are the
    /// service's headline recovery metrics.
    pub fn latency(&self) -> &Samples {
        &self.latency
    }

    /// The write-ahead journal (records, store handle, size).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Highest install epoch allocated so far (0 = build-time tables).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Crash recoveries completed (journal replays).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Wall-clock restart→caught-up duration of each recovery, ns.
    pub fn recovery_ns(&self) -> &Samples {
        &self.recovery_ns
    }

    /// Event-log entries plus latency samples evicted by their ring
    /// bounds — the "how much history did I shed" gauge surfaced in
    /// [`crate::sim::RunOutcome::response_dropped`].
    pub fn dropped(&self) -> u64 {
        self.events.dropped() + self.latency.dropped()
    }

    /// Serializes the responder's full durable state into a snapshot —
    /// exactly what a journal snapshot record would hold.
    fn make_snapshot(&self) -> ResponderSnapshot {
        ResponderSnapshot {
            last_epoch: self.last_epoch,
            masked: self.masked.clone(),
            suppressed: self.suppressed.clone(),
            counters: self.counters,
            latency: self.latency.values().to_vec(),
            latency_dropped: self.latency.dropped(),
            events: self.events.iter().cloned().collect(),
            events_dropped: self.events.dropped(),
            fresh: self.fresh_confirmed.clone(),
            health_confirmed: self.health.confirmed_down(),
            health_pending: self.health.pending(),
        }
    }

    /// FNV-64 digest of the responder's durable state (the snapshot
    /// serialization). A crashed-and-recovered responder produces the
    /// same digest as an uncrashed one — the crash harness holds every
    /// injected run to that.
    pub fn state_digest(&self) -> String {
        crate::journal::snapshot_digest(&self.make_snapshot())
    }

    /// Overrides the set of administratively suppressed links: a flap
    /// damper parks misbehaving links here and the responder masks them
    /// exactly as if they were confirmed dead. The next
    /// [`poll`](Self::poll) acts on any resulting dead-set change.
    pub fn set_suppressed(&mut self, mut links: Vec<LinkId>) {
        links.sort_unstable();
        links.dedup();
        if links != self.suppressed {
            self.write(JournalRecord::Suppressed { links });
        }
    }

    /// Links currently under administrative suppression.
    pub fn suppressed(&self) -> &[LinkId] {
        &self.suppressed
    }

    /// Hands out (and clears) the debounce-confirmed transitions
    /// accumulated since the previous call — the flap damper's diet.
    pub fn drain_confirmed(&mut self) -> Vec<ConfirmedTransition> {
        let fresh = self.fresh_confirmed.clone();
        if !fresh.is_empty() {
            self.write(JournalRecord::Drained);
        }
        fresh
    }

    /// Arms a one-shot override of the `dead == masked` early-exit so the
    /// next [`poll`](Self::poll) re-runs the full response even though
    /// the dead-port set is unchanged. A storm controller uses this to
    /// retry after a vet rejection or an incomplete purge once its
    /// backoff expires. The retry allocates a fresh epoch, but a retry of
    /// the same dead set is answered from the vet memo: the builder is
    /// deterministic, so the dead set fixes the candidate and the verdict
    /// is a pure function of it — re-running the gates could only repeat
    /// the answer.
    pub fn request_retry(&mut self) {
        self.retry_requested = true;
    }

    /// Drains the engine's link events and advances the debounce view,
    /// logging (and accumulating for [`drain_confirmed`](Self::drain_confirmed))
    /// every confirmed transition. Does **not** respond. Recovers in
    /// place if a chaos-injected crash lands inside.
    pub fn observe_health(&mut self, sys: &mut System) {
        if self.observe_inner(sys).is_err() {
            self.crash_recover(sys);
        }
    }

    /// The fallible observation path: journals raw events as they are
    /// drained (the drain + append pair is atomic — the event queue is
    /// reliable, see DESIGN.md §15) and journals one `polled` record per
    /// poll that confirms anything, then applies the poll.
    fn observe_inner(&mut self, sys: &mut System) -> Result<(), Crashed> {
        let events = sys.engine.drain_link_events();
        if !events.is_empty() {
            for ev in events {
                self.write(JournalRecord::Observed {
                    link: ev.link,
                    at: ev.at,
                    down: ev.down,
                });
            }
            self.chaos_point()?; // one boundary per drained batch
        }
        if !self.health.has_pending() {
            return Ok(());
        }
        let now = sys.engine.now();
        // Poll on a probe clone first: a `polled` record is only written
        // when the poll actually confirms something, so quiet ticks leave
        // no journal residue.
        if self.health.clone().poll(now).is_empty() {
            return Ok(());
        }
        self.step(JournalRecord::Polled { now })
    }

    /// Applies a debounce poll at `now`: counters, event log, and the
    /// fresh-confirmed queue. Deterministic in the health view and `now`,
    /// so journal replay of a `polled` record reproduces it exactly.
    fn apply_poll(&mut self, now: Cycle) {
        for ev in self.health.poll(now) {
            if ev.down {
                self.counters.links_down += 1;
            } else {
                self.counters.links_up += 1;
            }
            self.events.push(
                now,
                ResponseEvent::LinkConfirmed {
                    link: ev.link,
                    down: ev.down,
                },
            );
            self.fresh_confirmed.push(ConfirmedTransition {
                at: now,
                link: ev.link,
                down: ev.down,
            });
        }
    }

    /// The directed fabric ports that should be masked right now: the
    /// union of debounce-confirmed dead links and administratively
    /// suppressed links, restricted to switch→switch ports (host adapter
    /// outages never change the route tables), sorted.
    pub fn current_dead(&self) -> Vec<(SwitchId, usize)> {
        let mut dead: Vec<(SwitchId, usize)> = self
            .health
            .confirmed_down()
            .into_iter()
            .chain(self.suppressed.iter().copied())
            .filter_map(|l| self.fabric_ports.get(&l).copied())
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Drains the engine's link events, advances the debounce view, and —
    /// when the confirmed-dead fabric-port set changed (or a retry was
    /// requested) — runs the full response protocol (which steps the
    /// engine through the quiesce window). Returns `true` if a response
    /// ran. Recovers in place if a chaos-injected crash lands anywhere
    /// inside.
    pub fn poll(&mut self, sys: &mut System) -> bool {
        match self.try_poll(sys) {
            Ok(ran) => ran,
            Err(Crashed) => self.crash_recover(sys),
        }
    }

    fn try_poll(&mut self, sys: &mut System) -> Result<bool, Crashed> {
        self.observe_inner(sys)?;
        self.respond_if_needed(sys)
    }

    /// The respond-decision half of [`poll`](Self::poll), without the
    /// event drain — for callers (the storm controller) that interleave
    /// damping between observation and response.
    pub fn maybe_respond(&mut self, sys: &mut System) -> bool {
        match self.respond_if_needed(sys) {
            Ok(ran) => ran,
            Err(Crashed) => self.crash_recover(sys),
        }
    }

    fn respond_if_needed(&mut self, sys: &mut System) -> Result<bool, Crashed> {
        let ran = self.current_dead() != self.masked || self.retry_requested;
        if ran {
            self.retry_requested = false;
            sys.fabric_mode.gate();
            self.step(JournalRecord::RespondStarted {
                detect: sys.engine.now(),
            })?;
            self.drive(sys)?;
        }
        // Quiescent point (never mid-episode): snapshot + compact once
        // enough records accumulated. Append-only: it records state that
        // already holds.
        if self.journal.wants_snapshot() {
            self.journal
                .append(&JournalRecord::Snapshot(Box::new(self.make_snapshot())));
        }
        Ok(ran)
    }

    /// Runs (or, after a crash, *re-runs*) the in-flight episode from
    /// whatever stage the journal proves durable, one step per stage:
    /// drain → purge → resample → prepare → vet → commit/abort →
    /// degrade/heal → ungate (the hosts were gated before the episode's
    /// first record). Each step ends in exactly one journaled
    /// [`step`](Self::step), which advances the stage. Every step is
    /// idempotent — waits use absolute deadlines keyed off the detection
    /// cycle and switch control accepts re-issued commands — so driving
    /// the same episode any number of times converges on the same fabric
    /// state and the same engine timeline.
    fn drive(&mut self, sys: &mut System) -> Result<(), Crashed> {
        while let Some(ep) = &self.episode {
            match &ep.stage {
                Stage::Started => self.start_purge(sys)?,
                Stage::Purging => self.wait_purge(sys)?,
                Stage::Purged => self.resample(sys)?,
                Stage::Staled => self.finish(sys, EpisodeOutcome::Stale)?,
                Stage::Prepared => self.prepare_and_vet(sys)?,
                // Point of no return: once this record is durable the
                // install *will* reach every switch.
                Stage::Vetted(Ok(())) => self.step(JournalRecord::Committed { epoch: ep.epoch })?,
                // Stay on the proven-deadlock-free old tables; the
                // degraded planner still peels what they cannot cover.
                Stage::Vetted(Err((code, message))) => self.step(JournalRecord::Aborted {
                    at: sys.engine.now(),
                    epoch: ep.epoch,
                    code: code.clone(),
                    message: message.clone(),
                })?,
                Stage::Committing => self.commit(sys)?,
                Stage::Aborting => self.abort(sys)?,
            }
        }
        Ok(())
    }

    /// `Started`: wait out the gated drain window, then raise the purge
    /// on every switch.
    fn start_purge(&mut self, sys: &mut System) -> Result<(), Crashed> {
        let detect = self.in_flight().detect;
        sys.engine.run_until(detect + self.cfg.drain_wait);
        sys.control_all(|ctl, _| ctl.begin_purge());
        self.step(JournalRecord::PurgeStarted {
            at: sys.engine.now(),
        })
    }

    /// `Purging`: run until the fabric is empty or the absolute purge
    /// budget expires.
    fn wait_purge(&mut self, sys: &mut System) -> Result<(), Crashed> {
        let purge_end = self.in_flight().detect + self.cfg.drain_wait + self.cfg.purge_max;
        loop {
            let flits_left = sys.engine.flits_in_links();
            let complete = flits_left == 0 && sys.switch_ctls.iter().all(|c| c.is_empty());
            if complete || sys.engine.now() >= purge_end {
                return self.step(JournalRecord::PurgeDone {
                    at: sys.engine.now(),
                    flits_left: if complete { 0 } else { flits_left as u64 },
                    complete,
                });
            }
            sys.engine.run_for(1);
        }
    }

    /// `Purged`: re-sample health after the quiesce. The drain + purge
    /// just consumed hundreds of cycles, plenty for the outage that
    /// triggered this response to clear (a sub-window blip the debounce
    /// confirmed right at its edge) or for further links to fall over.
    /// Installing tables for a stale set would leave ports masked for
    /// links already back up, so an unchanged set ends the episode.
    fn resample(&mut self, sys: &mut System) -> Result<(), Crashed> {
        self.observe_inner(sys)?;
        let dead = self.current_dead();
        let rec = if dead == self.masked {
            JournalRecord::StaleDetected {
                at: sys.engine.now(),
            }
        } else {
            JournalRecord::Prepared {
                epoch: self.last_epoch + 1,
                masked: dead,
            }
        };
        self.step(rec)
    }

    /// The episode's candidate, staged under its epoch on every switch:
    /// cached once staged in this process, otherwise rebuilt
    /// deterministically (recovery reconstructs the exact tables the
    /// crashed run staged) and (re-)prepared, which is idempotent against
    /// both a staged and an armed copy of the same epoch.
    fn staged_candidate(&mut self, sys: &mut System) -> Result<Rc<RouteTables>, Crashed> {
        let ep = self.episode.as_ref().expect("no episode in flight");
        if let Some(tables) = &ep.candidate {
            return Ok(tables.clone());
        }
        let epoch = ep.epoch;
        let tables = Rc::new(match &self.builder {
            Some(b) => b(&sys.topology, &ep.masked),
            None => RouteTables::build_masked(&sys.topology, &ep.masked),
        });
        for k in 0..sys.switch_ctls.len() {
            sys.control(k, |ctl, _| ctl.prepare(epoch, tables.clone()));
            self.chaos_point()?; // "crash after prepare on switch k"
        }
        self.in_flight().candidate = Some(tables.clone());
        Ok(tables)
    }

    /// `Prepared`: stage the candidate and make the vet verdict durable.
    fn prepare_and_vet(&mut self, sys: &mut System) -> Result<(), Crashed> {
        let tables = self.staged_candidate(sys)?;
        let ep = self.episode.as_ref().expect("no episode in flight");
        let epoch = ep.epoch;
        let verdict = self.vetter.vet(&ep.masked, &tables);
        self.step(JournalRecord::Vetted { epoch, verdict })
    }

    /// `Committing`: arm the epoch on every switch (idle switches are
    /// empty and swap on their next tick), then finish.
    fn commit(&mut self, sys: &mut System) -> Result<(), Crashed> {
        let tables = self.staged_candidate(sys)?;
        let ep = self.in_flight();
        let (epoch, masked_ports) = (ep.epoch, ep.masked.len());
        for k in 0..sys.switch_ctls.len() {
            let committed = sys.control(k, |ctl, _| ctl.commit(epoch));
            debug_assert!(committed, "a prepared epoch must commit");
            self.chaos_point()?; // the torn-install window
        }
        sys.tables = tables;
        let outcome = if masked_ports == 0 {
            EpisodeOutcome::Healed
        } else {
            EpisodeOutcome::Installed { masked_ports }
        };
        self.finish(sys, outcome)
    }

    /// `Aborting`: discard the staged epoch everywhere, then finish.
    fn abort(&mut self, sys: &mut System) -> Result<(), Crashed> {
        let epoch = self.in_flight().epoch;
        sys.control_all(|ctl, _| {
            ctl.abort(epoch);
        });
        self.finish(sys, EpisodeOutcome::Rejected)
    }

    /// The episode tail: lower the purge, set the post-episode fabric
    /// mode, ungate the hosts, and write the `finalized` record (whose
    /// apply updates counters, the event log, the masked set and the
    /// latency series in one atomic step, and closes the episode).
    fn finish(&mut self, sys: &mut System, outcome: EpisodeOutcome) -> Result<(), Crashed> {
        sys.control_all(|ctl, _| ctl.end_purge());
        let ep = self.in_flight();
        let (epoch, healthy) = (ep.epoch, ep.masked.is_empty());
        // Degrade whenever masked tables are (or should be) active: the
        // planner sends full-coverage sets as one worm anyway, so on cuts
        // that leave coverage intact this only costs the plan check. A
        // stale episode keeps whatever mode was already in force.
        if outcome != EpisodeOutcome::Stale {
            if healthy {
                sys.fabric_mode.heal();
            } else {
                sys.fabric_mode.degrade(DegradePlanner {
                    tables: sys.tables.clone(),
                    topo: sys.topology.clone(),
                    policy: sys.config.switch.policy,
                    max_hops: self.cfg.max_hops,
                });
            }
        }
        sys.fabric_mode.ungate();
        self.step(JournalRecord::Finalized {
            at: sys.engine.now(),
            epoch,
            outcome,
        })
    }

    /// In-memory effects of a `finalized` record.
    fn apply_finalized(
        &mut self,
        at: Cycle,
        detect: Cycle,
        masked: Vec<(SwitchId, usize)>,
        outcome: EpisodeOutcome,
    ) {
        match outcome {
            EpisodeOutcome::Installed { masked_ports } => {
                self.counters.reroutes += 1;
                self.events
                    .push(at, ResponseEvent::Rerouted { masked_ports });
                self.masked = masked;
            }
            EpisodeOutcome::Healed => {
                self.counters.heals += 1;
                self.events.push(at, ResponseEvent::Healed);
                self.masked = masked;
            }
            EpisodeOutcome::Rejected => self.masked = masked,
            EpisodeOutcome::Stale => {}
        }
        self.latency.record(at - detect);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_ring_evicts_oldest_and_counts_drops() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.push(i, ResponseEvent::Healed);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let cycles: Vec<Cycle> = log.iter().map(|&(c, _)| c).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert!(!log.is_empty());
    }

    #[test]
    fn event_log_restore_roundtrips() {
        let mut log = EventLog::new(2);
        for i in 0..5u64 {
            log.push(i, ResponseEvent::StaleDetect);
        }
        let restored = EventLog::restore(2, log.iter().cloned().collect(), log.dropped());
        assert_eq!(restored.len(), log.len());
        assert_eq!(restored.dropped(), log.dropped());
        assert!(restored.iter().eq(log.iter()));
    }

    /// The binary 2-tree: four hosts, two leaves, two roots.
    fn tiny() -> Topology {
        mintopo::karytree::KaryTree::new(2, 2).topology().clone()
    }

    /// A responder with no engine attached, vetting candidates on
    /// [`tiny`] — enough for state that never touches a live fabric.
    fn bare_responder() -> FaultResponder {
        let cfg = ResponseConfig::default();
        let events = EventLog::new(cfg.event_log_cap);
        let health = FabricHealth::new(cfg.debounce);
        let latency = Samples::with_cap(cfg.latency_cap);
        let journal = Journal::new(JournalConfig {
            snapshot_every: cfg.snapshot_every,
        });
        let vetter = crate::config::SystemConfig::default().vetter(Rc::new(tiny()));
        FaultResponder {
            cfg,
            health,
            masked: Vec::new(),
            fabric_ports: HashMap::new(),
            builder: None,
            events,
            counters: ResponseCounters::default(),
            suppressed: Vec::new(),
            fresh_confirmed: Vec::new(),
            retry_requested: false,
            latency,
            journal,
            last_epoch: 0,
            episode: None,
            vetter,
            chaos: None,
            recoveries: 0,
            recovery_ns: Samples::new(),
        }
    }

    #[test]
    fn event_log_capacity_floor_is_one() {
        let mut log = EventLog::new(0);
        log.push(1, ResponseEvent::Healed);
        log.push(2, ResponseEvent::StaleDetect);
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 1);
        assert!(matches!(
            log.iter().next(),
            Some((2, ResponseEvent::StaleDetect))
        ));
    }

    #[test]
    fn snapshot_digest_tracks_durable_state_only() {
        let mut a = bare_responder();
        let b = bare_responder();
        assert_eq!(a.state_digest(), b.state_digest());

        // Wall-clock-only state (vet stats and memo, recovery timings)
        // must not perturb the digest...
        a.vetter
            .vet(&[], &RouteTables::build(&tiny()))
            .expect("healthy tables vet");
        assert_eq!(a.vet_stats().structural_ns.count(), 1);
        a.recovery_ns.record(456);
        assert_eq!(a.state_digest(), b.state_digest());

        // ...while any durable bit does.
        a.counters.heals += 1;
        assert_ne!(a.state_digest(), b.state_digest());
    }
}

/// Helpers for scripting representative fabric outages in experiments and
/// tests: finding the directed root→leaf links whose loss exercises the
/// reroute (single cut) and degradation (crossed cut) paths.
pub mod outage {
    use super::System;
    use mintopo::reach::PortClass;
    use netsim::ids::{LinkId, NodeId, SwitchId};

    /// Switches with no up ports — the tree roots.
    pub fn roots(sys: &System) -> Vec<SwitchId> {
        (0..sys.topology.n_switches())
            .map(SwitchId::from)
            .filter(|&s| sys.tables.table(s).up_ports().is_empty())
            .collect()
    }

    /// The down output port of `sw` whose reach covers `host` and drives a
    /// fabric (switch→switch) link, with that link. `None` if `sw` only
    /// reaches `host` through an ejection port or not at all.
    pub fn down_port_to(sys: &System, sw: SwitchId, host: NodeId) -> Option<(usize, LinkId)> {
        let table = sys.tables.table(sw);
        (0..sys.topology.ports(sw)).find_map(|p| {
            let info = table.port(p);
            let link = sys.sw_out[sw.index()][p];
            (info.class == PortClass::Down
                && info.reach.contains(host)
                && sys.links.fabric.contains(&link))
            .then_some((p, link))
        })
    }

    /// One representative cut: the first root's down-link toward `host`'s
    /// leaf. Masked reroutes keep full worm coverage (every other root
    /// still reaches the leaf), so this exercises the pure reroute path.
    ///
    /// # Panics
    ///
    /// Panics if no root has a fabric down-link toward `host` (single-stage
    /// trees attach hosts directly to the roots).
    pub fn single_cut(sys: &System, host: NodeId) -> (LinkId, (SwitchId, usize)) {
        roots(sys)
            .into_iter()
            .find_map(|r| down_port_to(sys, r, host).map(|(p, l)| (l, (r, p))))
            .expect("some root must reach the host over a fabric link")
    }

    /// A crossed cut that leaves `d1` and `d2` (on different leaves)
    /// unicast-reachable but impossible to cover with one worm: half the
    /// roots lose their down-link toward `d1`'s leaf, the other half
    /// toward `d2`'s. Every root then misses one of the two subtrees, so
    /// no single ascent covers both — the degradation planner must peel.
    ///
    /// # Panics
    ///
    /// Panics if `d1` and `d2` share a leaf or fewer than two roots exist.
    pub fn crossed_cut(sys: &System, d1: NodeId, d2: NodeId) -> Vec<(LinkId, (SwitchId, usize))> {
        assert_ne!(
            sys.topology.host_inject(d1).0,
            sys.topology.host_inject(d2).0,
            "crossed cut needs destinations on different leaves"
        );
        let roots = roots(sys);
        assert!(roots.len() >= 2, "crossed cut needs at least two roots");
        let half = roots.len() / 2;
        roots
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| {
                let target = if i < half { d1 } else { d2 };
                down_port_to(sys, r, target).map(|(p, l)| (l, (r, p)))
            })
            .collect()
    }
}
