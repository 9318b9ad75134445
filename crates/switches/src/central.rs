//! The central-buffer switch architecture (paper §4).
//!
//! Modeled on the IBM SP2 High Performance Switch / SP Switch: each of the
//! `P` input ports has a small receiver staging FIFO; an unbuffered *bypass
//! crossbar* cuts unicast worms through to idle outputs; everything else
//! flows through a dynamically shared **central queue** organized as
//! fixed-size chunks chained into per-output lists.
//!
//! Multidestination enhancements (the paper's contribution):
//!
//! * a multidestination worm is **admitted only when the central queue can
//!   guarantee buffering the whole packet** — chunks are reserved up front,
//!   which realizes the deadlock-freedom condition "a packet accepted for
//!   transmission can eventually be completely buffered";
//! * its chunks are stored **once** and appended to *every* requested
//!   output's list; a per-chunk **reference count** frees a chunk when the
//!   slowest branch has drained it (asynchronous replication: granted
//!   branches stream while blocked branches wait, with no cross-branch
//!   dependence);
//! * the header is **rewritten per branch** at transmit time — each branch
//!   carries the original bit-string ANDed with its port's reachability
//!   string.
//!
//! Because the central queue is shared by all ports, the up*/down*
//! acyclicity of the routes alone does not prevent store-and-forward
//! deadlock between neighboring switches. Space accounting therefore
//! distinguishes *descending* packets (arriving from a parent; guaranteed
//! to drain toward hosts) from *ascending* ones: one maximum packet's worth
//! of chunks is reserved for descending traffic, and reservations are
//! granted through per-class accumulators ([`crate::semantics::CqState`],
//! the pure accounting core shared with the bounded model checker) so
//! streams of small packets cannot starve a large worm and partial
//! reservations can never block each other.

use crate::config::SwitchConfig;
use crate::ctl::SwitchCtl;
use crate::decode::{resolve_branches, HeaderClock};
use crate::semantics::{CqState, ReplState};
use crate::stats::{header_dests, BlockedWormSnap, SwitchSnapshot, SwitchStats};
use mintopo::reach::PortClass;
use mintopo::route::RouteTables;
use netsim::destset::DestSet;
use netsim::engine::{Component, PortIo};
use netsim::flit::Flit;
use netsim::header::RoutingHeader;
use netsim::ids::{MessageId, NodeId, PacketId, SwitchId, SWITCH_MSG_BIT};
use netsim::packet::{Packet, PacketBuilder};
use netsim::trace::{SemEvent, SemHandle};
use netsim::Cycle;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// One output branch of a packet stored in the central queue.
///
/// The shared writer-side state ([`ReplState`]) lives in
/// [`crate::semantics`]: branch readers never overtake `written`
/// (cut-through at flit granularity) and per-chunk reference counts free a
/// chunk when the slowest branch has drained it.
#[derive(Debug)]
struct CqBranch {
    /// Branch-rewritten packet descriptor (restricted bit-string header).
    pkt: Rc<Packet>,
    read: u16,
    write: Rc<RefCell<ReplState>>,
}

/// Per-input receiver state.
#[derive(Debug)]
enum InState {
    /// Waiting for a packet head at the staging front.
    Idle,
    /// Multidestination worm waiting for its full-packet reservation.
    AwaitReservation { pkt: Rc<Packet> },
    /// Unicast worm waiting for the routing decision.
    AwaitDecision { pkt: Rc<Packet>, entered: Cycle },
    /// Routed unicast worm waiting for its full-packet reservation.
    AwaitCqSpace { pkt: Rc<Packet>, port: usize },
    /// Streaming flits into the central queue.
    Absorbing {
        pkt: Rc<Packet>,
        write: Rc<RefCell<ReplState>>,
        entered: Cycle,
        decided: bool,
    },
    /// Streaming flits straight through the bypass crossbar.
    Bypass {
        pkt: Rc<Packet>,
        port: usize,
        sent: u16,
    },
    /// Consuming a barrier-gather worm (combined at this switch, not
    /// routed).
    ConsumeGather { pkt: Rc<Packet> },
}

#[derive(Debug)]
struct InputPort {
    staging: VecDeque<Flit>,
    clock: HeaderClock,
    state: InState,
}

#[derive(Debug)]
enum TxState {
    Idle,
    Stream(CqBranch),
    /// Held by an input streaming through the bypass crossbar.
    Bypass {
        input: usize,
    },
}

#[derive(Debug)]
struct OutputPort {
    queue: VecDeque<CqBranch>,
    state: TxState,
}

/// Per-switch barrier-gather combining state (the hardware-barrier
/// extension: §9 outlook / companion work \[34\]).
///
/// Gather worms arriving for a round are counted; once all `expected`
/// contributors (attached hosts plus child switches) have reported, the
/// switch emits — after the decode delay — one merged gather through its
/// first up port, or, at the combining root, the release broadcast to
/// every host.
#[derive(Debug)]
struct BarrierCombiner {
    expected: usize,
    n_hosts: usize,
    bits_per_flit: usize,
    counts: HashMap<u32, usize>,
    /// Emissions waiting for their combine delay and central-queue space.
    ready: VecDeque<(Cycle, u32)>,
    seq: u64,
}

impl BarrierCombiner {
    fn on_gather(&mut self, round: u32, emit_at: Cycle) {
        let c = self.counts.entry(round).or_insert(0);
        *c += 1;
        if *c == self.expected {
            self.counts.remove(&round);
            self.ready.push_back((emit_at, round));
        }
    }
}

/// A central-buffer switch with multidestination-worm support.
pub struct CentralBufferSwitch {
    id: SwitchId,
    cfg: SwitchConfig,
    tables: Rc<RouteTables>,
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    cq: CqState,
    barrier: Option<BarrierCombiner>,
    stats: Rc<RefCell<SwitchStats>>,
    ctl: Option<Rc<SwitchCtl>>,
    sem: Option<SemHandle>,
    rr: usize,
    /// Cycle of the last executed tick — the skip-invariance watermark.
    /// The engine may skip ticks while the switch is quiescent;
    /// the gap since `last_tick` replays exactly what those ticks would
    /// have done (advance `rr`, observe zero occupancy).
    last_tick: Cycle,
}

impl CentralBufferSwitch {
    /// Creates the switch.
    ///
    /// `io` port `i` of the engine binding must be the link arriving at /
    /// leaving switch port `i`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SwitchConfig::validate`] or its
    /// port count disagrees with the routing table.
    pub fn new(
        id: SwitchId,
        cfg: SwitchConfig,
        tables: Rc<RouteTables>,
        stats: Rc<RefCell<SwitchStats>>,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid switch config: {e}"));
        assert_eq!(
            tables.table(id).n_ports(),
            cfg.ports,
            "routing table port count mismatch for {id}"
        );
        CentralBufferSwitch {
            id,
            cq: CqState::new(cfg.cq_chunks, cfg.cq_down_reserve()),
            barrier: None,
            inputs: (0..cfg.ports)
                .map(|_| InputPort {
                    staging: VecDeque::new(),
                    clock: HeaderClock::default(),
                    state: InState::Idle,
                })
                .collect(),
            outputs: (0..cfg.ports)
                .map(|_| OutputPort {
                    queue: VecDeque::new(),
                    state: TxState::Idle,
                })
                .collect(),
            cfg,
            tables,
            stats,
            ctl: None,
            sem: None,
            rr: 0,
            last_tick: 0,
        }
    }

    /// Replays the per-cycle bookkeeping of `n` skipped idle ticks: each
    /// would have advanced the allocation round-robin by one and observed
    /// zero central-queue occupancy (quiescence guarantees the queue was
    /// empty throughout). Keeps skipped runs bit-identical to ticked ones.
    fn replay_idle_cycles(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.rr = (self.rr + (n % self.cfg.ports as u64) as usize) % self.cfg.ports;
        self.stats.borrow_mut().cq_used_chunks.observe_n(0, n);
    }

    /// Attaches the out-of-band control cell (see [`SwitchCtl`]) through
    /// which the fault-response orchestrator requests purges and stages
    /// routing-table swaps.
    pub fn set_ctl(&mut self, ctl: Rc<SwitchCtl>) {
        self.ctl = Some(ctl);
    }

    /// Attaches a semantic trace buffer: every central-queue reservation
    /// attempt, chunk release, and purge is recorded as a structured
    /// [`SemEvent`] for the trace-conformance replay (refinement check
    /// against the pure [`CqState`] machine).
    pub fn set_sem_trace(&mut self, sem: SemHandle) {
        self.sem = Some(sem);
    }

    /// No staged flits, no resident worms, every chunk free, no pending
    /// barrier emission: safe to swap routing tables.
    fn empty_now(&self) -> bool {
        self.inputs
            .iter()
            .all(|inp| inp.staging.is_empty() && matches!(inp.state, InState::Idle))
            && self
                .outputs
                .iter()
                .all(|o| o.queue.is_empty() && matches!(o.state, TxState::Idle))
            && self.cq.free() == self.cfg.cq_chunks
            && self.barrier.as_ref().is_none_or(|b| b.ready.is_empty())
    }

    /// Kills every resident worm: staged flits are dropped with one credit
    /// returned upstream each (link-level conservation holds), output
    /// branches and accumulated reservations are discarded, and the chunk
    /// pool is reset to pristine. Also swallows the at-most-one flit
    /// arriving this cycle, so in-flight link stragglers cannot wedge a
    /// half-dead worm back into the receiver FSM.
    fn purge(&mut self, now: Cycle, io: &mut PortIo<'_>) {
        let mut flits = 0u64;
        let mut worms = 0u64;
        for (i, input) in self.inputs.iter_mut().enumerate() {
            if io.recv(i).is_some() {
                io.return_credit(i);
                flits += 1;
            }
            while input.staging.pop_front().is_some() {
                io.return_credit(i);
                flits += 1;
            }
            if !matches!(input.state, InState::Idle) {
                worms += 1;
                input.state = InState::Idle;
            }
            input.clock = HeaderClock::default();
        }
        for out in self.outputs.iter_mut() {
            worms += out.queue.len() as u64;
            out.queue.clear();
            if matches!(out.state, TxState::Stream(_)) {
                worms += 1;
            }
            out.state = TxState::Idle;
        }
        if let Some(bar) = self.barrier.as_mut() {
            worms += bar.ready.len() as u64;
            bar.ready.clear();
        }
        self.cq = CqState::new(self.cfg.cq_chunks, self.cfg.cq_down_reserve());
        if let Some(t) = &self.sem {
            t.borrow_mut().log(now, SemEvent::CqPurge { sw: self.id.0 });
        }
        if flits + worms > 0 {
            let mut st = self.stats.borrow_mut();
            st.purged_flits += flits;
            st.purged_worms += worms;
        }
    }

    /// Switch identity.
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// Chunks currently free (not holding data, not reserved).
    pub fn free_chunks(&self) -> usize {
        self.cq.free()
    }

    /// Enables barrier-gather combining at this switch: it will consume
    /// arriving gather worms and, once `expected` contributors of a round
    /// have reported, emit one merged gather upward — or, if this switch
    /// has no up ports (the combining root), a release broadcast to all
    /// `n_hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `expected == 0`.
    pub fn enable_barrier_combining(
        &mut self,
        expected: usize,
        n_hosts: usize,
        bits_per_flit: usize,
    ) {
        assert!(expected > 0, "combining switch must expect gathers");
        self.barrier = Some(BarrierCombiner {
            expected,
            n_hosts,
            bits_per_flit,
            counts: HashMap::new(),
            ready: VecDeque::new(),
            seq: 0,
        });
    }
}

impl Component for CentralBufferSwitch {
    #[allow(clippy::needless_range_loop)] // index loops enable split borrows across ports
    fn tick(&mut self, now: Cycle, io: &mut PortIo<'_>) {
        // Catch up cycles the engine skipped while this switch
        // slept (always zero when ticked every cycle). A sleeping switch
        // is never purging, so the skipped ticks were plain idle ticks.
        self.replay_idle_cycles(now - self.last_tick - 1);
        self.last_tick = now;
        if let Some(ctl) = self.ctl.clone() {
            if ctl.purging() {
                self.purge(now, io);
                ctl.set_empty(true);
                let mut st = self.stats.borrow_mut();
                st.cq_used_chunks.observe(self.cq.used() as u64);
                st.cq_free_now = self.cq.free();
                return;
            }
            if ctl.tables_pending() && self.empty_now() {
                let (_epoch, tables) = ctl.take_committed().expect("pending checked");
                assert_eq!(
                    tables.table(self.id).n_ports(),
                    self.cfg.ports,
                    "swapped routing table port count mismatch for {}",
                    self.id
                );
                self.tables = tables;
            }
        }
        let ports = self.cfg.ports;
        let chunk_flits = self.cfg.chunk_flits;
        let CentralBufferSwitch {
            cfg,
            tables,
            inputs,
            outputs,
            cq,
            barrier,
            stats,
            ctl,
            sem,
            rr,
            id,
            ..
        } = self;
        let table = tables.table(*id);

        // --- Transmitters first: they observe last cycle's write progress,
        // modeling one cycle of latency through the central queue RAM.
        for p in 0..ports {
            let out = &mut outputs[p];
            if matches!(out.state, TxState::Idle) {
                if let Some(branch) = out.queue.pop_front() {
                    out.state = TxState::Stream(branch);
                }
            }
            if let TxState::Stream(branch) = &mut out.state {
                if io.can_send(p) {
                    let written = branch.write.borrow().written;
                    if branch.read < written {
                        io.send(p, Flit::new(branch.pkt.clone(), branch.read));
                        branch.read += 1;
                        let mut st = stats.borrow_mut();
                        st.flits_sent += 1;
                        drop(st);
                        let total = branch.pkt.total_flits();
                        if branch.read % chunk_flits == 0 || branch.read == total {
                            let idx = usize::from((branch.read - 1) / chunk_flits);
                            if branch.write.borrow_mut().release(idx) {
                                cq.release_chunk();
                                if let Some(t) = sem {
                                    t.borrow_mut().log(
                                        now,
                                        SemEvent::CqRelease {
                                            sw: id.0,
                                            free_after: cq.free(),
                                        },
                                    );
                                }
                            }
                        }
                        if branch.read == total {
                            out.state = TxState::Idle;
                        }
                    }
                }
            }
        }

        // --- Barrier-combiner emissions: merged gathers / the release
        //     broadcast, subject to the usual full-packet reservation. The
        //     virtual input id `cfg.ports` keeps the reservation
        //     accumulator slots distinct from real inputs.
        if let Some(bar) = barrier.as_mut() {
            while let Some(&(at, round)) = bar.ready.front() {
                if at > now {
                    break;
                }
                let is_root = table.up_ports().is_empty();
                let header = if is_root {
                    RoutingHeader::BitString {
                        dests: DestSet::full(bar.n_hosts),
                    }
                } else {
                    RoutingHeader::BarrierGather { round }
                };
                let total = header.header_flits(bar.n_hosts, bar.bits_per_flit) as u16;
                let need = cfg.chunks_for(total);
                let granted = cq.try_reserve(cfg.ports, need, true);
                if let Some(t) = sem {
                    t.borrow_mut().log(
                        now,
                        SemEvent::CqReserve {
                            sw: id.0,
                            input: cfg.ports,
                            need,
                            descending: true,
                            granted,
                            free_after: cq.free(),
                        },
                    );
                }
                if !granted {
                    break; // retry next cycle; order within the queue holds
                }
                bar.ready.pop_front();
                bar.seq += 1;
                let tag = SWITCH_MSG_BIT | (u64::from(id.0) << 32) | (bar.seq & 0xFFFF_FFFF);
                let pkt = Rc::new(
                    PacketBuilder::new(NodeId(0), header, 0, bar.n_hosts)
                        .bits_per_flit(bar.bits_per_flit)
                        .id(PacketId(tag))
                        .msg(MessageId(tag))
                        .created(now)
                        .build(),
                );
                let branches = if is_root {
                    let metrics: Vec<u64> = outputs
                        .iter()
                        .map(|o| {
                            o.queue.len() as u64 * 4
                                + match o.state {
                                    TxState::Idle => 0,
                                    _ => 2,
                                }
                        })
                        .collect();
                    resolve_branches(&pkt, table, cfg.policy, cfg.up_select, |p| metrics[p])
                } else {
                    vec![(table.up_ports()[0], pkt.clone())]
                };
                let write = Rc::new(RefCell::new(ReplState::synthesized(
                    total,
                    chunk_flits,
                    branches.len(),
                )));
                let mut st = stats.borrow_mut();
                st.branches_created += branches.len() as u64;
                if branches.len() > 1 {
                    st.packets_replicated += 1;
                }
                drop(st);
                for (port, bpkt) in branches {
                    outputs[port].queue.push_back(CqBranch {
                        pkt: bpkt,
                        read: 0,
                        write: write.clone(),
                    });
                }
            }
        }

        // --- Inputs, starting at a rotating offset for fairness.
        for k in 0..ports {
            let i = (k + *rr) % ports;
            let InputPort {
                staging,
                clock,
                state,
            } = &mut inputs[i];

            // Accept at most one arriving flit (link bandwidth).
            if let Some(flit) = io.recv(i) {
                clock.on_arrival(&flit, now);
                staging.push_back(flit);
                debug_assert!(
                    staging.len() <= cfg.staging_flits as usize,
                    "staging overflow: credit window violated"
                );
            }

            // Idle -> start processing the packet at the staging front.
            if matches!(state, InState::Idle) {
                if let Some(front) = staging.front() {
                    assert!(front.is_head(), "staging front must be a packet head");
                    let pkt = front.packet().clone();
                    assert!(
                        pkt.total_flits() <= cfg.max_packet_flits,
                        "packet {} exceeds the configured max packet size",
                        pkt.id()
                    );
                    *state = if matches!(pkt.header(), RoutingHeader::BarrierGather { .. }) {
                        assert!(
                            barrier.is_some(),
                            "barrier gather arrived at non-combining switch {id}"
                        );
                        InState::ConsumeGather { pkt }
                    } else if pkt.header().is_multidestination() {
                        InState::AwaitReservation { pkt }
                    } else {
                        InState::AwaitDecision { pkt, entered: now }
                    };
                }
            }

            // Barrier gathers are combined, not routed: swallow the flits
            // and bump the round counter at the tail.
            if let InState::ConsumeGather { pkt } = state {
                let belongs = staging.front().is_some_and(|f| f.packet().id() == pkt.id());
                if belongs {
                    let flit = staging.pop_front().expect("front present");
                    io.return_credit(i);
                    if flit.is_tail() {
                        let RoutingHeader::BarrierGather { round } = pkt.header() else {
                            unreachable!("ConsumeGather holds a gather packet");
                        };
                        barrier
                            .as_mut()
                            .expect("checked at interception")
                            .on_gather(*round, now + u64::from(cfg.route_delay));
                        clock.forget(pkt.id());
                        *state = InState::Idle;
                    }
                }
            }

            // Reservation for multidestination worms.
            if let InState::AwaitReservation { pkt } = state {
                let need = cfg.chunks_for(pkt.total_flits());
                let descending = table.port(i).class == PortClass::Up;
                let granted = cq.try_reserve(i, need, descending);
                if let Some(t) = sem {
                    t.borrow_mut().log(
                        now,
                        SemEvent::CqReserve {
                            sw: id.0,
                            input: i,
                            need,
                            descending,
                            granted,
                            free_after: cq.free(),
                        },
                    );
                }
                if granted {
                    let write =
                        Rc::new(RefCell::new(ReplState::new(pkt.total_flits(), chunk_flits)));
                    *state = InState::Absorbing {
                        pkt: pkt.clone(),
                        write,
                        entered: now,
                        decided: false,
                    };
                } else {
                    stats.borrow_mut().reservation_wait_cycles += 1;
                }
            }

            // Unicast routing decision: bypass or central queue.
            if let InState::AwaitDecision { pkt, entered } = state {
                let ready = clock
                    .done_at(pkt.id())
                    .is_some_and(|t| now >= t.max(*entered) + u64::from(cfg.route_delay));
                if ready {
                    let metrics: Vec<u64> = outputs
                        .iter()
                        .map(|o| {
                            o.queue.len() as u64 * 4
                                + match o.state {
                                    TxState::Idle => 0,
                                    _ => 2,
                                }
                        })
                        .collect();
                    let branches =
                        resolve_branches(pkt, table, cfg.policy, cfg.up_select, |p| metrics[p]);
                    debug_assert_eq!(branches.len(), 1, "unicast has one branch");
                    let (port, bpkt) = branches.into_iter().next().expect("one branch");
                    stats.borrow_mut().branches_created += 1;
                    let out = &mut outputs[port];
                    let can_bypass = cfg.bypass_crossbar
                        && out.queue.is_empty()
                        && matches!(out.state, TxState::Idle);
                    if can_bypass {
                        out.state = TxState::Bypass { input: i };
                        *state = InState::Bypass {
                            pkt: bpkt,
                            port,
                            sent: 0,
                        };
                    } else {
                        *state = InState::AwaitCqSpace { pkt: bpkt, port };
                    }
                }
            }

            // Unicast central-queue admission: the same full-packet
            // reservation multidestination worms get — the paper's
            // "accepted implies completely bufferable" condition applied
            // uniformly, which is what keeps the shared queue live (a
            // partially absorbed packet stalling mid-write could otherwise
            // wedge an upstream bypass and cycle between stages).
            if let InState::AwaitCqSpace { pkt, port } = state {
                let need = cfg.chunks_for(pkt.total_flits());
                let descending = table.port(i).class == PortClass::Up;
                let granted = cq.try_reserve(i, need, descending);
                if let Some(t) = sem {
                    t.borrow_mut().log(
                        now,
                        SemEvent::CqReserve {
                            sw: id.0,
                            input: i,
                            need,
                            descending,
                            granted,
                            free_after: cq.free(),
                        },
                    );
                }
                if granted {
                    let write =
                        Rc::new(RefCell::new(ReplState::new(pkt.total_flits(), chunk_flits)));
                    write.borrow_mut().set_branches(1);
                    outputs[*port].queue.push_back(CqBranch {
                        pkt: pkt.clone(),
                        read: 0,
                        write: write.clone(),
                    });
                    *state = InState::Absorbing {
                        pkt: pkt.clone(),
                        write,
                        entered: now,
                        decided: true,
                    };
                } else {
                    stats.borrow_mut().reservation_wait_cycles += 1;
                }
            }

            // Absorption into the central queue (and the deferred
            // replication decision for multidestination worms).
            if let InState::Absorbing {
                pkt,
                write,
                entered,
                decided,
            } = state
            {
                if !*decided {
                    let ready = clock
                        .done_at(pkt.id())
                        .is_some_and(|t| now >= t.max(*entered) + u64::from(cfg.route_delay));
                    if ready {
                        let metrics: Vec<u64> = outputs
                            .iter()
                            .map(|o| {
                                o.queue.len() as u64 * 4
                                    + match o.state {
                                        TxState::Idle => 0,
                                        _ => 2,
                                    }
                            })
                            .collect();
                        let branches =
                            resolve_branches(pkt, table, cfg.policy, cfg.up_select, |p| metrics[p]);
                        write.borrow_mut().set_branches(branches.len());
                        let mut st = stats.borrow_mut();
                        st.branches_created += branches.len() as u64;
                        if branches.len() > 1 {
                            st.packets_replicated += 1;
                        }
                        drop(st);
                        for (port, bpkt) in branches {
                            outputs[port].queue.push_back(CqBranch {
                                pkt: bpkt,
                                read: 0,
                                write: write.clone(),
                            });
                        }
                        *decided = true;
                    }
                }
                // Move one flit staging -> central queue.
                let belongs = staging.front().is_some_and(|f| f.packet().id() == pkt.id());
                if belongs {
                    // Chunk space is guaranteed: every packet reserved its
                    // full chunk demand at admission.
                    write.borrow_mut().write_flit();
                    staging.pop_front();
                    io.return_credit(i);
                }
                // Retire only once fully absorbed AND the replication
                // decision has been made — a short worm can finish
                // absorbing before its header-decode delay elapses, and
                // leaving early would orphan it in the central queue.
                let complete = {
                    let w = write.borrow();
                    w.written == w.total
                };
                if *decided && complete {
                    clock.forget(pkt.id());
                    *state = InState::Idle;
                }
            }

            // Bypass streaming: staging straight onto the output link.
            if let InState::Bypass { pkt, port, sent } = state {
                let belongs = staging.front().is_some_and(|f| f.packet().id() == pkt.id());
                if belongs && io.can_send(*port) {
                    let flit = staging.pop_front().expect("front present");
                    io.send(*port, flit);
                    io.return_credit(i);
                    *sent += 1;
                    let mut st = stats.borrow_mut();
                    st.flits_sent += 1;
                    st.bypass_flits += 1;
                    drop(st);
                    if *sent == pkt.total_flits() {
                        if let TxState::Bypass { input } = outputs[*port].state {
                            debug_assert_eq!(input, i, "bypass owner mismatch");
                        }
                        outputs[*port].state = TxState::Idle;
                        clock.forget(pkt.id());
                        *state = InState::Idle;
                    }
                }
            }
        }

        *rr = (*rr + 1) % ports;

        if stats.borrow().forensics_requested {
            let snap_worm = |input: Option<usize>,
                             pkt: &Rc<Packet>,
                             state: &'static str,
                             holds: Vec<usize>,
                             waits: Vec<usize>| BlockedWormSnap {
                input,
                packet: pkt.id().0,
                msg: pkt.msg().0,
                src: pkt.src().0,
                state,
                remaining_dests: header_dests(pkt),
                holds_outputs: holds,
                waits_outputs: waits,
            };
            // Worms waiting on central-queue space block until these outputs
            // drain the chunks they hold.
            let drain_outputs: Vec<usize> = (0..ports)
                .filter(|&p| {
                    !outputs[p].queue.is_empty() || !matches!(outputs[p].state, TxState::Idle)
                })
                .collect();
            let mut blocked = Vec::new();
            for (i, input) in inputs.iter().enumerate() {
                match &input.state {
                    InState::Idle | InState::ConsumeGather { .. } => {}
                    InState::AwaitReservation { pkt } => blocked.push(snap_worm(
                        Some(i),
                        pkt,
                        "await-cq-reservation",
                        Vec::new(),
                        drain_outputs.clone(),
                    )),
                    InState::AwaitDecision { pkt, .. } => blocked.push(snap_worm(
                        Some(i),
                        pkt,
                        "await-route-decision",
                        Vec::new(),
                        Vec::new(),
                    )),
                    InState::AwaitCqSpace { pkt, .. } => blocked.push(snap_worm(
                        Some(i),
                        pkt,
                        "await-cq-space",
                        Vec::new(),
                        drain_outputs.clone(),
                    )),
                    InState::Absorbing { pkt, .. } => {
                        blocked.push(snap_worm(Some(i), pkt, "absorbing", Vec::new(), Vec::new()))
                    }
                    InState::Bypass { pkt, port, .. } => blocked.push(snap_worm(
                        Some(i),
                        pkt,
                        "bypass-blocked",
                        vec![*port],
                        vec![*port],
                    )),
                }
            }
            for (p, out) in outputs.iter().enumerate() {
                if let TxState::Stream(b) = &out.state {
                    if !io.can_send(p) {
                        blocked.push(snap_worm(
                            None,
                            &b.pkt,
                            "cq-stream-blocked",
                            Vec::new(),
                            vec![p],
                        ));
                    }
                }
                for b in &out.queue {
                    blocked.push(snap_worm(None, &b.pkt, "cq-queued", Vec::new(), vec![p]));
                }
            }
            let mut st = stats.borrow_mut();
            st.forensics_requested = false;
            st.forensics = Some(SwitchSnapshot {
                cq_used_chunks: cq.used(),
                cq_free_chunks: cq.free(),
                input_occupancy: inputs.iter().map(|i| i.staging.len() as u32).collect(),
                blocked,
            });
        }

        let mut st = stats.borrow_mut();
        st.cq_used_chunks.observe(cq.used() as u64);
        st.cq_free_now = cq.free();
        drop(st);

        if let Some(ctl) = ctl {
            let empty = inputs
                .iter()
                .all(|inp| inp.staging.is_empty() && matches!(inp.state, InState::Idle))
                && outputs
                    .iter()
                    .all(|o| o.queue.is_empty() && matches!(o.state, TxState::Idle))
                && cq.free() == cfg.cq_chunks
                && barrier.as_ref().is_none_or(|b| b.ready.is_empty());
            ctl.set_empty(empty);
        }
    }

    /// An empty switch with no control-plane work pending does nothing
    /// per tick beyond the idle bookkeeping `replay_idle_cycles` replays —
    /// safe for the engine to skip until traffic or a wake
    /// arrives. Purging and pending table swaps keep it awake because
    /// those act on every tick.
    fn quiescent(&self) -> bool {
        self.empty_now()
            && self
                .ctl
                .as_ref()
                .is_none_or(|c| !c.purging() && !c.tables_pending())
    }

    /// End-of-run catch-up for skipped idle ticks (see [`Component::flush`]).
    fn flush(&mut self, now: Cycle) {
        self.replay_idle_cycles(now - self.last_tick);
        self.last_tick = now;
    }

    /// Reports the two-phase install state off the control cell so the
    /// engine's torn-install audit can compare epochs across the fabric.
    fn epoch_status(&self) -> Option<netsim::engine::EpochStatus> {
        self.ctl.as_ref().map(|c| netsim::engine::EpochStatus {
            committed: c.committed_epoch(),
            pending: c.pending_commit(),
        })
    }
}

impl std::fmt::Debug for CentralBufferSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CentralBufferSwitch({}, {} ports, {}/{} chunks free)",
            self.id,
            self.cfg.ports,
            self.cq.free(),
            self.cfg.cq_chunks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{single_switch_world, sink_flits, TestWorld};
    use mintopo::route::ReplicatePolicy;
    use netsim::destset::DestSet;
    use netsim::ids::NodeId;
    use netsim::packet::PacketBuilder;

    fn world(cfg: SwitchConfig) -> TestWorld {
        let credits = cfg.staging_flits;
        single_switch_world(4, cfg, credits, |id, cfg, tables, stats| {
            Box::new(CentralBufferSwitch::new(id, cfg, tables, stats))
        })
    }

    #[test]
    fn unicast_delivery_via_bypass() {
        let mut w = world(SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        });
        let pkt = PacketBuilder::unicast(NodeId(0), NodeId(2), 16, 4)
            .id(netsim::ids::PacketId(1))
            .build();
        w.inject(0, pkt);
        w.engine.run_for(100);
        assert_eq!(sink_flits(&w, 2), 18); // 2 header + 16 payload
        assert_eq!(sink_flits(&w, 1), 0);
        let st = w.stats.borrow();
        assert!(st.bypass_flits > 0, "idle output should use the bypass");
    }

    #[test]
    fn unicast_without_bypass_goes_through_cq() {
        let mut w = world(SwitchConfig {
            ports: 4,
            bypass_crossbar: false,
            ..SwitchConfig::default()
        });
        let pkt = PacketBuilder::unicast(NodeId(0), NodeId(2), 16, 4).build();
        w.inject(0, pkt);
        w.engine.run_for(100);
        assert_eq!(sink_flits(&w, 2), 18);
        assert_eq!(w.stats.borrow().bypass_flits, 0);
        assert!(w.stats.borrow().cq_used_chunks.max() > 0);
    }

    #[test]
    fn multicast_replicates_to_all_destinations() {
        let mut w = world(SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        });
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        let pkt = PacketBuilder::multicast(NodeId(0), dests, 32).build();
        let total = pkt.total_flits() as usize;
        w.inject(0, pkt);
        w.engine.run_for(200);
        for h in 1..4 {
            assert_eq!(sink_flits(&w, h), total, "host {h}");
        }
        assert_eq!(sink_flits(&w, 0), 0, "source gets no copy");
        let st = w.stats.borrow();
        assert_eq!(st.packets_replicated, 1);
        assert_eq!(st.branches_created, 3);
    }

    #[test]
    fn chunks_are_all_freed_after_multicast() {
        let cfg = SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        };
        let total_chunks = cfg.cq_chunks;
        let mut w = world(cfg);
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        w.inject(0, PacketBuilder::multicast(NodeId(0), dests, 40).build());
        w.engine.run_for(300);
        assert_eq!(
            w.stats.borrow().cq_free_now,
            total_chunks,
            "all chunks returned to the pool"
        );
    }

    #[test]
    fn tiny_central_queue_still_delivers_multicast() {
        // Queue barely fits one packet: reservation must serialize worms,
        // not deadlock.
        let cfg = SwitchConfig {
            ports: 4,
            cq_chunks: 12,
            chunk_flits: 8,
            max_packet_flits: 48,
            input_buf_flits: 48,
            ..SwitchConfig::default()
        };
        let mut w = world(cfg);
        let d1 = DestSet::from_nodes(4, [2, 3].map(NodeId));
        let d2 = DestSet::from_nodes(4, [0, 3].map(NodeId));
        let p1 = PacketBuilder::multicast(NodeId(0), d1, 32)
            .id(netsim::ids::PacketId(1))
            .build();
        let p2 = PacketBuilder::multicast(NodeId(1), d2, 32)
            .id(netsim::ids::PacketId(2))
            .build();
        let (t1, t2) = (p1.total_flits() as usize, p2.total_flits() as usize);
        w.inject(0, p1);
        w.inject(1, p2);
        w.engine.run_for(600);
        assert_eq!(sink_flits(&w, 2), t1);
        assert_eq!(sink_flits(&w, 3), t1 + t2);
        assert_eq!(sink_flits(&w, 0), t2);
        assert!(w.stats.borrow().reservation_wait_cycles > 0);
    }

    #[test]
    fn forward_and_return_policy_accepted() {
        let mut w = world(SwitchConfig {
            ports: 4,
            policy: ReplicatePolicy::ForwardAndReturn,
            ..SwitchConfig::default()
        });
        let dests = DestSet::from_nodes(4, [1, 3].map(NodeId));
        let pkt = PacketBuilder::multicast(NodeId(0), dests, 8).build();
        let total = pkt.total_flits() as usize;
        w.inject(0, pkt);
        w.engine.run_for(100);
        assert_eq!(sink_flits(&w, 1), total);
        assert_eq!(sink_flits(&w, 3), total);
    }

    #[test]
    fn barrier_combining_single_switch_round_trip() {
        // Four hosts on one combining switch (it has no up ports, so it is
        // the combining root): four gather worms in, one broadcast release
        // out to every host.
        use netsim::header::RoutingHeader;
        let cfg = SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        };
        let credits = cfg.staging_flits;
        let mut w = single_switch_world(4, cfg, credits, |id, cfg, tables, stats| {
            let mut sw = CentralBufferSwitch::new(id, cfg, tables, stats);
            sw.enable_barrier_combining(4, 4, 8);
            Box::new(sw)
        });
        for h in 0..4u32 {
            let pkt =
                PacketBuilder::new(NodeId(h), RoutingHeader::BarrierGather { round: 0 }, 0, 4)
                    .id(netsim::ids::PacketId(u64::from(h) + 1))
                    .build();
            w.inject(h as usize, pkt);
        }
        w.engine.run_for(200);
        // Release = BitString to 4 hosts over a 4-node universe: 1 control
        // + 1 bit-string flit = 2 flits per copy; gathers are consumed.
        for h in 0..4 {
            assert_eq!(sink_flits(&w, h), 2, "host {h} got exactly the release");
        }
        let st = w.stats.borrow();
        assert_eq!(st.packets_replicated, 1, "one release broadcast");
        assert_eq!(st.cq_free_now, 128, "all chunks recycled");
    }

    #[test]
    fn gathers_of_distinct_rounds_do_not_mix() {
        use netsim::header::RoutingHeader;
        let cfg = SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        };
        let credits = cfg.staging_flits;
        let mut w = single_switch_world(4, cfg, credits, |id, cfg, tables, stats| {
            let mut sw = CentralBufferSwitch::new(id, cfg, tables, stats);
            sw.enable_barrier_combining(4, 4, 8);
            Box::new(sw)
        });
        // Three gathers of round 0 and one of round 1: no release yet.
        for (i, round) in [(0u32, 0u32), (1, 0), (2, 0), (3, 1)] {
            let pkt = PacketBuilder::new(NodeId(i), RoutingHeader::BarrierGather { round }, 0, 4)
                .id(netsim::ids::PacketId(u64::from(i) + 10))
                .build();
            w.inject(i as usize, pkt);
        }
        w.engine.run_for(200);
        for h in 0..4 {
            assert_eq!(sink_flits(&w, h), 0, "no round completed");
        }
        // The missing round-0 gather completes round 0 only.
        let pkt = PacketBuilder::new(NodeId(3), RoutingHeader::BarrierGather { round: 0 }, 0, 4)
            .id(netsim::ids::PacketId(99))
            .build();
        w.inject(3, pkt);
        w.engine.run_for(200);
        for h in 0..4 {
            assert_eq!(sink_flits(&w, h), 2, "round 0 released once");
        }
    }

    #[test]
    fn two_unicasts_to_same_output_serialize() {
        let mut w = world(SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        });
        let a = PacketBuilder::unicast(NodeId(0), NodeId(3), 24, 4)
            .id(netsim::ids::PacketId(10))
            .build();
        let b = PacketBuilder::unicast(NodeId(1), NodeId(3), 24, 4)
            .id(netsim::ids::PacketId(11))
            .build();
        let per = a.total_flits() as usize;
        w.inject(0, a);
        w.inject(1, b);
        w.engine.run_for(300);
        assert_eq!(sink_flits(&w, 3), 2 * per);
    }

    fn ctl_world(cfg: SwitchConfig) -> (Rc<SwitchCtl>, TestWorld) {
        let credits = cfg.staging_flits;
        let ctl = SwitchCtl::new();
        let c = ctl.clone();
        let w = single_switch_world(4, cfg, credits, move |id, cfg, tables, stats| {
            let mut sw = CentralBufferSwitch::new(id, cfg, tables, stats);
            sw.set_ctl(c);
            Box::new(sw)
        });
        (ctl, w)
    }

    #[test]
    fn purge_kills_resident_worm_and_restores_credits() {
        let cfg = SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        };
        let total_chunks = cfg.cq_chunks;
        let (ctl, mut w) = ctl_world(cfg);
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        let pkt = PacketBuilder::multicast(NodeId(0), dests, 40).build();
        let total = pkt.total_flits() as u64;
        w.inject(0, pkt);
        // Let the worm get partially absorbed, then purge. The source keeps
        // streaming the rest of the packet; swallow mode must absorb every
        // straggler (each one earns a credit back, so the source drains).
        w.engine.run_for(10);
        w.engine.control(0, || ctl.begin_purge());
        w.engine.run_for(total + 20);
        w.engine.control(0, || ctl.end_purge());
        assert!(ctl.is_empty(), "purged switch reports empty");
        {
            let st = w.stats.borrow();
            assert!(st.purged_flits > 0, "staged/straggler flits were killed");
            assert!(st.purged_worms >= 1, "the resident worm was killed");
            assert_eq!(st.cq_free_now, total_chunks, "chunk pool reset");
        }
        // Fresh traffic proves every upstream credit came back.
        let before = sink_flits(&w, 2);
        let pkt = PacketBuilder::unicast(NodeId(0), NodeId(2), 16, 4)
            .id(netsim::ids::PacketId(77))
            .build();
        let t2 = pkt.total_flits() as usize;
        w.inject(0, pkt);
        w.engine.run_for(100);
        assert_eq!(sink_flits(&w, 2) - before, t2, "post-purge delivery");
    }

    #[test]
    fn pending_table_swap_waits_for_empty_then_reroutes() {
        use mintopo::reach::{PortClass, PortInfo};
        use mintopo::route::SwitchTable;
        let (ctl, mut w) = ctl_world(SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        });
        // Occupy the switch with a long multicast, then stage a swap in
        // which ports 1 and 2 trade reach strings.
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        w.inject(0, PacketBuilder::multicast(NodeId(0), dests, 60).build());
        w.engine.run_for(10);
        let down = |n: u32| PortInfo {
            class: PortClass::Down,
            reach: DestSet::singleton(4, NodeId(n)),
        };
        let swapped = RouteTables::from_tables(
            vec![SwitchTable::from_ports(
                vec![down(0), down(2), down(1), down(3)],
                4,
            )],
            4,
        );
        w.engine.control(0, || {
            ctl.prepare(1, Rc::new(swapped));
            assert!(ctl.commit(1));
        });
        w.engine.run_for(3);
        assert!(ctl.tables_pending(), "switch is busy; swap must wait");
        w.engine.run_for(400);
        assert!(!ctl.tables_pending(), "swap applied once empty");
        assert!(ctl.is_empty());
        // Traffic for host 1 now leaves through port 2.
        let before = sink_flits(&w, 2);
        let pkt = PacketBuilder::unicast(NodeId(0), NodeId(1), 8, 4)
            .id(netsim::ids::PacketId(9))
            .build();
        let t = pkt.total_flits() as usize;
        w.inject(0, pkt);
        w.engine.run_for(100);
        assert_eq!(sink_flits(&w, 2) - before, t, "rerouted by the new table");
    }
}
