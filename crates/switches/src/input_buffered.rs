//! The input-buffer switch architecture (paper §5).
//!
//! Each input port owns a private FIFO at least one maximum-size packet
//! deep (the paper gives both architectures the same *total* storage, so
//! the central queue's capacity is split evenly across inputs). A worm at
//! the buffer head decodes its header and requests its output set; under
//! **asynchronous replication** each granted branch streams out
//! independently through per-branch read cursors while blocked branches
//! simply wait — no cross-branch dependence. Buffer space is recycled in
//! FIFO order as the *slowest* branch advances, and because the head packet
//! always fits completely in its buffer, an accepted packet can always be
//! fully buffered: the paper's deadlock-freedom condition.
//!
//! Compared to the central-buffer switch this design statically partitions
//! storage and suffers head-of-line blocking (only the head packet of each
//! input can move) — the structural disadvantages the paper's evaluation
//! quantifies. Branch read-out is modeled optimistically (all branches may
//! read the buffer in the same cycle); even so the architecture loses to
//! the shared central buffer, which strengthens that conclusion.

use crate::config::{ReplicationMode, SwitchConfig};
use crate::ctl::SwitchCtl;
use crate::decode::{resolve_branches, HeaderClock};
use crate::semantics::IbHeadState;
use crate::stats::{header_dests, BlockedWormSnap, SwitchSnapshot, SwitchStats};
use mintopo::route::RouteTables;
use netsim::engine::{Component, PortIo};
use netsim::flit::Flit;
use netsim::ids::SwitchId;
use netsim::packet::Packet;
use netsim::Cycle;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One packet resident in (or arriving into) an input buffer.
#[derive(Debug)]
struct IbPacket {
    pkt: Rc<Packet>,
    received: u16,
}

/// The decoded head packet: branch-rewritten descriptors side by side
/// with the pure progress core ([`IbHeadState`], shared with the bounded
/// model checker). `pkts[b]` is the packet branch `b` streams;
/// `sem.branches[b]` is its read cursor, grant, and done flag.
#[derive(Debug)]
struct IbHead {
    pkts: Vec<(usize, Rc<Packet>)>,
    sem: IbHeadState,
}

#[derive(Debug)]
struct IbInput {
    packets: VecDeque<IbPacket>,
    clock: HeaderClock,
    /// Branch state of the head packet once its route is decided.
    head: Option<IbHead>,
    became_head: Cycle,
    occupied: u32,
}

#[derive(Debug, Default)]
struct IbOutput {
    /// Input index whose branch currently owns this transmitter.
    owner: Option<usize>,
    /// Round-robin pointer for grant arbitration.
    rr: usize,
}

/// An input-buffer switch with multidestination-worm support.
pub struct InputBufferedSwitch {
    id: SwitchId,
    cfg: SwitchConfig,
    tables: Rc<RouteTables>,
    inputs: Vec<IbInput>,
    outputs: Vec<IbOutput>,
    stats: Rc<RefCell<SwitchStats>>,
    ctl: Option<Rc<SwitchCtl>>,
    /// Cycle of the last executed tick — the skip-invariance watermark.
    /// The engine may skip ticks while the switch is quiescent;
    /// the gap since `last_tick` replays the occupancy samples those idle
    /// ticks would have taken (output round-robins only move on grants,
    /// so an idle tick mutates nothing else).
    last_tick: Cycle,
}

impl InputBufferedSwitch {
    /// Creates the switch. The host/neighbor links feeding each input must
    /// use a credit window equal to `cfg.input_buf_flits` — the credit loop
    /// *is* the input buffer.
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
        InputBufferedSwitch {
            id,
            inputs: (0..cfg.ports)
                .map(|_| IbInput {
                    packets: VecDeque::new(),
                    clock: HeaderClock::default(),
                    head: None,
                    became_head: 0,
                    occupied: 0,
                })
                .collect(),
            outputs: (0..cfg.ports).map(|_| IbOutput::default()).collect(),
            cfg,
            tables,
            stats,
            ctl: None,
            last_tick: 0,
        }
    }

    /// Replays the per-cycle bookkeeping of `n` skipped idle ticks: each
    /// would have observed zero buffer occupancy (quiescence guarantees
    /// the buffers were empty throughout).
    fn replay_idle_cycles(&mut self, n: u64) {
        if n > 0 {
            self.stats.borrow_mut().ib_used_flits.observe_n(0, n);
        }
    }

    /// Switch identity.
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// Attaches the out-of-band control cell (see [`SwitchCtl`]) through
    /// which the fault-response orchestrator requests purges and stages
    /// routing-table swaps.
    pub fn set_ctl(&mut self, ctl: Rc<SwitchCtl>) {
        self.ctl = Some(ctl);
    }

    /// No buffered flits, no resident packets, no owned transmitters: safe
    /// to swap routing tables.
    fn empty_now(&self) -> bool {
        self.inputs
            .iter()
            .all(|inp| inp.packets.is_empty() && inp.occupied == 0 && inp.head.is_none())
            && self.outputs.iter().all(|o| o.owner.is_none())
    }

    /// Kills every resident worm: one credit is returned upstream per
    /// buffered flit (the credit loop *is* the input buffer, so this makes
    /// the upstream sender whole), transmitter ownership is dropped, and
    /// the at-most-one flit arriving this cycle is swallowed so in-flight
    /// link stragglers cannot land a body flit with no head packet.
    fn purge(&mut self, now: Cycle, io: &mut PortIo<'_>) {
        let mut flits = 0u64;
        let mut worms = 0u64;
        for (i, input) in self.inputs.iter_mut().enumerate() {
            if io.recv(i).is_some() {
                io.return_credit(i);
                flits += 1;
            }
            for _ in 0..input.occupied {
                io.return_credit(i);
            }
            flits += u64::from(input.occupied);
            worms += input.packets.len() as u64;
            input.occupied = 0;
            input.packets.clear();
            input.head = None;
            input.became_head = now;
            input.clock = HeaderClock::default();
        }
        for out in self.outputs.iter_mut() {
            out.owner = None;
        }
        if flits + worms > 0 {
            let mut st = self.stats.borrow_mut();
            st.purged_flits += flits;
            st.purged_worms += worms;
        }
    }
}

impl Component for InputBufferedSwitch {
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
                self.stats.borrow_mut().ib_used_flits.observe(0);
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
        let InputBufferedSwitch {
            cfg,
            tables,
            inputs,
            outputs,
            stats,
            ctl,
            id,
            ..
        } = self;
        let table = tables.table(*id);

        // --- 1. Receive one flit per input.
        for (i, input) in inputs.iter_mut().enumerate() {
            if let Some(flit) = io.recv(i) {
                input.clock.on_arrival(&flit, now);
                input.occupied += 1;
                debug_assert!(
                    input.occupied <= cfg.input_buf_flits,
                    "input buffer overflow: credit window violated"
                );
                if flit.is_head() {
                    let pkt = flit.packet().clone();
                    assert!(
                        pkt.total_flits() <= cfg.max_packet_flits,
                        "packet {} exceeds the configured max packet size",
                        pkt.id()
                    );
                    if input.packets.is_empty() {
                        input.became_head = now;
                    }
                    input.packets.push_back(IbPacket { pkt, received: 1 });
                } else {
                    input
                        .packets
                        .back_mut()
                        .expect("body flit without head")
                        .received += 1;
                }
            }
        }

        // --- 2. Decode the head packet where the header has arrived.
        for i in 0..ports {
            let needs_decode = inputs[i].head.is_none() && !inputs[i].packets.is_empty();
            if !needs_decode {
                continue;
            }
            let pkt = inputs[i].packets.front().expect("head exists").pkt.clone();
            let ready = inputs[i]
                .clock
                .done_at(pkt.id())
                .is_some_and(|t| now >= t.max(inputs[i].became_head) + u64::from(cfg.route_delay));
            if !ready {
                continue;
            }
            let metrics: Vec<u64> = outputs
                .iter()
                .map(|o| if o.owner.is_some() { 2 } else { 0 })
                .collect();
            let branches = resolve_branches(&pkt, table, cfg.policy, cfg.up_select, |p| metrics[p]);
            let mut st = stats.borrow_mut();
            st.branches_created += branches.len() as u64;
            if branches.len() > 1 {
                st.packets_replicated += 1;
            }
            drop(st);
            let total = pkt.total_flits();
            inputs[i].head = Some(IbHead {
                sem: IbHeadState::new(total, branches.iter().map(|&(port, _)| port)),
                pkts: branches,
            });
        }

        // --- 3. Grant free transmitters round-robin among requesting inputs.
        for p in 0..ports {
            if outputs[p].owner.is_some() {
                continue;
            }
            let start = outputs[p].rr;
            for k in 0..ports {
                let i = (start + k) % ports;
                let request = inputs[i].head.as_ref().and_then(|h| {
                    h.sem
                        .branches
                        .iter()
                        .position(|b| b.port == p && !b.granted && !b.done)
                });
                if let Some(b) = request {
                    outputs[p].owner = Some(i);
                    outputs[p].rr = (i + 1) % ports;
                    inputs[i].head.as_mut().expect("checked").sem.grant(b);
                    break;
                }
            }
        }

        // --- 4. Transmit.
        match cfg.replication {
            // Asynchronous replication (the paper's choice): one flit per
            // owned output; branches advance independently.
            ReplicationMode::Asynchronous => {
                for p in 0..ports {
                    let Some(i) = outputs[p].owner else { continue };
                    let received = inputs[i].packets.front().expect("owner has head").received;
                    let head = inputs[i].head.as_mut().expect("owner has branches");
                    let b = head
                        .sem
                        .branches
                        .iter()
                        .position(|b| b.port == p && b.granted && !b.done)
                        .expect("owner has an active branch");
                    if io.can_send(p) && head.sem.branches[b].read < received {
                        let read = head.sem.branches[b].read;
                        io.send(p, Flit::new(head.pkts[b].1.clone(), read));
                        stats.borrow_mut().flits_sent += 1;
                        if head.sem.read_flit(b) {
                            outputs[p].owner = None;
                        }
                    }
                }
            }
            // Synchronous replication (the rejected alternative): a worm
            // moves only once *every* branch holds its output, and flits
            // advance in lock-step across all branches. Partially granted
            // worms hold their outputs while waiting — the hold-and-wait
            // that deadlocks without an extra avoidance protocol [6].
            ReplicationMode::Synchronous => {
                for input in inputs.iter_mut() {
                    let Some(head) = &mut input.head else {
                        continue;
                    };
                    if head.sem.branches.iter().any(|b| !b.granted || b.done) {
                        continue;
                    }
                    let received = input.packets.front().expect("head exists").received;
                    let read = head.sem.branches[0].read;
                    let can =
                        read < received && head.sem.branches.iter().all(|b| io.can_send(b.port));
                    if can {
                        for (port, pkt) in &head.pkts {
                            io.send(*port, Flit::new(pkt.clone(), read));
                        }
                        for port in head.sem.read_lockstep() {
                            outputs[port].owner = None;
                        }
                        stats.borrow_mut().flits_sent += head.pkts.len() as u64;
                    }
                }
            }
        }

        // --- 5. Recycle buffer space as the slowest branch advances;
        //        retire fully drained head packets.
        let mut occupancy_sum = 0u64;
        for (i, input) in inputs.iter_mut().enumerate() {
            if let Some(head) = &mut input.head {
                let newly = head.sem.recycle();
                for _ in 0..newly {
                    io.return_credit(i);
                }
                input.occupied -= u32::from(newly);
                if head.sem.all_done() {
                    let retired = input.packets.pop_front().expect("head exists");
                    input.clock.forget(retired.pkt.id());
                    input.head = None;
                    input.became_head = now;
                }
            }
            occupancy_sum += u64::from(input.occupied);
        }

        if stats.borrow().forensics_requested {
            let mut blocked = Vec::new();
            for (i, input) in inputs.iter().enumerate() {
                let mut queued = input.packets.iter();
                let Some(head) = queued.next() else { continue };
                let snap_worm =
                    |pkt: &Rc<Packet>,
                     state: &'static str,
                     holds: Vec<usize>,
                     waits: Vec<usize>| BlockedWormSnap {
                        input: Some(i),
                        packet: pkt.id().0,
                        msg: pkt.msg().0,
                        src: pkt.src().0,
                        state,
                        remaining_dests: header_dests(pkt),
                        holds_outputs: holds,
                        waits_outputs: waits,
                    };
                match &input.head {
                    None => {
                        blocked.push(snap_worm(&head.pkt, "await-decode", Vec::new(), Vec::new()))
                    }
                    Some(h) => {
                        let holds: Vec<usize> = h
                            .sem
                            .branches
                            .iter()
                            .filter(|b| b.granted && !b.done)
                            .map(|b| b.port)
                            .collect();
                        // A branch waits if it has no grant yet, or holds
                        // its transmitter but the downstream link has no
                        // credit. Under synchronous replication any
                        // ungranted branch stalls the granted ones too.
                        let waits: Vec<usize> = h
                            .sem
                            .branches
                            .iter()
                            .filter(|b| !b.done && (!b.granted || !io.can_send(b.port)))
                            .map(|b| b.port)
                            .collect();
                        if !waits.is_empty() {
                            blocked.push(snap_worm(&head.pkt, "head-blocked", holds, waits));
                        }
                    }
                }
                // Packets behind the head: head-of-line blocked.
                for q in queued {
                    blocked.push(snap_worm(&q.pkt, "hol-queued", Vec::new(), Vec::new()));
                }
            }
            let mut st = stats.borrow_mut();
            st.forensics_requested = false;
            st.forensics = Some(SwitchSnapshot {
                cq_used_chunks: 0,
                cq_free_chunks: 0,
                input_occupancy: inputs.iter().map(|i| i.occupied).collect(),
                blocked,
            });
        }

        stats.borrow_mut().ib_used_flits.observe(occupancy_sum);

        if let Some(ctl) = ctl {
            let empty = inputs
                .iter()
                .all(|inp| inp.packets.is_empty() && inp.occupied == 0 && inp.head.is_none())
                && outputs.iter().all(|o| o.owner.is_none());
            ctl.set_empty(empty);
        }
    }

    /// An empty switch with no control-plane work pending does nothing
    /// per tick beyond the occupancy sample `replay_idle_cycles` replays —
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

impl std::fmt::Debug for InputBufferedSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "InputBufferedSwitch({}, {} ports, {} flits/input)",
            self.id, self.cfg.ports, self.cfg.input_buf_flits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{single_switch_world, sink_flits, TestWorld};
    use netsim::destset::DestSet;
    use netsim::ids::{NodeId, PacketId};
    use netsim::packet::PacketBuilder;

    fn world(cfg: SwitchConfig) -> TestWorld {
        let credits = cfg.input_buf_flits;
        single_switch_world(4, cfg, credits, |id, cfg, tables, stats| {
            Box::new(InputBufferedSwitch::new(id, cfg, tables, stats))
        })
    }

    fn cfg4() -> SwitchConfig {
        SwitchConfig {
            ports: 4,
            ..SwitchConfig::default()
        }
    }

    #[test]
    fn unicast_delivery() {
        let mut w = world(cfg4());
        let pkt = PacketBuilder::unicast(NodeId(0), NodeId(2), 16, 4).build();
        w.inject(0, pkt);
        w.engine.run_for(100);
        assert_eq!(sink_flits(&w, 2), 18);
        assert_eq!(sink_flits(&w, 3), 0);
    }

    #[test]
    fn multicast_replicates_to_all_destinations() {
        let mut w = world(cfg4());
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        let pkt = PacketBuilder::multicast(NodeId(0), dests, 32).build();
        let total = pkt.total_flits() as usize;
        w.inject(0, pkt);
        w.engine.run_for(200);
        for h in 1..4 {
            assert_eq!(sink_flits(&w, h), total, "host {h}");
        }
        assert_eq!(sink_flits(&w, 0), 0);
        let st = w.stats.borrow();
        assert_eq!(st.packets_replicated, 1);
        assert_eq!(st.branches_created, 3);
    }

    #[test]
    fn two_unicasts_to_same_output_serialize() {
        let mut w = world(cfg4());
        let a = PacketBuilder::unicast(NodeId(0), NodeId(3), 24, 4)
            .id(PacketId(1))
            .build();
        let b = PacketBuilder::unicast(NodeId(1), NodeId(3), 24, 4)
            .id(PacketId(2))
            .build();
        let per = a.total_flits() as usize;
        w.inject(0, a);
        w.inject(1, b);
        w.engine.run_for(300);
        assert_eq!(sink_flits(&w, 3), 2 * per);
    }

    #[test]
    fn head_of_line_blocking_delays_second_packet() {
        // Input 0 queues p1 -> host2 then p2 -> host3. Even though host3 is
        // idle, p2 cannot start until p1 fully drains: HOL blocking.
        let mut w = world(cfg4());
        let p1 = PacketBuilder::unicast(NodeId(0), NodeId(2), 40, 4)
            .id(PacketId(1))
            .build();
        let p2 = PacketBuilder::unicast(NodeId(0), NodeId(3), 4, 4)
            .id(PacketId(2))
            .build();
        w.inject(0, p1);
        w.inject(0, p2);
        // After 30 cycles p1 (42 flits) is still draining, so host3 has
        // nothing yet.
        w.engine.run_for(30);
        assert_eq!(sink_flits(&w, 3), 0, "HOL blocking holds p2 back");
        w.engine.run_for(200);
        assert_eq!(sink_flits(&w, 3), 6);
    }

    #[test]
    fn buffer_occupancy_recycles_fully() {
        let mut w = world(cfg4());
        let dests = DestSet::from_nodes(4, [1, 2].map(NodeId));
        w.inject(3, PacketBuilder::multicast(NodeId(3), dests, 50).build());
        w.engine.run_for(300);
        // After everything drained the occupancy gauge must have returned
        // to zero; its mean is therefore below its max.
        let st = w.stats.borrow();
        assert!(st.ib_used_flits.max() > 0);
        assert_eq!(sink_flits(&w, 1), sink_flits(&w, 2));
    }

    #[test]
    fn synchronous_replication_works_uncontended() {
        let mut w = world(SwitchConfig {
            ports: 4,
            replication: ReplicationMode::Synchronous,
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
    }

    #[test]
    fn synchronous_replication_deadlocks_on_crossed_grants() {
        // The paper's §3 argument for asynchronous replication, staged
        // deterministically: a warm-up unicast rotates output 3's grant
        // pointer past input 0, so when two overlapping multicasts decode
        // together, m1 (input 0) wins output 2 while m2 (input 2) wins
        // output 3. Under lock-step replication each holds what the other
        // needs: classic hold-and-wait, forever.
        let run_mode = |mode: ReplicationMode| -> (usize, usize) {
            let mut w = world(SwitchConfig {
                ports: 4,
                replication: mode,
                ..SwitchConfig::default()
            });
            // Warm-up: input 1 -> output 3 (advances out3.rr to 2).
            w.inject(
                1,
                PacketBuilder::unicast(NodeId(1), NodeId(3), 8, 4)
                    .id(PacketId(1))
                    .build(),
            );
            w.engine.run_for(40);
            let d = DestSet::from_nodes(4, [2, 3].map(NodeId));
            w.inject(
                0,
                PacketBuilder::multicast(NodeId(0), d.clone(), 32)
                    .id(PacketId(2))
                    .build(),
            );
            w.inject(
                2,
                PacketBuilder::multicast(NodeId(2), d, 32)
                    .id(PacketId(3))
                    .build(),
            );
            w.engine.run_for(2_000);
            (sink_flits(&w, 2), sink_flits(&w, 3))
        };
        let (h2_async, h3_async) = run_mode(ReplicationMode::Asynchronous);
        // Asynchronous: both 34-flit multicasts complete; host 3 also got
        // the 10-flit warm-up unicast.
        assert_eq!(h2_async, 2 * 34, "async host2");
        assert_eq!(h3_async, 2 * 34 + 10, "async host3");
        let (h2_sync, h3_sync) = run_mode(ReplicationMode::Synchronous);
        // Synchronous: neither multicast delivers a single flit.
        assert_eq!(h2_sync, 0, "sync multicasts must be deadlocked");
        assert_eq!(h3_sync, 10, "only the warm-up unicast got through");
    }

    #[test]
    #[should_panic(expected = "exceeds the configured max packet")]
    fn oversized_packet_is_rejected() {
        let mut w = world(cfg4());
        let pkt = PacketBuilder::unicast(NodeId(0), NodeId(1), 200, 4).build();
        w.inject(0, pkt);
        w.engine.run_for(50);
    }

    fn ctl_world(cfg: SwitchConfig) -> (Rc<SwitchCtl>, TestWorld) {
        let credits = cfg.input_buf_flits;
        let ctl = SwitchCtl::new();
        let c = ctl.clone();
        let w = single_switch_world(4, cfg, credits, move |id, cfg, tables, stats| {
            let mut sw = InputBufferedSwitch::new(id, cfg, tables, stats);
            sw.set_ctl(c);
            Box::new(sw)
        });
        (ctl, w)
    }

    #[test]
    fn purge_kills_resident_worm_and_restores_credits() {
        let (ctl, mut w) = ctl_world(cfg4());
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        let pkt = PacketBuilder::multicast(NodeId(0), dests, 40).build();
        let total = pkt.total_flits() as u64;
        w.inject(0, pkt);
        // Purge mid-replication; the source streams the rest into the
        // swallow (one credit back per straggler keeps it draining).
        w.engine.run_for(10);
        w.engine.control(0, || ctl.begin_purge());
        w.engine.run_for(total + 20);
        w.engine.control(0, || ctl.end_purge());
        assert!(ctl.is_empty(), "purged switch reports empty");
        {
            let st = w.stats.borrow();
            assert!(st.purged_flits > 0, "buffered/straggler flits were killed");
            assert!(st.purged_worms >= 1, "the resident worm was killed");
        }
        // Fresh traffic proves the credit loop (= the input buffer) is whole.
        let before = sink_flits(&w, 3);
        let pkt = PacketBuilder::unicast(NodeId(0), NodeId(3), 16, 4)
            .id(PacketId(50))
            .build();
        let t = pkt.total_flits() as usize;
        w.inject(0, pkt);
        w.engine.run_for(100);
        assert_eq!(sink_flits(&w, 3) - before, t, "post-purge delivery");
    }

    #[test]
    fn pending_table_swap_waits_for_empty_then_reroutes() {
        use mintopo::reach::{PortClass, PortInfo};
        use mintopo::route::{RouteTables, SwitchTable};
        let (ctl, mut w) = ctl_world(cfg4());
        let dests = DestSet::from_nodes(4, [1, 2, 3].map(NodeId));
        w.inject(0, PacketBuilder::multicast(NodeId(0), dests, 40).build());
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
        let before = sink_flits(&w, 2);
        let pkt = PacketBuilder::unicast(NodeId(0), NodeId(1), 8, 4)
            .id(PacketId(9))
            .build();
        let t = pkt.total_flits() as usize;
        w.inject(0, pkt);
        w.engine.run_for(100);
        assert_eq!(sink_flits(&w, 2) - before, t, "rerouted by the new table");
    }

    #[test]
    fn concurrent_multicasts_from_all_inputs() {
        let mut w = world(cfg4());
        let mut totals = [0usize; 4];
        for src in 0..4u32 {
            let mut dests = DestSet::full(4);
            dests.remove(NodeId(src));
            let pkt = PacketBuilder::multicast(NodeId(src), dests, 16)
                .id(PacketId(100 + u64::from(src)))
                .build();
            for (h, total) in totals.iter_mut().enumerate() {
                if h != src as usize {
                    *total += pkt.total_flits() as usize;
                }
            }
            w.inject(src as usize, pkt);
        }
        w.engine.run_for(600);
        for (h, total) in totals.iter().enumerate() {
            assert_eq!(sink_flits(&w, h), *total, "host {h}");
        }
    }
}
