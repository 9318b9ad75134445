//! The reroute vet pipeline (DESIGN.md §10) against its explicit oracle.
//!
//! The responder admits candidate tables only through
//! `mdw_analysis::Vetter`: liveness and reachability, then the rank
//! certificate with the budgeted explicit CDG deciding whenever the
//! certificate is inconclusive, the header round-trip lint, and the
//! bounded model check. `mdw_analysis::vet_reroute` runs the explicit CDG
//! on every candidate; wherever both reach a verdict they must agree on
//! the code and the message.

use mdw_analysis::{certify_fabric, vet_reroute, Certificate, CompactTables, ConfigReport};
use mdworm::build::{build_system, System};
use mdworm::config::{SystemConfig, TopologyKind};
use mdworm::parse_config;
use mdworm::respond::{outage, FaultResponder, ResponseConfig, ResponseEvent};
use mdworm::workload::{make_sources, TrafficSpec};
use mintopo::karytree::KaryTree;
use mintopo::reach::{PortClass, PortInfo};
use mintopo::route::{RouteTables, SwitchTable};
use mintopo::topology::{Attach, Topology};
use netsim::destset::DestSet;
use netsim::ids::{NodeId, SwitchId};
use std::rc::Rc;

type Dead = Vec<(SwitchId, usize)>;

fn fault_response_config() -> SystemConfig {
    parse_config(include_str!("../configs/fault-response.mdw")).expect("shipped config parses")
}

fn fault_response_fabric(cfg: &SystemConfig) -> Rc<Topology> {
    let TopologyKind::KaryTree { k, n } = cfg.topology else {
        panic!("the fault-response config is a k-ary tree");
    };
    Rc::new(KaryTree::new(k, n).topology().clone())
}

/// The explicit oracle's verdict in the `Vetter`'s shape.
fn oracle(topo: &Topology, cfg: &SystemConfig, candidate: &RouteTables) -> mdw_analysis::Verdict {
    match vet_reroute(topo, candidate, cfg.switch.policy) {
        Ok(_) => Ok(()),
        Err(report) => {
            let d = report.first_error().expect("a rejection names an error");
            Err((d.code.to_string(), d.message.clone()))
        }
    }
}

/// Both directions of every switch↔switch cable.
fn cables(topo: &Topology) -> Vec<Dead> {
    let mut out = Vec::new();
    for s in 0..topo.n_switches() {
        let sw = SwitchId::from(s);
        for p in 0..topo.ports(sw) {
            if let Attach::Switch(t, q) = topo.attach(sw, p) {
                if sw < t {
                    out.push(vec![(sw, p), (t, q)]);
                }
            }
        }
    }
    out
}

#[test]
fn every_single_cable_masked_rebuild_agrees_with_the_explicit_oracle() {
    let cfg = fault_response_config();
    let topo = fault_response_fabric(&cfg);
    let mut vetter = cfg.vetter(topo.clone());
    let cables = cables(&topo);
    assert_eq!(cables.len(), 128, "4-ary 3-tree: 2 stage gaps x 16 x 4");
    for dead in &cables {
        let candidate = RouteTables::build_masked(&topo, dead);
        let verdict = vetter.vet(dead, &candidate);
        assert_eq!(verdict, oracle(&topo, &cfg, &candidate), "{dead:?}");
        assert_eq!(verdict, Ok(()), "an honest single-cable rebuild passes");
    }
    assert_eq!(vetter.memo_stats().misses, 128);
    assert_eq!(vetter.stats().model_ns.count(), 1);
}

/// The honest rebuild with one leaf's first up cable classified *down*
/// with full reach on both ends — "the other side is deeper", a 2-cycle
/// in the channel-dependency graph.
fn crossed_down(topo: &Topology, dead: &[(SwitchId, usize)]) -> RouteTables {
    let honest = RouteTables::build_masked(topo, dead);
    if dead.is_empty() {
        return honest;
    }
    let (leaf, up, root, down) = (0..topo.n_switches())
        .map(SwitchId::from)
        .find_map(|s| {
            let &u = honest.table(s).up_ports().first()?;
            match topo.attach(s, u) {
                Attach::Switch(r, rp) => Some((s, u, r, rp)),
                _ => None,
            }
        })
        .expect("a multistage tree has a leaf with an up port");
    patch(topo, &honest, |s, p, info| {
        if (s, p) == (leaf, up) || (s, p) == (root, down) {
            info.class = PortClass::Down;
            info.reach = DestSet::full(topo.n_hosts());
        }
    })
}

/// The honest rebuild with every reach string of leaf 0 — which keeps its
/// hosts — emptied: a vacuously acyclic CDG around a stranded switch.
fn stranded(topo: &Topology, dead: &[(SwitchId, usize)]) -> RouteTables {
    let honest = RouteTables::build_masked(topo, dead);
    patch(topo, &honest, |s, _, info| {
        if s == SwitchId(0) {
            info.reach = DestSet::empty(topo.n_hosts());
        }
    })
}

/// Copies `tables`, letting `f` edit each (switch, port) entry.
fn patch(
    topo: &Topology,
    tables: &RouteTables,
    f: impl Fn(SwitchId, usize, &mut PortInfo),
) -> RouteTables {
    let n = topo.n_hosts();
    let switches = (0..topo.n_switches())
        .map(SwitchId::from)
        .map(|s| {
            let t = tables.table(s);
            let ports = (0..t.n_ports())
                .map(|p| {
                    let mut info = t.port(p).clone();
                    f(s, p, &mut info);
                    info
                })
                .collect();
            SwitchTable::from_ports(ports, n)
        })
        .collect();
    RouteTables::from_tables(switches, n)
}

#[test]
fn pathological_candidates_agree_with_the_explicit_oracle() {
    let cfg = fault_response_config();
    let topo = fault_response_fabric(&cfg);
    let mut vetter = cfg.vetter(topo.clone());
    let cut = cables(&topo)[0].clone();
    // Every up cable of leaf 0: its hosts keep injecting but reach
    // nothing outside the leaf.
    let partition: Dead = cables(&topo)
        .into_iter()
        .filter(|c| c[0].0 == SwitchId(0))
        .flatten()
        .collect();
    assert_eq!(partition.len(), 8);
    for (candidate, code) in [
        (crossed_down(&topo, &cut), "cdg-cycle"),
        (stranded(&topo, &cut), "unreachable-switch"),
        (
            RouteTables::build_masked(&topo, &partition),
            "unreachable-destination",
        ),
    ] {
        vetter.clear_memo();
        let verdict = vetter.vet(&cut, &candidate);
        assert_eq!(verdict, oracle(&topo, &cfg, &candidate));
        assert_eq!(verdict.expect_err("rejected").0, code);
    }
    assert_eq!(vetter.stats().model_ns.count(), 0, "structural rejections");
}

/// A down→up turn that closes no cycle. On the binary 2-tree (leaves
/// s0 = {h0, h1} and s1 = {h2, h3}, roots s2 and s3), root s2 sends h2
/// down to leaf s0, which forwards it *up* to s3, which sends it down to
/// s1. The certificate's `(depth, id)` rank cannot order that turn, but
/// the explicit CDG is acyclic — the Vetter must fall back and accept.
#[test]
fn inconclusive_certificate_with_acyclic_cdg_is_accepted() {
    let topo = KaryTree::new(2, 2).topology().clone();
    let honest = RouteTables::build(&topo);
    let set = |hosts: &[u32]| DestSet::from_nodes(4, hosts.iter().map(|&h| NodeId(h)));
    let candidate = patch(&topo, &honest, |s, p, info| match (s.0, p) {
        (2, 0) => info.reach = set(&[0, 1, 2]),
        (2, 1) => info.reach = set(&[3]),
        (0, 3) => {
            info.class = PortClass::Down;
            info.reach = set(&[2]);
        }
        _ => {}
    });

    let mut certified = ConfigReport::new();
    certify_fabric(
        &Certificate::for_topology(&topo),
        &topo,
        &CompactTables::from_dense(&candidate),
        &mut certified,
    );
    assert_eq!(
        certified.first_error().map(|d| d.code),
        Some("rank-violation"),
        "the certificate alone is inconclusive"
    );

    let cfg = SystemConfig::default();
    assert_eq!(oracle(&topo, &cfg, &candidate), Ok(()), "acyclic CDG");
    assert_eq!(cfg.vetter(Rc::new(topo)).vet(&[], &candidate), Ok(()));
}

fn build(cfg: SystemConfig, stop_at: u64) -> System {
    let spec = TrafficSpec::multiple_multicast(0.02, 4, 16);
    let sources = make_sources(&spec, cfg.n_hosts(), cfg.seed, Some(stop_at));
    build_system(cfg, sources, None)
}

fn drive(sys: &mut System, resp: &mut FaultResponder, until: u64) {
    while sys.engine.now() < until {
        let step = 32.min(until - sys.engine.now());
        sys.engine.run_for(step);
        resp.poll(sys);
    }
}

/// The same cable fails twice: the second reroute and heal are answered
/// from the memo. Swapping the candidate builder clears it, so the third
/// failure vets the new builder's (cyclic) candidate instead of reusing
/// the verdict reached on the honest one.
#[test]
fn repeated_dead_sets_hit_the_memo_until_the_builder_changes() {
    let mut sys = build(fault_response_config(), 9_000);
    let (link, _) = outage::single_cut(&sys, NodeId::from(16usize));
    for start in [500, 3_500, 6_500] {
        sys.engine.script_outage(link, start, start + 1_500);
    }
    let mut resp = FaultResponder::new(ResponseConfig::default(), &mut sys);

    drive(&mut sys, &mut resp, 6_000);
    let c = resp.counters();
    assert_eq!((c.reroutes, c.heals, c.reroutes_rejected), (2, 2, 0));
    let memo = resp.vet_memo_stats();
    assert_eq!((memo.misses, memo.hits, memo.entries), (2, 2, 2));
    assert_eq!(resp.vet_stats().structural_ns.count(), 2);
    assert_eq!(resp.vet_stats().model_ns.count(), 1);

    resp.set_candidate_builder(Box::new(crossed_down));
    assert_eq!(resp.vet_memo_stats().entries, 0);
    drive(&mut sys, &mut resp, 9_000);
    let c = resp.counters();
    assert_eq!((c.reroutes, c.reroutes_rejected), (2, 1));
    let rejection = resp.events().iter().find_map(|(_, e)| match e {
        ResponseEvent::RerouteRejected { code, .. } => Some(code.as_str()),
        _ => None,
    });
    assert_eq!(rejection, Some("cdg-cycle"));
}
