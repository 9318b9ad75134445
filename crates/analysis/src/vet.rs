//! The reroute admission gate (DESIGN.md §10): one [`Vetter`] per fault
//! responder, running an ordered list of gates over each candidate table
//! set and answering repeats from one LRU memo.
//!
//! The gates, in order — the first error is the verdict:
//!
//! 1. **liveness and reachability** over the compressed encoding: no
//!    switch with attached hosts may be stranded (every reach string
//!    empty — the CDG is vacuously acyclic there), and no such switch may
//!    lose a route to any destination (a partitioned fabric);
//! 2. **deadlock freedom**: the O(routes) rank certificate of the
//!    topology's `(depth, id)` order ([`Certificate::for_topology`]).
//!    When it reports a rank violation the certificate is inconclusive —
//!    a down→up turn need not close a cycle — and the budgeted explicit
//!    channel-dependency graph decides: a cycle rejects as `cdg-cycle`,
//!    an acyclic graph passes, and an exhausted budget lets the
//!    `rank-violation` stand;
//! 3. **header round-trip lint** through the production decode;
//! 4. **bounded model check** of the switch state machines (code
//!    `model-check`). Its verdict depends only on the architecture,
//!    replication mode and bounds — never on the candidate — so it runs
//!    at most once per `Vetter`.
//!
//! The memo is keyed by the dead-port set alone. That is sound because
//! the responder's candidate builder must be deterministic in its inputs
//! (crash recovery already relies on it to rebuild a staged candidate),
//! so the dead set fixes the candidate and with it the verdict; swapping
//! the builder must clear the memo ([`Vetter::clear_memo`]).
//!
//! The explicit analyzer ([`crate::vet_reroute`]) stays public as the
//! differential oracle of this pipeline; no production path calls it.

use crate::certify::{certify_fabric, Certificate};
use crate::checks::ArchClass;
use crate::destset::{CompactTables, RunSet};
use crate::model::{check_model_opts, CheckOutcome, ModelBounds, ModelMode, ModelOptions};
use crate::report::ConfigReport;
use crate::timing::VetStats;
use crate::{check_cdg, check_full_reachability, check_live_switches, roundtrip};
use mintopo::reach::PortClass;
use mintopo::route::{ReplicatePolicy, RouteTables};
use mintopo::topology::Topology;
use netsim::ids::SwitchId;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// LRU capacity of the verdict memo. A resident service sees an
/// unbounded stream of dead sets; the cap keeps the memo at steady-state
/// memory.
pub const MEMO_CAP: usize = 512;

/// A reroute verdict: `Err((code, message))` of the first failing gate.
pub type Verdict = Result<(), (String, String)>;

/// Activity counters of the verdict memo.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that missed and forced a fresh vet.
    pub misses: u64,
    /// Entries evicted to stay within the LRU capacity.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
}

/// The reroute admission gate of one fabric (see the module docs).
#[derive(Debug)]
pub struct Vetter {
    topo: Rc<Topology>,
    policy: ReplicatePolicy,
    cdg_budget: usize,
    certificate: Certificate,
    arch: ArchClass,
    sync_replication: bool,
    bounds: ModelBounds,
    opts: ModelOptions,
    /// The model-check verdict, once computed.
    model: Option<Result<(), String>>,
    memo: BoundedMemo<Vec<(SwitchId, usize)>, Verdict>,
    stats: VetStats,
}

impl Vetter {
    /// A gate for candidates on `topo` under `policy`: the explicit CDG
    /// fallback enumerates at most `cdg_budget` dependency edges, and the
    /// model check explores `arch` (with synchronous replication when
    /// `sync_replication`) in `mode` on fabrics of up to
    /// `topo.n_switches()` switches, clamped to the checker's 2–16
    /// scenario range.
    pub fn new(
        topo: Rc<Topology>,
        policy: ReplicatePolicy,
        cdg_budget: usize,
        arch: ArchClass,
        sync_replication: bool,
        mode: ModelMode,
    ) -> Self {
        let bounds = ModelBounds {
            max_switches: topo.n_switches().clamp(2, 16),
            ..ModelBounds::default()
        };
        Vetter {
            certificate: Certificate::for_topology(&topo),
            topo,
            policy,
            cdg_budget,
            arch,
            sync_replication,
            bounds,
            opts: ModelOptions {
                mode,
                ..ModelOptions::default()
            },
            model: None,
            memo: BoundedMemo::new(MEMO_CAP),
            stats: VetStats::default(),
        }
    }

    /// Vets `candidate`, the tables built for the dead-port set `dead`,
    /// through every gate in order. A dead set seen before is answered
    /// from the memo.
    ///
    /// # Errors
    ///
    /// `(code, message)` of the first failing gate's first error; the
    /// caller must stay on the old tables.
    pub fn vet(&mut self, dead: &[(SwitchId, usize)], candidate: &RouteTables) -> Verdict {
        let key = dead.to_vec();
        if let Some(v) = self.memo.get(&key) {
            return v.clone();
        }
        let start = Instant::now();
        let structural = self.structural(candidate);
        self.stats
            .structural_ns
            .record(start.elapsed().as_nanos() as u64);
        let verdict = structural.and_then(|()| {
            self.model_check()
                .map_err(|detail| ("model-check".to_string(), detail))
        });
        self.memo.insert(key, verdict.clone());
        verdict
    }

    /// Gates 1–3: everything that looks at the candidate tables.
    fn structural(&self, candidate: &RouteTables) -> Verdict {
        let topo = &*self.topo;
        let compact = CompactTables::from_dense(candidate);
        let mut report = ConfigReport::new();
        let routable = |sw| {
            let t = compact.table(sw);
            (0..t.n_ports()).any(|p| !t.port(p).reach.is_empty())
        };
        check_live_switches(topo, routable, &mut report);
        // A destination is routable iff some Down or Up port's reach
        // contains it (mirrors `SwitchTable::try_route_unicast`): the
        // missing hosts are the complement of those reaches' union.
        check_full_reachability(
            topo,
            routable,
            |sw| {
                let t = compact.table(sw);
                let mut reached = RunSet::empty(compact.n_hosts());
                for p in 0..t.n_ports() {
                    if t.port(p).class != PortClass::Unused {
                        reached.union_with(&t.port(p).reach);
                    }
                }
                reached.complement().iter().map(|h| h.0).collect()
            },
            &mut report,
        );
        first_error(&report)?;

        certify_fabric(&self.certificate, topo, &compact, &mut report);
        if report.has_errors() {
            let mut cdg = ConfigReport::new();
            if check_cdg(topo, candidate, self.cdg_budget, &mut cdg) {
                first_error(&cdg)?;
            } else {
                first_error(&report)?;
            }
        }

        let mut lint = ConfigReport::new();
        roundtrip::lint_roundtrips(candidate, self.policy, &mut lint);
        first_error(&lint)
    }

    /// Gate 4, computed on first use and kept for the `Vetter`'s life.
    fn model_check(&mut self) -> Result<(), String> {
        if let Some(v) = &self.model {
            return v.clone();
        }
        let start = Instant::now();
        let outcome = check_model_opts(
            self.arch,
            self.sync_replication,
            self.policy,
            &self.bounds,
            &self.opts,
        );
        self.stats
            .model_ns
            .record(start.elapsed().as_nanos() as u64);
        let verdict = match outcome {
            CheckOutcome::Verified(_) => Ok(()),
            CheckOutcome::Violated(v) => Err(format!(
                "bounded model check found a {} in scenario '{}': {}",
                v.kind, v.scenario, v.detail
            )),
        };
        self.model = Some(verdict.clone());
        verdict
    }

    /// Forgets every memoized verdict (counters are kept). Required
    /// whenever the dead-set → candidate mapping changes.
    pub fn clear_memo(&mut self) {
        self.memo.clear();
    }

    /// Activity counters of the verdict memo.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Wall-clock accounting: one `structural_ns` sample per memo miss,
    /// at most one `model_ns` sample.
    pub fn stats(&self) -> &VetStats {
        &self.stats
    }
}

/// `Err((code, message))` of the report's first error, if any.
fn first_error(report: &ConfigReport) -> Verdict {
    match report.first_error() {
        Some(d) => Err((d.code.to_string(), d.message.clone())),
        None => Ok(()),
    }
}

/// An LRU-bounded memo: at most `cap` entries are retained, each insert
/// past capacity evicting the least-recently-used key (and counting it).
#[derive(Debug)]
struct BoundedMemo<K, V> {
    cap: usize,
    /// Entries with the tick of their last use.
    map: HashMap<K, (V, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V> BoundedMemo<K, V> {
    /// An empty memo holding at most `cap` entries (floor 1).
    fn new(cap: usize) -> Self {
        BoundedMemo {
            cap: cap.max(1),
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks `key` up, counting the hit or miss and refreshing the
    /// entry's recency on a hit.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((value, used)) => {
                self.hits += 1;
                *used = self.tick;
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one if the memo is over capacity.
    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if self.map.insert(key, (value, self.tick)).is_none() && self.map.len() > self.cap {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("the memo is over capacity");
            self.map.remove(&lru);
            self.evictions += 1;
        }
    }

    /// Drops every entry, keeping the activity counters.
    fn clear(&mut self) {
        self.map.clear();
    }

    /// Entries currently held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Snapshot of the activity counters.
    fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::crossed_down;
    use crate::vet_reroute;
    use mintopo::karytree::KaryTree;

    fn vetter(topo: &Topology, cdg_budget: usize) -> Vetter {
        Vetter::new(
            Rc::new(topo.clone()),
            ReplicatePolicy::ReturnOnly,
            cdg_budget,
            ArchClass::CentralBuffer,
            false,
            ModelMode::Auto,
        )
    }

    #[test]
    fn repeated_dead_sets_hit_the_memo() {
        let tree = KaryTree::new(2, 3);
        let topo = tree.topology();
        let mut v = vetter(topo, usize::MAX);
        let cut = vec![(tree.switch_at(1, 0), 2), (tree.switch_at(2, 0), 0)];
        for dead in [vec![], cut.clone(), vec![], cut.clone(), vec![]] {
            let candidate = RouteTables::build_masked(topo, &dead);
            assert_eq!(v.vet(&dead, &candidate), Ok(()), "{dead:?}");
        }
        let memo = v.memo_stats();
        assert_eq!((memo.hits, memo.misses, memo.entries), (3, 2, 2));
        assert_eq!(
            v.stats().structural_ns.count() as u64,
            memo.misses,
            "one structural sample per miss"
        );
        assert_eq!(v.stats().model_ns.count(), 1, "one model check per Vetter");
    }

    #[test]
    fn rank_violation_falls_back_to_the_explicit_cdg() {
        let (topo, candidate) = crossed_down();
        let mut report = ConfigReport::new();
        certify_fabric(
            &Certificate::for_topology(&topo),
            &topo,
            &CompactTables::from_dense(&candidate),
            &mut report,
        );
        assert!(report.errors().any(|d| d.code == "rank-violation"));
        let chain = report.cycles[0].channels.join(" ");
        assert!(chain.contains("s0.out0"), "{chain}");
        assert!(chain.contains("s1.out0"), "{chain}");
        assert!(!report.cycles[0].edges.is_empty());

        let explicit =
            vet_reroute(&topo, &candidate, ReplicatePolicy::ReturnOnly).expect_err("cyclic");
        let d = explicit.first_error().expect("an error");
        let verdict = vetter(&topo, usize::MAX).vet(&[], &candidate);
        assert_eq!(verdict, Err((d.code.to_string(), d.message.clone())));
    }

    #[test]
    fn exhausted_cdg_budget_lets_the_rank_violation_stand() {
        let (topo, candidate) = crossed_down();
        let (code, _) = vetter(&topo, 1)
            .vet(&[], &candidate)
            .expect_err("uncertified and unchecked");
        assert_eq!(code, "rank-violation");
    }

    #[test]
    fn bounded_memo_evicts_lru_and_counts() {
        let mut m: BoundedMemo<u32, u32> = BoundedMemo::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.get(&1), Some(&10), "touch 1: 2 becomes the LRU");
        m.insert(3, 30);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&2), None, "2 was evicted, not 1");
        assert_eq!(m.get(&1), Some(&10));
        assert_eq!(m.get(&3), Some(&30));

        let st = m.stats();
        assert_eq!(st.hits, 3);
        assert_eq!(st.misses, 1);
        assert_eq!(st.evictions, 1);
        assert_eq!(st.entries, 2);

        // Re-inserting an existing key refreshes, never evicts.
        m.insert(1, 11);
        assert_eq!(m.len(), 2);
        assert_eq!(m.stats().evictions, 1);
        assert_eq!(m.get(&1), Some(&11));

        // Capacity floor is 1, like the event log.
        let mut tiny: BoundedMemo<u32, u32> = BoundedMemo::new(0);
        tiny.insert(1, 1);
        tiny.insert(2, 2);
        assert_eq!(tiny.len(), 1);
        assert_eq!(tiny.stats().evictions, 1);
    }

    #[test]
    fn vetter_memo_is_bounded_at_the_constant_cap() {
        let (topo, candidate) = crossed_down();
        let mut v = vetter(&topo, usize::MAX);
        // Distinct (synthetic) dead sets, one past the cap: the oldest is
        // evicted and the memo never grows past MEMO_CAP.
        for i in 0..=MEMO_CAP {
            let _ = v.vet(&[(SwitchId(0), i)], &candidate);
        }
        let st = v.memo_stats();
        assert_eq!(st.entries, MEMO_CAP);
        assert_eq!(st.evictions, 1);
        assert_eq!(st.misses as usize, MEMO_CAP + 1);
    }
}
