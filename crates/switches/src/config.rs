//! Switch configuration shared by both architectures.

use mintopo::route::ReplicatePolicy;

/// A configuration constraint violation, with a human-readable description
/// of the offending parameter and the rule it breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// One sizing rule: its diagnostic code and a check that formats the
/// violation message, or `None` when the config obeys the rule (so a
/// valid config formats nothing).
type SizingRule = (&'static str, fn(&SwitchConfig) -> Option<String>);

/// The deadlock-freedom sizing rules and sanity bounds, in check order.
/// The capacity comparisons are meaningless (and `chunks_for` divides by
/// the chunk size) when the chunk or queue size is 0, so they pass on
/// such a config and leave the earlier sanity rules to report it.
const SIZING_RULES: [SizingRule; 8] = [
    ("ports-out-of-range", |c| {
        (!(2..=16).contains(&c.ports)).then(|| format!("ports must be 2..=16, got {}", c.ports))
    }),
    ("chunk-holds-no-flit", |c| {
        (c.chunk_flits < 1).then(|| "chunks must hold at least one flit".to_string())
    }),
    ("cq-empty", |c| {
        (c.cq_chunks < 1).then(|| "central queue needs capacity".to_string())
    }),
    ("packet-below-header", |c| {
        (c.max_packet_flits < 2).then(|| {
            format!(
                "packets have at least a header; max_packet_flits {} is too small",
                c.max_packet_flits
            )
        })
    }),
    ("cb-packet-exceeds-cq", |c| {
        (c.cq_sane() && u32::from(c.max_packet_flits) > c.cq_flits()).then(|| {
            format!(
                "max packet ({} flits) exceeds central queue ({} flits): \
                 deadlock-freedom guarantee impossible",
                c.max_packet_flits,
                c.cq_flits()
            )
        })
    }),
    ("cb-no-descending-reserve", |c| {
        (c.cq_sane() && c.cq_chunks < 2 * c.cq_down_reserve()).then(|| {
            format!(
                "central queue ({} chunks) must hold at least two max packets \
                 ({} chunks each): one is reserved for descending traffic",
                c.cq_chunks,
                c.cq_down_reserve()
            )
        })
    }),
    ("ib-packet-exceeds-fifo", |c| {
        (u32::from(c.max_packet_flits) > c.input_buf_flits).then(|| {
            format!(
                "max packet ({} flits) exceeds input buffer ({} flits): \
                 deadlock-freedom guarantee impossible",
                c.max_packet_flits, c.input_buf_flits
            )
        })
    }),
    ("staging-below-decode", |c| {
        (c.staging_flits < 4).then(|| {
            format!(
                "staging of {} flits cannot cover decode latency (need >= 4)",
                c.staging_flits
            )
        })
    }),
];

/// How worm branches advance relative to each other (paper §3).
///
/// The paper argues for **asynchronous** replication: a branch that has
/// acquired its output port streams independently; blocked branches don't
/// stall granted ones. **Synchronous** replication — flits advance on all
/// branches in lock-step — is the rejected alternative: it needs feedback
/// circuitry and, worse, partial grants create grant-wait cycles between
/// worms that deadlock without an extra avoidance protocol (Chiang & Ni
/// \[6\]). The input-buffer switch implements both so the difference is
/// measurable (ablation E13); the central-buffer switch is inherently
/// asynchronous (branches are independent readers of shared chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// Independent branch progress (the paper's choice).
    #[default]
    Asynchronous,
    /// Lock-step branch progress; a worm transmits only once every branch
    /// has been granted, and only when every output can accept a flit.
    Synchronous,
}

/// How a switch picks among candidate up ports (paper §3: "one can decide to
/// deterministically route messages to the LCA stage or to make the choice
/// adaptively").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpSelect {
    /// Stateless hash of the flow (destination / packet id): each flow stays
    /// on one path.
    Deterministic,
    /// Pick the candidate with the least local congestion (shortest output
    /// queue / free transmitter), ties broken by flow hash.
    #[default]
    Adaptive,
}

/// Parameters of one switch (defaults follow the SP2-class switch the paper
/// bases its central-buffer architecture on; see DESIGN.md §5).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Number of ports (input/output pairs). SP2: 8.
    pub ports: usize,
    /// Cycles from "last header flit received" to the routing decision.
    pub route_delay: u32,
    /// Receiver staging FIFO per input port, in flits (= the link credit
    /// window for central-buffer switches).
    pub staging_flits: u32,
    /// Central-buffer chunk size in flits. SP2: 8.
    pub chunk_flits: u16,
    /// Central-queue capacity in chunks. SP2-class: 128 (1 KB of byte-wide
    /// flits).
    pub cq_chunks: usize,
    /// Input-buffer capacity per input port in flits (input-buffered
    /// architecture). The paper gives both architectures the same total
    /// storage: `cq_chunks * chunk_flits / ports`.
    pub input_buf_flits: u32,
    /// Maximum packet size (header + payload) in flits. Deadlock freedom
    /// requires every packet to be completely bufferable: this must not
    /// exceed the central queue, nor one input buffer.
    pub max_packet_flits: u16,
    /// Enables the unbuffered crossover path for unicast worms whose output
    /// is idle (SP2 behavior).
    pub bypass_crossbar: bool,
    /// Up-port selection discipline.
    pub up_select: UpSelect,
    /// When multidestination worms may begin replicating.
    pub policy: ReplicatePolicy,
    /// Branch progress discipline (input-buffer architecture only).
    pub replication: ReplicationMode,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 8,
            route_delay: 2,
            staging_flits: 16,
            chunk_flits: 8,
            cq_chunks: 128,
            input_buf_flits: 128,
            max_packet_flits: 128,
            bypass_crossbar: true,
            up_select: UpSelect::Adaptive,
            policy: ReplicatePolicy::ReturnOnly,
            replication: ReplicationMode::Asynchronous,
        }
    }
}

impl SwitchConfig {
    /// Central-queue capacity in flits.
    pub fn cq_flits(&self) -> u32 {
        self.cq_chunks as u32 * self.chunk_flits as u32
    }

    /// Chunks needed to hold a packet of `flits` flits.
    pub fn chunks_for(&self, flits: u16) -> usize {
        (flits as usize).div_ceil(self.chunk_flits as usize)
    }

    /// Central-queue chunks reserved for *descending* packets (those that
    /// arrived from a parent switch and therefore drain toward hosts).
    ///
    /// A shared central queue is a per-switch — not per-link — resource, so
    /// the up*/down* acyclicity argument alone does not rule out
    /// store-and-forward deadlock: ascending packets at one stage can fill
    /// the queue while waiting for the stage above, whose queue is full of
    /// descending packets waiting for the stage below. Reserving one
    /// maximum packet's worth of chunks that ascending traffic may never
    /// consume restores liveness: descending packets always eventually
    /// buffer and drain toward the hosts (induction down the stages), hence
    /// every queue keeps freeing space and ascending traffic eventually
    /// advances (induction up the stages).
    pub fn cq_down_reserve(&self) -> usize {
        self.chunks_for(self.max_packet_flits)
    }

    /// Chunks hold at least one flit and the queue at least one chunk, so
    /// the capacity comparisons are defined.
    fn cq_sane(&self) -> bool {
        self.chunk_flits >= 1 && self.cq_chunks >= 1
    }

    /// Every violated sizing rule (a packet must fit in the central queue
    /// and in one input buffer, plus basic sanity bounds) as
    /// `(code, message)`, in check order. Lazy: a message is formatted
    /// only for a violated rule.
    pub fn violations(&self) -> impl Iterator<Item = (&'static str, String)> + '_ {
        SIZING_RULES
            .iter()
            .filter_map(move |(code, rule)| rule(self).map(|msg| (*code, msg)))
    }

    /// Checks the sizing rules, returning a descriptive [`ConfigError`]
    /// on the first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.violations().next() {
            Some((_, msg)) => Err(ConfigError(msg)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_sp2_sized() {
        let c = SwitchConfig::default();
        c.validate().expect("defaults are valid");
        assert_eq!(c.cq_flits(), 1024);
        assert_eq!(c.input_buf_flits, 128, "same total storage split 8 ways");
    }

    #[test]
    fn chunks_for_rounds_up() {
        let c = SwitchConfig::default();
        assert_eq!(c.chunks_for(1), 1);
        assert_eq!(c.chunks_for(8), 1);
        assert_eq!(c.chunks_for(9), 2);
        assert_eq!(c.chunks_for(128), 16);
    }

    #[test]
    fn oversized_packet_rejected() {
        let c = SwitchConfig {
            max_packet_flits: 2048,
            input_buf_flits: 4096,
            ..SwitchConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("exceeds central queue"), "{err}");
    }

    #[test]
    fn oversized_for_input_buffer_rejected() {
        let c = SwitchConfig {
            input_buf_flits: 64,
            ..SwitchConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("exceeds input buffer"), "{err}");
    }

    #[test]
    fn violations_list_every_broken_rule_in_order() {
        assert_eq!(SwitchConfig::default().violations().count(), 0);
        // Zero chunk and queue sizes skip the capacity rules rather than
        // divide by zero; the sanity rules report them.
        let c = SwitchConfig {
            chunk_flits: 0,
            cq_chunks: 0,
            staging_flits: 2,
            ..SwitchConfig::default()
        };
        let codes: Vec<_> = c.violations().map(|(code, _)| code).collect();
        assert_eq!(
            codes,
            ["chunk-holds-no-flit", "cq-empty", "staging-below-decode"]
        );
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "chunks must hold at least one flit"
        );
    }

    #[test]
    fn error_messages_name_the_offending_value() {
        let c = SwitchConfig {
            ports: 1,
            ..SwitchConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("got 1"), "{err}");
    }
}
