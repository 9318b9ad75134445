//! Differential validation of the scaled model checker over every
//! shipped config (DESIGN.md §14).
//!
//! The reductions — symmetry quotient, ample-set partial-order
//! reduction, and the compositional per-switch decomposition — are only
//! admissible if they never change a verdict. This suite pins that
//! contract to the artifacts users actually lint: for each
//! `configs/*.mdw`, the unreduced oracle and every reduced/compositional
//! configuration must agree, and every counterexample must re-execute
//! against the rebuilt unreduced model (and, for central-buffer
//! scenarios, replay through the pure `cq_step` machine).

use mdw_analysis::{
    check_model, check_model_opts, replay_model_violation, ArchClass, CheckOutcome, ModelBounds,
    ModelMode,
};
use mdworm::cfgtext::parse_config;
use mdworm::config::{SwitchArch, SystemConfig};
use switches::ReplicationMode;

/// Parses every shipped `configs/*.mdw` whose static lint is clean
/// enough to earn a model check (the crafted undersized-central-buffer
/// config is rejected before exploration, exactly as `mdw-lint` does).
fn shipped_configs() -> Vec<(String, SystemConfig)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("configs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdw"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("read config");
        let cfg = parse_config(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if cfg.report().has_errors() {
            continue; // statically rejected; the checker never sees it
        }
        out.push((name, cfg));
    }
    assert!(
        out.len() >= 4,
        "expected the shipped config set, got {out:?}"
    );
    out
}

fn model_inputs(cfg: &SystemConfig) -> (ArchClass, bool) {
    let arch = match cfg.arch {
        SwitchArch::CentralBuffer => ArchClass::CentralBuffer,
        SwitchArch::InputBuffered => ArchClass::InputBuffered,
    };
    (arch, cfg.switch.replication == ReplicationMode::Synchronous)
}

/// Every reduced/compositional mode reaches the same
/// verdict as the unreduced oracle on every shipped config, at the
/// default bounds: verified configs stay verified, and the crafted
/// `sync-replication-hazard.mdw` fails in every mode with a
/// counterexample that re-executes cleanly against the rebuilt model.
#[test]
fn every_mode_agrees_with_the_oracle_on_shipped_configs() {
    let bounds = ModelBounds::default();
    let modes = [ModelMode::Exact, ModelMode::Compositional, ModelMode::Auto];
    for (name, cfg) in shipped_configs() {
        let (arch, sync) = model_inputs(&cfg);
        let oracle = check_model(arch, sync, cfg.switch.policy, &bounds);
        for mode in modes {
            let out = check_model_opts(arch, sync, cfg.switch.policy, &bounds, mode);
            assert_eq!(
                out.is_verified(),
                oracle.is_verified(),
                "{name} ({mode:?}) disagrees with the oracle: {out:?}"
            );
            if let CheckOutcome::Violated(v) = &out {
                let replay = replay_model_violation(arch, sync, cfg.switch.policy, &bounds, v)
                    .unwrap_or_else(|e| panic!("{name} ({mode:?}): counterexample rejected: {e}"));
                assert_eq!(replay.steps, v.trace.len(), "{name} ({mode:?})");
            }
        }
        // The one shipped hazard config must actually be caught.
        if name == "sync-replication-hazard.mdw" {
            assert!(!oracle.is_verified(), "{name} must deadlock: {oracle:?}");
        } else {
            assert!(oracle.is_verified(), "{name} must verify: {oracle:?}");
        }
    }
}

/// The scale tier the reductions exist for: at a 16-switch fabric bound
/// with a 50k-state budget the unreduced oracle exhausts its bound,
/// while the reduced exact checker and the auto (compositional beyond 4
/// switches) checker both verify the shipped default config well inside
/// it.
#[test]
fn reduced_checker_verifies_where_the_oracle_exhausts_its_state_budget() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let text = std::fs::read_to_string(format!("{dir}/sp2-default.mdw")).expect("read config");
    let cfg = parse_config(&text).expect("parse");
    let (arch, sync) = model_inputs(&cfg);
    let bounds = ModelBounds {
        max_switches: 16,
        max_states: 50_000,
        ..ModelBounds::default()
    };

    let oracle = check_model(arch, sync, cfg.switch.policy, &bounds);
    let CheckOutcome::Violated(v) = &oracle else {
        panic!("the unreduced oracle must exhaust 50k states at 16 switches: {oracle:?}");
    };
    assert_eq!(v.kind, "state-bound", "{v}");

    for mode in [ModelMode::Exact, ModelMode::Auto] {
        let out = check_model_opts(arch, sync, cfg.switch.policy, &bounds, mode);
        let CheckOutcome::Verified(stats) = &out else {
            panic!("reduced {mode:?} must verify the 16-switch tier: {out:?}");
        };
        assert!(
            stats.states * 10 <= bounds.max_states,
            "{mode:?} should verify with >=10x headroom: {stats:?}"
        );
    }
}
