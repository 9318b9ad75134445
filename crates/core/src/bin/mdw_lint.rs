//! Static deadlock-freedom & protocol-invariant linter for system configs.
//!
//! Runs the full `mdw-analysis` pass — switch buffer sizing, system-level
//! consistency, channel-dependency-graph cycle detection, and header
//! round-trip checks — over one or more config files *without simulating
//! a single cycle*, and reports the findings human-readably or as JSON.
//!
//! ```text
//! cargo run --release -p mdworm --bin mdw-lint -- configs/sp2-default.mdw
//! cargo run --release -p mdworm --bin mdw-lint -- --json configs/*.mdw
//! cargo run --release -p mdworm --bin mdw-lint -- --default
//! cargo run --release -p mdworm --bin mdw-lint -- --model-check configs/*.mdw
//! cargo run --release -p mdworm --bin mdw-lint -- --model-check \
//!     --model-switches 16 --model-stats configs/sp2-default.mdw
//! cargo run --release -p mdworm --bin mdw-lint -- --certify configs/fat-tree-4k.mdw
//! ```
//!
//! Config files are `key = value` lines (`#` starts a comment); unknown
//! keys are rejected. See `configs/` for annotated examples. Exit status
//! is non-zero iff any linted config has an error-severity finding, so
//! the tool slots directly into CI and sweep-launcher scripts.
//!
//! `--model-check` additionally runs the `mdw-model` bounded model
//! checker (see `mdw_analysis::model`): the configured architecture,
//! replication mode, and replication policy are explored exhaustively
//! over small fabrics, verifying chunk conservation and the paper's
//! buffered-eventually liveness condition on the state machines the
//! simulator actually runs. A violation prints a minimal counterexample
//! trace and fails the lint. The exploration runs symmetry-reduced with
//! partial-order reduction (DESIGN.md §14); knobs:
//!
//! * `--model-mode exact|compositional|auto` — joint exploration, the
//!   per-switch assume-guarantee decomposition, or size-driven selection
//!   (the default; overrides the config's `model.mode` key when given);
//! * `--model-switches N` — largest scenario fabric explored (default 2);
//! * `--model-stats` — one JSON line per config with state counts, the
//!   orbit-reduction factor, ample-set skips and wall time.
//!
//! `--certify` runs *both* deadlock-verdict paths over each statically
//! sound config — the O(routes) rank-certificate checker
//! (`mdw_analysis::certify`, DESIGN.md §16) and the explicit CDG
//! analysis bounded at the config's `certify.cdg_budget` — and fails the
//! lint if the certificate rejects the fabric or the two verdicts
//! disagree where the explicit pass completed. The per-config line
//! reports both wall times, so the certificate's advantage at 4K+
//! endpoints (where explicit enumeration exhausts its budget) is visible
//! directly.

use mdw_analysis::{check_model_opts, CheckOutcome, ModelBounds, ModelMode};
use mdworm::cfgtext::parse_config;
use mdworm::config::SystemConfig;
use switches::ReplicationMode;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: mdw-lint [--json] [--default] [--model-check] \
                 [--model-mode exact|compositional|auto] [--model-switches N] \
                 [--model-stats] [--certify] <config.mdw>...";
    let mut json = false;
    let mut lint_default = false;
    let mut model_check = false;
    let mut certify = false;
    let mut model_stats = false;
    let mut model_mode: Option<ModelMode> = None;
    let mut model_switches: Option<usize> = None;
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let value_of = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{} needs a value\n{usage}", argv[*i - 1]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--json" => json = true,
            "--default" => lint_default = true,
            "--model-check" => model_check = true,
            "--certify" => certify = true,
            "--model-stats" => model_stats = true,
            "--model-mode" => {
                model_mode = Some(match value_of(&mut i).as_str() {
                    "exact" => ModelMode::Exact,
                    "compositional" => ModelMode::Compositional,
                    "auto" => ModelMode::Auto,
                    other => {
                        eprintln!("bad --model-mode `{other}` (exact|compositional|auto)");
                        std::process::exit(2);
                    }
                })
            }
            "--model-switches" => {
                model_switches = Some(value_of(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("bad --model-switches value\n{usage}");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                eprintln!("{usage}");
                return;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}\n{usage}");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if files.is_empty() && !lint_default {
        eprintln!("no config files given\n{usage}");
        std::process::exit(2);
    }

    let mut targets: Vec<(String, SystemConfig)> = Vec::new();
    if lint_default {
        targets.push(("<default>".to_string(), SystemConfig::default()));
    }
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("{file}: {e}");
            std::process::exit(2);
        });
        match parse_config(&text) {
            Ok(cfg) => targets.push((file.clone(), cfg)),
            Err(e) => {
                eprintln!("{file}: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut any_errors = false;
    for (i, (name, cfg)) in targets.iter().enumerate() {
        let report = cfg.report();
        any_errors |= report.has_errors();
        if json {
            if targets.len() > 1 && i > 0 {
                println!();
            }
            print!("{}", report.render_json());
        } else {
            print!("{name}: {}", report.render_human());
        }
        if certify && !report.has_errors() {
            // Statically broken configs already fail the lint; sound ones
            // get both deadlock-verdict paths, timed.
            let cmp = cfg.certify_comparison();
            let explicit_part = if cmp.explicit_completed {
                format!(
                    "explicit CDG {} in {:.3}s",
                    if cmp.explicit_ok {
                        "agreed"
                    } else {
                        "disagreed"
                    },
                    cmp.explicit_secs
                )
            } else {
                format!(
                    "explicit CDG budget-exhausted at {}/{} dependencies \
                     after {:.3}s — certificate carries the verdict",
                    cmp.explicit_deps, cmp.explicit_budget, cmp.explicit_secs
                )
            };
            if cmp.certify_ok && cmp.agree {
                if !json {
                    println!(
                        "{name}: certify passed — {} channels, {} dependencies \
                         descend the rank in {:.3}s; {explicit_part}",
                        cmp.channels, cmp.dependencies, cmp.certify_secs
                    );
                }
            } else {
                any_errors = true;
                let why = if !cmp.certify_ok {
                    "certificate checker rejected the fabric"
                } else {
                    "certificate and explicit CDG verdicts disagree"
                };
                if json {
                    eprintln!("{name}: certify FAILED: {why}; {explicit_part}");
                } else {
                    println!("{name}: certify FAILED: {why}; {explicit_part}");
                }
            }
        }
        if model_check && !report.has_errors() {
            // Statically broken configs already fail the lint; only sound
            // ones earn the (more expensive) state-space exploration.
            let arch = cfg.arch.class();
            let sync = cfg.switch.replication == ReplicationMode::Synchronous;
            let bounds = ModelBounds {
                max_switches: model_switches.unwrap_or(ModelBounds::default().max_switches),
                ..ModelBounds::default()
            };
            let mode = model_mode.unwrap_or(cfg.model_mode);
            let start = std::time::Instant::now();
            let outcome = check_model_opts(arch, sync, cfg.switch.policy, &bounds, mode);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let mode_str = match mode {
                ModelMode::Exact => "exact",
                ModelMode::Compositional => "compositional",
                ModelMode::Auto => "auto",
            };
            if model_stats {
                // Violations carry a counterexample, not counters; the
                // stats line then reports the verdict with zeroed counts.
                let (verified, st) = match &outcome {
                    CheckOutcome::Verified(st) => (true, Some(st)),
                    CheckOutcome::Violated(_) => (false, None),
                };
                let states = st.map_or(0, |s| s.states);
                let orbit_hits = st.map_or(0, |s| s.orbit_hits);
                let reduction = if states > 0 {
                    (states + orbit_hits) as f64 / states as f64
                } else {
                    1.0
                };
                println!(
                    "{{\"config\":\"{name}\",\"mode\":\"{mode_str}\",\
                     \"verified\":{verified},\"states\":{states},\
                     \"transitions\":{},\"orbit_hits\":{orbit_hits},\
                     \"orbit_reduction_factor\":{reduction:.3},\
                     \"ample_skips\":{},\"wall_ms\":{wall_ms:.3}}}",
                    st.map_or(0, |s| s.transitions),
                    st.map_or(0, |s| s.ample_skips),
                );
            }
            match outcome {
                CheckOutcome::Verified(stats) => {
                    if !json {
                        println!(
                            "{name}: model check passed — {} states, {} \
                             transitions over {} scenario(s)",
                            stats.states, stats.transitions, stats.scenarios
                        );
                    }
                }
                CheckOutcome::Violated(v) => {
                    any_errors = true;
                    if json {
                        eprintln!("{name}: model check FAILED: {v}");
                    } else {
                        println!("{name}: model check FAILED: {v}");
                    }
                }
            }
        }
    }
    if any_errors {
        std::process::exit(1);
    }
}
