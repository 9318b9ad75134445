//! Table-level differential check of quiescence skipping: the quick-scale
//! E2 suite rendered by the engine's one schedule must match, byte for
//! byte, the same suite rendered under the plain loop that ticks every
//! component every cycle (`netsim::engine::oracle`).

use mdw_bench::suite::run_suite;
use mdw_bench::{base_system, Scale};

#[test]
fn quick_e2_tables_identical_under_both_schedules() {
    // One job keeps every sweep run on this thread, inside the oracle's
    // scope.
    mdworm::sweep::set_jobs(1);
    let base = base_system();
    let oracle = netsim::engine::oracle::with(|| run_suite(&base, Scale::Quick, "e2"));
    let skipping = run_suite(&base, Scale::Quick, "e2");
    assert!(!oracle.is_empty(), "the E2 filter must render tables");
    for (a, b) in oracle.iter().zip(&skipping) {
        assert_eq!(a.md, b.md, "{}: markdown diverged", a.name);
        assert_eq!(a.csv, b.csv, "{}: csv diverged", a.name);
    }
    assert_eq!(oracle.len(), skipping.len());
}
