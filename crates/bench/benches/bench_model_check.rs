//! Checker timing: the bounded model check (DESIGN.md §11/§14) that
//! `mdw-lint --model-check` and the `FaultResponder`'s reroute gate run.
//!
//! The acceptance budget is "all shipped configs at the 2-switch bound
//! in under 30 s"; these benches keep the real number visible so a
//! regression in the state encoding (a hash blow-up, a lost symmetry)
//! shows up as a timing cliff long before it threatens the budget. The
//! `scale_*` entries time the §14 reductions at the 8/16-switch tiers
//! the unreduced oracle cannot finish — the sub-second reroute-vet
//! numbers `mdw-routed` banks on.

use criterion::{criterion_group, criterion_main, Criterion};
use mdw_analysis::{
    check_model, check_model_opts, ArchClass, CheckOutcome, ModelBounds, ModelMode, ModelOptions,
};
use mintopo::route::ReplicatePolicy;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("model_check");
    g.sample_size(10);
    let bounds = ModelBounds::default();

    // The two verifying architectures the shipped configs exercise.
    g.bench_function("cb_async_return_only", |b| {
        b.iter(|| {
            let out = check_model(
                ArchClass::CentralBuffer,
                false,
                ReplicatePolicy::ReturnOnly,
                &bounds,
            );
            assert!(out.is_verified());
            out
        })
    });
    g.bench_function("ib_async_return_only", |b| {
        b.iter(|| {
            let out = check_model(
                ArchClass::InputBuffered,
                false,
                ReplicatePolicy::ReturnOnly,
                &bounds,
            );
            assert!(out.is_verified());
            out
        })
    });

    // The counterexample path: BFS must stop at the first violation and
    // reconstruct a minimal trace, so this is expected to be the fastest.
    g.bench_function("ib_sync_counterexample", |b| {
        b.iter(|| {
            let out = check_model(
                ArchClass::InputBuffered,
                true,
                ReplicatePolicy::ReturnOnly,
                &bounds,
            );
            assert!(matches!(out, CheckOutcome::Violated(_)));
            out
        })
    });

    // The deepest exploration: four switches, replication revisits.
    let quad = ModelBounds {
        max_switches: 4,
        ..ModelBounds::default()
    };
    g.bench_function("cb_async_quad_fabric", |b| {
        b.iter(|| {
            let out = check_model(
                ArchClass::CentralBuffer,
                false,
                ReplicatePolicy::ReturnOnly,
                &quad,
            );
            assert!(out.is_verified());
            out
        })
    });

    // The §14 scale tiers: fabrics the unreduced oracle cannot finish
    // inside the 50k-state budget. Symmetry + POR (exact) and the
    // compositional per-switch decomposition both must stay sub-second
    // here for the reroute vet's model-check gate to hold its latency
    // budget.
    for switches in [8usize, 16] {
        let bounds = ModelBounds {
            max_switches: switches,
            max_states: 50_000,
            ..ModelBounds::default()
        };
        let run = |opts: ModelOptions| {
            let out = check_model_opts(
                ArchClass::CentralBuffer,
                false,
                ReplicatePolicy::ReturnOnly,
                &bounds,
                &opts,
            );
            assert!(out.is_verified(), "{out:?}");
            out
        };
        g.bench_function(format!("scale_{switches}sw_reduced_exact"), |b| {
            b.iter(|| {
                run(ModelOptions {
                    mode: ModelMode::Exact,
                    ..ModelOptions::default()
                })
            })
        });
        g.bench_function(format!("scale_{switches}sw_compositional"), |b| {
            b.iter(|| {
                run(ModelOptions {
                    mode: ModelMode::Compositional,
                    ..ModelOptions::default()
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
