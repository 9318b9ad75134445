//! Self-tests of the benchmark: its traced wiring and its simulation loop
//! reproduce the repository's own, its percentile helper refuses thin
//! tails, its calibration takes each kernel's fastest time, and every
//! metric `BENCHMARK.json` names is printed with its unit.

use mdworm::{run_experiment, RunConfig};
use netsim::Cycle;
use perfbench::layers::layer_metrics;
use perfbench::report::{result_line, DECLARED};
use perfbench::stats::{percentile, summary_percentile, Quartiles};
use perfbench::trace::{SpanLog, TraceState};
use perfbench::workload::{
    config_of, prepare, simulate, Inputs, Plain, Sim, Traced, Wiring, Workload,
};
use std::cell::RefCell;
use std::rc::Rc;

/// An 8-host fabric of the given architecture; `response` arms the
/// fault-response pipeline with end-to-end recovery.
fn small_inputs(arch: &str, response: bool, outages: Vec<(usize, Cycle, Cycle)>) -> Inputs {
    let mut text = format!("topology = karytree\nk = 2\nstages = 3\narch = {arch}\nmcast = hw\n");
    if response {
        text.push_str("recovery = on\nresponse = on\n");
    }
    Inputs {
        workload: Workload::BimodalIbLight,
        config_text: text,
        seed: 7,
        arch: None,
        sim: Some(Sim {
            traffic: mdworm::TrafficSpec::bimodal(0.1, 0.2, 4, 32),
            run: RunConfig {
                warmup: 500,
                measure: 6_000,
                drain_max: 60_000,
                watchdog_grace: 10_000,
                faults: None,
                outages,
            },
        }),
    }
}

const OUTAGES: [(usize, Cycle, Cycle); 2] = [(3, 1_000, 2_000), (9, 3_000, 4_000)];

#[test]
fn decorated_system_reproduces_build_system() {
    for (arch, response) in [("cb", false), ("ib", false), ("cb", true), ("ib", true)] {
        let outages = if response {
            OUTAGES.to_vec()
        } else {
            Vec::new()
        };
        let inputs = small_inputs(arch, response, outages);
        let mut plain = prepare(&inputs, Wiring::Plain).expect("config parses");
        let expected = simulate(&mut plain, &mut Plain::default());

        let state = Rc::new(TraceState::default());
        let log = RefCell::new(SpanLog::default());
        let mut traced = prepare(&inputs, Wiring::Traced(&state, &log)).expect("config parses");
        let mut probe = Traced::new(state.clone(), &log, 3);
        if let Some(r) = traced.responder.as_mut() {
            probe.wrap_builder(r);
        }
        let got = simulate(&mut traced, &mut probe);

        assert_eq!(
            got.digest(),
            expected.digest(),
            "{arch} response={response}"
        );
        assert_eq!(got.mcast_last, expected.mcast_last);
        assert_eq!(got.switches, expected.switches);
        assert!(expected.completed_mcasts > 0 && expected.leftover == 0);
        let ticks: u64 = state.classes.iter().map(|c| c.ticks.get()).sum();
        let components = traced.sys.engine.n_components() as u64;
        assert_eq!(ticks, components * got.cycles, "every tick is counted");
        if response {
            let r = got.response.as_ref().expect("responder attached");
            assert!(r.counters.reroutes >= 1, "{:?}", r.counters);
            assert_eq!(probe.episodes.len(), expected_episodes(&inputs));
            assert!(probe.masked_builds.get() >= 1);
        }
    }
}

/// Episodes the untraced loop sees on the same inputs.
fn expected_episodes(inputs: &Inputs) -> usize {
    let mut p = prepare(inputs, Wiring::Plain).expect("config parses");
    let mut probe = Plain::default();
    simulate(&mut p, &mut probe);
    probe.episode_ns.len()
}

#[test]
fn benchmark_loop_reproduces_run_experiment() {
    for (arch, response) in [("cb", false), ("ib", false), ("cb", true)] {
        let outages = if response {
            OUTAGES.to_vec()
        } else {
            Vec::new()
        };
        let inputs = small_inputs(arch, response, outages);
        let mut p = prepare(&inputs, Wiring::Plain).expect("config parses");
        let ours = simulate(&mut p, &mut Plain::default());

        let cfg = config_of(&inputs).expect("config parses");
        let sim = inputs.sim.as_ref().expect("a simulation");
        let theirs = run_experiment(&cfg, &sim.traffic, &sim.run);
        assert_eq!(ours.cycles, theirs.cycles, "{arch} response={response}");
        assert_eq!(ours.mcast_last, theirs.mcast_last);
        assert_eq!(ours.unicast, theirs.unicast);
        assert_eq!(ours.completed_mcasts, theirs.completed_mcasts);
        assert_eq!(ours.completed_unicasts, theirs.completed_unicasts);
        assert_eq!(ours.leftover, theirs.leftover);
        assert_eq!(ours.recovery, theirs.recovery);
        assert_eq!(
            ours.response.as_ref().map(|r| r.state_digest.clone()),
            theirs.response_digest
        );
    }
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    let v: Vec<f64> = (0..200).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.95), Ok(189.0));
    let e = percentile(&v[..190], 0.95).expect_err("9 samples beyond p95");
    assert_eq!((e.count, e.beyond), (190, 9));
    assert!(percentile(&v[..21], 0.5).is_ok());
    assert!(percentile(&v[..20], 0.5).is_err());
    assert!(percentile(&[], 0.5).is_err());

    let mut stats = netsim::stats::LatencyStats::new();
    for x in 0..150 {
        stats.push(x);
    }
    let s = stats.summary();
    assert_eq!(summary_percentile(&s, 0.5), Ok(75.0));
    assert!(summary_percentile(&s, 0.95).is_err());
}

#[test]
fn calibration_takes_the_fastest_of_each_kernel() {
    use perfbench::calibrate::{factor, REFERENCE_NS};
    assert_eq!(factor(&[]), None);
    let f = factor(&[[1_000, 8_000, 64_000], [2_000, 9_000, 70_000]]).expect("samples");
    assert!((f - REFERENCE_NS / 8_000.0).abs() < 1e-6, "{f}");
}

#[test]
fn quartiles_interpolate() {
    let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).expect("samples");
    assert_eq!(
        (q.min, q.q1, q.median, q.q3, q.n),
        (1.0, 1.75, 2.5, 3.25, 4)
    );
    assert!(Quartiles::of(&[]).is_none());
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared_in(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let end_to_end = declared_in("end_to_end");
    let ours: Vec<(String, String)> = DECLARED
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(end_to_end, ours);

    let layers: Vec<(String, String)> = layer_metrics(&[], &SpanLog::default(), &[])
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared_in("per_layer"), layers);

    let metrics: Vec<(&str, f64, &str)> = DECLARED.iter().map(|&(n, u)| (n, 1.5, u)).collect();
    let line = result_line(true, 3, 0, &metrics);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in &end_to_end {
        assert!(
            line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )),
            "{name} missing from {line}"
        );
    }
}
