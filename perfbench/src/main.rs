//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds of host time, checks
//! its outputs, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. A record of the run — host, compiler, revision, seed,
//! repeats, and median and quartiles per metric — goes to
//! `perfbench/out/`, with the traced run's spans.

use perfbench::calibrate;
use perfbench::layers::{layer_metrics, run_traced_op, Metric};
use perfbench::report::{self, Host, Reading, Record};
use perfbench::trace::SpanLog;
use perfbench::workload::{self, run_op, Workload, DEFAULT_SEED};
use std::cell::RefCell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up samples a run takes at least: set-up is short enough that a
/// run's few operations would leave its figure to chance.
const MIN_SETUPS: usize = 25;

/// Extra set-up samples, and calibration samples, taken beside each
/// operation.
const EXTRA_SETUPS_PER_OP: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "{msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("missing value for {flag}")))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| usage(&format!("bad {flag} {value}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| usage(&format!("unknown workload {value}")))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(usage(&format!("bad --trace {value}"))),
            },
            _ => return Err(usage(&format!("unknown flag {flag}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| usage("--workload is required"))?,
        seed: seed.ok_or_else(|| usage("--seed is required"))?,
        seconds: seconds.ok_or_else(|| usage("--seconds is required"))?,
        trace: trace.ok_or_else(|| usage("--trace is required"))?,
    })
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The digest recorded for `workload` at [`DEFAULT_SEED`].
fn recorded_digest(workload: Workload) -> Result<String, String> {
    let path = bench_dir().join("digests.txt");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (name, digest) = l.split_once(' ')?;
            (name == workload.name()).then(|| digest.trim().to_string())
        })
        .ok_or_else(|| format!("no digest recorded for {}", workload.name()))
}

fn run(args: &Args) -> Result<bool, String> {
    let inputs = workload::inputs(args.workload, args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let log = RefCell::new(SpanLog::default());
    let (mut ops, mut traced) = (Vec::new(), Vec::new());
    let (mut extra_setup_ns, mut calibration) = (Vec::new(), Vec::new());
    let mut rss = None;
    loop {
        ops.push(run_op(&inputs)?);
        // The peak of one operation, read before the calibration kernels'
        // tables first raise it.
        if rss.is_none() {
            rss = Some(report::peak_rss_mb()?);
        }
        // Set-up and the calibration kernels are sampled again beside
        // every operation, so their samples spread over the run rather
        // than bunching at its end.
        for _ in 0..EXTRA_SETUPS_PER_OP {
            calibration.push(calibrate::sample());
            extra_setup_ns.push(workload::time_setup(&inputs)?);
        }
        if args.trace {
            let run = u32::try_from(traced.len()).expect("fewer than 2^32 operations");
            traced.push(run_traced_op(&inputs, &log, run)?);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    while ops.len() + extra_setup_ns.len() < MIN_SETUPS {
        extra_setup_ns.push(workload::time_setup(&inputs)?);
    }

    let mut notes = Vec::new();
    let digest = ops[0].digest.clone();
    let mut failed = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if let Err(e) = &op.check {
            failed += 1;
            notes.push(format!("operation {i} failed: {e}"));
        } else if op.digest != digest {
            failed += 1;
            notes.push(format!(
                "operation {i} digest {} differs from {digest}",
                op.digest
            ));
        }
    }
    for (i, op) in traced.iter().enumerate() {
        if let Err(e) = &op.check {
            failed += 1;
            notes.push(format!("traced operation {i} failed: {e}"));
        } else if op.digest != digest {
            failed += 1;
            notes.push(format!(
                "traced operation {i} digest {} differs from the untraced {digest}",
                op.digest
            ));
        }
    }
    let mut correct = failed == 0;
    if args.seed == DEFAULT_SEED {
        let recorded = recorded_digest(args.workload);
        if recorded.as_deref() != Ok(digest.as_str()) {
            correct = false;
            notes.push(match recorded {
                Ok(r) => {
                    format!("digest {digest} at the default seed differs from the recorded {r}")
                }
                Err(e) => format!("digest {digest} at the default seed: {e}"),
            });
        }
    }

    let speed_factor = calibrate::factor(&calibration).expect("one sample per operation");
    let mut readings: Vec<Reading> = report::declared(
        &ops,
        &extra_setup_ns,
        rss.expect("one operation ran"),
        speed_factor,
    );
    readings.extend(report::specific(args.workload, &ops, &mut notes));
    let layers: Vec<Metric> = if args.trace {
        let untraced: Vec<f64> = ops.iter().map(|o| o.times.op_ns as f64).collect();
        layer_metrics(&traced, &log.borrow(), &untraced)
    } else {
        Vec::new()
    };

    let host = Host::detect();
    let record = Record {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        repeats: (ops.len(), traced.len()),
        host: &host,
        digest: &digest,
        speed_factor,
        readings: &readings,
        op_samples: &ops
            .iter()
            .map(|o| o.times.op_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
        layers: &layers,
        notes: &notes,
    };
    let out = bench_dir().join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(out.join(format!("{stem}.json")), record.json()).map_err(|e| e.to_string())?;
    if args.trace {
        std::fs::write(
            out.join(format!("{stem}-spans.jsonl")),
            log.borrow().to_jsonl(),
        )
        .map_err(|e| e.to_string())?;
    }

    let metrics: Vec<Metric> = if args.trace {
        layers.clone()
    } else {
        report::DECLARED
            .iter()
            .map(|&(name, unit)| {
                let r = readings
                    .iter()
                    .find(|r| r.name == name)
                    .expect("every declared metric is read");
                (name, r.value, unit)
            })
            .collect()
    };
    print!("{}", record.lines());
    let attempted = (ops.len() + traced.len()) as u64;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
