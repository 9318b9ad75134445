//! Regenerates every evaluation table/figure of the reproduction
//! (E1..E16, see DESIGN.md) and writes markdown + CSV into `results/`.
//!
//! ```text
//! cargo run --release -p mdw-bench --bin figures -- --exp all --scale full
//! cargo run --release -p mdw-bench --bin figures -- --exp e2 --scale quick
//! cargo run --release -p mdw-bench --bin figures -- --scale quick --jobs 4 --bench
//! ```
//!
//! `--jobs N` sizes the sweep worker pool (default: `MDWORM_JOBS`, else
//! available parallelism). `--bench` runs the selected suite twice —
//! serial then parallel — verifies the outputs are byte-identical, times
//! the engine's cycle rate across offered load, and writes
//! `BENCH_sweep.json` next to the tables.

use mdw_bench::perf::bench_sweep;
use mdw_bench::suite::{run_suite, Table};
use mdw_bench::{base_system, Scale};
use mdworm::sweep;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

/// Cycles `--bench` runs at each `bench_scale` load point.
const SCALE_BENCH_CYCLES: u64 = 20_000;

struct Args {
    exp: String,
    scale: Scale,
    out: PathBuf,
    jobs: Option<usize>,
    bench: bool,
}

fn parse_args() -> Args {
    let mut exp = "all".to_string();
    let mut scale = Scale::Full;
    let mut out = PathBuf::from("results");
    let mut jobs = None;
    let mut bench = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--exp" => {
                exp = argv.get(i + 1).expect("--exp needs a value").clone();
                i += 2;
            }
            "--scale" => {
                let v = argv.get(i + 1).expect("--scale needs a value");
                scale = Scale::parse(v).unwrap_or_else(|| panic!("unknown scale {v}"));
                i += 2;
            }
            "--out" => {
                out = PathBuf::from(argv.get(i + 1).expect("--out needs a value"));
                i += 2;
            }
            "--jobs" => {
                let v = argv.get(i + 1).expect("--jobs needs a value");
                let n: usize = v.parse().unwrap_or_else(|_| panic!("bad --jobs value {v}"));
                assert!(n > 0, "--jobs must be at least 1");
                jobs = Some(n);
                i += 2;
            }
            "--bench" => {
                bench = true;
                i += 1;
            }
            other => {
                panic!("unknown argument {other} (use --exp/--scale/--out/--jobs/--bench)")
            }
        }
    }
    Args {
        exp,
        scale,
        out,
        jobs,
        bench,
    }
}

fn emit(out: &PathBuf, tables: &[Table]) {
    fs::create_dir_all(out).expect("create output directory");
    for t in tables {
        println!("\n## {}\n\n{}", t.title, t.md);
        fs::write(out.join(format!("{}.csv", t.name)), &t.csv).expect("write csv");
        fs::write(
            out.join(format!("{}.md", t.name)),
            format!("## {}\n\n{}", t.title, t.md),
        )
        .expect("write md");
    }
}

/// Statically lints every scheme configuration the suite will sweep
/// (CB-HW, IB-HW, SW-CB over the base system) before a single cycle
/// runs. Errors abort the whole suite — a provably-deadlocking config
/// would only waste hours before the watchdog fired; warnings are
/// printed and tolerated.
fn prelint(base: &mdworm::SystemConfig) -> Result<(), ()> {
    let mut failed = false;
    for (label, cfg) in mdworm::experiments::scheme_configs(base) {
        let report = cfg.report();
        for d in &report.diagnostics {
            eprintln!("prelint {label}: {d}");
        }
        failed |= report.has_errors();
    }
    if failed {
        eprintln!("prelint: provably unsafe configuration — refusing to run the suite");
        Err(())
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let base = base_system();
    if let Some(n) = args.jobs {
        sweep::set_jobs(n);
    }
    if prelint(&base).is_err() {
        return ExitCode::FAILURE;
    }
    let started = std::time::Instant::now();

    if args.bench {
        let jobs_parallel = args.jobs.unwrap_or_else(sweep::jobs).max(2);
        let (report, tables) = bench_sweep(
            &base,
            args.scale,
            &args.exp,
            jobs_parallel,
            SCALE_BENCH_CYCLES,
        );
        emit(&args.out, &tables);
        let json = report.json();
        fs::create_dir_all(&args.out).expect("create output directory");
        fs::write(args.out.join("BENCH_sweep.json"), &json).expect("write BENCH_sweep.json");
        eprintln!("bench: {json}");
        eprintln!(
            "figures: bench done in {:.1}s (exp={}, scale={:?}, out={})",
            started.elapsed().as_secs_f64(),
            args.exp,
            args.scale,
            args.out.display()
        );
        if !report.outputs_identical {
            eprintln!("bench: FAILURE — serial and parallel outputs diverge");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let tables = run_suite(&base, args.scale, &args.exp);
    emit(&args.out, &tables);
    eprintln!(
        "figures: done in {:.1}s (exp={}, scale={:?}, jobs={}, out={})",
        started.elapsed().as_secs_f64(),
        args.exp,
        args.scale,
        sweep::jobs(),
        args.out.display()
    );
    ExitCode::SUCCESS
}
