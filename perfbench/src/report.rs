//! End-to-end metrics, the host record, and the result output.

use crate::layers::Metric;
use crate::stats::{percentile, summary_percentile, Quartiles};
use crate::workload::{OpResult, Workload};
use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics `BENCHMARK.json` declares: defined on every
/// workload and never 0, so a run-to-run spread can be taken of each.
pub const DECLARED: [(&str, &str); 3] = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")];

/// A metric with the spread of the per-operation samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value reported: the median, or for a declared host time the
    /// calibrated fastest repeat (see [`declared`]).
    pub value: f64,
    /// Minimum, median and quartiles over the raw samples.
    pub q: Quartiles,
}

impl Reading {
    fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Option<Reading> {
        Quartiles::of(samples).map(|q| Reading {
            name,
            unit,
            value: q.median,
            q,
        })
    }

    fn fastest(self, factor: f64) -> Reading {
        Reading {
            value: self.q.min * factor,
            ..self
        }
    }

    fn single(name: &'static str, unit: &'static str, v: f64) -> Reading {
        Reading::of(name, unit, &[v]).expect("one sample")
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
///
/// # Errors
///
/// `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Sum over the simulation's segments of the fastest time any operation
/// took for each (`None` for the lint, which has no segments). Host speed
/// changes within a multi-second operation, so no single repeat need be
/// undisturbed throughout; each segment is the same work in every repeat.
pub fn segment_floor_s(ops: &[OpResult]) -> Option<f64> {
    let n = ops.first()?.times.segment_ns.len();
    if n == 0 || ops.iter().any(|o| o.times.segment_ns.len() != n) {
        return None;
    }
    let ns: u64 = (0..n)
        .map(|i| {
            ops.iter()
                .map(|o| o.times.segment_ns[i])
                .min()
                .expect("at least one operation")
        })
        .sum();
    Some(ns as f64 / 1e9)
}

/// The declared end-to-end metrics of a run's untraced operations, plus
/// set-up samples taken beside them. Each host time is its fastest repeat
/// (for a simulation, [`segment_floor_s`]) times the run's calibration
/// `factor` (see [`crate::calibrate`]): deterministic work never runs
/// faster than undisturbed, and the factor takes out the host's speed
/// over the whole run.
pub fn declared(
    ops: &[OpResult],
    extra_setup_ns: &[u64],
    rss_mb: f64,
    factor: f64,
) -> Vec<Reading> {
    let secs =
        |ns: &mut dyn Iterator<Item = u64>| -> Vec<f64> { ns.map(|ns| ns as f64 / 1e9).collect() };
    let setup = secs(
        &mut ops
            .iter()
            .map(|o| o.times.setup_ns)
            .chain(extra_setup_ns.iter().copied()),
    );
    let op = Reading::of("op_s", "s", &secs(&mut ops.iter().map(|o| o.times.op_ns))).map(|r| {
        match segment_floor_s(ops) {
            Some(floor) => Reading {
                value: floor * factor,
                ..r
            },
            None => r.fastest(factor),
        }
    });
    [
        Reading::of("setup_s", "s", &setup).map(|r| r.fastest(factor)),
        op,
        Some(Reading::single("peak_rss_mb", "MB", rss_mb)),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The metrics printed and recorded but not declared: `lint_s`, which
/// on the simulations is a sub-millisecond phase too short to hold to a
/// bound on a drifting host (and on `certify-4k` is `op_s`), and the
/// workload-specific ones, each undefined on some workload or (the
/// failure shares) 0 on a healthy run. A percentile with fewer than ten
/// samples beyond it is refused and named in `refused`.
pub fn specific(w: Workload, ops: &[OpResult], refused: &mut Vec<String>) -> Vec<Reading> {
    let lint: Vec<f64> = ops.iter().map(|o| o.times.lint_ns as f64 / 1e9).collect();
    let mut out: Vec<Reading> = Reading::of("lint_s", "s", &lint).into_iter().collect();
    let Some(sim) = ops.first().and_then(|o| o.sim.as_ref()) else {
        return out;
    };
    let rates: Vec<f64> = ops
        .iter()
        .map(|o| o.sim.as_ref().map_or(0, |s| s.cycles) as f64 / (o.times.op_ns as f64 / 1e9))
        .collect();
    out.extend(Reading::of("sim_cycles_per_s", "1/s", &rates));
    let mut pct = |name: &'static str,
                   unit: &'static str,
                   r: Result<f64, crate::stats::TooFewSamples>| match r {
        Ok(v) => out.push(Reading::single(name, unit, v)),
        Err(e) => refused.push(format!("{name}: {} samples, {} beyond", e.count, e.beyond)),
    };
    pct(
        "mcast_p50_cycles",
        "cycles",
        summary_percentile(&sim.mcast_last, 0.5),
    );
    pct(
        "mcast_p95_cycles",
        "cycles",
        summary_percentile(&sim.mcast_last, 0.95),
    );
    if w != Workload::McastCbLoaded {
        pct(
            "unicast_p95_cycles",
            "cycles",
            summary_percentile(&sim.unicast, 0.95),
        );
    }
    if let Some(r) = &sim.response {
        let ms: Vec<f64> = ops
            .iter()
            .flat_map(|o| &o.times.episode_ns)
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        pct("episode_p50_ms", "ms", percentile(&ms, 0.5));
        pct("episode_p95_ms", "ms", percentile(&ms, 0.95));
        let di: Vec<f64> = r.detect_install.iter().map(|&c| c as f64).collect();
        pct("detect_install_p95_cycles", "cycles", percentile(&di, 0.95));
        let c = &r.counters;
        let episodes = ops[0].times.episode_ns.len() as f64;
        let failed = (c.reroutes_rejected + c.purges_incomplete + c.stale_detects) as f64;
        out.push(Reading::single(
            "episode_fail_share",
            "share",
            if episodes > 0.0 {
                failed / episodes
            } else {
                0.0
            },
        ));
    }
    out.push(Reading::single(
        "undelivered_share",
        "share",
        sim.leftover as f64 / sim.generated().max(1) as f64,
    ));
    out
}

/// Where and with what the result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `available_parallelism`.
    pub cpus: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, when it is a git checkout.
    pub git_revision: String,
}

impl Host {
    /// Reads the host record.
    pub fn detect() -> Host {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let git_revision = if root.join(".git").exists() {
            std::process::Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        } else {
            "unknown (not a git checkout)".to_string()
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_revision,
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of the output: `correct`, `attempted`, `failed`, and the
/// metrics with their units.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Everything one run records beside its result line.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Operations run (untraced, traced).
    pub repeats: (usize, usize),
    /// Host record.
    pub host: &'a Host,
    /// Outcome digest.
    pub digest: &'a str,
    /// Calibration factor of the run's declared host times.
    pub speed_factor: f64,
    /// End-to-end readings (declared and workload-specific).
    pub readings: &'a [Reading],
    /// Host seconds of each untraced operation, in the order run.
    pub op_samples: &'a [f64],
    /// Per-layer metrics (traced run).
    pub layers: &'a [Metric],
    /// Failures and refusals.
    pub notes: &'a [String],
}

impl Record<'_> {
    /// The record as one JSON document.
    pub fn json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"workload\": {},", json_str(self.workload));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(s, "  \"trace\": {},", self.trace);
        let _ = writeln!(s, "  \"repeats\": {},", self.repeats.0);
        let _ = writeln!(s, "  \"traced_repeats\": {},", self.repeats.1);
        let _ = writeln!(s, "  \"host_cpus\": {},", self.host.cpus);
        let _ = writeln!(s, "  \"cpu_model\": {},", json_str(&self.host.cpu_model));
        let _ = writeln!(s, "  \"rustc\": {},", json_str(&self.host.rustc));
        let _ = writeln!(
            s,
            "  \"git_revision\": {},",
            json_str(&self.host.git_revision)
        );
        let _ = writeln!(s, "  \"digest\": {},", json_str(self.digest));
        let _ = writeln!(s, "  \"speed_factor\": {},", json_num(self.speed_factor));
        let readings: Vec<String> = self
            .readings
            .iter()
            .map(|r| {
                format!(
                    "    {}: {{\"value\": {}, \"min\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": {}}}",
                    json_str(r.name),
                    json_num(r.value),
                    json_num(r.q.min),
                    json_num(r.q.median),
                    json_num(r.q.q1),
                    json_num(r.q.q3),
                    r.q.n,
                    json_str(r.unit)
                )
            })
            .collect();
        let _ = writeln!(s, "  \"end_to_end\": {{\n{}\n  }},", readings.join(",\n"));
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        let _ = writeln!(s, "  \"per_layer\": {{\n{}\n  }},", layers.join(",\n"));
        let samples: Vec<String> = self.op_samples.iter().map(|&v| json_num(v)).collect();
        let _ = writeln!(s, "  \"op_s_samples\": [{}],", samples.join(", "));
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        let _ = writeln!(s, "  \"notes\": [{}]", notes.join(", "));
        s.push_str("}\n");
        s
    }

    /// Human-readable lines printed before the result line.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# perfbench {} seed={} seconds={} trace={} repeats={} traced_repeats={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.repeats.0,
            self.repeats.1
        );
        let _ = writeln!(
            s,
            "# host cpus={} cpu=\"{}\" rustc=\"{}\" git={}",
            self.host.cpus, self.host.cpu_model, self.host.rustc, self.host.git_revision
        );
        let _ = writeln!(s, "# digest {}", self.digest);
        let _ = writeln!(
            s,
            "# speed factor {:.4} (declared host times = fastest raw time x factor)",
            self.speed_factor
        );
        for r in self.readings {
            let _ = writeln!(
                s,
                "{:<28} {:>14.6} {:<7} min={:.6} q1={:.6} median={:.6} q3={:.6} n={}",
                r.name, r.value, r.unit, r.q.min, r.q.q1, r.q.median, r.q.q3, r.q.n
            );
        }
        for (n, v, u) in self.layers {
            let _ = writeln!(s, "{n:<36} {v:>16.4} {u}");
        }
        for n in self.notes {
            let _ = writeln!(s, "# note: {n}");
        }
        s
    }
}
