//! Order statistics for benchmark samples.
//!
//! One index rule everywhere: the `p`-quantile of `n` sorted samples is
//! element `round((n - 1) * p)`, the rule `netsim::stats::LatencyStats`
//! uses for its summaries, so a percentile computed here and one read from
//! a simulator summary mean the same thing.

use netsim::stats::Summary;

/// A percentile was asked of too few samples: fewer than
/// [`MIN_BEYOND`] samples lie above it, so its value would be set by a
/// handful of outliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub count: usize,
    /// Samples beyond the requested percentile.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Index of the `p`-quantile in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 - 1.0) * p).round() as usize
}

/// Checks that `count` samples leave at least [`MIN_BEYOND`] beyond the
/// `p`-quantile.
///
/// # Errors
///
/// [`TooFewSamples`] when they do not.
pub fn check_beyond(count: usize, p: f64) -> Result<(), TooFewSamples> {
    let beyond = if count == 0 {
        0
    } else {
        count - 1 - rank(count, p)
    };
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { count, beyond });
    }
    Ok(())
}

/// The `p`-quantile of `samples` (any order).
///
/// # Errors
///
/// [`TooFewSamples`] when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    check_beyond(samples.len(), p)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank(v.len(), p)])
}

/// The 50th or 95th percentile of a simulator latency summary, refused
/// under the same rule as [`percentile`].
///
/// # Errors
///
/// [`TooFewSamples`] when fewer than [`MIN_BEYOND`] samples lie beyond it.
///
/// # Panics
///
/// Panics for any `p` other than 0.5 and 0.95 (the summary holds no other
/// percentile).
pub fn summary_percentile(s: &Summary, p: f64) -> Result<f64, TooFewSamples> {
    let count = usize::try_from(s.count).expect("sample count fits in usize");
    check_beyond(count, p)?;
    let v = if p == 0.5 {
        s.p50
    } else if p == 0.95 {
        s.p95
    } else {
        panic!("a latency summary holds p50 and p95, not p{p}")
    };
    Ok(v as f64)
}

/// Minimum, median and quartiles of a set of per-operation samples. Unlike
/// [`percentile`] these describe the spread of a run's repeats, so they
/// are given for any non-empty set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples summarised.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `samples`, or `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Quartiles> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            // Linear interpolation between closest ranks, so that two
            // samples have a median halfway between them.
            let x = (v.len() as f64 - 1.0) * p;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        Some(Quartiles {
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            n: v.len(),
        })
    }
}
