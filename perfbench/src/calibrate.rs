//! Host-speed calibration.
//!
//! The shared host this benchmark runs on changes speed by 1.3–1.8× for
//! stretches of tens of seconds, longer than a run, and CPU time moves
//! with wall time. Three fixed kernels, timed after every operation,
//! measure the host's speed in the same run: dependent random walks over
//! tables that fit in L1 (4 KiB), in L2 (128 KiB) and in neither (8 MiB),
//! so that they slow down with the core and with the caches the
//! simulator uses. The kernels depend on nothing in the repository, so a
//! change to the repository moves a calibrated time exactly as it moves
//! the raw one.

use std::hint::black_box;
use std::time::Instant;

/// Table sizes of the three kernels, in `u32` words.
const WORDS: [usize; 3] = [1 << 10, 1 << 15, 1 << 21];

/// Steps of each kernel's walk.
const STEPS: u64 = 100_000;

/// The geometric mean of the three kernels' fastest times on an
/// undisturbed host (measured on the 2-vCPU Xeon this benchmark was
/// written on): calibrated times read as if the host ran at that speed.
pub const REFERENCE_NS: f64 = 1.64e6;

/// Host ns of one walk over a table of `words` words.
fn walk_ns(words: usize) -> u64 {
    let mut table = vec![0u32; words];
    let mut x = 0x9E37_79B9u32;
    for slot in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        *slot = x % words as u32;
    }
    let table = black_box(table);
    let t = Instant::now();
    let (mut i, mut acc) = (0usize, 0u64);
    for step in 0..STEPS {
        let v = table[i];
        acc = acc.wrapping_add(u64::from(v));
        i = if v & 3 == 0 {
            (v as usize + step as usize) % words
        } else {
            (v as usize ^ acc as usize) % words
        };
    }
    black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// One timing of each kernel, ns.
pub fn sample() -> [u64; 3] {
    WORDS.map(walk_ns)
}

/// The factor that turns a host time of this run into a calibrated one:
/// [`REFERENCE_NS`] over the geometric mean of each kernel's fastest
/// sample. `None` without samples.
pub fn factor(samples: &[[u64; 3]]) -> Option<f64> {
    let fastest = (0..3).map(|k| samples.iter().map(|s| s[k]).min());
    let log_sum: f64 = fastest
        .map(|ns| ns.map(|ns| (ns as f64).ln()))
        .sum::<Option<f64>>()?;
    Some(REFERENCE_NS / (log_sum / 3.0).exp())
}
