//! A probe of how fast the core is running right now.
//!
//! On a shared host the core this process runs on may have an SMT sibling
//! that another tenant keeps busy. While it does, code that issues many
//! independent instructions per cycle runs 1.5 to 1.8 times slower, in
//! spells of seconds to a minute. `settle-sweep` is such code and nothing
//! else: no system calls, no waiting. So it times this probe, a fixed
//! kernel of the same kind that belongs to the benchmark rather than to
//! the program, next to its own work, and scales its times by
//! [`REFERENCE_US`] over the probe's time. A change to the program moves
//! the scaled times; a busy sibling moves both and cancels.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on an uncontended core of the machine the baseline in
/// `README.md` was measured on: scaled times are times on that core.
pub const REFERENCE_US: f64 = 16.0;

/// Eight independent integer streams and four floating-point ones: a
/// throughput-bound loop, which a busy SMT sibling slows the way it slows
/// the mechanism's arithmetic.
fn kernel(seed: u64) -> u64 {
    let mut ints = [seed, 1, 2, 3, 4, 5, 6, 7];
    let mut floats = [1.0f64, 1.1, 1.2, 1.3];
    for i in 0..5_000u64 {
        for (k, x) in ints.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ k as u64);
        }
        for y in floats.iter_mut() {
            *y = *y * 0.999_999 + 1e-7;
        }
    }
    ints.iter()
        .fold(floats[0].to_bits() ^ floats[3].to_bits(), |a, b| a ^ b)
}

/// The kernel's time in microseconds, the best of three runs (an
/// interrupt inflates one run, not all three).
pub fn probe_us() -> f64 {
    (0..3)
        .map(|k| {
            let t = Instant::now();
            black_box(kernel(black_box(k)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that scales a time measured while the probe took `probe_us`
/// to the reference core.
pub fn scale(probe_us: f64) -> f64 {
    REFERENCE_US / probe_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_takes_a_stable_positive_time() {
        let a = probe_us();
        assert!(a > 0.0 && a.is_finite());
        // Best-of-three times of the same kernel agree within a factor of
        // the slow spells described above, even on a busy machine.
        let b = (0..5).map(|_| probe_us()).fold(f64::INFINITY, f64::min);
        assert!(a / b < 4.0 && b / a < 4.0, "{a} vs {b}");
        assert_eq!(scale(REFERENCE_US), 1.0);
    }
}
