//! Canonical quantized chain keys — the solver cache's notion of request
//! identity.
//!
//! Two solve requests should share a cache entry exactly when they describe
//! the same chain *after quantization*. The key is the vector of integer
//! ticks `round(rate / quantum)` over `(w_0, z_1…z_m, b_1…b_m)`; the
//! canonical rates handed to the solver are those ticks scaled back by the
//! quantum. Because the solver only ever sees canonical rates, a cache hit
//! is **bit-identical** to a cold solve by construction: the cached bytes
//! are a pure function of the key, and every request mapping to the key
//! would have produced the same bytes.
//!
//! Aliasing bound: requests that land on the same key differ per rate by
//! less than one quantum (ticks are rounds, so by at most `quantum / 2`
//! from the canonical rate). With the default quantum `1e-9` and the
//! workload rate ranges (`w, z ∈ [0.01, 10]`), the optimal allocation is
//! Lipschitz with a modest constant, so aliased chains have optimal
//! allocations within a few `1e-8` of each other — far below the `1e-6`
//! tolerance the service advertises (property-tested in
//! `tests/cache_props.rs`).

/// Default quantization step for rates (unit processing / link times).
pub const DEFAULT_QUANTUM: f64 = 1e-9;

/// Largest admissible tick count: `2^53`, the bound below which every
/// integer is exactly representable as an `f64`. Rates above
/// `MAX_TICKS × quantum` are rejected rather than quantized: past this
/// point `rate / quantum` loses integer precision and the `as i64` cast
/// would eventually saturate, aliasing materially different chains onto
/// one key. At the default quantum `1e-9` this caps admissible rates at
/// ~9.0e6 — far above any workload rate this service models.
pub const MAX_TICKS: i64 = 1 << 53;

/// A canonical, hashable identity for a solve request: the chain length
/// plus the quantized ticks of every rate in a fixed order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChainKey {
    /// Number of strategic processors `m`.
    pub m: usize,
    /// Ticks of `(w_0, z_1 … z_m, b_1 … b_m)`, in that order.
    pub ticks: Vec<i64>,
}

/// A solve request after canonicalization: the key and the exact rates the
/// solver must use (ticks × quantum).
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalChain {
    /// Cache identity.
    pub key: ChainKey,
    /// Canonical root rate `w_0`.
    pub root_rate: f64,
    /// Canonical link rates `z_1 … z_m`.
    pub link_rates: Vec<f64>,
    /// Canonical bids `b_1 … b_m`.
    pub bids: Vec<f64>,
}

/// Quantize one rate to its tick count. Returns `None` when the tick
/// would fall outside `1..=MAX_TICKS`: non-finite or non-positive rates,
/// rates below half a quantum (they would alias with 0), and rates large
/// enough that the `f64 → i64` conversion would lose precision or
/// saturate (see [`MAX_TICKS`]).
#[inline]
pub fn tick(rate: f64, quantum: f64) -> Option<i64> {
    let t = (rate / quantum).round();
    if t.is_finite() && t >= 1.0 && t <= MAX_TICKS as f64 {
        Some(t as i64)
    } else {
        None
    }
}

/// Canonicalize a solve request. Returns `None` when any rate is
/// non-finite, non-positive, quantizes to zero ticks (a rate smaller
/// than half a quantum cannot be represented and would alias with 0), or
/// exceeds `MAX_TICKS × quantum` (the tick computation would saturate
/// and alias distinct chains). Copies the rates, then runs
/// [`canonicalize_owned`].
pub fn canonicalize(
    root_rate: f64,
    link_rates: &[f64],
    bids: &[f64],
    quantum: f64,
) -> Option<CanonicalChain> {
    canonicalize_owned(root_rate, link_rates.to_vec(), bids.to_vec(), quantum)
}

/// [`canonicalize`] over rate vectors the caller owns: each rate is
/// replaced by its canonical value in place, and the vectors become the
/// chain's, so only the key's ticks are allocated.
pub fn canonicalize_owned(
    root_rate: f64,
    mut link_rates: Vec<f64>,
    mut bids: Vec<f64>,
    quantum: f64,
) -> Option<CanonicalChain> {
    if link_rates.len() != bids.len() || bids.is_empty() {
        return None;
    }
    let m = bids.len();
    let mut ticks = Vec::with_capacity(1 + 2 * m);
    let mut quantized = |r: f64| -> Option<f64> {
        if !r.is_finite() || r <= 0.0 || r > 1e12 {
            return None;
        }
        let t = tick(r, quantum)?;
        ticks.push(t);
        Some(t as f64 * quantum)
    };
    let root = quantized(root_rate)?;
    for r in link_rates.iter_mut().chain(bids.iter_mut()) {
        *r = quantized(*r)?;
    }
    Some(CanonicalChain {
        key: ChainKey { m, ticks },
        root_rate: root,
        link_rates,
        bids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_for_sub_quantum_perturbations() {
        let a = canonicalize(1.0, &[0.2, 0.3], &[2.0, 0.5], 1e-9).unwrap();
        let b = canonicalize(1.0 + 2e-10, &[0.2 - 3e-10, 0.3], &[2.0, 0.5 + 1e-10], 1e-9).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.root_rate, b.root_rate);
        assert_eq!(a.bids, b.bids);
    }

    #[test]
    fn different_key_beyond_one_quantum() {
        let a = canonicalize(1.0, &[0.2], &[2.0], 1e-9).unwrap();
        let b = canonicalize(1.0, &[0.2], &[2.0 + 2e-9], 1e-9).unwrap();
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn rejects_degenerate_rates() {
        assert!(canonicalize(0.0, &[0.2], &[2.0], 1e-9).is_none());
        assert!(canonicalize(1.0, &[f64::NAN], &[2.0], 1e-9).is_none());
        assert!(canonicalize(1.0, &[0.2], &[-1.0], 1e-9).is_none());
        assert!(canonicalize(1.0, &[0.2], &[1e-12], 1e-9).is_none());
        assert!(canonicalize(1.0, &[0.2, 0.3], &[2.0], 1e-9).is_none());
        assert!(canonicalize(1.0, &[], &[], 1e-9).is_none());
    }

    #[test]
    fn rejects_rates_that_would_saturate_ticks() {
        // 2^53 × 1e-9 ≈ 9.007e6: anything above must be rejected, not
        // silently saturated onto a shared key.
        assert!(canonicalize(1e7, &[0.2], &[2.0], 1e-9).is_none());
        assert!(canonicalize(1.0, &[9.3e9], &[2.0], 1e-9).is_none());
        assert!(canonicalize(1.0, &[0.2], &[1e12], 1e-9).is_none());
        // Distinct over-bound rates may not alias: both are rejected.
        assert!(canonicalize(9.3e9, &[0.2], &[2.0], 1e-9).is_none());
        assert!(canonicalize(1e10, &[0.2], &[2.0], 1e-9).is_none());
        // Just inside the bound still canonicalizes (ticks within an ulp
        // of 9e15; the canonical rate, not the raw input, defines the key).
        let c = canonicalize(9.0e6, &[0.2], &[2.0], 1e-9).unwrap();
        assert!((c.key.ticks[0] - 9_000_000_000_000_000).abs() <= 1);
        // A coarser quantum admits large rates again (bound scales).
        assert!(canonicalize(1e10, &[0.2], &[2.0], 1e-3).is_some());
    }

    #[test]
    fn tick_is_checked_at_the_bounds() {
        assert_eq!(tick(1.0, 1e-9), Some(1_000_000_000));
        assert_eq!(tick(f64::INFINITY, 1e-9), None);
        assert_eq!(tick(-1.0, 1e-9), None);
        assert_eq!(tick(1e-12, 1e-9), None);
        let near_bound = tick(9.0e6, 1e-9).unwrap();
        assert!((near_bound - 9_000_000_000_000_000).abs() <= 1);
        assert_eq!(tick((MAX_TICKS as f64) * 4.0 * 1e-9, 1e-9), None);
        assert_eq!(tick(f64::MAX, 1e-9), None);
    }

    #[test]
    fn canonical_rates_are_tick_multiples() {
        let c = canonicalize(1.2345678901, &[0.2], &[2.0], 1e-6).unwrap();
        assert_eq!(c.key.ticks[0], 1234568);
        assert_eq!(c.root_rate, 1234568.0 * 1e-6);
    }
}
