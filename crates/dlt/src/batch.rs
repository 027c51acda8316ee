//! Batch solver core: struct-of-arrays, zero-allocation solving of many
//! chains per call, plus the all-suffixes sweep that powers the mechanism's
//! per-agent counterfactuals.
//!
//! ## The bit-identity contract
//!
//! Every number this module returns is **bit-identical** to what the frozen
//! scalar solver [`crate::linear::reference`] produces for the same chain:
//! the kernels perform exactly the same floating-point operations in exactly
//! the same order *per lane* as the scalar recursion. Vectorization happens
//! **across chains** (independent lanes of a length-cohort laid out
//! contiguously so the inner loops auto-vectorize), never across the
//! sequential `w̄` recurrence of a single chain — reassociating that
//! recurrence would change results. This is what lets batch callers (the
//! E2/E27 sweeps) and the payment layer route through this core without
//! perturbing a single byte of any report. Single chains are solved by
//! [`crate::linear::solve`], which performs the same per-lane operations.
//!
//! ## Layout
//!
//! [`solve_many`] groups the input chains into equal-length cohorts and
//! transposes each cohort into step-major lanes (`buf[step * k + lane]`), so
//! the backward reduction sweep (eqs. 2.4/2.7) and the forward unroll
//! (eqs. 2.5–2.6) are branch-free loops over contiguous memory. Results land
//! in flat arenas ([`BatchSolution`]) indexed by per-chain offsets; with a
//! reused [`BatchScratch`] and output, steady-state solving allocates
//! nothing.
//!
//! [`solve_all_suffixes`] exploits that the backward recursion for suffix
//! `P_i … P_m` computes values that do not depend on `i`: one O(m) sweep
//! yields the front local fraction, the solve-style `w̄_i` *and* the
//! `equivalent_time`-style `w̄_i` (a distinct FP operation order — see
//! [`crate::linear::reference::equivalent_time`]) of **every** suffix at
//! once. `mechanism::payment` uses it to settle a whole bid profile in O(m)
//! instead of the former O(m²) per-agent `solve_suffix` loop.

use crate::linear::{self, LinearSolution};
use crate::model::{LinearNetwork, LocalAllocation};
use std::cell::RefCell;

/// Maximum lanes per kernel invocation. Cohorts wider than this are split
/// into tiles so the five step-major lane buffers stay cache-resident
/// (`TILE` lanes × chain length × 5 arrays of f64 ≈ 40 KiB at length 16);
/// an unbounded cohort at batch ≈ 32k spills to DRAM and loses to the
/// scalar loop. Tiling only changes *which* lanes share an invocation —
/// never the per-lane FP op order — so bit-identity is unaffected.
const TILE: usize = 64;

/// Reusable workspace for [`solve_many_into`]. Holds the cohort ordering and
/// the step-major lane buffers; all of it is retained between calls so a
/// warm scratch performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    /// Chain indices sorted by (length, input index) — cohort grouping.
    order: Vec<u32>,
    /// Step-major processor rates of the current cohort.
    lane_w: Vec<f64>,
    /// Step-major link rates of the current cohort.
    lane_z: Vec<f64>,
    /// Step-major local fractions of the current cohort.
    lane_ah: Vec<f64>,
    /// Step-major equivalent times of the current cohort.
    lane_wbar: Vec<f64>,
    /// Step-major global fractions of the current cohort.
    lane_alloc: Vec<f64>,
    /// Per-lane carried product `Π(1-α̂)` of the forward unroll.
    carried: Vec<f64>,
}

impl BatchScratch {
    /// A fresh (empty) workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Flat struct-of-arrays output of [`solve_many`]: chain `i` owns the arena
/// range `offsets[i] .. offsets[i + 1]` of each array.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BatchSolution {
    offsets: Vec<usize>,
    alpha_hat: Vec<f64>,
    w_bar: Vec<f64>,
    alloc: Vec<f64>,
}

impl BatchSolution {
    /// An empty solution buffer for [`solve_many_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of chains solved.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True if no chains were solved.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local fractions `α̂` of chain `i` (bit-identical to
    /// `reference::solve(net_i).local`).
    #[inline]
    pub fn alpha_hat(&self, i: usize) -> &[f64] {
        &self.alpha_hat[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Equivalent times `w̄` of chain `i` (bit-identical to
    /// `reference::solve(net_i).equivalent`).
    #[inline]
    pub fn w_bar(&self, i: usize) -> &[f64] {
        &self.w_bar[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Global fractions `α` of chain `i` (bit-identical to
    /// `reference::solve(net_i).alloc`).
    #[inline]
    pub fn alloc(&self, i: usize) -> &[f64] {
        &self.alloc[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Optimal makespan `w̄_0` of chain `i`.
    #[inline]
    pub fn makespan(&self, i: usize) -> f64 {
        self.w_bar[self.offsets[i]]
    }

    /// Materialize chain `i` as a [`LinearSolution`] bit-identical to
    /// `reference::solve(net_i)` (copies out of the arenas).
    pub fn solution(&self, i: usize) -> LinearSolution {
        LinearSolution {
            local: LocalAllocation::new(self.alpha_hat(i).to_vec()),
            alloc: crate::model::Allocation::new(self.alloc(i).to_vec()),
            equivalent: self.w_bar(i).to_vec(),
        }
    }
}

/// The per-lane kernel: backward reduction sweep (eqs. 2.4/2.7) then the
/// forward unroll (eqs. 2.5–2.6), over `k` independent lanes of length
/// `len`, step-major (`buf[step * k + lane]`). Per lane this is *exactly*
/// the FP operation sequence of the frozen scalar solver; the inner loops
/// are branch-free over contiguous slices so the compiler vectorizes across
/// lanes.
// The parameters are the five split-borrowed scratch buffers; bundling them
// in a struct would force whole-scratch borrows at the call sites.
#[allow(clippy::too_many_arguments)]
fn sweep_cohort(
    len: usize,
    k: usize,
    lane_w: &[f64],
    lane_z: &[f64],
    lane_ah: &mut [f64],
    lane_wbar: &mut [f64],
    lane_alloc: &mut [f64],
    carried: &mut Vec<f64>,
) {
    debug_assert_eq!(lane_w.len(), len * k);
    debug_assert_eq!(lane_z.len(), (len - 1) * k);
    let m = len - 1;
    // α̂_m = 1, w̄_m = w_m.
    {
        let w_row = &lane_w[m * k..(m + 1) * k];
        let ah_row = &mut lane_ah[m * k..(m + 1) * k];
        let wb_row = &mut lane_wbar[m * k..(m + 1) * k];
        for l in 0..k {
            ah_row[l] = 1.0;
            wb_row[l] = w_row[l];
        }
    }
    // Backward: α̂_i = tail / (w_i + tail), w̄_i = α̂_i · w_i.
    for s in (0..m).rev() {
        let (wb_head, wb_tail) = lane_wbar.split_at_mut((s + 1) * k);
        let wb_row = &mut wb_head[s * k..];
        let wb_next = &wb_tail[..k];
        let w_row = &lane_w[s * k..(s + 1) * k];
        let z_row = &lane_z[s * k..(s + 1) * k];
        let ah_row = &mut lane_ah[s * k..(s + 1) * k];
        for l in 0..k {
            let tail = wb_next[l] + z_row[l];
            let ah = tail / (w_row[l] + tail);
            ah_row[l] = ah;
            wb_row[l] = ah * w_row[l];
        }
    }
    // Forward: α_j = carried · α̂_j, carried *= 1 − α̂_j.
    carried.clear();
    carried.resize(k, 1.0);
    for s in 0..len {
        let ah_row = &lane_ah[s * k..(s + 1) * k];
        let al_row = &mut lane_alloc[s * k..(s + 1) * k];
        for l in 0..k {
            let ah = ah_row[l];
            al_row[l] = carried[l] * ah;
            carried[l] *= 1.0 - ah;
        }
    }
}

/// Solve every chain in `nets`, writing into `out` and using `scratch` for
/// all intermediate storage. With warm buffers this performs no heap
/// allocation. Results are independent of batch composition and order:
/// chain `i`'s lanes are bit-identical to `reference::solve(&nets[i])`
/// whatever else shares the batch.
pub fn solve_many_into(
    nets: &[LinearNetwork],
    scratch: &mut BatchScratch,
    out: &mut BatchSolution,
) {
    assert!(
        nets.len() <= u32::MAX as usize,
        "batch too large for u32 lane indices"
    );
    out.offsets.clear();
    out.offsets.push(0);
    let mut total = 0usize;
    for net in nets {
        total += net.len();
        out.offsets.push(total);
    }
    out.alpha_hat.clear();
    out.alpha_hat.resize(total, 0.0);
    out.w_bar.clear();
    out.w_bar.resize(total, 0.0);
    out.alloc.clear();
    out.alloc.resize(total, 0.0);

    // Cohort grouping: stable order (length, then input index) so reuse of a
    // dirty scratch is deterministic by construction.
    scratch.order.clear();
    scratch.order.extend(0..nets.len() as u32);
    scratch
        .order
        .sort_unstable_by_key(|&i| (nets[i as usize].len(), i));

    let mut start = 0usize;
    while start < scratch.order.len() {
        let len = nets[scratch.order[start] as usize].len();
        let mut end = start + 1;
        while end < scratch.order.len() && nets[scratch.order[end] as usize].len() == len {
            end += 1;
        }

        // Process the cohort in cache-sized tiles of at most TILE lanes.
        let mut tile = start;
        while tile < end {
            let k = (end - tile).min(TILE);

            // Gather the tile into step-major lanes.
            scratch.lane_w.clear();
            scratch.lane_w.resize(len * k, 0.0);
            scratch.lane_z.clear();
            scratch.lane_z.resize((len - 1) * k, 0.0);
            scratch.lane_ah.clear();
            scratch.lane_ah.resize(len * k, 0.0);
            scratch.lane_wbar.clear();
            scratch.lane_wbar.resize(len * k, 0.0);
            scratch.lane_alloc.clear();
            scratch.lane_alloc.resize(len * k, 0.0);
            for l in 0..k {
                let net = &nets[scratch.order[tile + l] as usize];
                for s in 0..len {
                    scratch.lane_w[s * k + l] = net.w(s);
                }
                for s in 0..len - 1 {
                    scratch.lane_z[s * k + l] = net.z(s + 1);
                }
            }

            sweep_cohort(
                len,
                k,
                &scratch.lane_w,
                &scratch.lane_z,
                &mut scratch.lane_ah,
                &mut scratch.lane_wbar,
                &mut scratch.lane_alloc,
                &mut scratch.carried,
            );

            // Scatter lanes back to the arenas at each chain's offset.
            for l in 0..k {
                let base = out.offsets[scratch.order[tile + l] as usize];
                for s in 0..len {
                    out.alpha_hat[base + s] = scratch.lane_ah[s * k + l];
                    out.w_bar[base + s] = scratch.lane_wbar[s * k + l];
                    out.alloc[base + s] = scratch.lane_alloc[s * k + l];
                }
            }
            tile += k;
        }
        start = end;
    }
}

/// Solve every chain in `nets` into a fresh [`BatchSolution`]. Convenience
/// wrapper over [`solve_many_into`]; batch-loop callers should reuse a
/// [`BatchScratch`] and output buffer instead.
pub fn solve_many(nets: &[LinearNetwork]) -> BatchSolution {
    obs::count!("dlt.batch.solve_many", "chains" => nets.len());
    let mut out = BatchSolution::new();
    SCRATCH.with(|s| solve_many_into(nets, &mut s.borrow_mut(), &mut out));
    out
}

thread_local! {
    /// Warm per-thread workspace backing [`solve_many`].
    static SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::new());
}

/// Solve a single chain: [`crate::linear::solve`], kept under this name for
/// callers that time the batch module's single-chain entry point. No
/// library path calls it.
pub fn solve_one(net: &LinearNetwork) -> LinearSolution {
    crate::linear::solve(net)
}

/// Every suffix solution of one chain, from a single O(m) backward sweep.
///
/// The `w̄` recursion already computes all suffix equivalents: the values at
/// index `i` depend only on indices `> i`, so the full-chain arrays *are*
/// the per-suffix arrays. Holds both the solve-style `w̄` (eq. 2.4 as
/// `α̂·w`) and the `equivalent_time`-style values (`w·t/(w+t)`), which are
/// distinct FP operation orders and distinct bit-identity targets — the
/// payment functions use both.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffixSolutions {
    alpha_hat: Vec<f64>,
    w_bar: Vec<f64>,
    eq_time: Vec<f64>,
}

impl SuffixSolutions {
    /// Number of processors (= number of suffixes).
    #[inline]
    pub fn len(&self) -> usize {
        self.alpha_hat.len()
    }

    /// True if there are no suffixes (never, for a solved chain).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.alpha_hat.is_empty()
    }

    /// Front local fraction of suffix `i`: bit-identical to
    /// `reference::solve_suffix(net, i).local.alpha_hat(0)`.
    #[inline]
    pub fn alpha_hat_front(&self, i: usize) -> f64 {
        self.alpha_hat[i]
    }

    /// Makespan of suffix `i`: bit-identical to
    /// `reference::solve_suffix(net, i).makespan()`.
    #[inline]
    pub fn makespan(&self, i: usize) -> f64 {
        self.w_bar[i]
    }

    /// Bit-identical to `reference::equivalent_time(&net.suffix(i))` (the
    /// *other* recursion order — see module docs).
    #[inline]
    pub fn equivalent_time(&self, i: usize) -> f64 {
        self.eq_time[i]
    }

    /// Materialize the full solution of suffix `i`, bit-identical to
    /// `reference::solve_suffix(net, i)`. O(m − i): only the forward unroll
    /// runs; the backward sweep is shared.
    pub fn solution(&self, i: usize) -> LinearSolution {
        let local = LocalAllocation::new(self.alpha_hat[i..].to_vec());
        let alloc = local.to_global();
        LinearSolution {
            local,
            alloc,
            equivalent: self.w_bar[i..].to_vec(),
        }
    }
}

/// Every suffix solution of `net` in one O(m) backward sweep.
pub fn solve_all_suffixes(net: &LinearNetwork) -> SuffixSolutions {
    obs::count!("dlt.batch.solve_all_suffixes", "m" => net.last_index());
    let m = net.last_index();
    let mut out = SuffixSolutions {
        alpha_hat: vec![0.0; m + 1],
        w_bar: vec![0.0; m + 1],
        eq_time: vec![0.0; m + 1],
    };
    out.alpha_hat[m] = 1.0;
    out.w_bar[m] = net.w(m);
    out.eq_time[m] = net.w(m);
    for i in (0..m).rev() {
        // Solve-style recursion (α̂ then w̄ = α̂·w) — reference::solve.
        (out.alpha_hat[i], out.w_bar[i]) =
            linear::reduce_pair(net.w(i), net.z(i + 1), out.w_bar[i + 1]);
        // equivalent_time-style recursion (w·t/(w+t)) — a different FP
        // order, pinned to reference::equivalent_time.
        out.eq_time[i] = linear::reduce_pair_equivalent(net.w(i), net.z(i + 1), out.eq_time[i + 1]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::reference;

    fn nets() -> Vec<LinearNetwork> {
        vec![
            LinearNetwork::from_rates(&[1.0, 2.0, 0.5, 4.0], &[0.2, 0.1, 0.7]),
            LinearNetwork::homogeneous(1, 3.0, 0.0),
            LinearNetwork::from_rates(&[0.7, 1.3], &[0.15]),
            LinearNetwork::from_rates(&[2.0, 1.0, 4.0, 0.25], &[0.3, 0.6, 0.1]),
            LinearNetwork::homogeneous(9, 1.5, 0.2),
        ]
    }

    #[test]
    fn solve_many_matches_reference_bitwise() {
        let nets = nets();
        let batch = solve_many(&nets);
        assert_eq!(batch.len(), nets.len());
        for (i, net) in nets.iter().enumerate() {
            let want = reference::solve(net);
            assert_eq!(format!("{:?}", batch.solution(i)), format!("{want:?}"));
            assert_eq!(batch.makespan(i).to_bits(), want.makespan().to_bits());
        }
    }

    #[test]
    fn solve_one_matches_reference_bitwise() {
        for net in nets() {
            let got = solve_one(&net);
            let want = reference::solve(&net);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn dirty_scratch_reuse_is_idempotent() {
        let nets = nets();
        let mut scratch = BatchScratch::new();
        let mut a = BatchSolution::new();
        let mut b = BatchSolution::new();
        solve_many_into(&nets, &mut scratch, &mut a);
        // Poison the scratch with a differently-shaped batch, then re-solve.
        let other = vec![LinearNetwork::homogeneous(17, 0.9, 0.3)];
        let mut junk = BatchSolution::new();
        solve_many_into(&other, &mut scratch, &mut junk);
        solve_many_into(&nets, &mut scratch, &mut b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn empty_batch_is_empty() {
        let batch = solve_many(&[]);
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
    }

    #[test]
    fn suffixes_match_reference_bitwise() {
        for net in nets() {
            let sfx = solve_all_suffixes(&net);
            assert_eq!(sfx.len(), net.len());
            for i in 0..net.len() {
                let want = reference::solve_suffix(&net, i);
                assert_eq!(
                    format!("{:?}", sfx.solution(i)),
                    format!("{want:?}"),
                    "suffix {i} of {net}"
                );
                assert_eq!(
                    sfx.alpha_hat_front(i).to_bits(),
                    want.local.alpha_hat(0).to_bits()
                );
                assert_eq!(sfx.makespan(i).to_bits(), want.makespan().to_bits());
                assert_eq!(
                    sfx.equivalent_time(i).to_bits(),
                    reference::equivalent_time(&net.suffix(i)).to_bits(),
                    "equivalent_time suffix {i}"
                );
            }
        }
    }
}
