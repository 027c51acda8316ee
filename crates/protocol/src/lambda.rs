//! The Λ data-tagging device (§4, footnote 1).
//!
//! The paper equips the load with a device `Λ_i` that lets processor `P_i`
//! *prove how much load it received*. The footnote's own construction is
//! implemented here: the unit load is divided into equal-sized blocks, each
//! carrying a unique identifier that is infeasible to guess. A node's
//! receipt proof is the set of identifiers it received; the root checks
//! them against the blocks it minted.
//!
//! ### Ids are a keyed permutation of the block index
//! Block `i`'s id is `π_seed(i)`, a bijection of `u64` keyed by the mint's
//! seed. π is built from invertible steps only: xor with a key word,
//! multiply by an odd constant, xor-shift right. So ids are distinct by
//! construction, and each id maps back to the one block index it came
//! from. Nothing is drawn or stored: a mint is its block count and seed,
//! and a tag cut by [`BlockMint::range`] or [`LoadTag::split`] is
//! `(seed, start, len)`. Ids are computed when something reads them
//! ([`LoadTag::ids`], a tag's `Debug`).
//!
//! [`BlockMint::verify`] decides a range with its own seed in O(1): it is
//! genuine exactly when its blocks lie below the mint's block count. So a
//! smaller mint's ids are a prefix of a larger one's with the same seed.
//! Every other tag (forged, hand-built, or cut with another seed) is
//! checked id by id: each id is inverted, its index must be below the
//! block count, and one bit per block catches a repeat. A guessed id is
//! valid with probability `blocks / 2^64`. Like a seeded pseudo-random
//! draw, π is not cryptographic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// splitmix64's increment, which spaces the key words apart.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// The odd multipliers of splitmix64's finalizer, and their inverses
/// modulo 2^64.
const M1: u64 = 0xBF58_476D_1CE4_E5B9;
const M2: u64 = 0x94D0_49BB_1331_11EB;
const M1_INV: u64 = inverse(M1);
const M2_INV: u64 = inverse(M2);

/// splitmix64's finalizer, a bijection of `u64`.
const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(M1);
    z = (z ^ (z >> 27)).wrapping_mul(M2);
    z ^ (z >> 31)
}

/// The inverse of [`mix`].
const fn unmix(mut z: u64) -> u64 {
    z = unshift(z, 31).wrapping_mul(M2_INV);
    z = unshift(z, 27).wrapping_mul(M1_INV);
    unshift(z, 30)
}

/// The inverse of `x ↦ x ^ (x >> s)`: `y ^ (y >> s) ^ (y >> 2s) ^ …`.
const fn unshift(y: u64, s: u32) -> u64 {
    let mut x = y;
    let mut k = s;
    while k < 64 {
        x ^= y >> k;
        k += s;
    }
    x
}

/// The inverse of odd `a` modulo 2^64, by Newton's iteration: `a` is its
/// own inverse to 3 bits, and each step doubles the correct bits.
const fn inverse(a: u64) -> u64 {
    let mut x = a;
    let mut step = 0;
    while step < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        step += 1;
    }
    x
}

/// `π_seed`, which maps a block index to its id.
#[derive(Clone, Copy)]
struct Perm([u64; 2]);

impl Perm {
    /// The key words are splitmix64's first two outputs from `seed`.
    fn new(seed: u64) -> Self {
        Self([
            mix(seed.wrapping_add(GAMMA)),
            mix(seed.wrapping_add(GAMMA.wrapping_mul(2))),
        ])
    }

    /// The id of block `index`.
    fn id(self, index: u64) -> u64 {
        mix(mix(index ^ self.0[0]) ^ self.0[1])
    }

    /// The block index whose id is `id`.
    fn index(self, id: u64) -> u64 {
        unmix(unmix(id) ^ self.0[1]) ^ self.0[0]
    }
}

/// The root-side mint: the authoritative set of block identifiers.
#[derive(Debug, Clone)]
pub struct BlockMint {
    blocks: usize,
    seed: u64,
}

impl BlockMint {
    /// A mint of `blocks` identifiers for the unit load, keyed by `seed`.
    pub fn new(blocks: usize, seed: u64) -> Self {
        assert!(blocks > 0);
        Self { blocks, seed }
    }

    /// Number of blocks the unit load was divided into.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The load amount represented by one block.
    pub fn block_size(&self) -> f64 {
        1.0 / self.blocks as f64
    }

    /// The identifiers for a contiguous range of blocks (used when carving
    /// the load for distribution).
    pub fn range(&self, start: usize, len: usize) -> LoadTag {
        assert!(start + len <= self.blocks);
        LoadTag(Ids::Range {
            seed: self.seed,
            start,
            len,
        })
    }

    /// Verify a receipt proof: every identifier must be genuine and
    /// distinct. Returns the proven load amount, or `None` if any
    /// identifier is invalid or duplicated.
    pub fn verify(&self, tag: &LoadTag) -> Option<f64> {
        let genuine = match tag.0 {
            Ids::Range { seed, start, len } if seed == self.seed => {
                len == 0 || start + len <= self.blocks
            }
            _ => {
                let perm = Perm::new(self.seed);
                let mut seen = vec![0u64; self.blocks.div_ceil(64)];
                tag.iter().all(|id| {
                    let index = perm.index(id);
                    if index >= self.blocks as u64 {
                        return false;
                    }
                    let (word, bit) = ((index / 64) as usize, 1 << (index % 64));
                    let fresh = seen[word] & bit == 0;
                    seen[word] |= bit;
                    fresh
                })
            }
        };
        genuine.then(|| tag.len() as f64 / self.blocks as f64)
    }

    /// Convert a load amount into a whole number of blocks (rounding to
    /// nearest; the protocol distributes block-aligned loads).
    pub fn to_blocks(&self, amount: f64) -> usize {
        (amount * self.blocks as f64).round() as usize
    }
}

/// A receipt proof: the block identifiers a node can exhibit.
#[derive(Clone)]
pub struct LoadTag(Ids);

#[derive(Clone)]
enum Ids {
    /// The ids of blocks `start..start + len` of a mint keyed by `seed`.
    Range { seed: u64, start: usize, len: usize },
    /// Ids held outright: forged, empty or hand-built tags.
    Owned(Vec<u64>),
}

impl LoadTag {
    /// An empty tag (no load received).
    pub fn empty() -> Self {
        Self::from_ids(Vec::new())
    }

    /// A tag exhibiting exactly `ids`, genuine or not.
    pub fn from_ids(ids: Vec<u64>) -> Self {
        Self(Ids::Owned(ids))
    }

    /// The identifiers, in block order for a range.
    pub fn ids(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// The identifiers, each computed as it is read for a range.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (minted, owned): (_, &[u64]) = match &self.0 {
            Ids::Range { seed, start, len } => (Some((Perm::new(*seed), *start..start + len)), &[]),
            Ids::Owned(ids) => (None, ids),
        };
        let minted = minted
            .into_iter()
            .flat_map(|(perm, blocks)| blocks.map(move |i| perm.id(i as u64)));
        minted.chain(owned.iter().copied())
    }

    /// Number of blocks covered.
    pub fn len(&self) -> usize {
        match &self.0 {
            Ids::Range { len, .. } => *len,
            Ids::Owned(ids) => ids.len(),
        }
    }

    /// True if no blocks are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split off the first `n` blocks (the retained part), leaving the
    /// remainder (the forwarded part).
    pub fn split(self, n: usize) -> (LoadTag, LoadTag) {
        assert!(n <= self.len());
        match self.0 {
            Ids::Range { seed, start, len } => (
                LoadTag(Ids::Range {
                    seed,
                    start,
                    len: n,
                }),
                LoadTag(Ids::Range {
                    seed,
                    start: start + n,
                    len: len - n,
                }),
            ),
            Ids::Owned(mut ids) => {
                let rest = ids.split_off(n);
                (Self::from_ids(ids), Self::from_ids(rest))
            }
        }
    }

    /// Forge a tag with guessed identifiers (for tests of the guessing
    /// attack).
    pub fn forged(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_ids((0..n).map(|_| rng.gen()).collect())
    }
}

impl fmt::Debug for LoadTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadTag").field("ids", &self.ids()).finish()
    }
}

impl PartialEq for LoadTag {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (
                Ids::Range { seed, start, len },
                Ids::Range {
                    seed: s,
                    start: st,
                    len: l,
                },
            ) if (seed, start, len) == (s, st, l) => true,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for LoadTag {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(blocks, seed, start, len)` with the range inside the block space.
    fn mint_and_range() -> impl Strategy<Value = (usize, u64, usize, usize)> {
        (1usize..400, 0u64..1_000_000).prop_flat_map(|(blocks, seed)| {
            (0..=blocks).prop_flat_map(move |start| {
                (0..=blocks - start).prop_map(move |len| (blocks, seed, start, len))
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_permutation_inverts_both_ways(x in 0..=u64::MAX, seed in 0..=u64::MAX) {
            let perm = Perm::new(seed);
            prop_assert_eq!(perm.index(perm.id(x)), x);
            prop_assert_eq!(perm.id(perm.index(x)), x);
            prop_assert_eq!(unmix(mix(x)), x);
            prop_assert_eq!(mix(unmix(x)), x);
        }

        #[test]
        fn range_tags_agree_with_owned_tags((blocks, seed, start, len) in mint_and_range()) {
            let mint = BlockMint::new(blocks, seed);
            let tag = mint.range(start, len);
            let perm = Perm::new(seed);
            let ids: Vec<u64> = (start..start + len).map(|i| perm.id(i as u64)).collect();
            prop_assert_eq!(tag.ids(), ids.clone());
            let owned = LoadTag::from_ids(ids);
            prop_assert_eq!(tag.len(), len);
            prop_assert_eq!(format!("{tag:?}"), format!("{owned:?}"));
            prop_assert_eq!(format!("{tag:#?}"), format!("{owned:#?}"));
            prop_assert_eq!(&tag, &owned);
            prop_assert_eq!(&owned, &tag);
            let proven = Some(len as f64 / blocks as f64);
            prop_assert_eq!(mint.verify(&tag), proven);
            prop_assert_eq!(mint.verify(&owned), proven);
            // Splitting a range is splitting its ids.
            let n = len / 2;
            let (kept, rest) = tag.split(n);
            let (okept, orest) = owned.split(n);
            prop_assert!(kept == okept && rest == orest);
            prop_assert_eq!(mint.verify(&kept), mint.verify(&okept));
            prop_assert_eq!(mint.verify(&rest), mint.verify(&orest));
        }

        #[test]
        fn a_larger_mints_range_verifies_when_it_ends_within_the_blocks(
            (blocks, seed, start, len) in mint_and_range(),
            cut in 0usize..400,
        ) {
            let larger = BlockMint::new(blocks, seed);
            let smaller_blocks = 1 + cut % blocks;
            let smaller = BlockMint::new(smaller_blocks, seed);
            let tag = larger.range(start, len);
            let within = start + len <= smaller_blocks;
            let proven = Some(len as f64 / smaller_blocks as f64);
            prop_assert_eq!(smaller.verify(&tag), proven.filter(|_| within || len == 0));
            // The same ids held outright get the same verdict, id by id.
            prop_assert_eq!(smaller.verify(&LoadTag::from_ids(tag.ids())), smaller.verify(&tag));
        }

        #[test]
        fn unequal_ranges_compare_unequal((blocks, seed, start, len) in mint_and_range()) {
            let mint = BlockMint::new(blocks, seed);
            prop_assume!(len > 0);
            prop_assert!(mint.range(start, len) != mint.range(start, len - 1));
            if start + len < blocks {
                prop_assert!(mint.range(start, len) != mint.range(start + 1, len));
            }
        }
    }

    #[test]
    fn mint_produces_unique_ids() {
        let mint = BlockMint::new(1000, 1);
        let mut ids = mint.range(0, 1000).ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn verify_accepts_genuine_range() {
        let mint = BlockMint::new(100, 2);
        let tag = mint.range(25, 50);
        assert_eq!(mint.verify(&tag), Some(0.5));
    }

    #[test]
    fn verify_rejects_a_range_keyed_by_another_seed() {
        let tag = BlockMint::new(100, 9).range(0, 10);
        assert_eq!(BlockMint::new(100, 10).verify(&tag), None);
    }

    #[test]
    fn verify_rejects_forged_ids() {
        let mint = BlockMint::new(100, 3);
        let forged = LoadTag::forged(10, 99);
        assert_eq!(mint.verify(&forged), None, "guessing identifiers must fail");
    }

    #[test]
    fn verify_rejects_duplicated_ids() {
        let mint = BlockMint::new(100, 4);
        let mut ids = mint.range(0, 5).ids();
        ids.push(ids[0]);
        let tag = LoadTag::from_ids(ids);
        assert_eq!(mint.verify(&tag), None, "double-counting blocks must fail");
    }

    #[test]
    fn empty_tag_proves_zero() {
        let mint = BlockMint::new(100, 5);
        assert_eq!(mint.verify(&LoadTag::empty()), Some(0.0));
    }

    #[test]
    fn split_partitions_blocks() {
        let mint = BlockMint::new(10, 6);
        let tag = mint.range(0, 10);
        let (kept, fwd) = tag.split(3);
        assert_eq!(kept.len(), 3);
        assert_eq!(fwd.len(), 7);
        assert_eq!(mint.verify(&kept), Some(0.3));
        assert_eq!(mint.verify(&fwd), Some(0.7));
    }

    #[test]
    fn to_blocks_rounds() {
        let mint = BlockMint::new(1000, 7);
        assert_eq!(mint.to_blocks(0.25), 250);
        assert_eq!(mint.to_blocks(1.0), 1000);
        assert_eq!(mint.to_blocks(0.2504), 250);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BlockMint::new(10, 8);
        let b = BlockMint::new(10, 8);
        assert_eq!(a.range(0, 10), b.range(0, 10));
        assert_eq!(a.range(0, 10).ids(), b.range(0, 10).ids());
    }
}
