//! The Λ data-tagging device (§4, footnote 1).
//!
//! The paper equips the load with a device `Λ_i` that lets processor `P_i`
//! *prove how much load it received*. The footnote's own construction is
//! implemented here: the unit load is divided into equal-sized blocks, each
//! carrying a unique random identifier drawn from a space large enough that
//! guessing a valid identifier is negligible. A node's receipt proof is the
//! set of identifiers it received; the root checks them against the set it
//! minted.
//!
//! ### Ids are drawn when a proof is read
//! A run carves the load into tags far more often than anyone looks at an
//! id: a fault-free run never checks one. So [`BlockMint::new`] draws
//! nothing. It keeps the seed and the block count, and shares one id table
//! with every tag cut from it. The table is drawn the first time anything
//! reads an id — [`BlockMint::verify`], [`LoadTag::ids`], a tag's `Debug`
//! or a comparison of tags from different ranges — in the same draw order,
//! skipping duplicates, so every id and its position are a pure function
//! of `(blocks, seed)`.
//!
//! A [`LoadTag`] cut by [`BlockMint::range`] or [`LoadTag::split`] is a
//! range of that shared table, so carving is O(1). Forged, empty and
//! hand-built tags own their ids. `verify` trusts a range of its own table
//! outright: it is genuine and its ids are distinct by construction. Every
//! other tag, including a range of another mint drawn from the same seed
//! (a transcript replay), is checked id by id.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The root-side mint: the authoritative set of block identifiers.
#[derive(Debug, Clone)]
pub struct BlockMint {
    table: Arc<Table>,
}

/// One mint's ids, drawn on first read and shared by every tag cut from it.
struct Table {
    blocks: usize,
    seed: u64,
    drawn: OnceLock<Drawn>,
}

/// The drawn ids in draw order, and the same ids as a lookup set.
struct Drawn {
    ids: Vec<u64>,
    lookup: HashSet<u64>,
}

impl Table {
    fn drawn(&self) -> &Drawn {
        self.drawn.get_or_init(|| {
            #[cfg(test)]
            probe::note_draw();
            let mut rng = StdRng::seed_from_u64(self.seed);
            draw(self.blocks, || rng.gen())
        })
    }

    fn ids(&self) -> &[u64] {
        &self.drawn().ids
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("blocks", &self.blocks)
            .field("drawn", &self.drawn.get().is_some())
            .finish_non_exhaustive()
    }
}

/// Take the first `blocks` distinct values of the stream `next`, in order.
fn draw(blocks: usize, mut next: impl FnMut() -> u64) -> Drawn {
    let mut lookup = HashSet::with_capacity(blocks);
    let mut ids = Vec::with_capacity(blocks);
    while ids.len() < blocks {
        let id = next();
        if lookup.insert(id) {
            ids.push(id);
        }
    }
    Drawn { ids, lookup }
}

impl BlockMint {
    /// A mint of `blocks` identifiers for the unit load, drawn from `seed`
    /// when first read.
    pub fn new(blocks: usize, seed: u64) -> Self {
        assert!(blocks > 0);
        Self {
            table: Arc::new(Table {
                blocks,
                seed,
                drawn: OnceLock::new(),
            }),
        }
    }

    /// Number of blocks the unit load was divided into.
    pub fn blocks(&self) -> usize {
        self.table.blocks
    }

    /// The load amount represented by one block.
    pub fn block_size(&self) -> f64 {
        1.0 / self.blocks() as f64
    }

    /// The identifiers for a contiguous range of blocks (used when carving
    /// the load for distribution).
    pub fn range(&self, start: usize, len: usize) -> LoadTag {
        assert!(start + len <= self.blocks());
        LoadTag(Ids::Range {
            table: Arc::clone(&self.table),
            start,
            len,
        })
    }

    /// Verify a receipt proof: every identifier must be genuine and
    /// distinct. Returns the proven load amount, or `None` if any
    /// identifier is invalid or duplicated.
    pub fn verify(&self, tag: &LoadTag) -> Option<f64> {
        // Reading a proof draws the ids it is checked against.
        let drawn = self.table.drawn();
        let genuine = match &tag.0 {
            Ids::Range { table, .. } if Arc::ptr_eq(table, &self.table) => true,
            _ => {
                let mut seen = HashSet::with_capacity(tag.len());
                tag.ids()
                    .iter()
                    .all(|id| drawn.lookup.contains(id) && seen.insert(*id))
            }
        };
        genuine.then(|| tag.len() as f64 / self.blocks() as f64)
    }

    /// Convert a load amount into a whole number of blocks (rounding to
    /// nearest; the protocol distributes block-aligned loads).
    pub fn to_blocks(&self, amount: f64) -> usize {
        (amount * self.blocks() as f64).round() as usize
    }
}

/// A receipt proof: the block identifiers a node can exhibit.
#[derive(Clone)]
pub struct LoadTag(Ids);

#[derive(Clone)]
enum Ids {
    /// `len` ids of a mint's table from position `start`.
    Range {
        table: Arc<Table>,
        start: usize,
        len: usize,
    },
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

    /// The identifiers, drawing the mint's table if this tag is a range of
    /// one.
    pub fn ids(&self) -> &[u64] {
        match &self.0 {
            Ids::Range { table, start, len } => &table.ids()[*start..start + len],
            Ids::Owned(ids) => ids,
        }
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
            Ids::Range { table, start, len } => {
                let rest = Ids::Range {
                    table: Arc::clone(&table),
                    start: start + n,
                    len: len - n,
                };
                let kept = Ids::Range {
                    table,
                    start,
                    len: n,
                };
                (LoadTag(kept), LoadTag(rest))
            }
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
                Ids::Range { table, start, len },
                Ids::Range {
                    table: t,
                    start: s,
                    len: l,
                },
            ) if Arc::ptr_eq(table, t) && (start, len) == (s, l) => true,
            _ => self.len() == other.len() && self.ids() == other.ids(),
        }
    }
}

impl Eq for LoadTag {}

/// Counts table draws on the current thread, so tests can pin which runs
/// leave the ids undrawn.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::Cell;

    thread_local! {
        static DRAWS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn note_draw() {
        DRAWS.with(|d| d.set(d.get() + 1));
    }

    /// Tables drawn on this thread so far.
    pub(crate) fn draws() -> usize {
        DRAWS.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eager mint every range tag must agree with: the whole id set
    /// drawn at construction, and every tag checked id by id.
    struct EagerMint {
        ids: Vec<u64>,
        lookup: HashSet<u64>,
        blocks: usize,
    }

    impl EagerMint {
        fn new(blocks: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            Self::from_draws(blocks, std::iter::from_fn(|| Some(rng.gen())))
        }

        fn from_draws(blocks: usize, mut draws: impl Iterator<Item = u64>) -> Self {
            let mut lookup = HashSet::with_capacity(blocks);
            let mut ids = Vec::with_capacity(blocks);
            while ids.len() < blocks {
                let id = draws.next().expect("draw stream ran dry");
                if lookup.insert(id) {
                    ids.push(id);
                }
            }
            Self {
                ids,
                lookup,
                blocks,
            }
        }

        fn range(&self, start: usize, len: usize) -> LoadTag {
            LoadTag::from_ids(self.ids[start..start + len].to_vec())
        }

        fn verify(&self, ids: &[u64]) -> Option<f64> {
            let mut seen = HashSet::with_capacity(ids.len());
            for id in ids {
                if !self.lookup.contains(id) || !seen.insert(*id) {
                    return None;
                }
            }
            Some(ids.len() as f64 / self.blocks as f64)
        }
    }

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
        fn range_tags_match_the_eager_oracle((blocks, seed, start, len) in mint_and_range()) {
            let mint = BlockMint::new(blocks, seed);
            let oracle = EagerMint::new(blocks, seed);
            let tag = mint.range(start, len);
            let owned = oracle.range(start, len);
            prop_assert_eq!(tag.len(), len);
            prop_assert_eq!(tag.ids(), &oracle.ids[start..start + len]);
            prop_assert_eq!(format!("{tag:?}"), format!("{owned:?}"));
            prop_assert_eq!(format!("{tag:#?}"), format!("{owned:#?}"));
            prop_assert_eq!(&tag, &owned);
            prop_assert_eq!(&owned, &tag);
            prop_assert_eq!(mint.verify(&tag), oracle.verify(owned.ids()));
            prop_assert_eq!(mint.verify(&owned), oracle.verify(owned.ids()));
            // Splitting a range is splitting its ids.
            let n = len / 2;
            let (kept, rest) = tag.split(n);
            let (okept, orest) = owned.split(n);
            prop_assert!(kept == okept && rest == orest);
            prop_assert_eq!(mint.verify(&rest), oracle.verify(orest.ids()));
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
    fn draws_skip_a_repeated_id() {
        let stream = [5, 7, 5, 9, 7, 7, 11, 13];
        let mut it = stream.iter().copied();
        let drawn = draw(4, || it.next().unwrap());
        assert_eq!(drawn.ids, [5, 7, 9, 11]);
        assert_eq!(drawn.lookup.len(), 4);
        assert_eq!(drawn.ids, EagerMint::from_draws(4, stream.into_iter()).ids);
    }

    #[test]
    fn minting_draws_nothing_until_an_id_is_read() {
        let before = probe::draws();
        let mint = BlockMint::new(1000, 1);
        let tag = mint.range(100, 500);
        let (kept, rest) = tag.clone().split(200);
        assert_eq!((kept.len(), rest.len()), (200, 300));
        assert!(tag == mint.range(100, 500));
        assert_eq!(probe::draws(), before);
        assert_eq!(mint.verify(&rest), Some(0.3));
        assert_eq!(mint.verify(&kept), Some(0.2));
        let _ = format!("{tag:?}");
        assert_eq!(probe::draws(), before + 1, "one table, drawn once");
    }

    #[test]
    fn mint_produces_unique_ids() {
        let mint = BlockMint::new(1000, 1);
        let all = mint.range(0, 1000);
        let unique: HashSet<_> = all.ids().iter().collect();
        assert_eq!(unique.len(), 1000);
    }

    #[test]
    fn verify_accepts_genuine_range() {
        let mint = BlockMint::new(100, 2);
        let tag = mint.range(25, 50);
        assert_eq!(mint.verify(&tag), Some(0.5));
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
        let mut ids = mint.range(0, 5).ids().to_vec();
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
    }
}
