//! Order-statistic rank/select support for the linked free lists.
//!
//! [`SeqTree`] is a flat, weight-augmented segment tree over `(key,
//! weight)` pairs whose keys arrive strictly decreasing — the linked
//! slab's `u64::MAX - seq` push stamps, so ascending key order is link
//! order. It answers, in O(log n), the questions the faithful free-list
//! walks answer in O(n):
//!
//! - [`SeqTree::rank`] — the 1-based position of a key in key order, which
//!   *is* the walk distance to that node;
//! - [`SeqTree::count_below`] — how many keys precede a bound (the charge
//!   of a walk that terminates early at that bound);
//! - [`SeqTree::first_at_least`] / [`SeqTree::first_at_least_from`] /
//!   [`SeqTree::first_at_least_below`] — the first position in (a range
//!   of) key order whose weight satisfies a fit, i.e. the node a
//!   first/next-fit walk would stop at.
//!
//! # Invariants
//!
//! The tree is a *replica* of its owner's walk order, never the owner
//! itself: every key is inserted exactly when its node becomes reachable
//! by the faithful walk and removed exactly when it stops being reachable,
//! with `weight` equal to the walked node's span length. Under that
//! discipline every rank/select answer is bit-identical to the faithful
//! walk's charge — the owner asserts exactly that, per query, in debug
//! builds (see the shadow-oracle notes in `linked.rs`), and
//! [`FreeIndex::check_oracle`](crate::heap::index::FreeIndex::check_oracle)
//! re-validates the whole replica per replay event in debug builds.
//!
//! The address-ordered list needs no replica: its blocked sorted array
//! (`ordered.rs`) walks in address order and skips whole chunks by their
//! maximum length. Like the memo tables of earlier revisions, the tree is
//! simulator-side acceleration: it is *not* part of the modelled manager,
//! so it contributes nothing to `control_overhead_bytes`.

/// Packed segment-tree node: live-leaf count in the high 32 bits, maximum
/// leaf weight in the low 32.
const COUNT_ONE: u64 = 1 << 32;
const COUNT_MASK: u64 = !(u32::MAX as u64);

#[inline(always)]
fn seg_combine(a: u64, b: u64) -> u64 {
    // Counts can never carry out of the high half (they are bounded by the
    // leaf count), so the halves add and max independently.
    ((a & COUNT_MASK) + (b & COUNT_MASK)) | u64::from((a as u32).max(b as u32))
}

#[inline(always)]
fn seg_count(v: u64) -> u64 {
    v >> 32
}

#[inline(always)]
fn seg_maxw(v: u64) -> u32 {
    v as u32
}

/// A flat order-statistic structure specialised for *monotonically
/// decreasing* keys — the linked slab's `u64::MAX - seq` push stamps.
///
/// Because each inserted key is strictly smaller than every key before it,
/// the key space maps to a dense, append-only leaf space (`leaf =
/// u64::MAX - key - 1`, i.e. the zero-based push stamp) and the whole tree
/// flattens into one contiguous array of packed `(count, max weight)`
/// nodes: updates walk a root path of adjacent sibling pairs (one cache
/// line per level) instead of chasing tree pointers, which is what makes
/// the per-event rank charges cheaper than the walks they replace.
///
/// Ascending key order == *descending* leaf order, so "first in link
/// order" selects are rightmost-leaf descents and rank/count queries are
/// suffix counts. The public API speaks in keys, not leaves, so the
/// owner's fit-search decompositions read in link order.
#[derive(Debug, Clone, Default)]
pub struct SeqTree {
    /// `2 * cap` packed nodes; node `i`'s children are `2i` and `2i + 1`,
    /// leaf `l` lives at `cap + l`. Empty until the first insert.
    tree: Vec<u64>,
    /// Caller payload per leaf, append-only (dead leaves keep their stale
    /// payload; the packed count says whether a leaf is live).
    payload: Vec<u32>,
    /// Leaf capacity: a power of two, doubled (with an O(cap) rebuild) when
    /// the append-only leaf space fills.
    cap: usize,
    len: usize,
}

impl SeqTree {
    /// An empty tree.
    pub fn new() -> Self {
        SeqTree::default()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every key, keeping the allocation. The leaf space restarts
    /// from zero, matching the owner slab's restarted push stamps.
    pub fn clear(&mut self) {
        self.tree.fill(0);
        self.payload.clear();
        self.len = 0;
    }

    #[inline(always)]
    fn leaf_of(key: u64) -> usize {
        (u64::MAX - key - 1) as usize
    }

    #[inline(always)]
    fn key_of(leaf: usize) -> u64 {
        u64::MAX - leaf as u64 - 1
    }

    /// Recompute the packed nodes on the path from leaf `l` to the root.
    #[inline(always)]
    fn pull_path(&mut self, l: usize) {
        let mut i = (self.cap + l) >> 1;
        while i >= 1 {
            self.tree[i] = seg_combine(self.tree[2 * i], self.tree[2 * i + 1]);
            i >>= 1;
        }
    }

    /// Double the leaf capacity, keeping leaves in place (the space is
    /// append-only, so existing leaves never move) and rebuilding the
    /// internal levels. Amortised O(1) per insert.
    fn grow(&mut self, need: usize) {
        let old_cap = self.cap;
        let mut cap = if old_cap == 0 { 64 } else { old_cap };
        while cap <= need {
            cap *= 2;
        }
        let mut tree = vec![0u64; 2 * cap];
        tree[cap..cap + old_cap].copy_from_slice(&self.tree[old_cap..2 * old_cap]);
        for i in (1..cap).rev() {
            tree[i] = seg_combine(tree[2 * i], tree[2 * i + 1]);
        }
        self.tree = tree;
        self.cap = cap;
    }

    /// Insert `key` with `weight`. Keys must arrive strictly decreasing —
    /// the linked slab's push-stamp discipline — so each insert appends the
    /// next leaf.
    pub fn insert(&mut self, key: u64, weight: usize, payload: u32) {
        let leaf = Self::leaf_of(key);
        debug_assert_eq!(leaf, self.payload.len(), "seq keys must be monotone");
        debug_assert!(
            u32::try_from(weight).is_ok(),
            "span length {weight} exceeds the packed weight range"
        );
        if leaf >= self.cap {
            self.grow(leaf);
        }
        self.payload.push(payload);
        self.tree[self.cap + leaf] = COUNT_ONE | u64::from(weight as u32);
        self.pull_path(leaf);
        self.len += 1;
    }

    /// Remove `key`, returning whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let leaf = Self::leaf_of(key);
        if leaf >= self.payload.len() || self.tree[self.cap + leaf] == 0 {
            return false;
        }
        self.tree[self.cap + leaf] = 0;
        self.pull_path(leaf);
        self.len -= 1;
        true
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        let leaf = Self::leaf_of(key);
        leaf < self.payload.len() && self.tree[self.cap + leaf] != 0
    }

    /// Count of live leaves strictly greater than `leaf` — i.e. of keys
    /// strictly below `key_of(leaf)` (suffix sum along the root path).
    #[inline(always)]
    fn count_leaves_above(&self, leaf: usize) -> u64 {
        let mut i = self.cap + leaf;
        let mut acc = 0u64;
        while i > 1 {
            if i & 1 == 0 {
                acc += seg_count(self.tree[i + 1]);
            }
            i >>= 1;
        }
        acc
    }

    /// 1-based position of a present key in ascending key order.
    pub fn rank(&self, key: u64) -> u64 {
        debug_assert!(self.contains(key), "rank of an absent key");
        self.count_leaves_above(Self::leaf_of(key)) + 1
    }

    /// Number of keys strictly below `key` (which need not be present).
    pub fn count_below(&self, key: u64) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        let leaf = Self::leaf_of(key);
        if leaf >= self.cap {
            // `key` is below every possible stamp: nothing precedes it.
            return 0;
        }
        self.count_leaves_above(leaf)
    }

    /// Descend from internal node `i` to its rightmost leaf of weight
    /// `>= min_w`. Caller guarantees such a leaf exists under `i`.
    #[inline(always)]
    fn descend_rightmost(&self, mut i: usize, min_w: u32) -> (u64, u32) {
        while i < self.cap {
            i *= 2;
            if seg_maxw(self.tree[i + 1]) >= min_w {
                i += 1;
            }
        }
        let leaf = i - self.cap;
        (Self::key_of(leaf), self.payload[leaf])
    }

    /// Rightmost leaf in `[lo, hi)` with weight `>= min_w`, as
    /// `(key, payload)`. The canonical cover of the range is scanned from
    /// its right end, so the first satisfying node wins.
    fn rightmost_fit_in(&self, lo: usize, hi: usize, min_w: u32) -> Option<(u64, u32)> {
        let mut l = self.cap + lo;
        let mut r = self.cap + hi;
        // Canonical cover: `lefts` in left-to-right order, `rights` in
        // right-to-left order (the scan order we want).
        let mut lefts = [0usize; 64];
        let mut nl = 0;
        let mut rights = [0usize; 64];
        let mut nr = 0;
        while l < r {
            if l & 1 == 1 {
                lefts[nl] = l;
                nl += 1;
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                rights[nr] = r;
                nr += 1;
            }
            l >>= 1;
            r >>= 1;
        }
        for &i in rights[..nr].iter() {
            if seg_maxw(self.tree[i]) >= min_w {
                return Some(self.descend_rightmost(i, min_w));
            }
        }
        for &i in lefts[..nl].iter().rev() {
            if seg_maxw(self.tree[i]) >= min_w {
                return Some(self.descend_rightmost(i, min_w));
            }
        }
        None
    }

    #[inline(always)]
    fn clamp_w(min_weight: usize) -> u32 {
        debug_assert!(
            u32::try_from(min_weight).is_ok(),
            "fit request {min_weight} exceeds the packed weight range"
        );
        min_weight.min(u32::MAX as usize) as u32
    }

    /// First key in ascending key order with weight `>= min_weight` — the
    /// rightmost fitting leaf.
    pub fn first_at_least(&self, min_weight: usize) -> Option<(u64, u32)> {
        if self.cap == 0 {
            return None;
        }
        self.rightmost_fit_in(0, self.cap, Self::clamp_w(min_weight))
    }

    /// First key `>= lo` in ascending key order with weight `>= min_weight`
    /// — the rightmost fitting leaf at or below `lo`'s stamp.
    pub fn first_at_least_from(&self, lo: u64, min_weight: usize) -> Option<(u64, u32)> {
        if self.cap == 0 {
            return None;
        }
        let leaf = Self::leaf_of(lo).min(self.cap - 1);
        self.rightmost_fit_in(0, leaf + 1, Self::clamp_w(min_weight))
    }

    /// First key strictly below `hi` in ascending key order with weight
    /// `>= min_weight` — the rightmost fitting leaf above `hi`'s stamp.
    pub fn first_at_least_below(&self, hi: u64, min_weight: usize) -> Option<(u64, u32)> {
        if self.cap == 0 {
            return None;
        }
        let leaf = Self::leaf_of(hi);
        if leaf + 1 >= self.cap {
            return None;
        }
        self.rightmost_fit_in(leaf + 1, self.cap, Self::clamp_w(min_weight))
    }

    /// Whether the append-only leaf space is full. The owner can either
    /// let the next insert double it ([`SeqTree::insert`] grows
    /// automatically) or — when most leaves are dead — restamp its nodes
    /// and [`SeqTree::reset_with_room_for`] a compact space, which keeps
    /// the tree depth at `log2(live)`-ish instead of `log2(total inserts)`.
    pub fn at_capacity(&self) -> bool {
        self.payload.len() == self.cap
    }

    /// Current leaf capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Empty the tree and restart the leaf space sized for `n` live keys
    /// (with slack so the next compaction is at least `n` inserts away).
    pub fn reset_with_room_for(&mut self, n: usize) {
        let cap = (2 * n).next_power_of_two().max(64);
        if self.tree.len() == 2 * cap {
            self.tree.fill(0);
        } else {
            self.tree = vec![0u64; 2 * cap];
        }
        self.cap = cap;
        self.payload.clear();
        self.len = 0;
    }

    /// Largest live weight, or 0 when empty.
    pub fn max_weight(&self) -> usize {
        if self.cap == 0 {
            0
        } else {
            seg_maxw(self.tree[1]) as usize
        }
    }

    /// The packed count at `key`'s leaf — replica validation hook.
    pub fn leaf_entry(&self, key: u64) -> Option<(usize, u32)> {
        let leaf = Self::leaf_of(key);
        if leaf >= self.payload.len() || self.tree[self.cap + leaf] == 0 {
            return None;
        }
        Some((
            seg_maxw(self.tree[self.cap + leaf]) as usize,
            self.payload[leaf],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat reference: sorted `(key, weight, payload)` triples.
    #[derive(Default)]
    struct RefSet(Vec<(u64, usize, u32)>);

    impl RefSet {
        fn insert(&mut self, key: u64, w: usize, p: u32) {
            let i = self.0.partition_point(|&(k, _, _)| k < key);
            self.0.insert(i, (key, w, p));
        }
        fn remove(&mut self, key: u64) -> bool {
            match self.0.iter().position(|&(k, _, _)| k == key) {
                Some(i) => {
                    self.0.remove(i);
                    true
                }
                None => false,
            }
        }
        fn rank(&self, key: u64) -> u64 {
            self.0.iter().position(|&(k, _, _)| k == key).unwrap() as u64 + 1
        }
        fn count_below(&self, key: u64) -> u64 {
            self.0.iter().filter(|&&(k, _, _)| k < key).count() as u64
        }
        fn first(&self, fits: impl Fn(u64, usize) -> bool) -> Option<(u64, u32)> {
            self.0
                .iter()
                .find(|&&(k, w, _)| fits(k, w))
                .map(|&(k, _, p)| (k, p))
        }
    }

    /// SeqTree under the owner slab's discipline (strictly decreasing
    /// keys), cross-checked per op against the flat reference.
    #[test]
    fn seq_tree_matches_reference_under_monotone_churn() {
        let mut seq_tree = SeqTree::new();
        let mut reference = RefSet::default();
        let mut live: Vec<u64> = Vec::new();
        let mut seq = 0u64;
        let mut x: u64 = 0xDEAD_BEEF_1234_5678;
        for round in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.len() < 4 || !x.is_multiple_of(3) {
                seq += 1;
                let key = u64::MAX - seq;
                let w = 16 + (x >> 32) as usize % 96;
                let p = (seq % 11) as u32;
                seq_tree.insert(key, w, p);
                reference.insert(key, w, p);
                live.push(key);
            } else {
                let i = (x as usize / 5) % live.len();
                let key = live.swap_remove(i);
                assert!(seq_tree.remove(key));
                assert!(!seq_tree.remove(key), "double remove must miss");
                assert!(reference.remove(key));
            }
            assert_eq!(seq_tree.len(), reference.0.len());
            assert_eq!(
                seq_tree.max_weight(),
                reference.0.iter().map(|&(_, w, _)| w).max().unwrap_or(0)
            );
            if round % 5 == 0 {
                let probes = [
                    u64::MAX - 1,
                    u64::MAX - seq.max(1),
                    u64::MAX - seq / 2 - 1,
                    u64::MAX - seq - 40, // below every stamp issued so far
                ];
                for probe in probes {
                    assert_eq!(
                        seq_tree.count_below(probe),
                        reference.count_below(probe),
                        "count_below({probe:#x})"
                    );
                    for w in [1usize, 40, 80, 200] {
                        assert_eq!(
                            seq_tree.first_at_least(w),
                            reference.first(|_, x| x >= w),
                            "first_at_least({w})"
                        );
                        assert_eq!(
                            seq_tree.first_at_least_from(probe, w),
                            reference.first(|k, x| k >= probe && x >= w),
                            "first_from({probe:#x},{w})"
                        );
                        assert_eq!(
                            seq_tree.first_at_least_below(probe, w),
                            reference.first(|k, x| k < probe && x >= w),
                            "first_below({probe:#x},{w})"
                        );
                    }
                }
                for &key in live.iter().take(8) {
                    assert_eq!(seq_tree.rank(key), reference.rank(key), "rank");
                    assert!(seq_tree.contains(key));
                }
            }
        }
        // Clear restarts the stamp space from zero.
        seq_tree.clear();
        assert!(seq_tree.is_empty());
        seq_tree.insert(u64::MAX - 1, 32, 9);
        assert_eq!(seq_tree.first_at_least(1), Some((u64::MAX - 1, 9)));
        assert_eq!(seq_tree.leaf_entry(u64::MAX - 1), Some((32, 9)));
    }
}
