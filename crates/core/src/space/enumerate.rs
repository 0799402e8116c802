//! Exhaustive enumeration of the (constraint-pruned) search space.
//!
//! The raw cartesian product of the twelve trees has 829 440 combinations;
//! the hard interdependency rules prune it to the set of *coherent* atomic
//! managers. A depth-first walk in traversal order finds them, so
//! constraint propagation cuts whole subtrees early.
//!
//! # The space table
//!
//! The complete leaf assignments of a tree order are a constant of the
//! program: they depend on the trees, the rules and the order, never on a
//! trace or a [`Params`] block. `space_table` therefore runs the DFS
//! once per process per order and keeps its result, one twelve-byte
//! [`PartialConfig`] per configuration (about 0.5 MB for the 39,840-point
//! default space). [`SpaceIter`] walks that table and freezes each entry
//! with its `space-point-N` name and the caller's `Params`, so a process
//! that sweeps many times pays the DFS once, not once per sweep. The
//! exhaustive sweep (`crate::methodology::exhaustive_best_with_engine`)
//! reads the table directly and materialises a [`DmConfig`] only for the
//! candidates it evaluates.
//!
//! The DFS itself is not memoised: caching `completable()` verdicts
//! across the walk measured several times *slower* than re-deriving them
//! (9 → 53 ms for the default space).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::space::config::{DmConfig, Params, PartialConfig};
use crate::space::interdep::admissible_leaves;
use crate::space::order::TRAVERSAL_ORDER;
use crate::space::trees::{Leaf, TreeId};

/// The complete leaf assignments of the pruned space in `order`'s
/// depth-first enumeration order, built on first use and shared by every
/// later caller in the process. Entry `i` is the configuration
/// [`SpaceIter`] names `space-point-{i + 1}`.
///
/// Concurrent first uses build the table once; every caller sees the same
/// sequence.
///
/// # Panics
///
/// Panics if `order` does not name twelve trees.
pub(crate) fn space_table(order: &[TreeId]) -> Arc<[PartialConfig]> {
    assert_eq!(order.len(), TreeId::ALL.len(), "order must cover all trees");
    type Tables = HashMap<Vec<TreeId>, Arc<[PartialConfig]>>;
    static TABLES: OnceLock<Mutex<Tables>> = OnceLock::new();
    let mut tables = TABLES
        .get_or_init(Mutex::default)
        .lock()
        // A walk that panicked inserted nothing, so the map stays whole.
        .unwrap_or_else(|p| p.into_inner());
    // Built under the lock: a concurrent first use waits for this walk
    // instead of running its own.
    Arc::clone(
        tables
            .entry(order.to_vec())
            .or_insert_with(|| Dfs::new(order.to_vec()).collect()),
    )
}

/// The depth-first walk behind [`space_table`]: every complete, valid
/// leaf assignment in `order`, preference-ordered leaves first.
#[derive(Debug)]
struct Dfs {
    order: Vec<TreeId>,
    /// Stack of (depth, leaf-to-apply) pairs still to explore.
    stack: Vec<(usize, Leaf)>,
    /// Current partial assignment along the DFS path.
    path: Vec<Leaf>,
    partial: PartialConfig,
}

impl Dfs {
    fn new(order: Vec<TreeId>) -> Self {
        let mut dfs = Dfs {
            order,
            stack: Vec::new(),
            path: Vec::new(),
            partial: PartialConfig::default(),
        };
        dfs.push_children(0);
        dfs
    }

    fn push_children(&mut self, depth: usize) {
        if depth >= self.order.len() {
            return;
        }
        let tree = self.order[depth];
        // Reverse so the preference-ordered first leaf pops first.
        for leaf in admissible_leaves(tree, &self.partial).into_iter().rev() {
            self.stack.push((depth, leaf));
        }
    }

    fn rewind_to(&mut self, depth: usize) {
        while self.path.len() > depth {
            let leaf = self.path.pop().expect("path rewind underflow");
            self.partial.clear(leaf.tree());
        }
    }
}

impl Iterator for Dfs {
    type Item = PartialConfig;

    fn next(&mut self) -> Option<PartialConfig> {
        while let Some((depth, leaf)) = self.stack.pop() {
            self.rewind_to(depth);
            self.partial.set(leaf);
            self.path.push(leaf);
            if self.path.len() == self.order.len() {
                return Some(self.partial);
            }
            self.push_children(depth + 1);
        }
        None
    }
}

/// Iterator over every valid complete configuration, in the depth-first
/// enumeration order of its tree order (see the module docs).
///
/// # Examples
///
/// ```
/// use dmm_core::space::enumerate::SpaceIter;
/// let n = SpaceIter::new().take(10).count();
/// assert_eq!(n, 10);
/// ```
pub struct SpaceIter {
    table: Arc<[PartialConfig]>,
    /// Index of the next entry to yield.
    next: usize,
    params: Params,
}

impl SpaceIter {
    /// Iterate the full pruned space in the paper's traversal order.
    pub fn new() -> Self {
        Self::with_order_and_params(TRAVERSAL_ORDER.to_vec(), Params::footprint_optimised())
    }

    /// Iterate with a custom tree order and parameter block.
    ///
    /// The order affects only the enumeration sequence, not the set of
    /// configurations produced.
    pub fn with_order_and_params(order: Vec<TreeId>, params: Params) -> Self {
        SpaceIter {
            table: space_table(&order),
            next: 0,
            params,
        }
    }
}

impl Default for SpaceIter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SpaceIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceIter")
            .field("len", &self.table.len())
            .field("next", &self.next)
            .field("params", &self.params)
            .finish()
    }
}

impl Iterator for SpaceIter {
    type Item = DmConfig;

    fn next(&mut self) -> Option<DmConfig> {
        let point = *self.table.get(self.next)?;
        self.next += 1;
        Some(freeze_point(point, self.next - 1, &self.params))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.table.len() - self.next;
        (left, Some(left))
    }

    fn count(self) -> usize {
        self.len()
    }

    fn nth(&mut self, n: usize) -> Option<DmConfig> {
        // Skipped entries are never frozen.
        self.next = self.next.saturating_add(n).min(self.table.len());
        self.next()
    }
}

impl ExactSizeIterator for SpaceIter {}

/// Table entry `index` as the configuration [`SpaceIter`] yields for it:
/// named `space-point-{index + 1}`, carrying `params`.
pub(crate) fn freeze_point(point: PartialConfig, index: usize, params: &Params) -> DmConfig {
    point
        .freeze(format!("space-point-{}", index + 1), params.clone())
        .expect("table entries are complete")
}

/// Count the valid configurations without materialising them.
pub fn count_valid() -> usize {
    space_table(TRAVERSAL_ORDER).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::order::{reversed_order, A3_FIRST_ORDER};
    use std::collections::HashSet;

    #[test]
    fn table_matches_a_fresh_walk_for_every_order() {
        // The DFS oracle: for every tree order the repository sweeps or
        // ablates, the shared table is exactly what a fresh walk yields,
        // and SpaceIter freezes entry i as `space-point-{i + 1}`.
        let params = Params::footprint_optimised();
        for order in [
            &TRAVERSAL_ORDER[..],
            &A3_FIRST_ORDER[..],
            &reversed_order()[..],
        ] {
            let fresh: Vec<PartialConfig> = Dfs::new(order.to_vec()).collect();
            let table = space_table(order);
            assert_eq!(
                &table[..],
                &fresh[..],
                "{}",
                crate::space::order::format_order(order)
            );
            assert!(
                Arc::ptr_eq(&table, &space_table(order)),
                "built once per order"
            );
            for (i, cfg) in SpaceIter::with_order_and_params(order.to_vec(), params.clone())
                .enumerate()
                .step_by(101)
            {
                assert_eq!(
                    cfg,
                    fresh[i]
                        .freeze(format!("space-point-{}", i + 1), params.clone())
                        .unwrap()
                );
            }
        }
    }

    #[test]
    fn concurrent_first_use_builds_one_table() {
        // An order no other test uses, so the threads below race to build
        // its table; they must all get the one table, equal to a fresh walk.
        let mut order = *TRAVERSAL_ORDER;
        order.rotate_left(5);
        let start = std::sync::Barrier::new(4);
        let tables: Vec<Arc<[PartialConfig]>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        space_table(&order)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh: Vec<PartialConfig> = Dfs::new(order.to_vec()).collect();
        for table in &tables {
            assert!(Arc::ptr_eq(table, &tables[0]), "one table per order");
            assert_eq!(&table[..], &fresh[..]);
        }
    }

    #[test]
    fn skipping_and_counting_match_the_plain_walk() {
        let plain: Vec<DmConfig> = SpaceIter::new().collect();
        assert_eq!(SpaceIter::new().count(), plain.len());
        assert_eq!(SpaceIter::new().len(), plain.len());
        let strided: Vec<DmConfig> = SpaceIter::new().step_by(97).collect();
        let want: Vec<DmConfig> = plain.iter().step_by(97).cloned().collect();
        assert_eq!(strided, want);
        let mut it = SpaceIter::new();
        assert_eq!(it.nth(plain.len() - 1).as_ref(), plain.last());
        assert_eq!(it.next(), None);
        assert_eq!(SpaceIter::new().nth(usize::MAX), None);
    }

    #[test]
    fn enumeration_yields_only_valid_configs() {
        for cfg in SpaceIter::new().take(500) {
            cfg.validate()
                .unwrap_or_else(|e| panic!("enumerated invalid config: {e}\n{cfg:?}"));
        }
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let mut seen = HashSet::new();
        for cfg in SpaceIter::new() {
            let key: Vec<Leaf> = TreeId::ALL.iter().map(|t| cfg.leaf(*t)).collect();
            assert!(seen.insert(key), "duplicate configuration enumerated");
        }
    }

    #[test]
    fn pruned_space_is_substantially_smaller_than_raw() {
        let n = count_valid();
        // Raw product is 829_440; the hard rules must prune aggressively,
        // but the space must remain rich (paper: "a huge amount of
        // potential implementations").
        assert!(n > 1_000, "space too small: {n}");
        assert!(n < 829_440, "no pruning happened: {n}");
    }

    #[test]
    fn enumeration_order_independent_of_tree_order() {
        let a: usize = SpaceIter::new().count();
        let b = SpaceIter::with_order_and_params(
            crate::space::order::A3_FIRST_ORDER.to_vec(),
            Params::footprint_optimised(),
        )
        .count();
        assert_eq!(a, b);
    }

    #[test]
    fn prune_safe_findings_point_at_earlier_enumerated_siblings() {
        // The static pruning contract: a prune-safe diagnostic may only
        // fire when the bit-identical canonical sibling enumerates
        // *earlier*, so a first-seen-minimum fold never loses a winner by
        // skipping the flagged candidate. Check it over the whole default
        // space against the actual DFS order.
        use crate::analyze::prune_reason;
        use crate::space::trees::{
            BlockTags, CoalesceMaxSizes, RecordedInfo, SplitMinSizes, SplitWhen,
        };
        use std::collections::HashMap;
        let key = |c: &DmConfig| -> Vec<Leaf> { TreeId::ALL.iter().map(|t| c.leaf(*t)).collect() };
        let all: Vec<DmConfig> = SpaceIter::new().collect();
        let index: HashMap<Vec<Leaf>, usize> =
            all.iter().enumerate().map(|(i, c)| (key(c), i)).collect();
        let mut pruned = 0usize;
        for (i, cfg) in all.iter().enumerate() {
            let Some(d) = prune_reason(cfg) else { continue };
            pruned += 1;
            let mut canon = cfg.clone();
            match d.code.as_str() {
                "DM030" => canon.recorded_info = RecordedInfo::Size,
                "DM031" => canon.block_tags = BlockTags::Header,
                "DM033" => canon.split_when = SplitWhen::Always,
                "DM034" => canon.split_min = SplitMinSizes::Unrestricted,
                "DM035" => canon.coalesce_max = CoalesceMaxSizes::Unlimited,
                other => panic!("unexpected prune-safe code {other}"),
            }
            let j = index
                .get(&key(&canon))
                .unwrap_or_else(|| panic!("canonical sibling of #{i} ({}) not enumerated", d.code));
            assert!(*j < i, "canonical sibling of #{i} enumerates later, at {j}");
        }
        assert!(pruned > 0, "default space contains prune-safe configurations");
    }

    #[test]
    fn every_enumerated_config_has_a_well_defined_bound_rank() {
        // The branch-and-bound explorer ranks the enumeration by
        // (admissible floor, enumeration index). Over a prefix spanning
        // several A2 subtrees: the ranking must be a permutation of the
        // indices, sorted by that key, with every bound well-defined and
        // at least the configuration's static overhead.
        use crate::analyze::{bound_breakdown, lower_bound_peak, rank_by_bound, TraceFacts};
        use crate::units::MIN_BLOCK;

        let mut b = crate::trace::Trace::builder();
        let ids: Vec<u64> = (0..12).map(|i| b.alloc(24 + 16 * i)).collect();
        for id in ids {
            b.free(id);
        }
        let facts = TraceFacts::of(&b.finish().unwrap());

        let mut params = Params::footprint_optimised();
        params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK];
        let configs: Vec<DmConfig> = SpaceIter::with_order_and_params(
            crate::space::order::TRAVERSAL_ORDER.to_vec(),
            params,
        )
        .take(2000)
        .collect();

        let ranked = rank_by_bound(&facts, &configs);
        assert_eq!(ranked.len(), configs.len());
        let mut seen: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..configs.len()).collect::<Vec<_>>(), "not a permutation");
        for w in ranked.windows(2) {
            let (ia, ba) = w[0];
            let (ib, bb) = w[1];
            assert!(
                ba < bb || (ba == bb && ia < ib),
                "ranking not sorted by (bound, index): ({ia},{ba}) before ({ib},{bb})"
            );
        }
        for &(i, bound) in &ranked {
            assert_eq!(bound, lower_bound_peak(&facts, &configs[i]), "rank caches the bound");
            let breakdown = bound_breakdown(&facts, &configs[i]);
            assert_eq!(bound, breakdown.total());
            assert!(
                bound >= breakdown.static_overhead,
                "bound below static overhead for {}",
                configs[i].summary()
            );
        }
    }

    #[test]
    fn presets_are_points_of_the_enumerated_space() {
        use crate::space::presets;
        let all: HashSet<Vec<Leaf>> = SpaceIter::new()
            .map(|cfg| TreeId::ALL.iter().map(|t| cfg.leaf(*t)).collect())
            .collect();
        for preset in presets::all() {
            let key: Vec<Leaf> = TreeId::ALL.iter().map(|t| preset.leaf(*t)).collect();
            assert!(
                all.contains(&key),
                "preset '{}' not reachable by enumeration",
                preset.name
            );
        }
    }
}
