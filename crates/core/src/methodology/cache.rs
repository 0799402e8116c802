//! Replay memoisation for the exploration engine.
//!
//! [`replay`](crate::trace::replay) is a pure function of
//! `(trace, configuration)`, so the engine memoises every score in one
//! [`ReplayCache`]: one map, partitioned by [`TraceKey`], from a
//! [`MemoKey`] to the replay's [`FootprintStats`]. Sharing one cache
//! across traces (the per-phase sub-traces of
//! [`explore_phases`](crate::methodology::Methodology::explore_phases),
//! the shards of a sharded exploration, repeated designs in a bench
//! harness) only ever adds hits.
//!
//! [`MemoKey::of`] is the one key function. It keys a configuration two
//! ways, and an engine uses one of them for its whole life:
//!
//! - **Exact** ([`ConfigKey`], projection off): the twelve decided leaves
//!   plus the quantitative [`Params`]; the manager *name* is display-only
//!   and excluded. The greedy traversal hits constantly (the winning
//!   completion at tree *k* reappears verbatim as the preferred default at
//!   tree *k+1*, and the portfolio probes of
//!   [`Methodology::explore`](crate::methodology::Methodology::explore)
//!   re-derive designs the primary traversal already paid for). An
//!   exhaustive sweep never hits:
//!   [`SpaceIter`](crate::space::enumerate::SpaceIter) enumerates each
//!   coherent configuration once, so the committed full-sweep telemetry in
//!   `BENCH_replay.json` reports `cache_hits: 0` by construction (the
//!   `replay_hot` bench asserts it).
//! - **Projected** ([`ProjectedKey`], projection on): behavioural identity
//!   on one trace, the coarser equivalence that does collapse a sweep.
//!
//! # Trace-conditioned config projection
//!
//! Two structurally-different configurations frequently *behave*
//! identically on a given trace: a coalesce cap larger than the arena can
//! ever grow is indistinguishable from no cap, a split threshold no
//! remainder can reach is indistinguishable from any other unreachable
//! threshold, and on an alloc-only trace every `free`-path knob (trim,
//! boundary tags beyond their byte cost, deferred vs immediate
//! coalescing) is dead code. [`TraceProjection`] captures the trace facts
//! needed to decide reachability — the per-size allocation census and
//! whether the trace frees at all — and [`ProjectedKey::of`] canonicalizes
//! a configuration against them, so behaviourally-identical candidates
//! collapse to one memo entry. Soundness (equal projected key ⇒
//! bit-identical [`FootprintStats`]) is argued rule-by-rule on
//! [`ProjectedKey::of`], enforced in debug builds by the engine's shadow
//! oracle, and proptested across presets × flat/phased/re-entrant traces.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::analyze::TraceFacts;
use crate::metrics::FootprintStats;
use crate::space::config::{DmConfig, Params};
use crate::space::trees::{
    BlockSizes, BlockStructure, BlockTags, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm, Leaf,
    PoolDivision, PoolStructure, SplitMinSizes, SplitWhen, TreeId,
};
use crate::trace::Trace;
use crate::units::{MIN_BLOCK, SBRK_GRANULARITY};

/// Structural identity of a configuration: one leaf per tree plus the
/// quantitative parameters. The name is excluded — two managers that differ
/// only in their label replay identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    leaves: [Leaf; 12],
    params: Params,
}

impl ConfigKey {
    /// The structural key of a configuration.
    pub fn of(cfg: &DmConfig) -> Self {
        let mut leaves = [Leaf::A1(cfg.block_structure); 12];
        for (slot, tree) in leaves.iter_mut().zip(TreeId::ALL) {
            *slot = cfg.leaf(tree);
        }
        ConfigKey {
            leaves,
            params: cfg.params.clone(),
        }
    }
}

/// Identity of a trace for cache partitioning: a 64-bit content hash plus
/// the event count. Structural configuration keys make config collisions
/// impossible; trace collisions would need two traces with equal length
/// *and* equal content hash inside one engine's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    fingerprint: u64,
    events: usize,
}

impl TraceKey {
    /// Fingerprint a trace (hashes every event once, O(n)).
    pub fn of(trace: &Trace) -> Self {
        let mut h = DefaultHasher::new();
        trace.hash(&mut h);
        TraceKey {
            fingerprint: h.finish(),
            events: trace.len(),
        }
    }

    /// The 64-bit content hash half of the key — what the checkpoint
    /// journal persists to recognise the trace across processes.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The event-count half of the key.
    pub fn events(&self) -> usize {
        self.events
    }
}

/// The slice of [`TraceFacts`] that decides which configuration arms are
/// reachable on a trace: the whole-trace per-size allocation census (which
/// bounds how far the arena can ever grow) and whether the trace frees at
/// all (which decides whether any `free`-path machinery runs).
///
/// Computed once per trace and shared across every candidate of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceProjection {
    /// `true` when the trace contains no free events.
    frees_zero: bool,
    /// `(requested size, total allocation count)`, ascending by size.
    size_census: Vec<(usize, usize)>,
}

impl TraceProjection {
    /// Extract the projection-relevant facts.
    pub fn of(facts: &TraceFacts) -> TraceProjection {
        TraceProjection {
            frees_zero: facts.frees == 0,
            size_census: facts.size_census.clone(),
        }
    }

    /// A sound upper bound on the arena break (`brk`) any replay of this
    /// trace under `cfg` can reach, in bytes.
    ///
    /// Each allocation triggers at most one `grow`; a fixed-class grow
    /// reserves exactly `max(block_len, SBRK_GRANULARITY)` and a
    /// many-sizes grow reserves at most `block_len` — both are at most
    /// `block_len_for(size) + SBRK_GRANULARITY`. Summing that over the
    /// whole-trace census (every allocation, not just the live peak)
    /// therefore dominates every possible `brk`. Saturating arithmetic:
    /// on overflow the bound degrades to `usize::MAX`, which simply
    /// disables the reachability collapses (still sound).
    pub fn arena_bound(&self, cfg: &DmConfig) -> usize {
        self.size_census.iter().fold(0usize, |acc, &(size, count)| {
            acc.saturating_add(
                count.saturating_mul(cfg.block_len_for(size).saturating_add(SBRK_GRANULARITY)),
            )
        })
    }
}

/// Trace-conditioned behavioural identity of a configuration: the
/// [`ConfigKey`] quotient under "replays bit-identically on this trace".
///
/// Two configurations with equal projected keys execute the policy
/// allocator step-for-step identically on the projection's trace —
/// identical [`FootprintStats`] *and* identical errors. Every collapse is
/// justified by a reachability argument against [`TraceProjection`]'s
/// arena bound `B` (no block span, remainder, merged span or `brk` can
/// ever reach `B`):
///
/// - **A3 × A4 → byte cost + neighbour knowledge.** The tag trees act
///   only through `tag_bytes_per_block()` (block rounding) and the
///   cheap-prev-neighbour test inside `coalesce_at`; the latter is dead
///   when the trace never frees or the config never coalesces.
/// - **E1/E2 × split params → canonical trigger.** Splitting acts only
///   through `split_trigger()` (`None` ⇔ `may_split()` is false, which
///   the exact-fit retry and the segregated fallback also consult — so
///   `None` is reserved for that case) and an unreachable trigger `t ≥ B`
///   is canonicalized to `usize::MAX` rather than `None`.
/// - **D1 × coalesce cap → effective cap.** The cap acts only inside the
///   merge paths; `cap ≥ B` can never reject a merge (canonical
///   `usize::MAX`), and with zero frees the merge paths are dead
///   (canonical `0`).
/// - **D2 on an alloc-only trace.** `free` never runs, so immediate vs
///   deferred coalescing is indistinguishable (`Deferred → Always`);
///   `Never` stays distinct because `may_coalesce()` steers `grow`'s
///   top-extension even without frees.
/// - **Trim / arena limit.** `maybe_trim` only runs from `free` and only
///   trims blocks of `len ≥ threshold`; a threshold `> B` or an
///   alloc-only trace make it dead (canonical `None`). An arena limit
///   `≥ B` can never trip (canonical `None`).
/// - **A5 → derived predicates.** The flexibility tree acts only through
///   `may_split()`/`may_coalesce()`, both of which are encoded above.
/// - **Profiled classes** are consulted only under
///   `A2 = ProfiledClasses` (class rounding and pool routing); otherwise
///   canonically empty.
///
/// A1/A2/B1/B4/C1 are always behaviourally live (block structure, class
/// rounding, pool layout and routing charges, fit search charges) and are
/// kept verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProjectedKey {
    block_structure: BlockStructure,
    block_sizes: BlockSizes,
    pool_division: PoolDivision,
    pool_structure: PoolStructure,
    fit: FitAlgorithm,
    tag_bytes: usize,
    may_coalesce: bool,
    coalesce_when: CoalesceWhen,
    coalesce_cap: usize,
    cheap_prev: bool,
    split_trigger: Option<usize>,
    profiled_classes: Vec<usize>,
    trim_threshold: Option<usize>,
    arena_limit: Option<usize>,
}

impl ProjectedKey {
    /// Project a configuration against a trace.
    pub fn of(cfg: &DmConfig, projection: &TraceProjection) -> ProjectedKey {
        let bound = projection.arena_bound(cfg);
        let frees_zero = projection.frees_zero;
        let may_split = cfg.may_split();
        let may_coalesce = cfg.may_coalesce();

        // Mirror of `PolicyAllocator::{min_remainder, split_trigger}`.
        let min_remainder = match cfg.split_min {
            SplitMinSizes::Unrestricted => MIN_BLOCK,
            SplitMinSizes::Floored => cfg.params.split_floor.max(MIN_BLOCK),
        };
        let split_trigger = match (may_split, cfg.split_when) {
            (false, _) | (_, SplitWhen::Never) => None,
            (true, SplitWhen::Always) => Some(min_remainder),
            (true, SplitWhen::Threshold) => {
                Some(cfg.params.split_threshold.max(min_remainder))
            }
        }
        // A remainder is strictly smaller than its block (the carved part
        // is at least MIN_BLOCK), so `t ≥ bound` can never fire. Keep
        // `Some`: `may_split()` stays observable through the exact-fit
        // retry and the segregated fallback.
        .map(|t| if t >= bound { usize::MAX } else { t });

        // With no frees, `free` (and with it `coalesce_at`, the deferred
        // dirty flag and `sweep_coalesce`) never runs; only
        // `may_coalesce()` remains observable, via `grow`.
        let coalesce_when = match (frees_zero, cfg.coalesce_when) {
            (true, CoalesceWhen::Deferred) => CoalesceWhen::Always,
            (_, w) => w,
        };
        let coalesce_reachable = may_coalesce && !frees_zero;
        let coalesce_cap = if !coalesce_reachable {
            0 // sentinel: the merge paths are dead code
        } else {
            let cap = match cfg.coalesce_max {
                CoalesceMaxSizes::Unlimited => usize::MAX,
                CoalesceMaxSizes::Capped => cfg.params.coalesce_cap,
            };
            // A merged span is at most `brk ≤ bound`, so a cap at least
            // that large never rejects a merge.
            if cap >= bound {
                usize::MAX
            } else {
                cap
            }
        };
        let cheap_prev = coalesce_reachable
            && (matches!(cfg.block_tags, BlockTags::Footer | BlockTags::HeaderAndFooter)
                || cfg.recorded_info.knows_prev());

        // `maybe_trim` only runs from `free`, and only releases top blocks
        // of `len ≥ threshold ≤ brk ≤ bound`.
        let trim_threshold = match cfg.params.trim_threshold {
            _ if frees_zero => None,
            Some(t) if t > bound => None,
            other => other,
        };
        // `brk` never exceeds `bound`, so a limit at least that large
        // never trips.
        let arena_limit = match cfg.params.arena_limit {
            Some(l) if l >= bound => None,
            other => other,
        };

        ProjectedKey {
            block_structure: cfg.block_structure,
            block_sizes: cfg.block_sizes,
            pool_division: cfg.pool_division,
            pool_structure: cfg.pool_structure,
            fit: cfg.fit,
            tag_bytes: cfg.tag_bytes_per_block(),
            may_coalesce,
            coalesce_when,
            coalesce_cap,
            cheap_prev,
            split_trigger,
            profiled_classes: if cfg.block_sizes == BlockSizes::ProfiledClasses {
                cfg.params.profiled_classes.clone()
            } else {
                Vec::new()
            },
            trim_threshold,
            arena_limit,
        }
    }
}

/// The memo key of a configuration on one trace: what two candidates must
/// share for one's replay to serve the other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemoKey {
    /// Exact structural identity (name excluded).
    Exact(ConfigKey),
    /// Behavioural identity on the trace the projection was taken of.
    Projected(ProjectedKey),
}

impl MemoKey {
    /// The key of `cfg`: projected against `projection` when one is given,
    /// structural otherwise.
    pub fn of(cfg: &DmConfig, projection: Option<&TraceProjection>) -> MemoKey {
        match projection {
            Some(projection) => MemoKey::Projected(ProjectedKey::of(cfg, projection)),
            None => MemoKey::Exact(ConfigKey::of(cfg)),
        }
    }
}

/// A thread-safe memo table from `(trace, memo key)` to the replay's
/// [`FootprintStats`], partitioned by trace so a lookup borrows its key.
///
/// # Examples
///
/// ```
/// use dmm_core::methodology::cache::{MemoKey, ReplayCache, TraceKey};
/// use dmm_core::manager::PolicyAllocator;
/// use dmm_core::space::presets;
/// use dmm_core::trace::{replay, Trace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Trace::builder();
/// let id = b.alloc(100);
/// b.free(id);
/// let trace = b.finish()?;
///
/// let cache = ReplayCache::new();
/// let cfg = presets::drr_paper();
/// let (tk, key) = (TraceKey::of(&trace), MemoKey::of(&cfg, None));
/// assert!(cache.get(tk, &key).is_none());
/// let fs = replay(&trace, &mut PolicyAllocator::new(cfg.clone())?)?;
/// cache.insert(tk, key.clone(), fs.clone());
/// assert_eq!(cache.get(tk, &key), Some(fs));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ReplayCache {
    map: Mutex<HashMap<TraceKey, HashMap<MemoKey, FootprintStats>>>,
}

impl ReplayCache {
    /// An empty cache.
    pub fn new() -> Self {
        ReplayCache::default()
    }

    /// The memoised replay statistics under `key` on `trace`, if any.
    ///
    /// The returned statistics carry the manager name of the candidate that
    /// was replayed; callers that care about labels restore their own (the
    /// engine does).
    pub fn get(&self, trace: TraceKey, key: &MemoKey) -> Option<FootprintStats> {
        self.map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&trace)?
            .get(key)
            .cloned()
    }

    /// Memoise the replay statistics under `key` on `trace`.
    pub fn insert(&self, trace: TraceKey, key: MemoKey, stats: FootprintStats) {
        self.map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(trace)
            .or_default()
            .insert(key, stats);
    }

    /// Number of memoised replays.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .map(HashMap::len)
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PolicyAllocator;
    use crate::space::presets;
    use crate::trace::replay;

    fn tiny_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.alloc(100);
        let c = b.alloc(50);
        b.free(a);
        b.free(c);
        b.finish().unwrap()
    }

    fn exact(cfg: &DmConfig) -> MemoKey {
        MemoKey::of(cfg, None)
    }

    #[test]
    fn name_is_excluded_from_the_key() {
        let trace = tiny_trace();
        let tk = TraceKey::of(&trace);
        let cache = ReplayCache::new();
        let cfg = presets::drr_paper();
        let fs = replay(&trace, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
        cache.insert(tk, exact(&cfg), fs.clone());

        let mut renamed = cfg.clone();
        renamed.name = "same machinery, different label".into();
        assert_eq!(
            cache.get(tk, &exact(&renamed)),
            Some(fs),
            "a rename must not defeat memoisation"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_configs_and_traces_miss() {
        let trace = tiny_trace();
        let tk = TraceKey::of(&trace);
        let cache = ReplayCache::new();
        let cfg = presets::drr_paper();
        let fs = replay(&trace, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
        cache.insert(tk, exact(&cfg), fs);

        assert!(cache.get(tk, &exact(&presets::kingsley_like())).is_none());
        let mut reparam = presets::drr_paper();
        reparam.params.trim_threshold = None;
        assert!(
            cache.get(tk, &exact(&reparam)).is_none(),
            "params are part of the structural key"
        );

        let mut b = Trace::builder();
        let a = b.alloc(101); // one byte different
        b.free(a);
        let other = b.finish().unwrap();
        assert!(cache.get(TraceKey::of(&other), &exact(&cfg)).is_none());
    }

    fn alloc_only_trace() -> Trace {
        let mut b = Trace::builder();
        b.alloc(100);
        b.alloc(48);
        b.alloc(100);
        b.finish().unwrap()
    }

    fn projection_of(trace: &Trace) -> TraceProjection {
        TraceProjection::of(&crate::analyze::TraceFacts::of(trace))
    }

    #[test]
    fn alloc_only_traces_collapse_dead_free_machinery() {
        let no_frees = projection_of(&alloc_only_trace());
        let with_frees = projection_of(&tiny_trace());

        // Same tag byte cost, different neighbour knowledge: Header vs
        // Footer matters only inside `coalesce_at`, which never runs
        // without frees.
        let header = presets::drr_paper();
        let footer = header.clone().with_leaf(Leaf::A3(BlockTags::Footer));
        assert_eq!(header.tag_bytes_per_block(), footer.tag_bytes_per_block());
        assert_eq!(
            ProjectedKey::of(&header, &no_frees),
            ProjectedKey::of(&footer, &no_frees),
            "cheap-prev must be canonicalized away on an alloc-only trace"
        );
        assert_ne!(
            ProjectedKey::of(&header, &with_frees),
            ProjectedKey::of(&footer, &with_frees),
            "with frees, neighbour knowledge steers coalescing"
        );

        // Deferred vs immediate coalescing is free-path machinery too.
        let deferred = header
            .clone()
            .with_leaf(Leaf::D2(CoalesceWhen::Deferred));
        assert_eq!(
            ProjectedKey::of(&header, &no_frees),
            ProjectedKey::of(&deferred, &no_frees)
        );
        assert_ne!(
            ProjectedKey::of(&header, &with_frees),
            ProjectedKey::of(&deferred, &with_frees)
        );

        // Trimming only happens from `free`.
        let mut untrimmed = header.clone();
        untrimmed.params.trim_threshold = None;
        assert_eq!(
            ProjectedKey::of(&header, &no_frees),
            ProjectedKey::of(&untrimmed, &no_frees)
        );
    }

    #[test]
    fn unreachable_split_thresholds_collapse_but_preserve_may_split() {
        let trace = tiny_trace();
        let proj = projection_of(&trace);
        let base = presets::drr_paper();
        let bound = proj.arena_bound(&base);

        let mut huge_a = base.clone().with_leaf(Leaf::E2(SplitWhen::Threshold));
        huge_a.params.split_threshold = bound;
        let mut huge_b = huge_a.clone();
        huge_b.params.split_threshold = bound.saturating_mul(2);
        assert_eq!(
            ProjectedKey::of(&huge_a, &proj),
            ProjectedKey::of(&huge_b, &proj),
            "two unreachable thresholds are the same behaviour"
        );

        // A config that *cannot* split stays distinct: `may_split()` is
        // observable (exact-fit retry, segregated fallback) even when the
        // trigger never fires.
        let never = base
            .clone()
            .with_leaf(Leaf::E2(SplitWhen::Never))
            .with_leaf(Leaf::A5(crate::space::trees::FlexibleSize::CoalesceOnly));
        assert_ne!(
            ProjectedKey::of(&huge_a, &proj),
            ProjectedKey::of(&never, &proj)
        );
    }

    #[test]
    fn unreachable_coalesce_caps_collapse_to_unlimited() {
        let trace = tiny_trace();
        let proj = projection_of(&trace);
        let unlimited = presets::drr_paper();
        let bound = proj.arena_bound(&unlimited);

        let mut capped_high = unlimited
            .clone()
            .with_leaf(Leaf::D1(CoalesceMaxSizes::Capped));
        capped_high.params.coalesce_cap = bound;
        assert_eq!(
            ProjectedKey::of(&unlimited, &proj),
            ProjectedKey::of(&capped_high, &proj),
            "a cap the arena can never reach is no cap"
        );

        let mut capped_low = capped_high.clone();
        capped_low.params.coalesce_cap = 64;
        assert_ne!(
            ProjectedKey::of(&unlimited, &proj),
            ProjectedKey::of(&capped_low, &proj)
        );

        // An arena limit the arena can never reach is no limit either.
        let mut limited = unlimited.clone();
        limited.params.arena_limit = Some(bound);
        assert_eq!(
            ProjectedKey::of(&unlimited, &proj),
            ProjectedKey::of(&limited, &proj)
        );
    }

    #[test]
    fn projected_tier_round_trips_and_ignores_names() {
        let trace = tiny_trace();
        let proj = projection_of(&trace);
        let cache = ReplayCache::new();
        let cfg = presets::drr_paper();
        let tk = TraceKey::of(&trace);
        let pk = MemoKey::of(&cfg, Some(&proj));
        assert!(matches!(pk, MemoKey::Projected(_)));
        assert!(cache.get(tk, &pk).is_none());
        let fs = replay(&trace, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
        cache.insert(tk, pk.clone(), fs.clone());
        assert_eq!(cache.get(tk, &pk), Some(fs));
        assert_eq!(cache.len(), 1);
        assert!(
            cache.get(tk, &exact(&cfg)).is_none(),
            "an exact key never matches a projected one"
        );

        let mut renamed = cfg.clone();
        renamed.name = "same machinery".into();
        assert_eq!(pk, MemoKey::of(&renamed, Some(&proj)));
    }

    #[test]
    fn config_key_round_trips_every_leaf() {
        for cfg in presets::all() {
            let key = ConfigKey::of(&cfg);
            for (slot, tree) in key.leaves.iter().zip(TreeId::ALL) {
                assert_eq!(*slot, cfg.leaf(tree), "{}: {tree}", cfg.name);
            }
        }
    }

    #[test]
    fn fingerprint_agrees_with_config_key_identity() {
        // `DmConfig::fingerprint()` and `ConfigKey` are two views of the
        // same structural identity (leaves + params, name excluded); keep
        // them from drifting apart.
        for a in presets::all() {
            let mut renamed = a.clone();
            renamed.name = format!("{} (renamed)", a.name);
            assert_eq!(a.fingerprint(), renamed.fingerprint());
            assert_eq!(ConfigKey::of(&a), ConfigKey::of(&renamed));
            for b in presets::all() {
                let same_key = ConfigKey::of(&a) == ConfigKey::of(&b);
                let same_fp = a.fingerprint() == b.fingerprint();
                assert_eq!(
                    same_key, same_fp,
                    "{} vs {}: key/fingerprint identity disagree",
                    a.name, b.name
                );
            }
        }
    }
}
