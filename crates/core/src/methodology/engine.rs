//! The exploration engine: one staged pipeline behind every candidate
//! evaluation of the methodology.
//!
//! Every score the methodology needs is "replay this full configuration
//! against this trace" — a pure function. A candidate passes through at
//! most five stages, and the first that settles it decides its fate:
//!
//! 1. **static prune** — a prune-safe lint proves that an
//!    earlier-enumerated sibling replays bit-identically;
//! 2. **bound prune** — its admissible footprint floor loses to the
//!    incumbent ([`Incumbent::prunes`]);
//! 3. **memo** — the [`ReplayCache`] holds its [`MemoKey`] on this trace
//!    (the exact structural key, or with projection on the
//!    trace-conditioned [`ProjectedKey`](crate::methodology::ProjectedKey));
//! 4. **journal** — an attached checkpoint journal scored it in an
//!    earlier run;
//! 5. **replay** — a fresh replay under the engine's budget and fault
//!    plan.
//!
//! The pipeline has two steps. `decide` picks the fate and writes
//! nothing; `settle` is the only code that bumps a counter, publishes to
//! the memo, appends to the journal or applies quarantine. The strict
//! entry points ([`ExplorationEngine::evaluate_config`],
//! [`ExplorationEngine::evaluate_all`]) switch the two prune stages off
//! and propagate every failure; [`ExplorationEngine::evaluate_bounded`]
//! runs all five, and in quarantine mode a panicking or over-budget
//! replay becomes a counted skip. The exhaustive sweep
//! (`methodology/window.rs`) calls the same two steps: it decides a
//! window of the bound-ranked list, replays the window on worker threads
//! and settles it in rank order.
//!
//! [`ExplorationEngine::evaluate_all`] fans distinct replays out over
//! scoped threads ([`std::thread::scope`]; no external dependencies) and
//! returns results **in input order**, so a caller that folds them
//! sequentially gets bit-identical argmins and tie-breaks whether the
//! engine ran with one job or many.
//!
//! One engine may serve many explorations: the memo is partitioned by
//! trace fingerprint, so sharing an engine across portfolio probes,
//! phases, objective sweeps or repeated designs only ever *adds* hits.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::{Error, Result};
use crate::fault::FaultPlan;
use crate::manager::PolicyAllocator;
use crate::methodology::cache::{MemoKey, ReplayCache, TraceKey, TraceProjection};
use crate::methodology::checkpoint::CheckpointJournal;
use crate::metrics::FootprintStats;
use crate::space::config::DmConfig;
use crate::trace::{
    replay_compiled_budgeted, replay_compiled_with, CompiledTrace, ReplayBudget, ReplayScratch,
    Trace,
};

thread_local! {
    /// Per-worker slot table for compiled replay. Workers are the engine's
    /// scoped threads (plus the calling thread), each of which runs many
    /// replays back to back during one `explore`; the kernel clears the
    /// table on entry, so reuse across traces, configs and engines is
    /// safe — and allocation-free once the table has grown to the largest
    /// slot count seen.
    static REPLAY_SCRATCH: RefCell<ReplayScratch> = RefCell::new(ReplayScratch::new());
}

/// Monotonic counters of one engine's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Candidate evaluations requested (cache hits + replays).
    pub evaluations: usize,
    /// Full trace replays actually performed.
    pub replays: usize,
    /// Evaluations served from the exact memo or the checkpoint journal.
    pub cache_hits: usize,
    /// Candidates rejected by a prune-safe static lint before any replay
    /// (or memo lookup) was scheduled. Not counted in `evaluations`.
    pub statically_pruned: usize,
    /// Candidates rejected by branch-and-bound: their admissible footprint
    /// floor ([`crate::analyze::lower_bound_peak`]) already exceeded the
    /// incumbent's replayed peak, so neither a replay nor a memo lookup
    /// was scheduled. Not counted in `evaluations`.
    pub bound_pruned: usize,
    /// Candidates whose replay panicked and was quarantined (`EX001`) by a
    /// sweep running in quarantine mode — the sweep skipped them and kept
    /// going. Not counted in `evaluations`.
    pub quarantined: usize,
    /// Candidates whose replay exceeded its per-candidate budget (`EX002`)
    /// in quarantine mode — aborted and skipped instead of hanging a
    /// worker. Not counted in `evaluations`.
    pub budget_exceeded: usize,
    /// Candidates served from the memo under a projected key: a
    /// behaviorally-identical sibling was already replayed on this trace,
    /// so the candidate's stats were copied, not recomputed. Not counted
    /// in `evaluations` — the sweep partition is `evaluations +
    /// projection_hits + statically_pruned + bound_pruned + quarantined +
    /// budget_exceeded == enumerated`.
    pub projection_hits: usize,
}

impl std::fmt::Display for EngineCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} evaluations ({} replays, {} cache hits, {} projection hits, {} statically \
             pruned, {} bound pruned, {} quarantined, {} over budget)",
            self.evaluations,
            self.replays,
            self.cache_hits,
            self.projection_hits,
            self.statically_pruned,
            self.bound_pruned,
            self.quarantined,
            self.budget_exceeded
        )
    }
}

/// The incumbent a branch-and-bound sweep compares candidates against:
/// the best *replayed* peak so far and the enumeration position that
/// achieved it (for exact first-seen-minimum tie-breaking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incumbent {
    /// The incumbent's replayed peak footprint.
    pub peak: usize,
    /// The incumbent's enumeration index in the original space order.
    pub order: usize,
}

impl Incumbent {
    /// Whether a candidate with admissible floor `bound` at enumeration
    /// index `order` provably cannot displace this incumbent: its peak can
    /// only be worse (`bound > peak`), or at best tie while enumerating
    /// later (the first-seen-minimum fold keeps the earlier one).
    ///
    /// This is the lexicographic test `(bound, order) > (self.peak,
    /// self.order)`.
    /// Bound-ranked lists ascend in `(bound, order)` and incumbents only
    /// descend in `(peak, order)`, so once a ranked candidate is pruned,
    /// every later one is too.
    pub fn prunes(&self, bound: usize, order: usize) -> bool {
        (bound, order) > (self.peak, self.order)
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Replay statistics of the configuration on the trace.
    pub stats: FootprintStats,
    /// Whether the result came from the memo or the journal instead of a
    /// fresh replay.
    pub cache_hit: bool,
}

/// Per-candidate replay budget specification, materialized into a
/// [`ReplayBudget`] (whose deadline starts ticking) at each replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Cap on charged search steps per candidate replay (deterministic).
    pub max_steps: Option<u64>,
    /// Wall-clock cap in milliseconds per candidate replay.
    pub max_millis: Option<u64>,
}

impl BudgetSpec {
    /// Whether any axis is bounded.
    pub fn is_bounded(&self) -> bool {
        self.max_steps.is_some() || self.max_millis.is_some()
    }

    fn materialize(&self) -> ReplayBudget {
        let mut b = match self.max_steps {
            Some(s) => ReplayBudget::steps(s),
            None => ReplayBudget::unlimited(),
        };
        if let Some(ms) = self.max_millis {
            b = b.with_deadline_ms(ms);
        }
        b
    }
}

/// The optional stages of one evaluation. The default switches both
/// prunes and quarantine off: a strict evaluation, memo → journal →
/// replay.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Stages {
    /// The static-prune verdict: a prune-safe lint skips the candidate.
    /// The caller runs the lint (a sweep memoises it).
    pruned: bool,
    /// The bound stage: off without an incumbent.
    incumbent: Option<Incumbent>,
    /// The candidate's admissible floor.
    bound: usize,
    /// The candidate's enumeration index.
    order: usize,
    /// Whether quarantine mode may absorb a failed replay.
    quarantine: bool,
}

impl Stages {
    /// Every stage of a branch-and-bound sweep.
    pub(super) fn sweep(
        pruned: bool,
        bound: usize,
        order: usize,
        incumbent: Option<Incumbent>,
    ) -> Stages {
        Stages {
            pruned,
            incumbent,
            bound,
            order,
            quarantine: true,
        }
    }
}

/// A candidate's fate, as [`ExplorationEngine::decide`] picks it.
#[derive(Debug)]
pub(super) enum Decision {
    /// A prune-safe lint skips the candidate.
    StaticallyPruned,
    /// The incumbent's bound skips the candidate.
    BoundPruned,
    /// The memo holds the candidate's key.
    Memo(MemoKey, FootprintStats),
    /// The journal scored the candidate in an earlier run.
    Journal(MemoKey, FootprintStats),
    /// A fresh replay, which quarantine may absorb if it fails.
    Replay { key: MemoKey, quarantine: bool },
}

impl Decision {
    /// What `decide` returns for a candidate that publishes, once another
    /// candidate has published `stats` under the same key: a memo hit.
    pub(super) fn served(self, stats: FootprintStats) -> Decision {
        match self {
            Decision::Journal(key, _) | Decision::Replay { key, .. } => Decision::Memo(key, stats),
            settled => settled,
        }
    }
}

/// What the engine derives from one trace, each part on first use.
#[derive(Debug, Default)]
struct TraceEntry {
    /// The compiled form: compiling is O(n) and hashes each id once, and
    /// every replay of the trace runs the hash-free
    /// [`replay_compiled_with`] kernel on it.
    compiled: OnceLock<CompiledTrace>,
    /// The projection [`MemoKey::of`] reads: one O(events)
    /// [`crate::analyze::TraceFacts`] pass.
    projection: OnceLock<TraceProjection>,
}

/// One trace as the pipeline sees it. Its entry in the engine's
/// per-trace table is found (or added) on first use, so a candidate the
/// prune stages skip never takes the table lock.
#[derive(Debug)]
pub(super) struct TraceCtx<'t> {
    trace: &'t Trace,
    key: TraceKey,
    traces: &'t Mutex<HashMap<TraceKey, Arc<TraceEntry>>>,
    entry: OnceLock<Arc<TraceEntry>>,
}

impl TraceCtx<'_> {
    fn entry(&self) -> &TraceEntry {
        self.entry.get_or_init(|| {
            let mut traces = self.traces.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(traces.entry(self.key).or_default())
        })
    }

    /// The compiled trace, compiled on first use.
    pub(super) fn compiled(&self) -> &CompiledTrace {
        self.entry()
            .compiled
            .get_or_init(|| CompiledTrace::compile(self.trace))
    }

    fn projection(&self) -> &TraceProjection {
        self.entry()
            .projection
            .get_or_init(|| TraceProjection::of(&crate::analyze::TraceFacts::of(self.trace)))
    }
}

/// Memoised, parallel evaluator shared by every exploration entry point.
#[derive(Debug)]
pub struct ExplorationEngine {
    jobs: usize,
    cache: ReplayCache,
    /// Every trace this engine has evaluated against. The table lock is
    /// held only to find or add an entry, so workers first-touching
    /// *distinct* traces (sharded exploration does) compile in parallel.
    traces: Mutex<HashMap<TraceKey, Arc<TraceEntry>>>,
    evaluations: AtomicUsize,
    replays: AtomicUsize,
    cache_hits: AtomicUsize,
    projection_hits: AtomicUsize,
    statically_pruned: AtomicUsize,
    bound_pruned: AtomicUsize,
    quarantined: AtomicUsize,
    budget_exceeded: AtomicUsize,
    /// Worker threads currently spawned by [`ExplorationEngine::run_parallel`]
    /// and the windowed sweep across all nesting levels — the shared
    /// budget that keeps phases × hypotheses × candidates from multiplying
    /// thread counts.
    spawned: AtomicUsize,
    /// Quarantine mode: the sweep stages skip (instead of propagate)
    /// candidates that panic or run out of budget.
    quarantine: bool,
    /// Trace-conditioned config projection: memo keys are projected.
    projection: bool,
    /// Per-candidate replay budget, enforced inside the compiled kernel.
    budget: BudgetSpec,
    /// Injected faults (tests only; `None` in production).
    fault_plan: Option<FaultPlan>,
    /// Attached checkpoint journal: fresh replays are journalled, journal
    /// hits short-circuit replays exactly like memo hits.
    journal: Option<CheckpointJournal>,
}

impl Default for ExplorationEngine {
    fn default() -> Self {
        ExplorationEngine::new(1)
    }
}

impl ExplorationEngine {
    /// An engine running `jobs` worker threads; `jobs == 0` resolves to
    /// the machine's available parallelism, `jobs == 1` is strictly
    /// serial. Results are bit-identical either way.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        ExplorationEngine {
            jobs,
            cache: ReplayCache::new(),
            traces: Mutex::new(HashMap::new()),
            evaluations: AtomicUsize::new(0),
            replays: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            projection_hits: AtomicUsize::new(0),
            statically_pruned: AtomicUsize::new(0),
            bound_pruned: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            budget_exceeded: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            quarantine: false,
            projection: false,
            budget: BudgetSpec::default(),
            fault_plan: None,
            journal: None,
        }
    }

    /// Quarantine mode: with it on, the sweep stages
    /// ([`ExplorationEngine::evaluate_bounded`] and the exhaustive sweep)
    /// *skip* candidates that panic ([`EngineCounters::quarantined`],
    /// `EX001`) or exceed their replay budget
    /// ([`EngineCounters::budget_exceeded`], `EX002`) instead of failing
    /// the whole sweep. All other errors still propagate, and the strict
    /// entry points ([`ExplorationEngine::evaluate_all`],
    /// [`ExplorationEngine::evaluate_config`]) always propagate everything
    /// — a greedy traversal needs every score it asks for.
    #[must_use]
    pub fn with_quarantine(mut self, on: bool) -> Self {
        self.quarantine = on;
        self
    }

    /// Trace-conditioned config projection: memo keys become
    /// [`ProjectedKey`](crate::methodology::ProjectedKey)s, so a candidate
    /// whose key matches an already-replayed sibling is served a copy of
    /// that sibling's stats — counted in
    /// [`EngineCounters::projection_hits`], never in `evaluations` — and
    /// in debug builds every served copy is checked against a fresh
    /// shadow replay (the soundness oracle). With projection off, memo
    /// keys are exact structural identity, name excluded.
    #[must_use]
    pub fn with_projection(mut self, on: bool) -> Self {
        self.projection = on;
        self
    }

    /// Whether trace-conditioned projection is on.
    pub fn projection(&self) -> bool {
        self.projection
    }

    /// Set the per-candidate replay budget (applies to every fresh
    /// replay; memo and journal hits are free and never budgeted).
    #[must_use]
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Install a deterministic fault plan (tests only): panics and budget
    /// exhaustion injected per candidate fingerprint, shard deaths per
    /// shard index.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The installed fault plan, if any (consulted by the sharded
    /// explorer's retry loop).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Attach a checkpoint journal: every fresh replay is journalled
    /// (append + flush), and candidates the journal already scored are
    /// served from it like memo hits — so a killed sweep, resumed with
    /// the same journal, skips all completed work and still produces a
    /// bit-identical winner.
    #[must_use]
    pub fn with_journal(mut self, journal: CheckpointJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The attached checkpoint journal, if any.
    pub fn journal(&self) -> Option<&CheckpointJournal> {
        self.journal.as_ref()
    }

    /// A strictly serial engine.
    pub fn serial() -> Self {
        ExplorationEngine::new(1)
    }

    /// The resolved worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Snapshot of the engine's lifetime counters.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            projection_hits: self.projection_hits.load(Ordering::Relaxed),
            statically_pruned: self.statically_pruned.load(Ordering::Relaxed),
            bound_pruned: self.bound_pruned.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            budget_exceeded: self.budget_exceeded.load(Ordering::Relaxed),
        }
    }

    /// The engine's memo (for diagnostics/tests).
    pub fn cache(&self) -> &ReplayCache {
        &self.cache
    }

    /// Evaluate every configuration against `trace` (whose key is `key`:
    /// a caller scoring many candidate sets against one trace, as the
    /// greedy traversal does once per tree, hashes it once), strictly,
    /// memoised and fanned out over the engine's jobs. The result vector
    /// is **in input order**; on failure the error of the earliest
    /// failing input is returned, exactly as a serial loop would surface
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates manager construction and replay failures.
    pub fn evaluate_all(
        &self,
        trace: &Trace,
        key: TraceKey,
        cfgs: &[DmConfig],
    ) -> Result<Vec<Evaluation>> {
        let ctx = self.trace_ctx(trace, key);
        let results = self.run_parallel(cfgs, |cfg| self.evaluate_strict(&ctx, cfg));
        results.into_iter().collect()
    }

    /// Evaluate a single configuration against `trace`, strictly and
    /// memoised under the trace's own fingerprint. Sharded exploration
    /// leans on this: each shard is its own memo partition, so replaying
    /// the merged design over a shard whose exploration already scored
    /// that configuration is a memo hit, not a second replay.
    ///
    /// # Errors
    ///
    /// Propagates manager construction and replay failures.
    pub fn evaluate_config(&self, trace: &Trace, cfg: &DmConfig) -> Result<Evaluation> {
        self.evaluate_strict(&self.trace_ctx(trace, TraceKey::of(trace)), cfg)
    }

    /// Branch-and-bound evaluation: every stage of the pipeline. A
    /// candidate a prune-safe lint skips ([`crate::analyze::prune_reason`],
    /// counted in [`EngineCounters::statically_pruned`]) or whose
    /// admissible footprint floor (`bound`, from
    /// [`crate::analyze::lower_bound_peak`]) already loses
    /// ([`Incumbent::prunes`], counted in [`EngineCounters::bound_pruned`])
    /// is skipped — `Ok(None)` — with no replay *or memo lookup*
    /// scheduled. In quarantine mode, so is a candidate whose replay
    /// panics or exceeds its budget.
    ///
    /// "Loses" is exact, not merely strict: with `bound > incumbent.peak`
    /// the candidate's peak can only be worse; with `bound ==
    /// incumbent.peak` it can at best *tie*, which only matters if the
    /// candidate enumerates **earlier** than the incumbent (`order <
    /// incumbent.order`) — the plain enumeration fold keeps the first-seen
    /// minimum. Both skip cases therefore leave the winner of
    /// [`exhaustive_best`](crate::methodology::exhaustive_best)
    /// bit-identical, whatever order candidates are presented in.
    ///
    /// Every call moves the counters of exactly one fate. Composed over a
    /// bound-ranked list with the incumbent folded after every call, this
    /// is exactly what the windowed sweep of
    /// [`exhaustive_best_with_engine`](crate::methodology::exhaustive_best_with_engine)
    /// computes: same winner, same [`EngineCounters`], same journal bytes.
    ///
    /// # Errors
    ///
    /// Propagates manager construction and replay failures of candidates
    /// that were *not* skipped.
    pub fn evaluate_bounded(
        &self,
        trace: &Trace,
        key: TraceKey,
        cfg: &DmConfig,
        bound: usize,
        order: usize,
        incumbent: Option<Incumbent>,
    ) -> Result<Option<Evaluation>> {
        let pruned = crate::analyze::prune_reason(cfg).is_some();
        let stages = Stages::sweep(pruned, bound, order, incumbent);
        self.evaluate(&self.trace_ctx(trace, key), cfg, stages)
    }

    /// Decide and settle one candidate, replaying it here if need be.
    fn evaluate(
        &self,
        ctx: &TraceCtx<'_>,
        cfg: &DmConfig,
        stages: Stages,
    ) -> Result<Option<Evaluation>> {
        let decision = self.decide(ctx, cfg, stages);
        self.settle(ctx, Some(cfg), decision, || {
            self.replay_fresh(ctx.compiled(), cfg)
        })
    }

    fn evaluate_strict(&self, ctx: &TraceCtx<'_>, cfg: &DmConfig) -> Result<Evaluation> {
        let eval = self.evaluate(ctx, cfg, Stages::default())?;
        Ok(eval.expect("strict stages skip no candidate"))
    }

    /// Pick `cfg`'s fate: the first stage that settles it. Reads the memo
    /// and the journal, writes nothing. The name of `cfg` is not read.
    pub(super) fn decide(&self, ctx: &TraceCtx<'_>, cfg: &DmConfig, stages: Stages) -> Decision {
        if stages.pruned {
            return Decision::StaticallyPruned;
        }
        if let Some(incumbent) = stages.incumbent {
            if incumbent.prunes(stages.bound, stages.order) {
                return Decision::BoundPruned;
            }
        }
        let key = MemoKey::of(cfg, self.projection.then(|| ctx.projection()));
        if let Some(stats) = self.cache.get(ctx.key, &key) {
            return Decision::Memo(key, stats);
        }
        let journalled = self.journal.as_ref().and_then(|journal| {
            journal.lookup(ctx.key.fingerprint(), ctx.key.events(), cfg.fingerprint())
        });
        match journalled {
            Some(stats) => Decision::Journal(key, stats),
            None => Decision::Replay {
                key,
                quarantine: stages.quarantine && self.quarantine,
            },
        }
    }

    /// Carry out `decision`: count the fate, publish a journal hit or a
    /// fresh replay (which `replay` runs) to the memo, journal the replay,
    /// and in quarantine mode turn a panicking (`EX001`) or over-budget
    /// (`EX002`) replay into a counted skip. This is the only code that
    /// writes counters, the memo or the journal, so every evaluation keeps
    /// the partition `evaluations + projection_hits + statically_pruned +
    /// bound_pruned + quarantined + budget_exceeded == enumerated`.
    /// `cfg` is the candidate, named; it may be `None` for a skip.
    ///
    /// # Errors
    ///
    /// Replay failures quarantine does not absorb, and journal write
    /// failures.
    pub(super) fn settle(
        &self,
        ctx: &TraceCtx<'_>,
        cfg: Option<&DmConfig>,
        decision: Decision,
        replay: impl FnOnce() -> Result<FootprintStats>,
    ) -> Result<Option<Evaluation>> {
        let count = |counter: &AtomicUsize| {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        let served = match decision {
            Decision::StaticallyPruned => {
                count(&self.statically_pruned);
                return Ok(None);
            }
            Decision::BoundPruned => {
                count(&self.bound_pruned);
                return Ok(None);
            }
            Decision::Memo(MemoKey::Projected(_), stats) => {
                count(&self.projection_hits);
                let cfg = cfg.expect("a served candidate is named");
                let stats = relabel(stats, cfg);
                self.shadow_oracle_check(ctx, cfg, &stats);
                return Ok(Some(Evaluation {
                    stats,
                    cache_hit: true,
                }));
            }
            Decision::Memo(MemoKey::Exact(_), stats) => stats,
            Decision::Journal(key, stats) => {
                self.cache.insert(ctx.key, key, stats.clone());
                stats
            }
            Decision::Replay { key, quarantine } => match replay() {
                Ok(stats) => {
                    count(&self.evaluations);
                    count(&self.replays);
                    self.cache.insert(ctx.key, key, stats.clone());
                    if let Some(journal) = &self.journal {
                        let fingerprint = cfg.expect("a replayed candidate is named").fingerprint();
                        journal.record(
                            ctx.key.fingerprint(),
                            ctx.key.events(),
                            fingerprint,
                            &stats,
                        )?;
                    }
                    return Ok(Some(Evaluation {
                        stats,
                        cache_hit: false,
                    }));
                }
                Err(Error::CandidatePanicked { .. }) if quarantine => {
                    count(&self.quarantined);
                    return Ok(None);
                }
                Err(Error::BudgetExceeded { .. }) if quarantine => {
                    count(&self.budget_exceeded);
                    return Ok(None);
                }
                Err(e) => return Err(e),
            },
        };
        count(&self.evaluations);
        count(&self.cache_hits);
        Ok(Some(Evaluation {
            stats: relabel(served, cfg.expect("a served candidate is named")),
            cache_hit: true,
        }))
    }

    /// The projection soundness oracle (debug builds only): any stats
    /// served off a projected key must be **bit-identical** to a fresh,
    /// uncounted replay of the candidate itself. A failure here is a hole
    /// in a [`ProjectedKey::of`](crate::methodology::ProjectedKey::of)
    /// canonicalization rule.
    fn shadow_oracle_check(&self, ctx: &TraceCtx<'_>, cfg: &DmConfig, served: &FootprintStats) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut mgr = PolicyAllocator::new(cfg.clone())
            .expect("shadow oracle: projected candidate must construct");
        let mut scratch = ReplayScratch::new();
        let fresh = replay_compiled_with(ctx.compiled(), &mut mgr, &mut scratch)
            .expect("shadow oracle: projected candidate must replay");
        assert_eq!(
            &relabel(fresh, cfg),
            served,
            "projection oracle violated for '{}': served stats differ from a fresh replay",
            cfg.name
        );
    }

    /// Replay `cfg` from scratch under the engine's budget and fault plan.
    /// Pure: no counter, memo entry or journal record is written, so
    /// speculative replays on worker threads can be dropped uncounted.
    ///
    /// # Errors
    ///
    /// Manager construction and replay failures; a panicking replay
    /// becomes [`Error::CandidatePanicked`] carrying the candidate's
    /// fingerprint (the quarantine boundary: the worker owns its scratch
    /// and the manager is ours alone, so unwinding leaves nothing shared
    /// half-updated).
    pub(super) fn replay_fresh(
        &self,
        compiled: &CompiledTrace,
        cfg: &DmConfig,
    ) -> Result<FootprintStats> {
        let fingerprint = cfg.fingerprint();
        let budget = match &self.fault_plan {
            Some(plan) if plan.should_exhaust(fingerprint) => Some(ReplayBudget::steps(0)),
            _ => self.budget.is_bounded().then(|| self.budget.materialize()),
        };
        let inject_panic = self
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.should_panic(fingerprint));
        let replayed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: candidate {fingerprint:016x}");
            }
            let mut mgr = PolicyAllocator::new(cfg.clone())?;
            REPLAY_SCRATCH.with(|s| {
                let mut scratch = s.borrow_mut();
                match &budget {
                    Some(b) => replay_compiled_budgeted(compiled, &mut mgr, &mut scratch, b),
                    None => replay_compiled_with(compiled, &mut mgr, &mut scratch),
                }
            })
        }));
        replayed.unwrap_or_else(|payload| {
            Err(Error::CandidatePanicked {
                fingerprint,
                reason: panic_reason(payload.as_ref()),
            })
        })
    }

    /// `trace`, whose key is `key`, as the pipeline sees it.
    pub(super) fn trace_ctx<'t>(&'t self, trace: &'t Trace, key: TraceKey) -> TraceCtx<'t> {
        TraceCtx {
            trace,
            key,
            traces: &self.traces,
            entry: OnceLock::new(),
        }
    }

    /// Number of distinct traces this engine holds compiled (diagnostic).
    pub fn compiled_traces(&self) -> usize {
        let traces = self.traces.lock().unwrap_or_else(|p| p.into_inner());
        traces
            .values()
            .filter(|e| e.compiled.get().is_some())
            .count()
    }

    /// Forget what the engine derived from the trace keyed `key`: its
    /// compiled form and projection. The compiled copy is O(trace) bytes,
    /// so streaming callers that promise trace memory bounded by the
    /// largest shard ([`Methodology::explore_shard_stream`](crate::methodology::Methodology::explore_shard_stream))
    /// release each shard as soon as they drop it — otherwise the table
    /// would quietly accumulate the whole trace. Safe at any time: a
    /// later evaluation of the same trace simply recompiles.
    pub fn release_compiled(&self, key: TraceKey) {
        self.traces
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&key);
    }

    /// Reserve up to `want` worker threads from the engine-wide budget of
    /// `jobs − 1` spawned threads (the calling thread is the last worker).
    /// Fan-outs nest, so an inner call gets what the outer ones left; the
    /// reservation is one atomic update, so racing fan-outs never
    /// overdraw the budget.
    pub(super) fn reserve_workers(&self, want: usize) -> usize {
        let budget = self.jobs.saturating_sub(1);
        let mut reserved = 0;
        let _ = self
            .spawned
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |spawned| {
                reserved = budget.saturating_sub(spawned).min(want);
                Some(spawned + reserved)
            });
        reserved
    }

    /// Return `n` reserved worker threads to the budget.
    pub(super) fn release_workers(&self, n: usize) {
        self.spawned.fetch_sub(n, Ordering::Relaxed);
    }

    /// Apply `f` to every item, fanning out over scoped worker threads,
    /// and return the results in input order. With one job (or one item)
    /// this is a plain serial map — no threads, no locks.
    ///
    /// Fan-outs nest (phases → portfolio hypotheses → per-tree
    /// candidates), so all levels draw on one engine-wide budget of
    /// [`ExplorationEngine::jobs`] spawned threads: an inner call made
    /// from a worker only spawns what the outer levels left over, and
    /// degrades to the serial map when nothing is left. The calling
    /// thread always works through items itself, so progress never waits
    /// on budget.
    pub fn run_parallel<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let extra = self.reserve_workers(items.len().saturating_sub(1));
        if extra == 0 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let r = f(item);
            *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
        };
        std::thread::scope(|scope| {
            for _ in 0..extra {
                scope.spawn(work);
            }
            work();
        });
        self.release_workers(extra);
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every slot filled by a worker")
            })
            .collect()
    }
}

/// Restore `cfg`'s label on stats served from the memo or the journal:
/// memo keys ignore names, so hit and miss paths stay indistinguishable
/// to the caller. Candidates usually share the methodology's one name,
/// so this is normally a comparison, not an allocation.
fn relabel(mut stats: FootprintStats, cfg: &DmConfig) -> FootprintStats {
    if stats.manager.as_ref() != cfg.name {
        stats.manager = Arc::from(cfg.name.as_str());
    }
    stats
}

/// Best-effort stringification of a caught panic payload.
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// The fan-out moves managers and traces across scoped threads; keep the
// bounds explicit so a future field (e.g. an Rc-backed index) fails here,
// at the declaration, instead of deep inside a thread spawn.
fn _assert_engine_bounds() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<PolicyAllocator>();
    send::<Trace>();
    sync::<Trace>();
    send::<CompiledTrace>();
    sync::<CompiledTrace>();
    send::<DmConfig>();
    sync::<ExplorationEngine>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methodology::window::Candidates;
    use crate::space::presets;

    fn trace() -> Trace {
        let mut b = Trace::builder();
        let mut live = Vec::new();
        let mut x: u64 = 17;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || !x.is_multiple_of(3) {
                live.push(b.alloc(16 + (x % 900) as usize));
            } else {
                let i = (x as usize / 5) % live.len();
                b.free(live.swap_remove(i));
            }
        }
        for id in live {
            b.free(id);
        }
        b.finish().unwrap()
    }

    #[test]
    fn duplicate_configs_hit_the_cache() {
        let t = trace();
        let engine = ExplorationEngine::serial();
        let cfg = presets::drr_paper();
        let cfgs = vec![cfg.clone(), presets::lea_like(), cfg.clone()];
        let evals = engine.evaluate_all(&t, TraceKey::of(&t), &cfgs).unwrap();
        assert!(!evals[0].cache_hit && !evals[1].cache_hit);
        assert!(evals[2].cache_hit, "third config duplicates the first");
        assert_eq!(evals[0].stats, evals[2].stats);
        let c = engine.counters();
        assert_eq!(c.evaluations, 3);
        assert_eq!(c.replays, 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn parallel_results_match_serial_in_order() {
        let t = trace();
        let cfgs: Vec<DmConfig> = presets::all();
        let serial = ExplorationEngine::serial()
            .evaluate_all(&t, TraceKey::of(&t), &cfgs)
            .unwrap();
        let parallel = ExplorationEngine::new(4)
            .evaluate_all(&t, TraceKey::of(&t), &cfgs)
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.stats, p.stats);
        }
    }

    #[test]
    fn errors_surface_in_input_order() {
        let t = trace();
        // Two distinguishable OOM failures: the earliest one must win, just
        // as a serial loop would have stopped there.
        let mut bad_early = presets::drr_paper();
        bad_early.params.arena_limit = Some(64);
        let mut bad_late = presets::drr_paper();
        bad_late.params.arena_limit = Some(96);
        let cfgs = vec![presets::lea_like(), bad_early, bad_late];
        let err = ExplorationEngine::new(4)
            .evaluate_all(&t, TraceKey::of(&t), &cfgs)
            .unwrap_err();
        assert!(
            matches!(err, crate::error::Error::OutOfMemory { limit: 64, .. }),
            "{err}"
        );
    }

    #[test]
    fn worker_scratch_residue_does_not_leak_across_configs() {
        // An arena-limited config OOMs mid-replay, stranding live handles
        // in the worker's thread-local slot table. The very next replay on
        // this thread reuses that table: it must be fully cleared, or a
        // stale handle would surface as a bogus free in another config's
        // replay. Compare against a fresh engine to prove nothing leaked.
        let t = trace();
        let engine = ExplorationEngine::serial();
        let mut tight = presets::drr_paper();
        tight.params.arena_limit = Some(512);
        assert!(
            engine.evaluate_all(&t, TraceKey::of(&t), &[tight]).is_err(),
            "tight arena must OOM mid-replay"
        );
        let reused = engine
            .evaluate_all(&t, TraceKey::of(&t), &[presets::lea_like()])
            .unwrap();
        let fresh = ExplorationEngine::serial()
            .evaluate_all(&t, TraceKey::of(&t), &[presets::lea_like()])
            .unwrap();
        assert_eq!(reused[0].stats, fresh[0].stats);
    }

    #[test]
    fn engine_compiles_each_trace_exactly_once() {
        let t = trace();
        let engine = ExplorationEngine::serial();
        let _ = engine
            .evaluate_all(&t, TraceKey::of(&t), &presets::all())
            .unwrap();
        assert_eq!(engine.compiled_traces(), 1);
        // Re-evaluating (even with fresh configs) reuses the compilation.
        let mut renamed = presets::drr_paper();
        renamed.name = "renamed".into();
        let _ = engine
            .evaluate_all(&t, TraceKey::of(&t), &[renamed])
            .unwrap();
        assert_eq!(engine.compiled_traces(), 1);
    }

    #[test]
    fn evaluate_bounded_skips_losers_and_ties_without_touching_the_cache() {
        let t = trace();
        let engine = ExplorationEngine::serial();
        let key = TraceKey::of(&t);
        let cfg = presets::drr_paper();
        let eval = engine
            .evaluate_bounded(&t, key, &cfg, 0, 0, None)
            .unwrap()
            .expect("no incumbent, must evaluate");
        let inc = Incumbent {
            peak: eval.stats.peak_footprint,
            order: 0,
        };
        let cached = engine.cache().len();
        // Strictly losing bound: skipped, and the cache is untouched.
        let skipped = engine
            .evaluate_bounded(&t, key, &presets::lea_like(), inc.peak + 1, 1, Some(inc))
            .unwrap();
        assert!(skipped.is_none());
        // A tie that enumerates *later* than the incumbent can never win
        // the first-seen-minimum fold: skipped too.
        let tied_later = engine
            .evaluate_bounded(&t, key, &presets::lea_like(), inc.peak, 2, Some(inc))
            .unwrap();
        assert!(tied_later.is_none());
        assert_eq!(engine.cache().len(), cached, "skips must not touch the cache");
        assert_eq!(engine.counters().bound_pruned, 2);
        // A tie that enumerates *earlier* could displace the incumbent in
        // the plain fold: it must still be evaluated.
        let tied_earlier = engine
            .evaluate_bounded(
                &t,
                key,
                &presets::lea_like(),
                inc.peak,
                0,
                Some(Incumbent {
                    peak: inc.peak,
                    order: 5,
                }),
            )
            .unwrap();
        assert!(tied_earlier.is_some());
        let c = engine.counters();
        assert_eq!(c.bound_pruned, 2);
        assert_eq!(c.evaluations, 2, "incumbent + earlier tie");
    }

    #[test]
    fn injected_panic_is_quarantined_in_sweeps_and_strict_in_greedy() {
        let t = trace();
        let key = TraceKey::of(&t);
        let victim = presets::kingsley_like();
        let plan = FaultPlan::new().panic_candidate(victim.fingerprint());

        // Quarantine on: the sweep skips the offender and keeps going.
        let engine = ExplorationEngine::serial()
            .with_quarantine(true)
            .with_fault_plan(FaultPlan::new().panic_candidate(victim.fingerprint()));
        assert!(engine
            .evaluate_bounded(&t, key, &victim, 0, 0, None)
            .unwrap()
            .is_none());
        assert!(engine
            .evaluate_bounded(&t, key, &presets::drr_paper(), 0, 1, None)
            .unwrap()
            .is_some());
        let c = engine.counters();
        assert_eq!(c.quarantined, 1);
        assert_eq!(c.evaluations, 1, "the quarantined candidate is not an evaluation");
        assert_eq!(engine.cache().len(), 1, "no poisoned score enters the cache");

        // Quarantine off (the default): the panic surfaces as a typed error.
        let strict = ExplorationEngine::serial().with_fault_plan(plan);
        let err = strict
            .evaluate_bounded(&t, key, &victim, 0, 0, None)
            .unwrap_err();
        assert!(
            matches!(err, Error::CandidatePanicked { fingerprint, .. }
                if fingerprint == victim.fingerprint()),
            "{err}"
        );
        // Greedy entry points are always strict, even with quarantine on.
        let greedy = ExplorationEngine::serial()
            .with_quarantine(true)
            .with_fault_plan(FaultPlan::new().panic_candidate(victim.fingerprint()));
        assert!(greedy
            .evaluate_all(&t, TraceKey::of(&t), &[victim])
            .is_err());
    }

    #[test]
    fn injected_budget_exhaustion_is_counted_and_skipped() {
        let t = trace();
        let key = TraceKey::of(&t);
        let victim = presets::lea_like();
        let engine = ExplorationEngine::serial()
            .with_quarantine(true)
            .with_fault_plan(FaultPlan::new().exhaust_candidate(victim.fingerprint()));
        assert!(engine
            .evaluate_bounded(&t, key, &victim, 0, 0, None)
            .unwrap()
            .is_none());
        let ok = engine
            .evaluate_bounded(&t, key, &presets::drr_paper(), 0, 1, None)
            .unwrap();
        assert!(ok.is_some());
        let c = engine.counters();
        assert_eq!(c.budget_exceeded, 1);
        assert_eq!(c.evaluations, 1);
        assert_eq!(c.replays, 1);
    }

    #[test]
    fn engine_budget_spec_applies_to_fresh_replays() {
        let t = trace();
        let strict = ExplorationEngine::serial().with_budget(BudgetSpec {
            max_steps: Some(1),
            max_millis: None,
        });
        let err = strict
            .evaluate_config(&t, &presets::drr_paper())
            .unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { limit: 1, .. }), "{err}");
        // A generous budget changes nothing.
        let roomy = ExplorationEngine::serial().with_budget(BudgetSpec {
            max_steps: Some(u64::MAX),
            max_millis: None,
        });
        let budgeted = roomy.evaluate_config(&t, &presets::drr_paper()).unwrap();
        let plain = ExplorationEngine::serial()
            .evaluate_config(&t, &presets::drr_paper())
            .unwrap();
        assert_eq!(budgeted.stats, plain.stats);
    }

    #[test]
    fn journalled_scores_survive_into_a_new_engine() {
        let dir = std::env::temp_dir().join("dmm-engine-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.journal");
        std::fs::remove_file(&path).ok();
        let t = trace();
        let cfgs = presets::all();

        let first = ExplorationEngine::serial()
            .with_journal(CheckpointJournal::create(&path).unwrap());
        let original = first.evaluate_all(&t, TraceKey::of(&t), &cfgs).unwrap();
        assert_eq!(first.counters().replays, cfgs.len());

        // A brand-new engine (fresh cache, fresh process in spirit) resumes
        // from the journal: same stats, zero replays.
        let second = ExplorationEngine::serial()
            .with_journal(CheckpointJournal::resume(&path).unwrap());
        let resumed = second.evaluate_all(&t, TraceKey::of(&t), &cfgs).unwrap();
        let c = second.counters();
        assert_eq!(c.replays, 0, "every score must come from the journal");
        assert_eq!(c.cache_hits, cfgs.len());
        for (a, b) in original.iter().zip(&resumed) {
            assert_eq!(a.stats, b.stats);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn projection_serves_behavioral_duplicates_without_replaying() {
        // Alloc-only trace: the free-path machinery is dead, so Header vs
        // Footer tags (same byte cost, different neighbour knowledge)
        // project to the same key. The debug shadow oracle re-replays
        // every served copy, so this test also exercises the soundness
        // check.
        let mut b = Trace::builder();
        for i in 0..30usize {
            b.alloc(32 + (i % 7) * 24);
        }
        let t = b.finish().unwrap();
        let key = TraceKey::of(&t);
        let engine = ExplorationEngine::serial().with_projection(true);
        assert!(engine.projection());
        let header = presets::drr_paper();
        let footer = header
            .clone()
            .with_leaf(crate::space::trees::Leaf::A3(crate::space::trees::BlockTags::Footer));
        let first = engine
            .evaluate_bounded(&t, key, &header, 0, 0, None)
            .unwrap()
            .unwrap();
        let second = engine
            .evaluate_bounded(&t, key, &footer, 0, 1, None)
            .unwrap()
            .unwrap();
        assert!(!first.cache_hit && second.cache_hit);
        assert_eq!(second.stats.manager.as_ref(), footer.name);
        assert_eq!(first.stats.peak_footprint, second.stats.peak_footprint);
        let c = engine.counters();
        assert_eq!(c.replays, 1, "the duplicate must not replay");
        assert_eq!(c.projection_hits, 1);
        assert_eq!(c.evaluations, 1, "projection hits are not evaluations");
        assert_eq!(engine.cache().len(), 1);
    }

    /// `(order, bound)` entries of every preset and a renamed twin of the
    /// first, bound-ranked on `t`.
    fn ranked_presets(t: &Trace) -> (Vec<DmConfig>, Vec<(usize, usize)>) {
        let mut configs = presets::all();
        let mut twin = configs[0].clone();
        twin.name = "twin".into();
        configs.push(twin);
        let ranked = crate::analyze::rank_by_bound(&crate::analyze::TraceFacts::of(t), &configs);
        (configs, ranked)
    }

    #[test]
    fn windowed_sweep_matches_per_candidate_evaluation() {
        // The windowed sweep (four jobs speculating) against the
        // per-candidate `evaluate_bounded` fold on a serial engine: same
        // incumbent, same counters, with and without projection. The twin
        // shares its memo key with its original either way: one replay.
        let t = trace();
        let key = TraceKey::of(&t);
        let (configs, ranked) = ranked_presets(&t);
        for projection in [false, true] {
            let serial = ExplorationEngine::serial().with_projection(projection);
            let mut best: Option<Incumbent> = None;
            let mut evaluated = 0;
            for &(order, bound) in &ranked {
                let Some(eval) = serial
                    .evaluate_bounded(&t, key, &configs[order], bound, order, best)
                    .unwrap()
                else {
                    continue;
                };
                evaluated += 1;
                let peak = eval.stats.peak_footprint;
                if best.is_none_or(|b| peak < b.peak || (peak == b.peak && order < b.order)) {
                    best = Some(Incumbent { peak, order });
                }
            }
            let windowed = ExplorationEngine::new(4).with_projection(projection);
            let got = windowed.sweep_ranked(&t, key, Candidates::Configs(&configs), &ranked).unwrap();
            assert_eq!(got, (best, evaluated), "projection {projection}");
            assert_eq!(
                windowed.counters(),
                serial.counters(),
                "projection {projection}"
            );
            let c = windowed.counters();
            assert_eq!(c.cache_hits + c.projection_hits, 1, "projection {projection}: {c}");
        }
    }

    #[test]
    fn windowed_sweep_groups_projected_duplicates_onto_one_replay() {
        let mut b = Trace::builder();
        for i in 0..25usize {
            b.alloc(48 + (i % 5) * 32);
        }
        let t = b.finish().unwrap();
        let key = TraceKey::of(&t);
        let header = presets::drr_paper();
        let footer = header.clone().with_leaf(crate::space::trees::Leaf::A3(
            crate::space::trees::BlockTags::Footer,
        ));
        let configs = vec![header, footer, presets::lea_like()];
        // Bound 0 never prunes: all three reach the same window.
        let ranked: Vec<(usize, usize)> = (0..configs.len()).map(|i| (i, 0)).collect();
        let engine = ExplorationEngine::new(2).with_projection(true);
        let (_, evaluated) = engine.sweep_ranked(&t, key, Candidates::Configs(&configs), &ranked).unwrap();
        let c = engine.counters();
        assert_eq!(
            c.replays, 2,
            "the footer sibling follows the header's replay"
        );
        assert_eq!(c.projection_hits, 1);
        assert_eq!(evaluated, configs.len(), "partition over the window");
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn windowed_sweep_prunes_and_faults_fall_back_per_candidate() {
        let mut b = Trace::builder();
        for i in 0..25usize {
            b.alloc(48 + (i % 5) * 32);
        }
        let t = b.finish().unwrap();
        let key = TraceKey::of(&t);
        let header = presets::drr_paper();
        let footer = header.clone().with_leaf(crate::space::trees::Leaf::A3(
            crate::space::trees::BlockTags::Footer,
        ));
        let victim = presets::kingsley_like();
        let configs = vec![header.clone(), footer, victim.clone(), presets::lea_like()];
        let ranked: Vec<(usize, usize)> = (0..configs.len()).map(|i| (i, 0)).collect();
        // The header representative panics: it is quarantined, and its
        // footer sibling, finding nothing published, replays itself — the
        // serial path. The second victim is quarantined too.
        let plan = || {
            FaultPlan::new()
                .panic_candidate(header.fingerprint())
                .panic_candidate(victim.fingerprint())
        };
        for jobs in [1, 4] {
            let engine = ExplorationEngine::new(jobs)
                .with_projection(true)
                .with_quarantine(true)
                .with_fault_plan(plan());
            let (best, evaluated) = engine.sweep_ranked(&t, key, Candidates::Configs(&configs), &ranked).unwrap();
            let c = engine.counters();
            assert_eq!(c.quarantined, 2, "jobs {jobs}: {c}");
            assert_eq!(
                (c.replays, c.projection_hits, evaluated),
                (2, 0, 2),
                "jobs {jobs}: {c}"
            );
            assert!(best.is_some_and(|b| b.order == 1 || b.order == 3));
        }
        // Everything after the first evaluated candidate is bound-pruned
        // by a losing floor; the static lints still count first.
        let engine = ExplorationEngine::new(4);
        let ranked = [(3, 0), (0, usize::MAX), (2, usize::MAX)];
        let (best, evaluated) = engine.sweep_ranked(&t, key, Candidates::Configs(&configs), &ranked).unwrap();
        assert_eq!((best.map(|b| b.order), evaluated), (Some(3), 1));
        assert_eq!(engine.counters().bound_pruned, 2);
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        assert!(ExplorationEngine::new(0).jobs() >= 1);
        assert_eq!(ExplorationEngine::new(3).jobs(), 3);
    }

    #[test]
    fn racing_reservations_never_overdraw_the_thread_budget() {
        // Nested fan-outs reserve from one budget of `jobs - 1` threads.
        // Release six reservations at once, over and over: together they
        // must take the whole budget and never more.
        let engine = ExplorationEngine::new(4);
        let racers = 6;
        let barrier = std::sync::Barrier::new(racers);
        for _ in 0..100 {
            let reserved: usize = std::thread::scope(|scope| {
                let racing: Vec<_> = (0..racers)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            engine.reserve_workers(2)
                        })
                    })
                    .collect();
                racing.into_iter().map(|r| r.join().unwrap()).sum()
            });
            assert_eq!(reserved, 3, "the budget is jobs - 1 = 3 threads");
            engine.release_workers(reserved);
        }
    }

    #[test]
    fn run_parallel_preserves_order() {
        let engine = ExplorationEngine::new(8);
        let items: Vec<usize> = (0..100).collect();
        let out = engine.run_parallel(&items, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }
}
