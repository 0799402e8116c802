//! The windowed branch-and-bound sweep behind
//! [`exhaustive_best_with_engine`](super::exhaustive_best_with_engine):
//! **plan → speculate → commit**, one fixed-size window of the
//! bound-ranked candidate list at a time.
//!
//! - **Plan** (committing thread). Each candidate of the window is decided
//!   exactly once: static prune, bound against the *committed* incumbent,
//!   cache tier, journal, and whether it is the first of its
//!   [`ProjectedKey`] in the window. The plan stops at the first
//!   bound-pruned candidate: the list ascends in `(bound, order)` and the
//!   incumbent only descends, so everything after it is pruned too
//!   ([`Incumbent::prunes`]).
//! - **Speculate** (all workers). The window's representatives — the
//!   candidates that need a fresh replay — are replayed by
//!   [`ExplorationEngine::replay_fresh`], which touches no shared state.
//!   The workers are `jobs − 1` threads spawned once per sweep plus the
//!   committing thread; idle workers park on a condvar.
//! - **Commit** (committing thread). The window is folded in rank order
//!   with exactly [`ExplorationEngine::evaluate_bounded`]'s rules, reusing
//!   the plan's decisions; only the bound test is repeated, against the
//!   incumbent as it tightens inside the window. A speculative result of a
//!   candidate the commit prunes — a replay, a panic or a budget trip — is
//!   dropped uncounted.
//!
//! The sweep holds its candidates as [`Candidates`]: for the exhaustive
//! sweep, the shared space table plus one `Params` block. A named
//! [`DmConfig`] is materialised only for a candidate the plan evaluates,
//! a replay worker replays, or the caller returns as the winner; the
//! static-prune verdicts of the rest are read through one scratch
//! configuration and a [`PruneMemo`], and the bound-pruned suffix is
//! never materialised.
//!
//! Only the committing thread touches counters, cache tiers, the journal
//! and the incumbent, and it does so in rank order. The winner, every
//! [`EngineCounters`](super::EngineCounters) field and the journal bytes
//! therefore do not depend on `jobs`, and they equal the per-candidate
//! `evaluate_bounded` composition.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::analyze::bounds::{rank_by, BoundMemo};
use crate::analyze::{PruneMemo, TraceFacts};
use crate::error::Result;
use crate::methodology::cache::{ProjectedKey, TraceKey};
use crate::methodology::engine::{Evaluation, ExplorationEngine, Incumbent};
use crate::metrics::FootprintStats;
use crate::space::config::{DmConfig, Params, PartialConfig};
use crate::space::enumerate::freeze_point;
use crate::trace::{CompiledTrace, Trace};

/// Candidates planned, speculated and committed per window: enough
/// representatives to keep every worker busy between the commit barriers,
/// few enough that speculation past the final cut stays small.
const WINDOW: usize = 256;

/// The candidate list a sweep walks, indexed by enumeration order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Candidates<'a> {
    /// Materialised configurations: unit tests sweep hand-picked ones.
    #[cfg(test)]
    Configs(&'a [DmConfig]),
    /// Space-table entries under one `Params` block, named as
    /// [`SpaceIter`](crate::space::enumerate::SpaceIter) names them.
    Space {
        points: &'a [PartialConfig],
        params: &'a Params,
    },
}

impl<'a> Candidates<'a> {
    fn len(&self) -> usize {
        match self {
            #[cfg(test)]
            Candidates::Configs(configs) => configs.len(),
            Candidates::Space { points, .. } => points.len(),
        }
    }

    /// Candidate `order`, named: borrowed, or frozen on demand.
    pub(super) fn config(&self, order: usize) -> Cow<'a, DmConfig> {
        match *self {
            #[cfg(test)]
            Candidates::Configs(configs) => Cow::Borrowed(&configs[order]),
            Candidates::Space { points, params } => {
                Cow::Owned(freeze_point(points[order], order, params))
            }
        }
    }

    /// Candidate `order`'s leaves and `Params`, for the analysis memos,
    /// which never read the name. A table entry is written into
    /// `scratch`, whose name is not the candidate's.
    fn view<'s>(&'s self, order: usize, scratch: &'s mut Option<DmConfig>) -> &'s DmConfig {
        match *self {
            #[cfg(test)]
            Candidates::Configs(configs) => &configs[order],
            Candidates::Space { points, params } => match scratch {
                Some(cfg) => {
                    points[order].apply_to(cfg);
                    cfg
                }
                None => scratch.insert(
                    points[order]
                        .freeze(String::new(), params.clone())
                        .expect("table entries are complete"),
                ),
            },
        }
    }

    /// The `(order, bound)` list of every candidate, ascending by
    /// `(bound, order)`, as [`crate::analyze::rank_by_bound`] ranks it.
    pub(super) fn rank(&self, facts: &TraceFacts) -> Vec<(usize, usize)> {
        let mut memo = BoundMemo::new(facts);
        let mut scratch = None;
        rank_by(self.len(), |order| {
            memo.bound(self.view(order, &mut scratch))
        })
    }
}

/// The plan's decision for a candidate no prune-safe lint skips.
enum Step {
    /// A projected-tier hit.
    Projected(FootprintStats),
    /// A structural-tier hit (projection off).
    Cached(FootprintStats),
    /// A journal hit; a representative.
    Journal(FootprintStats),
    /// A fresh replay, speculated as task `n` of the window; a
    /// representative.
    Replay(usize),
    /// Same [`ProjectedKey`] as the representative at window index `n`.
    Follow(usize),
}

/// One planned candidate.
struct Item<'a> {
    order: usize,
    bound: usize,
    /// `None` when a prune-safe lint skips the candidate.
    planned: Option<Planned<'a>>,
}

/// The plan of a candidate no prune-safe lint skips.
struct Planned<'a> {
    /// The candidate, materialised.
    cfg: Cow<'a, DmConfig>,
    step: Step,
    /// Where a representative's stats are published: its projected key,
    /// or `None` for the structural tier (projection off).
    pkey: Option<ProjectedKey>,
}

impl ExplorationEngine {
    /// Sweep `ranked` (`(order, bound)` pairs from [`Candidates::rank`],
    /// indexing `candidates`) window by window. See the module docs for
    /// the contract. Returns the incumbent (the winner) and the number of
    /// candidates evaluated (`evaluations + projection_hits`).
    ///
    /// # Errors
    ///
    /// The first committed candidate's error that quarantine does not
    /// absorb, exactly as the serial composition would surface it.
    pub(super) fn sweep_ranked(
        &self,
        trace: &Trace,
        key: TraceKey,
        candidates: Candidates<'_>,
        ranked: &[(usize, usize)],
    ) -> Result<(Option<Incumbent>, usize)> {
        let compiled = self.compiled_for(key, trace);
        let board = Board::default();
        let workers = self.reserve_workers(ranked.len().min(WINDOW).saturating_sub(1));
        let result = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    board.work(|order| self.replay_fresh(&compiled, &candidates.config(order)))
                });
            }
            // Release the workers however the commit loop ends, panics
            // included: the scope joins them before it returns.
            let _close = CloseOnDrop(&board);
            let mut sweep = Sweep {
                engine: self,
                trace,
                key,
                candidates,
                compiled: &compiled,
                board: &board,
                prunes: PruneMemo::new(),
                scratch: None,
                best: None,
                evaluated: 0,
            };
            sweep.run(ranked)?;
            Ok((sweep.best, sweep.evaluated))
        });
        self.release_workers(workers);
        result
    }
}

/// The committing thread's view of one sweep.
struct Sweep<'a> {
    engine: &'a ExplorationEngine,
    trace: &'a Trace,
    key: TraceKey,
    candidates: Candidates<'a>,
    compiled: &'a CompiledTrace,
    board: &'a Board,
    /// The static-prune verdicts, memoised for this sweep's `Params`.
    prunes: PruneMemo,
    /// The configuration table entries are read through.
    scratch: Option<DmConfig>,
    best: Option<Incumbent>,
    evaluated: usize,
}

impl<'a> Sweep<'a> {
    /// Whether a prune-safe lint skips candidate `order`.
    fn statically_pruned(&mut self, order: usize) -> bool {
        let cfg = self.candidates.view(order, &mut self.scratch);
        self.prunes.pruned(cfg)
    }

    fn run(&mut self, ranked: &[(usize, usize)]) -> Result<()> {
        let engine = self.engine;
        let projection = engine
            .projection()
            .then(|| engine.projection_for(self.key, self.trace));
        let mut firsts: HashMap<ProjectedKey, usize> = HashMap::new();
        let mut items: Vec<Item<'a>> = Vec::with_capacity(WINDOW);
        let mut at = 0;
        while at < ranked.len() {
            // Plan.
            items.clear();
            let mut tasks = Vec::new();
            let mut stopped = false;
            for &(order, bound) in &ranked[at..ranked.len().min(at + WINDOW)] {
                if self.statically_pruned(order) {
                    items.push(Item {
                        order,
                        bound,
                        planned: None,
                    });
                    continue;
                }
                if self.best.is_some_and(|inc| inc.prunes(bound, order)) {
                    stopped = true;
                    break;
                }
                let index = items.len();
                let cfg = self.candidates.config(order);
                let step = match &projection {
                    Some(projection) => {
                        let pkey = ProjectedKey::of(&cfg, projection);
                        match engine.cache().get_projected(self.key, &pkey) {
                            Some(stats) => Step::Projected(stats),
                            None => match firsts.entry(pkey) {
                                Entry::Occupied(rep) => Step::Follow(*rep.get()),
                                Entry::Vacant(slot) => {
                                    slot.insert(index);
                                    self.representative(&cfg, order, bound, &mut tasks)
                                }
                            },
                        }
                    }
                    None => match engine.cache().get_keyed(self.key, &cfg) {
                        Some(stats) => Step::Cached(stats),
                        None => self.representative(&cfg, order, bound, &mut tasks),
                    },
                };
                items.push(Item {
                    order,
                    bound,
                    planned: Some(Planned {
                        cfg,
                        step,
                        pkey: None,
                    }),
                });
            }
            for (pkey, index) in firsts.drain() {
                let planned = items[index].planned.as_mut();
                planned.expect("a representative is planned").pkey = Some(pkey);
            }
            at += items.len();

            // Speculate, then commit in rank order.
            self.board.post(tasks, self.best);
            let mut served: Vec<Option<FootprintStats>> = vec![None; items.len()];
            for (index, item) in items.drain(..).enumerate() {
                self.commit(index, item, &mut served)?;
            }
            if stopped {
                break;
            }
        }
        // The pruned suffix: a static prune still wins over the bound, as
        // in `evaluate_bounded`.
        for &(order, _) in &ranked[at..] {
            if self.statically_pruned(order) {
                engine.count_static();
            } else {
                engine.count_bound();
            }
        }
        Ok(())
    }

    /// Commit the window's candidate `index` with `evaluate_bounded`'s
    /// rules. `served` holds the stats of the window's committed
    /// representatives, by window index, for their followers.
    fn commit(
        &mut self,
        index: usize,
        item: Item<'a>,
        served: &mut [Option<FootprintStats>],
    ) -> Result<()> {
        let engine = self.engine;
        let (trace, key) = (self.trace, self.key);
        let Item {
            order,
            bound,
            planned,
        } = item;
        let Some(Planned { cfg, step, pkey }) = planned else {
            engine.count_static();
            return Ok(());
        };
        if self.best.is_some_and(|inc| inc.prunes(bound, order)) {
            engine.count_bound();
            return Ok(());
        }
        let cfg: &DmConfig = &cfg;
        let eval = match step {
            Step::Projected(stats) => Some(engine.projection_hit(trace, key, cfg, stats)),
            Step::Cached(stats) => Some(engine.cache_hit(cfg, stats)),
            Step::Journal(stats) => {
                engine.publish(key, cfg, pkey, stats.clone());
                served[index] = Some(stats.clone());
                Some(engine.cache_hit(cfg, stats))
            }
            Step::Replay(task) => {
                let replayed = self
                    .board
                    .take(task, |order| {
                        engine.replay_fresh(self.compiled, &self.candidates.config(order))
                    })
                    .expect("workers skip only tasks the committed incumbent prunes");
                let committed = replayed.and_then(|stats| {
                    served[index] = Some(stats.clone());
                    engine.commit_replay(key, cfg, pkey, stats)
                });
                engine.quarantine_or_raise(committed)?
            }
            Step::Follow(rep) => match &served[rep] {
                Some(stats) => Some(engine.projection_hit(trace, key, cfg, stats.clone())),
                // The representative was quarantined or over budget, so
                // nothing was published: this member takes the serial
                // path, exactly as the composition would.
                None => engine.quarantine_or_raise(engine.evaluate_projected(trace, key, cfg))?,
            },
        };
        if let Some(eval) = eval {
            self.fold(order, &eval);
        }
        Ok(())
    }

    /// The step of a window's first candidate of its equivalence class:
    /// a journal hit, or a fresh replay queued for speculation.
    fn representative(
        &self,
        cfg: &DmConfig,
        order: usize,
        bound: usize,
        tasks: &mut Vec<(usize, usize)>,
    ) -> Step {
        match self.engine.journal_lookup(self.key, cfg) {
            Some(stats) => Step::Journal(stats),
            None => {
                tasks.push((order, bound));
                Step::Replay(tasks.len() - 1)
            }
        }
    }

    /// The first-seen-minimum fold over enumeration order.
    fn fold(&mut self, order: usize, eval: &Evaluation) {
        self.evaluated += 1;
        let peak = eval.stats.peak_footprint;
        if self
            .best
            .is_none_or(|b| peak < b.peak || (peak == b.peak && order < b.order))
        {
            let best = Incumbent { peak, order };
            self.best = Some(best);
            self.board.tighten(best);
        }
    }
}

/// A speculative replay's outcome: `None` when a worker skipped the task
/// because the committed incumbent already prunes it.
type Spec = Option<Result<FootprintStats>>;

/// The task board the committing thread posts each window's
/// representatives to.
#[derive(Default)]
struct Board {
    state: Mutex<BoardState>,
    /// Signalled when tasks are posted or the board closes.
    posted: Condvar,
    /// Signalled when a task finishes.
    finished: Condvar,
}

#[derive(Default)]
struct BoardState {
    /// `(order, bound)` of this window's representatives, rank order.
    tasks: Vec<(usize, usize)>,
    results: Vec<Option<Spec>>,
    /// The next unclaimed task.
    next: usize,
    /// Tasks claimed but not yet reported.
    running: usize,
    /// The committed incumbent: workers skip tasks it prunes.
    cut: Option<Incumbent>,
    closed: bool,
}

impl BoardState {
    /// Claim the next task: its index, enumeration order and whether the
    /// committed incumbent already prunes it.
    fn claim(&mut self) -> Option<(usize, usize, bool)> {
        let &(order, bound) = self.tasks.get(self.next)?;
        let task = self.next;
        self.next += 1;
        self.running += 1;
        let pruned = self.cut.is_some_and(|cut| cut.prunes(bound, order));
        Some((task, order, pruned))
    }
}

impl Board {
    fn lock(&self) -> MutexGuard<'_, BoardState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Run claimed task `task` outside the lock and report it.
    fn run<'a>(
        &'a self,
        guard: MutexGuard<'a, BoardState>,
        (task, order, pruned): (usize, usize, bool),
        replay: &impl Fn(usize) -> Result<FootprintStats>,
    ) -> MutexGuard<'a, BoardState> {
        drop(guard);
        let spec = (!pruned).then(|| replay(order));
        let mut state = self.lock();
        state.results[task] = Some(spec);
        state.running -= 1;
        self.finished.notify_all();
        state
    }

    /// A worker: claim and run tasks until the board closes.
    fn work(&self, replay: impl Fn(usize) -> Result<FootprintStats>) {
        let mut state = self.lock();
        while !state.closed {
            match state.claim() {
                Some(claimed) => state = self.run(state, claimed, &replay),
                None => state = self.posted.wait(state).unwrap_or_else(|p| p.into_inner()),
            }
        }
    }

    /// Post a window's tasks, once every task of the previous window has
    /// been reported.
    fn post(&self, tasks: Vec<(usize, usize)>, cut: Option<Incumbent>) {
        let mut state = self.lock();
        while state.running > 0 {
            state = self.finished.wait(state).unwrap_or_else(|p| p.into_inner());
        }
        state.results.clear();
        state.results.resize_with(tasks.len(), || None);
        state.tasks = tasks;
        state.next = 0;
        state.cut = cut;
        self.posted.notify_all();
    }

    /// Publish a tighter committed incumbent to the workers.
    fn tighten(&self, cut: Incumbent) {
        self.lock().cut = Some(cut);
    }

    /// The result of task `task`; while it is pending, the committing
    /// thread runs unclaimed tasks itself instead of waiting.
    fn take(&self, task: usize, replay: impl Fn(usize) -> Result<FootprintStats>) -> Spec {
        let mut state = self.lock();
        loop {
            if let Some(spec) = state.results[task].take() {
                return spec;
            }
            match state.claim() {
                Some(claimed) => state = self.run(state, claimed, &replay),
                None => state = self.finished.wait(state).unwrap_or_else(|p| p.into_inner()),
            }
        }
    }
}

/// Closes the board when dropped, waking every parked worker.
struct CloseOnDrop<'a>(&'a Board);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.posted.notify_all();
    }
}
