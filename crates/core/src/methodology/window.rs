//! The windowed branch-and-bound sweep behind
//! [`exhaustive_best_with_engine`](super::exhaustive_best_with_engine):
//! **plan → speculate → commit**, one fixed-size window of the
//! bound-ranked candidate list at a time. This module only schedules:
//! every candidate's fate is picked by the engine's `decide` and carried
//! out by its `settle` (see `methodology/engine.rs`), the same two steps
//! [`ExplorationEngine::evaluate_bounded`] runs.
//!
//! - **Plan** (committing thread). Each candidate of the window is
//!   decided against the *committed* incumbent. A candidate that needs a
//!   journal hit or a replay and shares its [`MemoKey`] with an earlier
//!   candidate of the window follows that one instead. The plan stops at
//!   the first bound-pruned candidate: the list ascends in
//!   `(bound, order)` and the incumbent only descends, so everything after
//!   it is pruned too ([`Incumbent::prunes`]).
//! - **Speculate** (all workers). The window's replays are run by
//!   `replay_fresh`, which touches no shared state. The workers are
//!   `jobs − 1` threads spawned once per sweep plus the committing
//!   thread; idle workers park on a condvar.
//! - **Commit** (committing thread). The window is settled in rank order.
//!   Only the bound is tested again, against the incumbent as it tightens
//!   inside the window. A follower becomes a memo hit on what its lead
//!   published; when the lead failed and published nothing, the follower
//!   is decided again, as the serial composition would. A speculative
//!   result of a candidate the commit prunes — a replay, a panic or a
//!   budget trip — is dropped uncounted.
//!
//! The sweep holds its candidates as [`Candidates`]: for the exhaustive
//! sweep, the shared space table plus one `Params` block. Decisions read
//! a candidate through one scratch configuration, with static-prune
//! verdicts memoised in a [`PruneMemo`]; a named [`DmConfig`] is
//! materialised only for a candidate the plan does not prune, a replay
//! worker replays, or the caller returns as the winner.
//!
//! Only the committing thread settles candidates and moves the incumbent,
//! and it does so in rank order. The winner, every
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
use crate::methodology::cache::{MemoKey, TraceKey};
use crate::methodology::engine::{
    Decision, Evaluation, ExplorationEngine, Incumbent, Stages, TraceCtx,
};
use crate::metrics::FootprintStats;
use crate::space::config::{DmConfig, Params, PartialConfig};
use crate::space::enumerate::freeze_point;
use crate::trace::Trace;

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

/// A planned candidate's part in its window.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Settled as planned: pruned, or a memo hit.
    Own,
    /// The first of its memo key in the window, served by the journal.
    Lead,
    /// The first of its memo key in the window, replayed as task `n`.
    Task(usize),
    /// Shares its memo key with the lead at window index `n`.
    Follow(usize),
}

/// One planned candidate.
struct Item<'a> {
    order: usize,
    bound: usize,
    /// The candidate, materialised; `None` when statically pruned.
    cfg: Option<Cow<'a, DmConfig>>,
    decision: Decision,
    role: Role,
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
        let ctx = self.trace_ctx(trace, key);
        let compiled = ctx.compiled();
        let board = Board::default();
        let workers = self.reserve_workers(ranked.len().min(WINDOW).saturating_sub(1));
        let result = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    board.work(|order| self.replay_fresh(compiled, &candidates.config(order)))
                });
            }
            // Release the workers however the commit loop ends, panics
            // included: the scope joins them before it returns.
            let _close = CloseOnDrop(&board);
            let mut sweep = Sweep {
                engine: self,
                ctx: &ctx,
                candidates,
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
    ctx: &'a TraceCtx<'a>,
    candidates: Candidates<'a>,
    board: &'a Board,
    /// The static-prune verdicts, memoised for this sweep's `Params`.
    prunes: PruneMemo,
    /// The configuration table entries are read through.
    scratch: Option<DmConfig>,
    best: Option<Incumbent>,
    evaluated: usize,
}

impl<'a> Sweep<'a> {
    /// Decide candidate `order` against the committed incumbent. The
    /// decision reads the candidate through the scratch configuration,
    /// whose name is not the candidate's; `decide` does not read names.
    fn decide(&mut self, order: usize, bound: usize) -> Decision {
        let cfg = self.candidates.view(order, &mut self.scratch);
        let stages = Stages::sweep(self.prunes.pruned(cfg), bound, order, self.best);
        self.engine.decide(self.ctx, cfg, stages)
    }

    fn run(&mut self, ranked: &[(usize, usize)]) -> Result<()> {
        let mut leads: HashMap<MemoKey, usize> = HashMap::new();
        let mut items: Vec<Item<'a>> = Vec::with_capacity(WINDOW);
        let mut at = 0;
        while at < ranked.len() {
            // Plan.
            let mut tasks = Vec::new();
            let mut stopped = false;
            for &(order, bound) in &ranked[at..ranked.len().min(at + WINDOW)] {
                let decision = self.decide(order, bound);
                let role = match &decision {
                    Decision::BoundPruned => {
                        stopped = true;
                        break;
                    }
                    Decision::Journal(key, _) | Decision::Replay { key, .. } => {
                        match leads.entry(key.clone()) {
                            Entry::Occupied(lead) => Role::Follow(*lead.get()),
                            Entry::Vacant(slot) => {
                                slot.insert(items.len());
                                if let Decision::Replay { .. } = decision {
                                    tasks.push((order, bound));
                                    Role::Task(tasks.len() - 1)
                                } else {
                                    Role::Lead
                                }
                            }
                        }
                    }
                    _ => Role::Own,
                };
                let named = !matches!(decision, Decision::StaticallyPruned);
                items.push(Item {
                    order,
                    bound,
                    cfg: named.then(|| self.candidates.config(order)),
                    decision,
                    role,
                });
            }
            leads.clear();
            at += items.len();

            // Speculate, then commit in rank order.
            self.board.post(tasks, self.best);
            let mut served = vec![None; items.len()];
            for (index, item) in items.drain(..).enumerate() {
                self.commit(index, item, &mut served)?;
            }
            if stopped {
                break;
            }
        }
        // The pruned suffix: a static prune still wins over the bound.
        for &(order, bound) in &ranked[at..] {
            let decision = self.decide(order, bound);
            self.engine.settle(self.ctx, None, decision, || {
                unreachable!("the incumbent prunes the rest of the ranked list")
            })?;
        }
        Ok(())
    }

    /// Settle the window's candidate `index`. Only the bound is tested
    /// again, against the incumbent as it tightened inside the window.
    /// `served` holds the stats each settled lead published, by window
    /// index, for its followers.
    fn commit(
        &mut self,
        index: usize,
        item: Item<'a>,
        served: &mut [Option<FootprintStats>],
    ) -> Result<()> {
        let (engine, ctx) = (self.engine, self.ctx);
        let Item {
            order,
            bound,
            cfg,
            decision,
            role,
        } = item;
        let cfg = cfg.as_deref();
        let decision = match (cfg, role) {
            (Some(_), _) if self.best.is_some_and(|inc| inc.prunes(bound, order)) => {
                Decision::BoundPruned
            }
            (Some(cfg), Role::Follow(lead)) => match &served[lead] {
                Some(stats) => decision.served(stats.clone()),
                // The lead was quarantined or over budget and published
                // nothing: decide again, as the serial composition would.
                None => engine.decide(ctx, cfg, Stages::sweep(false, bound, order, self.best)),
            },
            _ => decision,
        };
        let candidates = self.candidates;
        let replay = || match role {
            Role::Task(task) => self
                .board
                .take(task, |order| {
                    engine.replay_fresh(ctx.compiled(), &candidates.config(order))
                })
                .expect("workers skip only tasks the committed incumbent prunes"),
            // A follower whose lead failed replays itself.
            Role::Own | Role::Lead | Role::Follow(_) => {
                engine.replay_fresh(ctx.compiled(), cfg.expect("a replayed candidate is named"))
            }
        };
        if let Some(eval) = engine.settle(ctx, cfg, decision, replay)? {
            if matches!(role, Role::Lead | Role::Task(_)) {
                served[index] = Some(eval.stats.clone());
            }
            self.fold(order, &eval);
        }
        Ok(())
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
