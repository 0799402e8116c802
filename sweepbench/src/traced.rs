//! The traced run: per-layer metrics from spans and counts taken around
//! calls into each layer's public functions.
//!
//! A sweep is composed here from the same public calls
//! `exhaustive_best_with_engine` makes — `SpaceIter`, `TraceFacts::of`,
//! `rank_by_bound`, then per candidate `prune_reason`, `ProjectedKey::of`
//! and `ExplorationEngine::evaluate_bounded` — and each candidate's fate is
//! read off the change in `EngineCounters`. The composed sweep must return
//! the black-box sweep's winner and counters exactly, so both describe
//! the same program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dmm_core::analyze::{prune_reason, rank_by_bound, TraceFacts};
use dmm_core::manager::PolicyAllocator;
use dmm_core::methodology::cache::TraceKey;
use dmm_core::methodology::{
    EngineCounters, ExplorationEngine, Incumbent, ProjectedKey, TraceProjection,
};
use dmm_core::space::enumerate::SpaceIter;
use dmm_core::space::order::TRAVERSAL_ORDER;
use dmm_core::space::{DmConfig, Leaf, TreeId};
use dmm_core::trace::Trace;

use crate::inputs::sweep_params;
use crate::stats;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part child spans cover, ns.
    pub self_ns: u64,
}

/// In-memory span recorder; written out once, at the end of the run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Tag subsequent spans with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Record a closed leaf span the caller timed itself.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
    }

    /// Per-name totals, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let d = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(children);
        }
        out
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// How the engine decided one candidate, read off its counter deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// A prune-safe static lint skipped it.
    StaticallyPruned,
    /// Its footprint bound lost to the incumbent.
    BoundPruned,
    /// A behaviourally identical sibling's replay was reused.
    ProjectionHit,
    /// Served from the structural cache or the checkpoint journal.
    CacheHit,
    /// Replayed.
    Replayed,
}

impl Fate {
    /// Classify one `evaluate_bounded` call by the counters it moved.
    ///
    /// # Errors
    ///
    /// A message if the counters moved in any other way than exactly one
    /// fate.
    pub fn of(before: &EngineCounters, after: &EngineCounters) -> Result<Fate, String> {
        let d = |a: usize, b: usize| b.wrapping_sub(a);
        let moved = (
            d(before.statically_pruned, after.statically_pruned),
            d(before.bound_pruned, after.bound_pruned),
            d(before.projection_hits, after.projection_hits),
            d(before.cache_hits, after.cache_hits),
            d(before.replays, after.replays),
            d(before.evaluations, after.evaluations),
        );
        let others = d(before.quarantined, after.quarantined)
            + d(before.budget_exceeded, after.budget_exceeded);
        match (moved, others) {
            ((1, 0, 0, 0, 0, 0), 0) => Ok(Fate::StaticallyPruned),
            ((0, 1, 0, 0, 0, 0), 0) => Ok(Fate::BoundPruned),
            ((0, 0, 1, 0, 0, 0), 0) => Ok(Fate::ProjectionHit),
            ((0, 0, 0, 1, 0, 1), 0) => Ok(Fate::CacheHit),
            ((0, 0, 0, 0, 1, 1), 0) => Ok(Fate::Replayed),
            _ => Err(format!(
                "unclassifiable counter change: {before} -> {after}"
            )),
        }
    }
}

/// The trees whose arms also report a replay p99: the slow families.
const P99_TREES: [TreeId; 4] = [
    TreeId::A2BlockSizes,
    TreeId::D2CoalesceWhen,
    TreeId::C1FitAlgorithm,
    TreeId::A1BlockStructure,
];

/// `<TREE>.<leaf>` name of a decision-tree arm.
pub fn arm_name(leaf: Leaf) -> String {
    let debug = format!("{leaf:?}");
    let inner = debug
        .split_once('(')
        .map_or(debug.as_str(), |(_, rest)| rest.trim_end_matches(')'));
    format!("{}.{inner}", leaf.tree().code())
}

/// Every arm, in tree order.
pub fn all_arms() -> Vec<Leaf> {
    TreeId::ALL.iter().flat_map(|t| t.leaves()).collect()
}

/// Counts and timings gathered across the traced run's composed sweeps.
#[derive(Debug, Default)]
pub struct SweepCensus {
    /// Candidates enumerated per sweep (the last sweep's count).
    pub candidates: usize,
    /// Candidates enumerated, summed over sweeps.
    pub enumerated: usize,
    /// Fates, summed over sweeps.
    pub statically_pruned: usize,
    /// Candidates bound-pruned.
    pub bound_pruned: usize,
    /// Candidates served by projection.
    pub projection_hits: usize,
    /// Candidates served by the structural cache or journal.
    pub cache_hits: usize,
    /// Candidates replayed.
    pub replays: usize,
    /// Milliseconds per stage call.
    pub enumerate_ms: Vec<f64>,
    /// `TraceFacts::of` milliseconds.
    pub facts_ms: Vec<f64>,
    /// `rank_by_bound` milliseconds.
    pub rank_ms: Vec<f64>,
    /// Summed `prune_reason` ns and calls.
    pub prune_ns: (u128, usize),
    /// Summed `ProjectedKey::of` ns and calls.
    pub key_ns: (u128, usize),
    /// Summed `evaluate_bounded` ns and calls of candidates not replayed.
    pub decide_ns: (u128, usize),
    /// `evaluate_bounded` ms of each replayed candidate.
    pub replay_ms: Vec<f64>,
    /// Replay ms per arm.
    pub arm_ms: BTreeMap<String, Vec<f64>>,
    /// Arms no sweep replayed, timed by one direct replay instead.
    pub direct_arms: Vec<String>,
    /// bound / peak of each replayed candidate.
    pub tightness: Vec<f64>,
    /// `PolicyAllocator::new` microseconds, per replayed candidate.
    pub new_us: Vec<f64>,
    /// Summed `AllocStats` of replayed candidates.
    pub search_steps: u64,
    /// Coalesces.
    pub coalesces: u64,
    /// Splits.
    pub splits: u64,
    /// Failed fits.
    pub failed_fits: u64,
    /// sbrk calls.
    pub sbrk_calls: u64,
    /// Wall-clock ms of each composed sweep.
    pub sweep_ms: Vec<f64>,
}

fn since_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A branch-and-bound sweep of `trace` composed from the library's public
/// calls on `engine`, with spans around each layer and every candidate's
/// fate counted in `census`. Returns what `exhaustive_best_with_engine`
/// returns: winner, its peak, and the candidates evaluated.
///
/// # Errors
///
/// Sweep errors, an unclassifiable counter change, or an empty space.
pub fn composed_sweep(
    trace: &Trace,
    engine: &ExplorationEngine,
    tracer: &mut Tracer,
    census: &mut SweepCensus,
) -> Result<(DmConfig, usize, usize), String> {
    let started = Instant::now();
    let sweep_span = tracer.begin("sweep");
    let t = Instant::now();
    let configs: Vec<DmConfig> = tracer.span("space.enumerate", || {
        SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), sweep_params()).collect()
    });
    census.enumerate_ms.push(since_ms(t));
    let t = Instant::now();
    let facts = tracer.span("analyze.bounds.facts", || TraceFacts::of(trace));
    census.facts_ms.push(since_ms(t));
    let t = Instant::now();
    let ranked = tracer.span("analyze.bounds.rank", || rank_by_bound(&facts, &configs));
    census.rank_ms.push(since_ms(t));
    let projection = TraceProjection::of(&facts);
    let key = TraceKey::of(trace);
    census.candidates = configs.len();
    census.enumerated += configs.len();

    let mut best: Option<(usize, usize)> = None; // (peak, enumeration index)
    let mut evaluated = 0usize;
    let loop_span = tracer.begin("sweep.candidates");
    for &(order, bound) in &ranked {
        let cfg = &configs[order];
        let t0 = Instant::now();
        let prunable = black_box(prune_reason(cfg)).is_some();
        let t1 = Instant::now();
        census.prune_ns.0 += (t1 - t0).as_nanos();
        census.prune_ns.1 += 1;
        if !prunable {
            black_box(ProjectedKey::of(cfg, &projection));
            census.key_ns.0 += t1.elapsed().as_nanos();
            census.key_ns.1 += 1;
        }
        let before = engine.counters();
        let incumbent = best.map(|(peak, o)| Incumbent { peak, order: o });
        let t2 = Instant::now();
        let eval = engine
            .evaluate_bounded(trace, key, cfg, bound, order, incumbent)
            .map_err(|e| format!("candidate {:016x}: {e}", cfg.fingerprint()))?;
        let t3 = Instant::now();
        let fate = Fate::of(&before, &engine.counters())?;
        if fate != Fate::Replayed {
            census.decide_ns.0 += (t3 - t2).as_nanos();
            census.decide_ns.1 += 1;
        }
        match fate {
            Fate::StaticallyPruned => census.statically_pruned += 1,
            Fate::BoundPruned => census.bound_pruned += 1,
            Fate::ProjectionHit => census.projection_hits += 1,
            Fate::CacheHit => census.cache_hits += 1,
            Fate::Replayed => {
                tracer.record("methodology.engine.replay", t2, t3);
                census.replays += 1;
                let ms = (t3 - t2).as_secs_f64() * 1e3;
                census.replay_ms.push(ms);
                for tree in TreeId::ALL {
                    census
                        .arm_ms
                        .entry(arm_name(cfg.leaf(tree)))
                        .or_default()
                        .push(ms);
                }
                if let Some(e) = &eval {
                    let s = &e.stats.stats;
                    census.search_steps += s.search_steps;
                    census.coalesces += s.coalesces;
                    census.splits += s.splits;
                    census.failed_fits += s.failed_fits;
                    census.sbrk_calls += s.sbrk_calls;
                    census
                        .tightness
                        .push(bound as f64 / e.stats.peak_footprint.max(1) as f64);
                }
                let t = Instant::now();
                let mgr = PolicyAllocator::new(cfg.clone());
                census.new_us.push(t.elapsed().as_secs_f64() * 1e6);
                black_box(mgr).map_err(|e| e.to_string())?;
            }
        }
        let Some(eval) = eval else { continue };
        evaluated += 1;
        let peak = eval.stats.peak_footprint;
        if best.is_none_or(|(bp, bo)| peak < bp || (peak == bp && order < bo)) {
            best = Some((peak, order));
        }
    }
    tracer.end(loop_span);
    tracer.end(sweep_span);
    census.sweep_ms.push(since_ms(started));
    let (peak, order) = best.ok_or("no configuration enumerated")?;
    Ok((configs[order].clone(), peak, evaluated))
}

/// Arm metrics of `census`: `(name, value)` for every arm's mean and the
/// slow families' p99.
pub fn arm_metrics(census: &SweepCensus) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for leaf in all_arms() {
        let name = arm_name(leaf);
        let samples = census.arm_ms.get(&name).map_or(&[][..], Vec::as_slice);
        out.push((
            format!("manager.arm.{name}.replay_ms_mean"),
            stats::mean(samples),
        ));
        if P99_TREES.contains(&leaf.tree()) {
            out.push((
                format!("manager.arm.{name}.replay_ms_p99"),
                stats::percentile(samples, 99.0),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.end(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.count, 1);
        assert_eq!(o.self_ns + i.total_ns, o.total_ns);
        assert!(i.total_ns >= 3_000_000 && o.self_ns >= 2_000_000);
    }

    #[test]
    fn there_are_39_arms_and_15_slow_family_arms() {
        let arms = all_arms();
        assert_eq!(arms.len(), 39);
        let slow = arms
            .iter()
            .filter(|l| P99_TREES.contains(&l.tree()))
            .count();
        assert_eq!(slow, 15);
        assert_eq!(
            arm_metrics(&SweepCensus::default()).len(),
            39 + 15,
            "one mean per arm plus the slow families' p99"
        );
    }
}
