//! The traced run (`--trace 1`): a fixed census of the workload's inputs
//! that reports every per-layer metric.
//!
//! Every sweep is run twice on fresh engines — once black-box through
//! `exhaustive_best_with_engine` (untraced), once composed from public
//! calls with spans ([`crate::traced::composed_sweep`]) — and the two must
//! agree on winner and counters. Their time ratio is the tracing overhead.
//! The census is a fixed list of inputs, not a timed loop, so its counts
//! repeat exactly per seed.
//!
//! `design_greedy` never sweeps; its sweep-layer metrics come from
//! sweeping the test-scale versions of its first case-study inputs, and
//! its engine metrics from its own designs.

use std::path::Path;
use std::time::Instant;

use dmm_bench::NopAllocator;
use dmm_core::manager::PolicyAllocator;
use dmm_core::methodology::cache::TraceKey;
use dmm_core::methodology::{CheckpointJournal, ExplorationEngine, Methodology};
use dmm_core::profile::Profile;
use dmm_core::space::enumerate::SpaceIter;
use dmm_core::space::order::TRAVERSAL_ORDER;
use dmm_core::space::DmConfig;
use dmm_core::trace::{
    read_trace, replay_compiled_with, write_trace, CompiledTrace, ReplayScratch, Trace,
};

use crate::args::Args;
use crate::checks::{self, References, REFERENCE_OPS};
use crate::inputs::{sweep_params, Input, Pool, Scale, WorkloadKind};
use crate::ops::{cut_in_half, sweep, sweep_engine};
use crate::report::{header, Report};
use crate::stats;
use crate::traced::{all_arms, arm_metrics, arm_name, composed_sweep, SweepCensus, Tracer};
use crate::{nproc, OUT_DIR};

/// Inputs the sweep workloads' census sweeps.
const CENSUS_SWEEPS: usize = 24;
/// Test-scale companions `design_greedy`'s census sweeps.
const GREEDY_COMPANIONS: usize = 6;
/// Designs `design_greedy`'s census runs, each [`DESIGN_REPS`] times.
const CENSUS_DESIGNS: usize = 12;
/// Repetitions of each census design at `jobs = nproc`.
const DESIGN_REPS: usize = 3;
/// Census sweeps also run at `jobs = 1`, for the fan-out ratio.
const FANOUT_SWEEPS: usize = 4;

/// Layer costs measured by calling each layer on the census inputs.
#[derive(Debug, Default)]
struct Probes {
    record_ms: Vec<f64>,
    events: Vec<f64>,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    nop_ns: u128,
    nop_events: usize,
    profile_ms: Vec<f64>,
}

/// Engine-level totals of the workload's own operations.
#[derive(Debug, Default)]
struct Engine {
    replays: usize,
    evaluations: usize,
    cache_hits: usize,
    spread: usize,
    t_serial: f64,
    t_parallel: f64,
    untraced_s: f64,
    traced_s: f64,
}

/// Checkpoint-layer totals.
#[derive(Debug, Default)]
struct Journal {
    plain_s: f64,
    journaled_s: f64,
    resume_ms: Vec<f64>,
    hits: usize,
    evaluations: usize,
    bytes: Vec<f64>,
}

struct Census<'a> {
    args: &'a Args,
    refs: References,
    jobs: usize,
    scratch: &'a Path,
    tracer: Tracer,
    sweeps: SweepCensus,
    probes: Probes,
    engine: Engine,
    journal: Journal,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl<'a> Census<'a> {
    fn new(args: &'a Args, scratch: &'a Path) -> Result<Census<'a>, String> {
        Ok(Census {
            args,
            refs: References::embedded()?,
            jobs: nproc(),
            scratch,
            tracer: Tracer::new(),
            sweeps: SweepCensus::default(),
            probes: Probes::default(),
            engine: Engine::default(),
            journal: Journal::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        })
    }

    /// Book one census operation's outcome.
    fn book(&mut self, label: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{label}: {e}"));
        }
    }

    /// Store, compile, interpret and profile `input` once each.
    fn probe_layers(&mut self, input: &Input) -> Result<(), String> {
        let path = self.scratch.join("census.dmmt");
        let t = Instant::now();
        self.tracer
            .span("trace.store.write", || write_trace(&path, &input.trace))
            .map_err(|e| e.to_string())?;
        self.probes.write_ms.push(ms(t));
        let t = Instant::now();
        let back = self
            .tracer
            .span("trace.store.read", || read_trace(&path))
            .map_err(|e| e.to_string())?;
        self.probes.read_ms.push(ms(t));
        if back != input.trace {
            return Err("the stored trace reads back different".into());
        }
        let t = Instant::now();
        let compiled = self.tracer.span("trace.compiled.compile", || {
            CompiledTrace::compile(&input.trace)
        });
        self.probes.compile_ms.push(ms(t));
        let t = Instant::now();
        self.tracer
            .span("trace.compiled.nop_replay", || {
                replay_compiled_with(
                    &compiled,
                    &mut NopAllocator::default(),
                    &mut ReplayScratch::new(),
                )
            })
            .map_err(|e| e.to_string())?;
        self.probes.nop_ns += t.elapsed().as_nanos();
        self.probes.nop_events += compiled.len();
        let t = Instant::now();
        std::hint::black_box(self.tracer.span("profile.of", || Profile::of(&input.trace)));
        self.probes.profile_ms.push(ms(t));
        Ok(())
    }

    /// Black-box sweep, composed sweep, fan-out, and checkpoint → resume
    /// of one input.
    fn census_sweep(&mut self, k: usize, input: &Input, own_op: bool) -> Result<(), String> {
        self.probe_layers(input)?;
        let kind = self.args.workload;
        let t = Instant::now();
        let bb_engine = sweep_engine(self.jobs);
        let bb = self
            .tracer
            .span("sweep.untraced", || sweep(input, &bb_engine))
            .map_err(|e| e.to_string())?;
        let bb_s = t.elapsed().as_secs_f64();
        let bb_counters = bb_engine.counters();

        let t = Instant::now();
        let engine = sweep_engine(self.jobs);
        let composed = composed_sweep(&input.trace, &engine, &mut self.tracer, &mut self.sweeps)?;
        let traced_s = t.elapsed().as_secs_f64();
        let counters = engine.counters();
        if composed != bb || counters != bb_counters {
            return Err(format!(
                "composed sweep ({:016x}/{} B, {counters}) differs from the black-box sweep \
                 ({:016x}/{} B, {bb_counters})",
                composed.0.fingerprint(),
                composed.1,
                bb.0.fingerprint(),
                bb.1
            ));
        }
        checks::partition(&counters, self.sweeps.candidates, composed.2)?;
        checks::winner_replays(&input.trace, &bb.0, bb.1, &bb_engine)?;
        if own_op && k < REFERENCE_OPS {
            let fp = TraceKey::of(&input.trace).fingerprint();
            self.refs.check(kind, self.args.seed, k, fp, &bb.0, bb.1)?;
        }
        self.engine.untraced_s += bb_s;
        self.engine.traced_s += traced_s;
        if own_op {
            self.engine.replays += counters.replays;
            self.engine.evaluations += counters.evaluations;
            self.engine.cache_hits += counters.cache_hits;
        }

        if own_op && k < FANOUT_SWEEPS {
            let t = Instant::now();
            let serial = sweep_engine(1);
            let s = self
                .tracer
                .span("sweep.serial", || sweep(input, &serial))
                .map_err(|e| e.to_string())?;
            self.engine.t_serial += t.elapsed().as_secs_f64();
            self.engine.t_parallel += bb_s;
            if (&s.0, s.1) != (&bb.0, bb.1) {
                return Err("the jobs = 1 sweep returned another winner".into());
            }
            let r = [
                bb_counters.replays,
                counters.replays,
                serial.counters().replays,
            ];
            self.engine.spread += r.iter().max().unwrap_or(&0) - r.iter().min().unwrap_or(&0);
        }

        // Checkpoint layer: journaled sweep, cut the journal, resume.
        let path = self.scratch.join("census.journal");
        let err = |e: dmm_core::Error| e.to_string();
        let t = Instant::now();
        let journaled_engine =
            sweep_engine(self.jobs).with_journal(CheckpointJournal::create(&path).map_err(err)?);
        let journaled = self
            .tracer
            .span("methodology.checkpoint.journaled_sweep", || {
                sweep(input, &journaled_engine)
            })
            .map_err(err)?;
        drop(journaled_engine);
        self.journal.journaled_s += t.elapsed().as_secs_f64();
        self.journal.plain_s += bb_s;
        let bytes = cut_in_half(&path).map_err(|e| format!("cannot cut the journal: {e}"))?;
        self.journal.bytes.push(bytes as f64);
        let t = Instant::now();
        let resumed_engine =
            sweep_engine(self.jobs).with_journal(CheckpointJournal::resume(&path).map_err(err)?);
        let resumed = self
            .tracer
            .span("methodology.checkpoint.resume", || {
                sweep(input, &resumed_engine)
            })
            .map_err(err)?;
        self.journal.resume_ms.push(ms(t));
        let rc = resumed_engine.counters();
        self.journal.hits += rc.cache_hits;
        self.journal.evaluations += rc.evaluations;
        for (what, r) in [("journaled", &journaled), ("resumed", &resumed)] {
            if (&r.0, r.1) != (&bb.0, bb.1) {
                return Err(format!("the {what} sweep returned another winner"));
            }
        }
        Ok(())
    }

    /// Arms no census sweep replayed get one timed direct replay of their
    /// first enumerated candidate on `trace`, so every arm reports a
    /// measured cost; they are listed as such in the report.
    fn replay_unswept_arms(&mut self, trace: &Trace) -> Result<(), String> {
        let compiled = CompiledTrace::compile(trace);
        let configs: Vec<DmConfig> =
            SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), sweep_params()).collect();
        for leaf in all_arms() {
            let name = arm_name(leaf);
            if self.sweeps.arm_ms.contains_key(&name) {
                continue;
            }
            let cfg = configs
                .iter()
                .find(|c| c.leaf(leaf.tree()) == leaf)
                .ok_or_else(|| format!("no candidate has arm {name}"))?;
            let t = Instant::now();
            let mut mgr = PolicyAllocator::new(cfg.clone()).map_err(|e| e.to_string())?;
            self.tracer
                .span("manager.direct_replay", || {
                    replay_compiled_with(&compiled, &mut mgr, &mut ReplayScratch::new())
                })
                .map_err(|e| e.to_string())?;
            self.sweeps.arm_ms.insert(name.clone(), vec![ms(t)]);
            self.sweeps.direct_arms.push(name);
        }
        Ok(())
    }

    /// [`DESIGN_REPS`] designs at `jobs = nproc` and one at `jobs = 1`.
    fn census_design(&mut self, input: &Input) -> Result<(), String> {
        self.probe_layers(input)?;
        let mut replays = Vec::new();
        let mut parallel = Vec::new();
        let mut first = None;
        for jobs in std::iter::repeat_n(self.jobs, DESIGN_REPS).chain([1]) {
            let engine = ExplorationEngine::new(jobs);
            let t = Instant::now();
            let outcome = self
                .tracer
                .span("methodology.explore", || {
                    Methodology::new()
                        .with_jobs(jobs)
                        .explore_with_engine(&input.trace, &engine)
                })
                .map_err(|e| e.to_string())?;
            let secs = t.elapsed().as_secs_f64();
            let c = engine.counters();
            replays.push(c.replays);
            if jobs == 1 {
                self.engine.t_serial += secs;
            } else {
                parallel.push(secs);
            }
            match &first {
                None => {
                    checks::greedy_design(&input.trace, &outcome)?;
                    self.engine.replays += c.replays;
                    self.engine.evaluations += c.evaluations;
                    self.engine.cache_hits += c.cache_hits;
                    first = Some(outcome.config);
                }
                Some(cfg) if *cfg != outcome.config => {
                    return Err(format!("design with jobs = {jobs} differs from the first"));
                }
                Some(_) => {}
            }
        }
        self.engine.t_parallel += stats::median(&parallel);
        self.engine.spread +=
            replays.iter().max().unwrap_or(&0) - replays.iter().min().unwrap_or(&0);
        Ok(())
    }
}

/// Run the traced census of `args.workload`.
///
/// # Errors
///
/// Set-up failures; failed checks are booked in the report instead.
pub fn run(args: &Args, scratch: &Path) -> Result<Report, String> {
    let kind = args.workload;
    let mut c = Census::new(args, scratch)?;
    let started = Instant::now();
    let setup = c.tracer.begin("setup");
    let pool = {
        let (tracer, probes) = (&mut c.tracer, &mut c.probes);
        Pool::record_with(kind, args.seed, |study, scale, s| {
            let t = Instant::now();
            let input = tracer.span("workloads.record", || Input::record(study, scale, s))?;
            probes.record_ms.push(ms(t));
            probes.events.push(input.trace.len() as f64);
            Ok(input)
        })
        .map_err(|e| format!("recording inputs: {e}"))?
    };
    c.tracer.end(setup);

    let mut first_swept = None;
    if kind.sweeps() {
        for k in 0..CENSUS_SWEEPS {
            let input = pool.get(k).clone();
            first_swept.get_or_insert_with(|| input.trace.clone());
            c.tracer.set_op(k as u64);
            let op = c.tracer.begin("op");
            let r = c.census_sweep(k, &input, true);
            c.tracer.end(op);
            c.book(&format!("census sweep {k} ({})", input.label()), r);
        }
    } else {
        for k in 0..CENSUS_DESIGNS {
            let input = pool.get(k).clone();
            c.tracer.set_op(k as u64);
            let op = c.tracer.begin("op");
            let r = c.census_design(&input);
            c.tracer.end(op);
            c.book(&format!("census design {k} ({})", input.label()), r);
        }
        for k in 0..GREEDY_COMPANIONS {
            let own = pool.get(k);
            let input = Input::record(own.study, Scale::Quick, own.study_seed)
                .map_err(|e| format!("recording a companion: {e}"))?;
            first_swept.get_or_insert_with(|| input.trace.clone());
            c.tracer.set_op((CENSUS_DESIGNS + k) as u64);
            let op = c.tracer.begin("op");
            let r = c.census_sweep(k, &input, false);
            c.tracer.end(op);
            c.book(&format!("companion sweep {k} ({})", input.label()), r);
        }
    }
    if let Some(trace) = first_swept {
        let r = c.replay_unswept_arms(&trace);
        c.book("direct replays of unswept arms", r);
    }
    let wall = started.elapsed().as_secs_f64();
    let mut report = finish(&mut c, wall);
    dump_spans(&c, &mut report);
    Ok(report)
}

fn finish(c: &mut Census<'_>, wall: f64) -> Report {
    let mut r = Report {
        attempted: c.attempted,
        failed: c.failed,
        failures: std::mem::take(&mut c.failures),
        ..Report::default()
    };
    r.lines.push(header(c.args, "traced census"));
    let s = &c.sweeps;
    let p = &c.probes;
    let e = &c.engine;
    let j = &c.journal;
    let frac = |a: usize, b: usize| a as f64 / b.max(1) as f64;
    let per = |(ns, n): (u128, usize)| ns as f64 / n.max(1) as f64;
    let sum_replay: f64 = s.replay_ms.iter().sum();
    let sum_sweep: f64 = s.sweep_ms.iter().sum();
    r.lines.push(format!(
        "census: {} operations, {} composed sweeps, {} replays timed, {} spans, {wall:.2} s",
        c.attempted,
        s.sweep_ms.len(),
        s.replay_ms.len(),
        c.tracer.span_count()
    ));
    let values: Vec<(&str, f64, &str)> = vec![
        (
            "workloads.record_ms",
            stats::mean(&p.record_ms),
            "per recorded input",
        ),
        (
            "workloads.events",
            stats::mean(&p.events),
            "events per recorded input",
        ),
        (
            "trace.store.write_ms",
            stats::mean(&p.write_ms),
            "per trace",
        ),
        ("trace.store.read_ms", stats::mean(&p.read_ms), "per trace"),
        (
            "trace.compiled.compile_ms",
            stats::mean(&p.compile_ms),
            "per trace",
        ),
        (
            "trace.compiled.nop_ns_per_event",
            per((p.nop_ns, p.nop_events)),
            "NopAllocator replay",
        ),
        (
            "space.enumerate_ms",
            stats::mean(&s.enumerate_ms),
            "per sweep",
        ),
        ("space.candidates", s.candidates as f64, "per sweep"),
        (
            "analyze.config_lints.prune_ns",
            per(s.prune_ns),
            "per prune_reason call",
        ),
        (
            "analyze.config_lints.pruned_frac",
            frac(s.statically_pruned, s.enumerated),
            "of enumerated",
        ),
        (
            "analyze.bounds.facts_ms",
            stats::mean(&s.facts_ms),
            "per sweep",
        ),
        (
            "analyze.bounds.rank_ms",
            stats::mean(&s.rank_ms),
            "per sweep",
        ),
        (
            "methodology.cache.projection_key_ns",
            per(s.key_ns),
            "per ProjectedKey::of",
        ),
        (
            "analyze.bounds.pruned_frac",
            frac(s.bound_pruned, s.enumerated),
            "of enumerated",
        ),
        (
            "analyze.bounds.tightness",
            stats::mean(&s.tightness),
            "mean bound/peak over replays",
        ),
        (
            "methodology.cache.projection_hit_frac",
            frac(
                s.projection_hits,
                s.projection_hits + s.cache_hits + s.replays,
            ),
            "of candidates reaching the cache",
        ),
        (
            "methodology.engine.replays",
            e.replays as f64,
            "the workload's own operations",
        ),
        (
            "methodology.engine.evaluations",
            e.evaluations as f64,
            "the workload's own operations",
        ),
        (
            "methodology.engine.replay_ms_p50",
            stats::median(&s.replay_ms),
            "composed sweeps",
        ),
        (
            "methodology.engine.replay_ms_p99",
            stats::percentile(&s.replay_ms, 99.0),
            "composed sweeps",
        ),
        (
            "methodology.engine.decide_us_mean",
            per(s.decide_ns) / 1e3,
            "candidates not replayed",
        ),
        (
            "methodology.engine.replay_busy_frac",
            sum_replay / sum_sweep.max(f64::MIN_POSITIVE),
            "of composed sweep time",
        ),
        (
            "methodology.checkpoint.record_overhead_frac",
            j.journaled_s / j.plain_s.max(f64::MIN_POSITIVE) - 1.0,
            "journaled vs plain sweep",
        ),
        (
            "methodology.checkpoint.resume_ms",
            stats::mean(&j.resume_ms),
            "per resumed sweep",
        ),
        (
            "methodology.checkpoint.journal_hit_frac",
            frac(j.hits, j.evaluations),
            "of resumed evaluations",
        ),
        (
            "methodology.checkpoint.bytes",
            stats::mean(&j.bytes),
            "per full journal",
        ),
        (
            "methodology.cache.structural_hit_frac",
            frac(e.cache_hits, e.evaluations),
            "the workload's own operations",
        ),
        (
            "methodology.engine.fanout_speedup",
            e.t_serial / e.t_parallel.max(f64::MIN_POSITIVE),
            "jobs = 1 vs jobs = nproc",
        ),
        (
            "methodology.engine.replays_spread",
            e.spread as f64,
            "max - min replays over repeats",
        ),
        ("profile.of_ms", stats::mean(&p.profile_ms), "per trace"),
        (
            "manager.new_us",
            stats::mean(&s.new_us),
            "PolicyAllocator::new per replayed config",
        ),
        (
            "manager.search_steps",
            s.search_steps as f64,
            "summed over replays",
        ),
        (
            "manager.coalesces",
            s.coalesces as f64,
            "summed over replays",
        ),
        ("manager.splits", s.splits as f64, "summed over replays"),
        (
            "manager.failed_fits",
            s.failed_fits as f64,
            "summed over replays",
        ),
        (
            "manager.sbrk_calls",
            s.sbrk_calls as f64,
            "summed over replays",
        ),
        (
            "tracing.overhead_frac",
            e.traced_s / e.untraced_s.max(f64::MIN_POSITIVE) - 1.0,
            "composed traced vs black-box sweeps",
        ),
    ];
    let units = crate::report::PER_LAYER;
    for (name, value, note) in values {
        let unit = units
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, u)| u);
        r.metric(name, value, unit, note);
    }
    for (name, value) in arm_metrics(s) {
        let arm = name
            .trim_start_matches("manager.arm.")
            .rsplit_once('.')
            .map_or("", |(a, _)| a)
            .to_string();
        let note = if s.direct_arms.contains(&arm) {
            "no sweep replayed this arm: one direct replay".to_string()
        } else {
            format!("n={} replays", s.arm_ms.get(&arm).map_or(0, Vec::len))
        };
        r.metric(&name, value, "ms", &note);
    }
    r.lines.push(format!(
        "tracing overhead: traced wall_s {:.4} s vs untraced wall_s {:.4} s over the same {} sweeps",
        e.traced_s,
        e.untraced_s,
        s.sweep_ms.len()
    ));
    if c.args.workload == WorkloadKind::DesignGreedy {
        r.lines.push(format!(
            "fan-out nondeterminism: replays of the same design differ by {} in total over {} \
             designs x {} runs; replays and structural_hit_frac are not exact-count claim bases",
            e.spread,
            CENSUS_DESIGNS,
            DESIGN_REPS + 1
        ));
    }
    r.lines.push("self time by span (top 12):".into());
    let mut totals: Vec<_> = c.tracer.totals().into_iter().collect();
    totals.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in totals.iter().take(12) {
        r.lines.push(format!(
            "  {name:<40} self {:>10.3} ms  total {:>10.3} ms  n={}",
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e6,
            t.count
        ));
    }
    r
}

/// Write the spans of `c` under [`OUT_DIR`] and note where in `r`.
fn dump_spans(c: &Census<'_>, r: &mut Report) {
    let dump = Path::new(OUT_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        c.args.workload.name(),
        c.args.seed
    ));
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| c.tracer.write_jsonl(&dump)) {
        Ok(()) => r.lines.push(format!("spans written to {}", dump.display())),
        Err(err) => r
            .failures
            .push(format!("cannot write {}: {err}", dump.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::per_layer_names;

    #[test]
    fn the_traced_report_prints_every_per_layer_metric() {
        for workload in WorkloadKind::ALL {
            let args = Args {
                workload,
                seed: 0,
                seconds: 1.0,
                trace: true,
            };
            let mut c = Census::new(&args, Path::new("unused")).unwrap();
            c.book("op", Ok(()));
            let r = finish(&mut c, 1.0);
            let printed: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
            let declared: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
            assert_eq!(printed, declared);
            assert!(r.correct(), "{:?}", r.failures);
        }
    }
}
