//! Metric names, the timed run's summary, and the printed report whose
//! last line is the JSON result.

use crate::args::Args;
use crate::inputs::{Pool, WorkloadKind};
use crate::ops::{Env, OpOutcome};
use crate::stats;
use crate::traced::{arm_metrics, SweepCensus};

/// End-to-end metrics of the timed run: name, unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("winner_overhead_ratio", "ratio"),
    ("host_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run other than the arm census:
/// name, unit.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.record_ms", "ms"),
    ("workloads.events", "count"),
    ("trace.store.write_ms", "ms"),
    ("trace.store.read_ms", "ms"),
    ("trace.compiled.compile_ms", "ms"),
    ("trace.compiled.nop_ns_per_event", "ns"),
    ("space.enumerate_ms", "ms"),
    ("space.candidates", "count"),
    ("analyze.config_lints.prune_ns", "ns"),
    ("analyze.config_lints.pruned_frac", "ratio"),
    ("analyze.bounds.facts_ms", "ms"),
    ("analyze.bounds.rank_ms", "ms"),
    ("methodology.cache.projection_key_ns", "ns"),
    ("analyze.bounds.pruned_frac", "ratio"),
    ("analyze.bounds.tightness", "ratio"),
    ("methodology.cache.projection_hit_frac", "ratio"),
    ("methodology.engine.replays", "count"),
    ("methodology.engine.evaluations", "count"),
    ("methodology.engine.replay_ms_p50", "ms"),
    ("methodology.engine.replay_ms_p99", "ms"),
    ("methodology.engine.decide_us_mean", "us"),
    ("methodology.engine.replay_busy_frac", "ratio"),
    ("methodology.checkpoint.record_overhead_frac", "ratio"),
    ("methodology.checkpoint.resume_ms", "ms"),
    ("methodology.checkpoint.journal_hit_frac", "ratio"),
    ("methodology.checkpoint.bytes", "B"),
    ("methodology.cache.structural_hit_frac", "ratio"),
    ("methodology.engine.fanout_speedup", "ratio"),
    ("methodology.engine.replays_spread", "count"),
    ("profile.of_ms", "ms"),
    ("manager.new_us", "us"),
    ("manager.search_steps", "count"),
    ("manager.coalesces", "count"),
    ("manager.splits", "count"),
    ("manager.failed_fits", "count"),
    ("manager.sbrk_calls", "count"),
    ("tracing.overhead_frac", "ratio"),
];

/// Every per-layer metric: [`PER_LAYER`] then the arm census.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u));
    let arms = arm_metrics(&SweepCensus::default())
        .into_iter()
        .map(|(n, _)| (n, "ms"));
    fixed.chain(arms).collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run: human-readable lines, metrics, and the check ledger.
#[derive(Debug, Default)]
pub struct Report {
    /// Lines printed before the JSON result.
    pub lines: Vec<String>,
    /// Metrics of the JSON result.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations with at least one failed check.
    pub failed: usize,
    /// Failure messages.
    pub failures: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Add a metric, with a report line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        let value = if value.is_finite() {
            value
        } else {
            self.failures
                .push(format!("{name} is not finite ({value})"));
            0.0
        };
        self.lines
            .push(format!("{name:<48} {value:>14.6} {unit:<6} {note}"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print the lines, up to 20 failures, and the JSON result last.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for f in self.failures.iter().take(20) {
            println!("FAILED: {f}");
        }
        if self.failures.len() > 20 {
            println!("... and {} more failures", self.failures.len() - 20);
        }
        println!("{}", self.json());
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn host_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The first line of every report.
pub fn header(args: &Args, mode: &str) -> String {
    format!(
        "sweepbench {mode}: workload {}, seed {}, one client in a closed loop, engines with \
         jobs = nproc = {}",
        args.workload.name(),
        args.seed,
        crate::nproc()
    )
}

/// Summarise a timed run.
pub fn timed(
    args: &Args,
    env: &Env,
    pool: &Pool,
    setup_times: &[f64],
    outcomes: &[OpOutcome],
    quality_ops: usize,
) -> Report {
    let kind = args.workload;
    let noun = kind.op_noun();
    let mut r = Report {
        attempted: outcomes.len(),
        ..Report::default()
    };
    r.lines.push(header(args, "timed run"));
    r.lines.push(format!(
        "inputs: {} recorded traces{}; {} operations ({noun}) in the measured loop",
        pool.distinct(),
        if kind.sweeps() {
            format!(", {} candidates per sweep", env.enumerated)
        } else {
            String::new()
        },
        outcomes.len()
    ));
    for (k, o) in outcomes.iter().enumerate() {
        if !o.failures.is_empty() {
            r.failed += 1;
            r.failures
                .extend(o.failures.iter().map(|f| format!("op {k}: {f}")));
        }
    }
    let ms: Vec<f64> = outcomes.iter().map(|o| o.seconds * 1e3).collect();
    let n = ms.len();
    let quality = &outcomes[..quality_ops.min(n)];
    let winner_bytes: usize = quality.iter().map(|o| o.winner_peak).sum();
    let live_bytes: usize = quality.iter().map(|o| o.live_peak).sum();
    let tail = stats::highest_supported(n).map_or("none".to_string(), |p| format!("p{p}"));

    r.metric(
        "setup_s",
        stats::median(setup_times),
        "s",
        &format!(
            "median of {} set-ups (record inputs, enumerate space)",
            setup_times.len()
        ),
    );
    r.metric(
        "op_ms_p50",
        stats::median(&ms),
        "ms",
        &format!("n={n} {noun}"),
    );
    r.metric(
        "op_ms_p90",
        stats::percentile(&ms, 90.0),
        "ms",
        &format!("n={n} {noun}; highest percentile with 10 beyond: {tail}"),
    );
    let ratio = winner_bytes as f64 / live_bytes.max(1) as f64;
    r.metric(
        "winner_overhead_ratio",
        ratio,
        "ratio",
        &format!(
            "sum of winner peaks / sum of live-set peaks, first {} ops",
            quality.len()
        ),
    );
    match host_rss_mb() {
        Ok(mb) => r.metric("host_rss_mb", mb, "MiB", "VmHWM of this process"),
        Err(e) => r.failures.push(e),
    }

    // Reported, not gated: sums over inputs whose per-input cost is
    // heavy-tailed, so they move with the seed far beyond any bound.
    let wall: f64 = outcomes.iter().map(|o| o.seconds).sum();
    let failed_frac = r.failed as f64 / n.max(1) as f64;
    r.lines.push(format!(
        "{:<48} {wall:>14.6} {:<6} timed wall-clock of {n} ops (reported, not gated)",
        "wall_s", "s"
    ));
    r.lines.push(format!(
        "{:<48} {winner_bytes:>14} {:<6} simulated heap, first {} ops (repeats exactly per seed)",
        "winner_peak_bytes",
        "B",
        quality.len()
    ));
    r.lines.push(format!(
        "{:<48} {failed_frac:>14.6} {:<6} {} of {n} ops failed a check",
        "failed_frac", "ratio", r.failed
    ));
    let p = |q: f64| {
        if stats::supports(q, n) {
            format!("{:.6} ms", stats::percentile(&ms, q))
        } else {
            format!("n/a (n={n} < {})", (10.0 / (1.0 - q / 100.0)).round())
        }
    };
    match kind {
        WorkloadKind::SweepDrr | WorkloadKind::SweepResume => r.lines.push(format!(
            "aliases: sweep_ms_p50 = op_ms_p50 = {}, sweep_ms_p90 = op_ms_p90 = {} (n={n})",
            p(50.0),
            p(90.0)
        )),
        WorkloadKind::DesignGreedy => r.lines.push(format!(
            "aliases: design_ms_p50 = op_ms_p50 = {}, design_ms_p95 = {} (n={n})",
            p(50.0),
            p(95.0)
        )),
    }
    let referenced = outcomes.iter().filter(|o| o.referenced).count();
    r.lines.push(format!(
        "checks: {} ops; {referenced} winners matched references.txt ({} kept)",
        n,
        env.refs.entries()
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::References;
    use crate::inputs::Input;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` values of one top-level section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} section"));
        let rest = &BENCHMARK_JSON[start..];
        let end = rest.find(']').expect("section is a list");
        rest[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote").to_string())
            .collect()
    }

    /// End-to-end metrics the benchmark's design names, under their own
    /// names or as aliases of a gated metric.
    const NAMED_END_TO_END: [&str; 9] = [
        "setup_s",
        "wall_s",
        "sweep_ms_p50",
        "sweep_ms_p90",
        "design_ms_p50",
        "design_ms_p95",
        "winner_peak_bytes",
        "failed_frac",
        "host_rss_mb",
    ];

    /// Per-layer metrics the benchmark's design names (the arm census
    /// aside).
    const NAMED_PER_LAYER: [&str; 35] = [
        "workloads.record_ms",
        "workloads.events",
        "trace.store.write_ms",
        "trace.store.read_ms",
        "trace.compiled.compile_ms",
        "trace.compiled.nop_ns_per_event",
        "space.enumerate_ms",
        "space.candidates",
        "analyze.config_lints.prune_ns",
        "analyze.config_lints.pruned_frac",
        "analyze.bounds.facts_ms",
        "analyze.bounds.rank_ms",
        "methodology.cache.projection_key_ns",
        "analyze.bounds.pruned_frac",
        "analyze.bounds.tightness",
        "methodology.cache.projection_hit_frac",
        "methodology.engine.replays",
        "methodology.engine.evaluations",
        "methodology.engine.replay_ms_p50",
        "methodology.engine.replay_ms_p99",
        "methodology.engine.decide_us_mean",
        "methodology.engine.replay_busy_frac",
        "methodology.checkpoint.record_overhead_frac",
        "methodology.checkpoint.resume_ms",
        "methodology.checkpoint.journal_hit_frac",
        "methodology.checkpoint.bytes",
        "methodology.cache.structural_hit_frac",
        "methodology.engine.fanout_speedup",
        "profile.of_ms",
        "manager.new_us",
        "manager.search_steps",
        "manager.coalesces",
        "manager.splits",
        "manager.failed_fits",
        "manager.sbrk_calls",
    ];

    fn fake_timed_report(kind: WorkloadKind, ops: usize) -> Report {
        let args = Args {
            workload: kind,
            seed: 1,
            seconds: 1.0,
            trace: false,
        };
        let env = Env {
            jobs: 2,
            enumerated: 10,
            refs: References::default(),
            seed: 1,
        };
        let pool = Pool::record_with(kind, 1, |study, _, s| {
            let mut b = dmm_core::trace::Trace::builder();
            let id = b.alloc(8);
            b.free(id);
            Ok(Input {
                study,
                study_seed: s,
                trace: b.finish()?,
            })
        })
        .unwrap();
        let outcomes: Vec<OpOutcome> = (0..ops)
            .map(|k| OpOutcome {
                seconds: 0.001 * (k + 1) as f64,
                winner_peak: 100,
                live_peak: 80,
                ..OpOutcome::default()
            })
            .collect();
        timed(&args, &env, &pool, &[0.5, 0.4, 0.6], &outcomes, 100)
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_runs_print() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = WorkloadKind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(declared("workloads"), workloads);
        for kind in WorkloadKind::ALL {
            let r = fake_timed_report(kind, 250);
            assert!(r.correct());
            let printed: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(printed, e2e.iter().map(String::as_str).collect::<Vec<_>>());
            assert!(r
                .json()
                .starts_with("{\"correct\": true, \"attempted\": 250, \"failed\": 0,"));
        }
    }

    #[test]
    fn every_named_metric_is_reported() {
        let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        for name in NAMED_PER_LAYER {
            assert!(
                layers.iter().any(|l| l == name),
                "{name} is not a per-layer metric"
            );
        }
        let text: String = WorkloadKind::ALL
            .iter()
            .flat_map(|&k| fake_timed_report(k, 250).lines)
            .collect::<Vec<_>>()
            .join("\n");
        for name in NAMED_END_TO_END {
            assert!(text.contains(name), "{name} is not printed");
        }
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut r = fake_timed_report(WorkloadKind::SweepDrr, 120);
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
