//! The three workloads and the inputs each makes from its seed.
//!
//! Every input is an allocation trace recorded from one of the paper's
//! case studies. The library under test sees only these traces; the seed
//! picks the case-study seeds (`seed · 2^20 + index`), so the same seed
//! always yields the same traces and different seeds never share one.

use dmm_core::error::Result;
use dmm_core::space::config::Params;
use dmm_core::trace::Trace;
use dmm_core::units::MIN_BLOCK;
use dmm_netbench::DrrConfig;
use dmm_trafficgen::TrafficConfig;
use dmm_workloads::{DrrWorkload, ReconWorkload, RenderWorkload, Workload};

/// Traffic duration of the test-scale DRR traces the sweeps design for.
///
/// At this length one branch-and-bound sweep takes 0.03–0.9 s on a 2-core
/// box: most traces sweep in ~60 ms, about one in five replays ~7,200
/// candidates of the slow families and takes 0.3–0.9 s. That tail is what
/// `op_ms_p90` of `sweep_drr` measures. Longer traces keep the same two
/// modes but cost seconds to minutes per sweep, too few sweeps per run for
/// a stable percentile.
pub const SHORT_DRR_MS: u64 = 15;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Full branch-and-bound sweeps of short DRR traces.
    SweepDrr,
    /// Record → sweep with a journal → cut the journal → resume, on
    /// test-scale reconstruction traces.
    SweepResume,
    /// The paper's greedy methodology on the paper-scale case studies.
    DesignGreedy,
}

impl WorkloadKind {
    /// Every workload, in report order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::SweepDrr,
        WorkloadKind::SweepResume,
        WorkloadKind::DesignGreedy,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SweepDrr => "sweep_drr",
            WorkloadKind::SweepResume => "sweep_resume",
            WorkloadKind::DesignGreedy => "design_greedy",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// All names, for error messages.
    pub fn names() -> String {
        WorkloadKind::ALL.map(WorkloadKind::name).join(", ")
    }

    /// What one operation of this workload is, for reports.
    pub fn op_noun(self) -> &'static str {
        match self {
            WorkloadKind::SweepDrr => "sweep",
            WorkloadKind::SweepResume => "record+sweep+cut+resume",
            WorkloadKind::DesignGreedy => "design",
        }
    }

    /// Operations every timed run completes, however long they take: at
    /// least 100 for a p90 with ten samples beyond it, and more where the
    /// per-input cost varies most, so the percentiles summarise enough
    /// distinct inputs to be steady from seed to seed.
    pub fn min_ops(self) -> usize {
        match self {
            WorkloadKind::SweepDrr => 250,
            WorkloadKind::SweepResume => 100,
            WorkloadKind::DesignGreedy => 300,
        }
    }

    /// Whether an operation is an exhaustive sweep.
    pub fn sweeps(self) -> bool {
        self != WorkloadKind::DesignGreedy
    }

    /// Inputs per lane: lanes are visited round-robin, and each lane is
    /// cycled when the run outlasts it.
    fn lanes(self) -> &'static [(Study, Scale, u64)] {
        match self {
            WorkloadKind::SweepDrr => &[(Study::Drr, Scale::Quick, 256)],
            WorkloadKind::SweepResume => &[(Study::Recon, Scale::Quick, 128)],
            // Recording a paper-scale reconstruction costs ~150 ms, so that
            // lane is short; its designs barely vary with the seed. DRR
            // designs vary most, so that lane is the longest.
            WorkloadKind::DesignGreedy => &[
                (Study::Drr, Scale::Paper, 96),
                (Study::Recon, Scale::Paper, 4),
                (Study::Render, Scale::Paper, 32),
            ],
        }
    }
}

/// One of the paper's case studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// Deficit-round-robin scheduling.
    Drr,
    /// 3D image reconstruction.
    Recon,
    /// 3D scalable-mesh rendering.
    Render,
}

impl Study {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Study::Drr => "drr",
            Study::Recon => "recon",
            Study::Render => "render",
        }
    }
}

/// How large a case-study run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Test scale: the studies' `quick` runs, except DRR, which is
    /// [`SHORT_DRR_MS`] of case-study traffic (`DrrWorkload::quick` is
    /// 80 ms, and a third of its seeds sweep for 5 s instead of 0.1 s).
    Quick,
    /// The studies' `case_study` (paper) scale.
    Paper,
}

/// One recorded input trace.
#[derive(Debug, Clone)]
pub struct Input {
    /// Which case study recorded it.
    pub study: Study,
    /// The case-study seed it was recorded with.
    pub study_seed: u64,
    /// The trace itself.
    pub trace: Trace,
}

impl Input {
    /// Record `study` at `scale` with `study_seed`.
    ///
    /// # Errors
    ///
    /// Propagates recording failures.
    pub fn record(study: Study, scale: Scale, study_seed: u64) -> Result<Input> {
        let trace = case_study(study, scale, study_seed).record()?;
        Ok(Input {
            study,
            study_seed,
            trace,
        })
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        format!("{}#{}", self.study.name(), self.study_seed)
    }
}

fn case_study(study: Study, scale: Scale, seed: u64) -> Box<dyn Workload> {
    match (study, scale) {
        (Study::Drr, Scale::Quick) => Box::new(DrrWorkload::with_configs(
            seed,
            TrafficConfig {
                duration_ms: SHORT_DRR_MS,
                ..TrafficConfig::drr_case_study(seed)
            },
            DrrConfig {
                quantum: 1500,
                link_rate_bps: 12_000_000,
            },
        )),
        (Study::Drr, Scale::Paper) => Box::new(DrrWorkload::case_study(seed)),
        (Study::Recon, Scale::Paper) => Box::new(ReconWorkload::case_study(seed)),
        (Study::Recon, Scale::Quick) => Box::new(ReconWorkload::quick(seed)),
        (Study::Render, Scale::Paper) => Box::new(RenderWorkload::case_study(seed)),
        (Study::Render, Scale::Quick) => Box::new(RenderWorkload::quick(seed)),
    }
}

/// The case-study seed of input `index` of a run seeded with `seed`.
pub fn study_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(index)
}

/// The parameter block every sweep uses: the footprint-optimised
/// defaults with four profiled classes, as the repository's sweep
/// comparison runs it.
pub fn sweep_params() -> Params {
    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
    params
}

/// The recorded inputs of one run, in lanes.
#[derive(Debug, Clone)]
pub struct Pool {
    lanes: Vec<Vec<Input>>,
}

impl Pool {
    /// Record every input of `kind` for `seed`, lane by lane.
    ///
    /// # Errors
    ///
    /// Propagates recording failures.
    pub fn record(kind: WorkloadKind, seed: u64) -> Result<Pool> {
        Pool::record_with(kind, seed, Input::record)
    }

    /// Like [`Pool::record`] with a caller-supplied recorder (the traced
    /// run wraps each recording in a span).
    ///
    /// # Errors
    ///
    /// Propagates recording failures.
    pub fn record_with(
        kind: WorkloadKind,
        seed: u64,
        mut record: impl FnMut(Study, Scale, u64) -> Result<Input>,
    ) -> Result<Pool> {
        let mut lanes = Vec::new();
        for &(study, scale, len) in kind.lanes() {
            let lane = (0..len)
                .map(|i| record(study, scale, study_seed(seed, i)))
                .collect::<Result<Vec<_>>>()?;
            lanes.push(lane);
        }
        Ok(Pool { lanes })
    }

    /// The input of operation `k`: lanes round-robin, each lane cycled.
    pub fn get(&self, k: usize) -> &Input {
        let lane = &self.lanes[k % self.lanes.len()];
        &lane[(k / self.lanes.len()) % lane.len()]
    }

    /// Distinct inputs in the pool.
    pub fn distinct(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_map_to_disjoint_case_study_seeds() {
        assert_eq!(study_seed(0, 5), 5);
        assert_eq!(study_seed(1, 0), 1 << 20);
        assert_ne!(study_seed(1, 3), study_seed(2, 3));
    }

    #[test]
    fn lanes_are_visited_round_robin_and_cycled() {
        let pool = Pool::record_with(WorkloadKind::DesignGreedy, 4, |study, _, s| {
            Ok(Input {
                study,
                study_seed: s,
                trace: Trace::builder().finish()?,
            })
        })
        .unwrap();
        assert_eq!(pool.get(0).study, Study::Drr);
        assert_eq!(pool.get(1).study, Study::Recon);
        assert_eq!(pool.get(2).study, Study::Render);
        assert_eq!(pool.get(3).study_seed, study_seed(4, 1));
        assert_eq!(pool.get(3 * 4).study, Study::Drr);
        assert_eq!(pool.get(3 * 4 + 1).study_seed, study_seed(4, 0));
    }
}
