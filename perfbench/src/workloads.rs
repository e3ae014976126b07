//! The three workloads, generated from the seed.
//!
//! Every workload is built only through the public `Cluster` API, and every
//! config is the library default except the settings named here: no thread,
//! queue-backend, batching or fast-forward knob is touched, so a change that
//! deletes or collapses those knobs is measurable without editing this file.
//!
//! Sizing rule: every working set stays in the tens of MiB, so the numbers
//! measure the program and not the neighbours' use of a shared L3. An
//! earlier attempt ran gang rotation at 16k nodes with a 219 MiB peak RSS
//! on a 2-core VM whose L3 is shared with other tenants; its three timings
//! moved 11–13% together between two run sets of identical code, while a
//! 14 MiB chaos workload held within 0.1–3.5%. A second limit is restore
//! time, which today grows with the square of the checkpoint size (1.9 s
//! at 0.84 MiB, 23 s at 2 MiB), and a long restore is the timing that
//! neighbours disturb most: node and job counts are chosen so that one
//! restore takes at most about half a second and one run well under that.

use storm_apps::StreamConfig;
use storm_core::prelude::*;
use storm_sim::DeterministicRng;

/// Gang rotation: nodes, and full-machine job pairs run back to back.
/// Few long jobs: each job adds launch events and checkpoint bytes in
/// proportion to the node count, while each quantum adds one strobe
/// reaching every node, so long jobs keep the fan-out high (62 messages
/// per event at 256 nodes, 82 at 512). The node count is a power of two,
/// as a full-machine job needs a single buddy block. At 512 nodes one
/// restore took 1.2–1.9 s, and over ten seeds its quartile spread reached
/// 0.27 of the median while neighbours were busy; 256 nodes quarter it.
const GANG_NODES: u32 = 256;
const GANG_PAIRS: u32 = 2;

/// Unicast launch: nodes, and 12 MB launches to every PE. Every node keeps
/// a record of every job it ran, so the job count sets the checkpoint size.
const LAUNCH_NODES: u32 = 256;
const LAUNCH_JOBS: u32 = 4;

/// Chaos stream (the paper cluster's 64 nodes): independent episodes, jobs
/// per episode, and the simulated time an episode goes on after its last
/// arrival. One episode's host cost per simulated second depends on its
/// seed by up to 1.5x (how busy the cluster is and when the faults land),
/// so a run sums several episodes with seeds drawn from the workload seed.
const CHAOS_EPISODES: u64 = 6;
const CHAOS_JOBS: usize = 40;
const CHAOS_TAIL: SimSpan = SimSpan::from_secs(3);
const CHAOS_HEARTBEAT_EVERY: u32 = 4;
const CHAOS_STANDBYS: u32 = 2;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 4/5 gang scheduling: one strobe multicast per quantum reaches
    /// every NM, so group expansion and the NM strobe handlers do almost
    /// all the work; one launch per job leaves the queue, arena and
    /// transfer pipeline nearly idle. Its one cluster has the largest
    /// single checkpoint.
    GangRotation,
    /// Fig. 2 launch pipeline with per-NM fan-out (`group_delivery`
    /// off, the paper-literal semantics): every fragment, strobe and
    /// launch command is its own queue event, so queue push/pop, arena
    /// alloc/take, dispatch and the XFER-AND-SIGNAL / COMPARE-AND-WRITE
    /// transfer model do nearly all the work, and group expansion none.
    LaunchUnicast,
    /// EASY backfill under a seeded Poisson stream and seeded faults with
    /// heartbeat detection, requeue and two MM standbys (the active MM is
    /// killed at mid-horizon), in several independent episodes: the MM
    /// decision path does most of the work, and it is the only workload
    /// where the fault and replica layers run.
    ChaosStream,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Kind; 3] = [Kind::GangRotation, Kind::LaunchUnicast, Kind::ChaosStream];

/// How a workload's run ends.
#[derive(Debug, Clone, Copy)]
pub enum Ending {
    /// Drain with `run_until_idle`; every job must complete.
    Idle,
    /// Run to a fixed simulated horizon with `run_until`.
    Horizon(SimTime),
}

/// One episode's generated inputs: the config and the submissions.
pub struct Plan {
    pub kind: Kind,
    pub cfg: ClusterConfig,
    pub jobs: Vec<(SimTime, JobSpec)>,
    pub ending: Ending,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::GangRotation => "gang_rotation",
            Kind::LaunchUnicast => "launch_unicast",
            Kind::ChaosStream => "chaos_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generate the workload's inputs from `seed`: one or more independent
    /// episodes, each a cluster of its own, run one after the other.
    pub fn generate(self, seed: u64) -> Vec<Plan> {
        let mut rng = DeterministicRng::new(seed);
        match self {
            Kind::GangRotation => {
                let cfg = ClusterConfig::gang_cluster()
                    .with_nodes(GANG_NODES)
                    .with_seed(seed);
                let ranks = GANG_NODES * 2;
                let mut jobs = Vec::new();
                for _ in 0..GANG_PAIRS {
                    let sweep = AppSpec::Sweep3d {
                        iterations: 320 + rng.below(80) as u32,
                        compute_per_iter: SimSpan::from_micros(192_000),
                        comm_bytes_per_iter: 2_000_000,
                    };
                    let synthetic = AppSpec::Synthetic {
                        compute: SimSpan::from_millis(64_000 + rng.below(16_000)),
                    };
                    for app in [sweep, synthetic] {
                        jobs.push((
                            SimTime::ZERO,
                            JobSpec::new(app, ranks).with_ranks_per_node(2),
                        ));
                    }
                }
                vec![Plan {
                    kind: self,
                    cfg,
                    jobs,
                    ending: Ending::Idle,
                }]
            }
            Kind::LaunchUnicast => {
                let cfg = ClusterConfig::paper_cluster()
                    .with_nodes(LAUNCH_NODES)
                    .with_group_delivery(false)
                    .with_seed(seed);
                let pes = cfg.total_pes();
                let jobs = (0..LAUNCH_JOBS)
                    .map(|_| (SimTime::ZERO, JobSpec::new(AppSpec::do_nothing_mb(12), pes)))
                    .collect();
                vec![Plan {
                    kind: self,
                    cfg,
                    jobs,
                    ending: Ending::Idle,
                }]
            }
            Kind::ChaosStream => (0..CHAOS_EPISODES)
                .map(|k| chaos_episode(seed ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect(),
        }
    }
}

/// One chaos episode: a fixed job count, with the horizon set just past
/// the last arrival, so the cluster stays busy to the end.
fn chaos_episode(seed: u64) -> Plan {
    let stream = StreamConfig {
        jobs: CHAOS_JOBS,
        mean_interarrival: SimSpan::from_millis(180),
        min_ranks: 4,
        // At most 16 nodes, so up to three dead nodes can never leave the
        // queue head without a free buddy block.
        max_ranks: 64,
        median_runtime: SimSpan::from_millis(600),
        runtime_sigma: 1.0,
        estimate_factor: 2.0,
    }
    .generate(&mut DeterministicRng::new(seed));
    let last = stream.last().expect("a non-empty stream").arrival;
    let span = last.since(SimTime::ZERO) + CHAOS_TAIL;
    let base = ClusterConfig::paper_cluster();
    let faults =
        FaultSchedule::randomized(seed, base.nodes, span).mm_crash(SimTime::ZERO + span / 2, 0);
    let cfg = base
        .with_scheduler(SchedulerKind::Backfill)
        .with_fault_detection(CHAOS_HEARTBEAT_EVERY)
        .with_failure_policy(FailurePolicy::requeue())
        .with_mm_standbys(CHAOS_STANDBYS)
        .with_faults(faults)
        .with_seed(seed);
    let jobs = stream
        .into_iter()
        .map(|j| {
            (
                j.arrival,
                JobSpec::new(j.app, j.ranks).with_estimate(j.estimate),
            )
        })
        .collect();
    Plan {
        kind: Kind::ChaosStream,
        cfg,
        jobs,
        ending: Ending::Horizon(SimTime::ZERO + span),
    }
}

impl Plan {
    /// Validate the config and build the cluster.
    pub fn new_cluster(&self) -> Result<Cluster, String> {
        self.cfg.validate()?;
        Ok(Cluster::new(self.cfg.clone()))
    }

    /// Submit every job.
    pub fn submit(&self, c: &mut Cluster) -> Vec<JobId> {
        self.jobs
            .iter()
            .map(|(at, spec)| c.submit_at(*at, spec.clone()))
            .collect()
    }

    /// The whole set-up a user pays before every run.
    pub fn setup(&self) -> Result<(Cluster, Vec<JobId>), String> {
        let mut c = self.new_cluster()?;
        let ids = self.submit(&mut c);
        Ok((c, ids))
    }

    /// Run to the end in one call (the untraced path).
    pub fn run(&self, c: &mut Cluster) {
        match self.ending {
            Ending::Idle => {
                c.run_until_idle();
            }
            Ending::Horizon(h) => {
                c.run_until(h);
            }
        }
    }

    /// The step after `prev` when running to the same end one MM collect
    /// period at a time, or `None` when the run is over. An idle-drained
    /// workload steps while a job is live and then drains the rest with
    /// `run_until_idle`, so the final state matches [`Plan::run`].
    pub fn next_step(&self, c: &Cluster, prev: Option<Step>) -> Option<Step> {
        let q = self.cfg.collect_period();
        let t = c.now();
        match (self.ending, prev) {
            (_, Some(Step::Drain)) => None,
            (Ending::Idle, _) if c.world().is_idle() => Some(Step::Drain),
            (Ending::Idle, _) => Some(Step::Until(t + q)),
            (Ending::Horizon(h), _) if t < h => Some(Step::Until((t + q).min(h))),
            (Ending::Horizon(_), _) => None,
        }
    }
}

/// One step of a stepped run.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// `run_until` this instant.
    Until(SimTime),
    /// `run_until_idle`.
    Drain,
}

impl Step {
    pub fn apply(self, c: &mut Cluster) {
        match self {
            Step::Until(t) => {
                c.run_until(t);
            }
            Step::Drain => {
                c.run_until_idle();
            }
        }
    }
}
