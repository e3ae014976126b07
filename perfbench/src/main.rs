//! Host-time benchmark of the STORM simulator.
//!
//! One process runs one workload (see `workloads.rs`) on one simulation
//! thread, through the public `Cluster` API only:
//!
//! ```text
//! storm-perfbench <workload> --seed <n> --seconds <s> --mode plain
//! storm-perfbench <workload> --seed <n> --mode traced --spans <file>
//! ```
//!
//! A workload is one or more independent episodes, each a cluster of its
//! own; every time and size below covers all of a workload's episodes.
//!
//! `plain` spends `--seconds` measuring the host-time end-to-end metrics,
//! in rounds: set up the workload (a burst of set-ups, the last of which is
//! kept), run it (a full user-visible run), checkpoint the final state (a
//! burst) and restore the checkpoint, each call covering every episode.
//! Each of these samples is scaled to a reference host speed by a fixed
//! reference pass timed after it (see `reference.rs`), and each metric is
//! the median of its scaled samples.
//!
//! `traced` runs the same workload and seed once, stepping `run_until` one
//! MM collect period at a time with the full `storm-dst` oracle suite at
//! every boundary, and records a span around every call the benchmark
//! makes into a layer (see `spans.rs`), plus the outside-in probes of
//! `probes.rs`. It reports the per-layer metrics and prints a "where the
//! time goes" table.
//!
//! Both modes exit non-zero on any failed correctness check, and print as
//! their last line one JSON object that `run.py` combines into the
//! benchmark's result. The simulated digest in it lets two commits, or the
//! traced and untraced run, be compared.

mod probes;
mod reference;
mod spans;
mod workloads;

use reference::{Pacer, Samples, Work, REFERENCE_S};
use spans::{Counters, Recorder};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use storm_core::prelude::*;
use storm_dst::{check_all, standard_suite};
use workloads::{Ending, Kind, Plan};

/// Fewest rounds a plain run makes, whatever `--seconds`.
const MIN_ROUNDS: usize = 5;
/// Calls per set-up and checkpoint sample: one set-up takes 0.2–0.5 ms
/// and one checkpoint of a workload 3–7 ms, while one run takes 20–300 ms
/// and one restore 300–400 ms.
const SETUP_REPS: usize = 8;
const CHECKPOINT_REPS: usize = 4;
/// Repetitions of the observer runs in a traced run.
const TRACED_REPS: usize = 3;
/// Repetitions of the codec calls in a traced run, whose medians are
/// reported; a parse or restore takes up to half a second.
const CODEC_REPS: usize = 5;
/// Environment variables that select runtime knobs; the benchmark measures
/// the defaults, so `run.py` strips them and the binary refuses them.
const KNOB_ENV: [&str; 3] = ["STORM_THREADS", "STORM_BATCH", "STORM_QUEUE_BACKEND"];
const MIB: f64 = 1024.0 * 1024.0;

fn main() {
    if let Err(e) = real_main() {
        eprintln!("storm-perfbench: {e}");
        std::process::exit(1);
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let name = it
        .next()
        .ok_or("usage: storm-perfbench <workload> [options]")?;
    let kind = Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let mut seed = None;
    let mut args = Args {
        kind,
        seed: 0,
        seconds: 10.0,
        traced: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--seed" => seed = Some(val.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = val.parse().map_err(|_| bad())?,
            "--mode" => {
                args.traced = match val.as_str() {
                    "plain" => false,
                    "traced" => true,
                    _ => return Err(format!("unknown mode {val:?}")),
                }
            }
            "--spans" => args.spans = Some(val),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    for var in KNOB_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; the benchmark measures the defaults"));
        }
    }
    let out = if args.traced {
        traced(&args)?
    } else {
        plain(&args)?
    };
    println!("{}", out.json(&args));
    Ok(())
}

/// What one process reports to `run.py`.
#[derive(Default)]
struct Output {
    digest: u64,
    checkpoint_digest: u64,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self, args: &Args) -> String {
        let mut s = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"mode\":\"{}\",\"digest\":\"{:016x}\",\
             \"checkpoint_digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"metrics\":{{",
            args.kind.name(),
            args.seed,
            if args.traced { "traced" } else { "plain" },
            self.digest,
            self.checkpoint_digest,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            // `{:?}` prints an f64 with every digit needed to round-trip.
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

// ------------------------------------------------------------- checks —

/// Outcome counts of one finished run.
#[derive(Default)]
struct Outcome {
    completed: u64,
    failed: u64,
}

/// Check the run's end state: drained workloads complete every job, and
/// every `standard_suite()` oracle holds; its `NoJobLost` is the check
/// that the chaos stream, which may leave jobs live at its horizon, loses
/// none.
fn check_outcome(plan: &Plan, c: &Cluster, ids: &[JobId]) -> Result<Outcome, String> {
    let w = c.world();
    let mut o = Outcome::default();
    for &id in ids {
        match c.job(id).state {
            JobState::Completed => o.completed += 1,
            JobState::Failed => o.failed += 1,
            _ => {}
        }
    }
    if let Ending::Idle = plan.ending {
        if o.completed != ids.len() as u64 {
            return Err(format!(
                "{}: {} of {} jobs completed",
                plan.kind.name(),
                o.completed,
                ids.len()
            ));
        }
    }
    if let Some(v) = check_all(&mut standard_suite(), w, c.now()) {
        return Err(format!(
            "oracle {} violated at {}: {}",
            v.oracle, v.at, v.detail
        ));
    }
    Ok(o)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The simulated digest: handler messages, queue events, every
/// `ClusterStats` counter and each job's final state and completion
/// instant. Host time never enters it.
fn digest(c: &Cluster, ids: &[JobId]) -> u64 {
    let mut text = format!(
        "{}|{}|{:?}",
        c.messages_handled(),
        c.events_delivered(),
        c.world().stats
    );
    for &id in ids {
        let r = c.job(id);
        let done = r.metrics.completed.map(|t| t.as_nanos());
        let _ = write!(text, "|{:?}@{:?}", r.state, done);
    }
    fnv1a(text.as_bytes())
}

/// Checkpoint → restore → checkpoint must be byte-identical.
fn check_round_trip(text: &str, restored: &Cluster) -> Result<(), String> {
    if restored.checkpoint() != text {
        return Err("checkpoint -> restore -> checkpoint is not byte-identical".into());
    }
    Ok(())
}

/// A run stepped one collect period at a time must leave the same
/// checkpoint as one call to the same end, except for the world's
/// `sim_leaps` count: the engine counts one idle leap per `run_until`
/// call that ends inside a leap, so it depends on how the run was cut.
/// Telemetry is off in both runs, so the registry's `sim.time.leaps`
/// counter, which counts the same thing, is not in either checkpoint.
fn check_stepped(stepped: &[String], one_call: &[String]) -> Result<(), String> {
    for (i, (a, b)) in stepped.iter().zip(one_call).enumerate() {
        if mask_leaps(a) != mask_leaps(b) {
            return Err(format!(
                "episode {i}: a stepped run's checkpoint differs from a one-call run's \
                 beyond sim_leaps"
            ));
        }
    }
    Ok(())
}

/// `text` with the value of every `"sim_leaps":` field blanked.
fn mask_leaps(text: &str) -> String {
    const KEY: &str = "\"sim_leaps\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Process high-water RSS (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

// ------------------------------------------------------------ helpers —

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ----------------------------------------------------------- episodes —

/// One episode of a workload: its inputs, its cluster and its jobs.
struct Episode {
    plan: Plan,
    cluster: Cluster,
    ids: Vec<JobId>,
}

/// Build and load every episode's cluster.
fn set_up(plans: Vec<Plan>) -> Result<Vec<Episode>, String> {
    plans
        .into_iter()
        .map(|plan| {
            let (cluster, ids) = plan.setup()?;
            Ok(Episode { plan, cluster, ids })
        })
        .collect()
}

fn run_all(eps: &mut [Episode]) {
    for e in eps {
        e.plan.run(&mut e.cluster);
    }
}

/// Check every episode's end state and sum the outcomes.
fn check_all_outcomes(eps: &[Episode]) -> Result<Outcome, String> {
    let mut total = Outcome::default();
    for e in eps {
        let o = check_outcome(&e.plan, &e.cluster, &e.ids)?;
        total.completed += o.completed;
        total.failed += o.failed;
    }
    Ok(total)
}

fn digest_all(eps: &[Episode]) -> u64 {
    let parts: Vec<u8> = eps
        .iter()
        .flat_map(|e| digest(&e.cluster, &e.ids).to_le_bytes())
        .collect();
    fnv1a(&parts)
}

fn checkpoint_all(eps: &[Episode]) -> Vec<String> {
    eps.iter().map(|e| e.cluster.checkpoint()).collect()
}

fn restore_all(texts: &[String]) -> Result<Vec<Cluster>, String> {
    texts.iter().map(|t| Cluster::restore(t)).collect()
}

fn check_round_trips(texts: &[String], restored: &[Cluster]) -> Result<(), String> {
    texts
        .iter()
        .zip(restored)
        .try_for_each(|(t, c)| check_round_trip(t, c))
}

fn total_len(texts: &[String]) -> usize {
    texts.iter().map(String::len).sum()
}

fn texts_digest(texts: &[String]) -> u64 {
    fnv1a(texts.concat().as_bytes())
}

fn sum(eps: &[Episode], f: impl Fn(&Cluster) -> f64) -> f64 {
    eps.iter().map(|e| f(&e.cluster)).sum()
}

// ---------------------------------------------------------- plain run —

fn plain(args: &Args) -> Result<Output, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut out = Output::default();
    let mut pacer = Pacer::new();
    let mut setup = Samples::default();
    let mut run = Samples::default();
    let mut checkpoint = Samples::default();
    let mut restore = Samples::default();
    let mut rss = None;
    let mut texts = Vec::new();
    let mut last = None;
    let mut rounds = 0;
    // Each round times every call once, so every metric samples the whole
    // budget. A sample covers all of a workload's episodes: with a pass
    // between `chaos_stream`'s episodes instead, each episode started with
    // caches the pass had evicted, and over ten seeds in a slow stretch the
    // quartile spread of its restore_s grew from 0.09 to 0.13.
    while rounds < MIN_ROUNDS || began.elapsed() < budget {
        rounds += 1;
        // One workload resident at a time, as in a user's run.
        drop(last.take());
        // Set-up takes well under a millisecond, so a sample is a burst;
        // the last one built is the one run.
        let mut eps = Vec::new();
        pacer.time(&mut setup, Work::Format, SETUP_REPS, || {
            for _ in 0..SETUP_REPS {
                eps = set_up(args.kind.generate(args.seed))?;
            }
            Ok::<_, String>(())
        })?;
        pacer.time(&mut run, Work::Format, 1, || run_all(&mut eps));

        let outcome = check_all_outcomes(&eps)?;
        out.attempted += eps.iter().map(|e| e.ids.len() as u64).sum::<u64>();
        out.failed += outcome.failed;
        let d = digest_all(&eps);
        if rounds > 1 && d != out.digest {
            return Err("a repeated run of the same seed diverged".into());
        }
        out.digest = d;
        if rss.is_none() {
            // Read before the process's first checkpoint, so the codec's
            // memory is not charged to the simulation.
            rss = Some(peak_rss_mib()?);
        }

        // `checkpoint()` is side-effect free, so a sample is a burst.
        pacer.time(&mut checkpoint, Work::Format, CHECKPOINT_REPS, || {
            for _ in 0..CHECKPOINT_REPS {
                texts = checkpoint_all(&eps);
            }
        });
        let restored = pacer.time(&mut restore, Work::Scan, 1, || restore_all(&texts))?;
        check_round_trips(&texts, &restored)?;
        out.attempted += 1;
        last = Some(eps);
    }
    let eps = last.expect("at least one round");
    out.checkpoint_digest = texts_digest(&texts);

    let sim_s = sum(&eps, |c| c.now().as_secs_f64());
    let messages = sum(&eps, |c| c.messages_handled() as f64);
    let run_s = median(&run.scaled);
    out.metric("sim_s_per_s", sim_s / run_s, "sim_s/s");
    out.metric("msgs_per_s", messages / run_s, "msg/s");
    out.metric("setup_s", median(&setup.scaled), "s");
    out.metric(
        "peak_rss_mib",
        rss.expect("read after the first run"),
        "MiB",
    );
    out.metric("checkpoint_s", median(&checkpoint.scaled), "s");
    out.metric("checkpoint_mib", total_len(&texts) as f64 / MIB, "MiB");
    out.metric("restore_s", median(&restore.scaled), "s");
    // The typical host time of a run, which the traced run's is compared
    // against.
    out.metric("run_wall_s", median(&run.host), "s");
    println!(
        "host speed: reference pass {:.1} / {:.1} us (format / scan), scaled to {:.1} / {:.1} us; \
         unscaled medians: set-up {:.6} s, run {:.6} s, checkpoint {:.6} s, restore {:.6} s; \
         {rounds} rounds",
        median(&pacer.passes(Work::Format)) * 1e6,
        median(&pacer.passes(Work::Scan)) * 1e6,
        REFERENCE_S[0] * 1e6,
        REFERENCE_S[1] * 1e6,
        median(&setup.host),
        median(&run.host),
        median(&checkpoint.host),
        median(&restore.host),
    );
    Ok(out)
}

// --------------------------------------------------------- traced run —

fn counters(c: &Cluster) -> Counters {
    let s = &c.world().stats;
    [
        c.events_delivered(),
        c.messages_handled(),
        c.queue_stats().pushed,
        c.arena_stats().peak as u64,
        s.strobes,
        s.fragments,
        s.reports,
        s.requeues,
    ]
}

/// Set up and run the workload in one call per episode, returning the
/// run's wall time and the checked episodes.
fn timed_run(args: &Args, telemetry: bool) -> Result<(f64, Vec<Episode>), String> {
    let mut plans = args.kind.generate(args.seed);
    for p in &mut plans {
        p.cfg = p.cfg.clone().with_telemetry(telemetry);
    }
    let mut eps = set_up(plans)?;
    let t = Instant::now();
    run_all(&mut eps);
    let wall = secs(t.elapsed());
    check_all_outcomes(&eps)?;
    Ok((wall, eps))
}

fn traced(args: &Args) -> Result<Output, String> {
    let mut rec = Recorder::new();
    let root = rec.open("workload");

    let plans = rec.time("setup.generate", || args.kind.generate(args.seed));
    let clusters = rec.time("setup.cluster_new", || {
        plans
            .iter()
            .map(Plan::new_cluster)
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut eps: Vec<Episode> = rec.time("setup.submit", || {
        plans
            .into_iter()
            .zip(clusters)
            .map(|(plan, mut cluster)| {
                let ids = plan.submit(&mut cluster);
                Episode { plan, cluster, ids }
            })
            .collect()
    });

    let run = rec.open("sim.run");
    for e in &mut eps {
        let mut suite = standard_suite();
        let mut prev = None;
        while let Some(step) = e.plan.next_step(&e.cluster, prev) {
            let before = counters(&e.cluster);
            let id = rec.open("sim.step");
            step.apply(&mut e.cluster);
            rec.close(id);
            let mut delta = counters(&e.cluster);
            for (d, b) in delta.iter_mut().zip(before) {
                *d -= b;
            }
            rec.set_delta(id, delta);
            let c = &e.cluster;
            let violation = rec.time("oracle.check", || check_all(&mut suite, c.world(), c.now()));
            if let Some(v) = violation {
                return Err(format!(
                    "oracle {} violated at {}: {}",
                    v.oracle, v.at, v.detail
                ));
            }
            prev = Some(step);
        }
    }
    rec.close(run);
    let outcome = check_all_outcomes(&eps)?;
    let sim_digest = digest_all(&eps);

    // One-shot timings of second-long calls swing by a third on a shared
    // host, so the codec and the observer runs are repeated and their
    // medians reported.
    let mut texts = Vec::new();
    for _ in 0..CODEC_REPS {
        texts = rec.time("ckpt.encode", || checkpoint_all(&eps));
        rec.time("json.parse", || {
            texts
                .iter()
                .try_for_each(|t| storm_telemetry::json::parse(t).map(drop))
        })?;
        rec.time("json.validate", || {
            texts.iter().try_for_each(|t| validate_json(t))
        })?;
        let restored = rec.time("ckpt.restore", || restore_all(&texts))?;
        rec.time("ckpt.reencode", || check_round_trips(&texts, &restored))?;
        rec.time("teardown", || drop(restored));
    }
    let rows = rec.time("query.jobs", || {
        eps.iter()
            .map(|e| storm_query::jobs(&e.cluster).render().lines().count())
            .sum::<usize>()
    });
    let submitted: usize = eps.iter().map(|e| e.ids.len()).sum();
    if rows < submitted {
        return Err("storm-query jobs table is missing rows".into());
    }

    let queue_peak = eps
        .iter()
        .map(|e| e.cluster.queue_stats().peak)
        .max()
        .unwrap_or(0);
    let arena_peak = eps
        .iter()
        .map(|e| e.cluster.arena_stats().peak)
        .max()
        .unwrap_or(0);
    let hold_ns = rec.time("probe.queue_hold", || probes::queue_hold_ns(queue_peak));
    let arena_ns = rec.time("probe.arena", || probes::arena_ns_per_op(arena_peak));

    let (mut off_walls, mut on_walls) = (Vec::new(), Vec::new());
    for rep in 0..TRACED_REPS {
        let (off, off_eps) = rec.time("telemetry.off", || timed_run(args, false))?;
        let (on, on_eps) = rec.time("telemetry.on", || timed_run(args, true))?;
        if digest_all(&off_eps) != sim_digest || digest_all(&on_eps) != sim_digest {
            return Err("telemetry on/off or stepped/unstepped runs diverged".into());
        }
        if rep == 0 {
            // The telemetry-off run has the stepped run's config and runs
            // each episode to the same end in one call.
            rec.time("ckpt.stepped_check", || {
                check_stepped(&texts, &checkpoint_all(&off_eps))
            })?;
        }
        off_walls.push(off);
        on_walls.push(on);
    }
    rec.close(root);

    if let Some(path) = &args.spans {
        std::fs::write(path, rec.jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "where the time goes: {} seed {}",
        args.kind.name(),
        args.seed
    );
    print!("{}", rec.table());

    let stat = |f: fn(&ClusterStats) -> u64| sum(&eps, |c| f(&c.world().stats) as f64);
    let steps = rec.durations("sim.step");
    let oracle = rec.durations("oracle.check");
    let sim_run = rec.total("sim.step");
    let sim_s = sum(&eps, |c| c.now().as_secs_f64());
    let events = sum(&eps, |c| c.events_delivered() as f64);
    let messages = sum(&eps, |c| c.messages_handled() as f64);
    let pushed = sum(&eps, |c| c.queue_stats().pushed as f64);
    let fragments = stat(|s| s.fragments);
    let requeues = stat(|s| s.requeues);
    let ckpt_mib = total_len(&texts) as f64 / MIB;
    let restore_s = median(&rec.durations("ckpt.restore"));
    let parse_s = median(&rec.durations("json.parse"));
    let components = sum(&eps, |c| {
        let w = &c.world().wiring;
        (w.mms.len() + w.nms.len() + w.pls.iter().map(Vec::len).sum::<usize>()) as f64
    });
    let submitted = submitted as f64;

    let mut out = Output {
        digest: sim_digest,
        checkpoint_digest: texts_digest(&texts),
        attempted: submitted as u64 + 1,
        failed: outcome.failed,
        metrics: Vec::new(),
    };
    let us = |v: f64| v * 1e6;
    out.metric("setup.generate_s", rec.total("setup.generate"), "s");
    out.metric("setup.cluster_new_s", rec.total("setup.cluster_new"), "s");
    out.metric("setup.submit_s", rec.total("setup.submit"), "s");
    out.metric("setup.components", components, "count");
    out.metric("sim.run_s", sim_run, "s");
    out.metric("sim.events", events, "count");
    out.metric("sim.messages", messages, "count");
    out.metric("sim.fanout", ratio(messages, events), "msg/event");
    out.metric("sim.ns_per_event", ratio(sim_run * 1e9, events), "ns");
    out.metric("sim.ns_per_message", ratio(sim_run * 1e9, messages), "ns");
    out.metric("sim.slice_us.p50", us(percentile(&steps, 0.5)), "us");
    out.metric("sim.slice_us.p99", us(percentile(&steps, 0.99)), "us");
    out.metric(
        "sim.leaped_slices",
        sum(&eps, |c| c.leap_stats().1 as f64),
        "count",
    );
    out.metric("sim.seconds", sim_s, "sim_s");
    out.metric("queue.pushed", pushed, "count");
    out.metric("queue.pushed_per_sim_s", pushed / sim_s, "1/sim_s");
    out.metric("queue.peak", queue_peak as f64, "count");
    out.metric("queue.hold_ns", hold_ns, "ns");
    out.metric("arena.peak", arena_peak as f64, "count");
    out.metric(
        "arena.payload_mib",
        sum(&eps, |c| c.arena_stats().payload_bytes as f64) / MIB,
        "MiB",
    );
    out.metric("arena.ns_per_op", arena_ns, "ns");
    out.metric("xfer.fragments", fragments, "count");
    out.metric(
        "caw.flow_stall_ratio",
        ratio(stat(|s| s.flow_stalls), fragments),
        "ratio",
    );
    out.metric("fault.xfer_retries", stat(|s| s.xfer_retries), "count");
    out.metric("mm.strobes", stat(|s| s.strobes), "count");
    out.metric("mm.reports", stat(|s| s.reports), "count");
    out.metric(
        "mm.promotions",
        sum(&eps, |c| c.world().repl.promotions as f64),
        "count",
    );
    out.metric(
        "fault.detections",
        stat(|s| s.failures_detected.len() as u64),
        "count",
    );
    out.metric("fault.requeues", requeues, "count");
    out.metric("fault.requeue_ratio", ratio(requeues, submitted), "ratio");
    out.metric("jobs.submitted", submitted, "count");
    out.metric("jobs.completed", outcome.completed as f64, "count");
    out.metric("jobs.failed", outcome.failed as f64, "count");
    // A run that gets here passed the `NoJobLost` oracle.
    out.metric("jobs.lost", 0.0, "count");
    out.metric(
        "ckpt.encode_mib_per_s",
        ckpt_mib / median(&rec.durations("ckpt.encode")),
        "MiB/s",
    );
    out.metric("json.parse_s", parse_s, "s");
    out.metric(
        "json.validate_s",
        median(&rec.durations("json.validate")),
        "s",
    );
    out.metric("ckpt.restore_s", restore_s, "s");
    // Derived: restore time not spent in the generic JSON parse, as the
    // median over repetitions of a restore minus the parse timed just
    // before it. While parsing is nearly all of a restore, this is at the
    // noise floor of the two timings and can come out negative.
    let rebuild: Vec<f64> = rec
        .durations("ckpt.restore")
        .iter()
        .zip(rec.durations("json.parse"))
        .map(|(r, p)| r - p)
        .collect();
    out.metric("ckpt.rebuild_s", median(&rebuild), "s");
    out.metric("json.parse_share", ratio(parse_s, restore_s), "ratio");
    out.metric("oracle.check_us.p50", us(percentile(&oracle, 0.5)), "us");
    out.metric("oracle.check_us.p99", us(percentile(&oracle, 0.99)), "us");
    out.metric("oracle.share", ratio(oracle.iter().sum(), sim_run), "ratio");
    out.metric(
        "telemetry.overhead",
        ratio(median(&on_walls), median(&off_walls)),
        "ratio",
    );
    out.metric("query.jobs_ms", rec.total("query.jobs") * 1e3, "ms");
    // The simulation's traced wall: the stepped run minus the oracle
    // checks, which are observers priced above. `run.py` divides it by the
    // untraced run's wall to give `trace.overhead`.
    out.metric(
        "trace.sim_wall_s",
        rec.total("sim.run") - oracle.iter().sum::<f64>(),
        "s",
    );
    out.metric("trace.coverage", rec.coverage(), "ratio");
    Ok(out)
}
