//! Host-speed reference for the plain run.
//!
//! The benchmark runs on a shared 2-vCPU VM whose speed drifts: for
//! stretches of seconds to many minutes the simulator runs 1.2–2x slower
//! than in a quiet stretch, by different amounts for different calls (in
//! one slow stretch a run took 1.23x and a restore 1.86x its quiet time).
//! Repetition inside a 30 s run cannot average out a slow stretch that
//! covers the whole run, and taking the fastest sample does not help
//! either, so two sets of runs made minutes apart disagreed by up to 1.5x.
//!
//! So the plain run times a fixed reference pass after every timed sample,
//! and reports each sample scaled to a host on which the pass takes
//! [`REFERENCE_S`] (see [`Pacer`]). The pass is the benchmark's own code
//! and does not call the simulator, so a change to the simulator leaves it
//! alone. It has two kinds of work, timed apart, and each call is scaled by
//! the kind whose time tracked that call's best across slow and quiet
//! stretches. Candidates were compared on `gang_rotation` over 25 minutes
//! as the spread (max/min) of per-minute medians of call time / kind time.
//! Runs, set-ups and checkpoints moved 1.3–1.6x unscaled and 1.03–1.13x
//! scaled by [`Work::Format`]. Random reads and writes over 0.5–16 MiB
//! tables, pointer chasing, a binary heap, memcpy and allocation churn
//! tracked worse. Restores slow down more than anything else: scaled by
//! [`Work::Scan`] with the text cold they still moved 1.16x, and over five
//! seeds of `launch_unicast` in one slow stretch their quartile spread was
//! 0.11 of the median; with the text brought into the cache first, as the
//! restore has it, that spread fell to 0.02 while the unscaled one was 0.3.
//!
//! Over three sets of ten seeds of 30 s runs, while unscaled times moved
//! 1.3–2x between runs, every scaled metric's quartile spread stayed within
//! 0.12 of its median and the sets' medians within 0.05 of each other. The
//! widest is `chaos_stream`'s restore: its seeds' checkpoints differ in
//! size and restore time grows with the square of it, and in the slowest
//! stretches (a pass at 1.6x its quiet time) a restore there still reads
//! 5–20% slow after scaling.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Host time of each kind of work in one pass on the VM the benchmark was
/// tuned on (an Intel Xeon, Sapphire Rapids, 2 vCPUs) in a quiet stretch:
/// the host speed scaled times are reported at, so they read close to the
/// host times of a quiet stretch there. Indexed by [`Work`].
pub const REFERENCE_S: [f64; 2] = [150e-6, 105e-6];

/// Numbers formatted and parsed back per pass.
const NUMBERS: usize = 3_000;
/// Size of the scanned text, and scans of it per pass.
const TEXT_BYTES: usize = 512 * 1024;
const SCANS: usize = 12;

/// The kinds of work in a pass.
#[derive(Debug, Clone, Copy)]
pub enum Work {
    /// Formatting numbers into a string and parsing them back: scales
    /// runs, set-ups and checkpoints.
    Format,
    /// UTF-8 validation of the rest of a JSON-like text from one offset
    /// after another, the loop `json::parse` spends nearly all of a
    /// restore in today: scales restores.
    Scan,
}

struct Reference {
    numbers: String,
    text: Vec<u8>,
}

impl Reference {
    fn new() -> Self {
        let mut text = String::with_capacity(TEXT_BYTES + 64);
        let mut n = 0x2545_F491_4F6C_DD1Du64;
        while text.len() < TEXT_BYTES {
            n = n.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            let _ = write!(
                text,
                "{{\"id\":{},\"name\":\"node-{}\",\"t\":{}}},",
                n >> 52,
                (n >> 20) % 97,
                n >> 40
            );
        }
        Reference {
            numbers: String::with_capacity(NUMBERS * 21),
            text: text.into_bytes(),
        }
    }

    /// Do one pass and return the host time of each kind of work in
    /// seconds, indexed by [`Work`].
    fn pass(&mut self) -> [f64; 2] {
        let start = Instant::now();
        self.numbers.clear();
        for k in 0..NUMBERS as u64 {
            let _ = write!(self.numbers, "{},", black_box(k.wrapping_mul(0x9E37_79B9)));
        }
        let sum = self
            .numbers
            .split(',')
            .filter_map(|n| n.parse::<u64>().ok())
            .fold(0u64, u64::wrapping_add);
        black_box(sum);
        let format = start.elapsed().as_secs_f64();

        // Bring the text into the cache first: a restore scans a text that
        // stays in L2, and a pass follows a call that evicted this one.
        black_box(std::str::from_utf8(black_box(&self.text)).is_ok());
        let start = Instant::now();
        for k in 0..SCANS {
            let rest = &black_box(&self.text)[k * TEXT_BYTES / SCANS..];
            black_box(std::str::from_utf8(rest).is_ok());
        }
        let scan = start.elapsed().as_secs_f64();
        [format, scan]
    }
}

/// Timings of one call: host seconds, and the same scaled to the reference
/// host speed.
#[derive(Default)]
pub struct Samples {
    pub host: Vec<f64>,
    pub scaled: Vec<f64>,
}

/// Times calls of the simulator with a reference pass after each. A
/// sample's scaled time is its host time times [`REFERENCE_S`] over the
/// mean of the passes just before and just after it: the time the call
/// would have taken on the reference host if the host's speed at that
/// moment slowed it as much as the pass.
pub struct Pacer {
    reference: Reference,
    last_pass: [f64; 2],
    passes: Vec<[f64; 2]>,
}

impl Pacer {
    pub fn new() -> Self {
        let mut reference = Reference::new();
        // Warm up: the first passes fault in pages and fill the caches.
        for _ in 0..8 {
            reference.pass();
        }
        let last_pass = reference.pass();
        Pacer {
            reference,
            last_pass,
            passes: vec![last_pass],
        }
    }

    /// Run `f`, which repeats one call `reps` times, and record the time
    /// of one call in `into`, scaled by `work`.
    pub fn time<T>(
        &mut self,
        into: &mut Samples,
        work: Work,
        reps: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let v = f();
        let host = start.elapsed().as_secs_f64() / reps as f64;
        let pass = self.reference.pass();
        let k = work as usize;
        let speed = (self.last_pass[k] + pass[k]) / 2.0;
        self.last_pass = pass;
        self.passes.push(pass);
        into.host.push(host);
        into.scaled.push(host * REFERENCE_S[k] / speed);
        v
    }

    /// The host time of every pass of `work` so far, in seconds.
    pub fn passes(&self, work: Work) -> Vec<f64> {
        self.passes.iter().map(|p| p[work as usize]).collect()
    }
}
