//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (outside-in): name, start, end, parent, and —
//! for simulation steps — the deltas of the cluster's public counters.
//! They stay in memory until the run ends, when they are written out as
//! JSON lines and summarised as a "where the time goes" table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Public counters read around a simulation step.
pub const COUNTERS: [&str; 8] = [
    "events",
    "messages",
    "queue_pushed",
    "arena_peak",
    "strobes",
    "fragments",
    "reports",
    "requeues",
];

pub type Counters = [u64; COUNTERS.len()];

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    delta: Option<Counters>,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            delta: None,
        });
        self.stack.push(id);
        // Stamp last, so the bookkeeping above is charged to the parent.
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn set_delta(&mut self, id: usize, delta: Counters) {
        self.spans[id].delta = Some(delta);
    }

    fn secs(s: &Span) -> f64 {
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Durations in seconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::secs)
            .collect()
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Each span's self time: its duration minus its children's.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Self::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= Self::secs(s);
            }
        }
        own
    }

    /// Wall time of the root span (the whole traced run).
    pub fn wall(&self) -> f64 {
        self.spans.first().map(Self::secs).unwrap_or(0.0)
    }

    /// Share of the traced wall covered by the self times of the layer
    /// spans, i.e. every span except the root. The rest is the harness's
    /// own code between spans.
    pub fn coverage(&self) -> f64 {
        let own = self.self_secs();
        own.iter().skip(1).sum::<f64>() / self.wall()
    }

    /// The "where the time goes" table: self time per span name, largest
    /// first, with call counts and the counter deltas of the steps.
    pub fn table(&self) -> String {
        let own = self.self_secs();
        let wall = self.wall();
        let mut rows: BTreeMap<&str, (u64, f64, Counters)> = BTreeMap::new();
        for (s, &t) in self.spans.iter().zip(&own) {
            let row = rows.entry(s.name).or_insert((0, 0.0, [0; COUNTERS.len()]));
            row.0 += 1;
            row.1 += t;
            if let Some(d) = s.delta {
                for (acc, v) in row.2.iter_mut().zip(d) {
                    *acc += v;
                }
            }
        }
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>12} {:>7} {:>12} {:>12}",
            "span (self time)", "calls", "self ms", "share", "events", "messages"
        );
        for (name, (calls, t, d)) in rows {
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>12.3} {:>6.2}% {:>12} {:>12}",
                name,
                calls,
                t * 1e3,
                100.0 * t / wall,
                d[0],
                d[1]
            );
        }
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>12.3} {:>6.2}%",
            "wall",
            1,
            wall * 1e3,
            100.0
        );
        out
    }

    /// Every span as one JSON object per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            );
            if let Some(d) = s.delta {
                for (k, v) in COUNTERS.iter().zip(d) {
                    let _ = write!(out, ",\"{k}\":{v}");
                }
            }
            out.push_str("}\n");
        }
        out
    }
}
