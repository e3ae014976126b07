//! Outside-in probes for the layers no public `Cluster` call isolates.
//! Each drives the layer's own public type at the size the workload itself
//! reached, so the number prices that workload's working set.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use storm_core::msg::Msg;
use storm_sim::{DeterministicRng, EventArena, EventQueue, SimSpan, SimTime};

/// Operations timed per probe.
const OPS: u64 = 2_000_000;

/// Mean gap of a re-pushed event: one 1 ms MM quantum, the period most
/// of the simulator's timers run at.
const MEAN_GAP_NS: u64 = 1_000_000;

/// `EventQueue` hold model on the default backend: `pending` events stay
/// queued while each step pops the earliest and pushes it back a random
/// gap later. Returns ns per pop+push pair.
pub fn queue_hold_ns(pending: usize) -> f64 {
    let mut rng = DeterministicRng::new(0x5157_0E0E);
    // Gaps drawn up front so the timed loop measures the queue alone.
    let gaps: Vec<SimSpan> = (0..4096)
        .map(|_| SimSpan::from_nanos(1 + rng.below(2 * MEAN_GAP_NS)))
        .collect();
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pending.max(1) {
        q.push(SimTime::ZERO + gaps[i % gaps.len()], i as u64);
    }
    let start = Instant::now();
    for i in 0..OPS {
        let (at, ev) = q.pop().expect("hold keeps the queue non-empty");
        q.push(at + gaps[i as usize % gaps.len()], black_box(ev));
    }
    start.elapsed().as_nanos() as f64 / OPS as f64
}

/// `EventArena` alloc/take with `live` payloads resident, taken in FIFO
/// order like queued events. Returns ns per single alloc or take.
pub fn arena_ns_per_op(live: usize) -> f64 {
    let mut arena: EventArena<Msg> = EventArena::new();
    let mut ids: VecDeque<_> = (0..live.max(1)).map(|_| arena.alloc(Msg::Tick)).collect();
    let start = Instant::now();
    for _ in 0..OPS {
        let id = ids.pop_front().expect("arena keeps live payloads");
        black_box(arena.take(id));
        ids.push_back(arena.alloc(black_box(Msg::Tick)));
    }
    start.elapsed().as_nanos() as f64 / (2 * OPS) as f64
}
