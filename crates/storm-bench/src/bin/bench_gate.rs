//! Bench-regression gate: compare a freshly produced `BENCH_simcore.json`
//! against a committed baseline and fail (exit 1) when simulator-core
//! throughput regresses.
//!
//! Usage: `bench_gate <baseline.json> <current.json>`
//!
//! For every `(nodes, group_delivery)` row present in both files the gate
//! compares `events_per_sec`; the pass bar is applied at the **largest
//! common node count** (4096 on a full run, 256 under
//! `STORM_BENCH_SMOKE=1`), where per-event cost dominates and wall-clock
//! noise is smallest relative to the run length. A row fails when current
//! throughput drops more than the tolerance below baseline
//! (`STORM_BENCH_GATE_TOLERANCE`, default `0.15`). Smaller rows are
//! reported but advisory — sub-second runs on shared CI runners are too
//! noisy to gate on.
//!
//! The artifacts are the hand-rolled JSON the benches emit (the repo
//! vendors no serde); they are read with the workspace's own JSON parser,
//! and only the members of `rows` are rows. A malformed file is reported
//! as an error, not a panic.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use storm_core::telemetry::json::{self, Value};

/// One parsed throughput row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    nodes: u64,
    group: bool,
    events_per_sec: f64,
}

impl Row {
    fn from_json(v: &Value) -> Result<Row, String> {
        let events_per_sec = match v.req("events_per_sec")? {
            Value::Num(tok) => tok.parse().map_err(|e| format!("events_per_sec: {e}"))?,
            _ => return Err("member \"events_per_sec\" is not a number".into()),
        };
        Ok(Row {
            nodes: v.req_u64("nodes")?,
            group: match v.req("group_delivery")? {
                Value::Bool(b) => *b,
                _ => return Err("member \"group_delivery\" is not a boolean".into()),
            },
            events_per_sec,
        })
    }
}

/// The `rows` of a `BENCH_simcore.json` document; every other member is
/// ignored.
fn parse_rows(contents: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(contents)?;
    let rows = doc
        .req("rows")?
        .as_arr()
        .ok_or("member \"rows\" is not an array")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| Row::from_json(row).map_err(|e| format!("rows[{i}]: {e}")))
        .collect()
}

fn load_rows(path: &str) -> Result<Vec<Row>, String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let rows = parse_rows(&contents).map_err(|e| format!("{path}: {e}"))?;
    if rows.is_empty() {
        return Err(format!("no throughput rows in {path}"));
    }
    Ok(rows)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_gate <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    }
    let tolerance: f64 = std::env::var("STORM_BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.15);
    let loaded = load_rows(&args[1]).and_then(|b| Ok((b, load_rows(&args[2])?)));
    let (baseline, current) = match loaded {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    let Some(gate_nodes) = baseline
        .iter()
        .filter(|b| current.iter().any(|c| c.nodes == b.nodes))
        .map(|b| b.nodes)
        .max()
    else {
        eprintln!("bench_gate: no common node count between baseline and current");
        return ExitCode::FAILURE;
    };

    println!(
        "bench_gate: tolerance {:.0}% | gating at {} nodes",
        tolerance * 100.0,
        gate_nodes
    );
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>8}  verdict",
        "nodes", "mode", "baseline ev/s", "current ev/s", "ratio"
    );
    let mut failed = false;
    for b in &baseline {
        let Some(c) = current
            .iter()
            .find(|c| c.nodes == b.nodes && c.group == b.group)
        else {
            continue;
        };
        let ratio = c.events_per_sec / b.events_per_sec;
        let gated = b.nodes == gate_nodes;
        let ok = ratio >= 1.0 - tolerance;
        let verdict = match (gated, ok) {
            (true, true) => "ok",
            (true, false) => {
                failed = true;
                "REGRESSION"
            }
            (false, true) => "ok (advisory)",
            (false, false) => "slow (advisory)",
        };
        println!(
            "{:>6} {:>8} {:>14.0} {:>14.0} {:>7.2}x  {}",
            b.nodes,
            if b.group { "group" } else { "unicast" },
            b.events_per_sec,
            c.events_per_sec,
            ratio,
            verdict
        );
    }
    if failed {
        println!("bench_gate: FAIL — events/sec regressed beyond tolerance");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: pass");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "simcore",
  "rows": [
    {"nodes": 64, "group_delivery": false, "events_per_sec": 1000000.0, "events_per_timeslice": 9.1},
    {"nodes": 64, "group_delivery": true, "events_per_sec": 2000000.0, "events_per_timeslice": 4.2},
    {"nodes": 4096, "group_delivery": false, "events_per_sec": 4235481.0, "events_per_timeslice": 700.0}
  ]
}"#;

    #[test]
    fn rows_parse_from_the_bench_artifact_shape() {
        let rows = parse_rows(SAMPLE).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            Row {
                nodes: 64,
                group: false,
                events_per_sec: 1_000_000.0
            }
        );
        assert!(rows[1].group);
        assert_eq!(rows[2].nodes, 4096);
        assert!((rows[2].events_per_sec - 4_235_481.0).abs() < 1e-9);
    }

    #[test]
    fn non_row_members_are_ignored() {
        assert!(
            parse_rows("{\n  \"bench\": \"simcore\",\n  \"rows\": []\n}")
                .unwrap()
                .is_empty()
        );
        // `parallel_engine` carries `nodes` too; only `rows` are rows.
        let with_engine = SAMPLE.replace(
            "\"bench\": \"simcore\",",
            "\"bench\": \"simcore\",\n  \"parallel_engine\": {\"nodes\": 256, \"threads\": 4},",
        );
        assert_eq!(
            parse_rows(&with_engine).unwrap(),
            parse_rows(SAMPLE).unwrap()
        );
    }

    #[test]
    fn malformed_artifacts_are_errors() {
        assert!(parse_rows("{\"rows\": [").is_err());
        assert!(parse_rows("{\"bench\": \"simcore\"}").is_err());
        let err = parse_rows("{\"rows\": [{\"nodes\": 64, \"group_delivery\": 1}]}").unwrap_err();
        assert!(err.starts_with("rows[0]:"), "got: {err}");
    }
}
