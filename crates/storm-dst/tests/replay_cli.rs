//! `storm-dst replay` on hostile artifacts: input nested deeper than the
//! JSON parser's depth limit is reported as unreadable (exit 11), never a
//! stack-overflow abort.

use std::process::Command;

fn replay_exit_code(name: &str, text: &str) -> Option<i32> {
    let path = std::env::temp_dir().join(format!("storm_dst_{}_{name}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_storm-dst"))
        .arg("replay")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    out.status.code()
}

#[test]
fn replay_of_deeply_nested_artifact_exits_unreadable() {
    assert_eq!(
        replay_exit_code("deep_array", &"[".repeat(1 << 20)),
        Some(11)
    );
    let deep_checkpoint = format!(
        "{{\"version\": 1, \"kind\": \"storm-checkpoint\", \"engine\": {}",
        "[".repeat(1 << 20)
    );
    assert_eq!(
        replay_exit_code("deep_checkpoint", &deep_checkpoint),
        Some(11)
    );
}
