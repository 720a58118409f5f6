//! The `psvd` binary against a stdout nobody reads: it must stop quietly,
//! not panic.

use std::process::{Command, Stdio};

#[test]
fn help_into_a_closed_pipe_stops_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_psvd"))
        .arg("help")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn psvd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "exit 101, stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
