//! Exit statuses of `vcop_run`: 2 for a bad argument, 1 for a request
//! the system rejects, never a panic.

use std::process::{Command, Output};

fn vcop_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcop_run"))
        .args(args)
        .output()
        .expect("vcop_run starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn zero_input_size_is_a_usage_error() {
    let out = vcop_run(&["adpcm", "--size-kb", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--size-kb must be at least 1"));
}

#[test]
fn zero_pipeline_depth_is_a_usage_error() {
    // The IMU runs at least one translation at a time, so depth 0 would
    // print a depth it does not run.
    let out = vcop_run(&["idea", "--pipeline-depth", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--pipeline-depth must be at least 1"));
}

#[test]
fn input_past_user_sdram_fails_with_the_typed_error() {
    // 70 000 KB of codes do not fit the EPXA1's 64 MB of SDRAM.
    let out = vcop_run(&["adpcm", "--size-kb", "70000"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("obj[0] does not fit user SDRAM"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
