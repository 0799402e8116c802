//! Exit statuses and messages of the `dmm` binary.

use std::process::{Command, Output};

fn dmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmm"))
        .args(args)
        .output()
        .expect("the dmm binary runs")
}

#[test]
fn a_tripped_budget_fails_the_run_with_a_typed_error() {
    // Every exploration the CLI runs is strict: the first candidate
    // replay over budget ends the run, it is not skipped.
    let out = dmm(&["explore", "drr", "--budget-steps=1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "dmm: candidate budget exceeded: 397 search steps spent against a budget of 1\n"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn a_malformed_budget_is_a_usage_error() {
    let out = dmm(&["explore", "drr", "--budget-steps=oops"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
