//! The `repro` command line: exit 0 when every claim holds, 2 for an
//! unknown table, and a reader closing the pipe early is no error.

use std::process::{Command, Stdio};

fn repro(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    cmd
}

#[test]
fn named_tables_print_their_claims_and_exit_zero() {
    let out = repro(&["e3", "E9"]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.starts_with("E3 — ") && text.contains("\nE9 — "), "{text}");
    assert!(!text.contains("\nE4 — "), "only the named tables: {text}");
    assert_eq!(text.matches("  ✓ ").count(), 6, "{text}");
    assert!(!text.contains('✗'), "{text}");
}

#[test]
fn an_unknown_table_exits_two_before_anything_runs() {
    let out = repro(&["e9", "e11"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown table `e11`"));
    assert!(out.stdout.is_empty());
}

#[test]
fn a_closed_pipe_is_not_an_error() {
    let mut child = repro(&["e9"]).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
}
