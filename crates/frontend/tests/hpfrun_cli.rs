//! The `hpfrun` command line: what `--verify` prints and the exit status
//! contract — 0 clean, 1 on source diagnostics or plan findings, 2 on
//! usage errors (refused before anything runs) — and, for `hpfrun` and
//! `hpfmap` alike, that a reader closing the pipe early is no error.

use std::process::{Command, Output, Stdio};

fn program(name: &str) -> String {
    format!("{}/../../examples/programs/{name}.hpf", env!("CARGO_MANIFEST_DIR"))
}

fn hpfrun(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpfrun")).args(args).output().expect("hpfrun runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn verify_without_steps_prints_every_plan_and_exits_zero() {
    let out = hpfrun(&[&program("war_hoist"), "--verify", "--steps", "0"]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "{text}{}", stderr(&out));
    let statement_lines = text.lines().filter(|l| l.starts_with('#')).count();
    assert_eq!(statement_lines, 3, "one line per statement plan:\n{text}");
    let timestep_lines = text.lines().filter(|l| l.starts_with("timestep plan [")).count();
    assert_eq!(timestep_lines, 1, "{text}");
    assert!(text.contains("verified: 3 statement plan(s) and the timestep plan ("), "{text}");
    assert!(text.contains("verified: 0 timestep(s)"), "{text}");
}

#[test]
fn source_diagnostics_exit_one() {
    let path = format!("{}/hpfrun_cli_bad.hpf", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, "      PROGRAM BAD\n      REAL A(4\n      END\n").unwrap();
    let out = hpfrun(&[&path, "--verify", "--steps", "0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("-->"), "rendered with a span: {}", stderr(&out));
}

#[test]
fn usage_errors_exit_two_before_anything_runs() {
    let relaxation = program("relaxation");
    for (args, says) in [
        (vec!["--np", "0"], "--np must be at least 1"),
        (vec!["--bogus"], "usage: hpfrun"),
        // 2^32 + 2 used to wrap to rank 2 and kill the wrong worker
        (vec!["--inject", "kill:rank=4294967298,step=1"], "kill:rank=4294967298,step=1"),
        // rank 9 of 4 used to be armed, never fire, and exit 0
        (vec!["--inject", "kill:rank=9,step=1"], "kill rank 9 at step 1"),
        (vec!["--inject", "drop:from=0,to=4,step=1"], "drop 0→4 at step 1"),
    ] {
        let mut argv = vec![relaxation.as_str(), "--backend", "channels"];
        argv.extend(args.iter().copied());
        let out = hpfrun(&argv);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
    }
}

#[test]
fn a_fault_report_counts_ranks_as_inject_does() {
    let out = hpfrun(&[
        &program("relaxation"),
        "--backend",
        "channels",
        "--steps",
        "4",
        "--inject",
        "kill:rank=1,step=2",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{}{err}", stdout(&out));
    assert!(err.contains("SPMD worker rank 1 died mid-superstep (superstep 2)"), "{err}");
}

#[test]
fn integer_overflow_is_a_located_diagnostic() {
    let path = format!("{}/hpfrun_cli_overflow.hpf", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &path,
        "      PROGRAM OVF\n      REAL A(4)\n!HPF$ DISTRIBUTE A(BLOCK)\n      \
         FORALL (I = 1:4) A(I) = I * 9223372036854775807\n      END\n",
    )
    .unwrap();
    let out = hpfrun(&[&path]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{}{err}", stdout(&out));
    assert!(err.contains("integer overflow"), "{err}");
    assert!(err.contains("--> 4:"), "names the FORALL's line: {err}");
    assert!(!stdout(&out).contains("sum"), "nothing ran: {}", stdout(&out));
}

/// Spawn `exe`, close the read end of its stdout before it writes, and
/// return its exit code and stderr.
fn run_with_closed_stdout(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tool runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("tool exits");
    (out.status.code(), stderr(&out))
}

#[test]
fn a_closed_pipe_is_not_an_error() {
    let tour = program("directive_tour");
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_hpfrun"), vec![tour.as_str(), "--np", "8", "--verify", "--steps", "0"]),
        (env!("CARGO_BIN_EXE_hpfrun"), vec![tour.as_str(), "--np", "8", "--steps", "2", "--stats"]),
        (env!("CARGO_BIN_EXE_hpfmap"), vec![tour.as_str(), "--np", "8", "--owners", "A"]),
    ] {
        let (code, err) = run_with_closed_stdout(exe, &args);
        assert_eq!(code, Some(0), "{exe} {args:?}: the unpiped status; stderr: {err}");
        assert!(err.is_empty(), "{exe} {args:?} said: {err}");
    }
}

/// Write `text` to a scratch `.hpf` file named after `tag`.
fn source(tag: &str, text: &str) -> String {
    let path = format!("{}/hpfrun_cli_{tag}.hpf", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, text).unwrap();
    path
}

/// `hpfrun` refused the source: exit 1, a diagnostic at `line` saying
/// `says`, and no timestep ran.
fn assert_refused(out: &Output, line: usize, says: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(1), "{}{err}", stdout(out));
    assert!(err.contains(&format!("--> {line}:")), "names line {line}: {err}");
    assert!(err.contains(says), "{err}");
    assert!(!stdout(out).contains("sum"), "nothing ran: {}", stdout(out));
}

/// Run `hpfrun` on `args`, failing the test if it has not exited within
/// `limit`.
fn hpfrun_within(args: &[&str], limit: std::time::Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpfrun"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hpfrun runs");
    let start = std::time::Instant::now();
    while child.try_wait().expect("hpfrun status").is_none() {
        if start.elapsed() > limit {
            child.kill().expect("kill hpfrun");
            let _ = child.wait();
            panic!("hpfrun {args:?} still running after {limit:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().expect("hpfrun exits")
}

#[test]
fn a_statement_in_a_called_subroutine_body_is_refused() {
    let path = source(
        "call_body",
        "      PROGRAM CALLS\n      REAL A(16), B(16)\n!HPF$ PROCESSORS P(4)\n\
         !HPF$ DISTRIBUTE (BLOCK) TO P :: A, B\n      FORALL (I = 1:16) A(I) = I\n\
         \x20     CALL SUB(A)\n      B(2:16) = A(1:15)\n      END\n\n\
         \x20     SUBROUTINE SUB(X)\n      REAL X(16)\n!HPF$ DISTRIBUTE X(CYCLIC)\n\
         \x20     X(2:16) = X(1:15)\n      END\n",
    );
    let out = hpfrun(&[&path, "--verify"]);
    assert_refused(&out, 13, "body of SUBROUTINE SUB");
}

#[test]
fn a_remap_after_an_assignment_is_refused() {
    let path = source(
        "late_remap",
        "      PROGRAM REMAP\n      PARAMETER (N = 32)\n      REAL X(N), Y(N)\n\
         !HPF$ PROCESSORS P(4)\n!HPF$ DYNAMIC X\n!HPF$ DISTRIBUTE X(BLOCK) TO P\n\
         !HPF$ DISTRIBUTE Y(BLOCK) TO P\n      FORALL (I = 1:N) X(I) = I\n\
         \x20     Y(2:N) = X(1:N-1)\n!HPF$ REDISTRIBUTE X(CYCLIC) TO P\n\
         \x20     X(2:N) = Y(1:N-1)\n      END\n",
    );
    let out = hpfrun(&[&path, "--verify"]);
    assert_refused(&out, 10, "remap after an array assignment");
}

const HUGE: &str = "      PROGRAM HUGE\n      REAL A(4000000000000000000)\n\
                    !HPF$ DISTRIBUTE A(BLOCK)\n      END\n";

#[test]
fn a_declaration_too_large_to_address_is_a_located_diagnostic() {
    let out = hpfrun(&[&source("huge", HUGE)]);
    assert_refused(&out, 2, "capacity exceeded");
}

#[test]
fn a_fill_of_a_huge_array_is_refused_before_it_is_evaluated() {
    let path = source("huge_fill", &HUGE.replace("      END", "      A = 1\n      END"));
    let out = hpfrun_within(&[&path], std::time::Duration::from_secs(10));
    assert_refused(&out, 2, "capacity exceeded");
}

#[test]
fn storage_the_allocator_refuses_is_a_located_diagnostic() {
    let path = source(
        "big",
        "      PROGRAM BIG\n      REAL A(400000000000)\n!HPF$ DISTRIBUTE A(BLOCK)\n\
         \x20     A(1:2) = 1\n      END\n",
    );
    // a 4 GB address-space limit on this one process: 3.2 TB of storage
    // cannot be granted
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$1\""])
        .args([env!("CARGO_BIN_EXE_hpfrun"), &path])
        .output()
        .expect("sh runs");
    assert_refused(&out, 2, "memory allocation failed");
}
