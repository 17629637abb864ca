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
