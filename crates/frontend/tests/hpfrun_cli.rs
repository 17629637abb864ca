//! The `hpfrun` command line: what `--verify` prints and the exit status
//! contract — 0 clean, 1 on source diagnostics or plan findings, 2 on
//! usage errors (refused before anything runs).

use std::process::{Command, Output};

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
