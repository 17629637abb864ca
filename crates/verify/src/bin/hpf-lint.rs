//! `hpf-lint` — run the static schedule verifier over example programs.
//!
//! ```text
//! hpf-lint                     verify every built-in scenario
//! hpf-lint quickstart ...      verify the named scenarios
//! hpf-lint prog.hpf ...        elaborate + lower a source file, verify its plans
//! hpf-lint --np 8 prog.hpf     ... over 8 abstract processors
//! hpf-lint --list              list scenario names
//! ```
//!
//! Source files go through the whole frontend pipeline: the recovering
//! elaborator and the lowerer accumulate every diagnostic (rendered
//! against the source), and only a clean program's compiled plans reach
//! the verifier.
//!
//! Each unit prints one line per statement plan and one for the timestep
//! plan that executes them (the fused messages actually packed and sent).
//!
//! Exit status: 0 when every verified plan is clean (an expected
//! replicated-divergence verdict is reported as a note, not a failure),
//! 1 when any statement or timestep plan carries a diagnostic or a source
//! fails to lower, 2 on usage errors.

use hpf_frontend::{render_diagnostics, Elaborator, Lowerer};
use hpf_verify::scenarios::{self, Scenario};
use hpf_verify::{AnalysisVerdict, VerifyReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for s in scenarios::all() {
            println!("{:<22} {}", s.name, s.summary);
        }
        return ExitCode::SUCCESS;
    }

    // Split the arguments: `.hpf` paths are source files for the pipeline,
    // everything else names a built-in scenario. `--np` applies to files.
    let mut np = 4usize;
    let mut files: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--np" {
            np = match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => v,
                None => {
                    usage();
                    return ExitCode::from(2);
                }
            };
        } else if a.ends_with(".hpf") {
            files.push(a);
        } else {
            names.push(a);
        }
    }

    let picked: Vec<Scenario> = if names.is_empty() && !files.is_empty() {
        Vec::new()
    } else if names.is_empty() {
        scenarios::all()
    } else {
        let mut picked = Vec::with_capacity(names.len());
        for name in &names {
            match scenarios::by_name(name) {
                Some(s) => picked.push(s),
                None => {
                    eprintln!("hpf-lint: unknown scenario `{name}`");
                    usage();
                    return ExitCode::from(2);
                }
            }
        }
        picked
    };

    let mut tally = Tally::default();

    for scenario in &picked {
        println!("== {} — {}", scenario.name, scenario.summary);
        match (scenario.build)().verify_all() {
            Ok(report) => tally.print(&report),
            Err(e) => {
                eprintln!("hpf-lint: {}: planning failed: {e}", scenario.name);
                return ExitCode::from(2);
            }
        }
    }

    for file in &files {
        println!("== {file} — lowered over {np} abstract processors");
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("hpf-lint: cannot read {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let (elab, mut diags) = Elaborator::new(np).run_recover(&src);
        let (mut lowered, lower_diags) = Lowerer::lower(&elab);
        diags.extend(lower_diags);
        if !diags.is_empty() {
            eprint!("{}", render_diagnostics(&src, &diags));
            tally.findings += diags.len();
            continue;
        }
        match lowered.program.verify_all() {
            Ok(report) => tally.print(&report),
            Err(e) => {
                eprintln!("hpf-lint: {file}: planning failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let Tally { findings, statements, units } = tally;
    if findings == 0 {
        println!(
            "hpf-lint: {statements} statement plan(s) and {units} timestep plan(s) \
             across {units} unit(s): all five properties hold"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("hpf-lint: {findings} finding(s) — plans are NOT proven safe");
        ExitCode::FAILURE
    }
}

/// What the verified units add up to, for the closing summary line.
#[derive(Default)]
struct Tally {
    findings: usize,
    statements: usize,
    units: usize,
}

impl Tally {
    /// Print one unit's report — every statement plan, then the timestep
    /// plan that executes them — and count it.
    fn print(&mut self, report: &VerifyReport) {
        for stmt in &report.statements {
            print!("{stmt}");
            if stmt.verdict == AnalysisVerdict::ReplicatedDivergence {
                println!(
                    "   note: replicated operand — analysis totals legitimately \
                     diverge (every replica computes locally)"
                );
            }
        }
        println!("{}", report.timestep);
        self.statements += report.statements.len();
        self.units += 1;
        self.findings += report.finding_count();
    }
}

fn usage() {
    eprintln!(
        "usage: hpf-lint [--list] [--np N] [scenario | file.hpf ...]\n\
         verifies compiled plans for built-in scenarios and/or lowered .hpf\n\
         source files; with no names, all built-in scenarios"
    );
}
