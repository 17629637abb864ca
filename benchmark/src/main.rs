//! `hpfbench` — the repository's benchmark: `.hpf` source text in,
//! digest out, measured end to end and layer by layer.
//!
//! ```text
//! hpfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object (the driver's contract). An untraced run
//!     spreads its repetitions over three child processes.
//! hpfbench [--seed N] [--seconds S]
//!     the full set: every workload untraced, then traced, each in its
//!     own child process; writes report-seed<N>.json
//! hpfbench --selfcheck [--seed N] [--seconds S]
//!     the full set twice; fails if the two disagree beyond the bounds
//! hpfbench --calibrate RUNS [--seconds S]
//!     every workload untraced on seeds 1..=RUNS; prints each end-to-end
//!     metric's quartile spread beside its bound
//! ```
//!
//! See `README.md` in this directory for the metrics, the workloads and
//! the list of functions the harness is allowed to call.

mod gen;
mod host;
mod json;
mod metrics;
mod pipeline;
mod reference;
mod rng;
mod run;
mod stats;
mod trace;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::{Outcome, Settings};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    calibrate: Option<u64>,
    /// Set on the shard processes an untraced run spawns (not for users).
    shard: Option<usize>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hpfbench [--workload {}] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20               [--selfcheck | --calibrate RUNS]\n\
         \n\
         --workload   run one workload and end with a one-line JSON result;\n\
         \x20            without it, run the full set (untraced, then traced) in child processes\n\
         --seed       generates the inputs (default 1); same seed, same bytes\n\
         --seconds    keep repeating the trip until this much time is measured (default 0:\n\
         \x20            the workload's minimum repetitions)\n\
         --trace      1 = the traced, per-layer run; 0 = the untraced, end-to-end run\n\
         --selfcheck  run the full set twice and compare against the bounds\n\
         --calibrate  run every workload untraced on seeds 1..=RUNS and print each end-to-end\n\
         \x20            metric's quartile spread (as a share of its median) beside its bound",
        gen::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        selfcheck: false,
        calibrate: None,
        shard: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = Some(it.next()?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                args.seconds = it
                    .next()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)?
            }
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--calibrate" => args.calibrate = Some(it.next()?.parse().ok().filter(|n| *n >= 2)?),
            "--shard" => args.shard = Some(it.next()?.parse().ok().filter(|k| *k < SHARDS)?),
            _ => return None,
        }
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.selfcheck)
        + usize::from(args.calibrate.is_some());
    if modes > 1
        || args
            .workload
            .as_ref()
            .is_some_and(|w| !gen::WORKLOADS.contains(&w.as_str()))
        || (args.shard.is_some() && (args.workload.is_none() || args.trace))
    {
        return None;
    }
    Some(args)
}

/// `<target>/hpfbench`, beside the directory this executable was built
/// into — inside the checkout whichever target directory is in use.
fn directories() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("this executable is not inside a cargo target directory")?
        .to_path_buf();
    let out = target.join("hpfbench");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    Ok((target, out))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `"name": {"value": v, "unit": "u"}`.
fn metric_cell(name: &str, value: f64) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::quote(name),
        json::number(value),
        json::quote(unit_of(name))
    )
}

/// The driver's result line.
fn result_line(outcome: &Outcome, names: &[&'static str]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|name| metric_cell(name, outcome.metrics.get(name).copied().unwrap_or(f64::NAN)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0
            && names
                .iter()
                .all(|n| outcome.metrics.get(n).is_some_and(|v| v.is_finite())),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Processes an untraced run is spread over. How fast these memory-bound
/// programs run moves by several percent from process to process (where
/// the pages land is drawn once per process and kept), so an end-to-end
/// metric is the median over independent processes, not one draw.
const SHARDS: usize = 3;

/// An untraced run: `SHARDS` child processes, each making its share of
/// the repetitions; every metric is the median of theirs.
fn run_sharded(args: &Args, workload: &str) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for shard in 0..SHARDS {
        let result = child(args, args.seed, workload, false, Some(shard))?;
        outcome.attempted += result.attempted;
        outcome.failed += result.failed;
        for m in END_TO_END {
            values
                .entry(m.name)
                .or_default()
                .push(result.metric(m.name));
        }
    }
    for (name, v) in values {
        outcome.metrics.insert(name, stats::median(&v));
    }
    outcome.notes.push(format!(
        "each metric is the median over {SHARDS} shard processes"
    ));
    Ok(outcome)
}

/// One workload: the traced run or one shard in this process, an
/// untraced run through its shard processes.
fn run_one(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let (target, out_dir) = directories()?;
    let hpfrun = run::ensure_hpfrun(&target)?;
    let plan = run::plan(workload).ok_or("unknown workload")?;
    let settings = Settings {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        min_reps: plan.min_reps.div_ceil(SHARDS),
        out_dir,
        hpfrun,
    };
    let started = Instant::now();
    let (outcome, names): (Outcome, Vec<&'static str>) = if args.trace {
        (
            run::run_traced(&settings)?,
            PER_LAYER.iter().map(|m| m.name).collect(),
        )
    } else {
        let outcome = match args.shard {
            Some(_) => run::run_untraced(&settings)?,
            None => run_sharded(args, workload)?,
        };
        (outcome, END_TO_END.iter().map(|m| m.name).collect())
    };
    let kind = match (args.trace, args.shard) {
        (true, _) => "traced".to_string(),
        (false, Some(k)) => format!("untraced, shard {k}"),
        (false, None) => "untraced".to_string(),
    };
    println!("== {workload} ({kind}, seed {}) ==", args.seed);
    for name in &names {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("{workload:<10} {name:<38} {value:>16.6} {}", unit_of(name));
    }
    println!(
        "{workload:<10} {:<38} {:>16} count",
        "failed_ops", outcome.failed
    );
    println!(
        "{workload:<10} {:<38} {:>16} count",
        "ops_attempted", outcome.attempted
    );
    for note in &outcome.notes {
        println!("   {note}");
    }
    println!("   wall {:.1} s", started.elapsed().as_secs_f64());
    println!("{}", result_line(&outcome, &names));
    Ok(ExitCode::SUCCESS)
}

/// Metrics of one full set: `[workload][metric]`.
type Set = BTreeMap<String, BTreeMap<String, f64>>;

/// A child's result line.
struct ChildResult {
    attempted: u64,
    /// At least 1 when the child did not report `"correct": true`.
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl ChildResult {
    fn parse(line: &str) -> Result<Self, String> {
        let doc = Json::parse(line)?;
        let count = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let Some(Json::Obj(cells)) = doc.get("metrics") else {
            return Err("no metrics".into());
        };
        let metrics = cells
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                (name.clone(), value)
            })
            .collect();
        let correct = doc.get("correct") == Some(&Json::Bool(true));
        Ok(ChildResult {
            attempted: count("attempted"),
            failed: count("failed").max(u64::from(!correct)),
            metrics,
        })
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Run one child (`--workload W --trace T`, or one shard of it with its
/// share of `--seconds`), echo what it printed and return its parsed
/// result line.
fn child(
    args: &Args,
    seed: u64,
    workload: &str,
    trace: bool,
    shard: Option<usize>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    match shard {
        Some(k) => command
            .args(["--seconds", &(args.seconds / SHARDS as f64).to_string()])
            .args(["--shard", &k.to_string()]),
        None => command.args(["--seconds", &args.seconds.to_string()]),
    };
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "the {workload} child exited with {}",
            output.status
        ));
    }
    ChildResult::parse(last)
        .map_err(|e| format!("the {workload} child's result line does not parse: {e}"))
}

/// Every workload untraced, then every workload traced. Returns the
/// metrics and the number of failed operations.
fn full_set(args: &Args) -> Result<(Set, u64), String> {
    let mut set = Set::new();
    let mut failed = 0u64;
    for trace in [false, true] {
        for workload in gen::WORKLOADS {
            let started = Instant::now();
            let result = child(args, args.seed, workload, trace, None)?;
            let wall = started.elapsed().as_secs_f64();
            if wall > 30.0 {
                println!(
                    "warning: {workload} took {wall:.1} s (over the 30 s this benchmark aims for)"
                );
            }
            failed += result.failed;
            set.entry(workload.to_string())
                .or_default()
                .extend(result.metrics);
        }
    }
    Ok((set, failed))
}

fn write_report(
    path: &Path,
    args: &Args,
    host: &host::Fingerprint,
    set: &Set,
    failed: u64,
    wall_s: f64,
) -> Result<(), String> {
    let mut rows = Vec::new();
    for (workload, metrics) in set {
        let cells: Vec<String> = metrics
            .iter()
            .map(|(name, v)| metric_cell(name, *v))
            .collect();
        rows.push(format!(
            "    {}: {{{}}}",
            json::quote(workload),
            cells.join(", ")
        ));
    }
    let text = format!(
        "{{\n  \"benchmark\": \"hpfbench\",\n  \"claim\": null,\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"failed_ops\": {failed},\n  \"wall_s\": {},\n  \"host\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        json::number(args.seconds),
        json::number(wall_s),
        host.to_json(),
        rows.join(",\n")
    );
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_full(args: &Args) -> Result<ExitCode, String> {
    let (_, out_dir) = directories()?;
    let host = host::Fingerprint::collect();
    host.print();
    println!(
        "seed {} | claim: none (this benchmark defines the ledger, it asserts no gain)",
        args.seed
    );
    let started = Instant::now();
    let (set, failed) = full_set(args)?;
    let wall_s = started.elapsed().as_secs_f64();
    let report = out_dir.join(format!("report-seed{}.json", args.seed));
    write_report(&report, args, &host, &set, failed, wall_s)?;
    println!(
        "full set: {wall_s:.1} s wall, failed_ops {failed}, report {}",
        report.display()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two full sets back to back must agree: every end-to-end metric within
/// its bound (in its worse direction), every exact count identical.
fn run_selfcheck(args: &Args) -> Result<ExitCode, String> {
    host::Fingerprint::collect().print();
    let (first, failed_first) = full_set(args)?;
    let (second, failed_second) = full_set(args)?;
    let mut problems = Vec::new();
    if failed_first + failed_second > 0 {
        problems.push(format!(
            "{} operation(s) failed",
            failed_first + failed_second
        ));
    }
    println!("== selfcheck: second full set against the first ==");
    for workload in gen::WORKLOADS {
        let (a, b) = (&first[workload], &second[workload]);
        for m in END_TO_END {
            let (x, y) = (a[m.name], b[m.name]);
            let worse = if m.better == "lower" {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let ok = worse.abs() <= m.bound;
            println!(
                "{workload:<10} {:<38} {x:>14.6} {y:>14.6} {:>+7.2} % (bound {:.0} %) {}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
            if !ok {
                problems.push(format!(
                    "{workload} {} moved {:+.2} %",
                    m.name,
                    worse * 100.0
                ));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (a[m.name], b[m.name]);
            if x.to_bits() != y.to_bits() {
                println!(
                    "{workload:<10} {:<38} {x:>14} {y:>14} COUNT DIFFERS",
                    m.name
                );
                problems.push(format!("{workload} {} is {x} then {y}", m.name));
            }
        }
    }
    if problems.is_empty() {
        println!(
            "selfcheck passed: all end-to-end metrics within their bounds, all counts identical"
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            println!("selfcheck: {p}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// The builder's calibration: every workload untraced on `runs` seeds;
/// for each end-to-end metric the distance between the first and third
/// quartile as a share of the median, beside the bound it must stay
/// under (a third of the bound is the target).
fn run_calibrate(args: &Args, runs: u64) -> Result<ExitCode, String> {
    host::Fingerprint::collect().print();
    let mut wide = 0;
    let mut table = Vec::new();
    for workload in gen::WORKLOADS {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in 1..=runs {
            let result = child(args, seed, workload, false, None)?;
            if result.failed > 0 {
                return Err(format!(
                    "{workload} seed {seed} did not produce a correct result"
                ));
            }
            for m in END_TO_END {
                values
                    .entry(m.name)
                    .or_default()
                    .push(result.metric(m.name));
            }
        }
        for m in END_TO_END {
            let v = &values[m.name];
            let spread = stats::quartile_spread(v);
            let verdict = if spread <= m.bound / 3.0 {
                "ok"
            } else if spread <= m.bound || m.name == "setup_s" {
                "above a third of the bound"
            } else {
                wide += 1;
                "WIDER THAN THE BOUND"
            };
            table.push(format!(
                "{workload:<10} {:<20} median {:>14.6} {:<6} spread {:>6.2} %  bound {:>4.0} %  {verdict}",
                m.name,
                stats::median(v),
                m.unit,
                spread * 100.0,
                m.bound * 100.0
            ));
        }
    }
    println!("== calibration over seeds 1..={runs} ==");
    for line in table {
        println!("{line}");
    }
    Ok(if wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let result = match (&args.workload, args.selfcheck, args.calibrate) {
        (Some(w), _, _) => run_one(&args, w),
        (None, true, _) => run_selfcheck(&args),
        (None, false, Some(runs)) => run_calibrate(&args, runs),
        (None, false, None) => run_full(&args),
    };
    result.unwrap_or_else(|why| {
        eprintln!("hpfbench: {why}");
        ExitCode::FAILURE
    })
}
