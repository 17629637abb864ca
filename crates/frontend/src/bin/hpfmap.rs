//! `hpfmap` — a mapping inspector for the directive sub-language.
//!
//! Reads a Fortran-with-`!HPF$`-directives source file, elaborates it, and
//! prints the elaboration narrative, the final descriptors, and (on
//! request) per-array owner maps and ownership histograms.
//!
//! ```text
//! hpfmap PROGRAM.f [--np N] [--set NAME=VALUE]... [--owners ARRAY[:COUNT]]
//! ```
//!
//! Example:
//! ```text
//! cargo run -p hpf-frontend --bin hpfmap -- program.f --np 8 --set N=64 --owners A:16
//! ```

use hpf_core::inquiry;
use hpf_frontend::{Elaborator, ToolOutput};
use std::process::ExitCode;

struct Args {
    file: String,
    np: usize,
    sets: Vec<(String, i64)>,
    owners: Vec<(String, usize)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: hpfmap FILE [--np N] [--set NAME=VALUE]... [--owners ARRAY[:COUNT]]...\n\
         \n\
         elaborates the !HPF$ directives in FILE over N abstract processors\n\
         (default 4) and prints the resulting data mapping.\n\
         --set provides PARAMETER/READ inputs; --owners prints the first\n\
         COUNT (default 16) owner entries of an array."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { file: String::new(), np: 4, sets: Vec::new(), owners: Vec::new() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--np" => {
                args.np = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if args.np == 0 {
                    eprintln!("hpfmap: --np must be at least 1");
                    usage();
                }
            }
            "--set" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                let v: i64 = v.parse().unwrap_or_else(|_| usage());
                args.sets.push((k.to_string(), v));
            }
            "--owners" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (name, count) = match spec.split_once(':') {
                    Some((n, c)) => (n.to_string(), c.parse().unwrap_or(16)),
                    None => (spec, 16),
                };
                args.owners.push((name, count));
            }
            "--help" | "-h" => usage(),
            f if args.file.is_empty() && !f.starts_with('-') => args.file = f.to_string(),
            _ => usage(),
        }
    }
    if args.file.is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let out = ToolOutput("hpfmap");
    let args = parse_args();
    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hpfmap: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let mut elab = Elaborator::new(args.np);
    for (k, v) in &args.sets {
        elab = elab.with_input(k, *v);
    }
    let result = match elab.run(&src) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hpfmap: {e}");
            return ExitCode::FAILURE;
        }
    };

    writeln!(out, "— elaboration ({} abstract processors) —", args.np);
    write!(out, "{}", result.report);

    writeln!(out, "\n— final mapping descriptors —");
    for id in result.space.all_arrays() {
        write!(out, "  {}", inquiry::describe(&result.space, id));
        if let Some(axes) = inquiry::align_descriptor(&result.space, id) {
            let rendered: Vec<String> = axes.iter().map(|a| a.to_string()).collect();
            write!(out, "  α=({})", rendered.join(", "));
        }
        writeln!(out);
    }

    for (name, count) in &args.owners {
        let Some(id) = result.array(name) else {
            eprintln!("hpfmap: no array `{name}`");
            return ExitCode::FAILURE;
        };
        let Some(dom) = result.space.domain(id).cloned() else {
            eprintln!("hpfmap: `{name}` is not allocated");
            return ExitCode::FAILURE;
        };
        writeln!(out, "\n— owners of {name}{dom} (first {count}) —");
        for (k, i) in dom.iter().enumerate() {
            if k >= *count {
                break;
            }
            match result.space.owners(id, &i) {
                Ok(o) => writeln!(out, "  {name}{i} → {o}"),
                Err(e) => {
                    eprintln!("hpfmap: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Ok(hist) = inquiry::ownership_histogram(&result.space, id) {
            let counts: Vec<String> =
                hist.iter().map(|(p, n)| format!("{p}:{n}")).collect();
            writeln!(out, "  histogram: {}", counts.join(" "));
        }
    }
    ExitCode::SUCCESS
}
