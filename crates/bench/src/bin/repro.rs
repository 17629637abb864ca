//! `repro` — the paper's tables E1–E10, each with its claims checked.
//!
//! ```text
//! repro [TABLE]...      # e.g. `repro e4 e9`; without a TABLE, all ten
//! ```
//!
//! Every claim is printed under its table with ✓ or ✗. Exit status: 0 when
//! every claim holds, 1 when any fails, 2 for an unknown table.

use hpf_bench::paper::TABLES;
use hpf_frontend::ToolOutput;
use std::process::ExitCode;

fn main() -> ExitCode {
    let out = ToolOutput("repro");
    let named: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    if let Some(a) = named.iter().find(|a| !TABLES.iter().any(|(id, _)| id == a)) {
        eprintln!("repro: unknown table `{a}`\nusage: repro [TABLE]...   (TABLE: e1 … e10)");
        return ExitCode::from(2);
    }
    let mut failed = 0;
    for (_, table) in TABLES.iter().filter(|(id, _)| named.is_empty() || named.iter().any(|a| a == id)) {
        let table = table();
        failed += table.claims.iter().filter(|c| !c.holds()).count();
        writeln!(out, "{table}");
    }
    if failed > 0 {
        writeln!(out, "{failed} claim(s) do not hold");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
