//! CI perf gate for the replay benchmarks.
//!
//! Every entry is the ratio of two measurements taken in this process on
//! this machine, so the gate needs no committed baseline and means the
//! same on any runner. The workloads come from [`hpf_bench::replay`]; the
//! entry sets keep the names of the claims that introduced them:
//!
//! * `b13` — warm one-statement `Session` steps on the `SharedMem`
//!   backend: the cyclic against the block shift, compressed against
//!   per-element replay, replay against a hand-written loop, and the
//!   BLOCK←CYCLIC transpose against the block shift;
//! * `b14` — the block stencil on `Channels` against `SharedMem`;
//! * `b15` — the whole-timestep fusion workload, fused against unfused;
//! * `b16` — the self-adaptive hotspot, the controller's chosen mapping
//!   against static BLOCK, priced on the machine model.
//!
//! Each entry is checked against the floor the claim that introduced it
//! needs, written next to the measurement; an entry whose claim no longer
//! holds is reported without a floor. Any entry below its floor fails the
//! process with exit code 1. The entries are also written to
//! `BENCH_b13.json` … `BENCH_b16.json` under `BENCH_OUT_DIR` (default `.`).
//!
//! ```sh
//! cargo run --release -p hpf-bench --bin bench_gate
//! ```
//!
//! Each timed rate is the best of three 120 ms windows after one warm-up.

use hpf_bench::replay::{
    arrays_1d, arrays_2d, cyclic_transpose, dense_stencil_step, replay_elements, shift_1d,
    statement_session, stencil_2d,
};
use hpf_core::FormatSpec;
use hpf_runtime::{Backend, ExecPlan};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Throughput of one warm replay routine in Melem/s: warm up once, then
/// take the best of `reps` bounded measurement windows (best-of dampens
/// scheduler noise, which only ever slows a run down).
fn measure(elems: usize, budget: Duration, reps: usize, mut replay: impl FnMut()) -> f64 {
    replay(); // warm: plans, workspaces, worker fleets
    let mut best = f64::MIN;
    for _ in 0..reps {
        let mut iters = 0u64;
        let start = Instant::now();
        while start.elapsed() < budget {
            replay();
            iters += 1;
        }
        let rate = (elems as f64 * iters as f64) / start.elapsed().as_secs_f64() / 1.0e6;
        best = best.max(rate);
    }
    best
}

/// One same-process ratio and the floor its claim needs (`None`: reported
/// only).
struct Entry {
    name: &'static str,
    value: f64,
    floor: Option<f64>,
}

/// The b13 set: warm one-statement `Session` steps on `SharedMem`.
fn measure_b13(budget: Duration, reps: usize) -> Vec<Entry> {
    let n1 = 65_536i64;
    let [block_shift, cyclic_shift] = [FormatSpec::Block, FormatSpec::Cyclic(1)].map(|fmt| {
        let a = arrays_1d(n1, 8, &fmt);
        let s = shift_1d(n1, &a);
        let elems = replay_elements(&ExecPlan::inspect(&a, &s).unwrap());
        let mut session = statement_session(a, &s, Backend::SharedMem);
        measure(elems, budget, reps, || {
            session.run(1).expect("no faults injected");
        })
    });

    let n2 = 192i64;
    let a = arrays_2d(n2, 2, &FormatSpec::Block);
    let s = stencil_2d(n2, &a);
    let plan = ExecPlan::inspect(&a, &s).unwrap();
    let elems = replay_elements(&plan);
    let mut session = statement_session(a, &s, Backend::SharedMem);
    let stencil = measure(elems, budget, reps, || {
        session.run(1).expect("no faults injected");
    });
    let a = &mut session.program_mut().arrays;
    let elementwise = measure(elems, budget, reps, || plan.execute_seq_uncompressed(a));
    let side = n2 as usize;
    let u = a[1].to_dense();
    let mut p = vec![0.0f64; side * side];
    let dense = measure(elems, budget, reps, || {
        dense_stencil_step(side, std::hint::black_box(&mut p), std::hint::black_box(&u))
    });
    assert_eq!(p, a[0].to_dense(), "the hand-written loop computes the same statement");

    let (a, s) = cyclic_transpose(65_536, 8);
    let elems = replay_elements(&ExecPlan::inspect(&a, &s).unwrap());
    let mut session = statement_session(a, &s, Backend::SharedMem);
    let transpose = measure(elems, budget, reps, || {
        session.run(1).expect("no faults injected");
    });

    vec![
        // the cyclic shift moves every element through one contiguous
        // message per pair, which may cost at most ~8x the in-place
        // block shift
        Entry {
            name: "shift_1d_cyclic1_vs_block",
            value: cyclic_shift / block_shift,
            floor: Some(0.12),
        },
        // run-compressed replay must beat the per-element expansion of
        // the same plan at least 3x
        Entry {
            name: "stencil_2d_block_compress_speedup",
            value: stencil / elementwise,
            floor: Some(3.0),
        },
        // block operands are read in place, so replay may cost at most
        // 2.5x the hand-written loop
        Entry { name: "stencil_2d_block_vs_dense_loop", value: stencil / dense, floor: Some(0.4) },
        // BLOCK against CYCLIC(1) is a strided gather per processor pair,
        // not a schedule entry per element (which measured 0.022)
        Entry {
            name: "cyclic_transpose_vs_shift_1d_block",
            value: transpose / block_shift,
            floor: Some(0.07),
        },
    ]
}

/// The b14 set: the block stencil on both exchange backends.
fn measure_b14(budget: Duration, reps: usize) -> Vec<Entry> {
    let n = 192i64;
    let arrays = arrays_2d(n, 2, &FormatSpec::Block);
    let stmt = stencil_2d(n, &arrays);
    let elems = replay_elements(&ExecPlan::inspect(&arrays, &stmt).unwrap());
    let rate_on = |backend: Backend| {
        let mut session = statement_session(arrays.clone(), &stmt, backend);
        measure(elems, budget, reps, || {
            session.run(1).expect("no faults injected");
        })
    };
    let shared = rate_on(Backend::SharedMem);
    let channels = rate_on(Backend::Channels);
    // reported only: `Channels` was introduced as "within 10–25 % of
    // SharedMem", and on the one-thread SharedMem default it is not
    vec![Entry {
        name: "stencil_2d_block_channels_vs_shared",
        value: channels / shared,
        floor: None,
    }]
}

/// The b15 set: the whole-timestep fusion workload through the fused
/// program plan against the per-statement path — the fusion layer's
/// payoff (coalesced messages, clean cyclic ghosts never re-sent).
fn measure_b15(budget: Duration, reps: usize) -> Vec<Entry> {
    use hpf_bench::replay::fusion_timestep;
    use hpf_runtime::{Program, Session};

    let n = 65_536i64;
    let np = 8usize;
    let build = || {
        let (arrays, stmts) = fusion_timestep(n, np);
        let mut prog = Program::new(arrays);
        for s in stmts {
            prog.push(s).unwrap();
        }
        prog
    };
    // elements computed per timestep: every statement's full volume
    let elems = 3 * (n as usize - 2);

    let mut fused = Session::new(build());
    let fused_rate = measure(elems, budget, reps, || {
        fused.run(1).unwrap();
    });
    let mut unfused = Session::new(build()).fused(false);
    let unfused_rate = measure(elems, budget, reps, || {
        unfused.run(1).unwrap();
    });
    let fs = fused.program().fusion_stats();
    assert!(
        fs.ghost_bytes_avoided() > 0,
        "warm fused timesteps must skip the clean cyclic ghosts: {fs}"
    );

    // warm fused replay must beat the per-statement path by a clear
    // margin or the fusion layer is not paying for itself
    vec![Entry {
        name: "fusion_timestep_fused_vs_unfused",
        value: fused_rate / unfused_rate,
        floor: Some(1.3),
    }]
}

/// The b16 set: the self-adaptive redistribution workload, priced on the
/// machine model — deterministic, so the ratio binds exactly on any
/// runner.
fn measure_b16() -> Vec<Entry> {
    use hpf_bench::replay::adaptive_hotspot;
    use hpf_runtime::{AdaptPolicy, Program, Session};

    let (arrays, stmts) = adaptive_hotspot(65_536, 4);
    let mut prog = Program::new(arrays);
    for s in stmts {
        prog.push(s).unwrap();
    }
    let mut adaptive = Session::new(prog).adapt(AdaptPolicy::default());
    adaptive.run(6).unwrap();
    let report = adaptive.adapt_report().expect("adapt configured");
    assert!(report.remaps >= 1, "the hotspot workload must trigger a live remap: {report:?}");
    let e = &report.events[0];
    // the controller's chosen mapping must be priced >= 1.3x cheaper per
    // warm step than staying on static BLOCK
    vec![Entry {
        name: "hotspot_adaptive_vs_static_modeled",
        value: e.cost_stay / e.cost_candidate,
        floor: Some(1.3),
    }]
}

fn render_json(bench: &str, entries: &[Entry]) -> String {
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"bench\": \"{bench}\",").unwrap();
    writeln!(s, "  \"entries\": [").unwrap();
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let floor = e.floor.map_or("null".to_string(), |f| f.to_string());
        writeln!(
            s,
            "    {{ \"name\": \"{}\", \"value\": {:.3}, \"unit\": \"ratio\", \"floor\": {floor} }}{comma}",
            e.name, e.value
        )
        .unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

fn main() {
    let (budget, reps) = (Duration::from_millis(120), 3);
    let out_dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".into());

    let sets = [
        ("b13", measure_b13(budget, reps)),
        ("b14", measure_b14(budget, reps)),
        ("b15", measure_b15(budget, reps)),
        ("b16", measure_b16()),
    ];

    let mut failures = 0;
    for (bench, entries) in &sets {
        let out = std::path::Path::new(&out_dir).join(format!("BENCH_{bench}.json"));
        std::fs::write(&out, render_json(bench, entries)).expect("write bench report");
        println!("bench_gate: wrote {}", out.display());
        for e in entries {
            let status = match e.floor {
                None => "reported".to_string(),
                Some(f) if e.value >= f => format!(">= {f}  ok"),
                Some(f) => {
                    failures += 1;
                    format!("< {f}  BELOW FLOOR")
                }
            };
            println!("bench_gate {bench}/{:<36} {:>9.3}  {status}", e.name, e.value);
        }
    }
    if failures > 0 {
        eprintln!("bench_gate: {failures} ratio(s) below their floor");
        std::process::exit(1);
    }
    println!("bench_gate: every floored ratio holds");
}
