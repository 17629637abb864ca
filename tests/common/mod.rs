//! Shared driver of the integration suites: the execution-shape
//! configurations of a [`Session`] as a matrix, and a one-statement
//! runner over it. Every suite that used to pick an executor now picks a
//! row; every row is held to the same dense oracle.

#![allow(dead_code)] // each suite uses the part it needs

use hpf::prelude::*;
use std::sync::Arc;

/// One execution-shape configuration: the three options of [`Session`]
/// that decide how a timestep is driven.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub backend: Backend,
    pub threads: usize,
    pub fused: bool,
}

impl Config {
    /// The session defaults: `SharedMem`, no thread bound, fused.
    pub const DEFAULT: Config = Config { backend: Backend::SharedMem, threads: 0, fused: true };

    pub fn apply(self, session: Session) -> Session {
        session.backend(self.backend).threads(self.threads).fused(self.fused)
    }
}

/// {`SharedMem`, `SharedMem` + `threads(2)`, `Channels`} × {fused, unfused}.
/// (With two or fewer simulated processors `threads(2)` covers them all
/// and resolves to the `Channels` fleet — still a valid row.)
pub const MATRIX: [Config; 6] = {
    const fn row(backend: Backend, threads: usize, fused: bool) -> Config {
        Config { backend, threads, fused }
    }
    [
        row(Backend::SharedMem, 0, true),
        row(Backend::SharedMem, 2, true),
        row(Backend::Channels, 0, true),
        row(Backend::SharedMem, 0, false),
        row(Backend::SharedMem, 2, false),
        row(Backend::Channels, 0, false),
    ]
};

/// Execute `stmt` once over `arrays` as a one-statement [`Program`]
/// through a [`Session`] configured by `config` (the arrays are moved in
/// and back out), returning the statement's frozen analysis.
pub fn run_stmt(
    arrays: &mut Vec<DistArray<f64>>,
    stmt: &Assignment,
    config: Config,
) -> Arc<CommAnalysis> {
    let mut prog = Program::new(std::mem::take(arrays));
    prog.push(stmt.clone()).unwrap();
    let mut sess = config.apply(Session::new(prog));
    sess.run(1).unwrap();
    let analysis = sess.last_analyses()[0].clone();
    *arrays = sess.into_program().arrays;
    analysis
}
