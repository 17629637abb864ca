//! The harness-owned span recorder of the traced run.
//!
//! Spans are recorded around the calls the harness makes into each
//! layer's public functions — nothing inside the program under test is
//! instrumented. Two kinds of span exist:
//!
//! * a *measured* span is the wall interval of a call made during the
//!   trip (`elaborate`, `lower`, `cold_step`, `warm_step`, …);
//! * an *attributed* span places the cost of a callee the harness cannot
//!   see from outside (lexing inside parsing inside elaboration;
//!   inspection inside the cold step) under its caller. Its duration is
//!   a standalone call of the same public function on the same input,
//!   made after the trip; it is laid at the start of the caller's
//!   interval.
//!
//! A span's self time is its duration minus its direct children, so an
//! attributed child turns "`run_recover` minus `parse_recover`" into the
//! ordinary self time of `elaborate`.

use crate::json;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub rep: u32,
    /// Program index within the workload (0 for the runtime workloads).
    pub program: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attributed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub rep: u32,
    pub program: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            program: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; 0 when disabled.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            rep: self.rep,
            program: self.program,
            start_ns,
            end_ns: start_ns,
            attributed: false,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Close every open span from the innermost out to and including
    /// `id` — the way out of a trip that failed half-way.
    pub fn close_through(&mut self, id: u32) {
        while let Some(&top) = self.open.last() {
            self.exit(top);
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Place `duration_ns` of a standalone-measured callee under `parent`,
    /// after any children `parent` already has. Returns the new span's id.
    pub fn attribute(&mut self, parent: u32, name: &'static str, duration_ns: u64) -> u32 {
        if !self.enabled || parent == 0 {
            return 0;
        }
        let p = self.spans[parent as usize - 1].clone();
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == parent)
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p.start_ns);
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            rep: p.rep,
            program: p.program,
            start_ns,
            end_ns: start_ns + duration_ns,
            attributed: true,
        });
        id
    }

    /// Self time of every span: duration minus direct children, indexed
    /// by `id - 1`. Negative when children were measured longer than
    /// their parent — the ledger check reports that, it is not clamped.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if s.parent != 0 {
                own[s.parent as usize - 1] -= s.duration_ns() as i64;
            }
        }
        own
    }

    /// Summed self time of the spans called `name` in `rep`.
    pub fn self_total_ns(&self, name: &str, rep: u32) -> i64 {
        let own = self.self_ns();
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .map(|s| own[s.id as usize - 1])
            .sum()
    }

    /// Summed duration of the spans called `name` in `rep`.
    pub fn total_ns(&self, name: &str, rep: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .map(Span::duration_ns)
            .sum()
    }

    /// One JSON object per span, in id order.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_ns();
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"workload\": {}, \"rep\": {}, \
                 \"program\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
                 \"attributed\": {}}}",
                s.id,
                s.parent,
                json::quote(s.name),
                json::quote(workload),
                s.rep,
                s.program,
                s.start_ns,
                s.end_ns,
                own[s.id as usize - 1],
                s.attributed
            )?;
        }
        Ok(())
    }
}

/// The two sums the traced run must reproduce from its parts.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    /// Σ self time of the set-up phases.
    pub setup_parts_s: f64,
    /// Wall time from source to the end of the cold step.
    pub setup_s: f64,
    /// `setup_s + Σ warm steps + gather`.
    pub trip_parts_s: f64,
    /// Wall time of the whole trip.
    pub time_to_result_s: f64,
}

impl Ledger {
    pub const SETUP_TOLERANCE: f64 = 0.10;
    pub const TRIP_TOLERANCE: f64 = 0.05;

    /// `Err` names the sum that does not add up.
    pub fn check(&self) -> Result<(), String> {
        let off = |parts: f64, whole: f64| (parts - whole).abs() / whole;
        let setup = off(self.setup_parts_s, self.setup_s);
        if setup.is_nan() || setup > Self::SETUP_TOLERANCE {
            return Err(format!(
                "set-up phases sum to {:.6} s but setup_s is {:.6} s ({:.1} % apart, limit {:.0} %)",
                self.setup_parts_s,
                self.setup_s,
                setup * 100.0,
                Self::SETUP_TOLERANCE * 100.0
            ));
        }
        let trip = off(self.trip_parts_s, self.time_to_result_s);
        if trip.is_nan() || trip > Self::TRIP_TOLERANCE {
            return Err(format!(
                "setup + warm steps + gather is {:.6} s but time_to_result_s is {:.6} s \
                 ({:.1} % apart, limit {:.0} %)",
                self.trip_parts_s,
                self.time_to_result_s,
                trip * 100.0,
                Self::TRIP_TOLERANCE * 100.0
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(u32, &'static str, u64, u64, bool)]) -> Recorder {
        let mut r = Recorder::new(true);
        for (k, &(parent, name, start_ns, end_ns, attributed)) in spans.iter().enumerate() {
            r.spans.push(Span {
                id: k as u32 + 1,
                parent,
                name,
                rep: 0,
                program: 0,
                start_ns,
                end_ns,
                attributed,
            });
        }
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // program ⊃ elaborate ⊃ parse ⊃ lex, and program ⊃ lower
        let r = fixed(&[
            (0, "program", 0, 1000, false),
            (1, "elaborate", 0, 600, false),
            (2, "parse", 0, 250, true),
            (3, "lex", 0, 100, true),
            (1, "lower", 600, 900, false),
        ]);
        assert_eq!(r.self_ns(), vec![100, 350, 150, 100, 300]);
        assert_eq!(r.self_total_ns("elaborate", 0), 350);
        assert_eq!(r.total_ns("elaborate", 0), 600);
    }

    #[test]
    fn attributed_children_queue_up_inside_their_parent() {
        let mut r = fixed(&[(0, "cold_step", 100, 900, false)]);
        let a = r.attribute(1, "inspect", 300);
        let b = r.attribute(1, "inspect", 200);
        let (a, b) = (&r.spans[a as usize - 1], &r.spans[b as usize - 1]);
        assert_eq!((a.start_ns, a.end_ns, a.attributed), (100, 400, true));
        assert_eq!((b.start_ns, b.end_ns), (400, 600));
        assert_eq!(r.self_ns()[0], 300);
    }

    #[test]
    fn nesting_follows_enter_and_exit_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        let outer = r.enter("program");
        let inner = r.span("lower", r_len_probe);
        r.exit(outer);
        assert_eq!(inner, 7);
        assert_eq!(r.spans()[1].parent, outer);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);

        let mut off = Recorder::new(false);
        let id = off.enter("program");
        off.exit(id);
        assert_eq!(off.attribute(id, "lex", 5), 0);
        assert!(off.spans().is_empty());
    }

    fn r_len_probe() -> usize {
        7
    }

    #[test]
    fn ledger_accepts_sums_within_tolerance_and_names_the_one_that_is_off() {
        let ok = Ledger {
            setup_parts_s: 0.95,
            setup_s: 1.0,
            trip_parts_s: 2.96,
            time_to_result_s: 3.0,
        };
        assert!(ok.check().is_ok());
        let setup_off = Ledger {
            setup_parts_s: 0.85,
            ..ok
        };
        assert!(setup_off.check().unwrap_err().contains("set-up phases"));
        let trip_off = Ledger {
            trip_parts_s: 2.8,
            ..ok
        };
        assert!(trip_off.check().unwrap_err().contains("time_to_result_s"));
        let nan = Ledger {
            setup_parts_s: f64::NAN,
            ..ok
        };
        assert!(nan.check().is_err());
    }
}
