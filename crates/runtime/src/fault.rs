//! Deterministic fault injection for the exchange backends.
//!
//! Fault tolerance that is only exercised by real hardware failures is
//! untested fault tolerance. A [`FaultPlan`] names exactly which failure
//! to provoke and *when* — kill worker `k` at superstep `s`, drop,
//! corrupt, or delay the `s→r` message of a superstep, poison the SPMD
//! buffer-pool lock — and [`crate::ExchangeBackend::inject`] arms it on a
//! backend. Every fault is **one-shot**: it fires the first time its step
//! comes around and never again, so a recovery that replays the same
//! steps from a checkpoint runs clean. Steps are counted per backend
//! (its cumulative superstep counter, starting at 0), making every
//! injection fully deterministic and therefore testable.
//!
//! The `Channels` backend injects faults physically: a killed worker's
//! thread really exits mid-fleet, a corrupted message really arrives
//! truncated at the receiver, a poisoned pool lock is really poisoned (a
//! sacrificial thread panics while holding it). The `SharedMem` backend
//! has no threads, wire, or locks, so it *simulates the detection
//! outcome* of each fault at the step boundary instead — same typed
//! [`crate::ExchangeError`]s, same recovery path, no arrays touched.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One injectable failure. Ranks are zero-based; `step` is the target
/// backend's cumulative superstep counter at which the fault fires (the
/// first superstep a backend executes is step 0, and the fused program
/// path counts one step per timestep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Worker `rank`'s thread exits the moment it receives the work order
    /// for `step` — shards in its custody are lost, exactly as a crashed
    /// process would lose them.
    KillWorker {
        /// Zero-based rank to kill.
        rank: u32,
        /// Superstep at which the worker dies.
        step: u64,
    },
    /// The `sender → receiver` message of `step` is silently discarded:
    /// the receiver waits for data that never arrives and the driver's
    /// step timeout reports the fleet wedged.
    DropMessage {
        /// Zero-based sending rank.
        sender: u32,
        /// Zero-based receiving rank.
        receiver: u32,
        /// Superstep whose message is dropped.
        step: u64,
    },
    /// The `sender → receiver` message of `step` arrives truncated by one
    /// element — the receiver's schedule length check detects it and
    /// reports a typed corruption error instead of unpacking garbage.
    CorruptMessage {
        /// Zero-based sending rank.
        sender: u32,
        /// Zero-based receiving rank.
        receiver: u32,
        /// Superstep whose message is damaged.
        step: u64,
    },
    /// The `sender → receiver` message of `step` is held back `millis`
    /// before shipping — a slow link, not a failure; the superstep must
    /// still complete (within the driver's step timeout).
    DelayMessage {
        /// Zero-based sending rank.
        sender: u32,
        /// Zero-based receiving rank.
        receiver: u32,
        /// Superstep whose message is delayed.
        step: u64,
        /// Delay in milliseconds.
        millis: u64,
    },
    /// Worker `rank` poisons the shared buffer-pool `Mutex` at `step` (a
    /// sacrificial thread panics while holding the guard). The pool
    /// accessors recover via `PoisonError::into_inner`, so one poisoned
    /// lock stays one fault instead of cascading into every worker.
    PoisonPool {
        /// Zero-based rank that poisons the pool.
        rank: u32,
        /// Superstep at which the lock is poisoned.
        step: u64,
    },
}

impl Fault {
    /// The superstep this fault is scheduled to fire at.
    pub fn step(&self) -> u64 {
        match *self {
            Fault::KillWorker { step, .. }
            | Fault::DropMessage { step, .. }
            | Fault::CorruptMessage { step, .. }
            | Fault::DelayMessage { step, .. }
            | Fault::PoisonPool { step, .. } => step,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Fault::KillWorker { rank, step } => {
                write!(f, "kill rank {rank} at step {step}")
            }
            Fault::DropMessage { sender, receiver, step } => {
                write!(f, "drop {sender}→{receiver} at step {step}")
            }
            Fault::CorruptMessage { sender, receiver, step } => {
                write!(f, "corrupt {sender}→{receiver} at step {step}")
            }
            Fault::DelayMessage { sender, receiver, step, millis } => {
                write!(f, "delay {sender}→{receiver} at step {step} by {millis}ms")
            }
            Fault::PoisonPool { rank, step } => {
                write!(f, "poison pool from rank {rank} at step {step}")
            }
        }
    }
}

/// An ordered set of one-shot faults to arm on a backend via
/// [`crate::ExchangeBackend::inject`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (arms nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append a fault (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Append a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The planned faults, in arm order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True iff the plan arms nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse an `--inject` specification: one or more faults separated by
    /// `;`, each `kind:key=value,...` with zero-based ranks —
    ///
    /// ```text
    /// kill:rank=1,step=2
    /// drop:from=0,to=2,step=3
    /// corrupt:from=0,to=1,step=1
    /// delay:from=0,to=1,step=1,ms=40
    /// poison:rank=0,step=2
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            plan.push(parse_fault(part)?);
        }
        if plan.is_empty() {
            return Err(format!("fault spec `{spec}` names no faults"));
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

fn parse_fault(part: &str) -> Result<Fault, String> {
    let (kind, rest) = part
        .split_once(':')
        .ok_or_else(|| format!("fault `{part}`: expected `kind:key=value,...`"))?;
    let mut fields: Vec<(&str, u64)> = Vec::new();
    for kv in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("fault `{part}`: `{kv}` is not `key=value`"))?;
        let v: u64 = v
            .trim()
            .parse()
            .map_err(|_| format!("fault `{part}`: `{v}` is not a number"))?;
        fields.push((k.trim(), v));
    }
    let get = |key: &str| -> Result<u64, String> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("fault `{part}`: missing `{key}=`"))
    };
    let rank = |key: &str| -> Result<u32, String> {
        let v = get(key)?;
        u32::try_from(v).map_err(|_| format!("fault `{part}`: rank `{key}={v}` is out of range"))
    };
    let known = |allowed: &[&str]| -> Result<(), String> {
        for (k, _) in &fields {
            if !allowed.contains(k) {
                return Err(format!("fault `{part}`: unknown key `{k}`"));
            }
        }
        Ok(())
    };
    match kind.trim() {
        "kill" => {
            known(&["rank", "step"])?;
            Ok(Fault::KillWorker { rank: rank("rank")?, step: get("step")? })
        }
        "drop" => {
            known(&["from", "to", "step"])?;
            Ok(Fault::DropMessage {
                sender: rank("from")?,
                receiver: rank("to")?,
                step: get("step")?,
            })
        }
        "corrupt" => {
            known(&["from", "to", "step"])?;
            Ok(Fault::CorruptMessage {
                sender: rank("from")?,
                receiver: rank("to")?,
                step: get("step")?,
            })
        }
        "delay" => {
            known(&["from", "to", "step", "ms"])?;
            Ok(Fault::DelayMessage {
                sender: rank("from")?,
                receiver: rank("to")?,
                step: get("step")?,
                millis: get("ms")?,
            })
        }
        "poison" => {
            known(&["rank", "step"])?;
            Ok(Fault::PoisonPool { rank: rank("rank")?, step: get("step")? })
        }
        other => Err(format!(
            "fault `{part}`: unknown kind `{other}` \
             (expected kill|drop|corrupt|delay|poison)"
        )),
    }
}

/// What the fault switch tells a sender to do with one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendAction {
    /// No fault matches: ship normally.
    Deliver,
    /// Discard the message (the receiver will wedge waiting for it).
    Drop,
    /// Truncate the payload by one element before shipping.
    Corrupt,
    /// Sleep this many milliseconds, then ship.
    Delay(u64),
}

/// The armed, shared form of a [`FaultPlan`]: workers and drivers consult
/// it at their fault points, and each fault is consumed exactly once.
/// Backends hold it as `Option<Arc<FaultSwitch>>`, so the disarmed hot
/// path pays one `Option` branch and never touches the mutex.
#[derive(Debug)]
pub(crate) struct FaultSwitch {
    slots: Mutex<Vec<(Fault, bool)>>,
    fired: AtomicUsize,
}

impl FaultSwitch {
    /// Arm a plan.
    pub(crate) fn arm(plan: FaultPlan) -> FaultSwitch {
        FaultSwitch {
            slots: Mutex::new(plan.faults.into_iter().map(|f| (f, false)).collect()),
            fired: AtomicUsize::new(0),
        }
    }

    /// Faults fired so far.
    pub(crate) fn fired(&self) -> usize {
        self.fired.load(Ordering::Relaxed)
    }

    fn consume(&self, matches: impl Fn(&Fault) -> bool) -> Option<Fault> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        for (fault, fired) in slots.iter_mut() {
            if !*fired && matches(fault) {
                *fired = true;
                self.fired.fetch_add(1, Ordering::Relaxed);
                return Some(fault.clone());
            }
        }
        None
    }

    /// Consume a `KillWorker` scheduled for this rank and step.
    pub(crate) fn kill(&self, rank: u32, step: u64) -> bool {
        self.consume(|f| matches!(*f, Fault::KillWorker { rank: r, step: s } if r == rank && s == step))
            .is_some()
    }

    /// Consume a `PoisonPool` scheduled for this rank and step.
    pub(crate) fn poison(&self, rank: u32, step: u64) -> bool {
        self.consume(|f| matches!(*f, Fault::PoisonPool { rank: r, step: s } if r == rank && s == step))
            .is_some()
    }

    /// Consume a message fault scheduled for this `sender → receiver`
    /// message at this step, if any.
    pub(crate) fn on_send(&self, sender: u32, receiver: u32, step: u64) -> SendAction {
        let hit = self.consume(|f| match *f {
            Fault::DropMessage { sender: a, receiver: b, step: s }
            | Fault::CorruptMessage { sender: a, receiver: b, step: s }
            | Fault::DelayMessage { sender: a, receiver: b, step: s, .. } => {
                a == sender && b == receiver && s == step
            }
            _ => false,
        });
        match hit {
            None => SendAction::Deliver,
            Some(Fault::DropMessage { .. }) => SendAction::Drop,
            Some(Fault::CorruptMessage { .. }) => SendAction::Corrupt,
            Some(Fault::DelayMessage { millis, .. }) => SendAction::Delay(millis),
            Some(_) => SendAction::Deliver,
        }
    }

    /// Consume the next unfired fault scheduled for `step`, regardless of
    /// rank or pair — the `SharedMem` backend's whole-step simulation
    /// point (it has no per-worker or per-message fault sites).
    pub(crate) fn at_step(&self, step: u64) -> Option<Fault> {
        self.consume(|f| f.step() == step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse(
            "kill:rank=1,step=2; drop:from=0,to=2,step=3;\
             corrupt:from=0,to=1,step=1;delay:from=0,to=1,step=1,ms=40;\
             poison:rank=0,step=2",
        )
        .unwrap();
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.faults()[0], Fault::KillWorker { rank: 1, step: 2 });
        assert_eq!(
            plan.faults()[3],
            Fault::DelayMessage { sender: 0, receiver: 1, step: 1, millis: 40 }
        );
        assert!(plan.to_string().contains("kill rank 1 at step 2"));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "explode:rank=1,step=0",
            "kill:rank=1",
            "kill:rank=x,step=0",
            "kill:rank=1,step=0,extra=2",
            "drop:from=0,step=1",
            "kill",
            "drop:from=0,to=4294967296,step=1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn ranks_past_u32_are_rejected_not_wrapped() {
        // 2^32 + 2 used to wrap to rank 2 and kill the wrong worker
        let err = FaultPlan::parse("kill:rank=4294967298,step=1").unwrap_err();
        assert!(err.contains("kill:rank=4294967298,step=1"), "{err}");
        let plan = FaultPlan::parse("poison:rank=4294967295,step=0").unwrap();
        assert_eq!(plan.faults()[0], Fault::PoisonPool { rank: u32::MAX, step: 0 });
    }

    #[test]
    fn faults_fire_exactly_once() {
        let sw = FaultSwitch::arm(
            FaultPlan::new()
                .with(Fault::KillWorker { rank: 2, step: 5 })
                .with(Fault::CorruptMessage { sender: 0, receiver: 1, step: 3 }),
        );
        assert!(!sw.kill(2, 4), "wrong step must not fire");
        assert!(!sw.kill(1, 5), "wrong rank must not fire");
        assert!(sw.kill(2, 5));
        assert!(!sw.kill(2, 5), "one-shot: a replay of step 5 runs clean");
        assert_eq!(sw.on_send(0, 1, 2), SendAction::Deliver);
        assert_eq!(sw.on_send(0, 1, 3), SendAction::Corrupt);
        assert_eq!(sw.on_send(0, 1, 3), SendAction::Deliver, "consumed");
        assert_eq!(sw.fired(), 2);
    }

    #[test]
    fn shared_mem_step_scan_consumes_in_order() {
        let sw = FaultSwitch::arm(
            FaultPlan::new()
                .with(Fault::DelayMessage { sender: 0, receiver: 1, step: 1, millis: 5 })
                .with(Fault::KillWorker { rank: 0, step: 1 }),
        );
        assert!(sw.at_step(0).is_none());
        assert!(matches!(sw.at_step(1), Some(Fault::DelayMessage { .. })));
        assert!(matches!(sw.at_step(1), Some(Fault::KillWorker { .. })));
        assert!(sw.at_step(1).is_none());
    }
}
