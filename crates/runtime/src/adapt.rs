//! Self-adaptive redistribution: close the loop between *measured*
//! execution and the §4.2 `REDISTRIBUTE` machinery.
//!
//! The paper gives the compiler a vocabulary of distributions
//! (`BLOCK`, `CYCLIC(k)`, `GENERAL_BLOCK`) and a redistribution
//! primitive whose exact traffic [`crate::remap_analysis`] prices — but
//! leaves *when to pull the trigger* to the programmer. The controller
//! behind [`crate::Session::adapt`] automates that decision for iterated
//! programs:
//!
//! 1. **Observe** — during warm replay it keeps a sliding window over
//!    the per-rank samples the backends measure (wall-time each
//!    simulated processor spent in compute kernels, via
//!    [`crate::Program::last_rank_compute_ns`]) plus the modeled
//!    per-rank loads of the frozen analyses;
//! 2. **Detect** — when the windowed load imbalance (`max/mean`)
//!    persists above [`AdaptPolicy::min_imbalance`], it starts pricing;
//! 3. **Price** — candidate remappings (a weight-balanced
//!    `GENERAL_BLOCK` fitted to the observed per-rank load, uniform
//!    re-blocking, cyclic re-blocking, and processor-grid reshapes) are
//!    priced on the machine model: *stay* costs
//!    `cost(current) × horizon`; *move* costs
//!    `cost(candidate) × horizon + cost(remap traffic)`;
//! 4. **Act** — if the best candidate wins by more than the
//!    [`AdaptPolicy::hysteresis`] margin (and the
//!    [`AdaptPolicy::cooldown`] has expired), every array of the
//!    affected same-domain group is remapped live through
//!    [`crate::Program::remap`] — invalidating exactly the plans that
//!    involve those arrays — and the decision is recorded in the
//!    [`AdaptReport`] with its predicted and (later) realized cost.
//!
//! Pricing is deliberately *modeled*: the machine model is the paper's
//! costing instrument, it is deterministic across hosts, and it is what
//! the controller can actually predict for a mapping it has never run.
//! The measured samples steer the imbalance gate and the
//! `GENERAL_BLOCK` weight fitting; the model arbitrates.
//!
//! Hysteresis plus cooldown guard against thrashing: a candidate that
//! wins by a hair this window would lose by a hair next window, so it
//! must win by a margin, and two remaps can never be closer than the
//! cooldown. Every refusal is counted, so tests can pin the controller
//! refusing a profitable remap during cooldown.

use crate::commsets::{comm_analysis, CommAnalysis};
use crate::program::Program;
use crate::remap::remap_analysis;
use hpf_core::{
    DataSpace, DimFormat, DistributeSpec, EffectiveDist, FormatSpec, GeneralBlock, HpfError,
};
use hpf_index::IndexDomain;
use hpf_machine::Machine;
use hpf_procs::ProcId;
use std::sync::Arc;

/// When and how aggressively the adaptive controller may redistribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptPolicy {
    /// Samples required in the window before any decision (and before a
    /// remap's realized cost is recorded).
    pub window: usize,
    /// Timesteps a remap is amortized over: a candidate pays off iff
    /// `cost(candidate)·horizon + remap < cost(stay)·horizon·(1 − hysteresis)`.
    pub horizon: u64,
    /// Fractional margin a candidate must beat the status quo by
    /// (anti-thrash; `0.1` = must be ≥10% cheaper over the horizon).
    pub hysteresis: f64,
    /// Minimum timesteps between two remaps.
    pub cooldown: u64,
    /// Windowed `max/mean` load-imbalance below which the controller
    /// does not even price candidates (`1.0` = perfectly balanced).
    pub min_imbalance: f64,
}

impl Default for AdaptPolicy {
    fn default() -> Self {
        AdaptPolicy {
            window: 3,
            horizon: 50,
            hysteresis: 0.10,
            cooldown: 10,
            min_imbalance: 1.15,
        }
    }
}

impl AdaptPolicy {
    /// A hair-trigger policy for tests and short trajectories: window of
    /// 1, no cooldown, no hysteresis, any imbalance qualifies.
    pub fn aggressive() -> Self {
        AdaptPolicy {
            window: 1,
            horizon: 50,
            hysteresis: 0.0,
            cooldown: 0,
            min_imbalance: 1.0,
        }
    }
}

/// One remap the controller performed (or the refusal bookkeeping in
/// [`AdaptReport`] explains why it did not).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptEvent {
    /// Timestep (0-based within the session) the remap happened before.
    pub timestep: u64,
    /// Names of the arrays remapped (one same-domain group).
    pub arrays: Vec<String>,
    /// Human-readable description of the winning candidate.
    pub candidate: String,
    /// Windowed `max/mean` load imbalance that triggered the pricing.
    pub observed_imbalance: f64,
    /// Modeled cost of one timestep under the old mappings (µs).
    pub cost_stay: f64,
    /// Modeled cost of one timestep under the new mappings (µs).
    pub cost_candidate: f64,
    /// Modeled one-off cost of the redistribution itself (µs).
    pub remap_cost: f64,
    /// Elements that physically moved between processors in the remap.
    pub remap_elements: u64,
    /// `(cost_stay − cost_candidate)·horizon − remap_cost` (µs) — what
    /// the controller predicted the move would save.
    pub predicted_gain: f64,
    /// Modeled per-timestep cost re-priced once the post-remap window
    /// filled (µs) — compare against `cost_candidate` to see how well
    /// the prediction held. `None` until the window refills.
    pub realized_cost: Option<f64>,
}

/// What the controller observed and did over a session — the
/// [`crate::Session::adapt_report`] surface.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptReport {
    /// Timesteps observed.
    pub steps_observed: u64,
    /// Remaps performed.
    pub remaps: u64,
    /// Total elements moved by all remaps.
    pub remap_elements: u64,
    /// Decisions refused because the cooldown had not expired.
    pub refused_cooldown: u64,
    /// Decisions refused because the win was inside the hysteresis
    /// margin.
    pub refused_hysteresis: u64,
    /// Pricing rounds where no candidate beat the status quo at all.
    pub refused_no_gain: u64,
    /// Most recent windowed `max/mean` load imbalance.
    pub last_imbalance: f64,
    /// The remaps, in order.
    pub events: Vec<AdaptEvent>,
}

/// A priced candidate remapping of one same-domain array group.
struct Candidate {
    label: String,
    mapping: Arc<EffectiveDist>,
}

/// The adaptive-redistribution controller (see the module docs for the
/// decision loop). Drive it through
/// [`crate::Session::adapt`][crate::Session::adapt]; or call
/// [`AdaptController::observe`] after every executed timestep and
/// [`AdaptController::decide`] before the next one.
#[derive(Debug)]
pub(crate) struct AdaptController {
    policy: AdaptPolicy,
    machine: Machine,
    /// Ring buffer of windowed imbalance samples.
    window: Vec<f64>,
    ring_pos: usize,
    ring_len: usize,
    /// Exponentially-weighted per-rank measured compute ns (α = 0.5).
    ewma_ns: Vec<f64>,
    /// Exponentially-weighted per-rank modeled loads.
    ewma_loads: Vec<f64>,
    /// Reused scratch for summing modeled loads per observe call.
    loads_scratch: Vec<u64>,
    /// Samples accumulated since the last remap (or the start).
    samples_since_change: u64,
    /// Timesteps since the last remap.
    steps_since_remap: u64,
    remapped_once: bool,
    /// Index into `report.events` awaiting its realized cost.
    pending_realized: Option<usize>,
    report: AdaptReport,
}

impl AdaptController {
    /// A controller with the given policy, pricing on `machine`.
    pub fn new(policy: AdaptPolicy, machine: Machine) -> Self {
        let w = policy.window.max(1);
        AdaptController {
            policy,
            machine,
            window: Vec::with_capacity(w),
            ring_pos: 0,
            ring_len: 0,
            ewma_ns: Vec::new(),
            ewma_loads: Vec::new(),
            loads_scratch: Vec::new(),
            samples_since_change: 0,
            steps_since_remap: 0,
            remapped_once: false,
            pending_realized: None,
            report: AdaptReport::default(),
        }
    }

    /// The decisions and refusals so far.
    pub fn report(&self) -> &AdaptReport {
        &self.report
    }

    /// Feed the sample of a just-executed timestep into the sliding
    /// window: the backend's measured per-rank compute time when the
    /// executor sampled it, the frozen analyses' modeled per-rank loads
    /// always. Allocation-free once the vectors are sized for `np`.
    pub fn observe(&mut self, program: &Program) {
        let np = program.np();
        if np == 0 {
            return;
        }
        if self.ewma_ns.len() != np {
            self.ewma_ns = vec![0.0; np];
            self.ewma_loads = vec![0.0; np];
            self.loads_scratch = vec![0; np];
        }
        self.loads_scratch.fill(0);
        for a in program.last_analyses() {
            for (p, l) in a.loads.iter().enumerate() {
                if p < np {
                    self.loads_scratch[p] += l;
                }
            }
        }
        let measured = program.last_rank_compute_ns();
        // below ~100µs of total measured compute per timestep, timer
        // noise dominates the per-rank sample — fall back to the modeled
        // loads for the imbalance signal rather than chase jitter
        let have_ns = measured.iter().sum::<u64>() > 100_000;
        for p in 0..np {
            let ns = measured.get(p).copied().unwrap_or(0) as f64;
            self.ewma_ns[p] = 0.5 * self.ewma_ns[p] + 0.5 * ns;
            self.ewma_loads[p] = 0.5 * self.ewma_loads[p] + 0.5 * self.loads_scratch[p] as f64;
        }
        let imb = if have_ns {
            imbalance_of(measured.iter().map(|&x| x as f64), np)
        } else {
            imbalance_of(self.loads_scratch.iter().map(|&x| x as f64), np)
        };
        let cap = self.policy.window.max(1);
        if self.window.len() < cap {
            self.window.push(imb);
            self.ring_len = self.window.len();
        } else {
            self.window[self.ring_pos] = imb;
            self.ring_pos = (self.ring_pos + 1) % cap;
            self.ring_len = cap;
        }
        self.report.steps_observed += 1;
        self.samples_since_change += 1;
        self.steps_since_remap += 1;
    }

    /// Decide whether to redistribute *now*, performing the remap(s) on
    /// `program` when a candidate pays for itself within the policy's
    /// horizon. Returns `true` iff a remap happened. Call between
    /// timesteps; `timestep` only labels the [`AdaptEvent`].
    pub fn decide(&mut self, program: &mut Program, timestep: u64) -> Result<bool, HpfError> {
        let np = program.np();
        if np == 0 || program.is_empty() {
            return Ok(false);
        }
        if (self.samples_since_change as usize) < self.policy.window.max(1) {
            return Ok(false);
        }
        // the post-remap window just filled: settle the realized cost
        if let Some(e) = self.pending_realized.take() {
            let (c, _) = self.price_current(program);
            self.report.events[e].realized_cost = Some(c);
        }
        // the imbalance must *persist*: gate on the window's minimum, so
        // a single noisy sample can neither open nor hold the gate
        let imb: f64 = self.window[..self.ring_len]
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b))
            .max(1.0);
        self.report.last_imbalance = imb;
        if imb < self.policy.min_imbalance {
            return Ok(false);
        }
        if self.remapped_once && self.steps_since_remap < self.policy.cooldown {
            self.report.refused_cooldown += 1;
            return Ok(false);
        }

        let (cost_stay, _) = self.price_current(program);
        let mut best: Option<(f64, f64, u64, Vec<usize>, Candidate)> = None;
        let mut any_gain = false;
        let mut inside_hysteresis = false;
        for group in same_mapping_groups(program) {
            let rep = group[0];
            for cand in self.candidates_for(program, rep, np) {
                let cost_cand = self.price_with(program, &group, &cand.mapping);
                // one-off redistribution traffic for every group member
                let mut remap_cost = 0.0;
                let mut remap_elements = 0u64;
                for &k in &group {
                    let r = remap_analysis(program.arrays[k].mapping(), &cand.mapping, np);
                    remap_cost += self.machine.superstep_time(&[], &r.comm).total_time();
                    remap_elements += r.moved as u64;
                }
                let h = self.policy.horizon.max(1) as f64;
                let stay_total = cost_stay * h;
                let move_total = cost_cand * h + remap_cost;
                if move_total < stay_total {
                    any_gain = true;
                }
                if move_total >= stay_total * (1.0 - self.policy.hysteresis) {
                    if move_total < stay_total {
                        inside_hysteresis = true;
                    }
                    continue;
                }
                let gain = stay_total - move_total;
                if best.as_ref().is_none_or(|(g, ..)| gain > *g) {
                    best = Some((gain, cost_cand, remap_elements, group.clone(), cand));
                }
            }
        }
        let Some((gain, cost_cand, remap_elements, group, cand)) = best else {
            if inside_hysteresis {
                self.report.refused_hysteresis += 1;
            } else if !any_gain {
                self.report.refused_no_gain += 1;
            }
            return Ok(false);
        };

        let mut names = Vec::with_capacity(group.len());
        let mut remap_cost = 0.0;
        for &k in &group {
            names.push(program.arrays[k].name().to_string());
            let r = program.remap(k, cand.mapping.clone())?;
            remap_cost += self.machine.superstep_time(&[], &r.comm).total_time();
        }
        self.report.remaps += 1;
        self.report.remap_elements += remap_elements;
        self.report.events.push(AdaptEvent {
            timestep,
            arrays: names,
            candidate: cand.label,
            observed_imbalance: imb,
            cost_stay,
            cost_candidate: cost_cand,
            remap_cost,
            remap_elements,
            predicted_gain: gain,
            realized_cost: None,
        });
        self.pending_realized = Some(self.report.events.len() - 1);
        self.samples_since_change = 0;
        self.steps_since_remap = 0;
        self.remapped_once = true;
        self.ring_len = 0;
        self.ring_pos = 0;
        self.window.clear();
        Ok(true)
    }

    /// Modeled cost (µs) of one timestep under the program's *current*
    /// mappings, plus the analyses it was computed from.
    fn price_current(&self, program: &Program) -> (f64, Vec<CommAnalysis>) {
        let mappings: Vec<Arc<EffectiveDist>> =
            program.arrays.iter().map(|a| a.mapping().clone()).collect();
        let analyses: Vec<CommAnalysis> = program
            .statements()
            .iter()
            .map(|s| comm_analysis(&mappings, program.np(), s))
            .collect();
        (Program::price(&analyses, &self.machine).0, analyses)
    }

    /// Modeled cost (µs) of one timestep with the arrays in `group`
    /// moved onto `mapping` and everything else unchanged.
    fn price_with(
        &self,
        program: &Program,
        group: &[usize],
        mapping: &Arc<EffectiveDist>,
    ) -> f64 {
        let mut mappings: Vec<Arc<EffectiveDist>> =
            program.arrays.iter().map(|a| a.mapping().clone()).collect();
        for &k in group {
            mappings[k] = mapping.clone();
        }
        let analyses: Vec<CommAnalysis> = program
            .statements()
            .iter()
            .map(|s| comm_analysis(&mappings, program.np(), s))
            .collect();
        Program::price(&analyses, &self.machine).0
    }

    /// Candidate remappings for the group represented by array `rep`:
    /// a measured-load-balanced `GENERAL_BLOCK`, uniform `BLOCK`
    /// re-blocking, `CYCLIC(k)` re-blocking, and (rank 2) distributing a
    /// different dimension or a `p1×p2` processor grid. Arrays with
    /// aligned (non-direct) or `INDIRECT` mappings yield no candidates.
    fn candidates_for(&self, program: &Program, rep: usize, np: usize) -> Vec<Candidate> {
        let arr = &program.arrays[rep];
        let Some(direct) = arr.mapping().as_direct() else {
            return Vec::new();
        };
        let domain = arr.domain();
        let rank = domain.rank();
        let mut current: Vec<FormatSpec> = Vec::with_capacity(rank);
        for f in direct.dim_formats() {
            match f.as_ref().map(dim_format_spec) {
                Some(Some(spec)) => current.push(spec),
                _ => return Vec::new(),
            }
        }
        let dist_dims: Vec<usize> = current
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_collapsed())
            .map(|(d, _)| d)
            .collect();
        let mut out = Vec::new();
        let mut push = |label: String, formats: Vec<FormatSpec>, grid: Option<(usize, usize)>| {
            if formats == current {
                return;
            }
            if let Ok(m) = build_mapping(arr.name(), domain, &formats, np, grid) {
                out.push(Candidate { label, mapping: m });
            }
        };

        if let [d] = dist_dims[..] {
            let n = domain.extent(d);
            // fit GENERAL_BLOCK to the observed per-rank load
            if let Some(weights) = self.dim_weights(program, arr.mapping(), d, np) {
                if let Ok(gb) = GeneralBlock::balanced(&weights, np) {
                    let bounds: Vec<i64> = (1..np).map(|j| gb.bound(j)).collect();
                    let mut f = current.clone();
                    f[d] = FormatSpec::GeneralBlock(bounds);
                    push(format!("GENERAL_BLOCK(balanced)@dim{d}"), f, None);
                }
            }
            let mut f = current.clone();
            f[d] = FormatSpec::Block;
            push(format!("BLOCK@dim{d}"), f, None);
            // aim for ~4 blocks per processor, but cap the block size: a
            // CYCLIC(k) preimage is k triplets per processor, so pricing
            // and inspection cost grow with k — large k is nearly BLOCK
            // anyway, and the GENERAL_BLOCK candidate covers that regime
            let k = (n.div_ceil(np * 4)).clamp(1, 64) as u64;
            let mut f = current.clone();
            f[d] = FormatSpec::Cyclic(k);
            push(format!("CYCLIC({k})@dim{d}"), f, None);
            if rank == 2 {
                let other = 1 - d;
                let mut f = vec![FormatSpec::Collapsed; 2];
                f[other] = FormatSpec::Block;
                push(format!("BLOCK@dim{other}"), f, None);
                if let Some((p1, p2)) = grid_shape(np) {
                    push(
                        format!("GRID {p1}x{p2} BLOCK,BLOCK"),
                        vec![FormatSpec::Block, FormatSpec::Block],
                        Some((p1, p2)),
                    );
                }
            }
        } else if dist_dims.len() == 2 && rank == 2 {
            // grid-distributed today: offer collapsing onto each single dim
            for d in 0..2 {
                let mut f = vec![FormatSpec::Collapsed; 2];
                f[d] = FormatSpec::Block;
                push(format!("BLOCK@dim{d}"), f, None);
            }
        }
        out
    }

    /// Per-position weights along dimension `d` for fitting a
    /// `GENERAL_BLOCK` to the load. Positions a statement *writes* —
    /// where owner-computes places the work — weigh up to ~1000× the
    /// positions that are merely stored, so the fit tracks the active
    /// sections exactly. This stays sharp when the hot region sits
    /// inside a single processor's chunk, which no owner-granular
    /// signal can subdivide; when no statement's written footprint
    /// lands on this domain, fall back to spreading each owner's
    /// observed cost rate over its span ([`Self::owner_rate_weights`]).
    /// `None` until at least one timestep has been observed — the
    /// controller proposes fits only for workloads it has watched run.
    fn dim_weights(
        &self,
        program: &Program,
        map: &Arc<EffectiveDist>,
        d: usize,
        np: usize,
    ) -> Option<Vec<u64>> {
        if self.ewma_ns.iter().sum::<f64>() <= 0.0
            && self.ewma_loads.iter().sum::<f64>() <= 0.0
        {
            return None;
        }
        let domain = map.domain();
        let n = domain.extent(d);
        let lower = domain.lower(d);
        let stride = domain.dim(d).stride().abs().max(1);
        let mut activity = vec![0u64; n];
        for s in program.statements() {
            if program.arrays[s.lhs].domain() != domain {
                continue;
            }
            let t = s.lhs_section.dims()[d].as_triplet();
            for k in 0..t.len() {
                let Some(v) = t.nth(k) else { break };
                let pos = (v - lower) / stride;
                if (0..n as i64).contains(&pos) {
                    activity[pos as usize] += 1;
                }
            }
        }
        let max = *activity.iter().max().unwrap_or(&0);
        if max == 0 {
            return self.owner_rate_weights(map, d, np);
        }
        Some(activity.iter().map(|&a| a * 1000 / max + 1).collect())
    }

    /// The fallback load model: each position inherits its current
    /// owner's observed cost *rate* (measured-EWMA time per owned
    /// element, modeled-load fallback), normalized to `1..=1001`.
    fn owner_rate_weights(
        &self,
        map: &Arc<EffectiveDist>,
        d: usize,
        np: usize,
    ) -> Option<Vec<u64>> {
        let sample: &[f64] = if self.ewma_ns.iter().sum::<f64>() > 100_000.0 {
            &self.ewma_ns
        } else if self.ewma_loads.iter().sum::<f64>() > 0.0 {
            &self.ewma_loads
        } else {
            return None;
        };
        let domain = map.domain();
        let n = domain.extent(d);
        let lower = domain.lower(d);
        let stride = domain.dim(d).stride().abs().max(1);
        let mut owner_of = vec![0usize; n];
        let mut count = vec![0u64; np];
        for p in 1..=np as u32 {
            for idx in map.owned_region(ProcId(p)).iter() {
                let pos = ((idx[d] - lower) / stride) as usize;
                if pos < n {
                    owner_of[pos] = (p - 1) as usize;
                }
                count[(p - 1) as usize] += 1;
            }
        }
        let rate = |p: usize| -> f64 {
            if count[p] == 0 {
                0.0
            } else {
                sample.get(p).copied().unwrap_or(0.0) / count[p] as f64
            }
        };
        let max_rate = (0..np).map(rate).fold(0.0f64, f64::max);
        if max_rate <= 0.0 {
            return None;
        }
        Some(
            owner_of
                .iter()
                .map(|&p| (rate(p) / max_rate * 1000.0) as u64 + 1)
                .collect(),
        )
    }
}

/// `max/mean` of a non-negative sample; `1.0` when degenerate.
fn imbalance_of(sample: impl Iterator<Item = f64>, np: usize) -> f64 {
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    for v in sample {
        max = max.max(v);
        sum += v;
    }
    if sum <= 0.0 || np == 0 {
        return 1.0;
    }
    max / (sum / np as f64)
}

/// Convert a normalized [`DimFormat`] back to the [`FormatSpec`] that
/// produces it (`None` for `INDIRECT`, which the controller leaves
/// alone).
fn dim_format_spec(f: &DimFormat) -> Option<FormatSpec> {
    match f {
        DimFormat::Block => Some(FormatSpec::Block),
        DimFormat::BlockBalanced => Some(FormatSpec::BlockBalanced),
        DimFormat::Cyclic(k) => Some(FormatSpec::Cyclic(*k)),
        DimFormat::Collapsed => Some(FormatSpec::Collapsed),
        DimFormat::GeneralBlock(g) => {
            let bounds: Vec<i64> = (1..g.np()).map(|j| g.bound(j)).collect();
            Some(FormatSpec::GeneralBlock(bounds))
        }
        DimFormat::Indirect(_) => None,
    }
}

/// The near-square factorization of `np` (both factors > 1), if any.
fn grid_shape(np: usize) -> Option<(usize, usize)> {
    let mut best = None;
    let mut p = 2;
    while p * p <= np {
        if np % p == 0 {
            best = Some((p, np / p));
        }
        p += 1;
    }
    best
}

/// Build a fresh direct mapping of `formats` over `domain` — onto the
/// implicit 1-D arrangement, or onto a `p1×p2` grid when two dimensions
/// are distributed.
fn build_mapping(
    name: &str,
    domain: &IndexDomain,
    formats: &[FormatSpec],
    np: usize,
    grid: Option<(usize, usize)>,
) -> Result<Arc<EffectiveDist>, HpfError> {
    let mut ds = DataSpace::new(np);
    let id = ds.declare(name, domain.clone())?;
    let spec = match grid {
        Some((p1, p2)) => {
            ds.declare_processors(
                "ADAPT_GRID",
                IndexDomain::of_shape(&[p1, p2])
                    .map_err(|e| HpfError::BadGeneralBlock(e.to_string()))?,
            )?;
            DistributeSpec::to(formats.to_vec(), "ADAPT_GRID")
        }
        None => DistributeSpec::new(formats.to_vec()),
    };
    ds.set_dynamic(id);
    ds.redistribute(id, &spec)?;
    ds.effective(id)
}

/// Partition the program's arrays into groups sharing domain and
/// (structurally) mapping — the unit a remap applies to, so aligned
/// same-shape operands move together and stay aligned.
fn same_mapping_groups(program: &Program) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut used: Vec<bool> = vec![false; program.arrays.len()];
    // only group arrays a statement actually touches
    let mut touched = vec![false; program.arrays.len()];
    for s in program.statements() {
        touched[s.lhs] = true;
        for t in &s.terms {
            touched[t.array] = true;
        }
    }
    for k in 0..program.arrays.len() {
        if used[k] || !touched[k] {
            continue;
        }
        let mut group = vec![k];
        used[k] = true;
        for j in k + 1..program.arrays.len() {
            if used[j] || !touched[j] {
                continue;
            }
            if program.arrays[k].domain() == program.arrays[j].domain()
                && program.arrays[k].mapping().matches(program.arrays[j].mapping())
            {
                group.push(j);
                used[j] = true;
            }
        }
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, Combine, Term};
    use crate::{Backend, DistArray};
    use hpf_index::{span, Section};

    // large enough that rebalancing the hotspot's compute pays for the
    // extra message latency under the default iPSC-class cost model
    const N: usize = 65_536;
    const NP: usize = 4;

    fn mapped(name: &str, fmt: FormatSpec) -> DistArray<f64> {
        let mut ds = DataSpace::new(NP);
        let id = ds.declare(name, IndexDomain::of_shape(&[N]).unwrap()).unwrap();
        ds.distribute(id, &DistributeSpec::new(vec![fmt])).unwrap();
        DistArray::from_fn(name, ds.effective(id).unwrap(), NP, |i| i[0] as f64)
    }

    /// A program whose single statement only writes the first quarter of
    /// the domain: under BLOCK, processor 1 does all the work.
    fn hotspot_program() -> Program {
        let mut prog = Program::new(vec![
            mapped("A", FormatSpec::Block),
            mapped("B", FormatSpec::Block),
        ]);
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        let q = (N / 4) as i64;
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, q)]),
            vec![
                Term::new(0, Section::from_triplets(vec![span(1, q - 1)])),
                Term::new(1, Section::from_triplets(vec![span(2, q)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        prog.push(stmt).unwrap();
        prog
    }

    fn warmed_controller(policy: AdaptPolicy, prog: &mut Program) -> AdaptController {
        let mut ctrl = AdaptController::new(policy, Machine::simple(NP));
        for _ in 0..3 {
            prog.step(Backend::SharedMem, 1, true).unwrap();
            ctrl.observe(prog);
        }
        ctrl
    }

    #[test]
    fn remap_taken_on_predicted_win() {
        let mut prog = hotspot_program();
        let mut ctrl = warmed_controller(AdaptPolicy::aggressive(), &mut prog);
        assert!(ctrl.report().last_imbalance <= 1.0); // not yet computed
        let did = ctrl.decide(&mut prog, 3).unwrap();
        assert!(did, "all work on one of four processors must trigger a remap");
        let rep = ctrl.report();
        assert_eq!(rep.remaps, 1);
        assert!(rep.last_imbalance > 1.5, "imbalance was {}", rep.last_imbalance);
        let e = &rep.events[0];
        assert!(
            e.cost_candidate < e.cost_stay,
            "candidate {:.1} must be cheaper than stay {:.1}",
            e.cost_candidate,
            e.cost_stay
        );
        assert!(e.predicted_gain > 0.0);
        assert!(e.remap_elements > 0, "a real remap moves data");
        // program still runs and values stay correct vs a never-adapted twin
        let mut twin = hotspot_program();
        for _ in 0..3 {
            twin.step(Backend::SharedMem, 1, true).unwrap(); // match the controller's warm-up steps
        }
        for _ in 0..3 {
            prog.step(Backend::SharedMem, 1, true).unwrap();
            twin.step(Backend::SharedMem, 1, true).unwrap();
        }
        assert_eq!(prog.arrays[0].to_dense(), twin.arrays[0].to_dense());
    }

    #[test]
    fn remap_refused_under_cooldown() {
        let mut prog = hotspot_program();
        let policy = AdaptPolicy { cooldown: 1_000, ..AdaptPolicy::aggressive() };
        let mut ctrl = warmed_controller(policy, &mut prog);
        assert!(ctrl.decide(&mut prog, 3).unwrap(), "first remap proceeds");
        // keep the workload imbalanced enough to want a second remap:
        // remap back by hand to the bad BLOCK mapping, so the controller
        // sees the same hotspot again — but the cooldown must refuse it.
        let mut ds = DataSpace::new(NP);
        let a = ds.declare("A", IndexDomain::of_shape(&[N]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        let block = ds.effective(a).unwrap();
        prog.remap(0, block.clone()).unwrap();
        prog.remap(1, block).unwrap();
        for _ in 0..3 {
            prog.step(Backend::SharedMem, 1, true).unwrap();
            ctrl.observe(&prog);
        }
        let did = ctrl.decide(&mut prog, 6).unwrap();
        assert!(!did, "cooldown must refuse the second remap");
        assert_eq!(ctrl.report().refused_cooldown, 1);
        assert_eq!(ctrl.report().remaps, 1);
    }

    #[test]
    fn remap_refused_inside_hysteresis_margin() {
        // balanced workload: full-domain sweep under BLOCK is already
        // near-optimal, so any candidate's win (if any) is marginal —
        // with a huge hysteresis margin and a forced-open imbalance
        // gate, the controller must hold still.
        let mut prog = hotspot_program();
        let policy = AdaptPolicy {
            hysteresis: 0.95,
            ..AdaptPolicy::aggressive()
        };
        let mut ctrl = warmed_controller(policy, &mut prog);
        let did = ctrl.decide(&mut prog, 3).unwrap();
        assert!(!did, "a 95% required margin must refuse the remap");
        let rep = ctrl.report();
        assert_eq!(rep.remaps, 0);
        assert_eq!(rep.refused_hysteresis, 1, "{rep:?}");
    }

    #[test]
    fn balanced_workload_left_alone() {
        // full-domain uniform sweep: BLOCK is balanced; the imbalance
        // gate must keep the controller from even pricing.
        let mut prog = Program::new(vec![
            mapped("A", FormatSpec::Block),
            mapped("B", FormatSpec::Block),
        ]);
        let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, N as i64)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, N as i64)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        prog.push(stmt).unwrap();
        let mut ctrl = warmed_controller(AdaptPolicy::default(), &mut prog);
        for t in 0..5 {
            assert!(!ctrl.decide(&mut prog, t).unwrap());
            prog.step(Backend::SharedMem, 1, true).unwrap();
            ctrl.observe(&prog);
        }
        let rep = ctrl.report();
        assert_eq!(rep.remaps, 0);
        assert!(
            rep.last_imbalance < AdaptPolicy::default().min_imbalance,
            "uniform sweep must read balanced, got {}",
            rep.last_imbalance
        );
    }

    #[test]
    fn realized_cost_settles_after_window_refills() {
        let mut prog = hotspot_program();
        let mut ctrl = warmed_controller(AdaptPolicy::aggressive(), &mut prog);
        assert!(ctrl.decide(&mut prog, 3).unwrap());
        assert_eq!(ctrl.report().events[0].realized_cost, None);
        prog.step(Backend::SharedMem, 1, true).unwrap();
        ctrl.observe(&prog);
        let _ = ctrl.decide(&mut prog, 4).unwrap();
        let e = &ctrl.report().events[0];
        let realized = e.realized_cost.expect("window refilled");
        // the modeled prediction must have been honest: realized cost
        // matches the candidate's priced cost (same model, same mapping)
        assert!(
            (realized - e.cost_candidate).abs() < 1e-6 * e.cost_candidate.max(1.0),
            "realized {realized} vs predicted {}",
            e.cost_candidate
        );
    }

    #[test]
    fn candidate_pricing_is_hand_checkable() {
        // under BLOCK all 2·(N/4) element-ops land on processor 1 and no
        // message crosses a boundary, so stay ≈ 2·(N/4)·flop; the
        // balanced GENERAL_BLOCK quarters the compute makespan for a few
        // boundary messages — the machine model must price both that way
        let mut prog = hotspot_program();
        let ctrl = warmed_controller(AdaptPolicy::aggressive(), &mut prog);
        let (stay, _) = ctrl.price_current(&prog);
        let flop = 0.05;
        let expect_stay = 2.0 * (N as f64 / 4.0) * flop;
        assert!(
            (stay - expect_stay).abs() < expect_stay * 0.05,
            "stay {stay} vs hand-priced {expect_stay}"
        );
        let groups = same_mapping_groups(&prog);
        assert_eq!(groups, vec![vec![0, 1]], "A and B move as one aligned group");
        let cands = ctrl.candidates_for(&prog, 0, NP);
        let gb = cands
            .iter()
            .find(|c| c.label.starts_with("GENERAL_BLOCK"))
            .expect("balanced candidate offered");
        let cost = ctrl.price_with(&prog, &groups[0], &gb.mapping);
        assert!(
            cost < stay / 2.0,
            "balanced candidate {cost} must beat stay {stay} by 2x+"
        );
    }

    #[test]
    fn moved_hotspot_triggers_second_remap() {
        // after the first fit, move the active section into the middle
        // of what is now one processor's chunk: the written-section
        // weights must subdivide that chunk and re-fit — a per-owner
        // load signal could never localize the new hotspot. The sweep
        // gathers 48 cells upwind so CYCLIC re-blocking (front-agnostic,
        // but mostly-remote reads) prices out and the front-*fitted*
        // GENERAL_BLOCK — the mapping that goes stale when the front
        // moves — wins round one.
        const REACH: i64 = 48;
        let front = |prog: &Program, lo: i64, hi: i64| {
            let doms: Vec<&IndexDomain> =
                prog.arrays.iter().map(|a| a.domain()).collect();
            Assignment::new(
                0,
                Section::from_triplets(vec![span(lo, hi)]),
                vec![
                    Term::new(0, Section::from_triplets(vec![span(lo - REACH, hi - REACH)])),
                    Term::new(1, Section::from_triplets(vec![span(lo, hi)])),
                ],
                Combine::Sum,
                &doms,
            )
            .unwrap()
        };
        let mut prog = Program::new(vec![
            mapped("A", FormatSpec::Block),
            mapped("B", FormatSpec::Block),
        ]);
        let stmt = front(&prog, REACH + 2, N as i64 / 4);
        prog.push(stmt).unwrap();
        let mut ctrl = warmed_controller(AdaptPolicy::aggressive(), &mut prog);
        assert!(ctrl.decide(&mut prog, 3).unwrap());
        assert!(
            ctrl.report().events[0].candidate.starts_with("GENERAL_BLOCK"),
            "wide-reach sweep must pick the front-fitted mapping: {:?}",
            ctrl.report().events
        );

        let stmt = front(&prog, 3 * N as i64 / 4, N as i64 - 2);
        prog.set_statements(vec![stmt]).unwrap();
        for _ in 0..3 {
            prog.step(Backend::SharedMem, 1, true).unwrap();
            ctrl.observe(&prog);
        }
        assert!(
            ctrl.decide(&mut prog, 6).unwrap(),
            "the moved hotspot must re-trigger: {:?}",
            ctrl.report()
        );
        let rep = ctrl.report();
        assert_eq!(rep.remaps, 2);
        // and the second fit really balanced the new front
        prog.step(Backend::SharedMem, 1, true).unwrap();
        let imb = imbalance_of(
            prog.stats().rank_loads.iter().map(|&x| x as f64),
            NP,
        );
        assert!(imb < 1.2, "refit must balance the moved front, got {imb:.2}");
    }

    #[test]
    fn grid_shape_prefers_near_square() {
        assert_eq!(grid_shape(4), Some((2, 2)));
        assert_eq!(grid_shape(12), Some((3, 4)));
        assert_eq!(grid_shape(7), None);
        assert_eq!(grid_shape(1), None);
    }
}
