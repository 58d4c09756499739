//! The workloads and the runs that measure them.
//!
//! Every workload is a closed loop: one caller, one solve at a time, one
//! solver thread; only the traced run's socket probe spawns worker
//! processes, two of them. Both workloads start from the
//! paper's scenario ([`SCENARIO_SEED`]); the benchmark seed perturbs each
//! hour's arrivals and grid prices by up to [`SEED_JITTER`], so every seed
//! gives different instances of equal difficulty. The solver sees only the
//! generated hourly instances.
//!
//! * `week_paper` — 168 consecutive hours at paper size (10 front-ends ×
//!   4 datacenters, default settings), each warm-started from the previous
//!   hour's final iterate: the receding-horizon loop an operator runs. Small
//!   blocks, so per-solve fixed costs dominate.
//! * `wide_32x8` — the 12 hours from 20:00 on the first evening widened to
//!   32 × 8, solved cold with factorization caching, rank-1 KKT updates and
//!   blocked factorizations. Each datacenter's a-QP has 32 variables
//!   against 10 at paper size and takes about half of each iteration, so
//!   block-kernel work shows here. The size keeps a pass near a sixth of a
//!   second, so a run repeats each hour hundreds of times (see below). Over
//!   these hours the mean iteration count moves by a few percent between
//!   seeds; over the night alone or a whole day it moved by over 10%.
//!
//! The socket engine has no workload of its own: every traced run measures
//! it with a socket-versus-in-process probe on the workload's own hours.
//!
//! Each run solves whole passes over its hours until `--seconds` have
//! passed, so every hour is solved many times and every solve of an hour
//! repeats the first bit for bit. Since the work of an hour's repeats is
//! identical, their times differ only by interference, which only ever adds
//! time: on a shared host other tenants slow the same code by up to 2×, in
//! spells from a fraction of a second to minutes. Each hour's time is
//! therefore its fastest repeat, taken piece by piece: a cold solve is timed
//! in segments (up to the end of the first iteration, each further
//! iteration, and the rest of the call), each segment keeps its fastest
//! repeat, and the hour's time is their sum; a warm-started solve has no
//! observer hook and is one segment. Short segments fit into the short gaps
//! between spells, which whole solves rarely do. A segment's fastest repeat
//! only settles after some tens of repeats, so every workload keeps its
//! passes short: at 128 × 8 a pass took 4 s, a run repeated each hour about
//! a dozen times, and the same code's figures moved by a third from run to
//! run. The timing metrics are built from the hours' times:
//! their median, the hours per second of their sum, and their sum per
//! iteration. `setup_s` follows the same rule: instance builds are timed in
//! batches, at set-up and after every pass, and the fastest batch counts.
//!
//! A solve fails if it errors, stops unconverged, leaves a feasibility
//! residual above 1e-6, differs from the first solve of its hour, or fails
//! its workload's output check; a failed solve is never a timing sample.

use std::path::PathBuf;
use std::time::Instant;

use ufc_core::centralized::{self, Backend};
use ufc_core::engine::{IterationEvent, IterationObserver};
use ufc_core::{
    AdmgSettings, AdmgSolution, AdmgSolver, AdmgState, Phase, RunTelemetry, SolverCounters,
    Strategy, SubproblemMethod,
};
use ufc_distsim::SocketOptions;
use ufc_experiments::solver_bench::admg_scaling_sized;
use ufc_model::scenario::ScenarioBuilder;
use ufc_model::{evaluate, OperatingPoint, UfcInstance};

use crate::host::peak_rss_mb;
use crate::json::Metric;
use crate::layers::{
    add_counters, distsim_probe, projection_ns, ratio, replay_kernels, seeded_vector, wire_costs,
};
use crate::stats::{beyond, median, ns_per_call, quantile};
use crate::trace::{Breakdown, PhaseRecorder, Tracer};

/// Worker processes of the traced run's socket probe.
pub const SOCKET_PROCESSES: usize = 2;

/// Largest feasibility residual a solution may leave.
pub const FEASIBILITY_TOL: f64 = 1e-6;

/// Relative UFC gap allowed against the centralized active-set optimum.
pub const ORACLE_REL_TOL: f64 = 5e-3;

/// Relative UFC gap allowed between the active-set and FISTA inner solvers
/// on `wide_32x8`: the agreement the solver's own exact-versus-FISTA test
/// asserts. Both are converged ADM-G runs at the 1e-3 residual tolerances,
/// so their UFC can differ well above the inner solvers' own precision.
pub const FISTA_REL_TOL: f64 = 1e-3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm-started receding-horizon week at paper size.
    WeekPaper,
    /// Cold solves widened to 32 × 8 with every fast path on.
    Wide32x8,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::WeekPaper, Workload::Wide32x8];

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WeekPaper => "week_paper",
            Workload::Wide32x8 => "wide_32x8",
        }
    }

    /// Solver threads the workload asks for.
    #[must_use]
    pub fn solver_threads(self) -> usize {
        1
    }

    /// Worker processes a run spawns: only a traced run does, for its
    /// socket probe.
    #[must_use]
    pub fn worker_processes(self, trace: bool) -> usize {
        if trace {
            SOCKET_PROCESSES
        } else {
            0
        }
    }

    /// The workload's solver settings, set through the `with_*` builders.
    #[must_use]
    pub fn settings(self) -> AdmgSettings {
        let base = AdmgSettings::default().with_threads(self.solver_threads());
        match self {
            Workload::Wide32x8 => base
                .with_factorization_caching(true)
                .with_rank1_kkt(true)
                .with_blocked_factorizations(true),
            Workload::WeekPaper => base,
        }
    }
}

/// Sizes of the workloads. [`Scale::full`] is the benchmark; smaller scales
/// exist for the benchmark's own smoke tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Hours in the `week_paper` horizon.
    pub week_hours: usize,
    /// Front-ends of `wide_32x8`.
    pub wide_frontends: usize,
    /// Datacenters of `wide_32x8`.
    pub wide_datacenters: usize,
    /// First hour of the `wide_32x8` window.
    pub wide_first_hour: usize,
    /// Consecutive hours in one `wide_32x8` pass.
    pub wide_hours: usize,
    /// Instance builds in one timed batch; `setup_s` is the mean build
    /// time of the fastest batch.
    pub setup_batch: usize,
    /// Batches timed at set-up; one more follows every timed pass.
    pub setup_batches: usize,
    /// Hours the traced run's socket probe runs (paper-size workloads).
    pub probe_hours: usize,
    /// Iteration cap of the socket probe on `wide_32x8`.
    pub wide_probe_iterations: usize,
    /// Iteration counts at which states are captured for kernel replay.
    pub replay_iterations: Vec<usize>,
    /// Time budget of each micro-timing, in seconds.
    pub micro_budget_s: f64,
    /// Overrides the solver's iteration cap (smoke tests force
    /// unconverged solves with it).
    pub max_iterations: Option<usize>,
}

impl Scale {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Self {
        Scale {
            week_hours: 168,
            wide_frontends: 32,
            wide_datacenters: 8,
            wide_first_hour: 20,
            wide_hours: 12,
            setup_batch: 32,
            setup_batches: 9,
            probe_hours: 2,
            wide_probe_iterations: 20,
            replay_iterations: vec![1, 4, 16],
            micro_budget_s: 0.05,
            max_iterations: None,
        }
    }

    /// Tiny sizes for smoke tests.
    #[must_use]
    pub fn tiny() -> Self {
        Scale {
            week_hours: 3,
            wide_frontends: 12,
            wide_datacenters: 6,
            wide_first_hour: 0,
            wide_hours: 2,
            setup_batch: 2,
            setup_batches: 2,
            probe_hours: 1,
            wide_probe_iterations: 5,
            replay_iterations: vec![1, 3],
            micro_budget_s: 0.001,
            max_iterations: None,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Scenario seed.
    pub seed: u64,
    /// Measurement time, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// The worker binary the traced run's socket probe spawns.
    pub worker: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check ran and none failed.
    pub correct: bool,
    /// Solves attempted (timed and traced).
    pub attempted: u64,
    /// Solves that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Traced run: the spans, as JSON lines.
    pub spans_jsonl: Option<String>,
    /// Traced run: totals over the workload's solve trees.
    pub breakdown: Option<Breakdown>,
    /// Traced run: iterations of the traced solves.
    pub traced_iterations: u64,
}

/// Name of the root span of one timed solve.
pub const SOLVE_SPAN: &str = "solve";

/// One solve's outcome, reduced to what the checks and metrics need.
struct Solved {
    iterations: usize,
    converged: bool,
    ufc: f64,
    feasibility: f64,
    state: AdmgState,
    point: OperatingPoint,
    counters: Option<SolverCounters>,
}

/// The solve every later solve of the same hour must reproduce bit for bit.
#[derive(Debug, Clone, Copy)]
struct Reference {
    iterations: usize,
    ufc: f64,
    ok: bool,
}

/// Notes the end of every iteration, splitting a solve's wall time into
/// segments that every repeat of the hour shares.
#[derive(Debug, Default)]
struct IterationClock {
    ends: Vec<Instant>,
}

impl IterationObserver for IterationClock {
    fn on_iteration(&mut self, _event: &IterationEvent) {
        self.ends.push(Instant::now());
    }
}

/// One timed solve.
#[derive(Debug, Clone, Copy)]
struct Sample {
    hour: usize,
    ns: u64,
    iterations: usize,
    ok: bool,
    traced: bool,
}

/// Lays the phase totals of a warm-started solve end to end inside its
/// solve span. The public API has no observer hook on warm starts, so these
/// spans come from the solver's own phase telemetry.
fn push_telemetry_phases(tracer: &mut Tracer, root: usize, telemetry: &RunTelemetry) {
    let mut cursor = tracer.spans()[root].start_ns;
    for (k, phase) in Phase::ALL.iter().enumerate() {
        let ns = u64::try_from(telemetry.phases[k].total_ns()).unwrap_or(u64::MAX);
        tracer.push(Some(root), phase.name(), cursor, cursor + ns);
        cursor += ns;
    }
}

impl Solved {
    fn new(s: AdmgSolution, instance: &UfcInstance) -> Self {
        Solved {
            iterations: s.iterations,
            converged: s.converged,
            ufc: s.breakdown.ufc(),
            feasibility: s.point.feasibility_residual(instance),
            state: s.state,
            point: s.point,
            counters: s.telemetry.map(|t| t.solver),
        }
    }
}

/// Solves `instance` (warm-started from `start` when given), timing the
/// call in segments that sum to its wall time: one per iteration on an
/// untraced cold solve (see the module docs), one for the whole call
/// otherwise. With a tracer, the call is a [`SOLVE_SPAN`] root span with the
/// driver phases as its children. The checks' inputs are computed after the
/// clock stops.
fn solve(
    solver: &AdmgSolver,
    instance: &UfcInstance,
    start: Option<AdmgState>,
    tracer: Option<&mut Tracer>,
) -> (Vec<u64>, Result<Solved, String>) {
    let strategy = Strategy::Hybrid;
    let mut clock = IterationClock::default();
    let t = Instant::now();
    let output = match tracer {
        None => match start {
            Some(s) => solver.solve_warm(instance, strategy, s),
            None => solver.solve_observed(instance, strategy, &mut clock),
        },
        Some(tracer) => {
            let root = tracer.open(SOLVE_SPAN);
            let r = match start {
                Some(s) => solver.solve_warm(instance, strategy, s).inspect(|sol| {
                    if let Some(tel) = &sol.telemetry {
                        push_telemetry_phases(tracer, root, tel);
                    }
                }),
                None => {
                    solver.solve_observed(instance, strategy, &mut PhaseRecorder::new(tracer, root))
                }
            };
            tracer.close(root);
            r
        }
    };
    let end = Instant::now();
    let mut segments = Vec::with_capacity(clock.ends.len() + 1);
    let mut from = t;
    for to in clock.ends.into_iter().chain([end]) {
        segments.push(u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX));
        from = to;
    }
    (
        segments,
        output
            .map(|o| Solved::new(o, instance))
            .map_err(|e| e.to_string()),
    )
}

/// Checks one solve and, for the first solve of an hour, makes it the
/// hour's reference.
fn judge(solved: &Result<Solved, String>, reference: &mut Option<Reference>) -> bool {
    let Ok(s) = solved else {
        return false;
    };
    let ok = s.converged && s.feasibility <= FEASIBILITY_TOL;
    match reference {
        Some(r) => ok && r.iterations == s.iterations && r.ufc.to_bits() == s.ufc.to_bits(),
        None => {
            *reference = Some(Reference {
                iterations: s.iterations,
                ufc: s.ufc,
                ok,
            });
            ok
        }
    }
}

fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// Seed of the paper's scenario (`ScenarioBuilder::paper_default`): the
/// sites, capacities and traces every workload starts from.
pub const SCENARIO_SEED: u64 = 2012;

/// Largest relative change the benchmark seed makes to an arrival rate or a
/// grid price.
pub const SEED_JITTER: f64 = 0.01;

/// Perturbs every hour's arrivals and grid prices by up to
/// [`SEED_JITTER`], drawn from `seed`. Different seeds give different
/// instances of the same scenario — same sites, same hours, same difficulty
/// — so runs on different seeds measure the same work.
fn perturb(instances: &mut [UfcInstance], seed: u64) {
    let per_hour = instances
        .first()
        .map_or(0, |i| i.m_frontends() + i.n_datacenters());
    let noise = seeded_vector(seed, per_hour * instances.len());
    for (inst, u) in instances.iter_mut().zip(noise.chunks(per_hour.max(1))) {
        let (ua, up) = u.split_at(inst.m_frontends());
        for (a, e) in inst.arrivals.iter_mut().zip(ua) {
            *a *= 1.0 + SEED_JITTER * e;
        }
        for (p, e) in inst.grid_price.iter_mut().zip(up) {
            *p *= 1.0 + SEED_JITTER * e;
        }
    }
}

/// Builds the workload's instances from the seed.
fn build_instances(cfg: &Config) -> Result<Vec<UfcInstance>, String> {
    let s = &cfg.scale;
    let mut instances = match cfg.workload {
        Workload::WeekPaper => {
            ScenarioBuilder::paper_default()
                .seed(SCENARIO_SEED)
                .hours(s.week_hours)
                .build()
                .map_err(|e| e.to_string())?
                .instances
        }
        Workload::Wide32x8 => {
            let mut hours = admg_scaling_sized(
                SCENARIO_SEED,
                s.wide_first_hour + s.wide_hours,
                s.wide_frontends,
                s.wide_datacenters,
            )
            .map_err(|e| e.to_string())?;
            hours.drain(..s.wide_first_hour);
            hours
        }
    };
    perturb(&mut instances, cfg.seed);
    Ok(instances)
}

/// Everything a run sets up before it measures.
struct Setup {
    instances: Vec<UfcInstance>,
    settings: AdmgSettings,
    options: SocketOptions,
    /// Time of one instance build (fastest batch so far), in nanoseconds.
    build_ns: f64,
}

/// Times `batches` batches of instance builds and returns the time of one
/// build in the fastest, in nanoseconds. A build takes well under a
/// millisecond, so single builds would measure the clock and the scheduler
/// more than the build.
fn time_builds(cfg: &Config, batches: usize) -> f64 {
    ns_per_call(cfg.scale.setup_batch, batches, 0.0, || {
        std::hint::black_box(build_instances(cfg).expect("the instances built once"));
    })
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let instances = build_instances(cfg)?;
    let s = &cfg.scale;
    let build_ns = time_builds(cfg, s.setup_batches);
    let mut settings = cfg.workload.settings();
    if let Some(k) = s.max_iterations {
        settings = AdmgSettings {
            max_iterations: k,
            ..settings
        };
    }
    Ok(Setup {
        instances,
        settings,
        options: SocketOptions::new(&cfg.worker).with_processes(SOCKET_PROCESSES),
        build_ns,
    })
}

/// The state of a run's measurement: references, samples and the traced
/// run's extras.
struct Run<'a> {
    cfg: &'a Config,
    setup: &'a Setup,
    references: Vec<Option<Reference>>,
    samples: Vec<Sample>,
    first_point: Option<OperatingPoint>,
    counters: SolverCounters,
    checks: Vec<String>,
    /// Passes the timed loop has finished.
    passes: usize,
    /// Per hour: the fastest time of each segment over the hour's valid
    /// untraced solves, in nanoseconds, and the solves' iterations.
    fastest: Vec<Option<(Vec<u64>, usize)>>,
    /// Time of one instance build in the fastest batch, in nanoseconds.
    build_ns: f64,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a Config, setup: &'a Setup) -> Self {
        Run {
            cfg,
            setup,
            references: vec![None; setup.instances.len()],
            samples: Vec::new(),
            first_point: None,
            counters: SolverCounters::default(),
            checks: Vec::new(),
            passes: 0,
            fastest: vec![None; setup.instances.len()],
            build_ns: setup.build_ns,
        }
    }

    fn warm_chain(&self) -> bool {
        self.cfg.workload == Workload::WeekPaper
    }

    /// Judges one solve, records it as a sample when `timed` (and its
    /// segments when it is also untraced and valid), and returns the state
    /// the next hour of a warm chain starts from.
    fn record(
        &mut self,
        hour: usize,
        segments: &[u64],
        solved: Result<Solved, String>,
        timed: Option<bool>,
    ) -> Option<AdmgState> {
        let ok = judge(&solved, &mut self.references[hour]);
        let ns = segments.iter().sum();
        if let (Some(false), true, Ok(s)) = (timed, ok, &solved) {
            // Valid repeats of an hour are bit-identical, so their segments
            // line up one to one.
            match &mut self.fastest[hour] {
                Some((best, _)) => {
                    for (b, &x) in best.iter_mut().zip(segments) {
                        *b = (*b).min(x);
                    }
                }
                None => self.fastest[hour] = Some((segments.to_vec(), s.iterations)),
            }
        }
        if let Some(traced) = timed {
            self.samples.push(Sample {
                hour,
                ns,
                iterations: solved.as_ref().map_or(0, |s| s.iterations),
                ok,
                traced,
            });
        }
        let solved = solved.ok()?;
        if let (Some(true), Some(c)) = (timed, &solved.counters) {
            add_counters(&mut self.counters, c);
        }
        if self.first_point.is_none() {
            self.first_point = Some(solved.point);
        }
        self.warm_chain().then_some(solved.state)
    }

    /// One untimed pass that fixes every hour's reference on `week_paper`,
    /// whose hours are cheap; `wide_32x8` takes its references from its
    /// first timed pass.
    fn reference_pass(&mut self) {
        if self.cfg.workload != Workload::WeekPaper {
            return;
        }
        let solver = AdmgSolver::new(self.setup.settings);
        let mut state = None;
        for h in 0..self.setup.instances.len() {
            let (segments, solved) = solve(&solver, &self.setup.instances[h], state.take(), None);
            state = self.record(h, &segments, solved, None);
        }
    }

    /// The timed loop shared by both runs: passes over every hour until
    /// `seconds` have passed (whole passes only, so per-pass counts repeat
    /// exactly). With `traced`, each hour is solved untraced and then
    /// traced, and the summed times of the two feed `trace.overhead_frac`.
    fn measure(&mut self, mut tracer: Option<&mut Tracer>) -> (f64, f64, f64) {
        let plain = AdmgSolver::new(self.setup.settings);
        let traced_solver = AdmgSolver::new(self.setup.settings.with_telemetry(true));
        let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
        let start = Instant::now();
        loop {
            let (mut state_plain, mut state_traced) = (None, None);
            for h in 0..self.setup.instances.len() {
                let inst = &self.setup.instances[h];
                let (segments, solved) = solve(&plain, inst, state_plain.take(), None);
                plain_ns += segments.iter().sum::<u64>();
                state_plain = self.record(h, &segments, solved, Some(false));
                if let Some(tr) = tracer.as_deref_mut() {
                    let (segments, solved) =
                        solve(&traced_solver, inst, state_traced.take(), Some(tr));
                    traced_ns += segments.iter().sum::<u64>();
                    state_traced = self.record(h, &segments, solved, Some(true));
                }
            }
            self.passes += 1;
            // One batch of builds per pass, so the fastest batch is drawn
            // from the same spells of interference as the solves.
            self.build_ns = self.build_ns.min(time_builds(self.cfg, 1));
            if start.elapsed().as_secs_f64() >= self.cfg.seconds {
                break;
            }
        }
        (
            start.elapsed().as_secs_f64(),
            plain_ns as f64,
            traced_ns as f64,
        )
    }

    /// The workload's output check on the references; returns, per hour,
    /// whether it passed.
    fn check_outputs(&mut self) -> Result<Vec<bool>, String> {
        let instances = &self.setup.instances;
        let mut hour_ok: Vec<bool> = self
            .references
            .iter()
            .map(|r| r.is_some_and(|r| r.ok))
            .collect();
        match self.cfg.workload {
            Workload::WeekPaper => {
                let mut worst = 0.0f64;
                for (h, inst) in instances.iter().enumerate() {
                    let Some(r) = self.references[h] else {
                        continue;
                    };
                    let central = centralized::solve(inst, Strategy::Hybrid, Backend::ActiveSet)
                        .map_err(|e| format!("centralized oracle, hour {h}: {e}"))?;
                    let gap = rel_gap(r.ufc, central.breakdown.ufc());
                    worst = worst.max(gap);
                    hour_ok[h] &= gap < ORACLE_REL_TOL;
                }
                self.checks.push(format!(
                    "check: {} hours against the centralized active-set optimum, worst relative \
                     UFC gap {worst:.3e} (limit {ORACLE_REL_TOL:e})",
                    instances.len()
                ));
            }
            Workload::Wide32x8 => {
                // The FISTA inner solver takes over a second per hour at this
                // size, so a run checks one hour, picked by the seed: twelve
                // consecutive seeds check every hour.
                let h = (self.cfg.seed % instances.len() as u64) as usize;
                let fista =
                    AdmgSolver::new(self.setup.settings.with_method(SubproblemMethod::Fista))
                        .solve(&instances[h], Strategy::Hybrid)
                        .map_err(|e| format!("FISTA reference solve, hour {h}: {e}"))?;
                let gap =
                    self.references[h].map_or(f64::NAN, |r| rel_gap(r.ufc, fista.breakdown.ufc()));
                hour_ok[h] &= fista.converged && gap < FISTA_REL_TOL;
                self.checks.push(format!(
                    "check: hour {h} against the FISTA inner solver ({} iterations, converged {}), \
                     relative UFC gap {gap:.3e} (limit {FISTA_REL_TOL:e}); every hour converged, \
                     feasible and bit-identical across rounds",
                    fista.iterations, fista.converged
                ));
            }
        }
        Ok(hour_ok)
    }
}

/// Splits samples into valid timings and failures.
struct Tally {
    attempted: u64,
    failed: u64,
    ms: Vec<f64>,
    iterations: u64,
}

fn tally<'s>(samples: impl Iterator<Item = &'s Sample>, hour_ok: &[bool]) -> Tally {
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        ms: Vec::new(),
        iterations: 0,
    };
    for s in samples {
        t.attempted += 1;
        if s.ok && hour_ok[s.hour] {
            let ms = s.ns as f64 / 1e6;
            t.ms.push(ms);
            t.iterations += s.iterations as u64;
        } else {
            t.failed += 1;
        }
    }
    t
}

/// Runs one benchmark configuration.
///
/// # Errors
///
/// A set-up step, reference solve or probe that fails outright (failed
/// timed solves are counted, not raised).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let setup = setup(cfg)?;
    let mut run = Run::new(cfg, &setup);
    run.reference_pass();
    let mut tracer = Tracer::default();
    let (wall_s, plain_ns, traced_ns) = run.measure(cfg.trace.then_some(&mut tracer));
    // The peak of the timed loop, before the checks' oracle solves.
    let peak_rss = peak_rss_mb().unwrap_or(f64::NAN);
    let hour_ok = run.check_outputs()?;
    let all = tally(run.samples.iter(), &hour_ok);
    let mut notes = vec![format!(
        "workload {} seed {}: {} solves in {} passes, {wall_s:.3} s, failed_frac = {}/{} = {}",
        cfg.workload.name(),
        cfg.seed,
        all.attempted,
        run.passes,
        all.failed,
        all.attempted,
        all.failed as f64 / all.attempted.max(1) as f64
    )];
    notes.append(&mut run.checks);
    let report = |metrics, notes, spans_jsonl, breakdown, traced_iterations| Report {
        correct: all.failed == 0 && all.attempted > 0,
        attempted: all.attempted,
        failed: all.failed,
        metrics,
        notes,
        spans_jsonl,
        breakdown,
        traced_iterations,
    };
    if !cfg.trace {
        let n = all.ms.len();
        if n >= 100 && beyond(&all.ms, 0.9) >= 10 {
            notes.push(format!(
                "solve_ms_p90 = {} ms over {n} solves ({} beyond it)",
                quantile(&all.ms, 0.9),
                beyond(&all.ms, 0.9)
            ));
        } else {
            notes.push(format!(
                "solve_ms_p90 not reported: {n} solves leave fewer than 10 beyond it"
            ));
        }
        // Each hour's time: the sum of its segments' fastest repeats.
        let hours: Vec<(f64, usize)> = run
            .fastest
            .iter()
            .zip(&hour_ok)
            .filter(|(_, &ok)| ok)
            .filter_map(|(f, _)| f.as_ref())
            .map(|(segments, iterations)| (segments.iter().sum::<u64>() as f64 / 1e6, *iterations))
            .collect();
        let hour_ms: Vec<f64> = hours.iter().map(|h| h.0).collect();
        let total_ms: f64 = hour_ms.iter().sum();
        let hour_iterations: usize = hours.iter().map(|h| h.1).sum();
        let metrics = vec![
            Metric::new("setup_s", "s", run.build_ns / 1e9),
            Metric::new("solve_ms_p50", "ms", median(&hour_ms)),
            Metric::new("hours_per_s", "1/s", hour_ms.len() as f64 * 1e3 / total_ms),
            Metric::new(
                "ms_per_iter",
                "ms",
                total_ms / hour_iterations.max(1) as f64,
            ),
            Metric::new(
                "iters_per_solve",
                "count",
                all.iterations as f64 / n.max(1) as f64,
            ),
            Metric::new("peak_rss_mb", "MB", peak_rss),
        ];
        return Ok(report(metrics, notes, None, None, 0));
    }

    let traced = tally(run.samples.iter().filter(|s| s.traced), &hour_ok);
    let traced_iterations: u64 = run
        .samples
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.iterations as u64)
        .sum();
    let main = tracer.breakdown(SOLVE_SPAN);
    let mut metrics = Vec::new();
    let per_iter = |ns: u64, iters: u64| ns as f64 / 1e6 / iters.max(1) as f64;
    metrics.push(Metric::new(
        "core.solver.outside_drive_ms",
        "ms",
        main.root_self_ns as f64 / 1e6 / main.roots.max(1) as f64,
    ));
    for (k, phase) in Phase::ALL.iter().enumerate() {
        let phase = phase.name();
        metrics.push(Metric::new(
            format!("core.engine.{phase}.ms_per_iter"),
            "ms",
            per_iter(main.phase_ns[k], traced_iterations),
        ));
        metrics.push(Metric::new(
            format!("core.engine.{phase}.share"),
            "fraction",
            main.phase_ns[k] as f64 / main.root_ns.max(1) as f64,
        ));
    }

    let budget = cfg.scale.micro_budget_s;
    let kernels = replay_kernels(
        &setup.instances[0],
        &setup.settings,
        &cfg.scale.replay_iterations,
        budget,
    )?;
    metrics.extend(kernels.metrics());

    // The socket probe: paper-size workloads run whole hours; the wide
    // workload runs one hour capped at a few iterations, enough for
    // per-iteration figures.
    let (probe_instances, probe_settings) = match cfg.workload {
        Workload::Wide32x8 => (
            &setup.instances[..1],
            AdmgSettings {
                max_iterations: cfg.scale.wide_probe_iterations,
                ..setup.settings
            },
        ),
        Workload::WeekPaper => (
            &setup.instances[..cfg.scale.probe_hours.min(setup.instances.len())],
            setup.settings,
        ),
    };
    let probe = distsim_probe(
        probe_instances,
        &probe_settings,
        &setup.options,
        &mut tracer,
    )?;
    let mut counters = run.counters;
    add_counters(&mut counters, &probe.counters);
    let lookups = counters.kkt_cache_hits + counters.kkt_cache_misses;
    let offers = counters.warm_starts_accepted + counters.warm_starts_rejected;
    metrics.extend([
        Metric::new(
            "core.workspace.kkt_cache_hit_ratio",
            "fraction",
            ratio(counters.kkt_cache_hits, counters.kkt_cache_misses),
        ),
        Metric::new("core.workspace.kkt_cache_lookups", "count", lookups as f64),
        Metric::new(
            "core.workspace.warm_start_accept_ratio",
            "fraction",
            ratio(counters.warm_starts_accepted, counters.warm_starts_rejected),
        ),
        Metric::new("core.workspace.warm_start_offers", "count", offers as f64),
    ]);

    let (simplex_ns, capped_ns) = projection_ns(cfg.seed, budget);
    metrics.extend([
        Metric::new("opt.project_simplex_m128.ns", "ns", simplex_ns),
        Metric::new("opt.project_capped_simplex_m128.ns", "ns", capped_ns),
    ]);

    let point = run
        .first_point
        .clone()
        .ok_or("no solve returned a point to evaluate")?;
    let evaluate_ns = ns_per_call(16, 5, budget, || {
        std::hint::black_box(
            evaluate(&setup.instances[0], &point).expect("the point evaluated once"),
        );
    });
    metrics.extend([
        Metric::new("model.scenario_build_ms", "ms", run.build_ns / 1e6),
        Metric::new("model.evaluate_us", "us", evaluate_ns / 1e3),
    ]);

    metrics.extend(probe.metrics());
    metrics.extend(wire_costs(cfg.seed, budget).metrics());
    metrics.push(Metric::new(
        "trace.overhead_frac",
        "fraction",
        traced_ns / plain_ns - 1.0,
    ));

    notes.push(format!(
        "traced: {} solve trees, {} iterations, {} traced solves failed; kkt cache {} hits / {} \
         lookups; warm starts {} accepted / {} offered; socket probe {} run(s), {} iterations",
        main.roots,
        traced_iterations,
        traced.failed,
        counters.kkt_cache_hits,
        lookups,
        counters.warm_starts_accepted,
        offers,
        probe.runs,
        probe.iterations
    ));
    Ok(report(
        metrics,
        notes,
        Some(tracer.to_jsonl()),
        Some(main),
        traced_iterations,
    ))
}
