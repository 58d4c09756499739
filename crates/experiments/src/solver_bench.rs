//! Wall-clock benchmark of the ADM-G hot path (`repro bench`).
//!
//! The `admg_scaling` workload solves a run of consecutive paper-default
//! hourly instances three ways:
//!
//! 1. **baseline** — 1 thread, factorization caching off: the pre-caching
//!    solver (every QP re-assembles and re-factors its KKT system, every
//!    block cold-starts).
//! 2. **sequential** — 1 thread, caching + warm starts on. Isolates the
//!    algorithmic win; the acceptance bar is *no regression* here.
//! 3. **parallel** — `threads` workers, caching + warm starts on. The
//!    headline configuration written to `BENCH_solver.json`.
//!
//! On top of the three-leg seed-size comparison, the bench walks a
//! **size trajectory** (front-ends × datacenters, up to 1024 × 32, one
//! hour per size, single repetition): each size is timed with every fast
//! path engaged (caching + warm starts + rank-1 KKT + blocked
//! factorizations), and sizes up to [`DENSE_CEILING`] front-ends are also
//! timed with the rank-1 path off, yielding a measured dense-vs-rank-1
//! speedup. Beyond the ceiling the dense reference is intractable by
//! construction (`O(n³)` per working-set change) — those entries report
//! the fast-path wall-clock only and the JSON says so explicitly with a
//! `null` instead of a silently extrapolated number.
//!
//! Results go through [`BenchReport::to_json`] — a hand-rolled writer, so
//! the harness stays dependency-free.

use std::time::Instant;

use ufc_core::{AdmgSettings, AdmgSolver, Strategy};
use ufc_model::scenario::ScenarioBuilder;
use ufc_model::UfcInstance;

/// One timed configuration of the solver.
#[derive(Debug, Clone, Copy)]
pub struct BenchLeg {
    /// Worker threads used.
    pub threads: usize,
    /// Whether factorization caching / warm starts were enabled.
    pub cached: bool,
    /// Total wall-clock across the workload (milliseconds).
    pub wall_ms: f64,
    /// Total ADM-G iterations across the workload.
    pub iters: usize,
}

/// One instance size of the scaling trajectory, timed with every fast path
/// engaged (and, where tractable, with the dense reference KKT path).
#[derive(Debug, Clone, Copy)]
pub struct SizeLeg {
    /// Front-ends (`m`).
    pub frontends: usize,
    /// Datacenters (`n`).
    pub datacenters: usize,
    /// Wall-clock of the fast configuration (milliseconds, one hour,
    /// single repetition).
    pub wall_ms: f64,
    /// ADM-G iterations of the fast configuration.
    pub iters: usize,
    /// Wall-clock with the rank-1 fast path off (dense cached KKT solves);
    /// `None` above [`DENSE_CEILING`] front-ends, where the dense path is
    /// intractable.
    pub dense_wall_ms: Option<f64>,
    /// Iterations of the dense leg, when it ran.
    pub dense_iters: Option<usize>,
}

impl SizeLeg {
    /// Fast-path wall-clock per ADM-G iteration (milliseconds).
    #[must_use]
    pub fn per_iter_ms(&self) -> f64 {
        self.wall_ms / self.iters.max(1) as f64
    }

    /// Measured dense-over-fast speedup, when the dense leg ran.
    #[must_use]
    pub fn dense_speedup(&self) -> Option<f64> {
        self.dense_wall_ms.map(|d| d / self.wall_ms)
    }
}

/// Per-iteration latency of the multi-process socket engine next to
/// `Runtime::Threaded` — the same coordinator and worker loop over
/// in-memory pipes — measured on one paper-default hour, so the ratio is
/// what TCP plus OS processes cost over pipes plus threads.
#[derive(Debug, Clone, Copy)]
pub struct SocketLatency {
    /// Threaded-engine wall-clock (milliseconds).
    pub threaded_wall_ms: f64,
    /// Socket-engine wall-clock (milliseconds), including process spawn.
    pub socket_wall_ms: f64,
    /// Iterations of the socket run (bit-identical engines, so the
    /// threaded run performs the same count).
    pub iterations: usize,
}

impl SocketLatency {
    /// Threaded-engine milliseconds per ADM-G iteration.
    #[must_use]
    pub fn threaded_per_iter_ms(&self) -> f64 {
        self.threaded_wall_ms / self.iterations.max(1) as f64
    }

    /// Socket-engine milliseconds per ADM-G iteration.
    #[must_use]
    pub fn socket_per_iter_ms(&self) -> f64 {
        self.socket_wall_ms / self.iterations.max(1) as f64
    }

    /// Socket-over-threaded per-iteration overhead factor.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.socket_per_iter_ms() / self.threaded_per_iter_ms()
    }
}

/// The full comparison: the three seed-size legs, the size trajectory, and
/// (when the `ufc-node` worker binary is available) the socket-engine
/// per-iteration latency.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Hours (instances) in the workload.
    pub hours: usize,
    /// Pre-caching sequential solver.
    pub baseline: BenchLeg,
    /// Cached solver at 1 thread.
    pub sequential: BenchLeg,
    /// Cached solver at the requested thread count.
    pub parallel: BenchLeg,
    /// The size trajectory (empty when not requested).
    pub sizes: Vec<SizeLeg>,
    /// Socket-vs-threaded per-iteration latency; `None` when the worker
    /// binary is unavailable (the bench then skips the measurement rather
    /// than failing).
    pub socket: Option<SocketLatency>,
}

impl BenchReport {
    /// Headline speedup: baseline wall-clock over parallel wall-clock.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline.wall_ms / self.parallel.wall_ms
    }

    /// Single-thread speedup: baseline over cached-sequential (must be
    /// ≥ 1 — caching is not allowed to cost anything at 1 thread).
    #[must_use]
    pub fn sequential_speedup(&self) -> f64 {
        self.baseline.wall_ms / self.sequential.wall_ms
    }

    /// Renders the report as a small JSON object (`BENCH_solver.json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"workload\": \"admg_scaling\",\n  \"hours\": {},\n  \"threads\": {},\n  \"wall_ms\": {:.3},\n  \"iters\": {},\n  \"speedup\": {:.3},\n  \"baseline_wall_ms\": {:.3},\n  \"sequential_wall_ms\": {:.3},\n  \"sequential_speedup\": {:.3},\n",
            self.hours,
            self.parallel.threads,
            self.parallel.wall_ms,
            self.parallel.iters,
            self.speedup(),
            self.baseline.wall_ms,
            self.sequential.wall_ms,
            self.sequential_speedup(),
        );
        out.push_str("  \"sizes\": [");
        for (k, leg) in self.sizes.iter().enumerate() {
            let dense = match leg.dense_wall_ms {
                Some(d) => format!("{d:.3}"),
                None => "null".to_owned(),
            };
            let speedup = match leg.dense_speedup() {
                Some(s) => format!("{s:.3}"),
                None => "null".to_owned(),
            };
            out.push_str(&format!(
                "{}\n    {{\"frontends\": {}, \"datacenters\": {}, \"wall_ms\": {:.3}, \"iters\": {}, \"per_iter_ms\": {:.4}, \"dense_wall_ms\": {}, \"dense_speedup\": {}}}",
                if k == 0 { "" } else { "," },
                leg.frontends,
                leg.datacenters,
                leg.wall_ms,
                leg.iters,
                leg.per_iter_ms(),
                dense,
                speedup,
            ));
        }
        if self.sizes.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        match &self.socket {
            Some(s) => out.push_str(&format!(
                "  \"socket_engine\": {{\"iterations\": {}, \"threaded_per_iter_ms\": {:.4}, \"socket_per_iter_ms\": {:.4}, \"overhead\": {:.3}}}\n",
                s.iterations,
                s.threaded_per_iter_ms(),
                s.socket_per_iter_ms(),
                s.overhead(),
            )),
            None => out.push_str("  \"socket_engine\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

/// Front-ends in the `admg_scaling` workload. The paper's evaluation uses
/// 10; the bench tiles the routing dimension up so the per-datacenter
/// a-QP (one variable per front-end) dominates each iteration the way it
/// would in a large deployment.
pub const SCALING_FRONTENDS: usize = 32;

/// Widens an hourly instance to `m_wide` front-ends by tiling the
/// paper-default front-end set: arrivals are rescaled so the total
/// workload is unchanged, and each replica's latency row is deterministically
/// perturbed so no two front-ends are numerically identical.
fn widen(inst: &UfcInstance, m_wide: usize) -> Result<UfcInstance, ufc_model::ModelError> {
    let m = inst.arrivals.len();
    let scale = m as f64 / m_wide as f64;
    let arrivals: Vec<f64> = (0..m_wide).map(|i| inst.arrivals[i % m] * scale).collect();
    let latency_s: Vec<Vec<f64>> = (0..m_wide)
        .map(|i| {
            let jitter = 1.0 + 1e-3 * (i / m) as f64;
            inst.latency_s[i % m].iter().map(|&l| l * jitter).collect()
        })
        .collect();
    UfcInstance::new(
        arrivals,
        inst.capacities.clone(),
        inst.alpha.clone(),
        inst.beta.clone(),
        inst.mu_max.clone(),
        inst.grid_price.clone(),
        inst.fuel_cell_price,
        inst.carbon_t_per_mwh.clone(),
        latency_s,
        inst.weight_per_server,
        inst.emission_cost.clone(),
        inst.slot_hours,
    )
}

/// Widens an hourly instance to `n_wide` datacenters by tiling the
/// paper-default datacenter set. Per-site quantities that represent real
/// capacity (capacities, idle power α, fuel-cell cap μ_max) are rescaled by
/// `n/n_wide` so the fleet total is unchanged; per-unit quantities (β,
/// prices, carbon rates, latencies) are tiled, with prices and latencies
/// deterministically perturbed so no two datacenters are numerically
/// identical.
fn widen_datacenters(
    inst: &UfcInstance,
    n_wide: usize,
) -> Result<UfcInstance, ufc_model::ModelError> {
    let n = inst.capacities.len();
    let scale = n as f64 / n_wide as f64;
    let jitter = |j: usize| 1.0 + 1e-3 * (j / n) as f64;
    let tile_scaled =
        |src: &[f64]| -> Vec<f64> { (0..n_wide).map(|j| src[j % n] * scale).collect() };
    let tile_jittered =
        |src: &[f64]| -> Vec<f64> { (0..n_wide).map(|j| src[j % n] * jitter(j)).collect() };
    let latency_s: Vec<Vec<f64>> = inst
        .latency_s
        .iter()
        .map(|row| (0..n_wide).map(|j| row[j % n] * jitter(j)).collect())
        .collect();
    UfcInstance::new(
        inst.arrivals.clone(),
        tile_scaled(&inst.capacities),
        tile_scaled(&inst.alpha),
        (0..n_wide).map(|j| inst.beta[j % n]).collect(),
        tile_scaled(&inst.mu_max),
        tile_jittered(&inst.grid_price),
        inst.fuel_cell_price,
        (0..n_wide).map(|j| inst.carbon_t_per_mwh[j % n]).collect(),
        latency_s,
        inst.weight_per_server,
        (0..n_wide)
            .map(|j| inst.emission_cost[j % n].clone())
            .collect(),
        inst.slot_hours,
    )
}

/// Builds the `admg_scaling` workload: `hours` consecutive paper-style
/// hourly instances widened to [`SCALING_FRONTENDS`] front-ends
/// (× 4 datacenters).
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn admg_scaling(seed: u64, hours: usize) -> Result<Vec<UfcInstance>, ufc_model::ModelError> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()?;
    scenario
        .instances
        .iter()
        .map(|inst| widen(inst, SCALING_FRONTENDS))
        .collect()
}

/// Builds the scaling workload at an arbitrary `m_wide × n_wide` size by
/// widening both axes of the paper-default hourly instances.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn admg_scaling_sized(
    seed: u64,
    hours: usize,
    m_wide: usize,
    n_wide: usize,
) -> Result<Vec<UfcInstance>, ufc_model::ModelError> {
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(hours)
        .build()?;
    scenario
        .instances
        .iter()
        .map(|inst| widen(&widen_datacenters(inst, n_wide)?, m_wide))
        .collect()
}

/// The scaling trajectory: (front-ends, datacenters) per size, from the
/// seed-bench size up to the ~100×-scaled 1024 × 32 instance.
pub const TRAJECTORY: &[(usize, usize)] = &[(32, 4), (128, 8), (512, 16), (1024, 32)];

/// The CI smoke trajectory: one genuinely scaled size, chosen *above*
/// [`DENSE_CEILING`] so the smoke times only the fast path — the dense
/// reference leg at 128 front-ends alone takes ~9 minutes and belongs in
/// the full trajectory, not an interactive `repro bench --quick`.
pub const QUICK_TRAJECTORY: &[(usize, usize)] = &[(256, 8)];

/// Largest front-end count at which the dense reference leg (rank-1 fast
/// path off) is still timed. Beyond this the dense path's `O(n³)`-per-
/// working-set-change cost makes the leg intractable — the trajectory
/// reports `null` for it rather than an extrapolated guess.
pub const DENSE_CEILING: usize = 128;

/// Timed repetitions per leg; the fastest repetition is reported, which
/// filters out scheduler and frequency-scaling noise.
const REPS: usize = 3;

/// Solves every instance with the given settings and returns the timed leg.
fn time_leg(instances: &[UfcInstance], settings: AdmgSettings, cached: bool) -> BenchLeg {
    let solver = AdmgSolver::new(settings);
    let mut best_ms = f64::INFINITY;
    let mut iters = 0usize;
    for _ in 0..REPS {
        let start = Instant::now();
        iters = 0;
        for inst in instances {
            let sol = solver
                .solve(inst, Strategy::Hybrid)
                .expect("bench solve failed");
            iters += sol.iterations;
        }
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    BenchLeg {
        threads: settings.num_threads.max(1),
        cached,
        wall_ms: best_ms,
        iters,
    }
}

/// Times one pass over the instances (no repetition — the trajectory's
/// larger sizes are too slow to triplicate and their runtimes are long
/// enough to swamp scheduler noise anyway).
fn time_once(instances: &[UfcInstance], settings: AdmgSettings) -> (f64, usize) {
    let solver = AdmgSolver::new(settings);
    let start = Instant::now();
    let mut iters = 0usize;
    for inst in instances {
        let sol = solver
            .solve(inst, Strategy::Hybrid)
            .expect("bench solve failed");
        iters += sol.iterations;
    }
    (start.elapsed().as_secs_f64() * 1e3, iters)
}

/// Walks the size trajectory: one hour per size, fast configuration
/// (caching + rank-1 + blocked) at `threads` workers, plus the dense
/// reference leg up to [`DENSE_CEILING`] front-ends.
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn size_trajectory(
    seed: u64,
    threads: usize,
    sizes: &[(usize, usize)],
) -> Result<Vec<SizeLeg>, ufc_model::ModelError> {
    let fast = AdmgSettings::default()
        .with_threads(threads)
        .with_factorization_caching(true)
        .with_rank1_kkt(true)
        .with_blocked_factorizations(true);
    let dense = AdmgSettings::default()
        .with_threads(threads)
        .with_factorization_caching(true);
    let mut legs = Vec::with_capacity(sizes.len());
    for &(m, n) in sizes {
        let instances = admg_scaling_sized(seed, 1, m, n)?;
        let (wall_ms, iters) = time_once(&instances, fast);
        let (dense_wall_ms, dense_iters) = if m <= DENSE_CEILING {
            let (w, i) = time_once(&instances, dense);
            (Some(w), Some(i))
        } else {
            (None, None)
        };
        legs.push(SizeLeg {
            frontends: m,
            datacenters: n,
            wall_ms,
            iters,
            dense_wall_ms,
            dense_iters,
        });
    }
    Ok(legs)
}

/// Measures the socket engine's per-iteration latency against the threaded
/// engine on one paper-default hour. Returns `Ok(None)` when the
/// `ufc-node` worker binary is not present next to the running executable
/// (the bench degrades gracefully instead of failing).
///
/// # Errors
///
/// Scenario-construction or engine failures (a missing worker binary is
/// *not* an error).
pub fn socket_latency(seed: u64) -> ufc_core::Result<Option<SocketLatency>> {
    use ufc_distsim::{DistributedAdmg, Runtime, SocketOptions};

    let Ok(worker) = crate::sockets::locate_worker() else {
        return Ok(None);
    };
    let scenario = ScenarioBuilder::paper_default()
        .seed(seed)
        .hours(1)
        .build()
        .map_err(ufc_core::CoreError::Model)?;
    let instance = &scenario.instances[0];
    let runner = DistributedAdmg::try_new(AdmgSettings::default())?;
    let start = Instant::now();
    let threaded = runner.run(instance, Strategy::Hybrid, Runtime::Threaded)?;
    let threaded_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let socket = runner.run_sockets(instance, Strategy::Hybrid, &SocketOptions::new(&worker))?;
    let socket_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    debug_assert_eq!(threaded.iterations, socket.iterations);
    Ok(Some(SocketLatency {
        threaded_wall_ms,
        socket_wall_ms,
        iterations: socket.iterations.max(threaded.iterations),
    }))
}

/// Runs the three-leg benchmark on the `admg_scaling` workload, then walks
/// the requested size trajectory (pass `&[]` to skip it). The socket
/// latency section is left `None`; callers with a worker binary stitch it
/// in via [`socket_latency`].
///
/// # Errors
///
/// Propagates scenario-construction failures.
pub fn run(
    seed: u64,
    hours: usize,
    threads: usize,
    sizes: &[(usize, usize)],
) -> Result<BenchReport, ufc_model::ModelError> {
    let instances = admg_scaling(seed, hours)?;
    let base = AdmgSettings::default()
        .with_threads(1)
        .with_factorization_caching(false);
    let seq = AdmgSettings::default()
        .with_threads(1)
        .with_factorization_caching(true);
    let par = AdmgSettings::default()
        .with_threads(threads)
        .with_factorization_caching(true);
    // Warm-up pass so first-touch effects (page faults, lazy init) land
    // outside every timed leg equally.
    let _ = time_leg(&instances[..1.min(instances.len())], seq, true);
    Ok(BenchReport {
        hours: instances.len(),
        baseline: time_leg(&instances, base, false),
        sequential: time_leg(&instances, seq, true),
        parallel: time_leg(&instances, par, true),
        sizes: size_trajectory(seed, threads, sizes)?,
        socket: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_consistent_report() {
        let report = run(2012, 1, 2, &[]).unwrap();
        assert_eq!(report.hours, 1);
        assert!(report.baseline.wall_ms > 0.0);
        assert!(report.parallel.wall_ms > 0.0);
        // Caching is bit-transparent per solve, so all legs agree on the
        // iterate path only up to warm-start effects; iteration counts must
        // still be positive and the cached legs identical to each other.
        assert_eq!(report.sequential.iters, report.parallel.iters);
        let json = report.to_json();
        assert!(json.contains("\"wall_ms\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"sizes\": []"));
        assert!(json.contains("\"socket_engine\": null"));
    }

    #[test]
    fn sized_workload_scales_both_axes() {
        let instances = admg_scaling_sized(2012, 1, 64, 8).unwrap();
        assert_eq!(instances.len(), 1);
        let inst = &instances[0];
        assert_eq!(inst.m_frontends(), 64);
        assert_eq!(inst.n_datacenters(), 8);
        // Widening the datacenter axis preserves the fleet totals of the
        // capacity-like quantities (capacities, fuel-cell caps).
        let seed = ScenarioBuilder::paper_default()
            .seed(2012)
            .hours(1)
            .build()
            .unwrap();
        let base = &seed.instances[0];
        let total = |v: &[f64]| -> f64 { v.iter().sum() };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
        assert!(close(total(&inst.capacities), total(&base.capacities)));
        assert!(close(total(&inst.mu_max), total(&base.mu_max)));
        // No two datacenters are numerically identical.
        for j in 4..8 {
            assert!(inst.grid_price[j] != inst.grid_price[j - 4]);
        }
    }

    #[test]
    fn size_trajectory_reports_dense_leg_only_below_ceiling() {
        let legs = size_trajectory(2012, 1, &[(32, 4), (256, 8)]).unwrap();
        assert_eq!(legs.len(), 2);
        assert!(legs[0].dense_wall_ms.is_some(), "32 ≤ ceiling: dense timed");
        assert!(legs[1].dense_wall_ms.is_none(), "256 > ceiling: dense null");
        assert!(legs.iter().all(|l| l.wall_ms > 0.0 && l.iters > 0));
        let report = BenchReport {
            hours: 1,
            baseline: BenchLeg {
                threads: 1,
                cached: false,
                wall_ms: 2.0,
                iters: 1,
            },
            sequential: BenchLeg {
                threads: 1,
                cached: true,
                wall_ms: 1.0,
                iters: 1,
            },
            parallel: BenchLeg {
                threads: 1,
                cached: true,
                wall_ms: 1.0,
                iters: 1,
            },
            sizes: legs,
            socket: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"frontends\": 256"));
        assert!(json.contains("\"dense_wall_ms\": null"));
        assert!(json.contains("\"dense_speedup\": null"));
    }
}
