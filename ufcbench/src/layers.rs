//! Per-layer probes of the traced run: block-kernel replays
//! (`core.workspace`), projection and wire micro-timings (`opt`,
//! `distsim.wire`, `distsim.message`), and the socket-versus-in-process
//! comparison (`distsim`).

use std::hint::black_box;
use std::time::Instant;

use ufc_core::{
    AColQp, AdmgSettings, AdmgSolver, AdmgState, LambdaQp, Phase, QpOptions, SolverCounters,
    Strategy,
};
use ufc_distsim::message::crc32;
use ufc_distsim::wire::{frame, hmac_sha256, FrameBuffer};
use ufc_distsim::{DistributedAdmg, SocketOptions};
use ufc_model::generator::SplitMix64;
use ufc_model::UfcInstance;
use ufc_opt::projection::{project_capped_simplex, project_simplex};

use crate::json::Metric;
use crate::stats::{median, ns_per_call};
use crate::trace::{Breakdown, PhaseRecorder, Tracer};

/// Median time of one block-QP solve, cold and warm, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTimes {
    /// λ-QP on a freshly built kernel, no warm start.
    pub lambda_cold_us: f64,
    /// λ-QP on a persistent kernel, warm-started from the captured λ row.
    pub lambda_warm_us: f64,
    /// a-QP on a freshly built kernel, no warm start.
    pub a_cold_us: f64,
    /// a-QP on a persistent kernel, warm-started from the captured a column.
    pub a_warm_us: f64,
}

impl KernelTimes {
    /// The `core.workspace` kernel metrics.
    #[must_use]
    pub fn metrics(&self) -> [Metric; 4] {
        [
            Metric::new("core.workspace.a_qp.cold_us", "us", self.a_cold_us),
            Metric::new("core.workspace.a_qp.warm_us", "us", self.a_warm_us),
            Metric::new(
                "core.workspace.lambda_qp.cold_us",
                "us",
                self.lambda_cold_us,
            ),
            Metric::new(
                "core.workspace.lambda_qp.warm_us",
                "us",
                self.lambda_warm_us,
            ),
        ]
    }
}

/// One block's replay input: its linear term and warm-start candidate.
struct BlockInput {
    block: usize,
    c: Vec<f64>,
    warm: Vec<f64>,
}

/// The λ- and a-block inputs the solver would form from `state`: λ-block
/// `i` gets `φ_ij − ρ a_ij`; a-block `j` gets the column term of the
/// a-prediction with the state's own λ, μ, ν and d standing in for the
/// predictions of the same iteration.
fn block_inputs(
    instance: &UfcInstance,
    state: &AdmgState,
    rho: f64,
) -> (Vec<BlockInput>, Vec<BlockInput>) {
    let (m, n) = (state.m, state.n);
    let lambda = (0..m)
        .map(|i| BlockInput {
            block: i,
            c: (0..n)
                .map(|j| state.varphi[i * n + j] - rho * state.a[i * n + j])
                .collect(),
            warm: state.lambda_row(i).to_vec(),
        })
        .collect();
    let a = (0..n)
        .map(|j| {
            let beta = instance.beta[j];
            let drift = instance.alpha[j] - state.mu[j] - state.nu[j] - state.d[j];
            BlockInput {
                block: j,
                c: (0..m)
                    .map(|i| {
                        -rho * state.lambda[i * n + j]
                            - state.varphi[i * n + j]
                            - state.phi[j] * beta
                            + rho * beta * drift
                    })
                    .collect(),
                warm: (0..m).map(|i| state.a[i * n + j]).collect(),
            }
        })
        .collect();
    (lambda, a)
}

/// Replays `LambdaQp::solve_into` and `AColQp::solve_into`, built with
/// `QpOptions::from_settings`, on the block inputs formed from the states
/// an ADM-G solve of `instance` reaches after each of `ks` iterations.
/// Sweeps repeat until `budget_s` has passed; each figure is the median
/// over every timed call.
///
/// # Errors
///
/// A failed capture solve or block solve.
pub fn replay_kernels(
    instance: &UfcInstance,
    settings: &AdmgSettings,
    ks: &[usize],
    budget_s: f64,
) -> Result<KernelTimes, String> {
    let mut inputs = Vec::with_capacity(ks.len());
    for &k in ks {
        let capped = AdmgSettings {
            max_iterations: k,
            ..*settings
        };
        let sol = AdmgSolver::new(capped)
            .solve(instance, Strategy::Hybrid)
            .map_err(|e| format!("capture solve at k = {k}: {e}"))?;
        inputs.push(block_inputs(instance, &sol.state, settings.rho));
    }
    let options = QpOptions::from_settings(settings);
    let w = instance.weight_per_kserver();
    let new_lambda = |i: usize| {
        LambdaQp::new(
            &instance.latency_s[i],
            instance.arrivals[i],
            w,
            settings.rho,
            settings.method,
            options,
        )
    };
    let new_a = |j: usize| {
        AColQp::new(
            instance.m_frontends(),
            settings.rho,
            instance.beta[j],
            instance.capacities[j],
            instance.queueing,
            settings.method,
            options,
        )
    };
    let mut warm_lambda: Vec<LambdaQp> = (0..instance.m_frontends()).map(new_lambda).collect();
    let mut warm_a: Vec<AColQp> = (0..instance.n_datacenters()).map(new_a).collect();
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut out = Vec::new();
    let start = Instant::now();
    let mut sweep = 0;
    // At least two sweeps: the first fills the persistent kernels, the
    // second is the first timed warm sweep.
    while sweep < 2 || start.elapsed().as_secs_f64() < budget_s {
        for (lambda_inputs, a_inputs) in &inputs {
            for b in lambda_inputs {
                let mut cold = new_lambda(b.block);
                let t = Instant::now();
                cold.solve_into(&b.c, None, &mut out)
                    .map_err(|e| format!("lambda[{}] cold: {e}", b.block))?;
                times[0].push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                warm_lambda[b.block]
                    .solve_into(&b.c, Some(&b.warm), &mut out)
                    .map_err(|e| format!("lambda[{}] warm: {e}", b.block))?;
                // The first sweep fills the persistent kernels' caches; only
                // later sweeps are timed as warm.
                if sweep > 0 {
                    times[1].push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            for b in a_inputs {
                let mut cold = new_a(b.block);
                let t = Instant::now();
                cold.solve_into(&b.c, None, &mut out)
                    .map_err(|e| format!("a[{}] cold: {e}", b.block))?;
                times[2].push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                warm_a[b.block]
                    .solve_into(&b.c, Some(&b.warm), &mut out)
                    .map_err(|e| format!("a[{}] warm: {e}", b.block))?;
                if sweep > 0 {
                    times[3].push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        sweep += 1;
    }
    Ok(KernelTimes {
        lambda_cold_us: median(&times[0]),
        lambda_warm_us: median(&times[1]),
        a_cold_us: median(&times[2]),
        a_warm_us: median(&times[3]),
    })
}

/// A deterministic vector in `[-1, 1)` drawn from `seed` by the model's
/// SplitMix64, whose stream is frozen.
#[must_use]
pub fn seeded_vector(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// Nanoseconds per `project_simplex` and `project_capped_simplex` call on a
/// seeded 128-vector.
#[must_use]
pub fn projection_ns(seed: u64, budget_s: f64) -> (f64, f64) {
    let x = seeded_vector(seed, 128);
    let simplex = ns_per_call(256, 5, budget_s, || {
        black_box(project_simplex(black_box(&x), 1.0));
    });
    let capped = ns_per_call(256, 5, budget_s, || {
        black_box(project_capped_simplex(black_box(&x), 1.0));
    });
    (simplex, capped)
}

/// Wire-layer costs in nanoseconds per KiB of payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCosts {
    /// `wire::frame` (length prefix + copy).
    pub frame_ns_per_kb: f64,
    /// `FrameBuffer::push` + `next_frame` on one framed payload.
    pub unframe_ns_per_kb: f64,
    /// `message::crc32`.
    pub crc32_ns_per_kb: f64,
    /// `wire::hmac_sha256` with a 32-byte key.
    pub hmac_sha256_ns_per_kb: f64,
}

impl WireCosts {
    /// The `distsim.wire` and `distsim.message` metrics.
    #[must_use]
    pub fn metrics(&self) -> [Metric; 4] {
        [
            Metric::new(
                "distsim.wire.frame_ns_per_kb",
                "ns/KiB",
                self.frame_ns_per_kb,
            ),
            Metric::new(
                "distsim.wire.unframe_ns_per_kb",
                "ns/KiB",
                self.unframe_ns_per_kb,
            ),
            Metric::new(
                "distsim.message.crc32_ns_per_kb",
                "ns/KiB",
                self.crc32_ns_per_kb,
            ),
            Metric::new(
                "distsim.wire.hmac_sha256_ns_per_kb",
                "ns/KiB",
                self.hmac_sha256_ns_per_kb,
            ),
        ]
    }
}

/// Times the wire primitives on a seeded 4 KiB payload.
#[must_use]
pub fn wire_costs(seed: u64, budget_s: f64) -> WireCosts {
    const KB: usize = 4;
    let payload: Vec<u8> = seeded_vector(seed, KB * 1024)
        .iter()
        .map(|v| (v.to_bits() >> 44) as u8)
        .collect();
    let framed = frame(&payload);
    let key = [0x5Au8; 32];
    let per_kb = |ns: f64| ns / KB as f64;
    WireCosts {
        frame_ns_per_kb: per_kb(ns_per_call(64, 5, budget_s, || {
            black_box(frame(black_box(&payload)));
        })),
        unframe_ns_per_kb: per_kb(ns_per_call(64, 5, budget_s, || {
            let mut buf = FrameBuffer::new();
            buf.push(black_box(&framed));
            black_box(buf.next_frame().expect("well-formed frame"));
        })),
        crc32_ns_per_kb: per_kb(ns_per_call(16, 5, budget_s, || {
            black_box(crc32(black_box(&payload)));
        })),
        hmac_sha256_ns_per_kb: per_kb(ns_per_call(8, 5, budget_s, || {
            black_box(hmac_sha256(&key, black_box(&payload)));
        })),
    }
}

/// The socket engine next to the in-process solver on the same hours.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DistsimProbe {
    /// Socket runs made.
    pub runs: u64,
    /// Iterations summed over the socket runs (the in-process runs make
    /// exactly as many — the engines are bit-identical).
    pub iterations: u64,
    /// Wall time of the socket runs, spawn and teardown included.
    pub socket_wall_ns: u64,
    /// Driver phases of the socket runs.
    pub socket: Breakdown,
    /// Driver phases of the in-process runs.
    pub inproc: Breakdown,
    /// λ̃/ã data messages.
    pub data_messages: u64,
    /// Residual reports and control broadcasts.
    pub control_messages: u64,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Solver counters of the in-process runs.
    pub counters: SolverCounters,
}

impl DistsimProbe {
    /// The socket engine's phases, transport overhead, spawn cost and
    /// traffic, per iteration (spawn per run).
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let per_iter = |x: f64| x / self.iterations.max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out: Vec<Metric> = [1, 2, 3]
            .into_iter()
            .map(|k| {
                Metric::new(
                    format!("distsim.socket.{}.ms_per_iter", Phase::ALL[k].name()),
                    "ms",
                    per_iter(ms(self.socket.phase_ns[k])),
                )
            })
            .collect();
        out.extend([
            Metric::new(
                "distsim.transport_overhead.ms_per_iter",
                "ms",
                per_iter(ms(self.socket.phases_ns()) - ms(self.inproc.phases_ns())),
            ),
            Metric::new(
                "distsim.socket.spawn_ms",
                "ms",
                (ms(self.socket_wall_ns) - ms(self.socket.phases_ns())) / self.runs.max(1) as f64,
            ),
            Metric::new(
                "distsim.data_messages_per_iter",
                "count",
                per_iter(self.data_messages as f64),
            ),
            Metric::new(
                "distsim.control_messages_per_iter",
                "count",
                per_iter(self.control_messages as f64),
            ),
            Metric::new(
                "distsim.bytes_per_iter",
                "bytes",
                per_iter(self.bytes as f64),
            ),
        ]);
        out
    }
}

/// Runs each instance on the socket engine and on the in-process solver,
/// both traced, and checks that they agree bit for bit.
///
/// # Errors
///
/// An engine error, or a run whose iterations or UFC differ between the
/// engines.
pub fn distsim_probe(
    instances: &[UfcInstance],
    settings: &AdmgSettings,
    options: &SocketOptions,
    tracer: &mut Tracer,
) -> Result<DistsimProbe, String> {
    let settings = settings.with_telemetry(true);
    let runner = DistributedAdmg::try_new(settings).map_err(|e| e.to_string())?;
    let solver = AdmgSolver::new(settings);
    let mut probe = DistsimProbe::default();
    for (h, instance) in instances.iter().enumerate() {
        let root = tracer.open("probe_socket");
        let t = Instant::now();
        let report = runner
            .run_sockets_observed(
                instance,
                Strategy::Hybrid,
                options,
                &mut PhaseRecorder::new(tracer, root),
            )
            .map_err(|e| format!("socket probe hour {h}: {e}"))?;
        probe.socket_wall_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tracer.close(root);
        let root = tracer.open("probe_inproc");
        let sol = solver
            .solve_observed(
                instance,
                Strategy::Hybrid,
                &mut PhaseRecorder::new(tracer, root),
            )
            .map_err(|e| format!("in-process probe hour {h}: {e}"))?;
        tracer.close(root);
        if sol.iterations != report.iterations
            || sol.breakdown.ufc().to_bits() != report.breakdown.ufc().to_bits()
        {
            return Err(format!(
                "probe hour {h}: socket run ({} iterations, UFC {}) differs from in-process \
                 ({} iterations, UFC {})",
                report.iterations,
                report.breakdown.ufc(),
                sol.iterations,
                sol.breakdown.ufc()
            ));
        }
        probe.runs += 1;
        probe.iterations += report.iterations as u64;
        probe.data_messages += report.stats.data_messages as u64;
        probe.control_messages += report.stats.control_messages as u64;
        probe.bytes += report.stats.total_bytes as u64;
        if let Some(t) = sol.telemetry {
            add_counters(&mut probe.counters, &t.solver);
        }
    }
    probe.socket = tracer.breakdown("probe_socket");
    probe.inproc = tracer.breakdown("probe_inproc");
    Ok(probe)
}

/// Adds `more` into `sum`.
pub fn add_counters(sum: &mut SolverCounters, more: &SolverCounters) {
    sum.kkt_cache_hits += more.kkt_cache_hits;
    sum.kkt_cache_misses += more.kkt_cache_misses;
    sum.warm_starts_accepted += more.warm_starts_accepted;
    sum.warm_starts_rejected += more.warm_starts_rejected;
    sum.pool_tasks += more.pool_tasks;
    sum.pool_maps += more.pool_maps;
}

/// `part / (part + rest)`, or 0 when both are 0.
#[must_use]
pub fn ratio(part: u64, rest: u64) -> f64 {
    let base = part + rest;
    if base == 0 {
        0.0
    } else {
        part as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_vector_is_deterministic_and_bounded() {
        let a = seeded_vector(7, 64);
        assert_eq!(a, seeded_vector(7, 64));
        // Neighbouring seeds, including those differing only in the lowest
        // bit, give different vectors.
        assert_ne!(a, seeded_vector(6, 64));
        assert_ne!(seeded_vector(404, 8), seeded_vector(405, 8));
        assert_ne!(seeded_vector(0, 8), seeded_vector(1, 8));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn ratio_has_a_zero_base_convention() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(3, 1), 0.75);
    }
}
