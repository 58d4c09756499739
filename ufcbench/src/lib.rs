//! End-to-end and per-layer benchmark of the UFC solver.
//!
//! The operator the paper models re-solves UFC every hour, so the measure of
//! speed is the time to a converged, feasible and checked routing and
//! fuel-cell plan. The benchmark drives the solver through its public API
//! only, on two workloads chosen to stress different layers (see
//! [`workloads`]):
//!
//! ```text
//! ufcbench --workload week_paper|wide_32x8 --seed N --seconds S --trace 0|1
//! ufcbench diff BASE NEW
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics of
//! [`END_TO_END`]; with `--trace 1` a separate traced run reports the
//! per-layer metrics of [`PER_LAYER`] and writes its spans under
//! `.bench_out/`. The last line of standard output is the result object.

pub mod diff;
pub mod host;
pub mod json;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

/// End-to-end metrics, with their units, as a `--trace 0` run reports them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_ms_p50", "ms"),
    ("hours_per_s", "1/s"),
    ("ms_per_iter", "ms"),
    ("iters_per_solve", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, with their units, as a `--trace 1` run reports them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.solver.outside_drive_ms", "ms"),
    ("core.engine.begin.ms_per_iter", "ms"),
    ("core.engine.begin.share", "fraction"),
    ("core.engine.predict_lambda.ms_per_iter", "ms"),
    ("core.engine.predict_lambda.share", "fraction"),
    ("core.engine.step_datacenters.ms_per_iter", "ms"),
    ("core.engine.step_datacenters.share", "fraction"),
    ("core.engine.correct.ms_per_iter", "ms"),
    ("core.engine.correct.share", "fraction"),
    ("core.engine.finish_iteration.ms_per_iter", "ms"),
    ("core.engine.finish_iteration.share", "fraction"),
    ("core.workspace.a_qp.cold_us", "us"),
    ("core.workspace.a_qp.warm_us", "us"),
    ("core.workspace.lambda_qp.cold_us", "us"),
    ("core.workspace.lambda_qp.warm_us", "us"),
    ("core.workspace.kkt_cache_hit_ratio", "fraction"),
    ("core.workspace.kkt_cache_lookups", "count"),
    ("core.workspace.warm_start_accept_ratio", "fraction"),
    ("core.workspace.warm_start_offers", "count"),
    ("opt.project_simplex_m128.ns", "ns"),
    ("opt.project_capped_simplex_m128.ns", "ns"),
    ("model.scenario_build_ms", "ms"),
    ("model.evaluate_us", "us"),
    ("distsim.socket.predict_lambda.ms_per_iter", "ms"),
    ("distsim.socket.step_datacenters.ms_per_iter", "ms"),
    ("distsim.socket.correct.ms_per_iter", "ms"),
    ("distsim.transport_overhead.ms_per_iter", "ms"),
    ("distsim.socket.spawn_ms", "ms"),
    ("distsim.data_messages_per_iter", "count"),
    ("distsim.control_messages_per_iter", "count"),
    ("distsim.bytes_per_iter", "bytes"),
    ("distsim.wire.frame_ns_per_kb", "ns/KiB"),
    ("distsim.wire.unframe_ns_per_kb", "ns/KiB"),
    ("distsim.message.crc32_ns_per_kb", "ns/KiB"),
    ("distsim.wire.hmac_sha256_ns_per_kb", "ns/KiB"),
    ("trace.overhead_frac", "fraction"),
];
