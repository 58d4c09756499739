//! The public runtime facade: picks an execution engine and packages the
//! result.
//!
//! Both engines — the deterministic lockstep rounds
//! (`crate::engine_lockstep`) and the supervised coordinator
//! (`crate::engine_socket`, hosting its workers as OS processes over TCP
//! or, for [`Runtime::Threaded`], as threads over in-memory pipes) —
//! implement [`ufc_core::engine::Transport`] and are sequenced by the
//! single transport-agnostic driver `ufc_core::engine::drive`, so the
//! prediction order, correction step, and stop rule exist in exactly one
//! place. The fault-injected variants are not separate code paths: a clean
//! run is the [`FaultPlan::none`] degenerate case of the same engines.

use std::path::PathBuf;

use ufc_core::engine::IterationObserver;
use ufc_core::telemetry::{IntegrityCounters, RunTelemetry};
use ufc_core::{AdmgSettings, CoreError, Strategy};
use ufc_model::{OperatingPoint, UfcBreakdown, UfcInstance};

use crate::engine_lockstep::run_lockstep;
use crate::engine_socket::run_socket_engine;
use crate::fault::{CorruptionConfig, FaultPlan, FaultReport};
use crate::loss::LossConfig;
use crate::stats::MessageStats;
use crate::wire::{AuthKey, BindConfig};

/// Configuration of the multi-process socket engine: where the worker
/// binary lives, how many OS processes to spread the nodes over, which
/// address the coordinator listens on, and (for non-loopback binds) the
/// shared authentication key.
#[derive(Debug, Clone)]
pub struct SocketOptions {
    /// Path to the `ufc-node` worker binary (built from
    /// `experiments/src/bin/ufc-node.rs`).
    pub worker: PathBuf,
    /// Worker process count. `0` (the default) means one process per node
    /// (`M + N`); smaller counts co-host nodes round-robin. Process-level
    /// fault injection (kills, partitions) requires the full one-per-node
    /// split so a `SIGKILL` hits exactly the scripted node.
    pub processes: usize,
    /// Listen/advertise addresses. Defaults to an ephemeral loopback port;
    /// a non-loopback listen address is refused unless [`Self::auth`] is
    /// set (see DESIGN.md §17).
    pub bind: BindConfig,
    /// Shared handshake key. When set, every connection must pass the
    /// challenge–response MAC exchange before any iteration state is
    /// exchanged; plain `Hello` handshakes (a downgrade) are rejected.
    pub auth: Option<AuthKey>,
}

impl SocketOptions {
    /// Options for the given worker binary with the default one process
    /// per node on an ephemeral loopback port, unauthenticated.
    pub fn new(worker: impl Into<PathBuf>) -> Self {
        SocketOptions {
            worker: worker.into(),
            processes: 0,
            bind: BindConfig::loopback(),
            auth: None,
        }
    }

    /// Overrides the worker process count.
    #[must_use]
    pub fn with_processes(mut self, processes: usize) -> Self {
        self.processes = processes;
        self
    }

    /// Overrides the listen/advertise addresses.
    #[must_use]
    pub fn with_bind(mut self, bind: BindConfig) -> Self {
        self.bind = bind;
        self
    }

    /// Enables the authenticated challenge–response handshake with the
    /// given shared key.
    #[must_use]
    pub fn with_auth(mut self, key: AuthKey) -> Self {
        self.auth = Some(key);
        self
    }
}

/// Which execution engine runs the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Single-threaded round engine — deterministic and bit-identical to
    /// the in-memory `AdmgSolver`.
    Lockstep,
    /// The socket runtime's supervising coordinator with one in-process
    /// worker thread per node, talking the same checksummed wire frames
    /// over in-memory pipes instead of TCP. Spawns no process and opens no
    /// socket.
    Threaded,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistRunReport {
    /// Exactly feasible operating point (same polish as the in-memory
    /// solver).
    pub point: OperatingPoint,
    /// UFC breakdown at the point.
    pub breakdown: UfcBreakdown,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the residual tests passed before the iteration cap.
    pub converged: bool,
    /// Message/byte accounting.
    pub stats: MessageStats,
    /// Estimated wall-clock of a real WAN deployment (see
    /// [`crate::stats::estimated_wan_seconds`]); under a lossy channel or a
    /// fault plan this includes the retransmission/recovery stalls.
    pub estimated_wan_seconds: f64,
    /// Failed message attempts (0 unless run through
    /// [`DistributedAdmg::run_lossy`]).
    pub retransmissions: usize,
    /// Fault accounting — `Some` for runs driven by a non-trivial
    /// [`FaultPlan`] (see [`DistributedAdmg::run_faulty`]).
    pub fault: Option<FaultReport>,
    /// Payload-integrity accounting — `Some` when the run injected
    /// corruption or verified checksums (see
    /// [`DistributedAdmg::run_corrupt`]).
    pub integrity: Option<IntegrityCounters>,
    /// Run telemetry (phase timings plus solver/traffic/fault counters),
    /// present iff [`AdmgSettings::telemetry`] was enabled. Strictly
    /// observational: the iterate stream is bit-identical whether or not
    /// this is collected.
    pub telemetry: Option<RunTelemetry>,
}

/// Facade: runs the distributed ADM-G protocol on an instance.
#[derive(Debug, Clone, Copy)]
pub struct DistributedAdmg {
    settings: AdmgSettings,
}

impl DistributedAdmg {
    /// Creates a runner with the given ADM-G hyper-parameters.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the settings are invalid.
    pub fn try_new(settings: AdmgSettings) -> Result<Self, CoreError> {
        settings.check()?;
        Ok(DistributedAdmg { settings })
    }

    /// Creates a runner, panicking on invalid settings (thin wrapper over
    /// [`DistributedAdmg::try_new`]).
    ///
    /// # Panics
    ///
    /// Panics if the settings are invalid.
    #[must_use]
    pub fn new(settings: AdmgSettings) -> Self {
        match Self::try_new(settings) {
            Ok(runner) => runner,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the protocol to convergence (or the iteration cap).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Unsupported`] for an infeasible `FuelCellOnly`
    ///   restriction.
    /// * [`CoreError::Model`] if the final point cannot be polished or
    ///   evaluated.
    /// * [`CoreError::NodeFailure`] if a worker thread dies unexpectedly
    ///   (threaded runtime).
    pub fn run(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        runtime: Runtime,
    ) -> Result<DistRunReport, CoreError> {
        self.run_observed(instance, strategy, runtime, &mut ())
    }

    /// Like [`DistributedAdmg::run`], streaming per-iteration (and, if the
    /// observer asks for them, per-phase) events to a caller-supplied
    /// observer — e.g. a `ufc_core::telemetry::JsonlSink` writing a trace.
    /// The observer never affects the iterate stream.
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run`].
    pub fn run_observed(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        runtime: Runtime,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        let active = strategy.block_activation(instance)?;
        let mut report =
            self.engine(instance, active, FaultPlan::none(), runtime, None, observer)?;
        report.fault = None;
        Ok(report)
    }

    /// Runs the protocol on the multi-process socket engine: every node in
    /// its own OS process (per [`SocketOptions::processes`]) speaking the
    /// checksummed wire framing over loopback TCP. The clean path is
    /// bit-identical to the lockstep engine (asserted in
    /// `experiments/tests/engine_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run`], plus [`CoreError::NodeFailure`]
    /// when a worker process cannot be spawned or never completes the
    /// handshake.
    pub fn run_sockets(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        options: &SocketOptions,
    ) -> Result<DistRunReport, CoreError> {
        self.run_sockets_observed(instance, strategy, options, &mut ())
    }

    /// Like [`DistributedAdmg::run_sockets`], streaming events to a
    /// caller-supplied observer.
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run_sockets`].
    pub fn run_sockets_observed(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        options: &SocketOptions,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        let active = strategy.block_activation(instance)?;
        let plan = FaultPlan::none();
        self.engine(
            instance,
            active,
            plan,
            Runtime::Threaded,
            Some(options),
            observer,
        )
    }

    /// Runs the socket engine under a deterministic [`FaultPlan`] whose
    /// faults are delivered by the operating system: a scripted crash is a
    /// real `SIGKILL` to the live worker process mid-iteration, and a
    /// partition window tears down the affected TCP connections (the
    /// workers reconnect with backoff when it heals). Recovery is the same
    /// checkpoint-restart protocol as [`Runtime::Threaded`]'s, and a run
    /// whose every crash recovers reproduces the clean iterates exactly. A
    /// clean fault-free lockstep run is performed first so the returned
    /// [`FaultReport::ufc_delta_vs_clean`] measures the cost of running
    /// degraded.
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run_faulty`], plus
    /// [`CoreError::InvalidConfig`] when the plan injects process-level
    /// faults without the one-process-per-node split.
    pub fn run_sockets_faulty(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        options: &SocketOptions,
        plan: FaultPlan,
    ) -> Result<DistRunReport, CoreError> {
        self.run_sockets_faulty_observed(instance, strategy, options, plan, &mut ())
    }

    /// Like [`DistributedAdmg::run_sockets_faulty`], streaming events from
    /// the faulty run to a caller-supplied observer (the preliminary clean
    /// lockstep run is not observed).
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run_sockets_faulty`].
    pub fn run_sockets_faulty_observed(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        options: &SocketOptions,
        plan: FaultPlan,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        let (runtime, sockets) = (Runtime::Threaded, Some(options));
        self.faulty(instance, strategy, plan, runtime, sockets, observer)
    }

    /// Runs the socket engine under seeded payload corruption applied to
    /// the actual TCP traffic. Value-level kinds (bit flips, sign flips,
    /// NaN/∞, magnitude scaling — [`CorruptionConfig::kind`] `None` or a
    /// value kind) draw in the exact order of the in-process engines, so a
    /// verified run reproduces [`DistributedAdmg::run_corrupt`]
    /// bit-for-bit. The wire-level kinds
    /// ([`crate::CorruptionKind::FrameTruncate`] /
    /// [`crate::CorruptionKind::FrameDuplicate`] /
    /// [`crate::CorruptionKind::FrameReorder`]) instead mangle whole wire
    /// frames in the socket I/O pumps — truncations are detected by the
    /// framing CRC and repaired over a `Nak`/clean-resend exchange, while
    /// duplicates and reorders are absorbed by the existing dedup and
    /// order-insensitive gather — and require the one-process-per-node
    /// split.
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run_corrupt`], plus
    /// [`CoreError::InvalidConfig`] when a wire-level kind is combined
    /// with co-hosted nodes.
    pub fn run_sockets_corrupt(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        options: &SocketOptions,
        corruption: CorruptionConfig,
    ) -> Result<DistRunReport, CoreError> {
        self.run_sockets_corrupt_observed(instance, strategy, options, corruption, &mut ())
    }

    /// Like [`DistributedAdmg::run_sockets_corrupt`], streaming events to
    /// a caller-supplied observer.
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run_sockets_corrupt`].
    pub fn run_sockets_corrupt_observed(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        options: &SocketOptions,
        corruption: CorruptionConfig,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        let (runtime, sockets) = (Runtime::Threaded, Some(options));
        self.corrupt(instance, strategy, corruption, runtime, sockets, observer)
    }

    /// Runs the protocol (lockstep engine) over a lossy channel with
    /// retransmission. The iterates — and therefore the solution — are
    /// identical to a lossless run; only the traffic and the estimated WAN
    /// wall-clock grow (see [`crate::loss`]).
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run`].
    pub fn run_lossy(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        loss: LossConfig,
    ) -> Result<DistRunReport, CoreError> {
        let (active_mu, active_nu) = strategy.block_activation(instance)?;
        let mut report = run_lockstep(
            &self.settings,
            instance,
            active_mu,
            active_nu,
            FaultPlan::none(),
            Some(loss),
            &mut (),
        )?;
        report.fault = None;
        Ok(report)
    }

    /// Runs the protocol under seeded link-level payload corruption (see
    /// [`crate::fault::CorruptionConfig`]). With
    /// [`AdmgSettings::verify_checksums`] on, every data payload travels in
    /// a CRC32-checksummed frame: a corrupted copy is detected on receive
    /// and retransmitted (bounded by the config's budget), so the iterate
    /// stream — and the solution — match a clean run exactly. With
    /// verification off, corrupted payloads are *delivered*; the driver's
    /// divergence gate is then the only line of defense, and the run may
    /// fail with a typed error instead of converging. When
    /// [`AdmgSettings::divergence_rollback`] is on, periodic checkpoints
    /// are taken so a tripped gate can restore the last finite state
    /// instead of failing.
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run`], plus
    /// [`CoreError::CorruptPayload`] when the retransmit budget is
    /// exhausted and [`CoreError::Divergence`] when an undetected
    /// corruption poisons the iterate stream.
    pub fn run_corrupt(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        runtime: Runtime,
        corruption: CorruptionConfig,
    ) -> Result<DistRunReport, CoreError> {
        self.run_corrupt_observed(instance, strategy, runtime, corruption, &mut ())
    }

    /// Like [`DistributedAdmg::run_corrupt`], streaming events to a
    /// caller-supplied observer.
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run_corrupt`].
    pub fn run_corrupt_observed(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        runtime: Runtime,
        corruption: CorruptionConfig,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        if corruption.kind.is_some_and(|k| k.is_wire_level()) {
            return Err(CoreError::invalid_config(
                "wire-level corruption kinds (frame truncate/duplicate/reorder) need real \
                 TCP frames; use run_sockets_corrupt",
            ));
        }
        self.corrupt(instance, strategy, corruption, runtime, None, observer)
    }

    /// Runs the protocol under a deterministic [`FaultPlan`]: scripted
    /// crash-stop failures (with checkpoint-restart recovery), stragglers,
    /// and partition windows. A clean fault-free lockstep run is performed
    /// first so the returned [`FaultReport::ufc_delta_vs_clean`] measures
    /// the cost of running degraded.
    ///
    /// Both runtimes make identical recovery/eviction decisions; a run
    /// whose every crash recovers reproduces the clean iterates exactly
    /// (checkpoint-restart plus input replay is bit-faithful).
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run`], plus [`CoreError::InvalidConfig`]
    /// for an inconsistent plan and [`CoreError::NodeFailure`] for
    /// unrecoverable failures (a permanently dead front-end, or the last
    /// active datacenter).
    pub fn run_faulty(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        runtime: Runtime,
        plan: FaultPlan,
    ) -> Result<DistRunReport, CoreError> {
        self.run_faulty_observed(instance, strategy, runtime, plan, &mut ())
    }

    /// Like [`DistributedAdmg::run_faulty`], streaming events from the
    /// faulty run to a caller-supplied observer (the preliminary clean
    /// lockstep run is not observed).
    ///
    /// # Errors
    ///
    /// As for [`DistributedAdmg::run_faulty`].
    pub fn run_faulty_observed(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        runtime: Runtime,
        plan: FaultPlan,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        self.faulty(instance, strategy, plan, runtime, None, observer)
    }

    /// Runs `plan` on the engine `runtime` selects. `sockets` hosts the
    /// supervised coordinator's workers as OS processes over TCP; without
    /// it `Runtime::Threaded` hosts them as threads over in-memory pipes.
    fn engine(
        &self,
        instance: &UfcInstance,
        (active_mu, active_nu): (bool, bool),
        plan: FaultPlan,
        runtime: Runtime,
        sockets: Option<&SocketOptions>,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        let settings = &self.settings;
        match runtime {
            Runtime::Lockstep => run_lockstep(
                settings, instance, active_mu, active_nu, plan, None, observer,
            ),
            Runtime::Threaded => run_socket_engine(
                settings, instance, active_mu, active_nu, plan, sockets, observer,
            ),
        }
    }

    /// A faulty run, preceded by the clean fault-free lockstep run its
    /// [`FaultReport::ufc_delta_vs_clean`] is measured against.
    fn faulty(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        plan: FaultPlan,
        runtime: Runtime,
        sockets: Option<&SocketOptions>,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        plan.check()?;
        let active = strategy.block_activation(instance)?;
        // The clean baseline run is support machinery, not the run the
        // caller asked to watch: no observer, no telemetry.
        let quiet = self.settings.with_telemetry(false);
        let clean = run_lockstep(
            &quiet,
            instance,
            active.0,
            active.1,
            FaultPlan::none(),
            None,
            &mut (),
        )?;
        let mut report = self.engine(instance, active, plan, runtime, sockets, observer)?;
        let delta = report.breakdown.ufc() - clean.breakdown.ufc();
        if let Some(fault) = report.fault.as_mut() {
            fault.ufc_delta_vs_clean = delta;
        }
        Ok(report)
    }

    /// A run under seeded payload corruption.
    fn corrupt(
        &self,
        instance: &UfcInstance,
        strategy: Strategy,
        corruption: CorruptionConfig,
        runtime: Runtime,
        sockets: Option<&SocketOptions>,
        observer: &mut dyn IterationObserver,
    ) -> Result<DistRunReport, CoreError> {
        let active = strategy.block_activation(instance)?;
        let mut plan = FaultPlan::none().with_corruption(corruption);
        if self.settings.divergence_rollback {
            // Rollback needs something to roll back to: checkpoint every
            // few iterations so a tripped gate finds a recent finite state.
            plan.checkpoint_interval = 4;
        }
        let mut report = self.engine(instance, active, plan, runtime, sockets, observer)?;
        // Corruption is link-level, not a node-fault scenario: the fault
        // report only stays when checkpointing actually ran.
        if report
            .fault
            .as_ref()
            .is_some_and(|f| f.checkpoints_taken == 0)
        {
            report.fault = None;
        }
        if let Some(fault) = report.fault.as_mut() {
            fault.ufc_delta_vs_clean = 0.0;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufc_model::EmissionCostFn;

    fn tiny() -> UfcInstance {
        UfcInstance::new(
            vec![1.0, 2.0],
            vec![2.0, 2.0],
            vec![0.24, 0.24],
            vec![0.12, 0.12],
            vec![0.48, 0.48],
            vec![30.0, 70.0],
            80.0,
            vec![0.5, 0.3],
            vec![vec![0.01, 0.02], vec![0.02, 0.01]],
            10.0,
            vec![
                EmissionCostFn::linear(25.0).unwrap(),
                EmissionCostFn::linear(25.0).unwrap(),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn lockstep_converges_and_counts_messages() {
        let inst = tiny();
        let report = DistributedAdmg::new(AdmgSettings::default())
            .run(&inst, Strategy::Hybrid, Runtime::Lockstep)
            .unwrap();
        assert!(report.converged);
        // 2·M·N data messages per iteration.
        assert_eq!(report.stats.data_messages, 2 * 2 * 2 * report.iterations);
        // (M+N) reports + (M+N) controls per iteration.
        assert_eq!(report.stats.control_messages, 2 * 4 * report.iterations);
        assert!(report.estimated_wan_seconds > 0.0);
        assert!(report.point.feasibility_residual(&inst) < 1e-8);
        assert!(report.fault.is_none());
    }

    #[test]
    fn threaded_matches_lockstep() {
        let inst = tiny();
        let runner = DistributedAdmg::new(AdmgSettings::default());
        let lockstep = runner
            .run(&inst, Strategy::Hybrid, Runtime::Lockstep)
            .unwrap();
        let threaded = runner
            .run(&inst, Strategy::Hybrid, Runtime::Threaded)
            .unwrap();
        assert_eq!(lockstep.iterations, threaded.iterations);
        assert!(
            (lockstep.breakdown.ufc() - threaded.breakdown.ufc()).abs() < 1e-9,
            "lockstep {} vs threaded {}",
            lockstep.breakdown.ufc(),
            threaded.breakdown.ufc()
        );
        assert_eq!(lockstep.stats, threaded.stats);
        assert!(threaded.fault.is_none());
    }

    /// A node whose sub-problem rejects poisoned replicas ships a typed
    /// `Subproblem` error across the wire; the supervised coordinator must
    /// fail with exactly the error lockstep raises, front-end or
    /// datacenter.
    #[test]
    fn poisoned_node_fails_identically_over_the_wire() {
        use crate::fault::CorruptionKind;
        let inst = tiny();
        let runner = DistributedAdmg::new(AdmgSettings::default());
        for (seed, rate, which) in [(1, 0.2, "lambda[1]"), (4, 0.01, "a[0]")] {
            let cfg = CorruptionConfig::new(rate, seed).with_kind(CorruptionKind::BitFlip);
            let lockstep = runner
                .run_corrupt(&inst, Strategy::Hybrid, Runtime::Lockstep, cfg)
                .unwrap_err();
            assert!(
                matches!(&lockstep, CoreError::Subproblem { which: w, .. } if w == which),
                "seed {seed}: {lockstep}"
            );
            let threaded = runner
                .run_corrupt(&inst, Strategy::Hybrid, Runtime::Threaded, cfg)
                .unwrap_err();
            assert!(
                matches!(threaded, CoreError::Subproblem { .. }),
                "seed {seed}: {threaded:?}"
            );
            assert_eq!(threaded.to_string(), lockstep.to_string());
        }
    }

    #[test]
    fn strategies_run_distributed() {
        let inst = tiny();
        let runner = DistributedAdmg::new(AdmgSettings::default());
        let grid = runner
            .run(&inst, Strategy::GridOnly, Runtime::Lockstep)
            .unwrap();
        assert!(grid.point.mu.iter().all(|&v| v == 0.0));
        let fc = runner
            .run(&inst, Strategy::FuelCellOnly, Runtime::Lockstep)
            .unwrap();
        assert!(fc.point.nu.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn fuel_cell_only_validation() {
        let mut inst = tiny();
        inst.mu_max = vec![0.0, 0.0];
        let err = DistributedAdmg::new(AdmgSettings::default())
            .run(&inst, Strategy::FuelCellOnly, Runtime::Lockstep)
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }));
    }

    #[test]
    fn try_new_rejects_bad_settings() {
        let settings = AdmgSettings {
            rho: -1.0,
            ..AdmgSettings::default()
        };
        assert!(matches!(
            DistributedAdmg::try_new(settings),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
