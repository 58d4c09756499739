//! Message-passing simulation of the distributed ADM-G protocol.
//!
//! The paper argues (§III, Fig. 2) that its 4-block ADM-G decomposes into a
//! *fully distributed* protocol between `M` front-end proxies and `N`
//! datacenters. This crate runs the algorithm that way — as independent
//! [`node`]s that only hold their own slice of the problem data and only
//! communicate through explicit [`message`]s:
//!
//! 1. each front-end solves its λ-sub-problem and sends `λ̃_ij` to
//!    datacenter `j`,
//! 2. each datacenter computes `μ̃_j` and `ν̃_j` locally,
//! 3. each datacenter solves its a-sub-problem and sends `ã_ij` back to
//!    front-end `i`,
//! 4. both sides update their dual replicas and apply the Gaussian
//!    back-substitution correction to the blocks they own,
//! 5. a coordinator max-reduces the per-node residuals and broadcasts the
//!    continue/stop decision.
//!
//! Two engines execute the same node logic: [`Runtime::Lockstep`] (a
//! deterministic round engine, bit-identical to `ufc_core::AdmgSolver` by
//! construction — asserted in tests) and one supervised coordinator that
//! drives worker units speaking a checksummed wire protocol. The
//! supervised coordinator runs its workers either as `ufc-node` OS
//! processes over TCP ([`DistributedAdmg::run_sockets`]) or, for
//! [`Runtime::Threaded`], as in-process threads running the same
//! [`worker`] loop over in-memory pipes. Both engines are `Transport`
//! implementations sequenced by the single transport-agnostic iteration
//! driver `ufc_core::engine::drive` — the λ→μ→ν→a prediction order, the
//! correction step, and the stop rule exist in exactly one place. Both
//! account every logical message and estimate the wall-clock cost of a
//! real WAN deployment from the latency matrix.
//!
//! # Failure model
//!
//! The supervised runtimes take a deterministic, seeded [`FaultPlan`] that
//! scripts crash-stop failures (with or without recovery), straggler
//! delays, and partition windows. The coordinator awaits every reply with
//! `recv_timeout` deadlines and an exponential backoff ladder; a node
//! silent past its eviction deadline is respawned from its last
//! [`snapshot`] checkpoint and replayed, or — for datacenters only —
//! evicted so the survivors continue in degraded mode (the evicted `μ_j`
//! and `λ_·j` blocks are pinned to zero) until the node is readmitted.
//! Every fault decision is mirrored by the lockstep engine, so a faulty
//! run is reproducible and testable; accounting lands in a [`FaultReport`]
//! attached to the [`DistRunReport`].
//!
//! Orthogonally to crash faults, a seeded [`CorruptionConfig`] poisons
//! data payloads in flight (bit-flips, sign flips, NaN substitution,
//! magnitude scaling). With `AdmgSettings::verify_checksums` on, payloads
//! travel in CRC32-framed [`message`]s, corrupt copies are detected on
//! receive and retransmitted (bounded), and the run converges to the clean
//! answer; with verification off, delivered poison is caught by the
//! driver's divergence gate as a typed error — never a panic or a silently
//! wrong UFC.
//!
//! The multi-process socket runtime extends both directions to a hostile
//! network: a [`BindConfig`] allows non-loopback listen addresses gated on
//! a shared [`AuthKey`] (challenge–response keyed MAC before any iteration
//! state moves), and the wire-level [`CorruptionKind`]s
//! (`FrameTruncate`/`FrameDuplicate`/`FrameReorder`) mangle real TCP
//! frames in the socket I/O pumps, repaired by the CRC + `Nak`/resend
//! ladder (`DistributedAdmg::run_sockets_corrupt`).
//!
//! # Example
//!
//! ```
//! use ufc_core::{AdmgSettings, Strategy};
//! use ufc_distsim::{DistributedAdmg, Runtime};
//! use ufc_model::scenario::ScenarioBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = ScenarioBuilder::paper_default().hours(1).build()?;
//! let report = DistributedAdmg::new(AdmgSettings::default())
//!     .run(&scenario.instances[0], Strategy::Hybrid, Runtime::Lockstep)?;
//! assert!(report.converged);
//! // Two data messages per (front-end, datacenter) pair per iteration.
//! assert_eq!(report.stats.data_messages, 2 * 10 * 4 * report.iterations);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod coordinator;
mod engine_lockstep;
mod engine_socket;
pub mod fault;
pub mod loss;
pub mod message;
pub mod node;
mod pipe;
mod rng;
mod runtime;
pub mod snapshot;
pub mod stats;
mod supervision;
pub mod wire;
pub mod worker;

pub use fault::{
    CorruptionConfig, CorruptionKind, FaultPlan, FaultReport, NodeId, PartitionWindow,
};
pub use runtime::{DistRunReport, DistributedAdmg, Runtime, SocketOptions};
pub use snapshot::{CheckpointStore, DatacenterSnapshot, FrontendSnapshot};
pub use wire::{AuthKey, BindConfig};
