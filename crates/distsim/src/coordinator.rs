//! Coordinator-side helpers shared by both distributed engines.
//!
//! Everything here is transport-independent bookkeeping: traffic recording
//! (with loss retransmission and partition relay accounting), plan-driven
//! straggler charging, residual reduction, replay-history filtering, and
//! the final gather→polish step. The lockstep engine
//! (`crate::engine_lockstep`) and the supervised coordinator
//! (`crate::engine_socket`, behind both `Runtime::Threaded` and the socket
//! runtime) both call into these, so the engines stay
//! decision-for-decision identical by construction.

use ufc_core::engine::BlockResiduals;
use ufc_core::repair::assemble_point;
use ufc_core::{AdmgState, CoreError};
use ufc_model::{evaluate, OperatingPoint, UfcBreakdown, UfcInstance};

use crate::fault::{FaultTracker, IntegrityState, NodeId};
use crate::loss::LossyChannel;
use crate::message::{Message, CHECKSUM_OVERHEAD_BYTES};
use crate::node::{nan_max, NodeResiduals};
use crate::stats::MessageStats;

/// One iteration's inputs, buffered for checkpoint-restart replay.
pub(crate) struct HistoryEntry {
    /// The (1-based) iteration these inputs belong to.
    pub(crate) iteration: usize,
    /// Per-front-end λ̃ rows.
    pub(crate) rows: Vec<Vec<f64>>,
    /// Per-datacenter ã columns.
    pub(crate) a_cols: Vec<Vec<f64>>,
}

/// The buffered entries a node restored from a checkpoint taken after
/// iteration `base` must replay before rejoining iteration `k`.
pub(crate) fn replay_entries(
    history: &[HistoryEntry],
    base: usize,
    k: usize,
) -> impl Iterator<Item = &HistoryEntry> {
    history
        .iter()
        .filter(move |entry| entry.iteration > base && entry.iteration < k)
}

/// Worst *live* link latency in the deployment — the per-phase stall unit.
/// Links to evicted datacenters carry no traffic in degraded mode, so they
/// are excluded; with every datacenter evicted the stall unit is 0.
pub(crate) fn max_latency(instance: &UfcInstance, evicted: &[bool]) -> f64 {
    instance
        .latency_s
        .iter()
        .flat_map(|row| {
            row.iter()
                .enumerate()
                .filter(|&(j, _)| !evicted.get(j).copied().unwrap_or(false))
                .map(|(_, &l)| l)
        })
        .fold(0.0f64, f64::max)
}

/// Column `j` of the per-front-end λ̃ rows: the values bound for
/// datacenter `j`.
pub(crate) fn column_of(rows: &[Vec<f64>], j: usize) -> Vec<f64> {
    rows.iter().map(|row| row[j]).collect()
}

/// Row `i` of the per-datacenter ã columns: the values bound for
/// front-end `i`.
pub(crate) fn row_of(cols: &[Vec<f64>], i: usize) -> Vec<f64> {
    cols.iter().map(|col| col[i]).collect()
}

/// Plan-driven straggler accounting, identical in both engines: the
/// coordinator charges every scripted delay of a live node.
pub(crate) fn account_stragglers(tracker: &mut FaultTracker, m: usize, n: usize, k: usize) {
    for i in 0..m {
        let delay = tracker.plan().straggler_delay(NodeId::Frontend(i), k);
        if let Some(delay) = delay {
            tracker.record_straggler(delay);
        }
    }
    for j in 0..n {
        if tracker.is_evicted(j) {
            continue;
        }
        let delay = tracker.plan().straggler_delay(NodeId::Datacenter(j), k);
        if let Some(delay) = delay {
            tracker.record_straggler(delay);
        }
    }
}

/// One data message through the loss, corruption, and partition machinery:
/// charges retransmitted/relayed bytes, folds the worst attempt count into
/// `phase_max`, and returns the override value when corruption altered the
/// payload in flight.
#[allow(clippy::too_many_arguments)]
fn transmit_data(
    stats: &mut MessageStats,
    tracker: &mut FaultTracker,
    channel: &mut Option<&mut LossyChannel>,
    integrity: &mut IntegrityState,
    msg: &Message,
    i: usize,
    j: usize,
    k: usize,
    phase_max: &mut usize,
) -> Result<Option<f64>, CoreError> {
    stats.record(msg);
    if let Some(ch) = channel.as_deref_mut() {
        let attempts = ch.send();
        stats.total_bytes += (attempts - 1) * msg.wire_bytes();
        *phase_max = (*phase_max).max(attempts);
    }
    let mut delivered = None;
    if integrity.active() {
        let frame_bytes = msg.wire_bytes()
            + if integrity.verify {
                CHECKSUM_OVERHEAD_BYTES
            } else {
                0
            };
        // Charge the trailer on the first copy, the full frame on resends.
        stats.total_bytes += frame_bytes - msg.wire_bytes();
        let (override_value, attempts) = integrity.transmit(msg, k)?;
        stats.total_bytes += (attempts - 1) * frame_bytes;
        *phase_max = (*phase_max).max(attempts);
        delivered = override_value;
    }
    if tracker.plan().is_partitioned(i, j, k) {
        stats.total_bytes += msg.wire_bytes();
        tracker.report.partition_retransmissions += 1;
    }
    Ok(delivered)
}

/// Records the λ̃ scatter to every non-evicted datacenter. A lossy
/// `channel` charges the retransmitted bytes and reports the phase's
/// worst attempt count (the synchronous phase waits for its slowest
/// message); the integrity layer may corrupt a payload in flight (the
/// delivered value is written back into `rows`) or, when checksums are
/// verified, charge the trailer bytes and bounded retransmits; severed
/// partition links double their bytes (relay path). Returns the phase-max
/// attempt count (1 when lossless and uncorrupted).
///
/// # Errors
///
/// Propagates the integrity layer's typed failures (retransmit budget
/// exhausted, or a non-finite payload delivered unverified).
pub(crate) fn record_lambda_traffic(
    stats: &mut MessageStats,
    tracker: &mut FaultTracker,
    mut channel: Option<&mut LossyChannel>,
    integrity: &mut IntegrityState,
    rows: &mut [Vec<f64>],
    k: usize,
) -> Result<usize, CoreError> {
    let mut phase_max = 1usize;
    for (i, row) in rows.iter_mut().enumerate() {
        for (j, value) in row.iter_mut().enumerate() {
            if tracker.is_evicted(j) {
                continue;
            }
            let msg = Message::LambdaTilde {
                frontend: i,
                datacenter: j,
                value: *value,
            };
            let delivered = transmit_data(
                stats,
                tracker,
                &mut channel,
                integrity,
                &msg,
                i,
                j,
                k,
                &mut phase_max,
            )?;
            if let Some(v) = delivered {
                *value = v;
            }
        }
    }
    Ok(phase_max)
}

/// Records one datacenter's ã gather (mirror of [`record_lambda_traffic`]).
/// Returns this column's worst attempt count (1 when lossless and
/// uncorrupted).
///
/// # Errors
///
/// As for [`record_lambda_traffic`].
pub(crate) fn record_a_traffic(
    stats: &mut MessageStats,
    tracker: &mut FaultTracker,
    mut channel: Option<&mut LossyChannel>,
    integrity: &mut IntegrityState,
    a_tilde: &mut [f64],
    j: usize,
    k: usize,
) -> Result<usize, CoreError> {
    let mut phase_max = 1usize;
    for (i, value) in a_tilde.iter_mut().enumerate() {
        let msg = Message::ATilde {
            frontend: i,
            datacenter: j,
            value: *value,
        };
        let delivered = transmit_data(
            stats,
            tracker,
            &mut channel,
            integrity,
            &msg,
            i,
            j,
            k,
            &mut phase_max,
        )?;
        if let Some(v) = delivered {
            *value = v;
        }
    }
    Ok(phase_max)
}

/// Records every node's residual report and max-reduces the three
/// residuals (NaN-sticky, so a poisoned iterate cannot hide — see
/// [`nan_max`]); the stop decision itself belongs to the unified driver
/// (`ufc_core::engine::drive`), which applies the tolerance tests and
/// hands the verdict back through [`record_control`]. Also returns the
/// first node whose report is non-finite — the divergence gate's suspect.
pub(crate) fn reduce_residuals(
    stats: &mut MessageStats,
    fe: &[NodeResiduals],
    dc: &[Option<NodeResiduals>],
) -> (BlockResiduals, Option<NodeId>) {
    let mut reduced = BlockResiduals::default();
    let mut suspect = None;
    let m = fe.len();
    let all = fe
        .iter()
        .map(|r| Some(*r))
        .chain(dc.iter().copied())
        .enumerate();
    for (node, r) in all {
        let Some(r) = r else { continue };
        stats.record(&Message::ResidualReport {
            node,
            link: r.link,
            balance: r.balance,
            movement: r.movement,
        });
        reduced.link = nan_max(reduced.link, r.link);
        reduced.balance = nan_max(reduced.balance, r.balance);
        reduced.movement = nan_max(reduced.movement, r.movement);
        let finite = r.link.is_finite() && r.balance.is_finite() && r.movement.is_finite();
        if suspect.is_none() && !finite {
            suspect = Some(if node < m {
                NodeId::Frontend(node)
            } else {
                NodeId::Datacenter(node - m)
            });
        }
    }
    (reduced, suspect)
}

/// Accounts the coordinator's continue/stop broadcast to every live node.
pub(crate) fn record_control(stats: &mut MessageStats, stop: bool, node_count: usize) {
    for _ in 0..node_count {
        stats.record(&Message::Control { stop });
    }
}

/// Polishes the gathered iterate into a feasible point and evaluates it
/// (same repair as the in-memory solver). `d` is the gathered storage
/// column — all zeros when the schedule has no storage block.
pub(crate) fn finish(
    instance: &UfcInstance,
    lambda_rows: Vec<Vec<f64>>,
    mu: Vec<f64>,
    d: Vec<f64>,
    fuel_cell_only: bool,
) -> Result<(OperatingPoint, UfcBreakdown), CoreError> {
    let mut state = AdmgState::zeros(instance);
    for (i, row) in lambda_rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            let k = state.idx(i, j);
            state.lambda[k] = v;
        }
    }
    state.mu = mu;
    state.d = d;
    let point = assemble_point(instance, &state, fuel_cell_only)?;
    let breakdown = evaluate(instance, &point)?;
    Ok((point, breakdown))
}
