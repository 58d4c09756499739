//! What the supervising coordinator gathers: iteration-tagged worker
//! [`Reply`]s and the exponential-backoff [`gather_phase`] ladder that
//! drains them.
//!
//! Every reply is iteration-tagged so stale replay traffic is discarded,
//! and [`gather_phase`] only declares a silent node dead once its worker
//! (process or thread) has actually exited.

use std::collections::HashSet;
#[cfg(test)]
use std::sync::mpsc::channel;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use ufc_core::CoreError;

use crate::fault::NodeId;
use crate::node::NodeResiduals;

/// Worker replies, tagged with node and iteration so the coordinator can
/// discard stale replay traffic.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Reply {
    Lambda {
        i: usize,
        iteration: usize,
        row: Vec<f64>,
    },
    FeResidual {
        i: usize,
        iteration: usize,
        residuals: NodeResiduals,
    },
    DcStep {
        j: usize,
        iteration: usize,
        a_tilde: Vec<f64>,
        d: f64,
        residuals: NodeResiduals,
    },
    FeSnapshot {
        i: usize,
        iteration: usize,
        blob: Vec<u8>,
    },
    DcSnapshot {
        j: usize,
        iteration: usize,
        blob: Vec<u8>,
    },
    FeFinal {
        i: usize,
        lambda: Vec<f64>,
    },
    DcFinal {
        j: usize,
        mu: f64,
        d: f64,
    },
    /// A node's sub-problem rejected its inputs (e.g. NaN-poisoned
    /// replicas under unverified corruption). The worker reports the typed
    /// error and stops; the coordinator aborts the run with it instead of
    /// respawning into the same poison. The wire codec carries the
    /// [`CoreError::Subproblem`] a node kernel returns verbatim.
    NodeError {
        node: NodeId,
        iteration: usize,
        error: CoreError,
    },
}

/// Hard cap on ladder restarts granted to silent-but-running workers. At
/// 1000 restarts of the full ladder a worker is treated as wedged and
/// returned as missing regardless of worker liveness.
const MAX_EXTENSIONS: u32 = 1000;

/// Waits for the pending nodes' replies with an exponential-backoff ladder.
///
/// Each rung of the ladder is a fixed *phase deadline* (`base_timeout`
/// doubled per rung, `rounds` rungs): timely replies drain the queue but
/// never push the deadline out, so a trickle of replies cannot stretch the
/// wait. When the ladder is exhausted, any pending node whose worker has
/// actually exited (`alive` is false) is immediately returned as
/// suspected-dead, in deterministic node order — a live straggler elsewhere
/// in the pending set does not delay that verdict. Silent-but-running
/// workers (long sub-problem, scheduling hiccup) get the ladder restarted,
/// up to [`MAX_EXTENSIONS`] times.
///
/// # Worst-case bound
///
/// One ladder blocks for at most `Σ_{r<rounds} base_timeout·2^r =
/// base_timeout·(2^rounds − 1)` — i.e.
/// [`crate::fault::FaultPlan::ladder_seconds`] — *independent of how many
/// replies arrive*. A dead node is therefore declared within one ladder of
/// the moment its worker exits; with `E`
/// ladder extensions granted to live stragglers the total wait is at most
/// `(1 + E)` ladders, `E ≤ MAX_EXTENSIONS`.
pub(crate) fn gather_phase(
    rx: &Receiver<Reply>,
    pending: &mut HashSet<NodeId>,
    base_timeout: Duration,
    rounds: u32,
    alive: impl Fn(NodeId) -> bool,
    mut accept: impl FnMut(Reply) -> Option<NodeId>,
) -> Vec<NodeId> {
    let rounds = rounds.max(1);
    let mut round = 0u32;
    let mut wait = base_timeout;
    let mut extensions = 0u32;
    let mut deadline = Instant::now() + wait;
    let mut missing: Vec<NodeId> = loop {
        if pending.is_empty() {
            break Vec::new();
        }
        // `recv_timeout` polls the queue before blocking, so a zero
        // remaining budget still drains replies that already arrived.
        let remaining = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(remaining) {
            Ok(reply) => {
                if let Some(node) = accept(reply) {
                    pending.remove(&node);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                round += 1;
                if round < rounds {
                    wait = wait.saturating_mul(2);
                    deadline = Instant::now() + wait;
                    continue;
                }
                // Ladder exhausted: declare exited workers dead right away.
                let dead: Vec<NodeId> = pending.iter().copied().filter(|&n| !alive(n)).collect();
                if !dead.is_empty() {
                    for node in &dead {
                        pending.remove(node);
                    }
                    break dead;
                }
                if extensions >= MAX_EXTENSIONS {
                    break pending.drain().collect();
                }
                extensions += 1;
                round = 0;
                wait = base_timeout;
                deadline = Instant::now() + wait;
            }
            Err(RecvTimeoutError::Disconnected) => break pending.drain().collect(),
        }
    };
    missing.sort_by_key(|node| match node {
        NodeId::Frontend(i) => (0, *i),
        NodeId::Datacenter(j) => (1, *j),
    });
    missing
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One live straggler (replies late) and one crash-stopped worker
    /// (thread exited, never replies) in the same gather: the dead node
    /// must be declared within the ladder budget, not after the straggler
    /// wakes. Pre-fix, `any(alive)` restarted the whole ladder while the
    /// straggler slept, stalling the dead-node verdict by ~1.2 s.
    #[test]
    fn dead_node_declared_while_straggler_sleeps() {
        let (tx, rx) = channel::<Reply>();
        let mut pending: HashSet<NodeId> = [NodeId::Frontend(0), NodeId::Frontend(1)]
            .into_iter()
            .collect();
        // Frontend(0) is a live straggler replying long after the ladder;
        // Frontend(1)'s thread has already exited.
        let straggler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(1200));
            let _ = tx.send(Reply::Lambda {
                i: 0,
                iteration: 1,
                row: vec![1.0],
            });
        });
        let start = Instant::now();
        let missing = gather_phase(
            &rx,
            &mut pending,
            Duration::from_millis(20),
            3, // ladder = 20 + 40 + 80 = 140 ms
            |node| node == NodeId::Frontend(0),
            |reply| match reply {
                Reply::Lambda { i, .. } => Some(NodeId::Frontend(i)),
                _ => None,
            },
        );
        let elapsed = start.elapsed();
        assert_eq!(missing, vec![NodeId::Frontend(1)]);
        assert!(
            pending.contains(&NodeId::Frontend(0)),
            "the live straggler must stay pending, not be declared dead"
        );
        assert!(
            elapsed < Duration::from_millis(600),
            "dead node took {elapsed:?} to declare — gated on the straggler"
        );
        straggler.join().expect("straggler thread panicked");
    }

    /// A trickle of timely replies must not re-arm the rung: the ladder is
    /// a phase deadline, so the worst case is `base·(2^rounds − 1)` per
    /// ladder regardless of reply count. Pre-fix, each reply restarted the
    /// (possibly doubled) `recv_timeout`, stretching the phase to ~N×.
    #[test]
    fn timely_replies_do_not_extend_the_phase_deadline() {
        let (tx, rx) = channel::<Reply>();
        let mut pending: HashSet<NodeId> = (0..11).map(NodeId::Frontend).collect();
        // Frontend(0) is dead and silent; frontends 1..=10 trickle replies
        // every 80 ms — each inside a fresh base timeout of 100 ms, so the
        // pre-fix per-message wait never fires until the trickle ends.
        let trickle = std::thread::spawn(move || {
            for i in 1..11usize {
                std::thread::sleep(Duration::from_millis(80));
                let _ = tx.send(Reply::Lambda {
                    i,
                    iteration: 1,
                    row: vec![1.0],
                });
            }
        });
        let start = Instant::now();
        let missing = gather_phase(
            &rx,
            &mut pending,
            Duration::from_millis(100),
            2, // ladder = 100 + 200 = 300 ms
            |node| node != NodeId::Frontend(0),
            |reply| match reply {
                Reply::Lambda { i, .. } => Some(NodeId::Frontend(i)),
                _ => None,
            },
        );
        let elapsed = start.elapsed();
        assert_eq!(missing, vec![NodeId::Frontend(0)]);
        assert!(
            elapsed < Duration::from_millis(700),
            "phase took {elapsed:?} — replies re-armed the rung timeout \
             (trickle alone spans 800 ms)"
        );
        trickle.join().expect("trickle thread panicked");
    }
}
