//! In-memory spans for the traced run.
//!
//! Each solve is one tree: a `solve` span recorded around the public API
//! call, with the driver phases as its children. Phase spans come from
//! [`PhaseRecorder`], an `IterationObserver` that asks the driver for phase
//! timings and turns each `(phase, elapsed)` event into a span ending at the
//! moment it is reported. Spans stay in memory and are written out once,
//! when the run ends.
//!
//! A span's self time is its duration minus the part of its interval that
//! its children cover (overlapping children are counted once).

use std::time::{Duration, Instant};

use ufc_core::engine::{IterationEvent, IterationObserver};
use ufc_core::Phase;

use crate::json::{object, quoted};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its [`Tracer`].
    pub id: usize,
    /// The span that caused this one (`None` for a solve).
    pub parent: Option<usize>,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a root span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.push(None, name, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Sums the root spans named `root` and their phase children into a
    /// [`Breakdown`].
    #[must_use]
    pub fn breakdown(&self, root: &str) -> Breakdown {
        let self_ns = self.self_times_ns();
        let mut b = Breakdown::default();
        for s in &self.spans {
            match s.parent {
                None if s.name == root => {
                    b.roots += 1;
                    b.root_ns += s.duration_ns();
                    b.root_self_ns += self_ns[s.id];
                }
                Some(p) if self.spans[p].name == root => {
                    if let Some(k) = Phase::ALL.iter().position(|p| p.name() == s.name) {
                        b.phase_ns[k] += s.duration_ns();
                    }
                }
                _ => {}
            }
        }
        b
    }

    /// The spans as JSON lines, with their self time.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&object(&[
                ("id", s.id.to_string()),
                ("parent", parent),
                ("name", quoted(s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
                ("self_ns", self_ns[s.id].to_string()),
            ]));
            out.push('\n');
        }
        out
    }
}

/// Totals over every solve tree of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Root (solve) spans.
    pub roots: u64,
    /// Summed root durations.
    pub root_ns: u64,
    /// Summed root self times: the solve outside every driver phase.
    pub root_self_ns: u64,
    /// Summed child durations per phase, in [`Phase::ALL`] order.
    pub phase_ns: [u64; 5],
}

impl Breakdown {
    /// Summed phase time.
    #[must_use]
    pub fn phases_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }
}

/// An observer that records each driver phase as a child of one solve span.
#[derive(Debug)]
pub struct PhaseRecorder<'a> {
    tracer: &'a mut Tracer,
    parent: usize,
}

impl<'a> PhaseRecorder<'a> {
    /// Records phases under span `parent`.
    pub fn new(tracer: &'a mut Tracer, parent: usize) -> Self {
        PhaseRecorder { tracer, parent }
    }
}

impl IterationObserver for PhaseRecorder<'_> {
    fn on_iteration(&mut self, _event: &IterationEvent) {}

    fn wants_phase_timings(&self) -> bool {
        true
    }

    fn on_phase(&mut self, _k: usize, phase: Phase, elapsed: Duration) {
        let end = self.tracer.now_ns();
        let start = end.saturating_sub(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        self.tracer
            .push(Some(self.parent), phase.name(), start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let root = t.push(None, "solve", 0, 100);
        t.push(Some(root), "begin", 10, 30);
        t.push(Some(root), "correct", 20, 50); // overlaps the first child
        t.push(Some(root), "finish_iteration", 90, 120); // runs past the root
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns[root], 100 - 40 - 10);
        assert_eq!(self_ns[1], 20);
        let b = t.breakdown("solve");
        assert_eq!(b.roots, 1);
        assert_eq!(b.root_self_ns, 50);
        assert_eq!(b.phase_ns, [20, 0, 0, 30, 30]);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::default();
        let root = t.open("solve");
        t.close(root);
        t.push(Some(root), "correct", 0, 0);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            crate::json::parse(line).unwrap();
        }
    }
}
