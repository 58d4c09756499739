//! The byte streams the coordinator and its workers talk over.
//!
//! A [`Link`] is either a TCP connection (worker processes) or one end of
//! an in-memory duplex [`PipeEnd`] pair (worker threads). Both carry the
//! same length-prefixed wire frames through the same
//! [`crate::wire::FrameBuffer`] reassembly, so `Runtime::Threaded` exercises
//! the socket runtime's codec, CRC checks, and recovery paths without
//! spawning a process or opening a socket.
//!
//! The pipe keeps TCP's observable semantics where the engine relies on
//! them: writes never block, a reader drains buffered bytes before it sees
//! EOF, closing either end wakes readers blocked on both directions, a
//! write into a closed pipe fails with `BrokenPipe`, and a read timeout
//! surfaces as `WouldBlock`. Dropping the last handle to an end closes it,
//! as closing the last descriptor of a socket does.
//!
//! [`PipeConnector`] is the in-memory listener: a worker thread dials it
//! for its `(process, incarnation)` slot and the coordinator's acceptor
//! receives the other end. The coordinator can sever a slot — close its
//! current pipe and refuse that incarnation's redial — which makes the
//! worker thread exit silently, the thread spelling of a `SIGKILL`.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ufc_core::CoreError;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Critical sections here never panic, so a poisoned lock still guards
    // consistent state.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One direction of a pipe: a byte queue plus its closed flag.
#[derive(Default)]
struct Half {
    state: Mutex<HalfState>,
    ready: Condvar,
}

#[derive(Default)]
struct HalfState {
    bytes: VecDeque<u8>,
    closed: bool,
}

impl Half {
    fn write(&self, data: &[u8]) -> io::Result<()> {
        let mut state = lock(&self.state);
        if state.closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        state.bytes.extend(data);
        self.ready.notify_all();
        Ok(())
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = lock(&self.state);
        loop {
            if !state.bytes.is_empty() || buf.is_empty() {
                let n = buf.len().min(state.bytes.len());
                for (dst, src) in buf.iter_mut().zip(state.bytes.drain(..n)) {
                    *dst = src;
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            state = match deadline {
                None => self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(ErrorKind::WouldBlock.into());
                    }
                    self.ready
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// Shared state of one pipe end; every clone of a [`PipeEnd`] points here.
struct EndInner {
    rx: Arc<Half>,
    tx: Arc<Half>,
    read_timeout: Mutex<Option<Duration>>,
}

impl Drop for EndInner {
    fn drop(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

/// One end of an in-memory duplex byte pipe. Clones share the end (like a
/// duplicated socket descriptor); the end closes when the last clone drops
/// or on [`PipeEnd::close`].
#[derive(Clone)]
pub(crate) struct PipeEnd {
    inner: Arc<EndInner>,
}

/// A connected pair of pipe ends: bytes written to one are read from the
/// other.
pub(crate) fn duplex() -> (PipeEnd, PipeEnd) {
    let (a_to_b, b_to_a) = (Arc::new(Half::default()), Arc::new(Half::default()));
    let end = |rx: &Arc<Half>, tx: &Arc<Half>| PipeEnd {
        inner: Arc::new(EndInner {
            rx: Arc::clone(rx),
            tx: Arc::clone(tx),
            read_timeout: Mutex::new(None),
        }),
    };
    (end(&b_to_a, &a_to_b), end(&a_to_b, &b_to_a))
}

impl PipeEnd {
    /// Closes both directions; readers on either side drain what is
    /// buffered and then see EOF.
    pub(crate) fn close(&self) {
        self.inner.rx.close();
        self.inner.tx.close();
    }

    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = *lock(&self.inner.read_timeout);
        self.inner.rx.read(buf, timeout)
    }

    fn write_all(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.tx.write(bytes)
    }
}

/// A coordinator↔worker byte stream.
pub(crate) enum Link {
    /// A TCP connection to or from a worker process.
    Tcp(TcpStream),
    /// An in-memory pipe to or from a worker thread.
    Pipe(PipeEnd),
}

impl Link {
    pub(crate) fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Link::Tcp(stream) => (&*stream).read(buf),
            Link::Pipe(end) => end.read(buf),
        }
    }

    pub(crate) fn write_all(&self, bytes: &[u8]) -> io::Result<()> {
        match self {
            Link::Tcp(stream) => (&*stream).write_all(bytes),
            Link::Pipe(end) => end.write_all(bytes),
        }
    }

    /// Tears the connection down in both directions (best effort).
    pub(crate) fn shutdown(&self) {
        match self {
            Link::Tcp(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
            Link::Pipe(end) => end.close(),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Link::Tcp(stream) => stream.set_read_timeout(timeout),
            Link::Pipe(end) => {
                *lock(&end.inner.read_timeout) = timeout;
                Ok(())
            }
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Link> {
        match self {
            Link::Tcp(stream) => stream.try_clone().map(Link::Tcp),
            Link::Pipe(end) => Ok(Link::Pipe(end.clone())),
        }
    }
}

/// The in-memory listener worker threads dial.
#[derive(Clone)]
pub(crate) struct PipeConnector {
    state: Arc<Mutex<ConnectorState>>,
}

struct ConnectorState {
    /// Where accepted coordinator ends go; `None` once closed.
    accept: Option<Sender<PipeEnd>>,
    /// Per process slot: the incarnation allowed to dial (`None` while
    /// severed) and the worker end of its current pipe.
    slots: Vec<(Option<u32>, Option<PipeEnd>)>,
}

impl PipeConnector {
    /// A connector for `processes` slots, plus the receiver the acceptor
    /// drains.
    pub(crate) fn new(processes: usize) -> (Self, Receiver<PipeEnd>) {
        let (tx, rx) = mpsc::channel();
        let state = ConnectorState {
            accept: Some(tx),
            slots: vec![(None, None); processes],
        };
        (
            PipeConnector {
                state: Arc::new(Mutex::new(state)),
            },
            rx,
        )
    }

    /// Admits `incarnation` of slot `process` (a freshly spawned worker).
    pub(crate) fn admit(&self, process: usize, incarnation: u32) {
        lock(&self.state).slots[process].0 = Some(incarnation);
    }

    /// Opens a pipe for `(process, incarnation)` and hands the coordinator
    /// end to the acceptor.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeFailure`] when the slot was severed, the
    /// incarnation is stale, or the connector is closed. Never retried:
    /// a refused worker thread exits.
    pub(crate) fn dial(&self, process: usize, incarnation: u32) -> Result<Link, CoreError> {
        let mut state = lock(&self.state);
        let refused = || {
            CoreError::node_failure(
                format!("worker-{process}"),
                0,
                format!("in-memory connect refused for incarnation {incarnation}"),
            )
        };
        if state.slots.get(process).map(|slot| slot.0) != Some(Some(incarnation)) {
            return Err(refused());
        }
        let (worker, coordinator) = duplex();
        state
            .accept
            .as_ref()
            .ok_or_else(refused)?
            .send(coordinator)
            .map_err(|_| refused())?;
        state.slots[process].1 = Some(worker.clone());
        Ok(Link::Pipe(worker))
    }

    /// Closes slot `process`'s current pipe and refuses any redial until
    /// the next [`PipeConnector::admit`].
    pub(crate) fn sever(&self, process: usize) {
        let mut state = lock(&self.state);
        let slot = &mut state.slots[process];
        slot.0 = None;
        if let Some(end) = slot.1.take() {
            end.close();
        }
    }

    /// Refuses every further dial and lets the acceptor's receiver drain
    /// to a disconnect.
    pub(crate) fn close(&self) {
        let mut state = lock(&self.state);
        state.accept = None;
        for slot in &mut state.slots {
            slot.0 = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameBuffer;

    #[test]
    fn writes_split_at_any_boundary_reassemble_through_the_frame_buffer() {
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|k| vec![k; 6 + 7 * k as usize]).collect();
        let stream: Vec<u8> = payloads
            .iter()
            .flat_map(|p| crate::wire::frame(p))
            .collect();
        for split in [1, 2, 3, 5, 64, stream.len()] {
            let (a, b) = duplex();
            for chunk in stream.chunks(split) {
                a.write_all(chunk).unwrap();
            }
            a.close();
            let mut frames = FrameBuffer::new();
            let mut got = Vec::new();
            let mut buf = [0u8; 4];
            loop {
                let n = b.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                frames.push(&buf[..n]);
                while let Some(payload) = frames.next_frame().unwrap() {
                    got.push(payload);
                }
            }
            assert_eq!(got, payloads, "split {split}");
            assert_eq!(frames.pending_bytes(), 0);
        }
    }

    #[test]
    fn reader_drains_then_sees_eof_after_the_peer_closes() {
        let (a, b) = duplex();
        a.write_all(b"tail").unwrap();
        drop(a);
        let mut buf = [0u8; 16];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"tail");
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF is sticky");
        let err = b.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn closing_one_end_wakes_readers_blocked_on_both() {
        let (a, b) = duplex();
        let a_reader = a.clone();
        let blocked_on_a = std::thread::spawn(move || a_reader.read(&mut [0u8; 8]).unwrap());
        let blocked_on_b = std::thread::spawn(move || b.read(&mut [0u8; 8]).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        assert_eq!(blocked_on_a.join().unwrap(), 0);
        assert_eq!(blocked_on_b.join().unwrap(), 0);
    }

    #[test]
    fn read_timeout_surfaces_as_would_block() {
        let (a, b) = duplex();
        let link = Link::Pipe(b);
        link.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let err = link.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        a.write_all(b"ok").unwrap();
        assert_eq!(link.read(&mut [0u8; 8]).unwrap(), 2);
    }

    #[test]
    fn severed_slots_close_the_pipe_and_refuse_the_redial() {
        let (connector, accepted) = PipeConnector::new(2);
        assert!(connector.dial(0, 0).is_err(), "slot not admitted yet");
        connector.admit(0, 0);
        let worker = connector.dial(0, 0).unwrap();
        let coordinator = Link::Pipe(accepted.try_recv().unwrap());
        assert!(connector.dial(0, 1).is_err(), "stale incarnation");

        connector.sever(0);
        assert_eq!(worker.read(&mut [0u8; 8]).unwrap(), 0);
        assert_eq!(coordinator.read(&mut [0u8; 8]).unwrap(), 0);
        assert!(connector.dial(0, 0).is_err(), "severed incarnation");

        connector.admit(1, 3);
        connector.close();
        assert!(connector.dial(1, 3).is_err(), "closed connector");
        assert!(accepted.recv().is_err(), "acceptor sees the disconnect");
    }
}
