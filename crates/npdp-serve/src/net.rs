//! Deterministic network-fault injection: a stream wrapper that perturbs
//! reads and writes according to an [`npdp_fault::FaultInjector`] plan.
//!
//! The Cell port's chaos suite perturbs DMA and mailbox traffic; this
//! module extends the same discipline to the serve layer's TCP path. Every
//! I/O operation on a [`ChaosStream`] is a *site* — a pure function of
//! `(connection id, operation index)` — so whether a given op tears,
//! delays, drops or stalls is decided by `(plan seed, kind, site)` alone
//! and replays identically for the same seed, independent of wall clock.
//!
//! Four [`FaultKind::Net*`](npdp_fault::FaultKind) behaviors:
//!
//! * **NetTornFrame** — a write delivers only a prefix of its bytes, then
//!   the write half is shut down: the peer sees a frame cut mid-payload.
//! * **NetDelayWrite** — a write lands whole but late (bounded,
//!   deterministic delay), stressing deadline interactions.
//! * **NetDropConn** — both halves are shut down; the op and every later
//!   one fail with a typed connection-reset error.
//! * **NetStallRead** — a read stalls (bounded, deterministic) before
//!   delivering bytes, the client-side idle/read-timeout trigger.
//!
//! Stalls and delays are bounded (≤ [`MAX_STALL`]) so chaos runs perturb
//! timing without ever manufacturing an actual hang.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use npdp_fault::{site3, FaultInjector, FaultKind};

/// Upper bound on injected write delays and read stalls. Keeps every
/// perturbation finite: a chaos run may be slow, never stuck.
pub const MAX_STALL: Duration = Duration::from_millis(40);

/// Per-connection fault state shared by the read and write halves.
#[derive(Debug)]
struct ChaosState {
    inj: FaultInjector,
    /// Connection id — the first site coordinate.
    conn: u64,
    /// Monotone operation counter — the second site coordinate. Shared
    /// across halves so every op on the connection gets a distinct site.
    ops: AtomicU64,
    /// Once a drop fires, every later op fails without touching the
    /// socket (the peer already saw the reset).
    dropped: AtomicBool,
}

impl ChaosState {
    fn next_site(&self, dir: u64) -> u64 {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        site3(self.conn, op, dir)
    }
}

/// A `TcpStream` whose reads and writes may be deterministically torn,
/// delayed, dropped or stalled. With a noop injector it degrades to plain
/// socket I/O plus one untaken branch per op.
#[derive(Debug)]
pub struct ChaosStream {
    inner: TcpStream,
    state: Arc<ChaosState>,
}

/// Scale a deterministic payload into a bounded perturbation delay.
fn bounded_delay(payload: u64) -> Duration {
    let ms = 1 + payload % (MAX_STALL.as_millis() as u64);
    Duration::from_millis(ms)
}

impl ChaosStream {
    /// Wrap `stream`; `conn` seeds the per-connection site coordinate (use
    /// a distinct id per connection so plans decorrelate across them).
    pub fn new(stream: TcpStream, inj: FaultInjector, conn: u64) -> Self {
        Self {
            inner: stream,
            state: Arc::new(ChaosState {
                inj,
                conn,
                ops: AtomicU64::new(0),
                dropped: AtomicBool::new(false),
            }),
        }
    }

    /// Clone sharing the fault state (read half / write half of one
    /// connection — op sites stay distinct across the halves).
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(Self {
            inner: self.inner.try_clone()?,
            state: Arc::clone(&self.state),
        })
    }

    /// The wrapped socket (timeouts etc. apply to both halves).
    pub fn get_ref(&self) -> &TcpStream {
        &self.inner
    }

    fn check_dropped(&self) -> io::Result<()> {
        if self.state.dropped.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected dropped connection",
            ));
        }
        Ok(())
    }

    fn drop_conn(&self) -> io::Error {
        self.state.dropped.store(true, Ordering::Release);
        let _ = self.inner.shutdown(Shutdown::Both);
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected dropped connection",
        )
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.check_dropped()?;
        if self.state.inj.enabled() {
            let site = self.state.next_site(0);
            if self.state.inj.should_inject(FaultKind::NetDropConn, site) {
                return Err(self.drop_conn());
            }
            if self.state.inj.should_inject(FaultKind::NetStallRead, site) {
                std::thread::sleep(bounded_delay(
                    self.state.inj.payload(FaultKind::NetStallRead, site),
                ));
            }
        }
        self.inner.read(buf)
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.check_dropped()?;
        if self.state.inj.enabled() && !buf.is_empty() {
            let site = self.state.next_site(1);
            if self.state.inj.should_inject(FaultKind::NetDropConn, site) {
                return Err(self.drop_conn());
            }
            if self.state.inj.should_inject(FaultKind::NetTornFrame, site) {
                // Deliver a strict prefix, then kill the write half: the
                // peer sees a frame torn mid-payload, we see a typed error
                // on the next write.
                let half = (buf.len() / 2).max(1).min(buf.len());
                let _ = self.inner.write(&buf[..half]);
                let _ = self.inner.flush();
                let _ = self.inner.shutdown(Shutdown::Write);
                self.state.dropped.store(true, Ordering::Release);
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected torn frame",
                ));
            }
            if self.state.inj.should_inject(FaultKind::NetDelayWrite, site) {
                std::thread::sleep(bounded_delay(
                    self.state.inj.payload(FaultKind::NetDelayWrite, site),
                ));
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.check_dropped()?;
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npdp_fault::FaultPlan;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn noop_injector_is_transparent() {
        let (a, b) = pair();
        let mut chaos = ChaosStream::new(a, FaultInjector::noop(), 0);
        chaos.write_all(b"hello").unwrap();
        chaos.flush().unwrap();
        let mut buf = [0u8; 5];
        let mut b = b;
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn drop_conn_is_typed_and_sticky() {
        let (a, _b) = pair();
        let plan = FaultPlan::seeded(7).with_rate(FaultKind::NetDropConn, 1.0);
        let inj = FaultInjector::new(plan);
        let mut chaos = ChaosStream::new(a, inj.clone(), 3);
        let err = chaos.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Sticky: later ops fail without consulting the injector again.
        let before = inj.injected(FaultKind::NetDropConn);
        assert!(chaos.write_all(b"y").is_err());
        assert!(chaos.read(&mut [0u8; 1]).is_err());
        assert_eq!(inj.injected(FaultKind::NetDropConn), before);
    }

    #[test]
    fn torn_frame_delivers_a_strict_prefix() {
        let (a, mut b) = pair();
        let plan = FaultPlan::seeded(11).with_rate(FaultKind::NetTornFrame, 1.0);
        let mut chaos = ChaosStream::new(a, FaultInjector::new(plan), 5);
        let err = chaos.write(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        assert!(!got.is_empty() && got.len() < 10, "got {} bytes", got.len());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let decisions = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).with_rate(FaultKind::NetDelayWrite, 0.5);
            let inj = FaultInjector::new(plan);
            (0..64)
                .map(|op| inj.should_inject(FaultKind::NetDelayWrite, site3(1, op, 1)))
                .collect()
        };
        assert_eq!(decisions(42), decisions(42));
        assert_ne!(decisions(42), decisions(43), "plans decorrelate by seed");
    }
}
