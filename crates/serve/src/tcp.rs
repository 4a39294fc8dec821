//! The TCP front end: exposes a [`Server`] over the [`wire`] protocol.
//!
//! This is a hand-rolled nonblocking readiness loop, not a
//! thread-per-connection design: a small fixed pool of event-loop
//! threads ([`TcpFrontendConfig::event_loops`]) shares one nonblocking
//! listener and multiplexes thousands of connections each, so ten
//! thousand idle connections cost ten thousand file descriptors and a
//! handful of threads — not ten thousand stacks. Each connection keeps
//!
//! - a read buffer fed by nonblocking reads, from which complete frames
//!   are peeled incrementally ([`try_extract_frame`]);
//! - a write buffer flushed opportunistically — a partial write or
//!   `WouldBlock` leaves the residue buffered until the socket reports
//!   writable again, so a slow reader exerts backpressure instead of
//!   wedging the loop or dropping bytes;
//! - a FIFO of pending response tickets, so responses go out in request
//!   order even though inference completes asynchronously.
//!
//! Inference requests are routed through a [`Batcher`], which coalesces
//! compatible same-model requests inside a deadline-slack-derived hold
//! window into one multi-column NPU dispatch (`max_batch: 1` restores
//! strict batch-1 semantics). Prometheus scrapes are answered inline.
//! Errors inside a request become `Error` frames; framing errors poison
//! the connection: it stops reading, drains the responses it still owes,
//! sends one final `Error` frame, and closes.
//!
//! # What wakes an event loop
//!
//! A loop blocks in one `poll` with no timeout over three kinds of
//! descriptor, and nothing else ever wakes it:
//!
//! - the shared listener and its own connections — a peer connected,
//!   sent bytes, drained enough for a stalled write to continue, or hung
//!   up;
//! - the read end of its *wake channel* (a socket pair): whoever finishes
//!   a reply for one of its connections — a batcher dispatcher thread —
//!   first sends the reply, then writes one byte here, so a finished
//!   reply is a readiness event like any other and goes out as soon as it
//!   exists;
//! - the same channel again on [`TcpFrontend::shutdown`], which sets the
//!   stop flag and writes the byte.
//!
//! There is no tick: a connected-but-idle server makes no wake-ups, and
//! the only timer on the whole TCP path is a coalescing window's own hold
//! deadline, kept by the batcher's dispatchers (see [`crate::batch`]).
//!
//! Readiness itself comes from `poll(2)` issued as a raw syscall on
//! x86-64 Linux (the workspace vendors no libc binding); other targets
//! fall back to a short-nap scan that treats every socket as ready and
//! relies on the nonblocking reads to sort out who actually was, so there
//! a finished reply waits out at most one nap.
//!
//! [`wire`]: crate::wire

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::batch::{BatchConfig, Batcher};
use crate::reply_slot::{reply_slot, ReplySlot, Unfilled};
use crate::request::{Attribution, Response, ServeError};
use crate::server::{Client, Server};
use crate::wire::{read_frame, try_extract_frame, write_frame, WireRequest, WireResponse, MAX_STR};

/// Tuning for one [`TcpFrontend`].
#[derive(Clone, Copy, Debug)]
pub struct TcpFrontendConfig {
    /// Event-loop threads sharing the listener. Each owns the
    /// connections it accepted for their whole lifetime.
    pub event_loops: usize,
    /// The admission-batching window applied to inference requests.
    /// `max_batch: 1` disables coalescing (strict batch-1 serving).
    pub batch: BatchConfig,
}

impl Default for TcpFrontendConfig {
    fn default() -> Self {
        TcpFrontendConfig {
            event_loops: 2,
            batch: BatchConfig::default(),
        }
    }
}

/// A running TCP front end. Dropping it stops the event loops and waits
/// for them; open connections are closed on shutdown.
pub struct TcpFrontend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Each loop's thread and the wake channel that unblocks its poll.
    loops: Mutex<Vec<(Arc<Wake>, std::thread::JoinHandle<()>)>>,
    // Held so the coalescing window outlives every event loop; the last
    // Arc drop (after the joins) flushes and joins the batcher's own
    // threads.
    _batcher: Arc<Batcher>,
}

impl TcpFrontend {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `server`'s models over it with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(server: &Server, addr: &str) -> std::io::Result<TcpFrontend> {
        TcpFrontend::bind_with(server, addr, TcpFrontendConfig::default())
    }

    /// [`TcpFrontend::bind`] with explicit event-loop and batching
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind_with(
        server: &Server,
        addr: &str,
        cfg: TcpFrontendConfig,
    ) -> std::io::Result<TcpFrontend> {
        let listener = Arc::new(TcpListener::bind(addr)?);
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let batcher = Arc::new(Batcher::new(server.client(), cfg.batch));

        // Every fallible step comes before the first spawn, so an error
        // leaves no thread behind.
        let wakes = (0..cfg.event_loops.max(1))
            .map(|_| Wake::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let loops = wakes
            .into_iter()
            .enumerate()
            .map(|(i, wake)| {
                let mut event_loop = EventLoop {
                    listener: Arc::clone(&listener),
                    client: server.client(),
                    batcher: Arc::clone(&batcher),
                    stop: Arc::clone(&stop),
                    wake: Arc::clone(&wake),
                    conns: Vec::new(),
                };
                let handle = std::thread::Builder::new()
                    .name(format!("bw-serve-loop-{i}"))
                    .spawn(move || event_loop.run())
                    .expect("event loop thread spawns");
                (wake, handle)
            })
            .collect();

        Ok(TcpFrontend {
            addr: local,
            stop,
            loops: Mutex::new(loops),
            _batcher: batcher,
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the event loops and joins them.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for (wake, handle) in self.loops.lock().unwrap().drain(..) {
            wake.wake();
            let _ = handle.join();
        }
    }
}

impl Drop for TcpFrontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Readiness for a set of descriptors: `poll(2)` issued as a raw
/// syscall where the workspace can (it carries no libc binding, and
/// spinning a scan over ten thousand idle sockets is exactly what the
/// readiness loop exists to avoid), a nap-and-over-report elsewhere.
mod readiness {
    /// Matches the kernel's `struct pollfd` layout.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: i32,
        pub(super) events: i16,
        pub(super) revents: i16,
    }

    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;

    /// `poll(fds, nfds, timeout_ms)`, a negative timeout blocking until
    /// something is ready; returns the syscall's raw result (ready
    /// count, 0 on timeout, negative errno on failure — callers treat
    /// failures like timeouts and retry).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(super) fn poll(fds: &mut [PollFd], timeout_ms: i32) -> isize {
        const SYS_POLL: isize = 7;
        let ret: isize;
        // SAFETY: the kernel reads and writes exactly `rsi` `struct pollfd`
        // records starting at `rdi` — the pointer and length of one
        // exclusively borrowed slice whose `repr(C)` element has that
        // struct's layout — so it stays inside memory this call owns.
        // `syscall` returns in `rax` and clobbers only `rcx` and `r11`,
        // both declared; it uses no stack (`nostack`), and without `nomem`
        // the compiler assumes memory changed, so the `revents` the kernel
        // wrote are re-read.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_POLL => ret,
                in("rdi") fds.as_mut_ptr(),
                in("rsi") fds.len(),
                in("rdx") timeout_ms as isize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    pub(super) use portable_poll as poll;

    /// Portable fallback: report every registered interest as ready
    /// after a short nap (the longest one when asked to block). The
    /// nonblocking reads and writes behind it turn the over-report into
    /// cheap `WouldBlock`s; correctness is identical, only idle
    /// efficiency degrades.
    #[cfg(any(test, not(all(target_os = "linux", target_arch = "x86_64"))))]
    pub(super) fn portable_poll(fds: &mut [PollFd], timeout_ms: i32) -> isize {
        const LONGEST_NAP_MS: u64 = 5;
        let nap_ms = u64::try_from(timeout_ms).map_or(LONGEST_NAP_MS, |ms| ms.min(LONGEST_NAP_MS));
        std::thread::sleep(std::time::Duration::from_millis(nap_ms));
        for f in fds.iter_mut() {
            f.revents = f.events;
        }
        fds.len() as isize
    }
}

#[cfg(unix)]
type WakeStream = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
type WakeStream = TcpStream;

/// One event loop's wake channel: a connected stream pair whose read
/// end sits in the loop's poll set, so anything that happens off the
/// sockets — a reply finishing on a dispatcher thread, shutdown — is a
/// readiness event like any other. Both ends live here, so a late wake
/// never writes to a closed peer.
struct Wake {
    tx: WakeStream,
    rx: WakeStream,
}

impl Wake {
    fn new() -> std::io::Result<Wake> {
        #[cfg(unix)]
        let (tx, rx) = WakeStream::pair()?;
        #[cfg(not(unix))]
        let (tx, rx) = {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let tx = TcpStream::connect(listener.local_addr()?)?;
            (tx, listener.accept()?.0)
        };
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Wake { tx, rx })
    }

    /// Makes the loop's next (or current) poll return. A full pipe means
    /// wakes are already unread, which is all this one would have said.
    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every wake byte, so the next poll blocks again.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(s: &T) -> i32 {
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_s: &T) -> i32 {
    -1
}

/// A response owed to the peer, in request order.
enum PendingReply {
    /// Already computed (a Prometheus scrape): the encoded payload.
    Ready(Vec<u8>),
    /// An inference in flight behind the coalescing window: its reply
    /// slot, filled by the batcher's dispatcher.
    Infer(ReplySlot<Result<Response, ServeError>>),
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed. Bounded: `try_extract_frame`
    /// rejects oversized prefixes before the body accumulates.
    rbuf: Vec<u8>,
    /// Bytes framed but not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// How much of `wbuf` the socket has taken (partial-write cursor).
    wpos: usize,
    /// Responses owed, oldest first.
    pending: VecDeque<PendingReply>,
    /// A framing error was seen: reading stops, and once `pending`
    /// drains this final `Error` frame goes out before the close.
    poison: Option<Vec<u8>>,
    poisoned: bool,
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            poison: None,
            poisoned: false,
            closed: false,
        }
    }

    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Appends one length-prefixed frame to the write buffer.
    fn queue_frame(&mut self, payload: &[u8]) {
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Drains the socket into `rbuf` until `WouldBlock`.
    fn read_ready(&mut self) {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => self.rbuf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }

    /// Flushes as much of `wbuf` as the socket accepts. A partial write
    /// or `WouldBlock` leaves the cursor where it stopped — the loop
    /// retries when the socket polls writable, so slow readers stall
    /// their own connection and nothing else.
    fn flush(&mut self) {
        while self.wants_write() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => {
                    self.wpos += n;
                    if self.wpos == self.wbuf.len() {
                        self.wbuf.clear();
                        self.wpos = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }
}

/// One event-loop thread: shares the listener, owns its connections.
struct EventLoop {
    listener: Arc<TcpListener>,
    client: Client,
    batcher: Arc<Batcher>,
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
    conns: Vec<Conn>,
}

impl EventLoop {
    fn run(&mut self) {
        use readiness::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

        while !self.stop.load(Ordering::Acquire) {
            let mut fds = Vec::with_capacity(self.conns.len() + 2);
            for fd in [raw_fd(&*self.listener), raw_fd(&self.wake.rx)] {
                fds.push(PollFd {
                    fd,
                    events: POLLIN,
                    revents: 0,
                });
            }
            for conn in &self.conns {
                let mut events = 0;
                if !conn.poisoned {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: raw_fd(&conn.stream),
                    events,
                    revents: 0,
                });
            }
            // Block: replies finishing elsewhere and shutdown arrive as
            // a byte on the wake channel, so nothing needs a tick.
            readiness::poll(&mut fds, -1);

            if fds[0].revents & POLLIN != 0 {
                self.accept_ready();
            }
            if fds[1].revents & POLLIN != 0 {
                // Before `drain_pending` below: a reply that lands after
                // this leaves its byte for the next poll.
                self.wake.drain();
            }

            for (conn, fd) in self.conns.iter_mut().zip(&fds[2..]) {
                if fd.revents & (POLLERR | POLLHUP) != 0 {
                    // Let the read path observe the close/error so owed
                    // responses are not silently dropped on a half-close.
                    conn.read_ready();
                }
                if fd.revents & POLLIN != 0 && !conn.poisoned && !conn.closed {
                    conn.read_ready();
                    parse_frames(conn, &self.client, &self.batcher, &self.wake);
                }
            }

            for conn in &mut self.conns {
                if conn.closed {
                    continue;
                }
                drain_pending(conn);
                conn.flush();
                // A poisoned connection closes once its goodbye frame is
                // fully on the wire.
                if conn.poisoned
                    && conn.pending.is_empty()
                    && conn.poison.is_none()
                    && !conn.wants_write()
                {
                    conn.closed = true;
                }
            }
            self.conns.retain(|c| !c.closed);
        }
    }

    /// Accepts until the listener would block. Other loops polling the
    /// same listener simply lose the race and see `WouldBlock`.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.conns.push(Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// Peels complete frames off `conn.rbuf` and turns each into a pending
/// reply ticket. A framing or decode error poisons the connection.
fn parse_frames(conn: &mut Conn, client: &Client, batcher: &Batcher, wake: &Arc<Wake>) {
    while !conn.poisoned {
        let payload = match try_extract_frame(&mut conn.rbuf) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) => {
                poison(conn, &e.to_string());
                return;
            }
        };
        match WireRequest::decode(&payload) {
            Ok(WireRequest::Infer {
                model,
                deadline_us,
                input,
            }) => {
                let (fill, slot) = reply_slot();
                let wake = Arc::clone(wake);
                // Fill, then wake: the loop that sees the byte finds the
                // reply already in the slot.
                let reply = move |result| {
                    fill.fill(result);
                    wake.wake();
                };
                let deadline = Duration::from_micros(deadline_us);
                batcher.submit_with(&model, input, deadline, Box::new(reply));
                conn.pending.push_back(PendingReply::Infer(slot));
            }
            Ok(WireRequest::Prometheus) => {
                conn.pending.push_back(PendingReply::Ready(
                    WireResponse::Prometheus(client.prometheus()).encode(),
                ));
            }
            Err(e) => poison(conn, &e.to_string()),
        }
    }
}

/// Marks the connection as framing-broken: tell the peer why, then stop
/// reading. Responses already owed still drain first, in order.
fn poison(conn: &mut Conn, msg: &str) {
    conn.poisoned = true;
    conn.poison = Some(WireResponse::Error(msg.to_owned()).encode());
}

/// Moves every resolved head-of-line reply into the write buffer,
/// preserving request order; stops at the first still-in-flight one.
fn drain_pending(conn: &mut Conn) {
    while let Some(front) = conn.pending.front_mut() {
        let payload = match front {
            PendingReply::Ready(p) => std::mem::take(p),
            PendingReply::Infer(slot) => match slot.try_take() {
                Ok(result) => encode_outcome(result),
                Err(Unfilled::Timeout) => break,
                Err(Unfilled::Disconnected) => {
                    WireResponse::Error(ServeError::Disconnected.to_string()).encode()
                }
            },
        };
        conn.pending.pop_front();
        conn.queue_frame(&payload);
    }
    if conn.pending.is_empty() {
        if let Some(goodbye) = conn.poison.take() {
            conn.queue_frame(&goodbye);
        }
    }
}

fn encode_outcome(result: Result<Response, ServeError>) -> Vec<u8> {
    match result {
        Ok(resp) => infer_response(&resp).encode(),
        // SLA rejections cross the wire typed, so remote clients see the
        // same structured error local ones do.
        Err(ServeError::SlaUnmeetable {
            model,
            bound_us,
            budget_us,
        }) => WireResponse::SlaUnmeetable {
            model,
            bound_us,
            budget_us,
        }
        .encode(),
        Err(e) => WireResponse::Error(e.to_string()).encode(),
    }
}

fn infer_response(resp: &Response) -> WireResponse {
    WireResponse::Infer {
        request_id: resp.request_id,
        latency_us: resp.latency.as_micros() as u64,
        worker: resp.worker as u32,
        retries: resp.retries,
        queue_wait_us: resp.attribution.queue_wait.as_micros() as u64,
        service_us: resp.attribution.service.as_micros() as u64,
        npu_cycles: resp.attribution.npu_cycles,
        npu_macs: resp.attribution.npu_macs,
        dep_stall_cycles: resp.attribution.dep_stall_cycles,
        resource_stall_cycles: resp.attribution.resource_stall_cycles,
        network_us: resp.attribution.network.as_micros() as u64,
        output: resp.output.clone(),
    }
}

/// A blocking client for the TCP front end: one connection, one request
/// in flight at a time.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpClient {
    /// Connects to a front end.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(TcpClient {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    /// Runs one inference over the wire.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] carries server-side failures (including
    /// shed/deadline errors rendered as text) and, before anything is
    /// sent, a model name longer than the wire's 65,535 bytes;
    /// [`ServeError::Disconnected`] covers transport loss.
    pub fn call(
        &mut self,
        model: &str,
        input: &[f32],
        deadline: Duration,
    ) -> Result<Response, ServeError> {
        if model.len() > MAX_STR {
            let len = model.len();
            return Err(ServeError::Remote(format!(
                "a model name of {len} bytes does not fit a frame"
            )));
        }
        let req = WireRequest::Infer {
            model: model.to_owned(),
            deadline_us: deadline.as_micros() as u64,
            input: input.to_vec(),
        };
        match self.round_trip(&req)? {
            WireResponse::Infer {
                request_id,
                latency_us,
                worker,
                retries,
                queue_wait_us,
                service_us,
                npu_cycles,
                npu_macs,
                dep_stall_cycles,
                resource_stall_cycles,
                network_us,
                output,
            } => Ok(Response {
                request_id,
                output,
                latency: Duration::from_micros(latency_us),
                worker: worker as usize,
                retries,
                attribution: Attribution {
                    queue_wait: Duration::from_micros(queue_wait_us),
                    service: Duration::from_micros(service_us),
                    network: Duration::from_micros(network_us),
                    npu_cycles,
                    npu_macs,
                    dep_stall_cycles,
                    resource_stall_cycles,
                },
            }),
            WireResponse::Error(msg) => Err(ServeError::Remote(msg)),
            WireResponse::SlaUnmeetable {
                model,
                bound_us,
                budget_us,
            } => Err(ServeError::SlaUnmeetable {
                model,
                bound_us,
                budget_us,
            }),
            _ => Err(ServeError::Remote("unexpected response frame".into())),
        }
    }

    /// Fetches the server's metrics as a Prometheus text exposition.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::call`].
    pub fn prometheus(&mut self) -> Result<String, ServeError> {
        match self.round_trip(&WireRequest::Prometheus)? {
            WireResponse::Prometheus(text) => Ok(text),
            WireResponse::Error(msg) => Err(ServeError::Remote(msg)),
            _ => Err(ServeError::Remote("unexpected response frame".into())),
        }
    }

    fn round_trip(&mut self, req: &WireRequest) -> Result<WireResponse, ServeError> {
        write_frame(&mut self.writer, &req.encode()).map_err(|_| ServeError::Disconnected)?;
        let payload = read_frame(&mut self.reader)
            .map_err(|_| ServeError::Disconnected)?
            .ok_or(ServeError::Disconnected)?;
        WireResponse::decode(&payload).map_err(|e| ServeError::Remote(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::readiness::{self, PollFd, POLLHUP, POLLIN, POLLOUT};
    use std::time::{Duration, Instant};

    /// The fallback cannot know who is ready, so it must report every
    /// interest (the nonblocking I/O sorts it out) and, asked to block,
    /// must nap rather than spin.
    #[test]
    fn portable_poll_reports_every_interest_and_naps_when_asked_to_block() {
        let interests = [POLLIN, POLLOUT, POLLIN | POLLOUT, 0];
        let mut fds: Vec<PollFd> = interests
            .iter()
            .map(|&events| PollFd {
                fd: -1,
                events,
                revents: 0,
            })
            .collect();
        let start = Instant::now();
        assert_eq!(readiness::portable_poll(&mut fds, -1), 4);
        assert!(start.elapsed() >= Duration::from_millis(5), "spun on -1");
        let reported: Vec<i16> = fds.iter().map(|f| f.revents).collect();
        assert_eq!(reported, interests);
    }

    /// The raw syscall against real descriptors.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    mod syscall {
        use super::*;
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;

        fn poll_one(stream: &UnixStream, events: i16, timeout_ms: i32) -> (isize, i16) {
            let mut fds = [PollFd {
                fd: stream.as_raw_fd(),
                events,
                revents: 0,
            }];
            let ready = readiness::poll(&mut fds, timeout_ms);
            (ready, fds[0].revents)
        }

        #[test]
        fn nothing_ready_times_out_with_zero() {
            let (a, _b) = UnixStream::pair().unwrap();
            assert_eq!(poll_one(&a, POLLIN, 0), (0, 0));
        }

        #[test]
        fn a_written_byte_reports_pollin() {
            let (a, mut b) = UnixStream::pair().unwrap();
            b.write_all(&[1]).unwrap();
            assert_eq!(poll_one(&a, POLLIN, 0), (1, POLLIN));
        }

        #[test]
        fn an_empty_send_buffer_reports_pollout() {
            let (a, _b) = UnixStream::pair().unwrap();
            assert_eq!(poll_one(&a, POLLIN | POLLOUT, 0), (1, POLLOUT));
        }

        #[test]
        fn a_dropped_peer_reports_pollhup_unasked() {
            let (a, b) = UnixStream::pair().unwrap();
            drop(b);
            let (ready, revents) = poll_one(&a, 0, 0);
            assert_eq!(ready, 1);
            assert_ne!(revents & POLLHUP, 0);
        }

        /// Whether the write lands before or during the call, a blocking
        /// poll returns with it; a hang is the failure.
        #[test]
        fn a_blocking_poll_returns_when_another_thread_writes() {
            let (a, b) = UnixStream::pair().unwrap();
            std::thread::scope(|s| {
                s.spawn(|| (&b).write_all(&[1]).unwrap());
                assert_eq!(poll_one(&a, POLLIN, -1), (1, POLLIN));
            });
        }
    }
}
