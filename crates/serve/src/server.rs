//! The daemon: a hand-rolled non-blocking event loop plus the batching
//! scheduler, behind a [`ServerHandle`].
//!
//! Two threads per server, by design rather than limitation:
//!
//! * the **I/O thread** owns every socket. It accepts connections,
//!   accumulates bytes into per-connection buffers, decodes complete
//!   frames, runs admission control, and drains response outboxes back
//!   into the sockets. Because no other thread ever touches a socket,
//!   response frames can never interleave mid-frame.
//! * the **batcher thread** (the private `batcher` module) owns the model: it
//!   coalesces queued jobs into batched feature extraction and pushes
//!   encoded responses into the outboxes.
//!
//! The I/O thread blocks in one `poll(2)` per round (the private `poll`
//! module; the workspace is zero-dependency, so no epoll crate). The poll
//! set is the listener (until shutdown), every connection — readable
//! unless it is closing, writable while it holds unwritten bytes — and
//! the read half of a wake channel. The batcher writes one byte into
//! the channel after each flush, once that flush's last response is in
//! its outbox, so a whole batch reaches a connection in one write; a
//! shutdown writes it too. The loop acts only on the descriptors poll
//! reports ready, and sleeps for as long as nothing is: the timeout is
//! the next `--prom-out` rewrite, the rest of the shutdown grace while
//! draining, or a paused listener's retry, and otherwise infinite. An
//! idle daemon without `--prom-out` therefore makes no system calls
//! between requests.
//!
//! Poll is level-triggered, so three states would make it spin, and
//! the loop avoids each: a closing connection with nothing to write
//! stays out of the set until the wake brings its last decisions
//! (`POLLHUP` is reported whatever the set asks for); a persistent
//! `accept(2)` failure such as `EMFILE` takes the listener out of the
//! set until a connection closes or a back-off passes; and every wake
//! drains the channel.
//!
//! Fast-path requests (ping, shutdown, stats) are answered directly on
//! the I/O thread; auth, enrol and identify go through admission
//! control into the batch queue, or come straight back as typed
//! `Overloaded` responses when the tenant's queue is full or shutdown
//! has been flagged. A shutdown therefore drains only the work admitted
//! before it, however steadily clients keep sending.
//!
//! A connection whose stream produces a protocol error is sent one
//! final `Error` response and closed: a length-prefixed stream that has
//! desynchronised cannot be re-synchronised safely.

use crate::batcher;
use crate::config::ServeConfig;
use crate::poll::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::protocol::{
    decode_request, encode_response, split_frame, Opcode, Request, Response, Status,
};
use crate::tenant::TenantRegistry;
use echo_obs::TraceSpan;
use echoimage_core::features::ImageFeatures;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Grace period after shutdown for draining queued work and unwritten
/// responses before the loop exits anyway.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// How often the `prom_out` exposition file is rewritten.
const PROM_INTERVAL: Duration = Duration::from_secs(1);

/// How long the listener stays out of the poll set after a persistent
/// `accept(2)` failure (`EMFILE`, `ENOBUFS`, …) unless a connection
/// closes first, and how long the loop waits after a failed `poll(2)`.
/// A level-triggered listener with a connection it cannot accept
/// would otherwise report ready on every round.
const BACKOFF: Duration = Duration::from_millis(100);

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A TCP address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    Tcp(String),
    /// A unix-domain socket path; a stale file at the path is replaced.
    Unix(PathBuf),
}

/// One admitted request waiting for (or in) a batch.
pub(crate) struct Job {
    /// Connection to route the response to.
    pub conn: u64,
    pub req: Request,
    /// Admission time — the start of the e2e latency measurement.
    pub enqueued: Instant,
    /// The request's root span; its trace id is echoed in the response
    /// and stamped on the audit, and it closes when the response is
    /// queued for write.
    pub span: TraceSpan,
    /// Child span covering the time from admission to batch pickup;
    /// the batcher drops it when the job leaves the queue, making
    /// batcher wait visible to `trace-report` as its own stage.
    pub queue_wait: Option<TraceSpan>,
}

/// State shared between the I/O thread, the batcher, and the handle.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub fx: ImageFeatures,
    pub registry: TenantRegistry,
    pub queue: Mutex<VecDeque<Job>>,
    pub cond: Condvar,
    /// Per-connection queues of the batcher's encoded response frames.
    /// Only the I/O thread writes sockets; the batcher appends frames
    /// here and then calls [`Shared::wake`].
    pub outboxes: Mutex<HashMap<u64, VecDeque<Vec<u8>>>>,
    pub shutdown: AtomicBool,
    /// The wake channel: [`Shared::wake`] writes `waker`, the I/O
    /// thread polls `wake_rx`. Both halves live as long as the state,
    /// so a wake after the I/O thread has exited never meets a closed
    /// peer.
    waker: UnixStream,
    pub wake_rx: UnixStream,
}

impl Shared {
    /// Fresh state: no tenants, nothing queued, a drained wake channel.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from creating the wake channel.
    pub(crate) fn new(cfg: ServeConfig) -> io::Result<Shared> {
        let (waker, wake_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Shared {
            cfg,
            fx: ImageFeatures::new(),
            registry: TenantRegistry::new(),
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            outboxes: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            waker,
            wake_rx,
        })
    }

    /// Wakes the I/O thread out of `poll(2)`. The batcher calls this
    /// once per flush, after the flush's last response is in its
    /// outbox, and shutdown calls it once.
    pub(crate) fn wake(&self) {
        // A full channel (`WouldBlock`) already holds undrained bytes,
        // and one is all a wake needs.
        let _ = (&self.waker).write(&[1]);
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Accepts one connection and makes it non-blocking. A TCP
    /// connection also sets `TCP_NODELAY`: the batcher answers
    /// overlapping requests in separate flushes, and Nagle's algorithm
    /// would hold each response after the first until the client's
    /// delayed ACK (tens of milliseconds). `Ok(None)` is a connection
    /// that refused either setting, such as one that died since
    /// `accept()`: drop it and keep serving.
    fn accept(&self) -> io::Result<Option<Stream>> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)
                    .and_then(|()| s.set_nodelay(true))
                    .ok()
                    .map(|()| Stream::Tcp(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true).ok().map(|()| Stream::Unix(s))
            }
        })
    }

    fn fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

struct Conn {
    stream: Stream,
    /// Bytes read but not yet framed.
    inbuf: Vec<u8>,
    /// Encoded frames (possibly partially written) awaiting the socket.
    pending: Vec<u8>,
    /// Jobs admitted from this connection whose responses have not yet
    /// moved from the outbox into `pending`: queued, in a batch, or
    /// waiting for the wake.
    awaiting: usize,
    /// Peer closed or errored: stop reading, flush `pending`, drop.
    closing: bool,
}

impl Conn {
    fn new(stream: Stream) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            pending: Vec::new(),
            awaiting: 0,
            closing: false,
        }
    }

    /// Writes `pending` until it is empty or the socket would block.
    fn flush(&mut self) {
        while !self.pending.is_empty() {
            match self.stream.write(&self.pending) {
                Ok(0) => {
                    self.closing = true;
                    self.pending.clear();
                }
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closing = true;
                    self.pending.clear();
                }
            }
        }
    }

    /// Reads what the socket holds, then frames and dispatches every
    /// complete request in `inbuf`.
    fn read_and_dispatch(&mut self, shared: &Shared, id: u64, buf: &mut [u8]) {
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    self.closing = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    // A short read emptied the socket; poll reports
                    // whatever arrives later.
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closing = true;
                    break;
                }
            }
        }
        loop {
            match split_frame(&self.inbuf) {
                Ok(Some((payload, used))) => {
                    let dispatch = handle_payload(shared, id, payload);
                    self.inbuf.drain(..used);
                    match dispatch {
                        Dispatch::Queued => self.awaiting += 1,
                        Dispatch::Reply(frame) => self.pending.extend_from_slice(&frame),
                        Dispatch::Close(frame) => {
                            self.pending.extend_from_slice(&frame);
                            self.closing = true;
                            break;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    echo_obs::counter!("serve.protocol_errors").inc();
                    self.pending
                        .extend_from_slice(&encode_response(&protocol_error_response(&e)));
                    self.closing = true;
                    break;
                }
            }
        }
    }
}

/// A running daemon. Dropping the handle shuts the server down and
/// joins both threads.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: Option<SocketAddr>,
    io: Option<std::thread::JoinHandle<()>>,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `bind` and starts the I/O and batcher threads.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener, creating the I/O
    /// thread's wake channel or spawning threads.
    pub fn start(cfg: ServeConfig, bind: BindAddr) -> io::Result<ServerHandle> {
        let listener = match bind {
            BindAddr::Tcp(addr) => {
                let l = TcpListener::bind(&addr)?;
                l.set_nonblocking(true)?;
                Listener::Tcp(l)
            }
            BindAddr::Unix(path) => {
                // A stale socket file from a dead daemon would make
                // bind fail forever; replacing it is the standard cure.
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                Listener::Unix(l, path)
            }
        };
        let addr = match &listener {
            Listener::Tcp(l) => Some(l.local_addr()?),
            Listener::Unix(..) => None,
        };
        let shared = Arc::new(Shared::new(cfg)?);
        let io_shared = Arc::clone(&shared);
        let io = std::thread::Builder::new()
            .name("echo-serve-io".into())
            .spawn(move || io_loop(&io_shared, listener))?;
        let b_shared = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("echo-serve-batch".into())
            .spawn(move || batcher::run(&b_shared))?;
        Ok(ServerHandle {
            shared,
            addr,
            io: Some(io),
            batcher: Some(batcher),
        })
    }

    /// The bound TCP address (`None` for unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The tenant registry, e.g. to pre-enrol users in-process instead
    /// of over the wire.
    pub fn registry(&self) -> &TenantRegistry {
        &self.shared.registry
    }

    /// The feature extractor the daemon decides with — enrolment data
    /// prepared out-of-band must come from the same extractor.
    pub fn features(&self) -> &ImageFeatures {
        &self.shared.fx
    }

    /// Flags shutdown and joins both threads, draining queued work
    /// first (bounded by an internal grace period). Requests that arrive
    /// after the flag are shed with an `Overloaded` "shutting down"
    /// response instead of joining the queue.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Blocks until the server exits of its own accord — i.e. a client
    /// sends a `Shutdown` frame — then joins both threads. The daemon
    /// binary's main loop is exactly this call.
    pub fn wait(mut self) {
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
        // The I/O loop only exits with the flag set, but make sure the
        // batcher sees it even if the loop died another way.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.cond.notify_all();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.cond.notify_all();
        self.shared.wake();
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// What one entry of the poll set stands for.
#[derive(Clone, Copy)]
enum Slot {
    Wake,
    Listener,
    Conn(u64),
}

fn io_loop(shared: &Shared, listener: Listener) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut read_buf = [0u8; 64 * 1024];
    let mut shutdown_at: Option<Instant> = None;
    let mut prom_due = Instant::now();
    // Set while a persistent accept failure keeps the listener out of
    // the poll set.
    let mut accept_paused_until: Option<Instant> = None;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut slots: Vec<Slot> = Vec::new();
    let mut answered: Vec<u64> = Vec::new();

    loop {
        let now = Instant::now();
        // The earliest moment this round's poll must return by.
        let mut deadline: Option<Instant> = None;
        // Periodic Prometheus exposition: rewrite the scrape file about
        // once a second, off the request path (a render costs tens of
        // microseconds, and the poll timeout wakes the loop for it).
        if let Some(path) = &shared.cfg.prom_out {
            if now >= prom_due {
                prom_due = now + PROM_INTERVAL;
                write_prometheus(path);
            }
            deadline = Some(prom_due);
        }
        let draining = shared.shutdown.load(Ordering::Relaxed);
        if draining {
            let grace_end = *shutdown_at.get_or_insert(now) + SHUTDOWN_GRACE;
            // A connection stays open while it awaits a decision, so
            // when none awaits one or holds unwritten bytes, the queue
            // and the outboxes are empty too.
            let drained = conns
                .values()
                .all(|c| c.awaiting == 0 && c.pending.is_empty());
            if drained || now >= grace_end {
                break;
            }
            deadline = Some(deadline.map_or(grace_end, |d| d.min(grace_end)));
        }
        if accept_paused_until.is_some_and(|t| now >= t) {
            accept_paused_until = None;
        }

        fds.clear();
        slots.clear();
        fds.push(PollFd::new(shared.wake_rx.as_raw_fd(), POLLIN));
        slots.push(Slot::Wake);
        if !draining {
            match accept_paused_until {
                None => {
                    fds.push(PollFd::new(listener.fd(), POLLIN));
                    slots.push(Slot::Listener);
                }
                Some(t) => deadline = Some(deadline.map_or(t, |d| d.min(t))),
            }
        }
        for (&id, conn) in &conns {
            let mut events = 0;
            if !conn.closing {
                events |= POLLIN;
            }
            if !conn.pending.is_empty() {
                events |= POLLOUT;
            }
            // A closing connection with nothing to write waits off the
            // set for the wake that brings its last decisions.
            if events != 0 {
                fds.push(PollFd::new(conn.stream.fd(), events));
                slots.push(Slot::Conn(id));
            }
        }
        let timeout = deadline.map(|d| d.saturating_duration_since(now));
        if poll::wait(&mut fds, timeout).is_err() {
            std::thread::sleep(BACKOFF);
            continue;
        }

        let mut woke = false;
        for (pfd, slot) in fds.iter().zip(&slots) {
            if pfd.revents == 0 {
                continue;
            }
            match *slot {
                Slot::Wake => {
                    drain_wake(&shared.wake_rx);
                    woke = true;
                }
                Slot::Listener => loop {
                    match listener.accept() {
                        Ok(Some(stream)) => {
                            let id = next_conn;
                            next_conn += 1;
                            conns.insert(id, Conn::new(stream));
                            shared.outboxes.lock().unwrap().insert(id, VecDeque::new());
                        }
                        Ok(None) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                            ) => {}
                        Err(_) => {
                            echo_obs::counter!("serve.accept_errors").inc();
                            accept_paused_until = Some(Instant::now() + BACKOFF);
                            break;
                        }
                    }
                },
                Slot::Conn(id) => {
                    let conn = conns.get_mut(&id).expect("polled connection is live");
                    if !conn.closing && pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                        conn.read_and_dispatch(shared, id, &mut read_buf);
                    }
                    // Inline replies are written at once; so are bytes
                    // an earlier round left behind, once poll says the
                    // socket takes them (or that it failed).
                    conn.flush();
                }
            }
        }

        if woke {
            // Each outbox frame answers one admitted job. Move them all
            // under the lock, then write outside it: the whole flush
            // reaches each connection in one write.
            answered.clear();
            for (&id, q) in shared.outboxes.lock().unwrap().iter_mut() {
                if let Some(conn) = conns.get_mut(&id).filter(|_| !q.is_empty()) {
                    conn.awaiting = conn.awaiting.saturating_sub(q.len());
                    for f in q.drain(..) {
                        conn.pending.extend_from_slice(&f);
                    }
                    answered.push(id);
                }
            }
            for id in &answered {
                conns
                    .get_mut(id)
                    .expect("answered connection is live")
                    .flush();
            }
        }

        let before = conns.len();
        conns.retain(|id, c| {
            let done = c.closing && c.pending.is_empty() && c.awaiting == 0;
            if done {
                shared.outboxes.lock().unwrap().remove(id);
            }
            !done
        });
        if conns.len() < before {
            // A descriptor was freed: retry a listener paused on EMFILE.
            accept_paused_until = None;
        }
    }

    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    // One final exposition so the post-shutdown file reflects the full
    // run.
    if let Some(path) = &shared.cfg.prom_out {
        write_prometheus(path);
    }
}

/// Reads the wake channel empty. Level-triggered poll would report an
/// undrained byte on every round.
fn drain_wake(mut wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match wake_rx.read(&mut buf) {
            Ok(n) if n == buf.len() => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => break,
        }
    }
}

/// Renders the registry snapshot plus the tenant windows in Prometheus
/// text format and atomically replaces `path` (write-temp-then-rename,
/// so a concurrent scraper never reads a torn file).
fn write_prometheus(path: &std::path::Path) {
    let snap = echo_obs::snapshot();
    let (global, tenants) = echo_obs::window::snapshot_windows();
    let mut text = echo_obs::export::prometheus_text(&snap);
    text.push_str(&echo_obs::export::prometheus_windows(&global, &tenants));
    let tmp = path.with_extension("prom.tmp");
    if std::fs::write(&tmp, &text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// What the I/O thread does with one frame's request.
enum Dispatch {
    /// Answered inline on the I/O thread: write this frame.
    Reply(Vec<u8>),
    /// Admitted to the batch queue; the response comes back through the
    /// connection's outbox.
    Queued,
    /// Write this final frame, then close the connection.
    Close(Vec<u8>),
}

/// Handles one decoded-or-not frame payload from connection `conn`.
fn handle_payload(shared: &Shared, conn: u64, payload: &[u8]) -> Dispatch {
    let req = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            echo_obs::counter!("serve.protocol_errors").inc();
            return Dispatch::Close(encode_response(&protocol_error_response(&e)));
        }
    };
    echo_obs::counter!("serve.requests").inc();
    let mut span = echo_obs::root_span("serve.request");
    span.attr_u64("tenant", req.tenant);
    span.attr_u64("request_id", req.request_id);
    span.attr_str("op", req.op.label());
    let stats = match req.op {
        Opcode::Ping => None,
        Opcode::Shutdown => {
            shared.shutdown.store(true, Ordering::Relaxed);
            shared.cond.notify_all();
            None
        }
        // Answered inline on the I/O thread, like ping: a stats poll
        // reads windows and gauges only and must never wait behind the
        // batcher.
        Opcode::Stats => Some(crate::stats::collect(
            (req.tenant != u64::MAX).then_some(req.tenant),
        )),
        Opcode::Auth | Opcode::Enroll | Opcode::Identify => {
            // Once shutdown is flagged nothing more is admitted, so the
            // drain ends with the work admitted before it. The flag is
            // read under the queue lock, where the batcher reads it
            // before exiting on an empty queue: a job is either queued
            // ahead of that exit or shed here, never stranded.
            let mut q = shared.queue.lock().unwrap();
            let refused = if shared.shutdown.load(Ordering::Relaxed) {
                Some("shutting down".to_string())
            } else {
                shared
                    .registry
                    .try_admit(req.tenant, shared.cfg.queue_bound)
                    .err()
                    .map(|queued| {
                        format!(
                            "tenant {} admission queue full ({queued} queued)",
                            req.tenant
                        )
                    })
            };
            if let Some(why) = refused {
                drop(q);
                return Dispatch::Reply(encode_response(&batcher::shed(
                    &req,
                    span.ctx().trace_id(),
                    &why,
                )));
            }
            let queue_wait = Some(span.ctx().child("serve.queue_wait"));
            q.push_back(Job {
                conn,
                req,
                enqueued: Instant::now(),
                span,
                queue_wait,
            });
            echo_obs::gauge!("serve.queue_depth").set(q.len() as i64);
            drop(q);
            shared.cond.notify_one();
            return Dispatch::Queued;
        }
    };
    Dispatch::Reply(encode_response(&Response {
        op: req.op,
        request_id: req.request_id,
        status: Status::Ok,
        user_id: 0,
        trace_id: span.ctx().trace_id(),
        reason: String::new(),
        stats,
    }))
}

fn protocol_error_response(e: &crate::protocol::ProtocolError) -> Response {
    Response {
        op: Opcode::Ping,
        request_id: 0,
        status: Status::Error,
        user_id: 0,
        trace_id: 0,
        reason: format!("protocol error: {e}"),
        stats: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_tcp_connections_set_nodelay() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let listener = Listener::Tcp(l);
        let _client = TcpStream::connect(addr).unwrap();
        match listener.accept().unwrap() {
            Some(Stream::Tcp(s)) => assert_eq!(s.nodelay().ok(), Some(true)),
            _ => panic!("the loopback connection was not accepted"),
        }
    }
}
