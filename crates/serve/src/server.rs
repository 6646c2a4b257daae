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
//! The loop is poll-based (`set_nonblocking` + a short idle sleep)
//! instead of epoll-based: the workspace is zero-dependency and the
//! daemon's work unit is a ~100 µs feature extraction, so a sub-
//! millisecond poll granularity costs nothing measurable while keeping
//! the loop portable and small. Fast-path requests (ping, shutdown)
//! are answered directly on the I/O thread; auth and enrol go through
//! admission control into the batch queue, or come straight back as
//! typed `Overloaded` responses when the tenant's queue is full.
//!
//! A connection whose stream produces a protocol error is sent one
//! final `Error` response and closed: a length-prefixed stream that has
//! desynchronised cannot be re-synchronised safely.

use crate::batcher;
use crate::config::ServeConfig;
use crate::protocol::{
    decode_request, encode_response, split_frame, Opcode, Request, Response, Status,
};
use crate::tenant::TenantRegistry;
use echo_obs::TraceSpan;
use echoimage_core::features::ImageFeatures;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the I/O loop sleeps when a poll round moved no bytes.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Grace period after shutdown for draining queued work and unwritten
/// responses before the loop exits anyway.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// How often the `prom_out` exposition file is rewritten.
const PROM_INTERVAL: Duration = Duration::from_secs(1);

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
    /// Per-connection queues of fully-encoded response frames. Only the
    /// I/O thread writes sockets; everyone else appends frames here.
    pub outboxes: Mutex<HashMap<u64, VecDeque<Vec<u8>>>>,
    pub shutdown: AtomicBool,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
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
}

struct Conn {
    stream: Stream,
    /// Bytes read but not yet framed.
    inbuf: Vec<u8>,
    /// Encoded frames (possibly partially written) awaiting the socket.
    pending: Vec<u8>,
    /// Peer closed or errored: stop reading, flush `pending`, drop.
    closing: bool,
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
    /// Any [`io::Error`] from binding the listener or spawning threads.
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
        let shared = Arc::new(Shared {
            cfg,
            fx: ImageFeatures::new(),
            registry: TenantRegistry::new(),
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            outboxes: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
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
    /// first (bounded by an internal grace period).
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

fn io_loop(shared: &Shared, listener: Listener) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut read_buf = [0u8; 64 * 1024];
    let mut shutdown_at: Option<Instant> = None;
    let mut prom_due = Instant::now();

    loop {
        // Periodic Prometheus exposition: rewrite the scrape file about
        // once a second, off the request path (a render costs tens of
        // microseconds against a 500 µs idle tick).
        if let Some(path) = &shared.cfg.prom_out {
            if Instant::now() >= prom_due {
                prom_due = Instant::now() + PROM_INTERVAL;
                write_prometheus(path);
            }
        }
        let shutting_down = shared.shutdown.load(Ordering::Relaxed);
        let mut moved = false;

        // Accept — unless we're draining for shutdown.
        if !shutting_down {
            loop {
                let accepted = match &listener {
                    Listener::Tcp(l) => l
                        .accept()
                        .map(|(s, _)| s.set_nonblocking(true).map(|()| Stream::Tcp(s))),
                    Listener::Unix(l, _) => l
                        .accept()
                        .map(|(s, _)| s.set_nonblocking(true).map(|()| Stream::Unix(s))),
                };
                match accepted {
                    Ok(Ok(stream)) => {
                        let id = next_conn;
                        next_conn += 1;
                        conns.insert(
                            id,
                            Conn {
                                stream,
                                inbuf: Vec::new(),
                                pending: Vec::new(),
                                closing: false,
                            },
                        );
                        shared.outboxes.lock().unwrap().insert(id, VecDeque::new());
                        moved = true;
                    }
                    // A connection that died between accept() and
                    // set_nonblocking(): drop it, keep serving.
                    Ok(Err(_)) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Read, frame, dispatch.
        let mut dead: Vec<u64> = Vec::new();
        for (&id, conn) in conns.iter_mut() {
            if !conn.closing {
                loop {
                    match conn.stream.read(&mut read_buf) {
                        Ok(0) => {
                            conn.closing = true;
                            break;
                        }
                        Ok(n) => {
                            conn.inbuf.extend_from_slice(&read_buf[..n]);
                            moved = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.closing = true;
                            break;
                        }
                    }
                }
                loop {
                    match split_frame(&conn.inbuf) {
                        Ok(Some((payload, used))) => {
                            let frames = handle_payload(shared, id, payload);
                            conn.inbuf.drain(..used);
                            match frames {
                                Ok(()) => {}
                                Err(frame) => {
                                    conn.pending.extend_from_slice(&frame);
                                    conn.closing = true;
                                    break;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            echo_obs::counter!("serve.protocol_errors").inc();
                            conn.pending
                                .extend_from_slice(&encode_response(&protocol_error_response(&e)));
                            conn.closing = true;
                            break;
                        }
                    }
                }
            }

            // Move finished responses from the outbox into the write
            // buffer, then push bytes.
            {
                let mut ob = shared.outboxes.lock().unwrap();
                if let Some(q) = ob.get_mut(&id) {
                    while let Some(f) = q.pop_front() {
                        conn.pending.extend_from_slice(&f);
                    }
                }
            }
            while !conn.pending.is_empty() {
                match conn.stream.write(&conn.pending) {
                    Ok(0) => {
                        conn.closing = true;
                        conn.pending.clear();
                        break;
                    }
                    Ok(n) => {
                        conn.pending.drain(..n);
                        moved = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.closing = true;
                        conn.pending.clear();
                        break;
                    }
                }
            }

            if conn.closing && conn.pending.is_empty() {
                // Don't cut the connection while decisions for it are
                // still queued or in flight.
                let has_queued = shared.queue.lock().unwrap().iter().any(|j| j.conn == id)
                    || !shared
                        .outboxes
                        .lock()
                        .unwrap()
                        .get(&id)
                        .is_none_or(|q| q.is_empty());
                if !has_queued {
                    dead.push(id);
                }
            }
        }
        for id in dead {
            conns.remove(&id);
            shared.outboxes.lock().unwrap().remove(&id);
        }

        if shutting_down {
            let deadline = *shutdown_at.get_or_insert_with(Instant::now) + SHUTDOWN_GRACE;
            let queue_empty = shared.queue.lock().unwrap().is_empty();
            let outboxes_empty = shared
                .outboxes
                .lock()
                .unwrap()
                .values()
                .all(|q| q.is_empty());
            let pending_empty = conns.values().all(|c| c.pending.is_empty());
            if (queue_empty && outboxes_empty && pending_empty) || Instant::now() >= deadline {
                break;
            }
        }

        if !moved {
            std::thread::sleep(IDLE_SLEEP);
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

/// Handles one decoded-or-not frame payload from connection `conn`.
/// `Ok(())` means any response was routed through the outbox/queue;
/// `Err(frame)` carries a final response after which the connection
/// must close.
fn handle_payload(shared: &Shared, conn: u64, payload: &[u8]) -> Result<(), Vec<u8>> {
    let req = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => {
            echo_obs::counter!("serve.protocol_errors").inc();
            return Err(encode_response(&protocol_error_response(&e)));
        }
    };
    echo_obs::counter!("serve.requests").inc();
    let mut span = echo_obs::root_span("serve.request");
    span.attr_u64("tenant", req.tenant);
    span.attr_u64("request_id", req.request_id);
    span.attr_str("op", req.op.label());
    match req.op {
        Opcode::Ping => {
            push_response(
                shared,
                conn,
                &Response {
                    op: Opcode::Ping,
                    request_id: req.request_id,
                    status: Status::Ok,
                    user_id: 0,
                    trace_id: span.ctx().trace_id(),
                    reason: String::new(),
                    stats: None,
                },
            );
        }
        Opcode::Shutdown => {
            shared.shutdown.store(true, Ordering::Relaxed);
            shared.cond.notify_all();
            push_response(
                shared,
                conn,
                &Response {
                    op: Opcode::Shutdown,
                    request_id: req.request_id,
                    status: Status::Ok,
                    user_id: 0,
                    trace_id: span.ctx().trace_id(),
                    reason: String::new(),
                    stats: None,
                },
            );
        }
        Opcode::Stats => {
            // Answered inline on the I/O thread, like ping: a stats
            // poll reads windows and gauges only and must never wait
            // behind the batcher.
            let filter = (req.tenant != u64::MAX).then_some(req.tenant);
            let report = crate::stats::collect(filter);
            push_response(
                shared,
                conn,
                &Response {
                    op: Opcode::Stats,
                    request_id: req.request_id,
                    status: Status::Ok,
                    user_id: 0,
                    trace_id: span.ctx().trace_id(),
                    reason: String::new(),
                    stats: Some(report),
                },
            );
        }
        Opcode::Auth | Opcode::Enroll | Opcode::Identify => {
            match shared
                .registry
                .try_admit(req.tenant, shared.cfg.queue_bound)
            {
                Err(queued) => {
                    let resp = batcher::shed(&req, span.ctx().trace_id(), queued);
                    push_response(shared, conn, &resp);
                }
                Ok(()) => {
                    let queue_wait = Some(span.ctx().child("serve.queue_wait"));
                    let mut q = shared.queue.lock().unwrap();
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
                }
            }
        }
    }
    Ok(())
}

fn push_response(shared: &Shared, conn: u64, resp: &Response) {
    let mut ob = shared.outboxes.lock().unwrap();
    if let Some(q) = ob.get_mut(&conn) {
        q.push_back(encode_response(resp));
    }
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
