//! `serve_sparse`: the daemon as its own `echo_serve --threads 1`
//! process, driven over TCP.
//!
//! Setup spawns the daemon and enrols a seeded world of 8 tenants × 4
//! users over the wire. The timed phase sends seeded Poisson arrivals
//! of Auth and Identify requests from one sender thread on one traffic
//! connection while one reader thread takes the responses; a second
//! connection carries `Stats`. Afterwards every request's layer calls
//! are replayed in process on a `TenantRegistry` enrolled in the run's
//! order, and each daemon decision must equal the replay's.
//!
//! `p50_ms` is taken over the run's quietest stretch: the run is cut
//! into windows of 250 requests (2.5 s), and `p50_ms` is the lowest of
//! the windows' medians. When neighbours load the shared host, the
//! daemon's and the client's wake-ups wait for a host CPU, and a
//! stretch of the run reads up to twice the latency; the quietest
//! window holds unless that covers the whole run.

use crate::schedule::{poisson_schedule, Rng};
use crate::stats::{mean, median, quantile, ratio, sorted, tail, window_medians};
use crate::trace::Tracer;
use crate::{ms, procfs, Outcome};
use echo_ml::GrayImage;
use echo_obs::TraceCtx;
use echo_serve::protocol::{decode_request, encode_request, encode_response, split_frame};
use echo_serve::tenant::TenantRegistry;
use echo_serve::{loadgen, Client, ClientError, Opcode, Request, Response, StatsReport, Status};
use echoimage_core::auth::AuthAttempt;
use echoimage_core::features::ImageFeatures;
use echoimage_core::store::{self, IdentifyConfig};
use echoimage_core::AuthDecision;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Mean arrival rate, requests per second: low enough that requests
/// seldom share a batch, so latency is mostly waiting.
const RATE: f64 = 100.0;
const TENANTS: u64 = 8;
const USERS: u64 = 4;
const ENROL_IMAGES: u64 = 30;
const BEEPS: u64 = 3;
const SIDE: usize = 32;
const IDENTIFY_SHARE: f64 = 0.2;
const IMPOSTOR_SHARE: f64 = 0.2;
/// How long after its last send a phase waits for responses before
/// counting the missing ones as timed out.
const GRACE: Duration = Duration::from_secs(10);
/// Request ids of setup enrolments start here; timed requests count
/// from 0.
const SETUP_ID: u64 = 1 << 40;
/// Requests per window of `p50_ms`: 2.5 s at the mean rate.
const WINDOW: usize = 250;
/// Replay spans that make up the daemon's busy time for a request.
const BUSY: [&str; 3] = ["ml.cnn.request", "core.auth.decide", "core.store.identify"];

/// The seeded world: tenant ids and capture variants are drawn from
/// the seed, so each seed shows the daemon different images.
struct World {
    seed: u64,
    tenant0: u64,
    variant0: u64,
}

/// A timed request and what the benchmark knows about it.
struct Probe {
    req: Request,
    /// Whose body the captures show.
    subject: u64,
    /// The subject is an enrolled user, not a stranger.
    genuine: bool,
}

fn images(tenant: u64, user: u64, first: u64, n: u64) -> Vec<GrayImage> {
    (first..first + n)
        .map(|v| loadgen::synth_image(tenant, user, v, SIDE))
        .collect()
}

impl World {
    fn new(seed: u64) -> Self {
        let mut r = Rng::stream(seed, 2);
        World {
            seed,
            tenant0: r.next_u64() >> 24,
            variant0: r.next_u64() >> 24,
        }
    }

    /// The setup enrolments, in the order they are sent.
    fn world_enrolments(&self) -> Vec<Request> {
        (0..TENANTS * USERS)
            .map(|k| {
                let (tenant, user) = (self.tenant0 + k / USERS, k % USERS + 1);
                Request {
                    op: Opcode::Enroll,
                    request_id: SETUP_ID + k,
                    tenant,
                    user,
                    images: images(tenant, user, self.variant0, ENROL_IMAGES),
                }
            })
            .collect()
    }

    /// Timed request `i`, regenerated identically by sender and replay.
    fn probe(&self, i: u64) -> Probe {
        let mut r = Rng::stream(self.seed, (3 << 32) + i);
        let tenant = self.tenant0 + r.below(TENANTS);
        let identify = r.chance(IDENTIFY_SHARE);
        let claimed = r.below(USERS) + 1;
        let genuine = !r.chance(IMPOSTOR_SHARE);
        // Strangers are users 5..=8 of the tenant, never enrolled.
        let subject = if genuine {
            claimed
        } else {
            USERS + 1 + r.below(USERS)
        };
        Probe {
            req: Request {
                op: if identify {
                    Opcode::Identify
                } else {
                    Opcode::Auth
                },
                request_id: i,
                tenant,
                user: if identify { u64::MAX } else { claimed },
                images: images(
                    tenant,
                    subject,
                    self.variant0 + 1_000_000 + i * BEEPS,
                    BEEPS,
                ),
            },
            subject,
            genuine,
        }
    }
}

fn client_err(e: ClientError) -> String {
    format!("daemon connection: {e}")
}

/// A running `echo_serve` child; dropping it kills and reaps it.
struct Daemon {
    child: Child,
    /// Held open so the daemon's last stderr line cannot hit a closed
    /// pipe.
    _stderr: BufReader<ChildStderr>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = stderr
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().rsplit("tcp://").next()?.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                _stderr: stderr,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "echo_serve did not report a TCP address: {:?}",
                    line.trim()
                ))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and exit, and reaps it.
    fn shutdown(&mut self) -> Result<(), String> {
        let mut c = Client::connect_tcp(self.addr).map_err(client_err)?;
        c.call(&control(Opcode::Shutdown)).map_err(client_err)?;
        let deadline = Instant::now() + GRACE;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("echo_serve did not exit after Shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn control(op: Opcode) -> Request {
    Request {
        op,
        request_id: u64::MAX,
        tenant: u64::MAX,
        user: u64::MAX,
        images: Vec::new(),
    }
}

fn fetch_stats(c: &mut Client) -> Result<StatsReport, String> {
    let resp = c.call(&control(Opcode::Stats)).map_err(client_err)?;
    resp.stats
        .ok_or_else(|| format!("Stats answered {:?}: {}", resp.status, resp.reason))
}

/// Spawns a daemon and enrols the world; returns the daemon and the
/// setup time in seconds.
fn setup(bin: &Path, world: &[Request]) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin)?;
    let mut c = Client::connect_tcp(daemon.addr).map_err(client_err)?;
    for req in world {
        let resp = c.call(req).map_err(client_err)?;
        if resp.status != Status::Ok {
            return Err(format!(
                "setup enrol of tenant {} user {}: {:?} {}",
                req.tenant, req.user, resp.status, resp.reason
            ));
        }
    }
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// One response as the reader saw it.
struct Got {
    status: Status,
    user: u64,
    at: Instant,
    /// When the reader started waiting for it.
    waited_from: Instant,
}

/// What one open-loop phase observed.
struct Phase {
    first: u64,
    due: Vec<Instant>,
    /// Write start and end per request.
    sent: Vec<(Instant, Instant)>,
    got: Vec<Option<Got>>,
    before: StatsReport,
    after: StatsReport,
    tasks_before: Vec<procfs::TaskTimes>,
    tasks_after: Vec<procfs::TaskTimes>,
    wall: Duration,
    sender_wait_ms: f64,
}

impl Phase {
    fn completed(&self) -> usize {
        self.got.iter().flatten().count()
    }
}

/// Sends requests `first..first + schedule.len()` at their due times.
fn phase(
    daemon: &Daemon,
    stats: &mut Client,
    world: &World,
    first: u64,
    schedule: &[f64],
) -> Result<Phase, String> {
    let n = schedule.len();
    let mut traffic = Client::connect_tcp(daemon.addr).map_err(client_err)?;
    let mut reader = traffic.try_clone().map_err(client_err)?;
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(client_err)?;
    let before = fetch_stats(stats)?;
    let tasks_before = procfs::tasks(daemon.pid());
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = schedule
        .iter()
        .map(|&s| start + Duration::from_secs_f64(s))
        .collect();
    let deadline = *due.last().unwrap_or(&start) + GRACE;

    let (sent, got, sender_wait_ms) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut got: Vec<Option<Got>> = (0..n).map(|_| None).collect();
            let mut left = n;
            let mut waited_from = Instant::now();
            while left > 0 && Instant::now() < deadline {
                match reader.recv() {
                    Ok(resp) => {
                        let at = Instant::now();
                        let slot = resp
                            .request_id
                            .checked_sub(first)
                            .and_then(|j| got.get_mut(j as usize));
                        if let Some(slot @ None) = slot {
                            *slot = Some(Got {
                                status: resp.status,
                                user: resp.user_id,
                                at,
                                waited_from,
                            });
                            left -= 1;
                        }
                        waited_from = at;
                    }
                    Err(ClientError::Io(e))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(e) => {
                        eprintln!("reader: {e}");
                        break;
                    }
                }
            }
            got
        });
        let cpu0 = procfs::this_thread();
        let mut sent = Vec::with_capacity(n);
        for (j, &at) in due.iter().enumerate() {
            let probe = world.probe(first + j as u64);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let t = Instant::now();
            if let Err(e) = traffic.send(&probe.req) {
                eprintln!("sender: {e}");
                break;
            }
            sent.push((t, Instant::now()));
        }
        let cpu1 = procfs::this_thread();
        let wait = match (cpu0, cpu1) {
            (Some((_, w0)), Some((_, w1))) => (w1 - w0) as f64 / 1e6,
            _ => 0.0,
        };
        (sent, reader.join().expect("reader thread panicked"), wait)
    });
    let wall = Instant::now().saturating_duration_since(start);
    let after = fetch_stats(stats)?;
    let tasks_after = procfs::tasks(daemon.pid());
    Ok(Phase {
        first,
        due,
        sent,
        got,
        before,
        after,
        tasks_before,
        tasks_after,
        wall,
        sender_wait_ms,
    })
}

/// A replayed decision.
struct Replayed {
    status: Status,
    user: u64,
}

/// The daemon's layer calls, made in process on a registry of its own.
struct Replay {
    fx: ImageFeatures,
    registry: TenantRegistry,
}

impl Replay {
    fn new() -> Self {
        Replay {
            fx: ImageFeatures::new(),
            registry: TenantRegistry::new(),
        }
    }

    /// Puts `req` through the wire format (images are quantised to f32
    /// on the wire, so the replay must decide on the decoded frame) and
    /// makes the daemon's calls for it, each under a span in `tracer`.
    fn run(&self, req: &Request, tracer: Option<&mut Tracer>) -> Result<Replayed, String> {
        let id = req.request_id;
        let mut local = Tracer::new();
        let t = tracer.unwrap_or(&mut local);
        let root = t.open("replay.request", id, None);
        let p = Some(root);
        let frame = encode_request(req);
        let payload = match split_frame(&frame) {
            Ok(Some((payload, _))) => payload,
            other => return Err(format!("request {id} did not frame: {other:?}")),
        };
        let req = t
            .time("serve.protocol.decode", id, p, || decode_request(payload))
            .map_err(|e| e.to_string())?;
        let cnn = if req.op == Opcode::Enroll {
            "ml.cnn.enrol"
        } else {
            "ml.cnn.request"
        };
        let feats = t.time(cnn, id, p, || {
            self.fx.extract_batch_threaded(&req.images, 1)
        });
        let decision = |d: Result<AuthDecision, _>| match d {
            Ok(AuthDecision::Accepted { user_id }) => (Status::Accepted, user_id as u64),
            Ok(AuthDecision::Rejected) => (Status::Rejected, 0),
            Err(_) => (Status::Error, 0),
        };
        let (status, user) = match req.op {
            Opcode::Auth => match self.registry.authenticator(req.tenant) {
                None => (Status::Error, 0),
                Some(auth) => {
                    let attempt = AuthAttempt {
                        claimed_user: req.claimed_user(),
                        retry_index: 0,
                    };
                    decision(t.time("core.auth.decide", id, p, || {
                        auth.authenticate_features_traced(TraceCtx::none(), &feats, attempt)
                    }))
                }
            },
            Opcode::Identify => match self.registry.store(req.tenant) {
                None => (Status::Error, 0),
                Some(handle) => {
                    let snapshot = handle.load();
                    decision(t.time("core.store.identify", id, p, || {
                        store::identify(snapshot.as_ref(), &feats, &IdentifyConfig::default())
                    }))
                }
            },
            Opcode::Enroll => {
                let r = t.time("serve.tenant.enroll", id, p, || {
                    self.registry
                        .enroll_group(req.tenant, req.user as usize, feats)
                });
                match r {
                    Ok(()) => (Status::Ok, req.user),
                    Err(_) => (Status::Error, 0),
                }
            }
            op => return Err(format!("request {id}: unexpected opcode {op:?}")),
        };
        let resp = Response {
            op: req.op,
            request_id: id,
            status,
            user_id: user,
            trace_id: 0,
            reason: String::new(),
            stats: None,
        };
        t.time("serve.protocol.encode", id, p, || encode_response(&resp));
        t.close(root);
        Ok(Replayed { status, user })
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("echo_serve");
    if !bin.exists() {
        return Err(format!(
            "{} is missing: build it with `cargo build --release -p echo-serve --bin echo_serve` \
             into the same target directory (perfbench/run.sh does)",
            bin.display()
        ));
    }
    let world = World::new(seed);
    let enrolments = world.world_enrolments();

    // Three daemon spawns + world enrolments per run, `setup_s` being
    // their median: one before each half of the timed phase and one
    // after it, so the median samples the host at three moments of the
    // run. The first daemon serves the timed phase; the others are shut
    // down once set up.
    let mut setup_s = Vec::new();
    let mut set_up = || -> Result<Daemon, String> {
        let (d, s) = setup(&bin, &enrolments)?;
        setup_s.push(s);
        Ok(d)
    };
    let mut daemon = set_up()?;
    // Created before the timed phases: span times count from here.
    let mut tracer = Tracer::new();
    let mut stats = Client::connect_tcp(daemon.addr).map_err(client_err)?;

    // Two halves. Untraced, both are measured. Traced, the first is the
    // untraced overhead baseline and the second the traced half.
    let mut rng = Rng::stream(seed, 4);
    let mut phases = Vec::new();
    let mut first = 0u64;
    for half in 0..2 {
        if half > 0 {
            set_up()?.shutdown()?;
        }
        let schedule = poisson_schedule(&mut rng, RATE, seconds / 2.0);
        let p = phase(&daemon, &mut stats, &world, first, &schedule)?;
        first += schedule.len() as u64;
        phases.push(p);
    }
    let peak_rss = procfs::peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    drop(stats);
    daemon.shutdown()?;
    drop(daemon);
    set_up()?.shutdown()?;

    // Replay: world enrolment, then every timed request in send order.
    let replay = Replay::new();
    for req in &enrolments {
        let r = replay.run(req, traced.then_some(&mut tracer))?;
        if r.status != Status::Ok {
            return Err(format!(
                "replayed setup enrol of tenant {} failed",
                req.tenant
            ));
        }
    }
    let measured = phases.last().expect("at least one phase");
    let mut out = Outcome::default();
    let (mut failed, mut shed, mut mismatch, mut timeouts) = (0u64, 0u64, 0u64, 0u64);
    let (mut genuine, mut genuine_ok, mut impostor, mut impostor_ok) = (0u64, 0u64, 0u64, 0u64);
    // Latencies (ms) in send order, and per phase sorted.
    let mut in_order = Vec::new();
    let mut lats: Vec<Vec<f64>> = Vec::new();
    let mut late_ms = Vec::new();
    for p in &phases {
        let is_measured = std::ptr::eq(p, measured);
        let mut reads = Vec::new();
        for (j, due) in p.due.iter().enumerate() {
            let i = p.first + j as u64;
            let probe = world.probe(i);
            let trace_this = traced && is_measured;
            let r = replay.run(&probe.req, trace_this.then_some(&mut tracer))?;
            let ok = match &p.got[j] {
                None => {
                    timeouts += 1;
                    false
                }
                Some(g) => {
                    if trace_this {
                        let (s0, s1) = p.sent[j];
                        let req_span = tracer.record("client.request", i, None, *due, g.at);
                        tracer.record("client.send", i, Some(req_span), s0, s1);
                        tracer.record(
                            "client.recv",
                            i,
                            Some(req_span),
                            g.waited_from.max(s1),
                            g.at,
                        );
                    }
                    if g.status == Status::Overloaded {
                        shed += 1;
                    }
                    let same = (g.status, g.user) == (r.status, r.user);
                    if !same {
                        mismatch += 1;
                        eprintln!(
                            "request {i}: daemon {:?}/{} vs replay {:?}/{}",
                            g.status, g.user, r.status, r.user
                        );
                    }
                    same && matches!(g.status, Status::Accepted | Status::Rejected)
                }
            };
            let accepted_as = p.got[j]
                .as_ref()
                .filter(|g| g.status == Status::Accepted)
                .map(|g| g.user);
            if probe.genuine {
                genuine += 1;
                genuine_ok += u64::from(accepted_as == Some(probe.subject));
            } else {
                impostor += 1;
                impostor_ok += u64::from(accepted_as.is_some());
            }
            failed += u64::from(!ok);
            let latency = match (&p.got[j], ok) {
                (Some(g), true) => ms(g.at - *due),
                _ => f64::INFINITY,
            };
            reads.push(latency);
            if let Some(&(s0, _)) = p.sent.get(j) {
                late_ms.push(ms(s0.saturating_duration_since(*due)));
            }
        }
        lats.push(sorted(&reads));
        in_order.extend(reads);
    }
    let attempted: u64 = phases.iter().map(|p| p.due.len() as u64).sum();
    out.attempted = attempted;
    out.failed = failed;

    let completed = measured.completed().max(1) as f64;
    let reads = lats.last().expect("at least one phase");
    let (before, after) = (&measured.before, &measured.after);
    let (tb, ta) = (&measured.tasks_before, &measured.tasks_after);
    let (_, wait_all) = procfs::task_delta(tb, ta, "");
    let late = sorted(&late_ms);
    if !traced {
        // End to end over both halves; the per-layer readings below
        // cover the last.
        let all = sorted(&lats.concat());
        let (run_ns, done) = phases.iter().fold((0, 0), |(run, done), p| {
            let (r, _) = procfs::task_delta(&p.tasks_before, &p.tasks_after, "");
            (run + r, done + p.completed())
        });
        let t = tail(&all, 999);
        let windows = sorted(&window_medians(&in_order, WINDOW));
        out.metric("setup_s", median(&sorted(&setup_s)));
        out.metric("p50_ms", windows[0]);
        out.note(format!(
            "p50_ms is the lowest of {} windows' medians",
            windows.len()
        ));
        out.metric("tail_ms", t.value);
        out.tail_note(&t);
        out.metric("cpu_ms_per_op", run_ns as f64 / 1e6 / done.max(1) as f64);
        out.metric("peak_rss_mb", peak_rss);
        out.diag("all_requests.p50_ms", median(&all));
        out.diag("windows.median_p50_ms", median(&windows));
        out.diag("windows.max_p50_ms", windows[windows.len() - 1]);
    }

    // Per-layer readings from the Stats and schedstat brackets; a
    // `--trace 0` run keeps them with its diagnostics.
    let lat = (&after.global.cum.lat, &before.global.cum.lat);
    let e2e_ms = ratio(lat.0.sum_ns - lat.1.sum_ns, lat.0.count - lat.1.count) / 1e6;
    let finite: Vec<f64> = reads.iter().copied().filter(|x| x.is_finite()).collect();
    let client_ms = mean(&finite);
    out.metric("serve.server.e2e_ms", e2e_ms);
    out.metric("serve.transport_ms", client_ms - e2e_ms);
    out.metric(
        "serve.batcher.mean_batch",
        ratio(
            after.batch_sum - before.batch_sum,
            after.batch_count - before.batch_count,
        ),
    );
    let wall_ns = measured.wall.as_nanos() as f64;
    // Thread names are cut to 15 bytes: "echo-serve-batc".
    for (cpu, busy, prefix) in [
        (
            "serve.io.cpu_ms_per_op",
            "serve.io.busy_pct",
            "echo-serve-io",
        ),
        (
            "serve.batcher.cpu_ms_per_op",
            "serve.batcher.busy_pct",
            "echo-serve-bat",
        ),
    ] {
        let (run, _) = procfs::task_delta(tb, ta, prefix);
        out.metric(cpu, run as f64 / 1e6 / completed);
        out.metric(busy, 100.0 * run as f64 / wall_ns);
    }
    out.metric("serve.runqueue_wait_ms", wait_all as f64 / 1e6 / completed);
    out.metric("loadgen.late_p99_ms", quantile(&late, 990));
    out.metric("ops.attempted", attempted as f64);
    out.metric("ops.failed", failed as f64);
    out.metric("ops.shed", shed as f64);
    out.metric("ops.mismatch", mismatch as f64);
    out.metric("auth.genuine_accept_ratio", ratio(genuine_ok, genuine));
    out.metric("auth.impostor_accept_ratio", ratio(impostor_ok, impostor));

    // Per-layer readings from the replay's spans.
    if traced {
        // The daemon's busy time per request, replayed: feature
        // extraction plus the decision or enrolment call.
        let busy_ms = tracer
            .spans()
            .iter()
            .filter(|s| s.id < SETUP_ID && BUSY.contains(&s.name))
            .map(|s| s.ns() as f64 / 1e6)
            .sum::<f64>()
            / measured.due.len().max(1) as f64;
        out.metric("serve.wait_ms", e2e_ms - busy_ms);
        let mean_us = |name| 1e3 * mean(&tracer.durations_ms(name));
        // Timed requests only: a setup Enroll frame carries ten times
        // a read's images.
        let timed_us = |name| {
            let us: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|s| s.id < SETUP_ID && s.name == name)
                .map(|s| s.ns() as f64 / 1e3)
                .collect();
            mean(&us)
        };
        out.metric(
            "serve.protocol.decode_us",
            timed_us("serve.protocol.decode"),
        );
        out.metric(
            "serve.protocol.encode_us",
            timed_us("serve.protocol.encode"),
        );
        out.metric("ml.cnn.request_ms", mean_us("ml.cnn.request") / 1e3);
        out.metric("core.auth.decide_us", mean_us("core.auth.decide"));
        out.metric("core.store.identify_us", mean_us("core.store.identify"));
        out.metric(
            "serve.tenant.enroll_ms",
            mean_us("serve.tenant.enroll") / 1e3,
        );
        let base = &lats[0];
        out.metric(
            "trace.overhead_pct",
            100.0 * (median(reads) / median(base) - 1.0),
        );
        out.note(
            "trace.overhead_pct compares two halves sent by the same client code \
             (the spans are rebuilt after the run), so here it is only the drift \
             between the halves"
                .into(),
        );
    }

    out.diag("daemon.runqueue_wait_ms", wait_all as f64 / 1e6);
    out.diag(
        "daemon.io.runqueue_wait_ms",
        procfs::task_delta(tb, ta, "echo-serve-io").1 as f64 / 1e6,
    );
    out.diag("sender.runqueue_wait_ms", measured.sender_wait_ms);
    out.diag("loadgen.late_p50_ms", median(&late));
    out.diag("loadgen.late_max_ms", late.last().copied().unwrap_or(0.0));
    out.diag("ops.timeouts", timeouts as f64);
    out.diag("ops.completed", completed);
    out.tracer = traced.then_some(tracer);
    Ok(out)
}
