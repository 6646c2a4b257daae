//! The daemon's I/O thread sleeps in `poll(2)` whenever no descriptor
//! is ready, instead of waking on a timer or spinning.
//!
//! A binary of its own, so its process holds exactly one
//! `echo-serve-io` thread to find under `/proc/self/task`. A loop that
//! rescans its sockets on a sub-millisecond tick context-switches
//! hundreds of times in a 200 ms idle stretch, and a loop that polls a
//! descriptor that stays ready spends the stretch on a CPU; a thread
//! blocked in `poll` does neither.

#![cfg(target_os = "linux")]

use echo_serve::config::ServeConfig;
use echo_serve::loadgen::synth_image;
use echo_serve::protocol::{decode_response, encode_request, split_frame, Opcode, Request, Status};
use echo_serve::server::{BindAddr, ServerHandle};
use echo_serve::Client;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// The one `echo-serve-io` thread of this process, with its counter
/// files held open: re-reading them from the start takes no new
/// descriptor.
struct IoThread {
    status: File,
    schedstat: File,
}

impl IoThread {
    fn find() -> Self {
        let mut found = Vec::new();
        for task in std::fs::read_dir("/proc/self/task").expect("list own threads") {
            let dir = task.expect("thread entry").path();
            // A thread that exited since the listing has no files left.
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if comm.trim_end() == "echo-serve-io" {
                found.push(dir);
            }
        }
        assert_eq!(found.len(), 1, "exactly one echo-serve-io thread");
        IoThread {
            status: File::open(found[0].join("status")).expect("thread status"),
            schedstat: File::open(found[0].join("schedstat")).expect("thread schedstat"),
        }
    }

    /// `(voluntary_ctxt_switches, nanoseconds on a CPU)` so far.
    fn counters(&mut self) -> (u64, u64) {
        fn reread(f: &mut File) -> String {
            let mut text = String::new();
            f.seek(SeekFrom::Start(0)).expect("rewind");
            f.read_to_string(&mut text).expect("read");
            text
        }
        let switches = reread(&mut self.status)
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .expect("status reports voluntary switches")
            .trim()
            .parse()
            .expect("switch count");
        let on_cpu_ns = reread(&mut self.schedstat)
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .expect("schedstat starts with time on CPU");
        (switches, on_cpu_ns)
    }

    /// Sleeps 200 ms; returns the thread's voluntary context switches
    /// and milliseconds on a CPU meanwhile.
    fn stretch(&mut self) -> (u64, f64) {
        let (switches, cpu_ns) = self.counters();
        std::thread::sleep(Duration::from_millis(200));
        let (switches_after, cpu_ns_after) = self.counters();
        (
            switches_after - switches,
            (cpu_ns_after - cpu_ns) as f64 / 1e6,
        )
    }
}

/// An auth request for a tenant nobody enrolled: it waits out the
/// batch window, then is decided as a typed error.
fn auth_request(tenant: u64, request_id: u64) -> Request {
    Request {
        op: Opcode::Auth,
        request_id,
        tenant,
        user: 1,
        images: (0..3).map(|v| synth_image(tenant, 1, v, 32)).collect(),
    }
}

fn ping_request(request_id: u64) -> Request {
    Request {
        op: Opcode::Ping,
        request_id,
        tenant: 0,
        user: u64::MAX,
        images: Vec::new(),
    }
}

/// Opens `/dev/null` until this process has no descriptor left. `None`
/// where the limit is too high to use up cheaply.
fn hold_every_descriptor() -> Option<Vec<File>> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let soft: u64 = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    if soft > 65_536 {
        return None;
    }
    let mut held = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => held.push(f),
            // EMFILE
            Err(e) if e.raw_os_error() == Some(24) => return Some(held),
            Err(e) => panic!("open /dev/null: {e}"),
        }
    }
}

#[test]
fn io_thread_sleeps_while_idle_and_while_nothing_it_waits_on_is_ready() {
    // A fresh directory: probe with `create_dir` until an unused name
    // sticks, so a stale socket from an earlier crashed run is no issue.
    let base = std::env::temp_dir();
    let dir = (0..)
        .map(|i| base.join(format!("echo-serve-idle-{}-{i}", std::process::id())))
        .find(|dir| std::fs::create_dir(dir).is_ok())
        .expect("create socket temp dir");
    let path = dir.join("serve.sock");
    // A long batch window keeps a decision pending through the second
    // stretch below.
    let cfg = ServeConfig::validated(Duration::from_millis(600), 32, 256, 1).expect("config");
    let server = ServerHandle::start(cfg, BindAddr::Unix(path.clone())).expect("bind unix socket");
    let mut client = Client::connect_unix(&path).expect("connect");
    // A connection served through a batch, and so through a wake, sits
    // in the poll set too.
    let resp = client.call(&auth_request(70, 1)).expect("auth round-trip");
    assert_eq!(resp.status, Status::Error, "{}", resp.reason);
    // Looked up only now: a new thread names itself once it runs.
    let mut io = IoThread::find();

    // Idle. A timer shows as wake-ups, a spin (say, on an undrained
    // wake byte) as time on a CPU.
    let (switches, cpu_ms) = io.stretch();
    assert!(
        switches <= 5,
        "the idle I/O thread woke {switches} times in 200 ms"
    );
    assert!(
        cpu_ms < 20.0,
        "the idle I/O thread ran {cpu_ms:.1} ms of 200 ms"
    );

    // A client that sends a request and closes its socket at once: the
    // daemon holds the connection until the decision is in, and poll
    // reports a unix socket whose peer has gone as hung up whatever the
    // set asks for. Listening for it would spin the thread for the
    // whole batch window.
    let tenant = 71;
    let mut gone = UnixStream::connect(&path).expect("connect");
    gone.write_all(&encode_request(&auth_request(tenant, 2)))
        .expect("send");
    drop(gone);
    let admitted_by = Instant::now() + Duration::from_secs(5);
    while server.registry().queued(tenant) == 0 {
        assert!(Instant::now() < admitted_by, "request never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (_, cpu_ms) = io.stretch();
    assert!(
        cpu_ms < 20.0,
        "the I/O thread ran {cpu_ms:.1} ms of 200 ms while a closed client's decision waited"
    );

    // No descriptor left for `accept`: a connection waits in the
    // listener's backlog, and a listener left in the set would report
    // ready on every round.
    match hold_every_descriptor() {
        None => eprintln!("open-file limit too high to use up; accept back-off not exercised"),
        Some(mut held) => {
            held.pop();
            let mut stalled = UnixStream::connect(&path).expect("connect");
            let (_, cpu_ms) = io.stretch();
            drop(held);
            assert!(
                cpu_ms < 20.0,
                "the I/O thread ran {cpu_ms:.1} ms of 200 ms while accept failed"
            );
            // With descriptors free again, the waiting connection is
            // accepted and served.
            stalled
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            stalled
                .write_all(&encode_request(&ping_request(4)))
                .expect("send");
            let mut bytes = Vec::new();
            let mut chunk = [0u8; 256];
            let resp = loop {
                if let Some((payload, _)) = split_frame(&bytes).expect("well-formed frame") {
                    break decode_response(payload).expect("decodable response");
                }
                let n = stalled.read(&mut chunk).expect("a response in time");
                assert!(n > 0, "the daemon closed the stalled connection");
                bytes.extend_from_slice(&chunk[..n]);
            };
            assert_eq!(resp.status, Status::Ok);
        }
    }

    // Blocking did not cost responsiveness.
    let resp = client.call(&ping_request(5)).expect("ping round-trip");
    assert_eq!(resp.status, Status::Ok);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
