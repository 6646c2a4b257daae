//! Functional integration tests for the daemon: wire round-trips over
//! both transports, typed overload shedding, enrol-while-authenticate
//! consistency, and how a connection closes (half-closed clients and
//! protocol errors).
//!
//! These tests share the process-global observability state with each
//! other (integration tests in one binary run on parallel threads), so
//! any test that inspects the audit log filters by its own distinctive
//! tenant id instead of assuming it owns the ring. Cross-run audit
//! equality lives in `serve_determinism.rs`, a separate binary and
//! therefore a separate process.

use echo_serve::config::ServeConfig;
use echo_serve::loadgen::synth_image;
use echo_serve::protocol::{
    decode_response, encode_request, split_frame, Opcode, Request, Response, Status,
};
use echo_serve::server::{BindAddr, ServerHandle};
use echo_serve::Client;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn enroll(client: &mut Client, tenant: u64, user: u64, images: usize) {
    let images: Vec<_> = (0..images as u64)
        .map(|v| synth_image(tenant, user, v, 32))
        .collect();
    let resp = client
        .call(&Request {
            op: Opcode::Enroll,
            request_id: 900 + user,
            tenant,
            user,
            images,
        })
        .expect("enrol round-trip");
    assert_eq!(resp.status, Status::Ok, "enrol failed: {}", resp.reason);
}

fn auth_request(tenant: u64, user: u64, rid: u64, first_variant: u64) -> Request {
    let images: Vec<_> = (0..3u64)
        .map(|b| synth_image(tenant, user, first_variant + b, 32))
        .collect();
    Request {
        op: Opcode::Auth,
        request_id: rid,
        tenant,
        user,
        images,
    }
}

/// A fresh directory per run: a pid-keyed fixed path collides after
/// pid reuse and trips over a stale socket a crashed earlier run left
/// behind, so probe with `create_dir` until an unused name sticks.
fn socket_dir() -> std::path::PathBuf {
    let base = std::env::temp_dir();
    (0..)
        .map(|i| base.join(format!("echo-serve-test-{}-{i}", std::process::id())))
        .find(|dir| std::fs::create_dir(dir).is_ok())
        .expect("create socket temp dir")
}

#[test]
fn unix_socket_roundtrip_enrol_then_authenticate() {
    let dir = socket_dir();
    let path = dir.join("serve.sock");
    let server = ServerHandle::start(ServeConfig::default(), BindAddr::Unix(path.clone()))
        .expect("bind unix socket");
    let mut client = Client::connect_unix(&path).expect("connect");

    // Ping before any enrolment.
    let pong = client
        .call(&Request {
            op: Opcode::Ping,
            request_id: 1,
            tenant: 11,
            user: u64::MAX,
            images: Vec::new(),
        })
        .expect("ping");
    assert_eq!(pong.status, Status::Ok);

    // Auth against an empty tenant is a typed error, not a panic.
    let resp = client
        .call(&auth_request(11, 1, 2, 100))
        .expect("auth round-trip");
    assert_eq!(resp.status, Status::Error);
    assert!(resp.reason.contains("no enrolled users"), "{}", resp.reason);

    enroll(&mut client, 11, 1, 20);
    let resp = client
        .call(&auth_request(11, 1, 3, 100))
        .expect("auth round-trip");
    assert_eq!(resp.status, Status::Accepted, "{}", resp.reason);

    server.shutdown();
    assert!(!path.exists(), "socket file cleaned up on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_typed_rejects_and_audits() {
    // One admission slot and a batch window long enough that the burst
    // below lands entirely inside it: everything past the first queued
    // job must shed.
    let tenant = 777u64;
    let cfg = ServeConfig::validated(Duration::from_millis(150), 4096, 1, 1).expect("config");
    let server =
        ServerHandle::start(cfg, BindAddr::Tcp("127.0.0.1:0".into())).expect("bind tcp socket");
    let addr = server.local_addr().expect("tcp addr");
    let mut client = Client::connect_tcp(addr).expect("connect");

    enroll(&mut client, tenant, 1, 20);

    // Burst: fire-and-forget eight auths, then collect all replies.
    let burst = 8u64;
    for i in 0..burst {
        client
            .send(&auth_request(tenant, 1, i, 1_000 + i * 8))
            .expect("send");
    }
    let mut decided = 0u64;
    let mut overloaded = 0u64;
    for _ in 0..burst {
        let resp = client.recv().expect("recv");
        match resp.status {
            Status::Accepted | Status::Rejected => decided += 1,
            Status::Overloaded => {
                overloaded += 1;
                assert!(
                    resp.reason.contains("admission queue full"),
                    "overload reason names the policy: {}",
                    resp.reason
                );
            }
            s => panic!("unexpected status {s:?}: {}", resp.reason),
        }
    }
    assert!(decided >= 1, "the admitted request still gets a decision");
    assert!(
        overloaded >= 1,
        "a burst of {burst} against a 1-deep queue must shed"
    );

    // The shed decisions are auditable: the global log holds Overloaded
    // verdicts whose reasons name this tenant.
    let shed_audits = echo_obs::take_audits()
        .into_iter()
        .filter(|a| a.verdict == echo_obs::AuthVerdict::Overloaded)
        .filter(|a| a.reject_reason.contains(&format!("tenant {tenant}")))
        .count() as u64;
    assert_eq!(shed_audits, overloaded, "one audit per shed request");

    server.shutdown();
}

fn identify_request(tenant: u64, user: u64, rid: u64, first_variant: u64) -> Request {
    let images: Vec<_> = (0..3u64)
        .map(|b| synth_image(tenant, user, first_variant + b, 32))
        .collect();
    Request {
        op: Opcode::Identify,
        request_id: rid,
        tenant,
        // Identify never claims a subject — naming one is the server's
        // job.
        user: u64::MAX,
        images,
    }
}

#[test]
fn identify_names_the_user_and_follows_enrolment() {
    let tenant = 555u64;
    let server = ServerHandle::start(ServeConfig::default(), BindAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind tcp socket");
    let addr = server.local_addr().expect("tcp addr");
    let mut client = Client::connect_tcp(addr).expect("connect");

    // Identify against an empty tenant is a typed error, not a panic.
    let resp = client
        .call(&identify_request(tenant, 1, 1, 50))
        .expect("identify round-trip");
    assert_eq!(resp.status, Status::Error);
    assert!(resp.reason.contains("no enrolled users"), "{}", resp.reason);

    // 40 images per user: the store's SVDD gates are trained per user
    // in isolation (no sibling-threshold slack), so held-out probes
    // need a ball sized from a respectable sample.
    enroll(&mut client, tenant, 1, 40);
    enroll(&mut client, tenant, 2, 40);

    // Unclaimed probes name the right subject.
    for user in [1u64, 2] {
        let resp = client
            .call(&identify_request(
                tenant,
                user,
                10 + user,
                3_000 + user * 16,
            ))
            .expect("identify round-trip");
        assert_eq!(
            resp.status,
            Status::Accepted,
            "user {user}: {}",
            resp.reason
        );
        assert_eq!(resp.user_id, user, "identified as the wrong user");
    }

    // Identify keeps serving (and never errors) while an enrol builds
    // and publishes a new store snapshot on another connection.
    let identify_thread = std::thread::spawn(move || {
        let mut named = 0u32;
        for i in 0..24u64 {
            let resp = client
                .call(&identify_request(tenant, 1, 100 + i, 4_000 + i * 8))
                .expect("identify during enrol");
            match resp.status {
                Status::Accepted => {
                    assert_eq!(resp.user_id, 1, "misidentified during reload");
                    named += 1;
                }
                Status::Rejected => {}
                s => panic!("identify during enrol returned {s:?}: {}", resp.reason),
            }
        }
        named
    });
    let mut enrol_client = Client::connect_tcp(addr).expect("second connection");
    enroll(&mut enrol_client, tenant, 3, 40);
    let named = identify_thread.join().expect("identify thread");
    assert!(named > 0, "user 1 kept being identified through the swap");

    // The published snapshot serves the newly enrolled user.
    let resp = enrol_client
        .call(&identify_request(tenant, 3, 300, 6_000))
        .expect("identify after enrol");
    assert_eq!(resp.status, Status::Accepted, "{}", resp.reason);
    assert_eq!(resp.user_id, 3);
    server.shutdown();
}

#[test]
fn enrol_while_authenticating_never_errors() {
    let tenant = 33u64;
    let server = ServerHandle::start(ServeConfig::default(), BindAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind tcp socket");
    let addr = server.local_addr().expect("tcp addr");
    let mut client = Client::connect_tcp(addr).expect("connect");
    enroll(&mut client, tenant, 1, 20);

    // One thread authenticates user 1 in a tight loop while the main
    // thread enrols user 2 (a full SVDD retrain and snapshot swap).
    // Every auth must land on a coherent snapshot: decided before the
    // swap against user 1 alone, or after it against both — never an
    // error, never a torn model.
    let auth_thread = std::thread::spawn(move || {
        let mut accepted = 0u32;
        for i in 0..24u64 {
            let resp = client
                .call(&auth_request(tenant, 1, 100 + i, 2_000 + i * 8))
                .expect("auth during enrol");
            match resp.status {
                Status::Accepted => accepted += 1,
                Status::Rejected => {}
                s => panic!("auth during enrol returned {s:?}: {}", resp.reason),
            }
        }
        accepted
    });

    let mut enrol_client = Client::connect_tcp(addr).expect("second connection");
    enroll(&mut enrol_client, tenant, 2, 20);
    let accepted = auth_thread.join().expect("auth thread");
    assert!(accepted > 0, "user 1 kept authenticating through the swap");

    // The new snapshot serves both users.
    for user in [1u64, 2] {
        let resp = enrol_client
            .call(&auth_request(tenant, user, 300 + user, 5_000))
            .expect("auth after enrol");
        assert_eq!(
            resp.status,
            Status::Accepted,
            "user {user} after swap: {}",
            resp.reason
        );
    }
    server.shutdown();
}

/// Reads `stream` until the server closes it and decodes every frame.
fn responses_until_close(stream: &mut TcpStream) -> Vec<Response> {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .expect("read until the server closes");
    let mut rest = &bytes[..];
    let mut out = Vec::new();
    while let Some((payload, used)) = split_frame(rest).expect("well-formed frame") {
        out.push(decode_response(payload).expect("decodable response"));
        rest = &rest[used..];
    }
    assert!(rest.is_empty(), "{} trailing bytes", rest.len());
    out
}

#[test]
fn half_closed_client_gets_every_decision_before_the_close() {
    // The client writes three requests and half-closes at once, so the
    // server reads EOF while the decisions are still queued or in a
    // batch: the connection must stay open until they are written.
    let server = ServerHandle::start(ServeConfig::default(), BindAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind tcp socket");
    let mut raw = TcpStream::connect(server.local_addr().expect("tcp addr")).expect("connect");
    for rid in 0..3u64 {
        raw.write_all(&encode_request(&auth_request(66, 1, rid, rid * 8)))
            .expect("send");
    }
    raw.shutdown(Shutdown::Write).expect("half-close");
    let resps = responses_until_close(&mut raw);
    let ids: Vec<u64> = resps.iter().map(|r| r.request_id).collect();
    assert_eq!(ids, vec![0, 1, 2]);
    // Nobody enrolled in tenant 66: each one is decided as a typed error.
    assert!(resps.iter().all(|r| r.status == Status::Error));
    server.shutdown();
}

#[test]
fn protocol_error_gets_one_error_frame_then_the_close() {
    let server = ServerHandle::start(ServeConfig::default(), BindAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind tcp socket");
    let mut raw = TcpStream::connect(server.local_addr().expect("tcp addr")).expect("connect");
    // A length prefix far past the frame cap, and nothing after it: the
    // server reads every byte before it closes.
    raw.write_all(&[0xFF; 4]).expect("send");
    let resps = responses_until_close(&mut raw);
    assert_eq!(resps.len(), 1);
    assert_eq!(resps[0].status, Status::Error);
    assert!(
        resps[0].reason.contains("protocol error"),
        "{}",
        resps[0].reason
    );
    server.shutdown();
}

#[test]
fn shutdown_under_steady_traffic_drains_only_work_admitted_before_it() {
    // One client sends an auth every 300 µs and shutdown comes 100 ms
    // in. Requests admitted before the flag get their decisions; every
    // later one is shed with a typed "shutting down" response, so the
    // drain is bounded by the admitted work (at most `queue_bound`
    // jobs), not by the traffic, which would otherwise hold every
    // shutdown for the whole grace period.
    let tenant = 4_242u64;
    let cfg = ServeConfig::validated(Duration::from_millis(3), 32, 16, 1).expect("config");
    let server =
        ServerHandle::start(cfg, BindAddr::Tcp("127.0.0.1:0".into())).expect("bind tcp socket");
    let addr = server.local_addr().expect("tcp addr");
    enroll(
        &mut Client::connect_tcp(addr).expect("connect"),
        tenant,
        1,
        20,
    );

    let mut raw = TcpStream::connect(addr).expect("connect");
    let mut reader = raw.try_clone().expect("clone stream");
    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut req = auth_request(tenant, 1, 0, 7_000);
            while !stop.load(Ordering::Relaxed) {
                if raw.write_all(&encode_request(&req)).is_err() {
                    break;
                }
                req.request_id += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
            req.request_id
        })
    };
    // Reads responses as they arrive until the server closes the
    // connection.
    let collector = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let mut buf = [0u8; 64 * 1024];
        let mut out = Vec::new();
        while let Ok(n @ 1..) = reader.read(&mut buf) {
            bytes.extend_from_slice(&buf[..n]);
            let mut used_total = 0;
            while let Some((payload, used)) =
                split_frame(&bytes[used_total..]).expect("well-formed frame")
            {
                out.push(decode_response(payload).expect("decodable response"));
                used_total += used;
            }
            bytes.drain(..used_total);
        }
        out
    });

    std::thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    let sent = sender.join().expect("sender thread");
    let responses = collector.join().expect("collector thread");
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");

    let shut = |r: &Response| r.status == Status::Overloaded && r.reason.contains("shutting down");
    let first_shed = responses
        .iter()
        .filter(|r| shut(r))
        .map(|r| r.request_id)
        .min()
        .expect("requests after the flag are shed as shutting down");
    let mut by_id: HashMap<u64, &Response> = HashMap::new();
    for r in &responses {
        assert!(r.request_id < sent, "response to a request never sent");
        assert!(
            by_id.insert(r.request_id, r).is_none(),
            "request {} answered twice",
            r.request_id
        );
    }
    let mut decided = 0;
    for rid in 0..first_shed {
        let r = by_id
            .get(&rid)
            .unwrap_or_else(|| panic!("request {rid}, read before the flag, got no response"));
        match r.status {
            Status::Accepted | Status::Rejected => decided += 1,
            Status::Overloaded if r.reason.contains("admission queue full") => {}
            s => panic!("request {rid} before the flag: {s:?}: {}", r.reason),
        }
    }
    assert!(decided > 0, "work admitted before the flag is decided");
    for r in responses.iter().filter(|r| r.request_id > first_shed) {
        assert!(
            shut(r),
            "request {} after the flag: {:?}: {}",
            r.request_id,
            r.status,
            r.reason
        );
    }
}
