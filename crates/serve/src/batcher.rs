//! The micro-batching scheduler: one thread that turns a queue of
//! individually-submitted requests into batched feature extraction.
//!
//! Feature extraction dominates the serving cost and
//! [`ImageFeatures::extract_batch_threaded`] amortises its scratch
//! setup across a batch, so the scheduler's job is to trade a bounded
//! slice of latency for throughput: it holds the oldest queued request
//! at most [`ServeConfig::batch_window`] hoping more arrive, and
//! flushes immediately once [`ServeConfig::max_batch`] requests are
//! queued. Under light load the window expires with a batch of one
//! (latency ≈ window); under heavy load the size trigger fires first
//! and the window never adds latency at all.
//!
//! One flush concatenates every job's images into a single extraction
//! call, then walks the jobs **in queue order** to decide each one.
//! That ordering is the snapshot-consistency story for enrol-while-
//! authenticate: an enrol job retrains and swaps its tenant's
//! authenticator at its queue position, so every auth job decides
//! against exactly the model that was live when it reached the front —
//! the same sequence a serial server would produce. Feature extraction
//! itself is model-independent, which is why batching it across the
//! enrol boundary is safe.

use crate::protocol::{encode_response, Opcode, Request, Response, Status};
use crate::server::{Job, Shared};
use echo_ml::GrayImage;
use echo_obs::TraceCtx;
use echoimage_core::auth::AuthAttempt;
use echoimage_core::store::{identify_traced, IdentifyConfig};
use echoimage_core::AuthDecision;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Runs the scheduler until shutdown is flagged *and* the queue is
/// drained, so every admitted request gets a response even when the
/// daemon is asked to exit mid-burst.
pub(crate) fn run(shared: &Shared) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if q.is_empty() {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    q = shared.cond.wait(q).unwrap();
                    continue;
                }
                let now = Instant::now();
                let deadline = q.front().expect("nonempty").enqueued + shared.cfg.batch_window;
                if q.len() >= shared.cfg.max_batch
                    || now >= deadline
                    || shared.shutdown.load(Ordering::Relaxed)
                {
                    break;
                }
                // Deadline not reached and batch not full: sleep until
                // the deadline, waking early if more work arrives.
                let (qq, _) = shared.cond.wait_timeout(q, deadline - now).unwrap();
                q = qq;
            }
            let take = q.len().min(shared.cfg.max_batch);
            let batch: Vec<Job> = q.drain(..take).collect();
            echo_obs::gauge!("serve.queue_depth").set(q.len() as i64);
            batch
        };
        process_batch(shared, batch);
    }
}

fn process_batch(shared: &Shared, mut batch: Vec<Job>) {
    let _t = echo_obs::stage!(TraceCtx::none(), "serve.batch_flush");
    // Batch size is a unitless count; the ns-bucketed histogram still
    // gives exact count/sum, which is all the mean-batch-size gate
    // reads.
    echo_obs::histogram!("serve.batch_size").observe_ns(batch.len() as u64);
    // Occupancy: how full this flush was relative to the configured
    // ceiling, in percent (unitless, like batch_size).
    let fill_pct = (batch.len() * 100 / shared.cfg.max_batch.max(1)) as u64;
    echo_obs::histogram!("serve.batch_fill_pct").observe_ns(fill_pct);

    // One extraction call over every image in the flush — the point of
    // the whole crate.
    let mut all: Vec<GrayImage> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(batch.len());
    for job in &mut batch {
        let start = all.len();
        all.append(&mut job.req.images);
        ranges.push((start, all.len()));
        // The job has left the queue: close its wait span so the trace
        // separates batcher wait from pipeline time.
        drop(job.queue_wait.take());
    }
    let features = shared.fx.extract_batch_threaded(&all, shared.cfg.threads);

    for (job, (s, e)) in batch.into_iter().zip(ranges) {
        let feats = &features[s..e];
        let resp = {
            // Everything the decision path audits — including records
            // emitted deep inside echoimage-core — is stamped with the
            // job's tenant and fed to its telemetry window.
            let _tenant = echo_obs::tenant_scope(job.req.tenant);
            let _decide_span = job.span.ctx().child("serve.decide");
            decide(shared, &job, feats)
        };
        let e2e_ns = job.enqueued.elapsed().as_nanos() as u64;
        echo_obs::histogram!("serve.e2e").observe_ns(e2e_ns);
        echo_obs::window::observe_latency(job.req.tenant, e2e_ns);
        shared.registry.release(job.req.tenant);
        let frame = encode_response(&resp);
        let mut ob = shared.outboxes.lock().unwrap();
        if let Some(q) = ob.get_mut(&job.conn) {
            q.push_back(frame);
        }
        // The job's span (and with it the request's trace) closes here,
        // after the response is queued for write.
    }
    // One wake per flush, after its last response: the I/O thread then
    // writes each connection's share of the batch in one go.
    shared.wake();
}

fn decide(shared: &Shared, job: &Job, feats: &[Vec<f64>]) -> Response {
    let req = &job.req;
    let ctx = job.span.ctx();
    let respond = |status: Status, user_id: u64, reason: String| Response {
        op: req.op,
        request_id: req.request_id,
        status,
        user_id,
        trace_id: ctx.trace_id(),
        reason,
        stats: None,
    };
    match req.op {
        Opcode::Auth => match shared.registry.authenticator(req.tenant) {
            None => {
                echo_obs::counter!("serve.errors").inc();
                respond(
                    Status::Error,
                    0,
                    format!("tenant {} has no enrolled users", req.tenant),
                )
            }
            Some(auth) => {
                let attempt = AuthAttempt {
                    claimed_user: req.claimed_user(),
                    retry_index: 0,
                };
                match auth.authenticate_features_traced(ctx, feats, attempt) {
                    Ok(AuthDecision::Accepted { user_id }) => {
                        echo_obs::counter!("serve.accepted").inc();
                        respond(Status::Accepted, user_id as u64, String::new())
                    }
                    Ok(AuthDecision::Rejected) => {
                        echo_obs::counter!("serve.rejected").inc();
                        respond(Status::Rejected, 0, "biometric reject".into())
                    }
                    Err(e) => {
                        echo_obs::counter!("serve.errors").inc();
                        respond(Status::Error, 0, e.to_string())
                    }
                }
            }
        },
        Opcode::Identify => match shared.registry.store(req.tenant) {
            None => {
                echo_obs::counter!("serve.errors").inc();
                respond(
                    Status::Error,
                    0,
                    format!("tenant {} has no enrolled users", req.tenant),
                )
            }
            Some(handle) => {
                // One wait-free snapshot load per request: an enrol
                // published at an earlier queue position is visible, a
                // later one is not — the same serial order auth observes
                // through its authenticator snapshot.
                let store = handle.load();
                let attempt = AuthAttempt {
                    claimed_user: None,
                    retry_index: 0,
                };
                match identify_traced(
                    store.as_ref(),
                    ctx,
                    feats,
                    &IdentifyConfig::default(),
                    attempt,
                ) {
                    Ok(AuthDecision::Accepted { user_id }) => {
                        echo_obs::counter!("serve.accepted").inc();
                        respond(Status::Accepted, user_id as u64, String::new())
                    }
                    Ok(AuthDecision::Rejected) => {
                        echo_obs::counter!("serve.rejected").inc();
                        respond(Status::Rejected, 0, "biometric reject".into())
                    }
                    Err(e) => {
                        echo_obs::counter!("serve.errors").inc();
                        respond(Status::Error, 0, e.to_string())
                    }
                }
            }
        },
        Opcode::Enroll => match req.claimed_user() {
            None => {
                echo_obs::counter!("serve.errors").inc();
                respond(Status::Error, 0, "enrol requires a user id".into())
            }
            Some(user) => {
                match shared
                    .registry
                    .enroll_group(req.tenant, user as usize, feats.to_vec())
                {
                    Ok(()) => {
                        echo_obs::counter!("serve.enrolls").inc();
                        respond(Status::Ok, user, String::new())
                    }
                    Err(e) => {
                        echo_obs::counter!("serve.errors").inc();
                        respond(Status::Error, 0, e.to_string())
                    }
                }
            }
        },
        // Ping/shutdown/stats are answered on the I/O thread and never
        // reach the queue; answer defensively rather than panic if one
        // does.
        Opcode::Ping | Opcode::Shutdown | Opcode::Stats => respond(Status::Ok, 0, String::new()),
    }
}

/// Builds the `Overloaded` response and audit record for a shed
/// request; `why` names what refused it (a full admission queue, or
/// shutdown), and the reason reads `overloaded: {why}`. Lives here (not
/// in the I/O loop) so the shed path and the decided path produce their
/// records from one place.
pub(crate) fn shed(req: &Request, trace_id: u64, why: &str) -> Response {
    echo_obs::counter!("serve.overloaded").inc();
    let beeps = req.images.len() as u64;
    echo_obs::record_audit(echo_obs::AuthAudit {
        trace: trace_id,
        tenant: Some(req.tenant),
        seq: 0,
        claimed_user: req.claimed_user(),
        beeps,
        votes: Vec::new(),
        votes_needed: beeps / 2 + 1,
        best_gate_margin: None,
        channels: 0,
        degraded_mask: 0,
        retry_index: 0,
        verdict: echo_obs::AuthVerdict::Overloaded,
        reject_kind: echo_obs::RejectKind::Overloaded,
        reject_reason: format!("overloaded: {why}"),
        spatial_coherence: None,
    });
    Response {
        op: req.op,
        request_id: req.request_id,
        status: Status::Overloaded,
        user_id: 0,
        trace_id,
        reason: format!("overloaded: {why}"),
        stats: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use std::collections::VecDeque;
    use std::io::Read;
    use std::time::Duration;

    /// A tenant no other test in this crate touches: decisions feed
    /// the process-global telemetry windows.
    const TENANT: u64 = 0xBA7C4;
    const CONN: u64 = 4;

    /// An auth job for a tenant nobody enrolled: it decides to a typed
    /// error without feature extraction, which is all a flush needs.
    fn job(request_id: u64) -> Job {
        Job {
            conn: CONN,
            req: Request {
                op: Opcode::Auth,
                request_id,
                tenant: TENANT,
                user: 1,
                images: Vec::new(),
            },
            enqueued: Instant::now(),
            span: echo_obs::root_span("serve.request"),
            queue_wait: None,
        }
    }

    fn shared_with(cfg: ServeConfig) -> Shared {
        let shared = Shared::new(cfg).unwrap();
        shared
            .outboxes
            .lock()
            .unwrap()
            .insert(CONN, VecDeque::new());
        shared
    }

    /// Reads the (non-blocking) wake channel empty; returns the bytes.
    fn wake_bytes(shared: &Shared) -> usize {
        let mut buf = [0u8; 64];
        let mut total = 0;
        while let Ok(n @ 1..) = (&shared.wake_rx).read(&mut buf) {
            total += n;
        }
        total
    }

    fn outbox_len(shared: &Shared) -> usize {
        shared.outboxes.lock().unwrap()[&CONN].len()
    }

    #[test]
    fn one_flush_fills_the_outbox_then_wakes_once() {
        let shared = shared_with(ServeConfig::default());
        let n = 5;
        process_batch(&shared, (0..n).map(|i| job(i as u64)).collect());
        assert_eq!(outbox_len(&shared), n);
        assert_eq!(wake_bytes(&shared), 1);
    }

    #[test]
    fn zero_window_flushes_everything_queued_at_once() {
        let cfg = ServeConfig::validated(Duration::ZERO, 32, 256, 1).unwrap();
        let shared = shared_with(cfg);
        let n = 6;
        shared
            .queue
            .lock()
            .unwrap()
            .extend((0..n).map(|i| job(i as u64)));
        std::thread::scope(|s| {
            let batcher = s.spawn(|| run(&shared));
            // Block until the first flush's wake, which follows that
            // flush's last response.
            let mut byte = [0u8; 1];
            shared.wake_rx.set_nonblocking(false).unwrap();
            (&shared.wake_rx).read_exact(&mut byte).unwrap();
            shared.wake_rx.set_nonblocking(true).unwrap();
            assert_eq!(outbox_len(&shared), n, "one flush took every queued job");
            shared.shutdown.store(true, Ordering::Relaxed);
            shared.cond.notify_all();
            batcher.join().unwrap();
        });
        assert_eq!(wake_bytes(&shared), 0, "no second flush");
        assert_eq!(outbox_len(&shared), n);
    }
}
