//! The wire protocol: length-prefixed binary frames.
//!
//! Every message is one frame — a little-endian `u32` payload length
//! followed by that many payload bytes — so framing survives partial
//! reads trivially: buffer until the prefix is complete, then until the
//! payload is. Inside a frame the payload is a fixed header plus (for
//! auth/enrol) a pixel block:
//!
//! ```text
//! request  := op:u8  request_id:u64  tenant:u64  user:u64
//!             n_images:u16  width:u16  height:u16
//!             pixels:[f32; n_images·width·height]      (row-major)
//! response := op:u8  request_id:u64  status:u8  user_id:u64
//!             trace_id:u64  reason_len:u32  reason:[u8]
//! ```
//!
//! All integers are little-endian. `user` is the claimed subject for
//! auth (`u64::MAX` = unclaimed), the enrollee for enrol, and ignored
//! for identify (the whole point is not claiming one). Pixels are
//! `f32` on the wire — the acoustic image's dynamic range survives
//! single precision, and it halves the frame size of the hottest
//! message.
//!
//! Decoding never panics: every failure is a typed [`ProtocolError`]
//! carrying the byte offset at which the payload went wrong, so a
//! malformed client shows up in the daemon log as
//! `"frame truncated at byte 21: need 8, have 3"` rather than a panic
//! backtrace (the bug class this PR sweeps off the I/O surface).

use echo_ml::GrayImage;
use echo_obs::window::{REJECT_CLASSES, ROLLUP_SPANS};
use echo_obs::HistogramSnapshot;
use std::fmt;

/// Hard ceiling on a frame payload. Bounds per-connection buffering; a
/// maximal auth request (64 images of 256×256 `f32`) fits comfortably.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Most images accepted in one request.
pub const MAX_IMAGES: u16 = 64;

/// Largest accepted image side.
pub const MAX_IMAGE_SIDE: u16 = 256;

/// Request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Authenticate a beep train of acoustic images.
    Auth = 1,
    /// Add an enrolment group for a user and retrain the tenant.
    Enroll = 2,
    /// Liveness probe.
    Ping = 3,
    /// Ask the daemon to drain and exit.
    Shutdown = 4,
    /// Identify the subject of a beep train against the tenant's
    /// template store (no claimed user required; `user` is ignored and
    /// conventionally `u64::MAX`).
    Identify = 5,
    /// Read the daemon's live telemetry windows. `tenant` selects one
    /// tenant, or `u64::MAX` for all; `user` and images are ignored.
    /// Answered inline on the I/O thread — a stats poll never waits
    /// behind the batcher.
    Stats = 6,
}

impl Opcode {
    fn from_u8(op: u8) -> Option<Self> {
        match op {
            1 => Some(Opcode::Auth),
            2 => Some(Opcode::Enroll),
            3 => Some(Opcode::Ping),
            4 => Some(Opcode::Shutdown),
            5 => Some(Opcode::Identify),
            6 => Some(Opcode::Stats),
            _ => None,
        }
    }

    /// A short stable label for trace attributes and dashboards.
    pub fn label(&self) -> &'static str {
        match self {
            Opcode::Auth => "auth",
            Opcode::Enroll => "enroll",
            Opcode::Ping => "ping",
            Opcode::Shutdown => "shutdown",
            Opcode::Identify => "identify",
            Opcode::Stats => "stats",
        }
    }
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Authenticated as `user_id`.
    Accepted = 0,
    /// Biometric reject (spoofer gate / no majority).
    Rejected = 1,
    /// Shed by admission control before classification — back off and
    /// retry; this is a serving-layer verdict, not a biometric one.
    Overloaded = 2,
    /// The request failed with the error in `reason`.
    Error = 3,
    /// Acknowledgement for ping / enrol / shutdown.
    Ok = 4,
}

impl Status {
    fn from_u8(s: u8) -> Option<Self> {
        match s {
            0 => Some(Status::Accepted),
            1 => Some(Status::Rejected),
            2 => Some(Status::Overloaded),
            3 => Some(Status::Error),
            4 => Some(Status::Ok),
            _ => None,
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub op: Opcode,
    /// Caller-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    pub tenant: u64,
    /// Claimed subject (auth) or enrollee (enrol); `u64::MAX` = none.
    pub user: u64,
    /// The beep train's acoustic images (empty for ping/shutdown).
    pub images: Vec<GrayImage>,
}

impl Request {
    /// The claimed subject, if the caller stated one.
    pub fn claimed_user(&self) -> Option<u64> {
        (self.user != u64::MAX).then_some(self.user)
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Opcode of the request this answers.
    pub op: Opcode,
    pub request_id: u64,
    pub status: Status,
    /// Authenticated user for [`Status::Accepted`], otherwise 0.
    pub user_id: u64,
    /// Trace id of the server-side attempt (0 when untraced).
    pub trace_id: u64,
    /// Reject/error reason; empty on success.
    pub reason: String,
    /// Telemetry payload; `Some` only on successful [`Opcode::Stats`]
    /// responses (encoded as a trailing binary block, absent for every
    /// other opcode).
    pub stats: Option<StatsReport>,
}

/// One rollup on the wire: verdict counts, QPS, gate-margin quantiles
/// (computed server-side from the window sketch — sketches never cross
/// the wire) and the whole latency histogram, extremes included, from
/// which the reader computes latency quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupStats {
    /// Epochs the rollup spans (including the current partial one).
    pub epochs: u64,
    pub decisions: u64,
    pub accepted: u64,
    /// Rejections by class, indexed per
    /// [`echo_obs::window::REJECT_LABELS`].
    pub rejects: [u64; REJECT_CLASSES],
    /// Decisions per wall-clock second over the span.
    pub qps: f64,
    /// Median gate margin over the span.
    pub margin_p50: Option<f64>,
    /// 99th-percentile gate margin over the span.
    pub margin_p99: Option<f64>,
    /// End-to-end latency histogram over the span.
    pub lat: HistogramSnapshot,
}

/// One tenant's windows on the wire (`tenant: None` = the global
/// cross-tenant window).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    pub tenant: Option<u64>,
    /// Current (partial) epoch number.
    pub epoch: u64,
    /// Latest PSI drift score vs the enrolment-time reference.
    pub drift: Option<f64>,
    /// Cumulative totals since the window was created.
    pub cum: RollupStats,
    /// Trailing rollups, one per span in
    /// [`echo_obs::window::ROLLUP_SPANS`] (1 / 8 / 64 epochs).
    pub windows: Vec<RollupStats>,
}

/// The [`Opcode::Stats`] payload: daemon-level queue/batch health plus
/// the global and per-tenant windows.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Decisions per epoch in force.
    pub epoch_len: u64,
    /// Batcher queue depth at snapshot time.
    pub queue_depth: i64,
    /// Observations / summed sizes of the `serve.batch_size` histogram
    /// (cumulative; delta two reports for a windowed mean).
    pub batch_count: u64,
    pub batch_sum: u64,
    /// Observations / summed percentages of the `serve.batch_fill_pct`
    /// occupancy histogram.
    pub fill_count: u64,
    pub fill_sum: u64,
    /// The cross-tenant global window.
    pub global: TenantStats,
    /// Per-tenant windows, ascending tenant id.
    pub tenants: Vec<TenantStats>,
}

/// A frame that could not be decoded. Every variant names the byte
/// offset (within the payload) where decoding stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The length prefix announces a payload beyond [`MAX_FRAME`].
    FrameTooLarge { len: usize },
    /// The payload ended before a field did.
    Truncated {
        offset: usize,
        need: usize,
        have: usize,
    },
    /// Unknown opcode byte.
    BadOpcode { offset: usize, op: u8 },
    /// Unknown status byte.
    BadStatus { offset: usize, status: u8 },
    /// Image geometry outside [`MAX_IMAGES`]/[`MAX_IMAGE_SIDE`], or a
    /// zero side with a nonzero image count.
    BadGeometry {
        offset: usize,
        n_images: u16,
        width: u16,
        height: u16,
    },
    /// The reason field is not UTF-8.
    BadUtf8 { offset: usize },
    /// A presence flag byte in a stats block was neither 0 nor 1, or a
    /// block count was out of range — the frame is corrupt, not merely
    /// short.
    BadStatsBlock { offset: usize, value: u64 },
    /// Bytes remained after the last field.
    TrailingBytes { offset: usize, extra: usize },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_FRAME}-byte limit"
                )
            }
            ProtocolError::Truncated { offset, need, have } => {
                write!(
                    f,
                    "frame truncated at byte {offset}: need {need}, have {have}"
                )
            }
            ProtocolError::BadOpcode { offset, op } => {
                write!(f, "unknown opcode {op} at byte {offset}")
            }
            ProtocolError::BadStatus { offset, status } => {
                write!(f, "unknown status {status} at byte {offset}")
            }
            ProtocolError::BadGeometry {
                offset,
                n_images,
                width,
                height,
            } => write!(
                f,
                "bad image geometry {n_images}×{width}×{height} at byte {offset} \
                 (limits: {MAX_IMAGES} images, {MAX_IMAGE_SIDE} per side)"
            ),
            ProtocolError::BadUtf8 { offset } => {
                write!(f, "reason at byte {offset} is not valid UTF-8")
            }
            ProtocolError::BadStatsBlock { offset, value } => {
                write!(f, "corrupt stats block at byte {offset}: value {value}")
            }
            ProtocolError::TrailingBytes { offset, extra } => {
                write!(
                    f,
                    "{extra} trailing bytes after the last field at byte {offset}"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(ProtocolError::Truncated {
                offset: self.pos,
                need: n,
                have,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, ProtocolError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A 0/1 presence flag; any other byte is a corrupt block, not a
    /// short one.
    fn flag(&mut self) -> Result<bool, ProtocolError> {
        let off = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ProtocolError::BadStatsBlock {
                offset: off,
                value: v as u64,
            }),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, ProtocolError> {
        Ok(if self.flag()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, ProtocolError> {
        Ok(self.opt_u64()?.map(f64::from_bits))
    }

    fn done(&self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::TrailingBytes {
                offset: self.pos,
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Encodes a request into a complete frame (prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let n = req.images.len();
    let (w, h) = req
        .images
        .first()
        .map_or((0, 0), |i| (i.width(), i.height()));
    let payload_len = 1 + 8 + 8 + 8 + 2 + 2 + 2 + n * w * h * 4;
    let mut out = Vec::with_capacity(4 + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.push(req.op as u8);
    out.extend_from_slice(&req.request_id.to_le_bytes());
    out.extend_from_slice(&req.tenant.to_le_bytes());
    out.extend_from_slice(&req.user.to_le_bytes());
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&(w as u16).to_le_bytes());
    out.extend_from_slice(&(h as u16).to_le_bytes());
    for img in &req.images {
        for &p in img.pixels() {
            out.extend_from_slice(&(p as f32).to_le_bytes());
        }
    }
    out
}

/// Decodes a request payload (the bytes *after* the length prefix).
///
/// # Errors
///
/// A [`ProtocolError`] naming the offending byte offset.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(payload);
    let op_off = c.pos;
    let op_byte = c.u8()?;
    let op = Opcode::from_u8(op_byte).ok_or(ProtocolError::BadOpcode {
        offset: op_off,
        op: op_byte,
    })?;
    let request_id = c.u64()?;
    let tenant = c.u64()?;
    let user = c.u64()?;
    let geom_off = c.pos;
    let n_images = c.u16()?;
    let width = c.u16()?;
    let height = c.u16()?;
    let geometry_ok = n_images <= MAX_IMAGES
        && width <= MAX_IMAGE_SIDE
        && height <= MAX_IMAGE_SIDE
        && (n_images == 0 || (width > 0 && height > 0));
    if !geometry_ok {
        return Err(ProtocolError::BadGeometry {
            offset: geom_off,
            n_images,
            width,
            height,
        });
    }
    let (w, h) = (width as usize, height as usize);
    let mut images = Vec::with_capacity(n_images as usize);
    for _ in 0..n_images {
        let mut img = GrayImage::zeros(w, h);
        for p in img.pixels_mut() {
            *p = c.f32()? as f64;
        }
        images.push(img);
    }
    c.done()?;
    Ok(Request {
        op,
        request_id,
        tenant,
        user,
        images,
    })
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    put_opt_u64(out, v.map(f64::to_bits));
}

fn put_rollup(out: &mut Vec<u8>, r: &RollupStats) {
    out.extend_from_slice(&r.epochs.to_le_bytes());
    out.extend_from_slice(&r.decisions.to_le_bytes());
    out.extend_from_slice(&r.accepted.to_le_bytes());
    for &n in &r.rejects {
        out.extend_from_slice(&n.to_le_bytes());
    }
    out.extend_from_slice(&r.qps.to_bits().to_le_bytes());
    put_opt_f64(out, r.margin_p50);
    put_opt_f64(out, r.margin_p99);
    out.extend_from_slice(&r.lat.count.to_le_bytes());
    out.extend_from_slice(&r.lat.sum_ns.to_le_bytes());
    put_opt_u64(out, r.lat.min_ns);
    put_opt_u64(out, r.lat.max_ns);
    for &b in &r.lat.buckets {
        out.extend_from_slice(&b.to_le_bytes());
    }
}

fn put_tenant_stats(out: &mut Vec<u8>, t: &TenantStats) {
    match t.tenant {
        Some(id) => {
            out.push(1);
            out.extend_from_slice(&id.to_le_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&t.epoch.to_le_bytes());
    put_opt_f64(out, t.drift);
    out.push(t.windows.len() as u8);
    put_rollup(out, &t.cum);
    for w in &t.windows {
        put_rollup(out, w);
    }
}

fn put_stats(out: &mut Vec<u8>, s: &StatsReport) {
    out.extend_from_slice(&s.epoch_len.to_le_bytes());
    out.extend_from_slice(&s.queue_depth.to_le_bytes());
    out.extend_from_slice(&s.batch_count.to_le_bytes());
    out.extend_from_slice(&s.batch_sum.to_le_bytes());
    out.extend_from_slice(&s.fill_count.to_le_bytes());
    out.extend_from_slice(&s.fill_sum.to_le_bytes());
    out.extend_from_slice(&(s.tenants.len() as u16).to_le_bytes());
    put_tenant_stats(out, &s.global);
    for t in &s.tenants {
        put_tenant_stats(out, t);
    }
}

/// Encodes a response into a complete frame (prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let reason = resp.reason.as_bytes();
    let mut out = vec![0u8; 4]; // length prefix patched below
    out.push(resp.op as u8);
    out.extend_from_slice(&resp.request_id.to_le_bytes());
    out.push(resp.status as u8);
    out.extend_from_slice(&resp.user_id.to_le_bytes());
    out.extend_from_slice(&resp.trace_id.to_le_bytes());
    out.extend_from_slice(&(reason.len() as u32).to_le_bytes());
    out.extend_from_slice(reason);
    if let Some(stats) = &resp.stats {
        put_stats(&mut out, stats);
    }
    let payload_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&payload_len.to_le_bytes());
    out
}

fn take_rollup(c: &mut Cursor<'_>) -> Result<RollupStats, ProtocolError> {
    let epochs = c.u64()?;
    let decisions = c.u64()?;
    let accepted = c.u64()?;
    let mut rejects = [0u64; REJECT_CLASSES];
    for slot in rejects.iter_mut() {
        *slot = c.u64()?;
    }
    let qps = c.f64()?;
    let margin_p50 = c.opt_f64()?;
    let margin_p99 = c.opt_f64()?;
    let mut lat = HistogramSnapshot {
        count: c.u64()?,
        sum_ns: c.u64()?,
        min_ns: c.opt_u64()?,
        max_ns: c.opt_u64()?,
        ..HistogramSnapshot::default()
    };
    for b in lat.buckets.iter_mut() {
        *b = c.u64()?;
    }
    Ok(RollupStats {
        epochs,
        decisions,
        accepted,
        rejects,
        qps,
        margin_p50,
        margin_p99,
        lat,
    })
}

fn take_tenant_stats(c: &mut Cursor<'_>) -> Result<TenantStats, ProtocolError> {
    let tenant = if c.flag()? { Some(c.u64()?) } else { None };
    let epoch = c.u64()?;
    let drift = c.opt_f64()?;
    let n_off = c.pos;
    let n_windows = c.u8()? as usize;
    // The window count is structural: anything but the fixed rollup
    // span set means sender and receiver disagree on the format.
    if n_windows != ROLLUP_SPANS.len() {
        return Err(ProtocolError::BadStatsBlock {
            offset: n_off,
            value: n_windows as u64,
        });
    }
    let cum = take_rollup(c)?;
    let mut windows = Vec::with_capacity(n_windows);
    for _ in 0..n_windows {
        windows.push(take_rollup(c)?);
    }
    Ok(TenantStats {
        tenant,
        epoch,
        drift,
        cum,
        windows,
    })
}

fn take_stats(c: &mut Cursor<'_>) -> Result<StatsReport, ProtocolError> {
    let epoch_len = c.u64()?;
    let queue_depth = c.i64()?;
    let batch_count = c.u64()?;
    let batch_sum = c.u64()?;
    let fill_count = c.u64()?;
    let fill_sum = c.u64()?;
    let n_tenants = c.u16()? as usize;
    let global = take_tenant_stats(c)?;
    let mut tenants = Vec::with_capacity(n_tenants.min(1024));
    for _ in 0..n_tenants {
        tenants.push(take_tenant_stats(c)?);
    }
    Ok(StatsReport {
        epoch_len,
        queue_depth,
        batch_count,
        batch_sum,
        fill_count,
        fill_sum,
        global,
        tenants,
    })
}

/// Decodes a response payload (the bytes *after* the length prefix).
///
/// # Errors
///
/// A [`ProtocolError`] naming the offending byte offset.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(payload);
    let op_off = c.pos;
    let op_byte = c.u8()?;
    let op = Opcode::from_u8(op_byte).ok_or(ProtocolError::BadOpcode {
        offset: op_off,
        op: op_byte,
    })?;
    let request_id = c.u64()?;
    let st_off = c.pos;
    let st_byte = c.u8()?;
    let status = Status::from_u8(st_byte).ok_or(ProtocolError::BadStatus {
        offset: st_off,
        status: st_byte,
    })?;
    let user_id = c.u64()?;
    let trace_id = c.u64()?;
    let reason_len = c.u32()? as usize;
    let reason_off = c.pos;
    let reason = std::str::from_utf8(c.take(reason_len)?)
        .map_err(|_| ProtocolError::BadUtf8 { offset: reason_off })?
        .to_string();
    // Only a successful Stats response carries a trailing stats block;
    // for every other opcode (and for stats errors, which end at the
    // reason) leftover bytes are still a protocol violation.
    let stats = if op == Opcode::Stats && c.pos < c.buf.len() {
        Some(take_stats(&mut c)?)
    } else {
        None
    };
    c.done()?;
    Ok(Response {
        op,
        request_id,
        status,
        user_id,
        trace_id,
        reason,
        stats,
    })
}

/// Tries to split one complete frame off the front of `buf`.
///
/// Returns the payload and the total bytes consumed (prefix included),
/// `Ok(None)` when the buffer does not yet hold a whole frame.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] as soon as the prefix announces a
/// payload beyond [`MAX_FRAME`] — without waiting for the bytes, so an
/// abusive prefix cannot make the server buffer 4 GiB first.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, ProtocolError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((&buf[4..4 + len], 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            op: Opcode::Auth,
            request_id: 42,
            tenant: 7,
            user: 3,
            images: vec![
                GrayImage::from_fn(4, 3, |x, y| (x * 10 + y) as f64),
                GrayImage::from_fn(4, 3, |x, y| (y * 10 + x) as f64),
            ],
        }
    }

    #[test]
    fn request_round_trips_including_pixels() {
        let req = sample_request();
        let frame = encode_request(&req);
        let (payload, used) = split_frame(&frame).unwrap().unwrap();
        assert_eq!(used, frame.len());
        let back = decode_request(payload).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn identify_request_round_trips_without_a_claimed_user() {
        let req = Request {
            op: Opcode::Identify,
            user: u64::MAX,
            ..sample_request()
        };
        assert_eq!(req.claimed_user(), None);
        let frame = encode_request(&req);
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        let back = decode_request(payload).unwrap();
        assert_eq!(back.op, Opcode::Identify);
        assert_eq!(back, req);
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            op: Opcode::Auth,
            request_id: 42,
            status: Status::Overloaded,
            user_id: 0,
            trace_id: 99,
            reason: "overloaded: tenant 7 queue full (256 queued)".into(),
            stats: None,
        };
        let frame = encode_response(&resp);
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        assert_eq!(decode_response(payload).unwrap(), resp);
    }

    fn sample_rollup(seed: u64) -> RollupStats {
        let mut lat = HistogramSnapshot::default();
        lat.observe_ns(1_500 + seed);
        lat.observe_ns(2_000_000);
        RollupStats {
            epochs: 3,
            decisions: 40 + seed,
            accepted: 31,
            rejects: [1, 2, 3, 2, 1],
            qps: 123.5,
            margin_p50: Some(0.04),
            margin_p99: None,
            lat,
        }
    }

    fn sample_stats() -> StatsReport {
        let tenant = |id: Option<u64>| TenantStats {
            tenant: id,
            epoch: 17,
            drift: id.map(|i| 0.01 * i as f64),
            cum: sample_rollup(0),
            windows: vec![sample_rollup(1), sample_rollup(2), sample_rollup(3)],
        };
        StatsReport {
            epoch_len: 32,
            queue_depth: -1,
            batch_count: 9,
            batch_sum: 40,
            fill_count: 9,
            fill_sum: 730,
            global: tenant(None),
            tenants: vec![tenant(Some(7)), tenant(Some(9))],
        }
    }

    #[test]
    fn stats_response_round_trips() {
        let resp = Response {
            op: Opcode::Stats,
            request_id: 5,
            status: Status::Ok,
            user_id: 0,
            trace_id: 0,
            reason: String::new(),
            stats: Some(sample_stats()),
        };
        let frame = encode_response(&resp);
        let (payload, used) = split_frame(&frame).unwrap().unwrap();
        assert_eq!(used, frame.len());
        let back = decode_response(payload).unwrap();
        assert_eq!(back, resp);
        let stats = back.stats.unwrap();
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[0].tenant, Some(7));
        assert_eq!(stats.global.tenant, None);
        assert_eq!(stats.queue_depth, -1);
        assert_eq!(stats.tenants[1].drift, Some(0.09));
    }

    #[test]
    fn stats_error_response_carries_no_block() {
        let resp = Response {
            op: Opcode::Stats,
            request_id: 5,
            status: Status::Error,
            user_id: 0,
            trace_id: 0,
            reason: "no such tenant".into(),
            stats: None,
        };
        let frame = encode_response(&resp);
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        assert_eq!(decode_response(payload).unwrap(), resp);
    }

    #[test]
    fn truncated_stats_block_is_typed_at_every_cut() {
        let frame = encode_response(&Response {
            op: Opcode::Stats,
            request_id: 5,
            status: Status::Ok,
            user_id: 0,
            trace_id: 0,
            reason: String::new(),
            stats: Some(sample_stats()),
        });
        let payload = &frame[4..];
        // The fixed response header ends after the (empty) reason.
        let header_end = 1 + 8 + 1 + 8 + 8 + 4;
        for cut in [header_end + 1, header_end + 60, payload.len() - 1] {
            let err = decode_response(&payload[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_stats_flags_and_counts_are_rejected() {
        let frame = encode_response(&Response {
            op: Opcode::Stats,
            request_id: 5,
            status: Status::Ok,
            user_id: 0,
            trace_id: 0,
            reason: String::new(),
            stats: Some(sample_stats()),
        });
        let header_end = 4 + 1 + 8 + 1 + 8 + 8 + 4;
        // First byte after the six u64 block headers + tenant count is
        // the global entry's tenant-presence flag.
        let flag_off = header_end + 6 * 8 + 2;
        let mut bad_flag = frame.clone();
        bad_flag[flag_off] = 7;
        let err = decode_response(&bad_flag[4..]).unwrap_err();
        assert!(
            matches!(err, ProtocolError::BadStatsBlock { value: 7, .. }),
            "{err:?}"
        );
        // The global entry is tenantless: flag(1) + epoch(8) +
        // drift-flag(1) puts the window count next; any count except
        // the rollup-span set is structurally corrupt.
        let n_windows_off = flag_off + 1 + 8 + 1;
        let mut bad_count = frame.clone();
        assert_eq!(bad_count[n_windows_off], ROLLUP_SPANS.len() as u8);
        bad_count[n_windows_off] = 9;
        let err = decode_response(&bad_count[4..]).unwrap_err();
        assert!(
            matches!(err, ProtocolError::BadStatsBlock { value: 9, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn non_stats_response_rejects_trailing_stats_bytes() {
        let mut frame = encode_response(&Response {
            op: Opcode::Ping,
            request_id: 1,
            status: Status::Ok,
            user_id: 0,
            trace_id: 0,
            reason: String::new(),
            stats: None,
        });
        frame.extend_from_slice(&[1, 2, 3]);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_response(&frame[4..]),
            Err(ProtocolError::TrailingBytes { extra: 3, .. })
        ));
    }

    #[test]
    fn split_frame_waits_for_complete_frames() {
        let frame = encode_request(&sample_request());
        for cut in [0, 3, 4, frame.len() - 1] {
            assert_eq!(split_frame(&frame[..cut]).unwrap(), None, "cut={cut}");
        }
        // Two frames back to back: the first splits off cleanly.
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let (_, used) = split_frame(&two).unwrap().unwrap();
        assert_eq!(used, frame.len());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            split_frame(&buf),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncation_errors_carry_the_byte_offset() {
        let frame = encode_request(&sample_request());
        let payload = &frame[4..];
        // Cut inside the pixel block: offset points into the payload.
        let err = decode_request(&payload[..30]).unwrap_err();
        match err {
            ProtocolError::Truncated { offset, .. } => assert!(offset <= 30, "{offset}"),
            other => panic!("expected Truncated, got {other:?}"),
        }
        let err = decode_request(&[]).unwrap_err();
        assert!(matches!(err, ProtocolError::Truncated { offset: 0, .. }));
    }

    #[test]
    fn bad_opcode_status_and_geometry_are_typed() {
        let mut frame = encode_request(&sample_request());
        frame[4] = 200;
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(ProtocolError::BadOpcode { offset: 0, op: 200 })
        ));

        let resp = Response {
            op: Opcode::Ping,
            request_id: 1,
            status: Status::Ok,
            user_id: 0,
            trace_id: 0,
            reason: String::new(),
            stats: None,
        };
        let mut rframe = encode_response(&resp);
        rframe[4 + 9] = 77;
        assert!(matches!(
            decode_response(&rframe[4..]),
            Err(ProtocolError::BadStatus { status: 77, .. })
        ));

        let mut geo = encode_request(&Request {
            images: Vec::new(),
            ..sample_request()
        });
        // Patch n_images to a huge count with zero sides.
        let n_off = 4 + 1 + 8 + 8 + 8;
        geo[n_off..n_off + 2].copy_from_slice(&500u16.to_le_bytes());
        assert!(matches!(
            decode_request(&geo[4..]),
            Err(ProtocolError::BadGeometry { n_images: 500, .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_request(&Request {
            op: Opcode::Ping,
            request_id: 9,
            tenant: 0,
            user: u64::MAX,
            images: Vec::new(),
        });
        // Grow the payload and the prefix consistently.
        frame.push(0xAB);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(ProtocolError::TrailingBytes { extra: 1, .. })
        ));
    }

    #[test]
    fn errors_render_with_offsets() {
        let msg = ProtocolError::Truncated {
            offset: 21,
            need: 8,
            have: 3,
        }
        .to_string();
        assert!(msg.contains("byte 21"), "{msg}");
    }
}
