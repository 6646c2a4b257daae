//! Shard files: the writer and the reader.
//!
//! A shard is an immutable, checksummed file of user templates plus a
//! prebuilt coarse index (format in [`super::format`]). Writes are
//! atomic — encode to `<path>.tmp`, `fsync`, rename — so a crashed
//! writer can never leave a half-shard where a reader will find it.
//!
//! [`Shard`] reads the whole file and decodes it onto the heap via
//! `from_le_bytes`, so it works on any endianness. Every count and
//! offset the file states is checked against the bytes behind it
//! before anything is read or sized from it: a damaged or doctored
//! file is a typed [`StoreError`], never a panic or an abort.

use super::format::{parse_header, Cursor, Writer, HEADER_LEN, MAGIC, TRAILER_LEN, VERSION};
use super::prefilter::CoarseIndex;
use super::template::{GateTemplate, UserTemplate};
use super::StoreError;
use echo_ml::StandardScaler;
use std::path::Path;
use std::sync::Arc;

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Accumulates templates and writes one shard file atomically.
#[derive(Debug, Clone)]
pub struct ShardWriter {
    dim: usize,
    means: Vec<f64>,
    stds: Vec<f64>,
    templates: Vec<Arc<UserTemplate>>,
}

impl ShardWriter {
    /// A writer for templates scaled by `scaler`.
    pub fn new(scaler: &StandardScaler) -> Self {
        ShardWriter {
            dim: scaler.dim(),
            means: scaler.means().to_vec(),
            stds: scaler.stds().to_vec(),
            templates: Vec::new(),
        }
    }

    /// Adds one user's template.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTemplate`] when shapes disagree with the
    /// writer's dimensionality.
    pub fn push(&mut self, template: Arc<UserTemplate>) -> Result<(), StoreError> {
        template.validate(self.dim)?;
        self.templates.push(template);
        Ok(())
    }

    /// Number of templates queued.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// `true` when no templates are queued.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Encodes the shard image in memory (sorted by user id, coarse
    /// index prebuilt, checksum trailer appended).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTemplate`] on duplicate user ids.
    pub fn encode(&self) -> Result<Vec<u8>, StoreError> {
        let mut templates: Vec<&Arc<UserTemplate>> = self.templates.iter().collect();
        templates.sort_by_key(|t| t.user_id);
        if templates.windows(2).any(|w| w[0].user_id == w[1].user_id) {
            return Err(StoreError::InvalidTemplate("duplicate user id"));
        }
        let n = templates.len();
        let dim = self.dim;
        let mut centroids = Vec::with_capacity(n * dim);
        for t in &templates {
            centroids.extend_from_slice(&t.centroid);
        }
        let index = CoarseIndex::build(&centroids, dim);

        let mut w = Writer::new();
        w.put_bytes(&MAGIC);
        w.put_u32(VERSION);
        w.put_u32(dim as u32);
        w.put_u32(n as u32);
        w.put_u32(index.n_cells() as u32);
        for _ in 0..9 {
            w.put_u64(0); // section offsets + file_len, patched below
        }
        debug_assert_eq!(w.len(), HEADER_LEN);

        let scaler_off = w.align8();
        for &m in &self.means {
            w.put_f64(m);
        }
        for &s in &self.stds {
            w.put_f64(s);
        }
        let ids_off = w.align8();
        for t in &templates {
            w.put_u64(t.user_id);
        }
        let centroids_off = w.align8();
        for &c in &centroids {
            w.put_f32(c);
        }
        let cell_cent_off = w.align8();
        for &c in index.cells() {
            w.put_f32(c);
        }
        let cell_offs_off = w.align8();
        for &o in index.offsets() {
            w.put_u32(o);
        }
        let members_off = w.align8();
        for &m in index.members() {
            w.put_u32(m);
        }
        let rec_tab_off = w.align8();
        for _ in 0..n + 1 {
            w.put_u64(0); // record offsets, patched below
        }
        let gates_off = w.align8();
        for (i, t) in templates.iter().enumerate() {
            w.patch_u64(rec_tab_off + 8 * i, w.len() as u64);
            w.put_u32(t.gates.len() as u32);
            w.put_u32(0);
            for g in &t.gates {
                w.put_u32(g.n_sv() as u32);
                w.put_u32(0);
                w.put_f64(g.gamma);
                w.put_f64(g.rho);
                w.put_f64(g.threshold);
                for &c in &g.coefficients {
                    w.put_f64(c);
                }
                for &v in &g.support {
                    w.put_f64(v);
                }
            }
        }
        let end = w.len();
        w.patch_u64(rec_tab_off + 8 * n, end as u64);
        w.patch_u64(24, scaler_off as u64);
        w.patch_u64(32, ids_off as u64);
        w.patch_u64(40, centroids_off as u64);
        w.patch_u64(48, cell_cent_off as u64);
        w.patch_u64(56, cell_offs_off as u64);
        w.patch_u64(64, members_off as u64);
        w.patch_u64(72, rec_tab_off as u64);
        w.patch_u64(80, gates_off as u64);
        w.patch_u64(88, (end + TRAILER_LEN) as u64);
        Ok(w.finish())
    }

    /// Writes the shard to `path` atomically: encode, write to
    /// `<path>.tmp`, `fsync`, rename over `path`, `fsync` the parent
    /// directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTemplate`] from [`ShardWriter::encode`] or
    /// [`StoreError::Io`] from the filesystem.
    pub fn write_to(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.encode()?;
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            std::io::Write::write_all(&mut f, &bytes).map_err(|e| io_err(&tmp, e))?;
            f.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        if let Some(dir) = path.parent() {
            // Make the rename durable; best-effort (some filesystems
            // refuse to open directories).
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// An open shard: everything decoded onto the heap at open.
#[derive(Debug, Clone)]
pub struct Shard {
    dim: usize,
    means: Vec<f64>,
    stds: Vec<f64>,
    ids: Vec<u64>,
    index: CoarseIndex,
    users: Vec<Vec<GateTemplate>>,
}

impl Shard {
    /// Reads and fully decodes `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, otherwise any format
    /// error with byte-offset context.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
        Self::decode(&bytes)
    }

    /// Decodes a shard image from memory (shared by tests and `open`).
    ///
    /// # Errors
    ///
    /// As for [`Shard::open`], minus I/O.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let h = parse_header(bytes)?;
        let dim = h.dim as usize;
        let n = h.n_users as usize;
        let n_cells = h.n_cells as usize;
        let mut c = Cursor::at(bytes, h.scaler_off as usize);
        let means = c.f64s(dim, "scaler means")?;
        let stds = c.f64s(dim, "scaler stds")?;
        let ids = Cursor::at(bytes, h.ids_off as usize).u64s(n, "user ids")?;
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StoreError::Corrupt {
                offset: h.ids_off,
                what: "user ids not strictly ascending",
            });
        }
        let centroids = Cursor::at(bytes, h.centroids_off as usize).f32s(n * dim, "centroids")?;
        let cells =
            Cursor::at(bytes, h.cell_cent_off as usize).f32s(n_cells * dim, "cell centroids")?;
        let offsets =
            Cursor::at(bytes, h.cell_offs_off as usize).u32s(n_cells + 1, "cell offsets")?;
        let members = Cursor::at(bytes, h.members_off as usize).u32s(n, "cell members")?;
        let index = CoarseIndex::from_parts(dim, cells, offsets, members, &centroids).map_err(
            |e| match e {
                StoreError::Corrupt { what, .. } => StoreError::Corrupt {
                    offset: h.cell_offs_off,
                    what,
                },
                other => other,
            },
        )?;
        let rec_tab = Cursor::at(bytes, h.rec_tab_off as usize).u64s(n + 1, "record table")?;
        let gates_end = (bytes.len() - TRAILER_LEN) as u64;
        if rec_tab.first().is_some_and(|&r| r != h.gates_off)
            || rec_tab.last() != Some(&gates_end)
            || rec_tab.windows(2).any(|w| w[0] > w[1])
        {
            return Err(StoreError::Corrupt {
                offset: h.rec_tab_off,
                what: "record table is not a monotone span of the gate section",
            });
        }
        let mut users = Vec::with_capacity(n);
        for u in 0..n {
            let rec_end = rec_tab[u + 1] as usize;
            let mut c = Cursor::at(&bytes[..rec_end.min(bytes.len())], rec_tab[u] as usize);
            let n_gates = c.u32("gate count")?;
            c.u32("gate count padding")?;
            // A resealed file can state any count. Every gate takes at
            // least 32 bytes (its counts and parameters), so the bytes
            // left in the record bound how many can follow it.
            let fit = rec_end.saturating_sub(c.pos()) / 32;
            let mut gates = Vec::with_capacity((n_gates as usize).min(fit));
            for _ in 0..n_gates {
                let n_sv = c.u32("support vector count")? as usize;
                c.u32("support vector padding")?;
                let params = c.f64s(3, "gate parameters")?;
                let coefficients = c.f64s(n_sv, "gate coefficients")?;
                let sv_len = n_sv.checked_mul(dim).ok_or(StoreError::Corrupt {
                    offset: c.pos() as u64,
                    what: "gate size overflows",
                })?;
                let support = c.f64s(sv_len, "gate support vectors")?;
                gates.push(GateTemplate {
                    gamma: params[0],
                    rho: params[1],
                    threshold: params[2],
                    coefficients,
                    support,
                });
            }
            if c.pos() != rec_end {
                return Err(StoreError::Corrupt {
                    offset: c.pos() as u64,
                    what: "gate record does not end at its table boundary",
                });
            }
            users.push(gates);
        }
        Ok(Shard {
            dim,
            means,
            stds,
            ids,
            index,
            users,
        })
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Users in this shard.
    pub fn n_users(&self) -> usize {
        self.ids.len()
    }

    /// Sorted user ids.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Scaler means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Scaler divisors.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Top-`k` candidate user indices for a probe.
    pub fn candidates(&self, probe: &[f32], k: usize) -> Vec<(u32, f32)> {
        self.index.candidates(probe, k)
    }

    /// The user-at-index's gate margin on a scaled probe.
    pub fn margin_by_index(&self, user: usize, x: &[f64]) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for g in &self.users[user] {
            best = best.max(g.margin(self.dim, x));
        }
        best
    }

    /// Index of `user_id` within this shard, if present.
    pub fn find(&self, user_id: u64) -> Option<usize> {
        self.ids.binary_search(&user_id).ok()
    }
}
