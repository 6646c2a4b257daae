//! Compact per-user templates and the in-memory store backend.
//!
//! A [`UserTemplate`] is everything identification needs about one
//! user: a quantized (`f32`) embedding centroid for the coarse
//! prefilter, plus the exact (`f64`) SVDD gate parameters — support
//! vectors, dual coefficients, γ, ρ and the sibling-calibrated
//! threshold. Templates are built once at enrolment by
//! [`TemplateBuilder`] (which reuses the `Authenticator`'s training
//! path, so a template gate is *the same model* the in-memory
//! authenticator would have trained) and shared by `Arc` thereafter:
//! re-enrolling one user into a [`MemoryStore`] copies pointers, never
//! models.

use super::prefilter::CoarseIndex;
use super::{Candidate, StoreError, TemplateStore};
use crate::auth::{train_user_gates, AuthConfig};
use crate::error::EchoImageError;
use echo_ml::{Kernel, StandardScaler};
use std::borrow::Borrow;
use std::sync::Arc;

/// One SVDD gate in template form: the flat-serialized equivalent of a
/// trained `OneClassSvm` plus its calibrated accept threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct GateTemplate {
    /// RBF kernel width.
    pub gamma: f64,
    /// Decision offset ρ.
    pub rho: f64,
    /// Calibrated accept threshold (margin = decision − threshold).
    pub threshold: f64,
    /// Dual coefficients αᵢ, one per support vector.
    pub coefficients: Vec<f64>,
    /// Support vectors, flattened row-major (`n_sv × dim`).
    pub support: Vec<f64>,
}

impl GateTemplate {
    /// Extracts a template from a trained model.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTemplate`] when the model's kernel is not
    /// RBF (the shard format stores γ only).
    pub fn from_svm(svm: &echo_ml::OneClassSvm, threshold: f64) -> Result<Self, StoreError> {
        let Kernel::Rbf { gamma } = svm.kernel() else {
            return Err(StoreError::InvalidTemplate(
                "only RBF-kernel gates are storable",
            ));
        };
        let mut support = Vec::new();
        for sv in svm.support_vectors() {
            support.extend_from_slice(sv);
        }
        Ok(GateTemplate {
            gamma,
            rho: svm.rho(),
            threshold,
            coefficients: svm.coefficients().to_vec(),
            support,
        })
    }

    /// Number of support vectors.
    pub fn n_sv(&self) -> usize {
        self.coefficients.len()
    }

    /// This gate's margin on a scaled probe: `Σᵢ αᵢ·exp(−γ‖svᵢ − x‖²) −
    /// ρ − θ`, accumulated left to right exactly like
    /// [`echo_ml::OneClassSvm::decision`] followed by the authenticator's
    /// `decision − threshold` — the single evaluator every backend
    /// (in-memory and decoded shard templates alike) funnels through,
    /// which is what makes round-tripped margins bit-identical to the
    /// in-memory path. Deliberately a plain left-to-right loop, not a
    /// lane-strided SIMD reduction, which would change the bits.
    pub fn margin(&self, dim: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (i, &c) in self.coefficients.iter().enumerate() {
            let sv = &self.support[i * dim..(i + 1) * dim];
            let mut d2 = 0.0;
            for (a, b) in sv.iter().zip(x.iter()) {
                d2 += (a - b) * (a - b);
            }
            acc += c * (-self.gamma * d2).exp();
        }
        (acc - self.rho) - self.threshold
    }
}

/// One user's complete identification template.
#[derive(Debug, Clone, PartialEq)]
pub struct UserTemplate {
    /// The enrolled user id.
    pub user_id: u64,
    /// Quantized mean of the user's scaled enrolment features — the
    /// prefilter key, never used for gate scoring.
    pub centroid: Vec<f32>,
    /// The user's SVDD gates (one per enrolment group under the
    /// per-user gate mode).
    pub gates: Vec<GateTemplate>,
}

impl UserTemplate {
    /// The user's margin on a scaled probe: the maximum over their
    /// gates, `-∞` for a template with no gates. Gate order is
    /// preserved from training, so the fold is deterministic.
    pub fn margin(&self, dim: usize, x: &[f64]) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for g in &self.gates {
            best = best.max(g.margin(dim, x));
        }
        best
    }

    /// Validates internal shape consistency against `dim`.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTemplate`] naming the inconsistency.
    pub fn validate(&self, dim: usize) -> Result<(), StoreError> {
        if self.centroid.len() != dim {
            return Err(StoreError::InvalidTemplate(
                "centroid dimensionality mismatch",
            ));
        }
        for g in &self.gates {
            if g.support.len() != g.coefficients.len() * dim {
                return Err(StoreError::InvalidTemplate(
                    "gate support-vector block does not match its coefficients",
                ));
            }
        }
        Ok(())
    }
}

/// Builds templates with a frozen scaler: the store equivalent of
/// `Authenticator::enroll_with_groups`, factored per user so that
/// enrolling user N+1 trains only user N+1's gates.
#[derive(Debug, Clone)]
pub struct TemplateBuilder {
    scaler: StandardScaler,
    config: AuthConfig,
}

impl TemplateBuilder {
    /// A builder around an already-fitted scaler (frozen for the
    /// store's lifetime — every template must be scaled identically).
    pub fn new(scaler: StandardScaler, config: AuthConfig) -> Self {
        TemplateBuilder { scaler, config }
    }

    /// The frozen scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Trains one user's gates on their raw enrolment groups (one
    /// feature cloud per beep group, owned or shared as in
    /// `Authenticator::enroll_with_groups`) and packs them into a
    /// template.
    /// Training is `train_user_gates` — the exact path
    /// `Authenticator::enroll_with_groups` uses — so the resulting
    /// gates are bit-identical to an in-memory enrolment with the same
    /// scaler.
    ///
    /// # Errors
    ///
    /// [`EchoImageError::InvalidParameter`] for empty groups or samples
    /// that disagree with the scaler's dimensionality;
    /// [`EchoImageError::Store`] when a trained gate cannot be
    /// templated.
    pub fn build_user<G: Borrow<[Vec<f64>]>>(
        &self,
        user_id: u64,
        groups: &[G],
    ) -> Result<UserTemplate, EchoImageError> {
        let dim = self.scaler.dim();
        if groups.is_empty() || groups.iter().any(|g| g.borrow().is_empty()) {
            return Err(EchoImageError::InvalidParameter(
                "each enrolled user needs at least one non-empty feature group",
            ));
        }
        if groups
            .iter()
            .flat_map(|g| g.borrow())
            .any(|f| f.len() != dim)
        {
            return Err(EchoImageError::InvalidParameter(
                "enrolment features disagree with the scaler dimensionality",
            ));
        }
        let scaled: Vec<Vec<Vec<f64>>> = groups
            .iter()
            .map(|g| self.scaler.transform_batch(g.borrow()))
            .collect();
        // Centroid over all scaled samples (group order preserved),
        // accumulated in f64 and quantized once at the end.
        let mut sums = vec![0.0f64; dim];
        let mut count = 0usize;
        for f in scaled.iter().flatten() {
            for (s, &v) in sums.iter_mut().zip(f) {
                *s += v;
            }
            count += 1;
        }
        let centroid: Vec<f32> = sums.iter().map(|&s| (s / count as f64) as f32).collect();
        let mut gates = Vec::new();
        for (svm, threshold) in train_user_gates(&scaled, dim, &self.config) {
            gates.push(GateTemplate::from_svm(&svm, threshold)?);
        }
        Ok(UserTemplate {
            user_id,
            centroid,
            gates,
        })
    }
}

/// The in-memory [`TemplateStore`] backend: `Arc`-shared templates,
/// ids sorted for binary search, and a [`CoarseIndex`] over the
/// quantized centroids. This is both the serving-layer store for small
/// tenants and the reference the shard readers are tested against.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    means: Vec<f64>,
    stds: Vec<f64>,
    dim: usize,
    ids: Vec<u64>,
    users: Vec<Arc<UserTemplate>>,
    index: CoarseIndex,
}

impl MemoryStore {
    /// An empty store around a frozen scaler.
    pub fn new(scaler: &StandardScaler) -> Self {
        Self::from_templates(scaler, Vec::new()).expect("empty store is always valid")
    }

    /// Builds a store from templates (any order; sorted internally).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTemplate`] for shape mismatches or
    /// duplicate user ids.
    pub fn from_templates(
        scaler: &StandardScaler,
        mut templates: Vec<Arc<UserTemplate>>,
    ) -> Result<Self, StoreError> {
        let dim = scaler.dim();
        for t in &templates {
            t.validate(dim)?;
        }
        templates.sort_by_key(|t| t.user_id);
        if templates.windows(2).any(|w| w[0].user_id == w[1].user_id) {
            return Err(StoreError::InvalidTemplate("duplicate user id"));
        }
        let ids: Vec<u64> = templates.iter().map(|t| t.user_id).collect();
        let mut centroids = Vec::with_capacity(templates.len() * dim);
        for t in &templates {
            centroids.extend_from_slice(&t.centroid);
        }
        let index = CoarseIndex::build(&centroids, dim);
        Ok(MemoryStore {
            means: scaler.means().to_vec(),
            stds: scaler.stds().to_vec(),
            dim,
            ids,
            users: templates,
            index,
        })
    }

    /// A new store with `template` inserted (or replacing the user's
    /// previous template). Existing templates are shared by pointer —
    /// the cost is the id/centroid arrays and the coarse-index rebuild,
    /// never retraining or copying other users' models.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidTemplate`] when the template's shapes
    /// disagree with the store.
    pub fn upsert(&self, template: Arc<UserTemplate>) -> Result<MemoryStore, StoreError> {
        template.validate(self.dim)?;
        let mut users = self.users.clone();
        match users.binary_search_by_key(&template.user_id, |t| t.user_id) {
            Ok(i) => users[i] = template,
            Err(i) => users.insert(i, template),
        }
        let ids: Vec<u64> = users.iter().map(|t| t.user_id).collect();
        let mut centroids = Vec::with_capacity(users.len() * self.dim);
        for t in &users {
            centroids.extend_from_slice(&t.centroid);
        }
        let index = CoarseIndex::build(&centroids, self.dim);
        Ok(MemoryStore {
            means: self.means.clone(),
            stds: self.stds.clone(),
            dim: self.dim,
            ids,
            users,
            index,
        })
    }

    /// The templates, sorted by user id.
    pub fn templates(&self) -> &[Arc<UserTemplate>] {
        &self.users
    }

    /// The frozen scaler, reassembled.
    pub fn scaler(&self) -> StandardScaler {
        StandardScaler::from_parts(self.means.clone(), self.stds.clone())
    }
}

impl TemplateStore for MemoryStore {
    fn dim(&self) -> usize {
        self.dim
    }

    fn user_count(&self) -> usize {
        self.users.len()
    }

    fn scaler_means(&self) -> &[f64] {
        &self.means
    }

    fn scaler_stds(&self) -> &[f64] {
        &self.stds
    }

    fn candidates(&self, probe: &[f32], k: usize) -> Vec<Candidate> {
        self.index
            .candidates(probe, k)
            .into_iter()
            .map(|(m, d2)| Candidate {
                user_id: self.ids[m as usize],
                d2,
            })
            .collect()
    }

    fn gate_margin(&self, user_id: u64, x: &[f64]) -> Option<f64> {
        let i = self.ids.binary_search(&user_id).ok()?;
        Some(self.users[i].margin(self.dim, x))
    }

    fn user_ids(&self) -> Vec<u64> {
        self.ids.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_ml::OneClassSvm;

    fn cloud(cx: f64, cy: f64, n: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                let a = ((h & 0xFFFF) as f64 / 65536.0 - 0.5) * 0.4;
                let b = (((h >> 16) & 0xFFFF) as f64 / 65536.0 - 0.5) * 0.4;
                vec![cx + a, cy + b]
            })
            .collect()
    }

    fn builder_for(clouds: &[Vec<Vec<f64>>]) -> TemplateBuilder {
        let all: Vec<Vec<f64>> = clouds.iter().flatten().cloned().collect();
        TemplateBuilder::new(StandardScaler::fit_global(&all), AuthConfig::default())
    }

    #[test]
    fn template_margin_matches_svm_decision_bits() {
        let train = cloud(0.0, 0.0, 40, 7);
        let svm = OneClassSvm::train(&train, Kernel::Rbf { gamma: 0.8 }, 0.1);
        let t = GateTemplate::from_svm(&svm, -0.25).unwrap();
        for probe in [&[0.1, 0.0][..], &[1.5, -2.0], &[0.02, 0.11]] {
            let want = svm.decision(probe) - (-0.25);
            let got = t.margin(2, probe);
            assert_eq!(want.to_bits(), got.to_bits(), "probe {probe:?}");
        }
    }

    #[test]
    fn linear_kernel_is_not_storable() {
        let svm = OneClassSvm::train(&[vec![1.0, 0.0]], Kernel::Linear, 0.5);
        assert_eq!(
            GateTemplate::from_svm(&svm, 0.0).unwrap_err(),
            StoreError::InvalidTemplate("only RBF-kernel gates are storable")
        );
    }

    #[test]
    fn builder_trains_gates_identical_to_authenticator_path() {
        let g1 = cloud(0.0, 0.0, 30, 1);
        let g2 = cloud(0.2, 0.1, 30, 2);
        let b = builder_for(&[g1.clone(), g2.clone()]);
        let t = b.build_user(9, &[g1.clone(), g2.clone()]).unwrap();
        assert_eq!(t.user_id, 9);
        assert_eq!(t.gates.len(), 2);
        // The same groups through train_user_gates directly must yield
        // bit-identical gate parameters.
        let scaled: Vec<Vec<Vec<f64>>> = [&g1, &g2]
            .iter()
            .map(|g| b.scaler().transform_batch(g))
            .collect();
        let direct = train_user_gates(&scaled, 2, &AuthConfig::default());
        for (got, (svm, thr)) in t.gates.iter().zip(&direct) {
            let reference = GateTemplate::from_svm(svm, *thr).unwrap();
            assert_eq!(got, &reference);
        }
    }

    #[test]
    fn builder_rejects_bad_shapes() {
        let b = builder_for(&[cloud(0.0, 0.0, 10, 3)]);
        assert!(b.build_user::<Vec<Vec<f64>>>(1, &[]).is_err());
        assert!(b.build_user(1, &[vec![]]).is_err());
        assert!(b.build_user(1, &[vec![vec![1.0, 2.0, 3.0]]]).is_err());
    }

    #[test]
    fn memory_store_identifies_enrolled_users() {
        let clouds = [
            cloud(0.0, 0.0, 30, 11),
            cloud(3.0, 3.0, 30, 12),
            cloud(-3.0, 2.0, 30, 13),
        ];
        let b = builder_for(&clouds);
        let templates: Vec<Arc<UserTemplate>> = clouds
            .iter()
            .enumerate()
            .map(|(i, g)| Arc::new(b.build_user(i as u64 + 1, std::slice::from_ref(g)).unwrap()))
            .collect();
        let store = MemoryStore::from_templates(b.scaler(), templates).unwrap();
        assert_eq!(store.user_count(), 3);
        assert_eq!(store.user_ids(), vec![1, 2, 3]);
        for (i, g) in clouds.iter().enumerate() {
            let x = store.scaler().transform(&g[0]);
            let margin = store.gate_margin(i as u64 + 1, &x).unwrap();
            assert!(margin.is_finite());
            // The prefilter's nearest candidate is the owning user.
            let xq: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let cands = store.candidates(&xq, 1);
            assert_eq!(cands[0].user_id, i as u64 + 1);
        }
        assert!(store.gate_margin(99, &[0.0, 0.0]).is_none());
    }

    #[test]
    fn upsert_shares_templates_and_replaces_by_id() {
        let clouds = [cloud(0.0, 0.0, 25, 21), cloud(4.0, -1.0, 25, 22)];
        let b = builder_for(&clouds);
        let t1 = Arc::new(b.build_user(1, &[clouds[0].clone()]).unwrap());
        let t2 = Arc::new(b.build_user(2, &[clouds[1].clone()]).unwrap());
        let store = MemoryStore::from_templates(b.scaler(), vec![t1.clone()]).unwrap();
        let store2 = store.upsert(t2.clone()).unwrap();
        assert_eq!(store.user_count(), 1);
        assert_eq!(store2.user_count(), 2);
        // The original template is pointer-shared, not copied.
        assert!(Arc::ptr_eq(&store2.templates()[0], &t1));
        // Replacing user 1 keeps user 2's Arc.
        let t1b = Arc::new(b.build_user(1, &[clouds[1].clone()]).unwrap());
        let store3 = store2.upsert(t1b.clone()).unwrap();
        assert_eq!(store3.user_count(), 2);
        assert!(Arc::ptr_eq(&store3.templates()[0], &t1b));
        assert!(Arc::ptr_eq(&store3.templates()[1], &t2));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let clouds = [cloud(0.0, 0.0, 20, 31)];
        let b = builder_for(&clouds);
        let t = Arc::new(b.build_user(5, &[clouds[0].clone()]).unwrap());
        let err = MemoryStore::from_templates(b.scaler(), vec![t.clone(), t]).unwrap_err();
        assert_eq!(err, StoreError::InvalidTemplate("duplicate user id"));
    }
}
