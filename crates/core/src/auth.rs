//! The two-stage authentication model (paper §V-E, Fig. 10).
//!
//! Single-user: one SVDD-style one-class SVM trained on the legitimate
//! user's features decides accept/reject directly.
//!
//! Multi-user: a spoofer gate trained on the registered users' data
//! first rejects outsiders; samples that pass are then assigned to a
//! user by an n-class SVM.
//!
//! The gate comes in two flavours ([`GateMode`]): the paper's pooled
//! SVDD over all users' data, and the default per-user variant — one
//! SVDD per enrolled user with a per-user kernel width, accepting when
//! *any* user's domain accepts. The union of per-user domains describes
//! the same region the pooled SVDD approximates, but calibrates its
//! radius to each user's own variability, which matters when users
//! differ in how repeatable their echoes are.

use crate::error::EchoImageError;
use crate::health::ChannelHealth;
use crate::pipeline::{EchoImagePipeline, TrainRequest};
use echo_ml::{Kernel, OneClassSvm, StandardScaler, SvmMulticlass};
use echo_obs::{AuthAudit, AuthVerdict, RejectKind, TraceCtx};
use echo_sim::BeepCapture;
use std::time::Instant;

/// How the spoofer gate is trained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum GateMode {
    /// One SVDD per enrolled user; accept if any accepts (default).
    #[default]
    PerUser,
    /// A single SVDD over all users' enrolment data (the paper's
    /// description, kept for ablation).
    Pooled,
}

/// Classifier hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AuthConfig {
    /// One-class SVM ν (upper bound on the enrolment outlier fraction).
    pub nu: f64,
    /// Multi-class SVM regularisation parameter C.
    pub c: f64,
    /// RBF γ; `None` derives it from the intra-user distance scale.
    pub gamma: Option<f64>,
    /// Gate construction.
    pub gate: GateMode,
}

impl Default for AuthConfig {
    fn default() -> Self {
        AuthConfig {
            nu: 0.05,
            c: 10.0,
            gamma: None,
            gate: GateMode::PerUser,
        }
    }
}

/// The outcome of one authentication attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AuthDecision {
    /// The sample passed the spoofer gate and was attributed to a
    /// registered user.
    Accepted {
        /// The predicted registered user.
        user_id: usize,
    },
    /// The sample was rejected as a spoofer.
    Rejected,
}

impl AuthDecision {
    /// `true` when the decision accepted some user.
    pub fn is_accepted(&self) -> bool {
        matches!(self, AuthDecision::Accepted { .. })
    }

    /// The accepted user id, if any.
    pub fn user_id(&self) -> Option<usize> {
        match self {
            AuthDecision::Accepted { user_id } => Some(*user_id),
            AuthDecision::Rejected => None,
        }
    }
}

/// Context an authentication attempt carries into the audit log:
/// who the caller claims to be (experiment harnesses know ground
/// truth; a real device may not) and which retry this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuthAttempt {
    /// The claimed subject, recorded verbatim in the audit.
    pub claimed_user: Option<u64>,
    /// Retry index of this attempt (0 = first try).
    pub retry_index: u64,
}

/// A trained EchoImage authenticator.
///
/// # Example
///
/// ```
/// use echoimage_core::auth::{AuthConfig, Authenticator};
///
/// // Two registered users with separable (toy) features.
/// let u1: Vec<Vec<f64>> = (0..30).map(|i| vec![0.0 + (i % 5) as f64 * 0.02, 0.0]).collect();
/// let u2: Vec<Vec<f64>> = (0..30).map(|i| vec![1.0 + (i % 5) as f64 * 0.02, 1.0]).collect();
/// let auth = Authenticator::enroll(&[(1, u1), (2, u2)], &AuthConfig::default()).unwrap();
///
/// assert_eq!(auth.authenticate(&[0.02, 0.0]).user_id(), Some(1));
/// assert_eq!(auth.authenticate(&[1.02, 1.0]).user_id(), Some(2));
/// // A far-away spoofer is gated out.
/// assert!(!auth.authenticate(&[10.0, -7.0]).is_accepted());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Authenticator {
    scaler: StandardScaler,
    /// Spoofer gates as `(svm, threshold, owner)`. A gate's threshold
    /// is 0 for single-mode users; for multi-mode enrolments it is
    /// self-calibrated to the upper-quartile score the user's *sibling*
    /// modes achieve under that gate (a probe is accepted by a mode if
    /// it looks at least as much like it as the neighbouring modes do).
    gates: Vec<(OneClassSvm, f64, usize)>,
    classifier: Option<SvmMulticlass>,
    single_user: Option<usize>,
}

impl Authenticator {
    /// Enrols registered users from `(user_id, feature_vectors)` pairs.
    ///
    /// With one user only the SVDD gate is trained (the paper's
    /// single-user scenario); with several users the n-class SVM is
    /// trained as well.
    ///
    /// # Errors
    ///
    /// Returns [`EchoImageError::InvalidParameter`] when no users or no
    /// samples are provided, or ids repeat.
    pub fn enroll(
        users: &[(usize, Vec<Vec<f64>>)],
        config: &AuthConfig,
    ) -> Result<Self, EchoImageError> {
        let grouped: Vec<(usize, Vec<Vec<Vec<f64>>>)> = users
            .iter()
            .map(|(id, xs)| (*id, vec![xs.clone()]))
            .collect();
        Self::enroll_with_groups(&grouped, config)
    }

    /// Enrols users whose enrolment clouds are *multi-modal*: each user
    /// provides one or more groups of feature vectors (e.g. one group
    /// per synthesised distance from the §V-F augmentation). The spoofer
    /// gate wraps every group in its own domain description with a
    /// kernel width matched to that group's spread — a single radius
    /// cannot wrap a multi-modal cloud tightly.
    ///
    /// # Errors
    ///
    /// Returns [`EchoImageError::InvalidParameter`] when no users, empty
    /// users/groups, or duplicate ids are provided.
    pub fn enroll_with_groups(
        users: &[(usize, Vec<Vec<Vec<f64>>>)],
        config: &AuthConfig,
    ) -> Result<Self, EchoImageError> {
        if users.is_empty() {
            return Err(EchoImageError::InvalidParameter("no users to enrol"));
        }
        if users
            .iter()
            .any(|(_, gs)| gs.is_empty() || gs.iter().any(|g| g.is_empty()))
        {
            return Err(EchoImageError::InvalidParameter(
                "every user needs at least one non-empty enrolment group",
            ));
        }
        let mut ids: Vec<usize> = users.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != users.len() {
            return Err(EchoImageError::InvalidParameter("duplicate user ids"));
        }
        // Guard the feature geometry up front: a ragged or zero-dim
        // enrolment would otherwise panic deep inside the scaler/kernel.
        let dim = users[0].1[0][0].len();
        if dim == 0 {
            return Err(EchoImageError::InvalidParameter(
                "feature vectors are zero-dimensional",
            ));
        }
        if users
            .iter()
            .any(|(_, gs)| gs.iter().any(|g| g.iter().any(|x| x.len() != dim)))
        {
            return Err(EchoImageError::InvalidParameter(
                "feature vectors disagree in dimensionality",
            ));
        }

        let mut all: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for (id, gs) in users {
            for g in gs {
                for x in g {
                    all.push(x.clone());
                    labels.push(*id);
                }
            }
        }
        // Centre per feature, scale globally: per-feature scaling would
        // inflate noise-only dimensions to the same variance as the
        // discriminative ones and flatten the kernel's distance contrast.
        let scaler = StandardScaler::fit_global(&all);
        let scaled = scaler.transform_batch(&all);
        // Scaled per-user flat clouds (for pooled mode / SVM kernel) and
        // scaled per-(user, group) clouds (for per-group gates).
        let user_clouds: Vec<Vec<Vec<f64>>> = users
            .iter()
            .map(|(_, gs)| {
                let flat: Vec<Vec<f64>> = gs.iter().flatten().cloned().collect();
                scaler.transform_batch(&flat)
            })
            .collect();
        let group_clouds: Vec<Vec<Vec<f64>>> = users
            .iter()
            .flat_map(|(_, gs)| gs.iter().map(|g| scaler.transform_batch(g)))
            .collect();

        let gates = match config.gate {
            GateMode::PerUser => {
                let mut gates = Vec::new();
                let mut offset = 0usize;
                for (uid, gs) in users {
                    let user_groups = &group_clouds[offset..offset + gs.len()];
                    for (svm, threshold) in train_user_gates(user_groups, scaler.dim(), config) {
                        gates.push((svm, threshold, *uid));
                    }
                    offset += gs.len();
                }
                gates
            }
            GateMode::Pooled => {
                let kernel = match config.gamma {
                    Some(g) => Kernel::Rbf { gamma: g },
                    None => intra_rbf(&group_clouds, scaler.dim()),
                };
                // The pooled gate is user-agnostic; owner is unused.
                vec![(
                    OneClassSvm::train(&scaled, kernel, config.nu),
                    0.0,
                    usize::MAX,
                )]
            }
        };

        let (classifier, single_user) = if users.len() == 1 {
            (None, Some(users[0].0))
        } else {
            let kernel = match config.gamma {
                Some(g) => Kernel::Rbf { gamma: g },
                None => intra_rbf(&user_clouds, scaler.dim()),
            };
            (
                Some(SvmMulticlass::train(&scaled, &labels, kernel, config.c)),
                None,
            )
        };
        Ok(Authenticator {
            scaler,
            gates,
            classifier,
            single_user,
        })
    }

    /// Authenticates one feature vector (Fig. 10's cascade).
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality;
    /// [`Authenticator::authenticate_features_traced`] returns an error
    /// instead.
    pub fn authenticate(&self, features: &[f64]) -> AuthDecision {
        self.authenticate_scored(features).0
    }

    /// [`Authenticator::authenticate`] also returning the best gate
    /// margin (`decision_value − threshold`, maximised over gates) —
    /// the score the audit log records. Computes each gate decision
    /// exactly once, so the returned decision is bit-identical to
    /// [`Authenticator::authenticate`]'s.
    fn authenticate_scored(&self, features: &[f64]) -> (AuthDecision, f64) {
        let x = self.scaler.transform(features);
        let mut best_margin = f64::NEG_INFINITY;
        let mut fired: Vec<usize> = Vec::new();
        for (g, threshold, owner) in &self.gates {
            // IEEE subtraction yields 0 iff the operands are equal, so
            // `margin >= 0` decides exactly like `decision >= threshold`.
            let margin = g.decision(&x) - *threshold;
            best_margin = best_margin.max(margin);
            if margin >= 0.0 {
                fired.push(*owner);
            }
        }
        if fired.is_empty() {
            return (AuthDecision::Rejected, best_margin);
        }
        let decision = match (&self.classifier, self.single_user) {
            (Some(svm), _) => {
                let user_id = svm.predict(&x);
                // Consistency check: the n-class SVM's attribution must
                // agree with (one of) the fired domain(s). A sample that
                // looks like user A's domain but classifies as user B is
                // contradictory — reject it as a spoofer. (The pooled
                // gate is user-agnostic and always agrees.)
                if fired.contains(&user_id) || fired.contains(&usize::MAX) {
                    AuthDecision::Accepted { user_id }
                } else {
                    AuthDecision::Rejected
                }
            }
            (None, Some(id)) => AuthDecision::Accepted { user_id: id },
            (None, None) => unreachable!("enroll guarantees one of the two"),
        };
        (decision, best_margin)
    }

    /// The best (maximum) spoofer-gate decision value across gates
    /// (≥ 0 passes), for threshold diagnostics.
    pub fn gate_decision(&self, features: &[f64]) -> f64 {
        let x = self.scaler.transform(features);
        self.gates
            .iter()
            .map(|(g, threshold, _)| g.decision(&x) - threshold)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Authenticates a whole raw beep train through the degraded-capable
    /// pipeline: the train is health-screened, imaged from the surviving
    /// microphones, each beep's features are authenticated, and the
    /// per-beep decisions are majority-voted (a strict majority of beeps
    /// must accept the *same* user). Mints an `auth.train` trace root and
    /// records one [`AuthAudit`] carrying `attempt`.
    ///
    /// # Errors
    ///
    /// * [`EchoImageError::DegradedCapture`] — too few healthy
    ///   microphones survived screening; retry with a fresh train (see
    ///   [`Authenticator::authenticate_train_with_retry`]).
    /// * Everything [`EchoImagePipeline::images`] can return, and
    ///   [`EchoImageError::InvalidParameter`] when the features disagree
    ///   with the enrolled dimensionality.
    ///
    /// Every error still records an audit with a non-empty reject
    /// reason.
    pub fn authenticate_train(
        &self,
        pipeline: &EchoImagePipeline,
        captures: &[BeepCapture],
        attempt: AuthAttempt,
    ) -> Result<AuthDecision, EchoImageError> {
        let root = echo_obs::root_span("auth.train");
        self.authenticate_train_at(root.ctx(), pipeline, captures, attempt)
    }

    /// [`Authenticator::authenticate_train`] with the claimed subject
    /// recorded in the audit log — the variant experiment harnesses use,
    /// since they know ground truth.
    ///
    /// # Errors
    ///
    /// See [`Authenticator::authenticate_train`].
    pub fn authenticate_train_claimed(
        &self,
        pipeline: &EchoImagePipeline,
        captures: &[BeepCapture],
        claimed_user: u64,
    ) -> Result<AuthDecision, EchoImageError> {
        self.authenticate_train(
            pipeline,
            captures,
            AuthAttempt {
                claimed_user: Some(claimed_user),
                retry_index: 0,
            },
        )
    }

    /// The train-authentication body under `ctx`: pipeline, per-beep
    /// scoring, majority vote, audit record. Records a `stage.auth` span
    /// (child `lidx` = the retry index). Latency lands in the
    /// `stage.auth` histogram, and additionally in `stage.auth_degraded`
    /// when the train went through the degraded route (channels excised
    /// *or* the capture rejected as degraded), so degraded-path latency
    /// has the same coverage as the happy path.
    fn authenticate_train_at(
        &self,
        ctx: TraceCtx,
        pipeline: &EchoImagePipeline,
        captures: &[BeepCapture],
        attempt: AuthAttempt,
    ) -> Result<AuthDecision, EchoImageError> {
        let mut tspan = ctx.child_at("stage.auth", attempt.retry_index);
        let ctx = tspan.ctx();
        let started = echo_obs::is_enabled().then(Instant::now);
        echo_obs::counter!("auth.train_attempts").inc();
        let channels = captures.first().map_or(0, |c| c.num_channels()) as u64;
        let audit = |mask: u64, coherence: Option<f64>| {
            attempt_audit(ctx, &attempt, captures.len(), channels, mask, coherence)
        };
        let (outcome, degraded) = 'decide: {
            // Image first and extract features after the anti-replay
            // screen, so the screen can read the acoustic images
            // themselves.
            let request = TrainRequest {
                screen: true,
                parent: Some(ctx),
                ..TrainRequest::new(captures)
            };
            let train = match pipeline.images(&request) {
                Ok(train) => train,
                Err(e) => {
                    let (mask, was_degraded) = match &e {
                        EchoImageError::DegradedCapture { mask, .. } => (*mask, true),
                        _ => (0, false),
                    };
                    echo_obs::record_audit(AuthAudit {
                        reject_reason: format!("capture rejected before classification: {e}"),
                        ..audit(mask, None)
                    });
                    break 'decide (Err(e), was_degraded);
                }
            };
            let mask = train.health.as_ref().map_or(0, ChannelHealth::excised_mask);
            let degraded = mask != 0;
            // Anti-replay screen on the imaging path, before feature
            // extraction: a point-source re-emission collapses the
            // array's angular structure and flattens the image — a
            // security event, not a degraded capture.
            let spatial_cfg = &pipeline.config().spatial;
            let coherence = if spatial_cfg.enabled {
                let t0 = echo_obs::is_enabled().then(Instant::now);
                let c = crate::spatial::train_spread(spatial_cfg, &train.images);
                if let Some(t0) = t0 {
                    echo_obs::histogram!("stage.spatial")
                        .observe_ns(t0.elapsed().as_nanos() as u64);
                }
                c
            } else {
                None
            };
            if let Some(c) = coherence {
                if c > spatial_cfg.max_coherence {
                    echo_obs::counter!("auth.replay_rejected").inc();
                    echo_obs::record_audit(AuthAudit {
                        reject_kind: RejectKind::ReplaySignature,
                        reject_reason: format!(
                            "replay signature: image spread {c:.4} above live ceiling {:.4} \
                             (point-source playback flattens the acoustic image)",
                            spatial_cfg.max_coherence
                        ),
                        ..audit(mask, Some(c))
                    });
                    break 'decide (Ok(AuthDecision::Rejected), degraded);
                }
            }
            let features = pipeline.features_batch_traced(ctx, &train.images);
            (
                self.vote_and_audit(&features, audit(mask, coherence)),
                degraded,
            )
        };
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos() as u64;
            echo_obs::histogram!("stage.auth").observe_ns(ns);
            if degraded {
                echo_obs::histogram!("stage.auth_degraded").observe_ns(ns);
            }
        }
        tspan.attr_bool("accepted", matches!(&outcome, Ok(d) if d.is_accepted()));
        tspan.attr_bool("degraded", degraded);
        outcome
    }

    /// Authenticates a train whose per-beep **features are already
    /// extracted** — the serving layer's entry point. The daemon
    /// coalesces many concurrent requests into one
    /// `extract_batch_threaded` call and then decides each request here,
    /// so the decision path (per-beep scoring, strict-majority vote,
    /// audit record) is shared with [`Authenticator::authenticate_train`]
    /// and bit-identical to it for the same features.
    ///
    /// The audit records `channels = 0` and `degraded_mask = 0`: health
    /// screening happened (if at all) wherever the features were
    /// extracted, which this entry point cannot see.
    ///
    /// # Errors
    ///
    /// * [`EchoImageError::NoCaptures`] when `features` is empty.
    /// * [`EchoImageError::InvalidParameter`] when any feature vector
    ///   disagrees with the enrolled dimensionality.
    ///
    /// Every error still records an audit with a non-empty reject
    /// reason.
    pub fn authenticate_features_traced(
        &self,
        ctx: TraceCtx,
        features: &[Vec<f64>],
        attempt: AuthAttempt,
    ) -> Result<AuthDecision, EchoImageError> {
        let mut tspan = ctx.child_at("stage.auth", attempt.retry_index);
        let started = echo_obs::is_enabled().then(Instant::now);
        echo_obs::counter!("auth.train_attempts").inc();
        let audit = attempt_audit(tspan.ctx(), &attempt, features.len(), 0, 0, None);
        let outcome = if features.is_empty() {
            let e = EchoImageError::NoCaptures;
            echo_obs::record_audit(AuthAudit {
                reject_reason: format!("capture rejected before classification: {e}"),
                ..audit
            });
            Err(e)
        } else {
            self.vote_and_audit(features, audit)
        };
        if let Some(t0) = started {
            echo_obs::histogram!("stage.auth").observe_ns(t0.elapsed().as_nanos() as u64);
        }
        tspan.attr_bool("accepted", matches!(&outcome, Ok(d) if d.is_accepted()));
        outcome
    }

    /// The shared decision tail: score each beep's features, take the
    /// strict-majority vote, bump the accept/reject counters, and record
    /// exactly one [`AuthAudit`], filled in from the attempt's `audit`.
    /// Both the raw-train path and the feature-level serving path funnel
    /// through here, so their decisions and audits cannot drift apart.
    fn vote_and_audit(
        &self,
        features: &[Vec<f64>],
        audit: AuthAudit,
    ) -> Result<AuthDecision, EchoImageError> {
        let mut counts: Vec<(usize, usize)> = Vec::new();
        let mut best_margin = f64::NEG_INFINITY;
        for f in features {
            if f.len() != self.scaler.dim() {
                let e = EchoImageError::InvalidParameter(
                    "feature vector does not match the enrolled dimensionality",
                );
                echo_obs::record_audit(AuthAudit {
                    reject_reason: format!("pipeline error: {e}"),
                    ..audit
                });
                return Err(e);
            }
            let (decision, margin) = self.authenticate_scored(f);
            best_margin = best_margin.max(margin);
            if let AuthDecision::Accepted { user_id } = decision {
                match counts.iter_mut().find(|(id, _)| *id == user_id) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((user_id, 1)),
                }
            }
        }
        let decision = counts
            .iter()
            .max_by_key(|(_, n)| *n)
            .filter(|(_, n)| 2 * n > features.len())
            .map(|(id, _)| AuthDecision::Accepted { user_id: *id })
            .unwrap_or(AuthDecision::Rejected);
        if decision.is_accepted() {
            echo_obs::counter!("auth.accepted").inc();
        } else {
            echo_obs::counter!("auth.rejected").inc();
        }
        let mut votes: Vec<(u64, u64)> = counts
            .iter()
            .map(|&(id, n)| (id as u64, n as u64))
            .collect();
        votes.sort_by_key(|&(id, _)| id);
        let (verdict, kind, reason) = match decision {
            AuthDecision::Accepted { user_id } => (
                AuthVerdict::Accepted {
                    user_id: user_id as u64,
                },
                RejectKind::None,
                String::new(),
            ),
            AuthDecision::Rejected => {
                let (kind, reason) = match counts.iter().max_by_key(|(_, n)| *n) {
                    None => (
                        RejectKind::SpooferGate,
                        "spoofer gate rejected every beep".to_string(),
                    ),
                    Some((id, n)) => (
                        RejectKind::NoMajority,
                        format!(
                            "no strict majority: best candidate user {id} with {n}/{} accepting beeps",
                            features.len()
                        ),
                    ),
                };
                (AuthVerdict::Rejected, kind, reason)
            }
        };
        echo_obs::record_audit(AuthAudit {
            votes,
            votes_needed: features.len() as u64 / 2 + 1,
            best_gate_margin: (!features.is_empty()).then_some(best_margin),
            verdict,
            reject_kind: kind,
            reject_reason: reason,
            ..audit
        });
        Ok(decision)
    }

    /// [`Authenticator::authenticate_train`] with retry-on-degraded
    /// semantics: `provider(attempt)` supplies a fresh raw train for
    /// each attempt (attempt numbers start at 0), and only
    /// [`EchoImageError::DegradedCapture`] triggers a retry — any other
    /// error, and any decision, returns immediately. A smart speaker
    /// would re-beep here; the eval harness re-captures.
    ///
    /// # Errors
    ///
    /// The last [`EchoImageError::DegradedCapture`] once
    /// [`RetryPolicy::max_attempts`] trains have all been rejected as
    /// degraded, or the first non-degraded error.
    pub fn authenticate_train_with_retry<F>(
        &self,
        pipeline: &EchoImagePipeline,
        policy: &RetryPolicy,
        mut provider: F,
    ) -> Result<AuthDecision, EchoImageError>
    where
        F: FnMut(usize) -> Vec<BeepCapture>,
    {
        let root = echo_obs::root_span("auth.attempt");
        let ctx = root.ctx();
        let attempts = policy.max_attempts.max(1);
        let mut last = EchoImageError::DegradedCapture {
            healthy: 0,
            required: 0,
            mask: 0,
        };
        for attempt in 0..attempts {
            let _retry_span = (attempt > 0).then(|| {
                echo_obs::counter!("auth.retries").inc();
                echo_obs::span!("stage.auth_retry")
            });
            let captures = provider(attempt);
            let outcome = self.authenticate_train_at(
                ctx,
                pipeline,
                &captures,
                AuthAttempt {
                    claimed_user: None,
                    retry_index: attempt as u64,
                },
            );
            match outcome {
                Err(e @ EchoImageError::DegradedCapture { .. }) => last = e,
                other => return other,
            }
        }
        Err(last)
    }

    /// The fitted feature scaler, for exporting the model into the
    /// template store (which freezes it across incremental enrolments).
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// The trained spoofer gates as `(svm, threshold, owner)` triples —
    /// the raw material [`crate::store`] serializes into per-user
    /// templates. Owner is `usize::MAX` for the user-agnostic pooled
    /// gate.
    pub fn gates(&self) -> &[(OneClassSvm, f64, usize)] {
        &self.gates
    }

    /// Registered user ids.
    pub fn user_ids(&self) -> Vec<usize> {
        match (&self.classifier, self.single_user) {
            (Some(svm), _) => svm.classes().to_vec(),
            (None, Some(id)) => vec![id],
            (None, None) => unreachable!("enroll guarantees one of the two"),
        }
    }
}

/// The audit of one attempt over `beeps` beeps before any beep is
/// scored: a capture-screen rejection with an empty reason. Every
/// outcome fills in its verdict fields over this one base, so the
/// identity fields of the train and feature-level routes cannot drift.
fn attempt_audit(
    ctx: TraceCtx,
    attempt: &AuthAttempt,
    beeps: usize,
    channels: u64,
    mask: u64,
    spatial_coherence: Option<f64>,
) -> AuthAudit {
    AuthAudit {
        trace: ctx.trace_id(),
        tenant: None,
        seq: 0,
        claimed_user: attempt.claimed_user,
        beeps: beeps as u64,
        votes: Vec::new(),
        votes_needed: beeps as u64 / 2 + 1,
        best_gate_margin: None,
        channels,
        degraded_mask: mask,
        retry_index: attempt.retry_index,
        verdict: AuthVerdict::Rejected,
        reject_kind: RejectKind::CaptureScreen,
        reject_reason: String::new(),
        spatial_coherence,
    }
}

/// How many beep trains an authentication attempt may consume before a
/// degraded capture becomes a hard rejection.
///
/// Only [`EchoImageError::DegradedCapture`] is retried — a capture with
/// too few healthy microphones is a transient hardware/occlusion
/// condition worth one more beep, whereas every other error is
/// deterministic and would fail identically on retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RetryPolicy {
    /// Total trains attempted, including the first (minimum 1).
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 2 }
    }
}

/// Trains one user's per-group SVDD gates from already-scaled enrolment
/// groups, returning `(svm, threshold)` pairs in group order.
///
/// This is the per-user slice of [`Authenticator::enroll_with_groups`]'s
/// gate construction, factored out so the template store can train (or
/// retrain) a *single* user against a frozen scaler without touching
/// anyone else's model. The per-(user, group) kernel width works as
/// follows: a group that is the user's only mode is sized by its
/// internal spread; when a user has several modes (e.g. §V-F
/// synthesised distance clouds), each mode's radius additionally covers
/// the spacing to the nearest sibling mode — the modes are samples
/// along a continuum (distance), and authentication-time features fall
/// *between* them, not on them. Thresholds are self-calibrated to the
/// upper-quartile score the user's sibling modes achieve under each
/// gate (0 for single-mode users).
///
/// # Panics
///
/// Panics if any group is empty (the enrolment entry points validate
/// this before scaling).
pub fn train_user_gates(
    user_groups: &[Vec<Vec<f64>>],
    dim: usize,
    config: &AuthConfig,
) -> Vec<(OneClassSvm, f64)> {
    let group_gamma = |idx: usize| -> Kernel {
        if let Some(g) = config.gamma {
            return Kernel::Rbf { gamma: g };
        }
        let cloud = &user_groups[idx];
        let base = intra_rbf(std::slice::from_ref(cloud), dim);
        let Kernel::Rbf { gamma: g_intra } = base else {
            return base;
        };
        if user_groups.len() < 2 {
            return Kernel::Rbf { gamma: g_intra };
        }
        let mean = |c: &Vec<Vec<f64>>| -> Vec<f64> {
            let d = c[0].len();
            let mut m = vec![0.0; d];
            for x in c {
                for (mi, xi) in m.iter_mut().zip(x) {
                    *mi += xi;
                }
            }
            m.iter_mut().for_each(|v| *v /= c.len() as f64);
            m
        };
        let own = mean(cloud);
        let spacing2 = user_groups
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != idx)
            .map(|(_, other)| {
                let om = mean(other);
                own.iter()
                    .zip(&om)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        // Radius covers the full gap to the nearest sibling mode:
        // empirically the residual between a synthesised mode and
        // the real capture it stands in for is of the same order as
        // the displacement between neighbouring modes.
        let g_spacing = 1.0 / (GAMMA_WIDENING * spacing2.max(1e-12));
        Kernel::Rbf {
            gamma: g_intra.min(g_spacing),
        }
    };

    user_groups
        .iter()
        .enumerate()
        .map(|(idx, cloud)| {
            let svm = OneClassSvm::train(cloud, group_gamma(idx), config.nu);
            // Self-calibrate against sibling modes.
            let mut sibling_scores: Vec<f64> = user_groups
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != idx)
                .flat_map(|(_, other)| other.iter().map(|x| svm.decision(x)))
                .collect();
            let threshold = if sibling_scores.is_empty() {
                0.0
            } else {
                sibling_scores.sort_by(f64::total_cmp);
                sibling_scores[(sibling_scores.len() * 3) / 4].min(0.0)
            };
            (svm, threshold)
        })
        .collect()
}

/// Kernel-width safety margin: authentication-time samples sit a little
/// farther from the enrolment cloud than enrolment samples sit from each
/// other (fresh noise, fresh distance estimate, session drift), so the
/// acceptance region is widened by this factor over the raw intra-user
/// median distance.
const GAMMA_WIDENING: f64 = 2.0;

/// RBF kernel with `γ = 1/(GAMMA_WIDENING·median(‖xᵢ−xⱼ‖²))` over
/// within-group sample pairs, falling back to the 1/dim heuristic when
/// no group has two samples.
fn intra_rbf(groups: &[Vec<Vec<f64>>], dim: usize) -> Kernel {
    let mut d2: Vec<f64> = Vec::new();
    for cloud in groups {
        let n = cloud.len();
        // Subsample pairs per group to bound the cost.
        let stride = ((n * (n - 1) / 2) / 500).max(1);
        let mut count = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                if count.is_multiple_of(stride) {
                    d2.push(
                        cloud[i]
                            .iter()
                            .zip(&cloud[j])
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum(),
                    );
                }
                count += 1;
            }
        }
    }
    if d2.is_empty() {
        return Kernel::rbf_for_dim(dim);
    }
    d2.sort_by(f64::total_cmp);
    let median = d2[d2.len() / 2];
    Kernel::Rbf {
        gamma: if median > 1e-12 {
            1.0 / (GAMMA_WIDENING * median)
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(cx: f64, cy: f64, n: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                let a = ((h & 0xFFFF) as f64 / 65536.0 - 0.5) * 0.4;
                let b = (((h >> 16) & 0xFFFF) as f64 / 65536.0 - 0.5) * 0.4;
                vec![cx + a, cy + b]
            })
            .collect()
    }

    #[test]
    fn multi_user_flow_accepts_and_attributes() {
        let auth = Authenticator::enroll(
            &[
                (1, cluster(0.0, 0.0, 40, 1)),
                (2, cluster(3.0, 0.0, 40, 2)),
                (3, cluster(0.0, 3.0, 40, 3)),
            ],
            &AuthConfig::default(),
        )
        .unwrap();
        assert_eq!(auth.user_ids(), vec![1, 2, 3]);
        assert_eq!(auth.authenticate(&[0.05, -0.05]).user_id(), Some(1));
        assert_eq!(auth.authenticate(&[3.02, 0.1]).user_id(), Some(2));
        assert_eq!(auth.authenticate(&[0.0, 2.95]).user_id(), Some(3));
    }

    #[test]
    fn spoofers_are_gated_before_classification() {
        for gate in [GateMode::PerUser, GateMode::Pooled] {
            let auth = Authenticator::enroll(
                &[(1, cluster(0.0, 0.0, 40, 4)), (2, cluster(3.0, 0.0, 40, 5))],
                &AuthConfig {
                    gate,
                    ..AuthConfig::default()
                },
            )
            .unwrap();
            // A point far from every enrolled cluster must be rejected,
            // even though the n-class SVM would happily label it.
            assert_eq!(auth.authenticate(&[20.0, 20.0]), AuthDecision::Rejected);
            assert_eq!(auth.authenticate(&[-15.0, 2.0]), AuthDecision::Rejected);
        }
    }

    #[test]
    fn midpoint_between_users_is_rejected_by_per_user_gate() {
        let auth = Authenticator::enroll(
            &[(1, cluster(0.0, 0.0, 40, 6)), (2, cluster(4.0, 0.0, 40, 7))],
            &AuthConfig::default(),
        )
        .unwrap();
        assert_eq!(auth.authenticate(&[2.0, 0.0]), AuthDecision::Rejected);
    }

    #[test]
    fn single_user_scenario_uses_gate_only() {
        let auth = Authenticator::enroll(&[(7, cluster(1.0, 1.0, 50, 6))], &AuthConfig::default())
            .unwrap();
        assert_eq!(auth.user_ids(), vec![7]);
        assert_eq!(auth.authenticate(&[1.0, 1.05]).user_id(), Some(7));
        assert!(!auth.authenticate(&[8.0, -3.0]).is_accepted());
    }

    #[test]
    fn gate_decision_is_monotone_in_distance() {
        let auth = Authenticator::enroll(&[(1, cluster(0.0, 0.0, 50, 7))], &AuthConfig::default())
            .unwrap();
        // Stay within a few standard deviations: the RBF kernel saturates
        // to a constant −ρ far from the data.
        let near = auth.gate_decision(&[0.0, 0.1]);
        let mid = auth.gate_decision(&[0.4, 0.0]);
        let far = auth.gate_decision(&[0.9, 0.0]);
        assert!(near > mid, "{near} vs {mid}");
        assert!(mid > far, "{mid} vs {far}");
    }

    #[test]
    fn decision_accessors() {
        let acc = AuthDecision::Accepted { user_id: 4 };
        assert!(acc.is_accepted());
        assert_eq!(acc.user_id(), Some(4));
        assert!(!AuthDecision::Rejected.is_accepted());
        assert_eq!(AuthDecision::Rejected.user_id(), None);
    }

    #[test]
    fn explicit_gamma_is_respected() {
        let cfg = AuthConfig {
            gamma: Some(0.5),
            ..AuthConfig::default()
        };
        let train = cluster(0.0, 0.0, 20, 9);
        let auth = Authenticator::enroll(&[(1, train.clone())], &cfg).unwrap();
        // ν bounds training rejections: the bulk of the training points
        // must be accepted by the gate they defined.
        let accepted = train
            .iter()
            .filter(|x| auth.authenticate(x).is_accepted())
            .count();
        assert!(
            accepted * 2 > train.len(),
            "{accepted}/{} accepted",
            train.len()
        );
    }

    #[test]
    fn enrol_rejects_bad_input() {
        assert!(Authenticator::enroll(&[], &AuthConfig::default()).is_err());
        assert!(Authenticator::enroll(&[(1, vec![])], &AuthConfig::default()).is_err());
        assert!(Authenticator::enroll(
            &[(1, cluster(0.0, 0.0, 5, 8)), (1, cluster(1.0, 1.0, 5, 9))],
            &AuthConfig::default()
        )
        .is_err());
    }

    #[test]
    fn enrol_rejects_degenerate_feature_geometry() {
        // Zero-dimensional features.
        let zero_dim = vec![(1usize, vec![Vec::<f64>::new(); 5])];
        let err = Authenticator::enroll(&zero_dim, &AuthConfig::default()).unwrap_err();
        assert!(matches!(err, EchoImageError::InvalidParameter(_)));
        // Ragged dimensionality across users.
        let ragged = vec![
            (1usize, vec![vec![0.0, 0.0]; 5]),
            (2usize, vec![vec![1.0, 1.0, 1.0]; 5]),
        ];
        let err = Authenticator::enroll(&ragged, &AuthConfig::default()).unwrap_err();
        assert!(matches!(err, EchoImageError::InvalidParameter(_)));
    }

    #[test]
    fn retry_policy_defaults_to_one_retry() {
        assert_eq!(RetryPolicy::default().max_attempts, 2);
    }

    #[test]
    fn feature_level_auth_majority_votes_like_the_train_path() {
        let auth = Authenticator::enroll(
            &[(1, cluster(0.0, 0.0, 40, 1)), (2, cluster(3.0, 0.0, 40, 2))],
            &AuthConfig::default(),
        )
        .unwrap();
        let root = echo_obs::root_span("test");
        // Three beeps of user 1, none of anyone else: strict majority.
        let feats = vec![vec![0.05, 0.0], vec![-0.05, 0.05], vec![0.0, -0.05]];
        let d = auth
            .authenticate_features_traced(root.ctx(), &feats, AuthAttempt::default())
            .unwrap();
        assert_eq!(d.user_id(), Some(1));
        // One beep each of users 1 and 2 plus a spoofer: no majority.
        let split = vec![vec![0.0, 0.0], vec![3.0, 0.0], vec![20.0, 20.0]];
        let d = auth
            .authenticate_features_traced(root.ctx(), &split, AuthAttempt::default())
            .unwrap();
        assert_eq!(d, AuthDecision::Rejected);
    }

    #[test]
    fn feature_level_auth_rejects_empty_and_misshapen_input() {
        let auth = Authenticator::enroll(&[(1, cluster(0.0, 0.0, 20, 3))], &AuthConfig::default())
            .unwrap();
        let root = echo_obs::root_span("test");
        let err = auth
            .authenticate_features_traced(root.ctx(), &[], AuthAttempt::default())
            .unwrap_err();
        assert!(matches!(err, EchoImageError::NoCaptures));
        let bad = vec![vec![0.0, 0.0, 0.0]];
        let err = auth
            .authenticate_features_traced(root.ctx(), &bad, AuthAttempt::default())
            .unwrap_err();
        assert!(matches!(err, EchoImageError::InvalidParameter(_)));
    }
}
