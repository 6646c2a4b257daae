//! Per-tenant state: the live authenticator, the enrolment corpus it
//! was trained from, and the admission counter that backs load
//! shedding.
//!
//! The daemon serves many tenants (think: households) from one process.
//! Each tenant owns an independent [`Authenticator`] plus the raw
//! feature groups it was trained from, so an enrol request retrains
//! only its own tenant. Authentication takes an `Arc` snapshot of the
//! tenant's authenticator: a retrain builds the new model off to the
//! side and swaps the `Arc`, so a decision in flight keeps scoring
//! against exactly the model that was live when the decision started —
//! never a half-updated one.
//!
//! An enrolment holds the registry lock only to copy and to publish.
//! It copies the tenant's corpus, frozen scaler and generation number
//! under the lock, trains the authenticator, the user's template and
//! the drift reference without it, and publishes under the lock only
//! if no other enrolment of the tenant published in between; otherwise
//! it retrains on the newer corpus. The I/O thread's admission check
//! takes the same lock, so a 10–150 ms retrain never stalls admission
//! for any tenant, and a failed train publishes nothing.
//!
//! Admission control is a plain per-tenant counter of queued jobs,
//! bounded by [`crate::config::ServeConfig::queue_bound`]: one slow or
//! abusive tenant fills its own queue and gets `Overloaded` responses
//! while its neighbours keep authenticating.

use echo_obs::Sketch;
use echoimage_core::auth::{AuthConfig, Authenticator};
use echoimage_core::store::{MemoryStore, StoreHandle, TemplateBuilder, TemplateStore};
use echoimage_core::EchoImageError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Raw enrolment feature groups, `(user_id, groups)`, in first-seen
/// user order. Groups are shared by pointer, so a copy of the corpus
/// copies no features.
type Corpus = Vec<(usize, Vec<Arc<[Vec<f64>]>>)>;

#[derive(Default)]
struct Tenant {
    auth: Option<Arc<Authenticator>>,
    /// The corpus every retrain is built from; shared by pointer so an
    /// enrolment copies it under the lock in O(1).
    corpus: Arc<Corpus>,
    /// Template builder with the scaler frozen at first enrolment —
    /// every template published through `store` is scaled identically.
    builder: Option<TemplateBuilder>,
    /// Current identification snapshot; an enrol upserts ONE user's
    /// template (other users' models are shared by pointer) instead of
    /// re-copying the whole population the way the classification
    /// retrain does.
    mem: Option<Arc<MemoryStore>>,
    /// The published-snapshot cell identify requests load from.
    store: Option<Arc<StoreHandle>>,
    /// Counts published enrolments: one publishes only over the
    /// generation it copied.
    generation: u64,
    /// Jobs currently admitted to the batch queue.
    queued: usize,
}

/// An enrolment's copy of its tenant, taken under the lock: the input
/// of the train phase, which runs without it.
struct EnrollDraft {
    tenant: u64,
    user: usize,
    group: Arc<[Vec<f64>]>,
    generation: u64,
    corpus: Arc<Corpus>,
    builder: Option<TemplateBuilder>,
    mem: Option<Arc<MemoryStore>>,
}

/// What an enrolment publishes: everything the tenant's lock-held
/// state changes to.
struct Trained {
    tenant: u64,
    generation: u64,
    corpus: Arc<Corpus>,
    auth: Arc<Authenticator>,
    builder: TemplateBuilder,
    mem: Arc<MemoryStore>,
    reference: Sketch,
}

impl EnrollDraft {
    /// The train phase: appends the group to a copy of the corpus and
    /// trains the classifier, the user's template under the frozen
    /// scaler, and the drift reference.
    ///
    /// # Errors
    ///
    /// Whatever training or templating rejects; nothing is published.
    fn train(&self) -> Result<Trained, EchoImageError> {
        let mut corpus = Corpus::clone(&self.corpus);
        let uidx = match corpus.iter().position(|(id, _)| *id == self.user) {
            Some(i) => i,
            None => {
                corpus.push((self.user, Vec::new()));
                corpus.len() - 1
            }
        };
        corpus[uidx].1.push(Arc::clone(&self.group));
        let auth = Authenticator::enroll_with_groups(&corpus, &AuthConfig::default())?;
        // Incremental template-store update: train only THIS user's
        // gates under the frozen scaler and upsert their template —
        // existing users' templates are shared by pointer, so the cost
        // of publishing a new snapshot is independent of how many
        // neighbours the tenant has.
        let builder = self
            .builder
            .clone()
            .unwrap_or_else(|| TemplateBuilder::new(auth.scaler().clone(), AuthConfig::default()));
        let tmpl = Arc::new(builder.build_user(self.user as u64, &corpus[uidx].1)?);
        let mem = match &self.mem {
            Some(m) => m.upsert(tmpl)?,
            None => MemoryStore::from_templates(builder.scaler(), vec![tmpl])?,
        };
        // The drift reference: the gate-margin distribution of the
        // enrolment corpus under the model being published. Live auth
        // margins are PSI'd against this by the window's drift watch;
        // re-freezing on every enrol keeps the reference aligned with
        // the live model.
        let margins: Vec<f64> = corpus
            .iter()
            .flat_map(|(_, groups)| groups.iter().flat_map(|g| g.iter()))
            .map(|fv| auth.gate_decision(fv))
            .collect();
        Ok(Trained {
            tenant: self.tenant,
            generation: self.generation,
            corpus: Arc::new(corpus),
            auth: Arc::new(auth),
            builder,
            mem: Arc::new(mem),
            reference: echo_obs::window::reference_from_margins(&margins),
        })
    }
}

/// All tenants known to this daemon.
#[derive(Default)]
pub struct TenantRegistry {
    inner: Mutex<HashMap<u64, Tenant>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tries to admit one more job for `tenant` under `bound`.
    ///
    /// # Errors
    ///
    /// The current queued count when the tenant is already at the
    /// bound — the caller sheds the request with that number in the
    /// `Overloaded` reason.
    pub fn try_admit(&self, tenant: u64, bound: usize) -> Result<(), usize> {
        let mut map = self.inner.lock().unwrap();
        let t = map.entry(tenant).or_default();
        if t.queued >= bound {
            return Err(t.queued);
        }
        t.queued += 1;
        Ok(())
    }

    /// Releases one admitted job for `tenant` (its response was
    /// encoded).
    pub fn release(&self, tenant: u64) {
        let mut map = self.inner.lock().unwrap();
        if let Some(t) = map.get_mut(&tenant) {
            t.queued = t.queued.saturating_sub(1);
        }
    }

    /// Jobs currently admitted for `tenant`.
    pub fn queued(&self, tenant: u64) -> usize {
        self.inner
            .lock()
            .unwrap()
            .get(&tenant)
            .map_or(0, |t| t.queued)
    }

    /// A snapshot of the tenant's live authenticator, or `None` while
    /// nobody is enrolled.
    pub fn authenticator(&self, tenant: u64) -> Option<Arc<Authenticator>> {
        self.inner
            .lock()
            .unwrap()
            .get(&tenant)
            .and_then(|t| t.auth.clone())
    }

    /// Appends one enrolment group for `user` and retrains the tenant.
    /// Training runs outside the registry lock (see the module doc). On
    /// a training error nothing is published, so the tenant's corpus
    /// and live model stay as they were.
    ///
    /// # Errors
    ///
    /// Whatever [`Authenticator::enroll_with_groups`] rejects (empty
    /// group, inconsistent dimensionality, …).
    pub fn enroll_group(
        &self,
        tenant: u64,
        user: usize,
        group: Vec<Vec<f64>>,
    ) -> Result<(), EchoImageError> {
        if group.is_empty() {
            return Err(EchoImageError::InvalidParameter(
                "enrolment group has no feature vectors",
            ));
        }
        self.finish_enroll(self.begin_enroll(tenant, user, group.into()))
    }

    /// The copy phase: the only lock an enrolment takes before its
    /// result is ready.
    fn begin_enroll(&self, tenant: u64, user: usize, group: Arc<[Vec<f64>]>) -> EnrollDraft {
        let mut map = self.inner.lock().unwrap();
        let t = map.entry(tenant).or_default();
        EnrollDraft {
            tenant,
            user,
            group,
            generation: t.generation,
            corpus: Arc::clone(&t.corpus),
            builder: t.builder.clone(),
            mem: t.mem.clone(),
        }
    }

    /// Trains `draft` and publishes the result, retraining on the
    /// newer corpus for as long as another enrolment of the tenant
    /// publishes first.
    fn finish_enroll(&self, mut draft: EnrollDraft) -> Result<(), EchoImageError> {
        loop {
            if self.publish(draft.train()?) {
                return Ok(());
            }
            draft = self.begin_enroll(draft.tenant, draft.user, draft.group);
        }
    }

    /// The publish phase: swaps in everything `trained` built, unless
    /// the tenant's generation moved since its copy; returns whether it
    /// published.
    fn publish(&self, trained: Trained) -> bool {
        let mut map = self.inner.lock().unwrap();
        let t = map.entry(trained.tenant).or_default();
        if t.generation != trained.generation {
            return false;
        }
        t.generation += 1;
        t.corpus = trained.corpus;
        t.builder = Some(trained.builder);
        t.mem = Some(Arc::clone(&trained.mem));
        let snapshot: Arc<dyn TemplateStore> = trained.mem;
        match &t.store {
            Some(handle) => handle.publish(snapshot),
            None => t.store = Some(Arc::new(StoreHandle::new(snapshot))),
        }
        echo_obs::window::set_reference(trained.tenant, trained.reference);
        t.auth = Some(trained.auth);
        true
    }

    /// The tenant's identification-store handle, or `None` while nobody
    /// is enrolled. Callers `load()` a snapshot per request; a
    /// concurrent enrol publishes a new one without invalidating it.
    pub fn store(&self, tenant: u64) -> Option<Arc<StoreHandle>> {
        self.inner
            .lock()
            .unwrap()
            .get(&tenant)
            .and_then(|t| t.store.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(cx: f64, n: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                let a = ((h & 0xFFFF) as f64 / 65536.0 - 0.5) * 0.3;
                vec![cx + a, cx - a]
            })
            .collect()
    }

    #[test]
    fn admission_is_per_tenant_and_bounded() {
        let r = TenantRegistry::new();
        assert!(r.try_admit(1, 2).is_ok());
        assert!(r.try_admit(1, 2).is_ok());
        assert_eq!(r.try_admit(1, 2), Err(2));
        // Tenant 2 is unaffected by tenant 1's full queue.
        assert!(r.try_admit(2, 2).is_ok());
        r.release(1);
        assert!(r.try_admit(1, 2).is_ok());
        // Releasing an unknown tenant is a no-op, not a panic.
        r.release(99);
        assert_eq!(r.queued(99), 0);
    }

    #[test]
    fn enroll_swaps_the_authenticator_snapshot() {
        let r = TenantRegistry::new();
        assert!(r.authenticator(5).is_none());
        r.enroll_group(5, 1, cloud(0.0, 30, 1)).unwrap();
        let first = r.authenticator(5).unwrap();
        assert_eq!(first.user_ids(), vec![1]);
        // A snapshot taken before the retrain still scores against the
        // old model after a second user enrols.
        r.enroll_group(5, 2, cloud(3.0, 30, 2)).unwrap();
        assert_eq!(first.user_ids(), vec![1]);
        assert_eq!(r.authenticator(5).unwrap().user_ids(), vec![1, 2]);
    }

    #[test]
    fn failed_retrain_rolls_the_corpus_back() {
        let r = TenantRegistry::new();
        r.enroll_group(5, 1, cloud(0.0, 30, 3)).unwrap();
        let before = r.authenticator(5).unwrap();
        // Wrong dimensionality: retrain fails, corpus must roll back.
        let err = r.enroll_group(5, 2, vec![vec![1.0, 2.0, 3.0]; 10]);
        assert!(err.is_err());
        assert!(Arc::ptr_eq(&before, &r.authenticator(5).unwrap()));
        assert!(r.enroll_group(5, 2, cloud(3.0, 30, 4)).is_ok());
        let empty = r.enroll_group(5, 3, Vec::new());
        assert!(empty.is_err());
    }

    #[test]
    fn enrolment_trains_off_the_lock_and_publishes_by_generation() {
        let r = TenantRegistry::new();
        r.enroll_group(7, 1, cloud(0.0, 30, 5)).unwrap();

        // The copy phase has returned and tenant 7's train phase has not
        // run: admission stays open for a neighbour and for tenant 7.
        let draft = r.begin_enroll(7, 2, cloud(3.0, 30, 6).into());
        assert_eq!(r.try_admit(8, 4), Ok(()));
        assert_eq!(r.try_admit(7, 4), Ok(()));
        assert_eq!(r.authenticator(7).unwrap().user_ids(), vec![1]);
        assert!(r.publish(draft.train().unwrap()));
        assert_eq!(r.authenticator(7).unwrap().user_ids(), vec![1, 2]);

        // Two enrolments copied from one generation: the first
        // publishes, so the second's result is stale and it retrains on
        // a corpus that holds the first's user.
        let first = r.begin_enroll(7, 3, cloud(6.0, 30, 7).into());
        let second = r.begin_enroll(7, 4, cloud(9.0, 30, 8).into());
        assert_eq!(first.generation, second.generation);
        r.finish_enroll(first).unwrap();
        assert!(!r.publish(second.train().unwrap()));
        assert_eq!(r.authenticator(7).unwrap().user_ids(), vec![1, 2, 3]);
        r.finish_enroll(second).unwrap();
        assert_eq!(r.authenticator(7).unwrap().user_ids(), vec![1, 2, 3, 4]);
        let live = r.store(7).unwrap().load();
        assert_eq!(live.user_count(), 4);
    }
}
