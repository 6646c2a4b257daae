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
//! Admission control is a plain per-tenant counter of queued jobs,
//! bounded by [`crate::config::ServeConfig::queue_bound`]: one slow or
//! abusive tenant fills its own queue and gets `Overloaded` responses
//! while its neighbours keep authenticating.

use echoimage_core::auth::{AuthConfig, Authenticator};
use echoimage_core::store::{MemoryStore, StoreHandle, TemplateBuilder, TemplateStore};
use echoimage_core::EchoImageError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Tenant {
    auth: Option<Arc<Authenticator>>,
    /// Raw enrolment feature groups, `(user_id, groups)`, in first-seen
    /// user order — the corpus every retrain is built from.
    groups: Vec<(usize, Vec<Vec<Vec<f64>>>)>,
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
    /// Jobs currently admitted to the batch queue.
    queued: usize,
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
    /// On a training error the group is rolled back, so the tenant's
    /// corpus and live model stay consistent with each other.
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
        let mut map = self.inner.lock().unwrap();
        let t = map.entry(tenant).or_default();
        let (uidx, added_user) = match t.groups.iter().position(|(id, _)| *id == user) {
            Some(i) => (i, false),
            None => {
                t.groups.push((user, Vec::new()));
                (t.groups.len() - 1, true)
            }
        };
        t.groups[uidx].1.push(group);
        let rollback = |t: &mut Tenant| {
            t.groups[uidx].1.pop();
            if added_user {
                t.groups.remove(uidx);
            }
        };
        let auth = match Authenticator::enroll_with_groups(&t.groups, &AuthConfig::default()) {
            Ok(auth) => auth,
            Err(e) => {
                rollback(t);
                return Err(e);
            }
        };
        // Incremental template-store update: train only THIS user's
        // gates under the frozen scaler and upsert their template —
        // existing users' templates are shared by pointer, so the cost
        // of publishing a new snapshot is independent of how many
        // neighbours the tenant has.
        let builder = t.builder.get_or_insert_with(|| {
            TemplateBuilder::new(auth.scaler().clone(), AuthConfig::default())
        });
        let store_step = builder
            .build_user(user as u64, &t.groups[uidx].1)
            .and_then(|tmpl| {
                let base = match &t.mem {
                    Some(m) => m.upsert(Arc::new(tmpl))?,
                    None => MemoryStore::from_templates(builder.scaler(), vec![Arc::new(tmpl)])?,
                };
                Ok(Arc::new(base))
            });
        match store_step {
            Ok(mem) => {
                t.mem = Some(Arc::clone(&mem));
                let snapshot: Arc<dyn TemplateStore> = mem;
                match &t.store {
                    Some(handle) => handle.publish(snapshot),
                    None => t.store = Some(Arc::new(StoreHandle::new(snapshot))),
                }
                // Freeze the drift reference: the gate-margin
                // distribution of the enrolment corpus under the model
                // that was just published. Live auth margins are PSI'd
                // against this by the window's drift watch; re-freezing
                // on every enrol keeps the reference aligned with the
                // live model.
                let margins: Vec<f64> = t
                    .groups
                    .iter()
                    .flat_map(|(_, groups)| groups.iter().flatten())
                    .map(|fv| auth.gate_decision(fv))
                    .collect();
                echo_obs::window::set_reference(
                    tenant,
                    echo_obs::window::reference_from_margins(&margins),
                );
                t.auth = Some(Arc::new(auth));
                Ok(())
            }
            Err(e) => {
                // Keep corpus, classifier and store consistent: if the
                // template cannot be built, the enrolment fails as a
                // whole and the previous model stays live.
                rollback(t);
                Err(e)
            }
        }
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
}
