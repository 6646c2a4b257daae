//! Prefilter/oracle decision parity, snapshot reload semantics, and
//! store metric determinism.
//!
//! The coarse centroid prefilter is an *optimisation*, not a model
//! change: on a population of well-separated speakers, pruning to
//! top-K before the SVDD vote must yield decisions identical to the
//! exhaustive scan that scores every enrolled user. This suite pins
//! that on a few-hundred-user store (the 10k/1M-scale versions run in
//! `echo-bench`'s `store_bench`), plus the append-only reload story:
//! a snapshot held across a publish keeps answering from its epoch,
//! and a re-enrolled user's newest shard wins.

use echo_ml::StandardScaler;
use echoimage_core::auth::AuthConfig;
use echoimage_core::store::{
    identify, IdentifyConfig, MemoryStore, Shard, ShardStore, ShardWriter, StoreHandle,
    TemplateBuilder, TemplateStore, UserTemplate,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    echo_obs::set_enabled(true);
    echo_obs::reset();
    g
}

const DIM: usize = 4;

/// Deterministic hash-lattice cloud for `user`, mimicking the enrolment
/// feature distribution: tight per-user clusters on separated centers.
fn cloud(user: u64, n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..DIM)
                .map(|d| {
                    let h = (user ^ salt)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((i * DIM + d) as u64)
                        .wrapping_mul(0xD1B5_4A32_D192_ED03);
                    let jitter = ((h >> 24) & 0xFFFF) as f64 / 65536.0 - 0.5;
                    user_center(user, d) + jitter * 0.25
                })
                .collect()
        })
        .collect()
}

fn user_center(user: u64, d: usize) -> f64 {
    // Base-32 digit decomposition of the user id: injective for ids
    // below 2^20, so no two users share a center and distinct centers
    // are at least 4.0 apart in some dimension — well-separated
    // speakers, the regime the prefilter is designed for.
    ((user >> (5 * d as u64)) & 0x1F) as f64 * 4.0
}

struct Population {
    builder: TemplateBuilder,
    templates: Vec<Arc<UserTemplate>>,
}

fn enroll(n_users: u64, salt: u64) -> Population {
    // Fit the scaler once on a sample of users, then freeze it — the
    // store contract for incremental enrolment.
    let sample: Vec<Vec<f64>> = (1..=n_users.min(32))
        .flat_map(|u| cloud(u, 8, salt))
        .collect();
    let builder = TemplateBuilder::new(StandardScaler::fit_global(&sample), AuthConfig::default());
    let templates = (1..=n_users)
        .map(|u| Arc::new(builder.build_user(u, &[cloud(u, 40, salt)]).unwrap()))
        .collect();
    Population { builder, templates }
}

/// A probe sitting exactly on the user's cluster center — always well
/// inside a gate trained on that cluster.
fn center_probe(user_key: u64) -> Vec<f64> {
    (0..DIM).map(|d| user_center(user_key, d)).collect()
}

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("echoimage-store-parity");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.echoshard",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn write_shard(builder: &TemplateBuilder, templates: &[Arc<UserTemplate>], tag: &str) -> PathBuf {
    let mut w = ShardWriter::new(builder.scaler());
    for t in templates {
        w.push(t.clone()).unwrap();
    }
    let path = temp_path(tag);
    w.write_to(&path).unwrap();
    path
}

#[test]
fn prefilter_decisions_match_exhaustive_oracle() {
    let _g = guard();
    let n_users = 300u64;
    let pop = enroll(n_users, 17);
    let store = MemoryStore::from_templates(pop.builder.scaler(), pop.templates.clone()).unwrap();

    let prefiltered = IdentifyConfig::default();
    let oracle = IdentifyConfig {
        exhaustive: true,
        ..IdentifyConfig::default()
    };
    let mut accepted = 0usize;
    let mut probes = 0usize;
    // Every 7th user probes with held-out samples from their own
    // distribution; spoofers probe from nowhere.
    for u in (1..=n_users).step_by(7) {
        let probe = cloud(u, 3, 0xFEED);
        let fast = identify(&store, &probe, &prefiltered).unwrap();
        let slow = identify(&store, &probe, &oracle).unwrap();
        assert_eq!(fast, slow, "user {u}: prefilter diverged from oracle");
        probes += 1;
        if fast.is_accepted() {
            accepted += 1;
            assert_eq!(fast.user_id(), Some(u as usize), "user {u} misidentified");
        }
    }
    // The parity property is the contract; but an all-reject store
    // would make it vacuous, so require the gates actually work.
    assert!(
        accepted * 10 >= probes * 8,
        "only {accepted}/{probes} legitimate probes accepted"
    );
    for s in 0..10u64 {
        let probe: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..DIM)
                    .map(|d| 500.0 + (s * 3 + i + d as u64) as f64)
                    .collect()
            })
            .collect();
        let fast = identify(&store, &probe, &prefiltered).unwrap();
        let slow = identify(&store, &probe, &oracle).unwrap();
        assert_eq!(fast, slow, "spoofer {s}: prefilter diverged from oracle");
        assert!(!fast.is_accepted(), "spoofer {s} accepted");
    }
}

#[test]
fn shard_store_parity_with_memory_store() {
    let _g = guard();
    let pop = enroll(120, 23);
    let memory = MemoryStore::from_templates(pop.builder.scaler(), pop.templates.clone()).unwrap();
    let path = write_shard(&pop.builder, &pop.templates, "parity");
    let shards = ShardStore::from_shards(vec![Shard::open(&path).unwrap()]).unwrap();
    let cfg = IdentifyConfig::default();
    for u in (1..=120u64).step_by(11) {
        let probe = cloud(u, 3, 0xBEEF);
        assert_eq!(
            identify(&memory, &probe, &cfg).unwrap(),
            identify(&shards, &probe, &cfg).unwrap(),
            "user {u}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_reload_is_non_blocking_and_newest_shard_wins() {
    let _g = guard();
    let pop = enroll(40, 31);
    let base = write_shard(&pop.builder, &pop.templates, "base");
    let snapshot: Arc<dyn TemplateStore> =
        Arc::new(ShardStore::from_shards(vec![Shard::open(&base).unwrap()]).unwrap());
    let handle = StoreHandle::new(snapshot);
    let cfg = IdentifyConfig::default();

    // A reader holds the pre-reload snapshot.
    let held = handle.load();
    assert_eq!(held.user_count(), 40);

    // Re-enrolment: user 41 appears, user 7 re-enrolls *on a different
    // body of data* (their cluster moved). Appends a second shard and
    // publishes; nothing about the first shard is rewritten.
    let moved_7 = Arc::new(
        pop.builder
            .build_user(7, &[cloud(1_000_007, 40, 31)])
            .unwrap(),
    );
    let new_41 = Arc::new(pop.builder.build_user(41, &[cloud(41, 40, 31)]).unwrap());
    let delta = write_shard(&pop.builder, &[moved_7.clone(), new_41.clone()], "delta");
    let reloaded: Arc<dyn TemplateStore> = Arc::new(
        ShardStore::from_shards(vec![
            Shard::open(&base).unwrap(),
            Shard::open(&delta).unwrap(),
        ])
        .unwrap(),
    );
    handle.publish(reloaded);

    // The held snapshot still answers from its epoch: user 41 unknown,
    // user 7 still their *old* template.
    assert_eq!(held.user_count(), 40);
    assert!(held.gate_margin(41, &[0.0; DIM]).is_none());
    let x_old = pop.builder.scaler().transform(&center_probe(7));
    assert!(
        held.gate_margin(7, &x_old).unwrap() >= 0.0,
        "old snapshot lost user 7's old template"
    );

    // A fresh load sees the union, newest shard winning for user 7.
    let fresh = handle.load();
    assert_eq!(fresh.user_count(), 41);
    assert!(fresh.gate_margin(41, &[0.0; DIM]).is_some());
    let x_new = pop.builder.scaler().transform(&center_probe(1_000_007));
    assert!(
        fresh.gate_margin(7, &x_new).unwrap() >= 0.0,
        "reloaded store does not serve user 7's newest template"
    );
    assert!(
        held.gate_margin(7, &x_new).unwrap() < 0.0,
        "old template should reject the new enrolment's cluster"
    );
    // Identification still works end to end on the fresh snapshot.
    let d = identify(fresh.as_ref(), &vec![center_probe(41); 3], &cfg).unwrap();
    assert_eq!(d.user_id(), Some(41));

    std::fs::remove_file(&base).unwrap();
    std::fs::remove_file(&delta).unwrap();
}

#[test]
fn shards_with_mismatched_scalers_are_rejected() {
    let _g = guard();
    let a = enroll(3, 1);
    let b = enroll(3, 999); // different salt → different fitted scaler
    let pa = write_shard(&a.builder, &a.templates, "scaler-a");
    let pb = write_shard(&b.builder, &b.templates, "scaler-b");
    let err = ShardStore::from_shards(vec![Shard::open(&pa).unwrap(), Shard::open(&pb).unwrap()])
        .unwrap_err();
    assert!(err.to_string().contains("scaler"), "{err}");
    std::fs::remove_file(&pa).unwrap();
    std::fs::remove_file(&pb).unwrap();
}

/// The `store.*` metrics are logical-event counts, so two identical
/// runs — and any `ECHOIMAGE_THREADS` setting, since identification
/// runs on the coordinating thread — must produce the same values; and
/// a shard store must count exactly like the in-memory store holding
/// the same templates.
#[test]
fn store_metrics_are_deterministic_and_reader_independent() {
    let pop = enroll(60, 47);
    let path = write_shard(&pop.builder, &pop.templates, "metrics");
    let shards = ShardStore::from_shards(vec![Shard::open(&path).unwrap()]).unwrap();
    let memory = MemoryStore::from_templates(pop.builder.scaler(), pop.templates.clone()).unwrap();
    let cfg = IdentifyConfig::default();

    let run = |store: &dyn TemplateStore| -> BTreeMap<String, u64> {
        let _g = guard();
        for u in (1..=60u64).step_by(5) {
            let _ = identify(store, &cloud(u, 3, 0xCAFE), &cfg).unwrap();
        }
        // One spoofer that misses everywhere.
        let _ = identify(store, &[vec![1e4; DIM], vec![-1e4; DIM]], &cfg).unwrap();
        let snap = echo_obs::snapshot();
        let mut map: BTreeMap<String, u64> = snap
            .counters
            .into_iter()
            .filter(|(name, v)| name.starts_with("store.") && *v != 0)
            .collect();
        for (name, h) in snap.histograms {
            if name.starts_with("store.") && h.count != 0 {
                map.insert(format!("{name}#count"), h.count);
            }
        }
        for (name, v) in snap.gauges {
            if name.starts_with("store.") {
                map.insert(name, v as u64);
            }
        }
        map
    };

    let first = run(&shards);
    let again = run(&shards);
    assert_eq!(first, again, "store metrics differ between identical runs");
    assert_eq!(
        first,
        run(&memory),
        "store metrics differ between shard and memory stores"
    );
    // The workload shape is pinned: 12 legit trains x 3 beeps + 1
    // spoofer train x 2 beeps = 38 lookups; hits/misses partition them.
    assert_eq!(first["store.lookup#count"], 38);
    assert_eq!(
        first.get("store.prefilter.hit").copied().unwrap_or(0)
            + first.get("store.prefilter.miss").copied().unwrap_or(0),
        38
    );
    assert_eq!(first["store.identify_attempts"], 13);
    std::fs::remove_file(&path).unwrap();
}
