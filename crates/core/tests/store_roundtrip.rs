//! Template-store round-trip properties and corruption rejection.
//!
//! The exactness contract: enrolling a user, serializing their template
//! into a shard, and identifying through the reopened shard must
//! produce the *same bits* — margins and therefore `AuthDecision`s — as
//! the in-memory store the templates came from. Quantization (f32
//! centroids) only ever touches prefilter ranking, and both store
//! flavours build the identical coarse index, so even candidate sets
//! agree exactly.
//!
//! The corruption half pins the failure mode of every byte of a shard:
//! every truncation is a typed `Truncated` with the offending offset,
//! every bit flip a checksum mismatch (or an earlier typed header
//! error), and every flip with the checksum recomputed decodes or is a
//! typed error — never a panic, never an abort.

use echo_ml::StandardScaler;
use echoimage_core::auth::AuthConfig;
use echoimage_core::store::format::{fnv1a64, MIN_FILE_LEN};
use echoimage_core::store::{
    identify, IdentifyConfig, MemoryStore, Shard, ShardStore, ShardWriter, StoreError,
    TemplateBuilder, TemplateStore, UserTemplate,
};
use echoimage_core::EchoImageError;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Deterministic per-user feature cloud: users sit on well-separated
/// centers, samples jitter tightly around them.
fn user_cloud(user: usize, dim: usize, n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| {
                    let h = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(salt ^ (d as u64) << 17);
                    let jitter = ((h >> 16) & 0xFFFF) as f64 / 65536.0 - 0.5;
                    center(user, d) + jitter * 0.3
                })
                .collect()
        })
        .collect()
}

fn center(user: usize, d: usize) -> f64 {
    // Spread users along a deterministic lattice, 6 units apart.
    (((user * 7 + d * 3) % 13) as f64) * 6.0 + user as f64 * 0.5
}

struct Fixture {
    builder: TemplateBuilder,
    templates: Vec<Arc<UserTemplate>>,
    memory: MemoryStore,
}

fn build_fixture(n_users: usize, dim: usize, groups: usize, salt: u64) -> Fixture {
    let clouds: Vec<Vec<Vec<Vec<f64>>>> = (0..n_users)
        .map(|u| {
            (0..groups)
                .map(|g| user_cloud(u, dim, 10, salt.wrapping_add(g as u64 * 977)))
                .collect()
        })
        .collect();
    let all: Vec<Vec<f64>> = clouds.iter().flatten().flatten().cloned().collect();
    let builder = TemplateBuilder::new(StandardScaler::fit_global(&all), AuthConfig::default());
    let templates: Vec<Arc<UserTemplate>> = clouds
        .iter()
        .enumerate()
        .map(|(u, gs)| Arc::new(builder.build_user(u as u64 + 1, gs).unwrap()))
        .collect();
    let memory = MemoryStore::from_templates(builder.scaler(), templates.clone()).unwrap();
    Fixture {
        builder,
        templates,
        memory,
    }
}

fn shard_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("echoimage-store-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.echoshard", std::process::id()))
}

fn probes_for(fx: &Fixture, dim: usize, salt: u64) -> Vec<Vec<Vec<f64>>> {
    let mut probes = Vec::new();
    for u in 0..fx.templates.len() {
        // A 3-beep probe train from the user's own distribution.
        probes.push(user_cloud(u, dim, 3, salt.wrapping_add(0xABCD)));
    }
    // Spoofer probes far off every lattice point.
    probes.push(vec![vec![250.0; dim], vec![-250.0; dim], vec![333.0; dim]]);
    probes
}

fn assert_same_decisions(
    a: &dyn TemplateStore,
    b: &dyn TemplateStore,
    probes: &[Vec<Vec<f64>>],
    cfg: &IdentifyConfig,
) -> Result<(), TestCaseError> {
    for (i, probe) in probes.iter().enumerate() {
        let da = identify(a, probe, cfg).unwrap();
        let db = identify(b, probe, cfg).unwrap();
        prop_assert_eq!(da, db, "probe {} disagrees", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The core property: enroll → serialize → reopen → identify gives
    /// the same `AuthDecision` as the in-memory path, for both the
    /// prefiltered and exhaustive modes — and the margins themselves are
    /// bit-identical.
    fn roundtrip_preserves_decisions(
        n_users in 1usize..9,
        dim in 2usize..6,
        groups in 1usize..3,
        salt in 0u64..500,
    ) {
        let fx = build_fixture(n_users, dim, groups, salt);
        let path = shard_path(&format!("prop-{n_users}-{dim}-{groups}-{salt}"));
        let mut w = ShardWriter::new(fx.builder.scaler());
        for t in &fx.templates {
            w.push(t.clone()).unwrap();
        }
        w.write_to(&path).unwrap();

        let store = ShardStore::from_shards(vec![Shard::open(&path).unwrap()]).unwrap();

        let probes = probes_for(&fx, dim, salt);
        // Margins are bit-identical user by user, probe by probe.
        for probe in probes.iter().flatten() {
            let x = fx.builder.scaler().transform(probe);
            for id in fx.memory.user_ids() {
                let want = fx.memory.gate_margin(id, &x).unwrap();
                let got = store.gate_margin(id, &x).unwrap();
                prop_assert_eq!(want.to_bits(), got.to_bits(),
                    "margin bits differ for user {}", id);
            }
        }
        // And so are whole identification decisions.
        for cfg in [
            IdentifyConfig::default(),
            IdentifyConfig { exhaustive: true, ..IdentifyConfig::default() },
            IdentifyConfig { top_k: 2, exhaustive: false },
        ] {
            assert_same_decisions(&fx.memory, &store, &probes, &cfg)?;
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Candidate sets (ids and quantized distances) agree exactly
    /// between the in-memory index and the reopened shard.
    fn roundtrip_preserves_candidates(
        n_users in 1usize..9,
        dim in 2usize..5,
        salt in 0u64..500,
        k in 1usize..6,
    ) {
        let fx = build_fixture(n_users, dim, 1, salt);
        let path = shard_path(&format!("cand-{n_users}-{dim}-{salt}-{k}"));
        let mut w = ShardWriter::new(fx.builder.scaler());
        for t in &fx.templates {
            w.push(t.clone()).unwrap();
        }
        w.write_to(&path).unwrap();
        let store = ShardStore::from_shards(vec![Shard::open(&path).unwrap()]).unwrap();
        for probe in probes_for(&fx, dim, salt).iter().flatten() {
            let x = fx.builder.scaler().transform(probe);
            let xq: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let want = fx.memory.candidates(&xq, k);
            let got = store.candidates(&xq, k);
            prop_assert_eq!(&want, &got, "candidates differ");
        }
        std::fs::remove_file(&path).unwrap();
    }
}

fn sealed(mut bytes: Vec<u8>) -> Vec<u8> {
    // Recompute the trailer so doctored sections get past the checksum
    // and exercise the structural validation.
    let body_len = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

fn encoded_fixture() -> Vec<u8> {
    let fx = build_fixture(4, 3, 2, 42);
    let mut w = ShardWriter::new(fx.builder.scaler());
    for t in &fx.templates {
        w.push(t.clone()).unwrap();
    }
    w.encode().unwrap()
}

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

#[test]
fn bit_flip_anywhere_is_a_checksum_mismatch() {
    let bytes = encoded_fixture();
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x10;
        let r = Shard::decode(&bad);
        // The header fields checked before the checksum fail first,
        // each with its own typed error.
        let typed = match pos {
            0..8 => matches!(r, Err(StoreError::BadMagic { offset: 0 })),
            8..12 => matches!(r, Err(StoreError::BadVersion { offset: 8, .. })),
            88..96 => matches!(
                r,
                Err(StoreError::Truncated { .. } | StoreError::Corrupt { offset: 88, .. })
            ),
            _ => matches!(r, Err(StoreError::ChecksumMismatch { .. })),
        };
        assert!(typed, "flip at {pos}: {r:?}");
    }
}

#[test]
fn truncation_is_typed_with_offsets() {
    let bytes = encoded_fixture();
    for cut in 0..bytes.len() {
        match Shard::decode(&bytes[..cut]) {
            Err(StoreError::Truncated {
                offset,
                needed,
                file_len,
                ..
            }) => {
                assert_eq!(file_len as usize, cut, "cut at {cut}");
                if cut < MIN_FILE_LEN {
                    // Cut in the header: nothing past it is attempted.
                    assert_eq!((offset, needed), (0, MIN_FILE_LEN as u64), "cut at {cut}");
                } else {
                    // Cut in the body: the header promises the rest.
                    assert_eq!(offset as usize, cut, "cut at {cut}");
                    assert_eq!((offset + needed) as usize, bytes.len(), "cut at {cut}");
                }
            }
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
}

#[test]
fn resealed_flips_decode_or_fail_typed() {
    // FNV-1a checks integrity, it does not authenticate: anyone can
    // flip bytes and recompute the trailer. Every such image must
    // decode to a shard that answers queries, or to a typed format
    // error — never a panic or an abort.
    let bytes = encoded_fixture();
    let (mut decoded, mut rejected) = (0, 0);
    for pos in 0..bytes.len() - 8 {
        for mask in [0x01, 0x80, 0xFF] {
            let mut bad = bytes.clone();
            bad[pos] ^= mask;
            match Shard::decode(&sealed(bad)) {
                Ok(shard) => {
                    let x = vec![0.0; shard.dim()];
                    let xq = vec![0.0f32; shard.dim()];
                    let _ = shard.candidates(&xq, 4);
                    for u in 0..shard.n_users() {
                        let _ = shard.margin_by_index(u, &x);
                    }
                    decoded += 1;
                }
                Err(StoreError::Io { .. } | StoreError::InvalidTemplate(_)) => {
                    panic!("flip {mask:#04x} at {pos}: not a format error")
                }
                Err(_) => rejected += 1,
            }
        }
    }
    // Flips in float payloads decode; flips in counts and offsets fail.
    assert!(
        decoded > 0 && rejected > 0,
        "{decoded} decoded, {rejected} rejected"
    );
}

#[test]
fn hostile_gate_count_is_truncated_not_an_abort() {
    // A resealed first gate count of 2^31 must not size an allocation
    // (~150 GB of gates) before the gates behind it are read.
    let mut bad = encoded_fixture();
    let first_record = u64_at(&bad, 80) as usize;
    bad[first_record..first_record + 4].copy_from_slice(&0x8000_0000u32.to_le_bytes());
    let r = Shard::decode(&sealed(bad));
    assert!(matches!(r, Err(StoreError::Truncated { .. })), "{r:?}");
}

#[test]
fn wrong_magic_and_version_are_typed() {
    let bytes = encoded_fixture();
    let mut bad = bytes.clone();
    bad[..8].copy_from_slice(b"NOTSHARD");
    assert_eq!(
        Shard::decode(&bad).unwrap_err(),
        StoreError::BadMagic { offset: 0 }
    );
    let mut bad = bytes;
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(
        Shard::decode(&bad).unwrap_err(),
        StoreError::BadVersion {
            offset: 8,
            found: 99,
            supported: 1
        }
    );
}

#[test]
fn doctored_record_table_is_corrupt_not_a_panic() {
    let bytes = encoded_fixture();
    let rec_tab_off = u64_at(&bytes, 72) as usize;
    // Point the first record past the second: non-monotone table.
    let mut bad = bytes.clone();
    let second = u64_at(&bytes, rec_tab_off + 8);
    bad[rec_tab_off..rec_tab_off + 8].copy_from_slice(&(second + 8).to_le_bytes());
    let r = Shard::decode(&sealed(bad));
    assert!(matches!(r, Err(StoreError::Corrupt { .. })), "{r:?}");
    // Inflate a support-vector count: the record no longer ends at its
    // table boundary (or runs off the file) — typed either way.
    let gates_off = u64_at(&bytes, 80) as usize;
    let mut bad = bytes.clone();
    let n_sv_pos = gates_off + 8; // first gate's n_sv, after the record header
    bad[n_sv_pos..n_sv_pos + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
    let r = Shard::decode(&sealed(bad));
    assert!(
        matches!(
            r,
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Truncated { .. })
        ),
        "{r:?}"
    );
    // Unsorted user ids.
    let ids_off = u64_at(&bytes, 32) as usize;
    let mut bad = bytes.clone();
    bad[ids_off..ids_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    match Shard::decode(&sealed(bad)) {
        Err(StoreError::Corrupt { offset, what }) => {
            assert_eq!(offset as usize, ids_off);
            assert!(what.contains("ascending"), "{what}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn atomic_write_leaves_no_tmp_file() {
    let fx = build_fixture(2, 2, 1, 7);
    let mut w = ShardWriter::new(fx.builder.scaler());
    for t in &fx.templates {
        w.push(t.clone()).unwrap();
    }
    let path = shard_path("atomic");
    w.write_to(&path).unwrap();
    assert!(path.exists());
    assert!(!path.with_extension("tmp").exists());
    // The written file round-trips.
    let shard = Shard::open(&path).unwrap();
    assert_eq!(shard.n_users(), 2);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn store_errors_surface_through_echoimage_error() {
    let e: EchoImageError = StoreError::BadMagic { offset: 0 }.into();
    assert!(matches!(e, EchoImageError::Store(_)));
    assert!(e.to_string().contains("bad magic"));
    assert!(std::error::Error::source(&e).is_some());
}

#[test]
fn empty_identify_paths_are_typed() {
    let fx = build_fixture(2, 2, 1, 3);
    let cfg = IdentifyConfig::default();
    assert!(matches!(
        identify(&fx.memory, &[], &cfg),
        Err(EchoImageError::NoCaptures)
    ));
    let empty = MemoryStore::new(fx.builder.scaler());
    assert!(matches!(
        identify(&empty, &[vec![0.0, 0.0]], &cfg),
        Err(EchoImageError::InvalidParameter(_))
    ));
    let bad_dim = vec![vec![1.0, 2.0, 3.0]];
    assert!(matches!(
        identify(&fx.memory, &bad_dim, &cfg),
        Err(EchoImageError::InvalidParameter(_))
    ));
}
