//! Scale and correctness bench for the template store.
//!
//! Two modes:
//!
//! * **Full** (default): builds a **1,000,000-user** shard, opens it,
//!   and measures top-16 candidate-lookup latency (asserting the
//!   sub-millisecond p99 the store was designed for), then runs a
//!   10,000-user parity suite proving the prefiltered decision path
//!   bit-identical to the exhaustive oracle on both the in-memory and
//!   the shard backend.
//! * **`--quick`** (the CI smoke): a **100,000-user** store exercised
//!   end to end — shards written and reopened, a second shard
//!   re-enrolling one user published mid-run through a [`StoreHandle`]
//!   from another thread while the main thread keeps identifying, and
//!   every decision checked against the exhaustive oracle on the same
//!   loaded snapshot. Also pins newest-shard-wins semantics and
//!   bit-identical margins between the shard store and an in-memory
//!   store of the same population.
//!
//! Populations come from [`echo_bench::storegen`]: hash-generated
//! single-gate users whose margins decrease strictly with centroid
//! distance, so prefilter/oracle agreement is structurally guaranteed —
//! any disagreement is a real store bug. Exits nonzero on the first
//! failed check.

use echo_bench::{banner, quick_mode, run_or_exit, storegen};
use echoimage_core::store::{
    identify, IdentifyConfig, MemoryStore, Shard, ShardStore, ShardWriter, StoreHandle,
    TemplateStore,
};
use echoimage_core::AuthDecision;
use std::sync::Arc;
use std::time::Instant;

fn check(ok: bool, what: &str) {
    if !ok {
        eprintln!("FAIL: {what}");
        std::process::exit(1);
    }
}

/// Writes users `0..n` (salt 0) as one shard under `dir`.
fn write_population_shard(dir: &std::path::Path, n: usize, name: &str) -> std::path::PathBuf {
    let mut writer = ShardWriter::new(&storegen::scaler());
    for t in storegen::population(n) {
        run_or_exit(writer.push(t), "push template");
    }
    let path = dir.join(name);
    run_or_exit(writer.write_to(&path), "write shard");
    path
}

/// Identification decisions for one probe train: prefiltered and
/// exhaustive, which every parity check compares.
fn both_paths(store: &dyn TemplateStore, train: &[Vec<f64>]) -> (AuthDecision, AuthDecision) {
    let fast = run_or_exit(
        identify(store, train, &IdentifyConfig::default()),
        "prefiltered identify",
    );
    let slow = run_or_exit(
        identify(
            store,
            train,
            &IdentifyConfig {
                exhaustive: true,
                ..IdentifyConfig::default()
            },
        ),
        "exhaustive identify",
    );
    (fast, slow)
}

/// Full mode: million-user lookup latency + 10k-user decision parity.
fn run_full(dir: &std::path::Path) {
    let n = 1_000_000usize;
    println!("building {n}-user shard (one-time cost, ~all of it the coarse index)...");
    let t0 = Instant::now();
    let path = write_population_shard(dir, n, "shard-000000.echoshard");
    let build_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let store = run_or_exit(ShardStore::open_dir(dir), "open shard dir");
    let open_ms = t0.elapsed().as_millis();
    check(store.user_count() == n, "user count after reopen");
    println!(
        "  shard {:.0} MB written in {build_s:.1} s, opened in {open_ms} ms",
        bytes as f64 / 1e6
    );

    let probes = 5_000u64;
    let mut lookup_ns: Vec<u64> = Vec::with_capacity(probes as usize);
    for i in 0..probes {
        let user = storegen::splitmix(i) % n as u64;
        let xq: Vec<f32> = storegen::probe(user, 31_000 + i)
            .iter()
            .map(|&v| v as f32)
            .collect();
        let t = Instant::now();
        let cands = store.candidates(&xq, 16);
        lookup_ns.push(t.elapsed().as_nanos() as u64);
        check(!cands.is_empty(), "candidate set empty at 1M users");
        check(
            cands[0].user_id == user,
            "probe owner not the nearest centroid at 1M users",
        );
    }
    lookup_ns.sort_unstable();
    let pct =
        |p: f64| lookup_ns[(((probes as f64) * p).ceil() as usize).clamp(1, probes as usize) - 1];
    let (p50, p99) = (pct(0.50), pct(0.99));
    println!(
        "  top-16 lookup over {n} users: p50 {:.1} µs   p99 {:.1} µs   ({probes} probes)",
        p50 as f64 / 1e3,
        p99 as f64 / 1e3
    );
    check(p99 < 1_000_000, "candidate lookup p99 ≥ 1 ms at 1M users");

    // Decision parity at 10k users: prefiltered vs exhaustive on the
    // shard backend and the in-memory reference, all four bit-identical.
    let pn = 10_000usize;
    let mem = run_or_exit(
        MemoryStore::from_templates(&storegen::scaler(), storegen::population(pn)),
        "parity memory store",
    );
    let pdir = dir.join("parity");
    run_or_exit(
        std::fs::create_dir_all(&pdir).map_err(|e| e.to_string()),
        "parity dir",
    );
    write_population_shard(&pdir, pn, "shard-000000.echoshard");
    let sharded = run_or_exit(ShardStore::open_dir(&pdir), "open parity shard");
    let trains = 1_000u64;
    for i in 0..trains {
        let user = storegen::splitmix(0xFACE ^ i) % pn as u64;
        let train = storegen::probe_train(user, 77_000 + i * 8, 3);
        let (fast_mem, slow_mem) = both_paths(&mem, &train);
        let (fast_shard, slow_shard) = both_paths(&sharded, &train);
        check(fast_mem == slow_mem, "memory prefilter != memory oracle");
        check(fast_shard == slow_shard, "shard prefilter != shard oracle");
        check(fast_mem == fast_shard, "memory != shard decision");
        check(
            fast_mem
                == (AuthDecision::Accepted {
                    user_id: user as usize,
                }),
            "parity probe not identified as its owner",
        );
    }
    println!("  parity: {trains} probe trains × (prefilter|oracle) × (memory|shard) all agree");
}

/// Quick mode: the 100k-user CI smoke with a mid-run snapshot reload.
fn run_quick(dir: &std::path::Path) {
    let n = 100_000usize;
    let reenrolled = 42u64;
    println!("building {n}-user shard for the smoke run...");
    let base_path = write_population_shard(dir, n, "shard-000000.echoshard");

    // The re-enrolment shard: user 42 moves to a salted centroid. Not
    // written to `dir` yet — the reload thread publishes it mid-run.
    let mut writer = ShardWriter::new(&storegen::scaler());
    run_or_exit(
        writer.push(storegen::template_salted(reenrolled, 1)),
        "push re-enrolment",
    );
    let delta_path = dir.join("shard-000001.echoshard");
    run_or_exit(writer.write_to(&delta_path), "write re-enrolment shard");

    // The initial snapshot is the base shard alone — the delta file
    // sits in the directory but is only picked up by the mid-run
    // `open_dir` reload below.
    let base_shard = run_or_exit(Shard::open(&base_path), "open base shard");
    let base = run_or_exit(ShardStore::from_shards(vec![base_shard]), "base store");
    check(base.user_count() == n, "user count after reopen");

    // The shard store and an in-memory store of the same population
    // agree margin-for-margin (bit-compare).
    let memory = run_or_exit(
        MemoryStore::from_templates(&storegen::scaler(), storegen::population(n)),
        "memory store",
    );
    for i in 0..50u64 {
        let user = storegen::splitmix(0xBEEF ^ i) % n as u64;
        let x = storegen::probe(user, 51_000 + i);
        let a = base.gate_margin(user, &x);
        let b = memory.gate_margin(user, &x);
        check(
            a.map(f64::to_bits) == b.map(f64::to_bits),
            "shard and memory stores disagree on a gate margin",
        );
    }
    drop(memory);

    // Before the swap: the re-enrolled user still answers at their
    // original centroid (only shard-000000 is published).
    let handle = Arc::new(StoreHandle::new(Arc::new(base)));
    let old_probe = storegen::probe_train(reenrolled, 61_000, 3);
    let snap = handle.load();
    let (fast, _) = both_paths(snap.as_ref(), &old_probe);
    check(
        fast == (AuthDecision::Accepted {
            user_id: reenrolled as usize,
        }),
        "pre-swap probe must hit the original template",
    );
    drop(snap);

    // Each iteration identifies one owner against a freshly loaded
    // snapshot and checks the prefiltered decision against the
    // exhaustive oracle on that same snapshot — valid on either side of
    // the swap.
    let parity_iter = |i: u64| {
        let user = storegen::splitmix(0xD1CE ^ i) % n as u64;
        if user == reenrolled {
            return;
        }
        let snap = handle.load();
        let train = storegen::probe_train(user, 71_000 + i * 4, 3);
        let (fast, slow) = both_paths(snap.as_ref(), &train);
        check(fast == slow, "prefilter != oracle during snapshot reload");
        check(
            fast == (AuthDecision::Accepted {
                user_id: user as usize,
            }),
            "probe not identified as its owner during reload",
        );
    };
    // A first batch strictly before the reload, then a batch racing a
    // publisher thread that reopens the directory — now including the
    // re-enrolment shard — and swaps it in mid-run, then a batch
    // strictly after.
    for i in 0..10 {
        parity_iter(i);
    }
    check(
        handle.epoch() == 0,
        "nobody published during the first batch",
    );
    let publisher = {
        let handle = Arc::clone(&handle);
        let dir = dir.to_path_buf();
        std::thread::spawn(move || {
            let reopened = run_or_exit(ShardStore::open_dir(&dir), "reload shard dir");
            check(reopened.shards().len() == 2, "reload must see both shards");
            check(
                reopened.user_count() == n,
                "re-enrolment must not change user count",
            );
            handle.publish(Arc::new(reopened));
        })
    };
    for i in 10..40 {
        parity_iter(i);
    }
    run_or_exit(
        publisher.join().map_err(|_| "publisher thread panicked"),
        "join publisher",
    );
    check(handle.epoch() == 1, "exactly one publish must have landed");
    for i in 40..50 {
        parity_iter(i);
    }

    // After the swap: newest shard wins — the old centroid no longer
    // names user 42, the salted one does.
    let snap = handle.load();
    check(
        snap.user_count() == n,
        "re-enrolment must not change user count",
    );
    let (fast, slow) = both_paths(snap.as_ref(), &old_probe);
    check(fast == slow, "prefilter != oracle after swap");
    check(
        fast != (AuthDecision::Accepted {
            user_id: reenrolled as usize,
        }),
        "old centroid still accepted after re-enrolment",
    );
    let new_probe: Vec<Vec<f64>> = (0..3u64)
        .map(|b| {
            storegen::probe(reenrolled, 81_000 + b)
                .iter()
                .map(|&v| v + 3.0)
                .collect()
        })
        .collect();
    let (fast, slow) = both_paths(snap.as_ref(), &new_probe);
    check(fast == slow, "prefilter != oracle on the re-enrolled user");
    check(
        fast == (AuthDecision::Accepted {
            user_id: reenrolled as usize,
        }),
        "salted centroid must name the re-enrolled user",
    );
    println!("  smoke: reload mid-run, oracle parity, newest-shard-wins, shard/memory agree");
}

fn main() {
    banner(
        "store_bench",
        "template store at population scale",
        "candidate lookup stays sub-ms at 1M users; prefiltered \
         decisions are bit-identical to the exhaustive oracle",
    );
    let dir = std::env::temp_dir().join(format!("echo-store-bench-{}", std::process::id()));
    run_or_exit(
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string()),
        "create tmp dir",
    );
    if quick_mode() {
        run_quick(&dir);
    } else {
        run_full(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nstore_bench: all checks passed");
    echo_bench::finish_metrics();
}
