//! KV-SSD durability semantics: batch PUT, graceful restart vs power loss,
//! and the batching-vs-fine-grained trade-off the paper's §2.2.1 discusses.

use bx_kvssd::{KvError, KvStore, KvStoreConfig};
use byteexpress::TransferMethod;

fn store() -> KvStore {
    KvStore::open(KvStoreConfig::default())
}

#[test]
fn batch_put_round_trip() {
    let mut s = store();
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
        .map(|i| {
            (
                format!("bk-{i:03}").into_bytes(),
                vec![(i % 251) as u8; 10 + i as usize],
            )
        })
        .collect();
    let refs: Vec<(&[u8], &[u8])> = pairs
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();
    let c = s.put_batch(&refs).unwrap();
    assert_eq!(c.result, 50);
    for (k, v) in &pairs {
        assert_eq!(s.get(k).unwrap().unwrap(), *v);
    }
    assert_eq!(s.device_stats().puts, 50, "batch reuses the PUT path");
}

#[test]
fn batch_put_moves_less_protocol_traffic_than_individual_puts() {
    // The §2.2.1 trade-off, quantified: one bulk command amortizes the
    // per-command protocol costs that individual fine-grained PUTs pay.
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..100)
        .map(|i| (format!("k{i:04}").into_bytes(), vec![7u8; 32]))
        .collect();
    let refs: Vec<(&[u8], &[u8])> = pairs
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();

    let mut batched = store();
    let before = batched.device().traffic();
    batched.put_batch(&refs).unwrap();
    let batch_traffic = batched.device().traffic().since(&before).total_bytes();

    let mut individual = store();
    individual.set_method(TransferMethod::ByteExpress);
    let before = individual.device().traffic();
    for (k, v) in &refs {
        individual.put(k, v).unwrap();
    }
    let indiv_traffic = individual.device().traffic().since(&before).total_bytes();

    assert!(
        batch_traffic < indiv_traffic / 2,
        "batching should amortize per-command overhead: {batch_traffic} vs {indiv_traffic}"
    );
}

#[test]
fn batch_rejects_oversized_entries() {
    let mut s = store();
    let long_key = vec![b'x'; 17];
    assert!(matches!(
        s.put_batch(&[(long_key.as_slice(), b"v")]),
        Err(KvError::KeyTooLong { len: 17 })
    ));
}

#[test]
fn graceful_restart_preserves_everything() {
    let mut s = store();
    for i in 0..300u32 {
        s.put(
            format!("g{i:04}").as_bytes(),
            format!("value-{i}").as_bytes(),
        )
        .unwrap();
    }
    let recovered = s.power_cycle(true).unwrap();
    assert_eq!(recovered, 300);
    for i in 0..300u32 {
        assert_eq!(
            s.get(format!("g{i:04}").as_bytes()).unwrap().unwrap(),
            format!("value-{i}").into_bytes()
        );
    }
}

#[test]
fn power_loss_drops_only_unflushed_staging_entries() {
    let mut s = store();
    // ~100-byte entries: ~34 per staging page. Write enough that most pages
    // flushed to NAND, with a partial page still staged at the "crash".
    let n = 200u32;
    for i in 0..n {
        s.put(format!("c{i:04}").as_bytes(), &[(i % 251) as u8; 100])
            .unwrap();
    }
    let flushes_before = s.device_stats().flushes;
    assert!(flushes_before > 0, "test needs some NAND-persisted pages");

    let recovered = s.power_cycle(false).unwrap();
    assert!(
        recovered < n && recovered > 0,
        "crash recovery should lose exactly the staged tail: {recovered}/{n}"
    );

    // Every recovered key returns correct bytes; lost keys are cleanly
    // absent (no torn reads).
    let mut present = 0;
    for i in 0..n {
        match s.get(format!("c{i:04}").as_bytes()).unwrap() {
            Some(v) => {
                assert_eq!(v, vec![(i % 251) as u8; 100], "key c{i:04} corrupted");
                present += 1;
            }
            None => {
                // Lost entries must be the *newest* ones (log suffix).
                assert!(
                    i >= recovered,
                    "old key c{i:04} lost while newer ones survived"
                );
            }
        }
    }
    assert_eq!(present, recovered);
}

#[test]
fn hard_power_cut_honest_volatility_vs_write_through_durability() {
    // Default config stages acked PUTs in controller DRAM: a *hard* power
    // cut (no graceful flush, volatile state destroyed) loses the staged
    // tail, and the store reports that honestly — correct bytes or clean
    // absence, never a torn read.
    let mut volatile = KvStore::open(KvStoreConfig::default());
    let n = 120u32;
    for i in 0..n {
        volatile
            .put(format!("h{i:04}").as_bytes(), &[(i % 251) as u8; 100])
            .unwrap();
    }
    volatile.hard_power_cycle().unwrap();
    let mut survived = 0;
    for i in 0..n {
        match volatile.get(format!("h{i:04}").as_bytes()).unwrap() {
            Some(v) => {
                assert_eq!(v, vec![(i % 251) as u8; 100], "key h{i:04} torn");
                survived += 1;
            }
            None => assert!(
                i >= survived,
                "old key h{i:04} lost while newer ones survived"
            ),
        }
    }
    assert!(
        survived < n,
        "volatile staging must lose the staged tail on a hard cut"
    );

    // `durable_puts` writes the staging page through to NAND before each
    // ack, so the same workload survives the same cut in full.
    let mut durable = KvStore::open(KvStoreConfig {
        durable_puts: true,
        ..Default::default()
    });
    for i in 0..n {
        durable
            .put(format!("h{i:04}").as_bytes(), &[(i % 251) as u8; 100])
            .unwrap();
    }
    let report = durable.hard_power_cycle().unwrap();
    assert_eq!(report.torn_mappings, 0, "quiescent cut tears nothing");
    for i in 0..n {
        assert_eq!(
            durable.get(format!("h{i:04}").as_bytes()).unwrap().unwrap(),
            vec![(i % 251) as u8; 100],
            "durable mode must keep every acked PUT through a hard cut"
        );
    }
}

#[test]
fn overwrites_resolve_to_newest_after_recovery() {
    let mut s = store();
    // Write each key twice with enough filler between versions that both
    // versions land in different (flushed) pages.
    for round in 0..2 {
        for i in 0..40u32 {
            s.put(
                format!("o{i:02}").as_bytes(),
                format!("round-{round}-value-{i}").as_bytes(),
            )
            .unwrap();
        }
        for f in 0..100u32 {
            s.put(format!("fill-{round}-{f:03}").as_bytes(), &[0u8; 80])
                .unwrap();
        }
    }
    s.power_cycle(true).unwrap();
    for i in 0..40u32 {
        assert_eq!(
            s.get(format!("o{i:02}").as_bytes()).unwrap().unwrap(),
            format!("round-1-value-{i}").into_bytes(),
            "log replay must keep the newest version"
        );
    }
}

/// Stores twenty 40 B values, deletes `k07`, restarts the store with
/// `restart`, and expects the key gone and its neighbours intact.
/// `flush_after_delete` pushes the tombstone out of the volatile staging
/// page first, for restarts that lose it.
fn deleted_key_stays_deleted(
    cfg: KvStoreConfig,
    flush_after_delete: bool,
    restart: impl FnOnce(&mut KvStore),
) {
    let mut s = KvStore::open(cfg);
    let key = |i: u32| format!("k{i:02}").into_bytes();
    for i in 0..20 {
        s.put(&key(i), &[i as u8 + 1; 40]).unwrap();
    }
    assert!(s.delete(&key(7)).unwrap());
    assert!(!s.delete(&key(7)).unwrap(), "already gone");
    if flush_after_delete {
        for f in 0..100u32 {
            s.put(format!("fill-{f:03}").as_bytes(), &[0xF1; 80])
                .unwrap();
        }
        assert!(s.device_stats().flushes >= 2, "tombstone must be on NAND");
    }
    restart(&mut s);
    assert_eq!(s.get(&key(7)).unwrap(), None, "deleted key came back");
    assert!(!s.delete(&key(7)).unwrap());
    for i in (0..20).filter(|&i| i != 7) {
        assert_eq!(s.get(&key(i)).unwrap().unwrap(), [i as u8 + 1; 40]);
    }
    // The key is free to be stored again.
    s.put(&key(7), b"again").unwrap();
    assert_eq!(s.get(&key(7)).unwrap().unwrap(), b"again");
}

#[test]
fn delete_survives_a_graceful_restart() {
    // The tombstone is still in the staging page, which a graceful restart
    // replays last.
    deleted_key_stays_deleted(KvStoreConfig::default(), false, |s| {
        s.power_cycle(true).unwrap();
    });
    deleted_key_stays_deleted(KvStoreConfig::default(), true, |s| {
        s.power_cycle(true).unwrap();
    });
}

#[test]
fn delete_survives_a_crash_once_its_tombstone_is_flushed() {
    deleted_key_stays_deleted(KvStoreConfig::default(), true, |s| {
        s.power_cycle(false).unwrap();
    });
}

#[test]
fn delete_survives_a_hard_power_cycle() {
    // Volatile staging: durable once flushed, like a PUT.
    deleted_key_stays_deleted(KvStoreConfig::default(), true, |s| {
        s.hard_power_cycle().unwrap();
    });
    // Write-through: durable at the ack.
    let durable = KvStoreConfig {
        durable_puts: true,
        ..Default::default()
    };
    deleted_key_stays_deleted(durable, false, |s| {
        s.hard_power_cycle().unwrap();
    });
}
