//! The LSM engine through the full stack: correctness across transfer
//! methods, ordered range scans, and compaction-driven latency tails.

use bx_kvssd::{KvEngine, KvError, KvStore, KvStoreConfig};
use byteexpress::{LatencySamples, TransferMethod};

fn lsm_store(method: TransferMethod) -> KvStore {
    KvStore::open(KvStoreConfig {
        method,
        engine: KvEngine::Lsm,
        ..Default::default()
    })
}

#[test]
fn lsm_put_get_delete_through_all_methods() {
    for method in [
        TransferMethod::Prp,
        TransferMethod::BandSlim { embed_first: true },
        TransferMethod::ByteExpress,
    ] {
        let mut s = lsm_store(method);
        for i in 0..400u32 {
            s.put(format!("k{i:05}").as_bytes(), &[(i % 251) as u8; 90])
                .unwrap();
        }
        for i in (0..400u32).step_by(29) {
            assert_eq!(
                s.get(format!("k{i:05}").as_bytes()).unwrap().unwrap(),
                vec![(i % 251) as u8; 90],
                "{method}"
            );
        }
        assert!(s.delete(b"k00029").unwrap());
        assert_eq!(s.get(b"k00029").unwrap(), None);
        assert!(s.lsm_stats().flushes > 0, "{method}: data must reach runs");
    }
}

#[test]
fn range_scan_through_the_stack() {
    let mut s = lsm_store(TransferMethod::ByteExpress);
    for i in (0..300u32).rev() {
        s.put(
            format!("user{i:04}").as_bytes(),
            format!("profile-{i}").as_bytes(),
        )
        .unwrap();
    }
    s.delete(b"user0150").unwrap();

    let page = s.range(b"user0148", 5).unwrap();
    let keys: Vec<&[u8]> = page.iter().map(|(k, _)| k.as_slice()).collect();
    assert_eq!(
        keys,
        vec![
            &b"user0148"[..],
            b"user0149",
            b"user0151", // 0150 tombstoned
            b"user0152",
            b"user0153"
        ]
    );
    assert_eq!(page[0].1, b"profile-148");

    // Scanning from before the first key starts at the first key.
    let head = s.range(b"", 2).unwrap();
    assert_eq!(head[0].0, b"user0000");
    assert_eq!(s.lsm_stats().range_scans, 2);
}

#[test]
fn hashlog_engine_rejects_range_scans() {
    let mut s = KvStore::open(KvStoreConfig::default());
    s.put(b"a", b"1").unwrap();
    let err = s.range(b"", 10).unwrap_err();
    assert!(matches!(err, KvError::Device(_)), "{err}");
}

#[test]
fn compaction_shows_up_in_latency_tail() {
    // Fine-grained PUTs hit flush/compaction pauses — visible as a heavy
    // p99.9 relative to the median, the classic LSM signature.
    let mut s = lsm_store(TransferMethod::ByteExpress);
    let mut lat = LatencySamples::new();
    for i in 0..4000u32 {
        let c = s.put(format!("t{i:06}").as_bytes(), &[1u8; 100]).unwrap();
        lat.record(c.latency());
    }
    assert!(s.lsm_stats().compactions > 0);
    let p50 = lat.percentile(50.0);
    let p999 = lat.percentile(99.9);
    assert!(
        p999.as_ns() > p50.as_ns() * 10,
        "compaction pauses should dominate the tail: p50={p50} p99.9={p999}"
    );
}

#[test]
fn lsm_write_amplification_reported() {
    let mut s = lsm_store(TransferMethod::ByteExpress);
    for round in 0..30u8 {
        for i in 0..300u32 {
            s.put(format!("w{i:04}").as_bytes(), &[round; 120]).unwrap();
        }
    }
    let stats = s.lsm_stats();
    assert!(stats.compactions > 0);
    // Pages written exceed the live data set: write amplification exists
    // and is finite.
    let live_pages = (300 * (120 + 19)) / 4096 + 1;
    assert!(stats.pages_written as usize > live_pages * 2);
}

#[test]
fn lsm_memtable_does_not_survive_a_hard_power_cycle() {
    let mut s = lsm_store(TransferMethod::ByteExpress);
    let key = |i: u32| format!("vol{i:05}").into_bytes();
    let value = |i: u32| vec![(i % 251) as u8; 90];
    // Non-durable PUTs until two memtables have been flushed and a third is
    // part full. A flush happens before the PUT that overflowed the budget
    // is inserted, so that PUT's key is the first of the new memtable.
    let mut flushed = 0;
    let mut puts = 0;
    while s.lsm_stats().flushes < 2 || puts < flushed + 40 {
        let before = s.lsm_stats().flushes;
        s.put(&key(puts), &value(puts)).unwrap();
        if s.lsm_stats().flushes > before {
            flushed = puts;
        }
        puts += 1;
    }
    // An overwrite of a flushed key that is itself only in the memtable.
    s.put(&key(0), b"unflushed overwrite").unwrap();
    assert_eq!(s.lsm_stats().flushes, 2);

    let report = s.hard_power_cycle().unwrap();
    assert!(report.recovered_mappings > 0, "the runs' pages are on NAND");
    for i in 0..flushed {
        assert_eq!(s.get(&key(i)).unwrap(), Some(value(i)), "flushed key {i}");
    }
    for i in flushed..puts {
        assert_eq!(s.get(&key(i)).unwrap(), None, "unflushed key {i}");
    }
    // The device keeps working: new PUTs land and flush.
    for i in puts..puts + 400 {
        s.put(&key(i), &value(i)).unwrap();
    }
    assert!(s.lsm_stats().flushes > 2);
    assert_eq!(s.get(&key(puts)).unwrap(), Some(value(puts)));
    assert_eq!(s.get(&key(1)).unwrap(), Some(value(1)));
}
