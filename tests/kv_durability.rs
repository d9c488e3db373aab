//! KV-SSD durability semantics: what a power cycle keeps with volatile
//! staging vs write-through PUTs, DELETE's tombstones across restarts, and a
//! command the firmware does not decode failing without touching what is
//! stored.

use bx_kvssd::{KvError, KvStore, KvStoreConfig};
use byteexpress::{DeviceError, DriverError, IoOpcode, PassthruCmd, Status, TransferMethod};

fn store() -> KvStore {
    KvStore::open(KvStoreConfig::default())
}

fn durable() -> KvStoreConfig {
    KvStoreConfig {
        durable_puts: true,
        ..Default::default()
    }
}

/// Stores `n` keys of 100 B (~34 entries per staging page), power-cycles
/// the store and reads every key back: a survivor returns its own bytes (no
/// torn reads) and the lost keys are the newest ones — a suffix of the log.
/// Returns how many survived.
fn survivors_of_a_power_cycle(cfg: KvStoreConfig, n: u32) -> u32 {
    let mut s = KvStore::open(cfg);
    for i in 0..n {
        s.put(format!("c{i:04}").as_bytes(), &[(i % 251) as u8; 100])
            .unwrap();
    }
    assert!(s.device_stats().flushes > 0, "needs NAND-persisted pages");
    let report = s.hard_power_cycle().unwrap();
    assert_eq!(report.torn_mappings, 0, "quiescent cut tears nothing");
    let mut survived = 0;
    for i in 0..n {
        match s.get(format!("c{i:04}").as_bytes()).unwrap() {
            Some(v) => {
                assert_eq!(v, vec![(i % 251) as u8; 100], "key c{i:04} torn");
                survived += 1;
            }
            None => assert!(
                i >= survived,
                "old key c{i:04} lost while newer ones survived"
            ),
        }
    }
    survived
}

#[test]
fn durable_restart_preserves_everything() {
    assert_eq!(survivors_of_a_power_cycle(durable(), 300), 300);
}

#[test]
fn power_loss_drops_only_unflushed_staging_entries() {
    // Most pages flushed to NAND, a partial page still staged at the cut.
    let survived = survivors_of_a_power_cycle(KvStoreConfig::default(), 200);
    assert!(
        survived > 0 && survived < 200,
        "a power loss should lose exactly the staged tail: {survived}/200"
    );
}

#[test]
fn hard_power_cut_honest_volatility_vs_write_through_durability() {
    // Default config stages acked PUTs in controller DRAM: a power cut
    // loses the staged tail, and the store reports that honestly.
    assert!(survivors_of_a_power_cycle(KvStoreConfig::default(), 120) < 120);
    // `durable_puts` writes the staging page through to NAND before each
    // ack, so the same workload survives the same cut in full.
    assert_eq!(survivors_of_a_power_cycle(durable(), 120), 120);
}

#[test]
fn overwrites_resolve_to_newest_after_recovery() {
    let mut s = KvStore::open(durable());
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
    s.hard_power_cycle().unwrap();
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
fn delete_survives_a_crash_once_its_tombstone_is_flushed() {
    // Volatile staging: durable once flushed, like a PUT.
    deleted_key_stays_deleted(KvStoreConfig::default(), true, |s| {
        s.hard_power_cycle().unwrap();
    });
}

#[test]
fn delete_survives_a_hard_power_cycle() {
    // Write-through: durable at the ack, whether the tombstone is still in
    // the frontier page or already flushed.
    for flush_after_delete in [false, true] {
        deleted_key_stays_deleted(durable(), flush_after_delete, |s| {
            s.hard_power_cycle().unwrap();
        });
    }
}

#[test]
fn frontier_page_survives_two_power_cycles_in_a_row() {
    // Acked durable PUTs and a DELETE that never left the written-through
    // frontier page: the first recovery must re-derive the log frontier so
    // that the second finds the same page — nothing lost, nothing
    // resurrected.
    let mut s = KvStore::open(durable());
    s.put(b"kept", b"v1").unwrap();
    s.put(b"gone", b"v2").unwrap();
    assert!(s.delete(b"gone").unwrap());
    assert_eq!(s.device_stats().flushes, 0, "everything is in the frontier");
    for cycle in 1..=2 {
        s.hard_power_cycle().unwrap();
        assert_eq!(s.get(b"kept").unwrap().unwrap(), b"v1", "cycle {cycle}");
        assert_eq!(s.get(b"gone").unwrap(), None, "cycle {cycle}");
    }
    // The log keeps growing from the recovered frontier.
    s.put(b"later", b"v3").unwrap();
    s.hard_power_cycle().unwrap();
    assert_eq!(s.get(b"kept").unwrap().unwrap(), b"v1");
    assert_eq!(s.get(b"later").unwrap().unwrap(), b"v3");
    assert_eq!(s.get(b"gone").unwrap(), None);
}

#[test]
fn all_zero_log_entry_is_rejected_and_hides_nothing() {
    // An empty key with an empty value is an all-zero header — what replay
    // takes for the end of a page. It never reaches the log: the driver
    // refuses a PUT with no payload (and the firmware refuses the header,
    // a guard its unit tests drive).
    let mut s = KvStore::open(durable());
    let err = s.put(b"", b"").unwrap_err();
    assert_eq!(
        err,
        KvError::Device(DeviceError::Driver(DriverError::EmptyPayload))
    );
    // An empty key alone is a distinguishable header: replay steps past it
    // and indexes the entry that follows it in the log.
    s.put(b"", b"x").unwrap();
    s.put(b"k", b"v").unwrap();
    s.hard_power_cycle().unwrap();
    assert_eq!(s.get(b"k").unwrap().unwrap(), b"v");
    assert_eq!(s.get(b"").unwrap().unwrap(), b"x");
}

#[test]
fn undecoded_vendor_opcode_is_rejected_and_the_store_keeps_working() {
    let mut s = store();
    s.put(b"a", b"1").unwrap();
    // The KV vendor block past DELETE, the last opcode the firmware
    // decodes — the retired iterator (0xC4) and batch PUT (0xC5) among them
    // — up to BandSlim's fragment opcode (0xCF), which the controller
    // consumes.
    for opcode in 0xC4..0xCF {
        let mut cmd = PassthruCmd::from_device(IoOpcode::KvGet, 1, 64);
        cmd.opcode = opcode;
        let done = s.device_mut().passthru(&cmd, TransferMethod::Prp).unwrap();
        assert_eq!(done.status, Status::InvalidOpcode, "opcode {opcode:#x}");
    }
    assert_eq!(s.get(b"a").unwrap().unwrap(), b"1");
    s.put(b"b", b"2").unwrap();
    assert_eq!(s.get(b"b").unwrap().unwrap(), b"2");
}
