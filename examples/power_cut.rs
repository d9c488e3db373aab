//! Power-fail injection and crash-consistent recovery, end to end.
//!
//! Three acts. (1) Device level: a virtual-time power cut lands mid-write,
//! the device goes dark, `power_cycle()` replays the FTL mapping journal and
//! the acked write survives while the torn one is gone. (2) KV level with
//! default (volatile) staging: a hard cut honestly loses the staged tail —
//! clean absence, never torn bytes. (3) KV level with `durable_puts`: every
//! acked PUT survives the same cut bit-exact.
//!
//! Run with: `cargo run --example power_cut --release`

use bx_kvssd::{KvStore, KvStoreConfig};
use byteexpress::{Device, FaultConfig, RetryPolicy, TransferMethod};

fn main() {
    // --- Act 1: device-level cut and journal replay --------------------
    println!("=== power cut mid-write, then recovery ===");
    let mut dev = Device::builder()
        .nand_io(true)
        .retry_policy(RetryPolicy::default())
        .build();
    let acked = vec![0x5A; 512];
    dev.write(0, &acked, TransferMethod::ByteExpress)
        .expect("first write acks before the cut is armed");

    // Arm the countdown: the cut fires at the next controller event, which
    // lands inside the second write — after media dispatch, before the ack.
    dev.install_faults(FaultConfig {
        power_cut_after_events: Some(1),
    });
    let torn = dev.write(1, &[0xA5; 512], TransferMethod::ByteExpress);
    println!(
        "  in-flight write: {} | device dark: {} | cuts fired: {}",
        if torn.is_err() {
            "timed out (never acked)"
        } else {
            "acked?!"
        },
        dev.is_powered_off(),
        dev.fault_counters().power_cuts,
    );

    dev.disable_faults();
    let report = dev.power_cycle().expect("bring-up after power restore");
    println!(
        "  journal replay: {} records, {} torn, {} mappings recovered",
        report.replayed, report.torn_mappings, report.recovered_mappings
    );
    let back = dev.read(0, 512).expect("acked write must read back");
    println!(
        "  acked LBA 0 intact: {} | torn LBA 1 visible: {}",
        back == acked,
        dev.read(1, 512).is_ok(),
    );
    assert!(
        back == acked,
        "durable linearizability: acked data survives"
    );

    // --- Act 2: volatile staging loses the tail, honestly --------------
    println!("\n=== hard cut on a volatile-staging KV store ===");
    let mut volatile = KvStore::open(KvStoreConfig::default());
    for i in 0..120u32 {
        volatile
            .put(format!("k{i:03}").as_bytes(), &[(i % 251) as u8; 100])
            .unwrap();
    }
    volatile.hard_power_cycle().unwrap();
    let survived = (0..120u32)
        .filter(|i| {
            volatile
                .get(format!("k{i:03}").as_bytes())
                .unwrap()
                .is_some()
        })
        .count();
    println!("  acked PUTs surviving: {survived}/120 (staged tail lost, none torn)");

    // --- Act 3: durable_puts keeps every ack ---------------------------
    println!("\n=== same cut with durable (write-through) PUTs ===");
    let mut durable = KvStore::open(KvStoreConfig {
        durable_puts: true,
        ..Default::default()
    });
    for i in 0..120u32 {
        durable
            .put(format!("k{i:03}").as_bytes(), &[(i % 251) as u8; 100])
            .unwrap();
    }
    durable.hard_power_cycle().unwrap();
    let survived = (0..120u32)
        .filter(|i| {
            durable
                .get(format!("k{i:03}").as_bytes())
                .unwrap()
                .is_some()
        })
        .count();
    println!("  acked PUTs surviving: {survived}/120");
    assert_eq!(survived, 120, "durable mode: every acked PUT survives");
}
