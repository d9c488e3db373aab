//! A device's life-cycle pays for what the run touched, not for its
//! capacity — checked on memory, where it shows without a timer.
//!
//! Building a default `KvStore` reserves 256 MB of host memory, 64 MB of
//! device DRAM, a 128 K-page NAND slot table and a 96 K-entry L2P map; a
//! dozen PUTs dirty a few pages of them. The peak resident set of this
//! process (`VmHWM`) must stay near the second number through construction,
//! power cuts and recovery: a power cut that fills the DRAM, a map
//! initialised slot by slot or a slot table grown to the top die each put
//! the first number back.
//!
//! The file holds exactly one `#[test]` so the process is this life-cycle
//! and nothing else.

#![cfg(target_os = "linux")]

use bx_kvssd::{KvStore, KvStoreConfig};

/// Peak resident set size of this process, in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("VmHWM line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB")
}

#[test]
fn power_cycles_leave_the_peak_resident_set_near_what_the_run_touched() {
    const LIMIT_KB: u64 = 32 << 10;
    let mut store = KvStore::open(KvStoreConfig {
        durable_puts: true,
        ..KvStoreConfig::default()
    });
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..12u8)
        .map(|i| (format!("footprint-{i:02}").into_bytes(), vec![i + 1; 200]))
        .collect();
    for (key, value) in &pairs {
        store.put(key, value).expect("durable put");
    }
    for cycle in 0..8 {
        store.hard_power_cycle().expect("bring-up after the cut");
        for (key, value) in &pairs {
            let got = store.get(key).expect("get");
            assert_eq!(got.as_deref(), Some(&value[..]), "cycle {cycle}");
        }
    }
    let peak = vm_hwm_kb();
    assert!(
        peak < LIMIT_KB,
        "peak resident set {peak} kB after eight power cycles; the limit is {LIMIT_KB} kB"
    );
}
