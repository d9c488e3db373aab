//! A device's life-cycle pays for what the run touched, not for its
//! capacity — checked on memory, where it shows without a timer.
//!
//! Building a default `KvStore` configures 256 MB of host memory, 64 MB of
//! device DRAM, a 128 K-page NAND slot table and a 96 K-entry L2P map; a
//! dozen PUTs dirty a few pages of them. Two checks hold the rule:
//!
//! * the largest single heap request from open through twelve PUTs, eight
//!   power cycles and drop stays under 256 KB — a counting
//!   `#[global_allocator]` records it. A memory allocated whole, a DRAM
//!   remapped by a power cut or an L2P map sized to the exported capacity
//!   each ask for more;
//! * the peak resident set of this process (`VmHWM`) stays near what the
//!   run touched: a power cut that fills the DRAM, a map initialised slot
//!   by slot or a slot table grown to the top die each put capacity back.
//!
//! The file holds exactly one `#[test]` so the process is this life-cycle
//! and nothing else.

#![cfg(target_os = "linux")]
#![allow(
    unsafe_code,
    reason = "a counting #[global_allocator] has to implement the unsafe GlobalAlloc trait; every method only forwards to System"
)]

use bx_kvssd::{KvStore, KvStoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Delegates to `System`, recording the largest request while `ARMED` is set.
struct LargestRequest;

static ARMED: AtomicBool = AtomicBool::new(false);
/// The largest size asked of `alloc`, `alloc_zeroed` or `realloc`.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

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
    const LARGEST_LIMIT: usize = 256 << 10;
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..12u8)
        .map(|i| (format!("footprint-{i:02}").into_bytes(), vec![i + 1; 200]))
        .collect();
    ARMED.store(true, Ordering::SeqCst);
    let mut store = KvStore::open(KvStoreConfig {
        durable_puts: true,
        ..KvStoreConfig::default()
    });
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
    drop(store);
    ARMED.store(false, Ordering::SeqCst);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest < LARGEST_LIMIT,
        "a {largest} B heap request over the life-cycle; the limit is {LARGEST_LIMIT} B"
    );
    let peak = vm_hwm_kb();
    assert!(
        peak < LIMIT_KB,
        "peak resident set {peak} kB after eight power cycles; the limit is {LIMIT_KB} kB"
    );
}
