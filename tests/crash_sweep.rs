//! Crash-schedule sweep: durable linearizability under power cuts.
//!
//! The contract (after "Durable Queues: The Second Amendment"): for ANY
//! crash point, every acknowledged PUT survives recovery bit-exact, the one
//! in-flight PUT is atomic — its key reads back as the previous acked value,
//! the new value, or (if never acked) not at all, never a torn hybrid — and
//! recovery is deterministic: the same seed and cut index always yield the
//! identical recovered store.
//!
//! The store runs the hash-log engine in write-through durable mode
//! (`durable_puts`), where the ack already implies journal + media
//! durability; the sweep arms the injector's virtual-time countdown at every
//! event index in turn, so the cut lands on every processing edge the
//! controller has: SQE fetch, chunk fetch, post-dispatch (media issued, ack
//! unposted), deferred CQE delivery.

use bx_kvssd::{KvStore, KvStoreConfig};
use byteexpress::{
    ExecutionModel, FaultConfig, FetchPolicy, RecoveryReport, RetryPolicy, TransferMethod,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Distinct keys the workload cycles through (overwrites included).
const KEYS: usize = 5;

fn key(i: usize) -> Vec<u8> {
    format!("crash-key-{:02}", i % KEYS).into_bytes()
}

fn value(seed: u64, i: usize) -> Vec<u8> {
    let len = 180 + ((seed as usize).wrapping_mul(31).wrapping_add(i * 97)) % 200;
    (0..len)
        .map(|j| (seed as usize).wrapping_add(i * 131 + j * 7) as u8)
        .collect()
}

/// Everything one crash schedule produced, for verification and the
/// determinism comparison.
#[derive(Debug, PartialEq)]
struct CrashRun {
    /// Last acked value per key.
    acked: BTreeMap<Vec<u8>, Vec<u8>>,
    /// The PUT that errored mid-flight, if the cut interrupted one.
    in_flight: Option<(Vec<u8>, Vec<u8>)>,
    cut_fired: bool,
    report: RecoveryReport,
    /// Post-recovery reads of every workload key.
    recovered: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
}

fn run_crash_schedule(
    seed: u64,
    cut_after: u64,
    execution: ExecutionModel,
    fetch: FetchPolicy,
    puts: usize,
) -> CrashRun {
    let mut store = KvStore::open(KvStoreConfig {
        method: TransferMethod::ByteExpress,
        execution,
        fetch,
        retry: Some(RetryPolicy::default()),
        durable_puts: true,
        ..Default::default()
    });
    // Arm after bring-up so the countdown indexes workload events only.
    store.device().install_faults(FaultConfig {
        power_cut_after_events: Some(cut_after),
        ..FaultConfig::disabled()
    });

    let mut acked = BTreeMap::new();
    let mut in_flight = None;
    for i in 0..puts {
        let (k, v) = (key(i), value(seed, i));
        match store.put(&k, &v) {
            Ok(_) => {
                acked.insert(k, v);
            }
            Err(_) => {
                // The cut interrupted this PUT; the device is dark now.
                in_flight = Some((k, v));
                break;
            }
        }
    }
    let cut_fired = store.device().fault_counters().power_cuts > 0;
    // Quiesce injection so recovery bring-up and verification reads can't
    // consume a still-pending countdown.
    store.device().disable_faults();
    let report = store.hard_power_cycle().expect("bring-up after power cut");

    let mut recovered = BTreeMap::new();
    for i in 0..KEYS {
        let k = key(i);
        let got = store.get(&k).expect("post-recovery read");
        recovered.insert(k, got);
    }
    CrashRun {
        acked,
        in_flight,
        cut_fired,
        report,
        recovered,
    }
}

/// The durable-linearizability check proper.
fn verify(run: &CrashRun, label: &str) {
    for (k, v) in &run.acked {
        let got = run.recovered.get(k).cloned().flatten();
        if let Some((ik, iv)) = &run.in_flight {
            if ik == k {
                // The interrupted PUT targeted an already-acked key: old or
                // new value, nothing in between.
                assert!(
                    got.as_ref() == Some(v) || got.as_ref() == Some(iv),
                    "{label}: in-flight overwrite of {:?} must be old or new value",
                    String::from_utf8_lossy(k),
                );
                continue;
            }
        }
        assert_eq!(
            got.as_ref(),
            Some(v),
            "{label}: acked key {:?} must survive bit-exact",
            String::from_utf8_lossy(k),
        );
    }
    if let Some((ik, iv)) = &run.in_flight {
        if !run.acked.contains_key(ik) {
            let got = run.recovered.get(ik).cloned().flatten();
            assert!(
                got.is_none() || got.as_ref() == Some(iv),
                "{label}: never-acked key {:?} must be absent or fully new, not torn",
                String::from_utf8_lossy(ik),
            );
        }
    }
    for (k, got) in &run.recovered {
        if !run.acked.contains_key(k) && run.in_flight.as_ref().map(|(ik, _)| ik) != Some(k) {
            assert!(
                got.is_none(),
                "{label}: key {:?} was never written, must not exist",
                String::from_utf8_lossy(k),
            );
        }
    }
}

/// Sweeps the cut across every event index until one schedule runs to
/// quiescence (the countdown never fires), verifying each recovered store.
/// Returns how many schedules actually crashed.
fn exhaustive_sweep(
    seed: u64,
    execution: ExecutionModel,
    fetch: FetchPolicy,
    puts: usize,
    cap: u64,
) -> u64 {
    for cut in 0..cap {
        let run = run_crash_schedule(seed, cut, execution, fetch, puts);
        verify(&run, &format!("{execution:?}/{fetch:?} cut={cut}"));
        if !run.cut_fired {
            assert_eq!(
                run.in_flight, None,
                "a schedule with no cut must ack every PUT"
            );
            assert_eq!(run.acked.len(), KEYS.min(puts), "all keys acked");
            // Every schedule before this one crashed.
            return cut;
        }
    }
    panic!("sweep never reached quiescence within {cap} schedules");
}

#[test]
fn serial_queue_local_cut_at_every_event_index() {
    let crashed = exhaustive_sweep(
        0xC0FFEE,
        ExecutionModel::Serial,
        FetchPolicy::QueueLocal,
        24,
        160,
    );
    assert!(
        crashed >= 24,
        "at least one cut point per PUT, got {crashed}"
    );
}

#[test]
fn pipelined_reassembly_cut_at_every_event_index() {
    // Reassembly mode adds per-chunk fetch events, so every cut index in
    // the middle of a chunk train exercises the torn-train discard path.
    let crashed = exhaustive_sweep(
        0xBEEF,
        ExecutionModel::Pipelined,
        FetchPolicy::Reassembly,
        10,
        400,
    );
    assert!(
        crashed >= 40,
        "cut points must cover chunk fetches, got {crashed}"
    );
}

#[test]
fn serial_reassembly_cut_at_every_event_index() {
    // Serial dispatch over per-chunk fetches: a cut inside a train lands
    // with no other command in flight to hide behind.
    let crashed = exhaustive_sweep(
        0xFACADE,
        ExecutionModel::Serial,
        FetchPolicy::Reassembly,
        10,
        400,
    );
    assert!(
        crashed >= 40,
        "cut points must cover chunk fetches, got {crashed}"
    );
}

#[test]
fn pipelined_queue_local_cut_at_every_event_index() {
    // Queue-local fetch under deferred completions: the cut can land
    // between a PUT's dispatch and the event that would have posted its CQE.
    let crashed = exhaustive_sweep(
        0xD15EA5E,
        ExecutionModel::Pipelined,
        FetchPolicy::QueueLocal,
        24,
        160,
    );
    assert!(
        crashed >= 24,
        "at least one cut point per PUT, got {crashed}"
    );
}

#[test]
fn recovery_is_deterministic_per_schedule() {
    for cut in [0u64, 3, 7, 13, 22, 31, 45] {
        let a = run_crash_schedule(
            42,
            cut,
            ExecutionModel::Pipelined,
            FetchPolicy::Reassembly,
            12,
        );
        let b = run_crash_schedule(
            42,
            cut,
            ExecutionModel::Pipelined,
            FetchPolicy::Reassembly,
            12,
        );
        assert_eq!(a, b, "same seed + cut {cut} must replay identically");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random (seed, cut index, config): the contract holds everywhere, and
    /// a re-run of the same schedule recovers the identical store.
    #[test]
    fn durable_linearizability_holds_for_random_schedules(
        seed in any::<u64>(),
        cut in 0u64..220,
        pipelined in any::<bool>(),
        reassembly in any::<bool>(),
    ) {
        let execution = if pipelined {
            ExecutionModel::Pipelined
        } else {
            ExecutionModel::Serial
        };
        let fetch = if reassembly {
            FetchPolicy::Reassembly
        } else {
            FetchPolicy::QueueLocal
        };
        let a = run_crash_schedule(seed, cut, execution, fetch, 14);
        verify(&a, &format!("prop {execution:?}/{fetch:?} cut={cut}"));
        let b = run_crash_schedule(seed, cut, execution, fetch, 14);
        prop_assert_eq!(a, b);
    }
}
