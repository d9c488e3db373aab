//! Power-cut chaos: one fixed workload loses power three times, each cut
//! armed at a different event index. Every cut catches one command in
//! flight; the driver waits out its deadline, the device power-cycles and
//! the workload carries on with the next cut armed.
//!
//! The power cut is the device's only fault. These tests check that the
//! flight recorder neither perturbs such a run nor loses track of it.

use byteexpress::{
    reconstruct_spans, CmdKey, Device, DeviceError, DriverError, Event, FaultConfig, FaultCounters,
    FetchPolicy, IoOpcode, Nanos, PassthruCmd, RecoveryReport, RecoveryStats, RetryPolicy,
    TransferMethod,
};

/// Event counts the successive cuts are armed at. Each is re-armed right
/// after the power cycle that follows the previous cut.
const CUTS: [u64; 3] = [37, 53, 71];

/// Writes the workload issues, cut ones included.
const WRITES: usize = 80;

fn write_cmd(lba: u64, data: Vec<u8>) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

/// A payload of 16..=240 B (1–5 reassembly chunks) keyed by the op index.
fn payload(i: usize) -> Vec<u8> {
    let len = 16 + (i * 37) % 225;
    (0..len).map(|j| (i * 131 + j) as u8).collect()
}

fn method(i: usize) -> TransferMethod {
    match i % 3 {
        0 => TransferMethod::ByteExpress,
        1 => TransferMethod::hybrid_default(),
        _ => TransferMethod::Prp,
    }
}

fn arm(dev: &Device, after_events: u64) {
    dev.install_faults(FaultConfig {
        power_cut_after_events: Some(after_events),
    });
}

/// What a chaos run leaves behind.
struct ChaosRun {
    traffic: String,
    now: Nanos,
    faults: FaultCounters,
    recovery: RecoveryStats,
    reports: Vec<RecoveryReport>,
    /// Span keys of the writes the driver acknowledged.
    acked: Vec<CmdKey>,
    events: Vec<Event>,
}

fn chaos_run(trace: bool) -> ChaosRun {
    let mut dev = Device::builder()
        .fetch_policy(FetchPolicy::Reassembly)
        .retry_policy(RetryPolicy::default())
        .trace(trace)
        .build();
    let mut cuts = CUTS.iter();
    arm(&dev, *cuts.next().unwrap());

    let mut acked = Vec::new();
    let mut reports = Vec::new();
    for i in 0..WRITES {
        match dev.passthru(&write_cmd(i as u64, payload(i)), method(i)) {
            Ok(c) => {
                assert!(c.status.is_success(), "write {i}: {:?}", c.status);
                acked.push(CmdKey::new(dev.queues()[0].0, c.cid));
            }
            Err(DeviceError::Driver(DriverError::Timeout { .. })) => {
                reports.push(dev.power_cycle().expect("bring-up after the cut"));
                if let Some(&next) = cuts.next() {
                    arm(&dev, next);
                }
            }
            Err(e) => panic!("write {i}: unexpected error {e}"),
        }
    }
    assert_eq!(
        reports.len(),
        CUTS.len(),
        "every cut lands inside the workload"
    );

    ChaosRun {
        traffic: format!("{:?}", dev.traffic()),
        now: dev.now(),
        faults: dev.fault_counters(),
        recovery: dev.recovery_stats(),
        reports,
        acked,
        events: dev.trace_events(),
    }
}

/// The flight recorder is inert under chaos: enabling it changes neither
/// the final virtual time nor a single wire byte of a run that loses power
/// three times mid-workload — the sink observes, it never participates.
#[test]
fn trace_recorder_is_inert_under_chaos() {
    let untraced = chaos_run(false);
    let traced = chaos_run(true);
    assert!(
        untraced.events.is_empty(),
        "an untraced run records nothing"
    );
    assert_eq!(
        untraced.faults.power_cuts,
        CUTS.len() as u64,
        "every cut fired"
    );
    assert_eq!(
        untraced.recovery.timeouts,
        CUTS.len() as u64,
        "each cut caught one command in flight"
    );
    assert_eq!(
        untraced.traffic, traced.traffic,
        "wire traffic must not change"
    );
    assert_eq!(untraced.now, traced.now, "virtual time must not change");
    assert_eq!(
        untraced.faults, traced.faults,
        "the cuts must land at the same events"
    );
    assert_eq!(
        untraced.recovery, traced.recovery,
        "recovery behaviour must not change"
    );
    assert_eq!(
        untraced.reports, traced.reports,
        "recovery must rebuild the same state"
    );
    assert_eq!(
        untraced.acked, traced.acked,
        "the same writes must be acked"
    );
}

/// A traced chaos run explains itself: every acknowledged write has a
/// complete submit → fetch → complete span, and each command a cut caught
/// in flight has a reaped one — no more, no fewer.
#[test]
fn traced_chaos_run_reconstructs_acked_spans() {
    let run = chaos_run(true);
    assert_eq!(
        run.acked.len(),
        WRITES - CUTS.len(),
        "every other write is acked"
    );
    assert!(
        !run.events.is_empty(),
        "the recorder must have captured the run"
    );

    let spans = reconstruct_spans(&run.events);
    for key in &run.acked {
        assert!(
            spans.iter().any(|s| s.key == *key && s.is_complete()),
            "no complete span for acknowledged command {key}"
        );
    }
    let reaped: Vec<_> = spans.iter().filter(|s| s.reaped).collect();
    assert_eq!(
        reaped.len(),
        CUTS.len(),
        "one reaped span per cut: {reaped:?}"
    );
    assert!(
        reaped.iter().all(|s| !s.is_complete()),
        "a command caught by a cut never completes"
    );
}
