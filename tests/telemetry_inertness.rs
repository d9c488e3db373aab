//! Proves telemetry is inert: the flight recorder and metrics derivation
//! observe the simulation without perturbing it.
//!
//! Two layers of the contract (DESIGN.md §13):
//!
//! 1. recorder-off and traced runs put byte-identical traffic on the wire
//!    in identical virtual time;
//! 2. deriving metrics, Perfetto JSON or a timeline from a recorded stream
//!    is pure analysis — it advances no clock and appends no event.

use byteexpress::{chrome_trace_json, timeline, Device, Event, MetricsRegistry, TransferMethod};

/// One fixed workload; returns the device after running it.
fn run(configure: impl FnOnce(byteexpress::DeviceBuilder) -> byteexpress::DeviceBuilder) -> Device {
    let mut dev = configure(
        Device::builder()
            .nand_io(true)
            .queue_count(2)
            .queue_depth(64),
    )
    .build();
    let queues = [dev.queues()[0], dev.queues()[1]];
    for round in 0..3u64 {
        let batch: Vec<(u64, Vec<u8>)> = (0..8u64)
            .map(|i| {
                let n = round * 8 + i;
                let len = 16 + ((n * 53) % 225) as usize;
                (
                    n * 8,
                    (0..len).map(|j| ((n as usize + j) % 256) as u8).collect(),
                )
            })
            .collect();
        dev.write_batch(
            &[(queues[round as usize % 2], batch)],
            TransferMethod::ByteExpress,
        )
        .expect("inertness workload must succeed");
    }
    dev
}

fn wire_and_time(dev: &Device) -> (u64, u64, u64) {
    let t = dev.traffic();
    (
        t.total_bytes(),
        t.non_doorbell_wire_bytes(),
        dev.now().as_ns(),
    )
}

#[test]
fn tracing_does_not_perturb_wire_or_virtual_time() {
    let off = wire_and_time(&run(|b| b));
    let traced = wire_and_time(&run(|b| b.trace(true)));
    assert_eq!(off, traced, "tracing must be inert");
}

/// Derivation from a recorded stream is the metrics registry and the
/// exporters: the stream is the time series.
#[test]
fn timeseries_derivation_never_perturbs_virtual_time() {
    let dev = run(|b| b.trace(true));
    let before_now = dev.now();
    let events = dev.trace_events();
    let before_len = events.len();

    // The full analysis pipeline: metrics, Perfetto JSON, timeline.
    let derive = |events: &[Event]| {
        (
            MetricsRegistry::from_events(events).to_string(),
            chrome_trace_json(events),
            timeline(events),
        )
    };
    let derived = derive(&events);
    assert_eq!(
        MetricsRegistry::from_events(&events).counter_total("commands_completed"),
        24
    );

    assert_eq!(dev.now(), before_now, "derivation must not advance time");
    assert_eq!(
        dev.trace_events().len(),
        before_len,
        "derivation must not append events"
    );

    // Derivation is deterministic over the same stream.
    assert_eq!(derived, derive(&events));
}
