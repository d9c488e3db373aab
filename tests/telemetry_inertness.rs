//! Proves the telemetry plane is inert: gauges and metrics derivation
//! observe the simulation without perturbing it.
//!
//! Three layers of the contract (DESIGN.md §13):
//!
//! 1. recorder-off, plain-traced, and gauge-traced runs put byte-identical
//!    traffic on the wire in identical virtual time;
//! 2. a plain `trace(true)` run records **zero** `GaugeSample` events, so
//!    the pre-telemetry golden fingerprints (serial_identity) are untouched
//!    by the existence of gauge instrumentation;
//! 3. deriving metrics / OpenMetrics from a recorded stream is pure
//!    analysis — it advances no clock and appends no event.

use byteexpress::{
    openmetrics, validate_openmetrics, Device, EventKind, ExecutionModel, MetricsRegistry,
    TransferMethod,
};

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
fn gauges_do_not_perturb_wire_or_virtual_time() {
    let off = wire_and_time(&run(|b| b));
    let traced = wire_and_time(&run(|b| b.trace(true)));
    let gauged = wire_and_time(&run(|b| b.trace_gauges(true)));
    assert_eq!(off, traced, "plain tracing must be inert");
    assert_eq!(off, gauged, "gauge sampling must be inert");
}

#[test]
fn plain_traced_run_records_zero_gauge_samples() {
    let dev = run(|b| b.trace(true));
    let gauge_events = dev
        .trace_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GaugeSample { .. }))
        .count();
    assert_eq!(
        gauge_events, 0,
        "trace(true) without trace_gauges must keep the historical event \
         stream (golden fingerprints depend on it)"
    );
    assert!(!dev.trace_sink().gauges_enabled());
}

#[test]
fn gauged_run_records_gauge_samples_on_top_of_the_plain_stream() {
    let plain = run(|b| b.trace(true)).trace_events();
    let gauged = run(|b| b.trace_gauges(true)).trace_events();
    let (gauge_events, other_events): (Vec<_>, Vec<_>) = gauged
        .into_iter()
        .partition(|e| matches!(e.kind, EventKind::GaugeSample { .. }));
    assert!(
        !gauge_events.is_empty(),
        "trace_gauges must record utilization samples"
    );
    // Removing the gauge samples recovers the plain traced stream exactly:
    // gauges are an overlay, not a reordering.
    assert_eq!(other_events, plain);
    for gauge in ["ctrl_sq_backlog", "driver_inflight", "ftl_journal_depth"] {
        assert!(
            gauge_events.iter().any(|e| matches!(
                e.kind,
                EventKind::GaugeSample { gauge: g, .. } if g == gauge
            )),
            "missing {gauge} samples"
        );
    }
}

/// Derivation from a recorded stream is the metrics registry and its
/// OpenMetrics exposition: the stream is the time series.
#[test]
fn timeseries_derivation_never_perturbs_virtual_time() {
    let dev = run(|b| b.trace_gauges(true));
    let before_now = dev.now();
    let events = dev.trace_events();
    let before_len = events.len();

    // The full analysis pipeline: metrics, OpenMetrics.
    let reg = MetricsRegistry::from_events(&events);
    let exposition = openmetrics(&reg);
    validate_openmetrics(&exposition).expect("exposition must validate");

    assert_eq!(dev.now(), before_now, "derivation must not advance time");
    assert_eq!(
        dev.trace_events().len(),
        before_len,
        "derivation must not append events"
    );

    // Derivation is deterministic over the same stream.
    assert_eq!(
        exposition,
        openmetrics(&MetricsRegistry::from_events(&events))
    );
}

/// A gauge's time series is its run of `GaugeSample` events; the registry
/// derived from the stream keeps the series' last sample.
#[test]
fn gauge_series_survive_into_the_derived_timeseries() {
    let dev = run(|b| b.trace_gauges(true));
    let events = dev.trace_events();
    let journal: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::GaugeSample {
                gauge: "ftl_journal_depth",
                scope: 0,
                value,
            } => Some(value),
            _ => None,
        })
        .collect();
    assert!(
        journal.iter().any(|&v| v > 0),
        "24 NAND writes must journal mappings"
    );
    let reg = MetricsRegistry::from_events(&events);
    assert_eq!(
        reg.gauge("ftl_journal_depth", 0),
        journal.last().copied(),
        "registry keeps the last journal-depth sample"
    );
}

/// The OpenMetrics exposition is a faithful view of the registry on the
/// busiest stream the recorder produces — a pipelined, gauged run: it
/// validates, carries counter families, and every family's total read back
/// from the text equals the registry's own total.
#[test]
fn openmetrics_totals_agree_with_registry_on_a_pipelined_gauged_trace() {
    let dev = run(|b| {
        b.execution_model(ExecutionModel::Pipelined)
            .trace_gauges(true)
    });
    let reg = MetricsRegistry::from_events(&dev.trace_events());
    let summary = validate_openmetrics(&openmetrics(&reg)).expect("exposition must validate");
    assert!(!summary.counter_totals.is_empty(), "no counter families");
    assert!(!summary.gauge_scopes.is_empty(), "no gauge families");
    for (name, total) in &summary.counter_totals {
        assert_eq!(*total, reg.counter_total(name), "family {name}");
    }
    assert_eq!(summary.counter_totals["commands_completed"], 24);
}
