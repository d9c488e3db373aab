//! Telemetry: watch the device work, without perturbing it.
//!
//! Runs a mixed ByteExpress workload with gauge sampling enabled
//! (`trace_gauges(true)`), then derives what the telemetry plane offers
//! from the recorded event stream: the metrics registry's last gauge
//! samples, and a Prometheus/OpenMetrics text exposition validated against
//! the registry. The observation is
//! provably inert — an identical run with the recorder off is re-executed
//! and its wire bytes and virtual clock are asserted equal.
//!
//! Run with: `cargo run --example telemetry --release`

use byteexpress::{openmetrics, validate_openmetrics, Device, MetricsRegistry, TransferMethod};

fn workload(dev: &mut Device) -> Result<(), byteexpress::DeviceError> {
    let queues = [dev.queues()[0], dev.queues()[1]];
    for round in 0..6u64 {
        let batch: Vec<(u64, Vec<u8>)> = (0..16u64)
            .map(|i| {
                let n = round * 16 + i;
                let len = 16 + ((n * 37) % 241) as usize;
                (n * 8, vec![(n % 256) as u8; len])
            })
            .collect();
        dev.write_batch(
            &[(queues[round as usize % 2], batch)],
            TransferMethod::ByteExpress,
        )?;
    }
    Ok(())
}

fn main() -> Result<(), byteexpress::DeviceError> {
    // Gauged run: the flight recorder samples occupancy at every
    // controller processing edge on top of the ordinary event stream.
    let mut dev = Device::builder()
        .nand_io(true)
        .queue_count(2)
        .trace_gauges(true)
        .build();
    workload(&mut dev)?;
    let events = dev.trace_events();
    let (gauged_wire, gauged_now) = (dev.traffic().total_bytes(), dev.now());

    // 96 writes over 2 queues -> one registry, last sample per gauge.
    let reg = MetricsRegistry::from_events(&events);
    println!("{} events; last gauge samples:\n", events.len());
    for (gauge, scope) in [
        ("ctrl_sq_backlog", 1),
        ("ctrl_sq_backlog", 2),
        ("ftl_journal_depth", 0),
        ("completions_in_flight", 0),
    ] {
        if let Some(value) = reg.gauge(gauge, scope) {
            println!("  {gauge:<24}[{scope}] {value}");
        }
    }

    // The same stream as a Prometheus exposition, independently re-parsed.
    let om = openmetrics(&reg);
    let summary = validate_openmetrics(&om).expect("exposition must validate");
    println!(
        "\nOpenMetrics: {} bytes, {} counter families, {} gauge families — validated",
        om.len(),
        summary.counter_totals.len(),
        summary.gauge_scopes.len()
    );
    let completed = summary.counter_totals["commands_completed"];
    assert_eq!(completed, reg.counter_total("commands_completed"));
    println!("  bx_commands_completed_total = {completed} (agrees with registry)");

    // Inertness: the identical workload with the recorder off puts the
    // same bytes on the wire in the same virtual time.
    let mut silent = Device::builder().nand_io(true).queue_count(2).build();
    workload(&mut silent)?;
    assert_eq!(silent.traffic().total_bytes(), gauged_wire);
    assert_eq!(silent.now(), gauged_now);
    println!(
        "\nInert: recorder-off run identical on wire ({gauged_wire} B) and clock ({gauged_now})"
    );
    Ok(())
}
