//! Golden-file tests for the trace exporters.
//!
//! A fixed-seed 8-command run is exported through all three text exporters
//! — Perfetto/Chrome-trace JSON, the terminal timeline, and the OpenMetrics
//! exposition — and compared byte-for-byte against checked-in files under
//! `tests/golden/`. Exporter drift (renamed fields, reordered lines,
//! changed formatting) fails `cargo test` instead of waiting for eyeballs.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! BX_UPDATE_GOLDENS=1 cargo test --test golden_exports
//! ```
//!
//! then review the diff like any other code change.

use byteexpress::{
    chrome_trace_json, openmetrics, timeline, Device, MetricsRegistry, TransferMethod,
};
use std::path::PathBuf;

/// The fixed workload: 8 ByteExpress writes, deterministic payloads, one
/// queue. Gauges on, so the OpenMetrics golden also pins gauge families.
fn golden_events() -> Vec<byteexpress::Event> {
    let mut dev = Device::builder()
        .nand_io(true)
        .queue_count(1)
        .queue_depth(64)
        .trace_gauges(true)
        .build();
    let batch: Vec<(u64, Vec<u8>)> = (0..8u64)
        .map(|n| {
            let len = 16 + (n as usize * 29) % 225;
            (
                n * 8,
                (0..len).map(|j| ((n as usize + j) % 256) as u8).collect(),
            )
        })
        .collect();
    let q = dev.queues()[0];
    dev.write_batch(&[(q, batch)], TransferMethod::ByteExpress)
        .expect("golden writes must succeed");
    dev.trace_events()
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var("BX_UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run BX_UPDATE_GOLDENS=1 cargo test --test golden_exports \
             to create it)",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "{name} drifted from the checked-in golden; if the change is \
         intentional, regenerate with BX_UPDATE_GOLDENS=1 and review the diff"
    );
}

#[test]
fn perfetto_export_matches_golden() {
    check("perfetto.json", &chrome_trace_json(&golden_events()));
}

#[test]
fn timeline_export_matches_golden() {
    check("timeline.txt", &timeline(&golden_events()));
}

#[test]
fn openmetrics_export_matches_golden() {
    let reg = MetricsRegistry::from_events(&golden_events());
    check("openmetrics.txt", &openmetrics(&reg));
}

#[test]
fn golden_run_is_deterministic() {
    let a = golden_events();
    let b = golden_events();
    assert_eq!(a, b, "the golden workload must be bit-reproducible");
}
