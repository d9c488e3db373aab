//! The names `BENCHMARK.json` promises, as the program knows them. A test
//! holds the two in step.
//!
//! Source tags, as in `README.md`: `[C]` exact count from a public stats
//! struct, `[H]` host self-time from a harness span, `[L]` isolated ledger,
//! `[V]` virtual-time stage from the built-in recorder, `[S]` simulated
//! end-to-end value of the traced run's plain pass.

/// Workload names, in run order.
pub const WORKLOADS: [&str; 5] = [
    "fig5_qd1",
    "kv_mixed",
    "mq_reactor",
    "mq_reactor_nand",
    "crash_rebuild",
];

/// `(name, unit, better)` of the end-to-end metrics (`--trace 0`).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("host_ops_per_s", "1/s", "higher"),
    ("host_cpu_ns_per_op", "ns", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of the per-layer metrics (`--trace 1`).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // [S] simulated clock, end to end
    ("sim_iops", "sim_1/s", "higher"),
    ("sim_lat_p50_ns", "sim_ns", "lower"),
    ("sim_lat_p99_ns", "sim_ns", "lower"),
    ("sim_lat_mean_ns", "sim_ns", "lower"),
    ("sim_wire_bytes_per_op", "B", "lower"),
    ("sim_nand_write_amp", "ratio", "lower"),
    ("sim_paper_err_pct", "%", "lower"),
    // [C] pcie
    ("pcie.link.tlps_per_op", "count", "lower"),
    ("pcie.link.doorbell_tlps_per_op", "count", "lower"),
    ("pcie.link.h2d_bytes_per_op", "B", "lower"),
    ("pcie.link.d2h_bytes_per_op", "B", "lower"),
    ("pcie.link.payload_efficiency", "ratio", "higher"),
    // [C] driver
    ("driver.submissions_per_op", "count", "lower"),
    ("driver.doorbells_per_op", "count", "lower"),
    ("driver.chunks_per_op", "count", "lower"),
    ("driver.frags_per_op", "count", "lower"),
    ("driver.pages_mapped_per_op", "count", "lower"),
    ("driver.batch_flushes_per_op", "count", "lower"),
    ("driver.retries", "count", "lower"),
    ("driver.timeouts", "count", "lower"),
    ("driver.reactor.turns_per_op", "count", "lower"),
    ("driver.reactor.idle_advances_per_op", "count", "lower"),
    ("driver.reactor.orphaned", "count", "lower"),
    // [C] ssd
    ("ssd.controller.sqes_fetched_per_op", "count", "lower"),
    ("ssd.controller.chunks_fetched_per_op", "count", "lower"),
    ("ssd.controller.stalled_evictions", "count", "lower"),
    ("ssd.reassembly.peak_inflight", "count", "lower"),
    ("ssd.reassembly.evicted", "count", "lower"),
    ("ssd.nand.programs_per_op", "count", "lower"),
    ("ssd.nand.reads_per_op", "count", "lower"),
    ("ssd.nand.erases_per_op", "count", "lower"),
    ("ssd.ftl.gc_writes_per_host_write", "ratio", "lower"),
    ("ssd.ftl.gc_erases", "count", "lower"),
    ("ssd.journal.replayed_per_cycle", "count", "lower"),
    // [C] kvssd
    ("kvssd.get_hit_ratio", "ratio", "higher"),
    ("kvssd.flushes_per_kop", "count", "lower"),
    ("kvssd.value_bytes_per_put", "B", "lower"),
    // untraced per-method sub-rates (fig5_qd1)
    ("fig5.prp.host_ns_per_op", "ns", "lower"),
    ("fig5.bandslim.host_ns_per_op", "ns", "lower"),
    ("fig5.byteexpress.host_ns_per_op", "ns", "lower"),
    ("fig5.hybrid.host_ns_per_op", "ns", "lower"),
    // [H] harness spans
    ("driver.submit.host_ns", "ns", "lower"),
    ("driver.submit.prp.host_ns", "ns", "lower"),
    ("driver.submit.bandslim.host_ns", "ns", "lower"),
    ("driver.submit.byteexpress.host_ns", "ns", "lower"),
    ("driver.flush_sq.host_ns", "ns", "lower"),
    ("driver.poll.host_ns", "ns", "lower"),
    ("driver.reactor.turn.host_ns", "ns", "lower"),
    ("driver.reactor.poll_tasks.host_ns", "ns", "lower"),
    ("ssd.controller.process.host_ns", "ns", "lower"),
    ("ssd.power_cycle.host_ms", "ms", "lower"),
    ("core.device.write.self_ns", "ns", "lower"),
    ("core.device.build.host_ms", "ms", "lower"),
    ("kvssd.put.host_ns", "ns", "lower"),
    ("kvssd.get.host_ns", "ns", "lower"),
    ("kvssd.open.host_ms", "ms", "lower"),
    // [V] virtual-time stages
    ("sim.stage.driver_submit_ns", "sim_ns", "lower"),
    ("sim.stage.doorbell_ns", "sim_ns", "lower"),
    ("sim.stage.sqe_fetch_ns", "sim_ns", "lower"),
    ("sim.stage.data_fetch_ns", "sim_ns", "lower"),
    ("sim.stage.firmware_ns", "sim_ns", "lower"),
    ("sim.stage.nand_ns", "sim_ns", "lower"),
    ("sim.stage.cqe_ns", "sim_ns", "lower"),
    ("sim.table1.err_pct", "%", "lower"),
    // tracing overhead
    ("trace.overhead_pct", "%", "lower"),
    ("trace.events_per_op", "count", "lower"),
    ("trace.recorder_bytes_per_op", "B", "lower"),
    ("harness.timer_ns", "ns", "lower"),
    // [L] isolated ledger
    ("nvme.sqe.encode_ns", "ns", "lower"),
    ("nvme.sqe.decode_ns", "ns", "lower"),
    ("nvme.cqe.codec_ns", "ns", "lower"),
    ("nvme.chunk_header.codec_ns", "ns", "lower"),
    ("nvme.sqring.push_pop_ns", "ns", "lower"),
    ("nvme.prp.build_ns", "ns", "lower"),
    ("pcie.tlp.segment_ns", "ns", "lower"),
    ("pcie.link.device_read64_ns", "ns", "lower"),
    ("hostsim.mem.write64_ns", "ns", "lower"),
    ("hostsim.mem.read64_ns", "ns", "lower"),
    ("hostsim.mem.read4k_ns", "ns", "lower"),
    ("hostsim.mem.build_ms", "ms", "lower"),
    ("hostsim.event.push_pop_ns", "ns", "lower"),
    ("hostsim.clock.advance_ns", "ns", "lower"),
    ("ssd.reassembly.accept_ns", "ns", "lower"),
    ("ssd.nand.program_ns", "ns", "lower"),
    ("ssd.ftl.write_ns", "ns", "lower"),
    ("ssd.journal.append_ns", "ns", "lower"),
    ("workloads.mixgraph.next_ns", "ns", "lower"),
    ("workloads.zipf.sample_ns", "ns", "lower"),
    ("trace.emit_disabled_ns", "ns", "lower"),
    ("trace.emit_enabled_ns", "ns", "lower"),
    ("ledger.byteexpress_64b.host_ns_per_op", "ns", "lower"),
    ("ledger.glue_ns", "ns", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let doc = Value::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::harness::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                ok(name, "_.-", 64) && name.as_bytes()[0].is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(["higher", "lower"].contains(better));
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
