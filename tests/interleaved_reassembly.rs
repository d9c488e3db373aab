//! The §3.3.2 extension, exercised for real: with multiple submission
//! queues and the reassembly fetch policy, the controller interleaves chunk
//! fetches *across queues mid-transaction* — the exact behaviour the
//! queue-local design forbids — and the identifier-based engine still
//! reconstructs every payload.

use byteexpress::{Device, FetchPolicy, IoOpcode, PassthruCmd, Status, TransferMethod};

#[test]
fn chunks_interleave_across_queues() {
    let mut dev = Device::builder()
        .fetch_policy(FetchPolicy::Reassembly)
        .queue_count(4)
        .build();

    // Submit a multi-chunk write on every queue *before* letting the
    // controller run, so all four trains are pending simultaneously.
    let payloads: Vec<Vec<u8>> = (0..4)
        .map(|q| (0..500).map(|b| ((b + q * 31) % 251) as u8).collect())
        .collect();
    let qids: Vec<_> = dev.queues().to_vec();
    let mut cids = Vec::new();
    for (q, payload) in payloads.iter().enumerate() {
        let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, payload.clone());
        cmd.cdw10_15[0] = (q * 64) as u32; // distinct LBAs
        let submitted = dev
            .driver_mut()
            .submit(qids[q], &cmd, TransferMethod::ByteExpress)
            .unwrap();
        cids.push(submitted.cid);
    }

    // One controller drain handles all four queues round-robin.
    // (Device::passthru would drain after each submit; going through the
    // driver directly keeps the trains concurrent.)
    let completed = {
        // Controller access is only exposed immutably; drive it through a
        // no-op passthru on queue 0 after the fact instead.
        let mut flush = PassthruCmd::no_data(IoOpcode::Flush, 1);
        flush.cdw10_15[0] = 0;
        dev.passthru_on(qids[0], &flush, TransferMethod::Prp)
            .unwrap();
        dev.controller().stats().commands_completed
    };
    assert!(completed >= 5, "4 writes + flush, got {completed}");

    // The proof of interleaving: more than one payload was in flight in the
    // reassembly engine at once.
    assert!(
        dev.controller().reassembly().peak_inflight() > 1,
        "expected concurrent in-flight payloads, peak = {}",
        dev.controller().reassembly().peak_inflight()
    );
    assert_eq!(dev.controller().reassembly().completed_count(), 4);
    assert_eq!(dev.controller().reassembly().sram_used(), 0);

    // Collect completions from all queues and verify integrity.
    for (q, qid) in qids.iter().enumerate() {
        let mut completions = Vec::new();
        dev.driver_mut()
            .poll_completions_into(*qid, &mut completions)
            .unwrap();
        assert!(
            completions.iter().all(|c| c.status == Status::Success),
            "queue {q}: {completions:?}"
        );
    }
    for (q, payload) in payloads.iter().enumerate() {
        assert_eq!(
            dev.read((q * 64) as u64, payload.len()).unwrap(),
            *payload,
            "queue {q} payload corrupted by interleaved fetch"
        );
    }
}

#[test]
fn queue_local_policy_never_tracks_multiple_payloads() {
    // Control experiment: the same concurrent submissions under the
    // queue-local policy never touch the reassembly engine at all.
    let mut dev = Device::builder()
        .fetch_policy(FetchPolicy::QueueLocal)
        .queue_count(4)
        .build();
    let qids: Vec<_> = dev.queues().to_vec();
    for (q, qid) in qids.iter().enumerate() {
        let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, vec![q as u8; 500]);
        cmd.cdw10_15[0] = (q * 64) as u32;
        dev.driver_mut()
            .submit(*qid, &cmd, TransferMethod::ByteExpress)
            .unwrap();
    }
    let flush = PassthruCmd::no_data(IoOpcode::Flush, 1);
    dev.passthru_on(qids[0], &flush, TransferMethod::Prp)
        .unwrap();
    assert_eq!(dev.controller().reassembly().peak_inflight(), 0);
    for (q, _) in qids.iter().enumerate() {
        assert_eq!(dev.read((q * 64) as u64, 500).unwrap(), vec![q as u8; 500]);
    }
}
