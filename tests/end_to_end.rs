//! Cross-crate integration tests: the full stack (driver → link → controller
//! → firmware → NAND) exercised through the public APIs.

use bx_csd::session::CsdConfig;
use bx_csd::{corpus, CsdSession, TaskEncoding};
use bx_kvssd::{KvStore, KvStoreConfig};
use bx_workloads::{FillRandom, MixGraph};
use byteexpress::{Device, DeviceError, DriverError, FetchPolicy, NandConfig, TransferMethod};

/// A NAND page larger than the 4 KB logical block holds one block, its tail
/// reading as zeros; a page that cannot hold a block is refused when the
/// device is built, not by failing every write after it.
#[test]
fn nand_pages_other_than_4k() {
    let nand = |page_size| NandConfig {
        page_size,
        ..NandConfig::small()
    };
    let mut dev = Device::builder().nand_config(nand(8192)).build();
    let sizes = [64, 4096, 3 * 4096 + 17];
    for (i, (len, method)) in sizes
        .into_iter()
        .zip([
            TransferMethod::ByteExpress,
            TransferMethod::Prp,
            TransferMethod::Prp,
        ])
        .enumerate()
    {
        let lba = i as u64 * 8;
        let data: Vec<u8> = (0..len).map(|b| (b * 13 + i) as u8).collect();
        dev.write(lba, &data, method).unwrap();
        assert_eq!(dev.read(lba, len).unwrap(), data, "{len} B by {method}");
    }
    for page_size in [0, 2048, 4095] {
        assert_eq!(
            Device::builder()
                .nand_config(nand(page_size))
                .try_build()
                .err(),
            Some(DeviceError::NandPageSize(page_size))
        );
    }
}

/// A train longer than the ring is refused whole, whatever its length: a
/// ByteExpress train of 65 535 chunks or more must not wrap its slot count
/// to a small number and overrun the ring, and a BandSlim train of 65 536
/// commands must place nothing, so the device keeps serving writes after.
#[test]
fn oversize_trains_are_refused_before_anything_is_placed() {
    let too_large = |r: Result<_, DeviceError>, len: usize| match r {
        Err(DeviceError::Driver(DriverError::PayloadTooLarge { len: l, .. })) => {
            assert_eq!(l, len)
        }
        other => panic!("{len} B: expected PayloadTooLarge, got {other:?}"),
    };
    for policy in [FetchPolicy::QueueLocal, FetchPolicy::Reassembly] {
        let mut dev = Device::builder()
            .nand_io(false)
            .fetch_policy(policy)
            .build();
        // 65 536 and 65 535 queue-local chunks.
        for len in [4_194_304, 4_194_240] {
            too_large(
                dev.write(0, &vec![7; len], TransferMethod::ByteExpress),
                len,
            );
        }
        // A head plus 65 535 fragments, embedding in the head or not.
        for (embed_first, len) in [(true, 32 + 48 * 65_535), (false, 48 * 65_535)] {
            let method = TransferMethod::BandSlim { embed_first };
            too_large(dev.write(0, &vec![7; len], method), len);
        }
        for method in [
            TransferMethod::ByteExpress,
            TransferMethod::BandSlim { embed_first: true },
        ] {
            let done = dev
                .write(1, &[9; 64], method)
                .expect("the queue still serves");
            assert!(done.status.is_success());
        }
    }
}

#[test]
fn block_device_all_methods_integrity() {
    let mut dev = Device::builder().build();
    let methods = [
        TransferMethod::Prp,
        TransferMethod::Sgl,
        TransferMethod::BandSlim { embed_first: true },
        TransferMethod::ByteExpress,
        TransferMethod::hybrid_default(),
    ];
    for (i, method) in methods.iter().enumerate() {
        let lba = (i * 64) as u64;
        let data: Vec<u8> = (0..777).map(|b| ((b * 7 + i) % 256) as u8).collect();
        dev.write(lba, &data, *method).unwrap();
        assert_eq!(dev.read(lba, 777).unwrap(), data, "{method}");
    }
}

#[test]
fn kv_store_mixgraph_traffic_ordering() {
    // Fig 6(a)'s orderings on a scaled-down run: BandSlim has the lowest
    // traffic (sub-32 B values ride in one command), ByteExpress more than
    // BandSlim but far less than PRP; ByteExpress has the best throughput.
    let run = |method| {
        let mut store = KvStore::open(KvStoreConfig {
            method,
            nand_io: true,
            ..Default::default()
        });
        let t0 = store.now();
        let before = store.device().traffic();
        for op in MixGraph::with_defaults().take(3000) {
            store.put(&op.key, &op.value).unwrap();
        }
        let traffic = store.device().traffic().since(&before).total_bytes();
        let elapsed = store.now() - t0;
        (traffic, 3000.0 / elapsed.as_secs_f64())
    };

    let (prp_traffic, prp_tput) = run(TransferMethod::Prp);
    let (bs_traffic, bs_tput) = run(TransferMethod::BandSlim { embed_first: true });
    let (bx_traffic, bx_tput) = run(TransferMethod::ByteExpress);

    assert!(
        bx_traffic < prp_traffic / 10,
        "BX should cut >90% of PRP traffic: {bx_traffic} vs {prp_traffic}"
    );
    assert!(
        bs_traffic < bx_traffic,
        "BandSlim wins traffic on MixGraph (paper: BX is ~1.75x BandSlim): {bs_traffic} vs {bx_traffic}"
    );
    // The lower edge sits near the simulated operating point (~1.2) and is
    // sensitive to the exact RNG stream behind MixGraph's value sizes, so it
    // gets a little slack; the strict orderings above are the paper's claims.
    let ratio = bx_traffic as f64 / bs_traffic as f64;
    assert!(
        (1.1..=2.2).contains(&ratio),
        "BX/BandSlim traffic ratio {ratio:.2} out of the paper's band (~1.75)"
    );
    assert!(
        bx_tput > bs_tput,
        "BX throughput should exceed BandSlim (paper: ~8%): {bx_tput:.0} vs {bs_tput:.0}"
    );
    assert!(bx_tput > prp_tput, "BX should beat PRP throughput");
}

#[test]
fn kv_store_fillrandom_byteexpress_wins_both() {
    // Fig 6(b): with fixed 128 B values, ByteExpress beats BandSlim on
    // traffic *and* throughput.
    let run = |method| {
        let mut store = KvStore::open(KvStoreConfig {
            method,
            nand_io: true,
            ..Default::default()
        });
        let t0 = store.now();
        let before = store.device().traffic();
        for op in FillRandom::paper_default().take(2000) {
            store.put(&op.key, &op.value).unwrap();
        }
        let traffic = store.device().traffic().since(&before).total_bytes();
        (traffic, 2000.0 / (store.now() - t0).as_secs_f64())
    };
    let (bs_traffic, bs_tput) = run(TransferMethod::BandSlim { embed_first: true });
    let (bx_traffic, bx_tput) = run(TransferMethod::ByteExpress);
    assert!(bx_traffic < bs_traffic, "{bx_traffic} vs {bs_traffic}");
    assert!(bx_tput > bs_tput, "{bx_tput:.0} vs {bs_tput:.0}");
}

#[test]
fn kv_get_returns_what_any_method_put() {
    for method in [
        TransferMethod::Prp,
        TransferMethod::BandSlim { embed_first: true },
        TransferMethod::ByteExpress,
    ] {
        let mut store = KvStore::open(KvStoreConfig {
            method,
            ..Default::default()
        });
        let ops: Vec<_> = MixGraph::with_defaults().take(500).collect();
        for op in &ops {
            store.put(&op.key, &op.value).unwrap();
        }
        // Last write per key wins.
        let mut last = std::collections::HashMap::new();
        for op in &ops {
            last.insert(op.key.clone(), op.value.clone());
        }
        for (key, value) in &last {
            assert_eq!(
                store.get(key).unwrap().as_deref(),
                Some(value.as_slice()),
                "{method}"
            );
        }
    }
}

#[test]
fn csd_corpus_executes_consistently_across_methods_and_encodings() {
    for q in corpus() {
        let mut session = CsdSession::open(CsdConfig::default());
        session.create_table(&q.schema).unwrap();
        let table = q.generate_rows(2000, 3);
        session.load_rows(&q.schema, &table).unwrap();

        let mut matches = Vec::new();
        for encoding in [TaskEncoding::FullSql, TaskEncoding::Segment] {
            for method in [
                TransferMethod::Prp,
                TransferMethod::BandSlim { embed_first: false },
                TransferMethod::ByteExpress,
            ] {
                let report = session
                    .pushdown(&q.full_sql, q.table, &q.predicate, encoding, method)
                    .unwrap();
                matches.push(report.matches);
            }
        }
        assert!(
            matches.windows(2).all(|w| w[0] == w[1]),
            "{}: match counts diverge across methods/encodings: {matches:?}",
            q.name
        );
        assert!(matches[0] > 0, "{}: predicate matched nothing", q.name);

        // The fetched rows are exactly the ones the host-side evaluator
        // keeps from the loaded table, in load order: every returned row
        // satisfies the predicate, and none that does is missing.
        let pred = bx_csd::parse_predicate(&q.predicate).unwrap();
        let rows = session.fetch_results(&q.schema).unwrap();
        assert_eq!(rows.len(), matches[0] as usize);
        let kept: Vec<_> = table
            .iter()
            .filter(|row| {
                bx_csd::eval(&pred, &q.schema, row, bx_csd::UnknownColumn::Error).unwrap()
            })
            .cloned()
            .collect();
        assert_eq!(
            rows, kept,
            "{}: fetched rows differ from the host filter",
            q.name
        );
    }
}

#[test]
fn reassembly_policy_equivalent_to_queue_local() {
    let payloads: Vec<Vec<u8>> = (1..60)
        .map(|i| (0..i * 17).map(|b| (b % 253) as u8).collect())
        .collect();
    let mut results = Vec::new();
    for policy in [FetchPolicy::QueueLocal, FetchPolicy::Reassembly] {
        let mut dev = Device::builder().fetch_policy(policy).build();
        for (i, p) in payloads.iter().enumerate() {
            dev.write(i as u64 * 8, p, TransferMethod::ByteExpress)
                .unwrap();
        }
        let read_back: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| dev.read(i as u64 * 8, p.len()).unwrap())
            .collect();
        results.push(read_back);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], payloads);
}

#[test]
fn hybrid_matches_constituents_exactly() {
    // Below the threshold the hybrid must produce byte-identical traffic to
    // pure ByteExpress; above, to pure PRP.
    let measure = |method: TransferMethod, size: usize| {
        let mut dev = Device::builder().nand_io(false).build();
        let report = dev.measure_writes(50, size, method).unwrap();
        report.traffic.total_bytes()
    };
    let hybrid = TransferMethod::Hybrid { threshold: 256 };
    assert_eq!(
        measure(hybrid, 128),
        measure(TransferMethod::ByteExpress, 128)
    );
    assert_eq!(measure(hybrid, 512), measure(TransferMethod::Prp, 512));
}

#[test]
fn traffic_counters_are_conserved() {
    // Wire bytes must exceed payload bytes, and per-class payload accounting
    // must match what was actually sent.
    let mut dev = Device::builder().nand_io(false).build();
    let report = dev
        .measure_writes(100, 200, TransferMethod::ByteExpress)
        .unwrap();
    assert!(report.traffic.total_bytes() > report.payload_bytes);
    // 200 B → 4 chunks of 64 B → 256 B fetched per op through the SQE class
    // (plus the command itself).
    let sqe = report.traffic.class(byteexpress::TrafficClass::SqeFetch);
    assert_eq!(sqe.payload_bytes, 100 * (4 + 1) * 64);
}
