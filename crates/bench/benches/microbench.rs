//! Criterion microbenchmarks of the hot paths: protocol codecs, the submit
//! engines, and one full command round trip per transfer method.

use bx_ssd::ReassemblyEngine;
use bx_workloads::MixGraph;
use byteexpress::{
    nvme, Device, ExecutionModel, Nanos, QueueBatch, QueueId, SubmissionEntry, TransferMethod,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_sqe_codec(c: &mut Criterion) {
    let mut sqe = SubmissionEntry::io(byteexpress::IoOpcode::Write, 42, 1);
    sqe.set_slba(1234);
    sqe.set_data_len(4096);
    let wire = sqe.to_bytes();
    c.bench_function("sqe_encode", |b| b.iter(|| black_box(sqe).to_bytes()));
    c.bench_function("sqe_decode", |b| {
        b.iter(|| SubmissionEntry::from_bytes(black_box(&wire)))
    });
}

fn bench_chunk_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("inline_chunks");
    for size in [64usize, 256, 1024, 4096] {
        let payload = vec![0xA5u8; size];
        group.bench_with_input(BenchmarkId::new("encode", size), &payload, |b, p| {
            b.iter(|| nvme::inline::encode_chunks(black_box(p)))
        });
        let chunks = nvme::inline::encode_chunks(&payload);
        group.bench_with_input(BenchmarkId::new("decode", size), &chunks, |b, ch| {
            b.iter(|| nvme::inline::decode_chunks(black_box(ch), size))
        });
    }
    group.finish();
}

fn bench_write_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_write_64B");
    group.sample_size(50);
    for (name, method) in [
        ("prp", TransferMethod::Prp),
        ("bandslim", TransferMethod::BandSlim { embed_first: true }),
        ("byteexpress", TransferMethod::ByteExpress),
        ("hybrid", TransferMethod::hybrid_default()),
    ] {
        group.bench_function(name, |b| {
            let mut dev = Device::builder().nand_io(false).build();
            let data = vec![0x5Au8; 64];
            let mut lba = 0u64;
            b.iter(|| {
                lba = (lba + 16) % 4096;
                dev.write(black_box(lba), black_box(&data), method).unwrap()
            });
        });
    }
    group.finish();
}

/// Out-of-order reassembly accept: a full 4-chunk train (224 B payload)
/// through `accept_at`, completion buffer recycled back into the engine's
/// pool so the steady state is allocation-free.
fn bench_reassembly_accept(c: &mut Criterion) {
    let mut group = c.benchmark_group("reassembly");
    for &total in &[1u16, 4, 16] {
        group.bench_function(&format!("accept_{total}_chunks"), |b| {
            let mut engine = ReassemblyEngine::new(1 << 20);
            let chunk = [0xC3u8; nvme::inline::REASSEMBLY_CHUNK_PAYLOAD];
            let mut id = 0u32;
            b.iter(|| {
                id = id.wrapping_add(1).max(1);
                let mut done = None;
                // Reverse order: every chunk but the last is out-of-order.
                for chunk_no in (0..total).rev() {
                    let hdr = nvme::inline::ChunkHeader {
                        payload_id: id,
                        chunk_no,
                        total,
                    };
                    done = engine
                        .accept_at(black_box(hdr), black_box(&chunk), Nanos::ZERO)
                        .unwrap();
                }
                let payload = done.expect("train must complete");
                engine.recycle(payload.data);
            });
        });
    }
    group.finish();
}

/// Pipelined dispatch: one batch of 32 ByteExpress writes across 4 queues
/// per iteration, NAND off, on a device reused across iterations — the
/// submit→complete engine in steady state.
fn bench_pipelined_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipelined_dispatch");
    group.sample_size(50);
    group.bench_function("batch_32x4q", |b| {
        let mut dev = Device::builder()
            .nand_io(false)
            .queue_count(4)
            .queue_depth(64)
            .execution_model(ExecutionModel::Pipelined)
            .build();
        let queues: Vec<QueueId> = dev.queues().to_vec();
        let data = vec![0x5Au8; 64];
        let batches: Vec<QueueBatch> = queues
            .iter()
            .map(|&qid| (qid, (0..8).map(|i| (i * 8, data.clone())).collect()))
            .collect();
        b.iter(|| {
            dev.write_batch(black_box(&batches), TransferMethod::ByteExpress)
                .unwrap()
        });
    });
    group.finish();
}

fn bench_kv_put(c: &mut Criterion) {
    use bx_kvssd::{KvStore, KvStoreConfig};
    let mut group = c.benchmark_group("kv_put_mixgraph");
    group.sample_size(50);
    for (name, method) in [
        ("prp", TransferMethod::Prp),
        ("byteexpress", TransferMethod::ByteExpress),
    ] {
        group.bench_function(name, |b| {
            let mut store = KvStore::open(KvStoreConfig {
                method,
                nand_io: true,
                ..Default::default()
            });
            let mut gen = MixGraph::with_defaults();
            b.iter(|| {
                let op = gen.next_put();
                store.put(black_box(&op.key), black_box(&op.value)).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_sql_parse(c: &mut Criterion) {
    let q1 = "SELECT l_returnflag, l_linestatus, sum(l_quantity), count(*) FROM lineitem \
              WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus";
    c.bench_function("sql_parse_tpch_q1", |b| {
        b.iter(|| bx_csd::parse_query(black_box(q1)).unwrap())
    });
    c.bench_function("sql_parse_predicate", |b| {
        b.iter(|| bx_csd::parse_predicate(black_box("energy > 1.3 AND density < 8.0")).unwrap())
    });
}

criterion_group!(
    benches,
    bench_sqe_codec,
    bench_chunk_codec,
    bench_write_paths,
    bench_reassembly_accept,
    bench_pipelined_dispatch,
    bench_kv_put,
    bench_sql_parse
);
criterion_main!(benches);
