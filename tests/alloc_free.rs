//! Proof that the data path allocates for the bytes it hands back and for
//! nothing else.
//!
//! A counting `#[global_allocator]` wraps `System`. Two kinds of armed
//! window, all after a warm-up that fills every recycled buffer:
//!
//! * the original one: a hand-pumped 10k-command pipelined ByteExpress
//!   submit→complete window performs **zero** heap allocations — in-flight
//!   command state lives in a slab, inline chunks encode into a stack
//!   buffer, `gather_train` streams into a recycled scratch `Vec`, and
//!   completions poll into a caller-owned buffer via
//!   `poll_completions_into`;
//! * a census of the async [`Reactor`]: a warm window of client futures
//!   allocates one payload per command and, per `run`, its slot list and
//!   one wake flag per task — the waiter tables, wakers and deferred
//!   completions allocate nothing per command;
//! * a census over the *public synchronous API* — `Device::write` by every
//!   transfer method, `Device::read`, `KvStore::{put, get}`,
//!   `CsdSession::fetch_results` — counting allocations and bytes per
//!   operation against the budget DESIGN §14 states: writes allocate
//!   nothing, reads allocate the bytes handed back (as many as the
//!   completion's DW0 reports, not the buffer they were read through) plus
//!   the firmware's response, and NAND-on writes only what the page store
//!   keeps.
//!
//! Only the allocations of the thread that arms the counter count. The file
//! holds exactly one `#[test]`, but libtest's main thread runs beside it
//! and allocates twice when it first blocks waiting for the test's result.
//! On a loaded machine that wait can begin after the counter is armed. Its
//! "running for over 60 seconds" warning allocates too.

#![allow(
    unsafe_code,
    reason = "a counting #[global_allocator] has to implement the unsafe GlobalAlloc trait; every method only forwards to System"
)]

use bx_csd::{corpus, CsdConfig, CsdSession, TaskEncoding};
use bx_driver::reactor::{Reactor, ReactorConfig};
use bx_driver::Completion;
use bx_kvssd::{KvStore, KvStoreConfig};
use byteexpress::{Device, ExecutionModel, IoOpcode, PassthruCmd, QueueId, TransferMethod};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};

/// Delegates to `System`, counting the allocations of a thread while its
/// `ARMED` is set.
struct CountingAlloc;

thread_local! {
    /// Const-initialised and without a destructor, so reading it never
    /// allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread's allocations count.
fn armed() -> bool {
    ARMED.with(Cell::get)
}
/// Allocations and reallocations.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for: allocation sizes plus what reallocations grew by.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let grown = new_size.saturating_sub(layout.size());
            BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const QUEUES: usize = 4;
const ROUND_QD: usize = 8;
const WINDOW_CMDS: usize = 10_000;

fn write_cmd(lba: u64, len: usize) -> PassthruCmd {
    let data: Vec<u8> = (0..len).map(|j| (lba as usize + j) as u8).collect();
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

/// One round: submit `ROUND_QD` ByteExpress writes on each queue, then pump
/// the controller and poll every queue (into `buf`, reused) until all
/// completions of the round arrived. Panics on any failure so the window
/// can't silently shrink.
fn round(
    dev: &mut Device,
    queues: &[QueueId],
    cmds: &[PassthruCmd],
    buf: &mut Vec<Completion>,
) -> usize {
    let mut expected = 0usize;
    for &qid in queues {
        for cmd in cmds {
            dev.driver_mut()
                .submit(qid, cmd, TransferMethod::ByteExpress)
                .expect("submit must succeed");
            expected += 1;
        }
    }
    let mut done = 0usize;
    let mut idle = 0u32;
    while done < expected {
        dev.controller_mut().process_available();
        let mut progressed = false;
        for &qid in queues {
            buf.clear();
            dev.driver_mut()
                .poll_completions_into(qid, buf)
                .expect("poll must succeed");
            for c in buf.iter() {
                assert!(c.status.is_success(), "completion failed: {:?}", c.status);
            }
            if !buf.is_empty() {
                progressed = true;
            }
            done += buf.len();
        }
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            assert!(idle < 8, "controller stalled mid-round ({done}/{expected})");
        }
    }
    done
}

/// Heap activity of one armed window, per operation.
#[derive(Debug, Clone, Copy)]
struct Census {
    /// Allocations and reallocations.
    allocs: f64,
    bytes: f64,
}

/// Runs `op(i)` for `i` in `0..ops` with the counter armed.
fn census(ops: usize, mut op: impl FnMut(usize)) -> Census {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.set(true);
    for i in 0..ops {
        op(i);
    }
    ARMED.set(false);
    Census {
        allocs: ALLOCS.load(Ordering::SeqCst) as f64 / ops as f64,
        bytes: BYTES.load(Ordering::SeqCst) as f64 / ops as f64,
    }
}

/// The reactor, 4 shards × 8 clients, NAND off: a warm window of 32 768
/// ByteExpress writes allocates each write's payload and `run`'s own slot
/// list and wake flags, and nothing else.
fn census_reactor() {
    const SHARDS: usize = 4;
    const CLIENTS: usize = SHARDS * 8;
    const WRITES: u64 = 32_768;
    let mut reactor = Reactor::new(ReactorConfig {
        shards: SHARDS,
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    let tasks = |reactor: &Reactor, per_client: u64| -> Vec<Pin<Box<dyn Future<Output = ()>>>> {
        (0..CLIENTS)
            .map(|client| {
                let handle = reactor.handle(client % SHARDS);
                Box::pin(async move {
                    for i in 0..per_client {
                        // The one allocation a write may make: its payload.
                        let cmd = write_cmd((client as u64 * 64 + i % 64) * 8, 64);
                        let c = handle
                            .submit(cmd, TransferMethod::ByteExpress)
                            .await
                            .expect("reactor write");
                        assert!(c.status.is_success());
                    }
                }) as _
            })
            .collect()
    };
    let warm = tasks(&reactor, 256);
    reactor.run(warm);
    let window = tasks(&reactor, WRITES / CLIENTS as u64);
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.set(true);
    reactor.run(window);
    ARMED.set(false);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    // `run`: its slot list, and one wake flag per task.
    let per_run = 1 + CLIENTS as u64;
    assert!(
        allocs <= WRITES + per_run,
        "{allocs} allocations for {WRITES} reactor writes"
    );
    assert_eq!(reactor.stats().orphaned, 0);
}

/// `Device::write` by every method and size, NAND off: nothing at all.
fn census_block_writes() {
    let mut dev = Device::builder().nand_io(false).build();
    let data = vec![0x5Au8; 4096];
    let methods = [
        TransferMethod::Prp,
        TransferMethod::BandSlim { embed_first: true },
        TransferMethod::ByteExpress,
        TransferMethod::hybrid_default(),
    ];
    for method in methods {
        for size in [64, 256, 1024, 4096] {
            let mut write = |i: usize| {
                dev.write(i as u64 % 512, &data[..size], method)
                    .expect("write must succeed");
            };
            (0..64).for_each(&mut write);
            let c = census(1_000, write);
            assert_eq!(
                (c.allocs, c.bytes),
                (0.0, 0.0),
                "{method} {size} B, NAND off"
            );
        }
    }
}

/// NAND on: a ByteExpress write keeps one buffer — the page store's, for
/// the page it programs — and a read hands one back.
fn census_block_nand() {
    let mut dev = Device::builder().build();
    let data = vec![0xC3u8; 256];
    let mut write = |i: usize| {
        dev.write(i as u64 % 2_048, &data, TransferMethod::ByteExpress)
            .expect("write must succeed");
    };
    (0..2_048).for_each(&mut write);
    let c = census(2_000, write);
    assert!(
        c.allocs <= 1.1 && c.bytes <= 2.0 * data.len() as f64,
        "ByteExpress 256 B, NAND on: {c:?}"
    );

    let mut read = |i: usize| {
        let back = dev.read(i as u64 % 2_048, data.len()).expect("read");
        assert_eq!(back, data);
    };
    (0..64).for_each(&mut read);
    let c = census(1_000, read);
    // The `Vec` returned (`response_len` bytes) and the firmware's response.
    let budget = (data.len() + data.len() + 64) as f64;
    assert!(
        c.allocs <= 2.0 && c.bytes <= budget,
        "Device::read 256 B: {c:?}"
    );
}

fn census_kv() {
    const KEYS: usize = 1_000;
    let keys: Vec<Vec<u8>> = (0..KEYS)
        .map(|i| format!("key-{i:05}").into_bytes())
        .collect();
    let value = [0x77u8; 40];

    // PUT over existing keys: the index has its nodes, so what is left is
    // the page store's buffer per flushed page and amortised table growth.
    let mut store = KvStore::open(KvStoreConfig::default());
    let mut put = |i: usize| {
        store.put(&keys[i % KEYS], &value).expect("put");
    };
    (0..2 * KEYS).for_each(&mut put);
    let c = census(2_000, put);
    assert!(c.allocs <= 0.05, "KvStore::put 40 B: {c:?}");
    assert!(
        store.device_stats().flushes > 20,
        "window must span flushes"
    );

    // GET of a flushed value: the value-sized `Vec` returned and the
    // firmware's value-sized response, though the GET reads through a
    // buffer of `MAX_VALUE_LEN` bytes. The first keys were last written a
    // thousand PUTs ago: long flushed.
    let get = |store: &mut KvStore, i: usize| {
        let got = store.get(&keys[i % 500]).expect("get");
        assert_eq!(got.as_deref(), Some(&value[..]));
    };
    (0..64).for_each(|i| get(&mut store, i));
    let reads_before = store.device().controller().nand_stats().reads;
    let c = census(1_000, |i| get(&mut store, i));
    let budget = (2 * value.len() + 64) as f64;
    assert!(
        c.allocs <= 2.0 && c.bytes <= budget,
        "KvStore::get 40 B: {c:?}"
    );
    let reads = store.device().controller().nand_stats().reads - reads_before;
    assert_eq!(reads, 1_000, "every GET must have gone to NAND");

    // Durable PUT: one page-store buffer per op (the staging page written
    // through, cut at its last byte), and no page-sized temporary on top.
    let mut durable = KvStore::open(KvStoreConfig {
        durable_puts: true,
        ..KvStoreConfig::default()
    });
    let mut put = |i: usize| {
        durable.put(&keys[i % KEYS], &value).expect("durable put");
    };
    (0..2 * KEYS).for_each(&mut put);
    let c = census(2_000, put);
    assert!(
        c.allocs <= 1.3 && c.bytes <= 4096.0,
        "durable KvStore::put 40 B: {c:?}"
    );
}

/// A fetch of a small result allocates for the result, not for the 1 MiB
/// buffer it is read through.
fn census_csd() {
    let q = corpus().swap_remove(0);
    let mut session = CsdSession::open(CsdConfig::default());
    session.create_table(&q.schema).expect("create table");
    session
        .load_rows(&q.schema, &q.generate_rows(200, 3))
        .expect("load rows");
    let report = session
        .pushdown(
            &q.full_sql,
            q.table,
            &q.predicate,
            TaskEncoding::Segment,
            TransferMethod::ByteExpress,
        )
        .expect("pushdown");
    assert!(report.matches > 0, "{}: predicate matched nothing", q.name);
    let mut fetch = |_| {
        let rows = session.fetch_results(&q.schema).expect("fetch");
        assert_eq!(rows.len(), report.matches as usize);
    };
    (0..4).for_each(&mut fetch);
    let c = census(50, fetch);
    assert!(
        c.bytes <= 64.0 * 1024.0,
        "CsdSession::fetch_results, {} rows: {c:?}",
        report.matches
    );
}

#[test]
fn pipelined_hot_path_is_allocation_free_in_steady_state() {
    let mut dev = Device::builder()
        .nand_io(false)
        .queue_count(QUEUES)
        .queue_depth(64)
        .execution_model(ExecutionModel::Pipelined)
        .build();
    let queues: Vec<QueueId> = dev.queues().to_vec();
    // Commands built once, outside the counting window; `submit` borrows
    // them, so rounds reuse the same payload storage.
    let cmds: Vec<PassthruCmd> = (0..ROUND_QD as u64).map(|i| write_cmd(i * 8, 64)).collect();
    let mut buf: Vec<Completion> = Vec::with_capacity(64);

    // Warmup: fill every lazily-grown pool — the driver's cid table and
    // inflight slab, SQ ring memory, the controller's scratch payload and
    // deferred-completion queue, DRAM page buffers.
    let per_round = QUEUES * ROUND_QD;
    for _ in 0..16 {
        round(&mut dev, &queues, &cmds, &mut buf);
    }

    // The measured window: >= 10k commands with the counter armed.
    let rounds = WINDOW_CMDS.div_ceil(per_round);
    let mut total = 0usize;
    let c = census(rounds, |_| {
        total += round(&mut dev, &queues, &cmds, &mut buf)
    });

    assert!(total >= WINDOW_CMDS, "window too small: {total}");
    assert_eq!(
        (c.allocs, c.bytes),
        (0.0, 0.0),
        "steady-state pipelined window must not touch the heap ({total} commands)"
    );

    census_reactor();
    census_block_writes();
    census_block_nand();
    census_kv();
    census_csd();
}
