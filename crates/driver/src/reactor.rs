//! The completion-driven async reactor (what is left to do on it — its two
//! host-side cells — is ROADMAP item 5(a)).
//!
//! The synchronous API (`Device::write`: submit, flush, `wait_for`)
//! expresses one command per caller at a time; realistic many-client
//! concurrency on top of the pipelined controller needs commands from
//! *many* logical clients in flight together, each resolving independently
//! when its completion arrives. This module provides that as an
//! io_uring-style reactor over the calls the synchronous path makes —
//! `submit`, `flush_sq`, `Controller::process_available`,
//! `poll_completions_into` — with no layer in between:
//!
//! * **Shards** — thread-per-core style ownership over **one**
//!   [`NvmeDriver`], brought up the way `Device` brings up its own (admin
//!   queue, Identify, one Create-IO-CQ/SQ pair per shard): a shard *is* a
//!   queue pair — its cid space, inflight table and flush state — plus the
//!   waiter table of the futures submitted on it, so no shard ever touches
//!   another's queue. The driver and the shard table sit behind one
//!   `Rc<RefCell<_>>` beside the controller's; the simulation's virtual
//!   clock is global, and the cell models per-core handles without
//!   pretending the clock itself scales.
//! * [`CommandFuture`] — one in-flight command: [`NvmeDriver::submit`] on
//!   first poll (SQ backpressure surfaces as `Poll::Pending`, *not* an
//!   error), which rings a due doorbell per the installed [`FlushPolicy`];
//!   resolves when the dispatcher routes its completion (ring CQE or
//!   byte-interface status word alike) back to the shard's waiter table —
//!   the driver's own cid-indexed table, holding wakers instead of
//!   commands.
//! * The **dispatcher** ([`Reactor::turn`]) — flushes every shard's staged
//!   doorbell, runs the controller, then drains each shard's queue and
//!   wakes exactly the futures whose completions arrived. The per-queue
//!   drain is what makes this correct: completions are routed by the
//!   `(qid, cid)` the device echoes, never by poll order.
//!
//! The executor ([`Reactor::run`]) is deliberately minimal and std-only: a
//! single-threaded poll loop over `Arc`-flagged tasks, each with the one
//! [`Waker`] built when it was spawned, with virtual-time
//! idle advancement standing in for an OS timer wheel — when no task is
//! runnable and no completion is ready but commands are in flight, the
//! reactor advances the clock so the device (or, on a dark device, the
//! timeout reaper) can make progress.

use crate::batch::FlushPolicy;
use crate::driver::{Completion, DriverError, DriverStats, NvmeDriver};
use crate::inflight::InflightTable;
use crate::method::TransferMethod;
use crate::recovery::{RecoveryStats, RetryPolicy};
use bx_hostsim::Nanos;
use bx_nvme::{PassthruCmd, QueueId};
use bx_pcie::LinkConfig;
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, ExecutionModel, NandConfig, SystemBus};
use bx_trace::{EventKind, TraceSink};
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// One parked completion waiter: the waker to call and, once the
/// dispatcher has routed it, the completion itself — or the timeout a
/// command on a dark device with no deadline resolves as.
#[derive(Debug, Default)]
struct Waiter {
    waker: Option<Waker>,
    done: Option<Result<Completion, DriverError>>,
}

/// Per-shard counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardStats {
    /// Commands submitted through this shard.
    pub submitted: u64,
    /// Completions dispatched to this shard's waiters.
    pub completed: u64,
    /// Completions drained on this shard for a `(qid, cid)` no waiter was
    /// registered under (a routing bug, or the completion of a future
    /// dropped mid-flight).
    pub orphaned: u64,
}

/// The state one shard owns exclusively: its queue pair (by id — the
/// rings, cid space and inflight table live in the driver under it), its
/// waiter table, and its backpressure list. Nothing here is ever touched
/// on behalf of another shard.
struct Shard {
    index: u16,
    qid: QueueId,
    /// cid (on `qid`) → parked future, in the table the driver keeps its
    /// commands in flight in.
    waiters: InflightTable<Waiter>,
    /// Futures parked on SQ backpressure, woken after every drain.
    capacity: Vec<Waker>,
    stats: ShardStats,
    /// Scratch buffer for drains (reused; the drain path allocates only
    /// for completions carrying response data).
    drained: Vec<Completion>,
}

/// The host side of the reactor: the one driver and its shards, behind the
/// one cell every [`ShardHandle`] and [`CommandFuture`] shares.
struct Host {
    driver: NvmeDriver,
    shards: Vec<Shard>,
}

/// Reactor construction parameters.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of shards (logical cores), at least one. Each gets its own
    /// queue pair.
    pub shards: usize,
    /// Depth of each queue pair.
    pub queue_depth: u16,
    /// Whether commands touch simulated NAND (false = transfer-path only).
    pub nand_io: bool,
    /// Controller execution model; [`ExecutionModel::Pipelined`] is what
    /// makes multi-shard overlap visible in virtual time.
    pub execution_model: ExecutionModel,
    /// Doorbell-coalescing policy installed on the driver, applied per
    /// queue (`None` = ring per submission).
    pub flush_policy: Option<FlushPolicy>,
    /// Timeout policy installed on the driver. With one installed, a
    /// command cut down in flight by a power cut resolves as a synthetic
    /// `CommandAborted` completion at its deadline; without one, as
    /// `DriverError::Timeout` once nothing else can run.
    pub retry_policy: Option<RetryPolicy>,
    /// Record a flight-recorder trace of the run.
    pub trace: bool,
    /// Virtual-time step for [`Reactor::turn`]'s idle advancement (used
    /// only when nothing is runnable and nothing is ready but commands are
    /// in flight — e.g. a staged doorbell waits out the flush policy's
    /// delay, or only the timeout reaper can make progress on a dark
    /// device).
    pub idle_step: Nanos,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            shards: 4,
            queue_depth: 256,
            nand_io: false,
            execution_model: ExecutionModel::Pipelined,
            flush_policy: Some(FlushPolicy::default()),
            retry_policy: None,
            trace: false,
            idle_step: Nanos::from_us(10),
        }
    }
}

/// Aggregated reactor counters (see also [`Reactor::recovery_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Dispatcher sweeps executed.
    pub turns: u64,
    /// Idle virtual-time advances (no runnable task, no ready completion,
    /// commands in flight).
    pub idle_advances: u64,
    /// Commands submitted across all shards.
    pub submitted: u64,
    /// Completions dispatched to waiters across all shards.
    pub completed: u64,
    /// Drained completions that matched no waiter.
    pub orphaned: u64,
}

/// Host memory the rings, PRP lists and data pages are carved from.
const HOST_MEM_CAPACITY: usize = 64 << 20;

/// The reactor: a simulated platform (bus + controller), one driver, and
/// its shards.
///
/// Construction builds the whole stack — one [`SystemBus`], one
/// [`Controller`], one [`NvmeDriver`] [`NvmeDriver::initialize`]d against
/// it with a queue pair per shard — so a bench or test needs only a
/// [`ReactorConfig`] and a set of client futures.
pub struct Reactor {
    bus: SystemBus,
    ctrl: Rc<RefCell<Controller>>,
    host: Rc<RefCell<Host>>,
    idle_step: Nanos,
    turns: u64,
    idle_advances: u64,
}

impl Reactor {
    /// Builds the full simulated stack per `cfg`.
    ///
    /// Fails on zero shards, or if bring-up fails — host-memory exhaustion
    /// or a queue-count/depth the controller rejects. All are configuration
    /// errors. They surface as `Err` rather than a panic so a bench harness
    /// can report the bad config instead of aborting.
    pub fn new(cfg: ReactorConfig) -> Result<Self, DriverError> {
        let shards_n = cfg.shards;
        if shards_n == 0 {
            return Err(DriverError::Unsupported("a reactor with zero shards"));
        }
        // One doorbell pair per shard's I/O queue plus the admin queue.
        let mut bus = SystemBus::new(LinkConfig::gen2_x8(), HOST_MEM_CAPACITY, shards_n + 1);
        if cfg.trace {
            bus.enable_trace();
        }
        let ctrl_cfg = ControllerConfig {
            nand: if cfg.nand_io {
                NandConfig::small()
            } else {
                NandConfig::disabled()
            },
            execution_model: cfg.execution_model,
            ..ControllerConfig::default()
        };
        let nand_io = cfg.nand_io;
        let mut ctrl = Controller::new(bus.clone(), ctrl_cfg, move |dram| {
            Box::new(BlockFirmware::new(dram, nand_io))
        });
        let mut driver = NvmeDriver::new(bus.clone());
        driver.set_flush_policy(cfg.flush_policy);
        driver.set_retry_policy(cfg.retry_policy);
        let shards = driver
            .initialize(&mut ctrl, &vec![cfg.queue_depth; shards_n])?
            .into_iter()
            .enumerate()
            .map(|(index, qid)| Shard {
                index: index as u16,
                qid,
                waiters: InflightTable::default(),
                capacity: Vec::new(),
                stats: ShardStats::default(),
                drained: Vec::new(),
            })
            .collect();
        Ok(Reactor {
            bus,
            ctrl: Rc::new(RefCell::new(ctrl)),
            host: Rc::new(RefCell::new(Host { driver, shards })),
            idle_step: cfg.idle_step,
            turns: 0,
            idle_advances: 0,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.host.borrow().shards.len()
    }

    /// A submission handle bound to one shard.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn handle(&self, index: usize) -> ShardHandle {
        assert!(index < self.shard_count(), "no shard {index}");
        ShardHandle {
            host: Rc::clone(&self.host),
            shard: index,
        }
    }

    /// The platform bus (traffic counters, clock, trace sink).
    pub fn bus(&self) -> &SystemBus {
        &self.bus
    }

    /// The shared controller handle.
    pub fn controller(&self) -> Rc<RefCell<Controller>> {
        Rc::clone(&self.ctrl)
    }

    /// The trace sink (enable via [`ReactorConfig::trace`]).
    pub fn trace(&self) -> TraceSink {
        self.bus.trace.clone()
    }

    /// Aggregated counters across shards.
    pub fn stats(&self) -> ReactorStats {
        let mut s = ReactorStats {
            turns: self.turns,
            idle_advances: self.idle_advances,
            ..ReactorStats::default()
        };
        for shard in &self.host.borrow().shards {
            s.submitted += shard.stats.submitted;
            s.completed += shard.stats.completed;
            s.orphaned += shard.stats.orphaned;
        }
        s
    }

    /// The driver's recovery counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.host.borrow().driver.recovery_stats()
    }

    /// The driver's activity counters (bring-up's admin doorbells included).
    pub fn driver_stats(&self) -> DriverStats {
        self.host.borrow().driver.stats()
    }

    /// Total commands in flight across every shard.
    pub fn inflight(&self) -> usize {
        let host = self.host.borrow();
        host.shards
            .iter()
            .map(|shard| host.driver.inflight_len(shard.qid))
            .sum()
    }

    /// Whether some command in flight can still complete: the device is
    /// powered, or the timeout reaper has a deadline to reach.
    fn inflight_can_complete(&self) -> bool {
        let host = self.host.borrow();
        let powered = !self.ctrl.borrow().is_powered_off();
        host.shards.iter().any(|shard| {
            host.driver.inflight_len(shard.qid) > 0
                && (powered || host.driver.has_deadline(shard.qid))
        })
    }

    /// One dispatcher sweep: flush every shard's staged doorbell, run the
    /// controller, then drain each shard's queue and wake the futures whose
    /// completions arrived. Returns the number of completions dispatched.
    ///
    /// This is the completion-routing core: each drained completion is
    /// matched against the waiter table of the shard whose queue it came
    /// off, by the cid the device echoed — ring CQEs and byte-interface
    /// status words take the same route.
    pub fn turn(&mut self) -> usize {
        self.turns += 1;
        let Host { driver, shards } = &mut *self.host.borrow_mut();
        for shard in shards.iter() {
            // Force the staged tail out: the executor only calls turn()
            // when no task is runnable, so anything staged has no other
            // doorbell coming.
            let _ = driver.flush_sq(shard.qid);
        }
        self.ctrl.borrow_mut().process_available();
        let mut dispatched = 0usize;
        for shard in shards {
            shard.drained.clear();
            if driver
                .poll_completions_into(shard.qid, &mut shard.drained)
                .is_err()
            {
                continue;
            }
            let mut shard_dispatched = 0u16;
            for done in shard.drained.drain(..) {
                match shard.waiters.get_mut(done.cid) {
                    Some(waiter) => {
                        waiter.done = Some(Ok(done));
                        if let Some(w) = waiter.waker.take() {
                            w.wake();
                        }
                        shard.stats.completed += 1;
                        dispatched += 1;
                        shard_dispatched = shard_dispatched.saturating_add(1);
                    }
                    None => {
                        // No future owns this completion: its future was
                        // dropped mid-flight, or a routing bug. Record the
                        // orphan so tests can pin zero.
                        shard.stats.orphaned += 1;
                    }
                }
            }
            if shard_dispatched > 0 {
                let index = shard.index;
                self.bus.trace.emit(None, || EventKind::ReactorDispatch {
                    shard: index,
                    completions: shard_dispatched,
                });
            }
            // Consumed CQEs released SQ slots — everything parked on
            // backpressure gets one more try.
            for w in shard.capacity.drain(..) {
                w.wake();
            }
            // A future parks its waiter only for a command the driver has in
            // flight; a future dropped mid-flight leaves the driver's entry
            // without one.
            debug_assert!(
                shard
                    .waiters
                    .iter()
                    .filter(|(_, w)| w.done.is_none())
                    .count()
                    <= driver.inflight_len(shard.qid),
                "shard {} has more waiters than commands in flight",
                shard.index
            );
        }
        dispatched
    }

    /// Runs `tasks` to completion on the single-threaded executor,
    /// returning their outputs in task order.
    ///
    /// The loop polls every woken task, then calls [`Reactor::turn`]; when
    /// neither makes progress but commands are in flight, virtual time
    /// advances by [`ReactorConfig::idle_step`] so the device (or, on a
    /// dark device with a [`RetryPolicy`] installed, the timeout reaper) can
    /// break the stall. On a dark device without one, each command a task
    /// awaits resolves as [`DriverError::Timeout`], as the synchronous wait
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if the task set deadlocks: some task is pending while no
    /// command it awaits is in flight (e.g. a future awaiting something the
    /// reactor does not drive).
    #[expect(
        clippy::panic,
        reason = "a pending task no completion can ever wake — failing loudly beats spinning forever"
    )]
    pub fn run<T>(&mut self, tasks: Vec<Pin<Box<dyn Future<Output = T>>>>) -> Vec<T> {
        struct Slot<T> {
            future: Pin<Box<dyn Future<Output = T>>>,
            flag: Arc<WakeFlag>,
            /// Built once from `flag`, handed to every poll.
            waker: Waker,
            output: Option<T>,
        }
        let task_count = tasks.len();
        let mut slots: Vec<Slot<T>> = tasks
            .into_iter()
            .map(|future| {
                let flag = Arc::new(WakeFlag::new(true));
                Slot {
                    future,
                    waker: Waker::from(Arc::clone(&flag)),
                    flag,
                    output: None,
                }
            })
            .collect();
        let mut remaining = slots.len();
        while remaining > 0 {
            let mut polled = false;
            for slot in slots.iter_mut().filter(|s| s.output.is_none()) {
                if !slot.flag.take() {
                    continue;
                }
                polled = true;
                let mut cx = Context::from_waker(&slot.waker);
                if let Poll::Ready(out) = slot.future.as_mut().poll(&mut cx) {
                    slot.output = Some(out);
                    remaining -= 1;
                }
            }
            if remaining == 0 {
                break;
            }
            let dispatched = self.turn();
            let woken = slots.iter().any(|s| s.output.is_none() && s.flag.is_set());
            if !polled && dispatched == 0 && !woken {
                if self.inflight_can_complete() {
                    // Nothing runnable, nothing ready, commands in flight:
                    // the device needs time (or the reaper needs the
                    // deadline to lapse). Step the clock.
                    self.idle_advances += 1;
                    let step = self.idle_step;
                    self.bus
                        .trace
                        .emit(None, || EventKind::ReactorIdleAdvance { step });
                    self.bus.clock.advance(step);
                } else if self.time_out_dark_waiters() == 0 {
                    panic!(
                        "reactor deadlock: {remaining} task(s) pending and no command in flight can complete"
                    );
                }
            }
        }
        // The loop above exits only when `remaining == 0`, i.e. every slot's
        // output is filled; the assert pins that invariant without putting
        // an abort on the path.
        let outputs: Vec<T> = slots.into_iter().filter_map(|s| s.output).collect();
        debug_assert_eq!(
            outputs.len(),
            task_count,
            "run() exits its loop only once every task has completed"
        );
        outputs
    }

    /// On a dark device, resolves every command a task still awaits as
    /// [`DriverError::Timeout`] and wakes its task; returns how many. Called
    /// only once nothing can complete them: a dark device completes nothing,
    /// and these have no deadline to be reaped at. Their pages stay with the
    /// driver until a reset returns them.
    fn time_out_dark_waiters(&self) -> usize {
        if !self.ctrl.borrow().is_powered_off() {
            return 0;
        }
        let Host { driver, shards } = &mut *self.host.borrow_mut();
        let mut resolved = 0;
        for shard in shards {
            let awaited: Vec<u16> = shard
                .waiters
                .iter()
                .filter(|(_, w)| w.done.is_none())
                .map(|(cid, _)| cid)
                .collect();
            for cid in awaited {
                let timeout = driver.timeout(shard.qid, cid);
                if let Some(waiter) = shard.waiters.get_mut(cid) {
                    waiter.done = Some(Err(timeout));
                    if let Some(w) = waiter.waker.take() {
                        w.wake();
                    }
                    resolved += 1;
                }
            }
        }
        resolved
    }
}

/// A wake flag implementing [`std::task::Wake`]: waking a task marks it
/// runnable for the executor's next pass.
struct WakeFlag(AtomicBool);

impl WakeFlag {
    fn new(set: bool) -> Self {
        WakeFlag(AtomicBool::new(set))
    }
    fn take(&self) -> bool {
        self.0.swap(false, Ordering::Relaxed)
    }
    fn is_set(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

impl Wake for WakeFlag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::Relaxed);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A cloneable submission handle bound to one shard.
///
/// Handles are how client futures reach the reactor: each client holds the
/// handle of the shard it runs on (thread-per-core pinning) and builds
/// [`CommandFuture`]s from it. Handles are `!Send` by construction
/// (`Rc`), matching the no-cross-shard-locking ownership rule.
#[derive(Clone)]
pub struct ShardHandle {
    host: Rc<RefCell<Host>>,
    shard: usize,
}

impl ShardHandle {
    /// A future submitting `cmd` via `method` on the shard's queue pair,
    /// resolving when its completion is dispatched.
    pub fn submit(&self, cmd: PassthruCmd, method: TransferMethod) -> CommandFuture {
        CommandFuture {
            at: self.clone(),
            cmd: Some(cmd),
            method,
            state: FutureState::Unsubmitted,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FutureState {
    /// Not yet staged (or staged attempt hit backpressure).
    Unsubmitted,
    /// Staged and in flight; waiting for the dispatcher.
    Waiting { cid: u16 },
    /// Resolved (terminal; polling again is a contract violation).
    Done,
}

/// One asynchronous command: submits on first poll (parking on SQ
/// backpressure if needed) and resolves with its [`Completion`] when the
/// reactor dispatches it.
pub struct CommandFuture {
    at: ShardHandle,
    cmd: Option<PassthruCmd>,
    method: TransferMethod,
    state: FutureState,
}

impl Future for CommandFuture {
    type Output = Result<Completion, DriverError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        let Host { driver, shards } = &mut *this.at.host.borrow_mut();
        // `Reactor::handle` checked the index against this same table.
        let shard = &mut shards[this.at.shard];
        let qid = shard.qid;
        match this.state {
            FutureState::Unsubmitted => {
                let Some(cmd) = this.cmd.as_ref() else {
                    return Poll::Ready(Err(DriverError::Unsupported(
                        "CommandFuture polled after completion",
                    )));
                };
                match driver.submit(qid, cmd, this.method) {
                    Err(DriverError::QueueFull { .. }) => {
                        // Backpressure, not failure: park on the shard's
                        // capacity list; the dispatcher wakes it after the
                        // next drain, when consumed CQEs have released SQ
                        // slots.
                        shard.capacity.push(cx.waker().clone());
                        Poll::Pending
                    }
                    Err(e) => {
                        this.state = FutureState::Done;
                        Poll::Ready(Err(e))
                    }
                    Ok(sub) => {
                        this.cmd = None;
                        this.state = FutureState::Waiting { cid: sub.cid };
                        shard.stats.submitted += 1;
                        shard.waiters.insert(
                            sub.cid,
                            Waiter {
                                waker: Some(cx.waker().clone()),
                                done: None,
                            },
                        );
                        Poll::Pending
                    }
                }
            }
            FutureState::Waiting { cid } => {
                let Some(waiter) = shard.waiters.get_mut(cid) else {
                    this.state = FutureState::Done;
                    return Poll::Ready(Err(DriverError::Unsupported(
                        "reactor waiter entry vanished",
                    )));
                };
                match waiter.done.take() {
                    Some(done) => {
                        shard.waiters.remove(cid);
                        this.state = FutureState::Done;
                        Poll::Ready(done)
                    }
                    None => {
                        waiter.waker = Some(cx.waker().clone());
                        Poll::Pending
                    }
                }
            }
            FutureState::Done => Poll::Ready(Err(DriverError::Unsupported(
                "CommandFuture polled after completion",
            ))),
        }
    }
}

impl Drop for CommandFuture {
    fn drop(&mut self) {
        // A future dropped mid-flight must not leave a stale waiter: the
        // dispatcher would park its completion forever as consumed-but-
        // unclaimed. The command itself still completes (it is already in
        // the queue); its completion is simply counted as orphaned.
        if let FutureState::Waiting { cid } = self.state {
            if let Ok(mut host) = self.at.host.try_borrow_mut() {
                if let Some(shard) = host.shards.get_mut(self.at.shard) {
                    shard.waiters.remove(cid);
                }
            }
        }
    }
}
