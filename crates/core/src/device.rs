//! The high-level device handle: a driver + controller pair on one bus,
//! wired and ready for I/O.

use crate::stats::LatencySamples;
use bx_driver::{
    CmdContext, Completion, DriverError, FlushPolicy, NvmeDriver, RecoveryStats, RetryPolicy,
    TransferMethod,
};
use bx_hostsim::{FaultConfig, FaultCounters, Nanos, PAGE_SIZE};
use bx_nvme::{IoOpcode, PassthruCmd, QueueId, Status};
use bx_pcie::{LinkConfig, LinkConfigError, TrafficCounters};
use bx_ssd::{
    BlockFirmware, Controller, ControllerConfig, DeviceDram, ExecutionModel, FetchPolicy,
    FirmwareHandler, NandConfig, RecoveryReport, SystemBus,
};
use std::fmt;

/// Errors surfaced by the device facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The driver rejected the operation.
    Driver(DriverError),
    /// The device completed the command with a failure status.
    Command(Status),
    /// [`DeviceBuilder::try_build`] was handed a structurally invalid link.
    Link(LinkConfigError),
    /// [`DeviceBuilder::try_build`] was handed a NAND page smaller than the
    /// 4 KB logical block a page must hold.
    NandPageSize(usize),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::Driver(e) => write!(f, "driver error: {e}"),
            DeviceError::Command(s) => write!(f, "command failed: {s}"),
            DeviceError::Link(e) => write!(f, "invalid LinkConfig: {e}"),
            DeviceError::NandPageSize(size) => {
                write!(
                    f,
                    "NAND page of {size} B: a page holds a {PAGE_SIZE} B block"
                )
            }
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<DriverError> for DeviceError {
    fn from(e: DriverError) -> Self {
        DeviceError::Driver(e)
    }
}

/// Deferred firmware constructor: runs against the device DRAM at build time.
type FirmwareFactory = Box<dyn FnOnce(&mut DeviceDram) -> Box<dyn FirmwareHandler>>;

/// Configures and builds a [`Device`].
///
/// # Example
///
/// ```
/// use byteexpress::{Device, TransferMethod};
///
/// # fn main() -> Result<(), byteexpress::DeviceError> {
/// let mut dev = Device::builder()
///     .nand_io(false) // the paper's transfer-latency mode
///     .build();
/// let report = dev.write(0, &[0xAB; 64], TransferMethod::ByteExpress)?;
/// assert!(report.latency() > byteexpress::Nanos::ZERO);
/// # Ok(())
/// # }
/// ```
pub struct DeviceBuilder {
    link: LinkConfig,
    nand: NandConfig,
    queue_depth: u16,
    queue_count: usize,
    fetch_policy: FetchPolicy,
    firmware: Option<FirmwareFactory>,
    retry_policy: Option<RetryPolicy>,
    flush_policy: Option<FlushPolicy>,
    cq_coalesce: u16,
    trace: bool,
    execution_model: ExecutionModel,
}

impl fmt::Debug for DeviceBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceBuilder")
            .field("queue_depth", &self.queue_depth)
            .field("queue_count", &self.queue_count)
            .field("fetch_policy", &self.fetch_policy)
            .finish_non_exhaustive()
    }
}

impl Default for DeviceBuilder {
    fn default() -> Self {
        DeviceBuilder {
            link: LinkConfig::gen2_x8(),
            nand: NandConfig::small(),
            queue_depth: 1024,
            queue_count: 1,
            fetch_policy: FetchPolicy::QueueLocal,
            firmware: None,
            retry_policy: None,
            flush_policy: None,
            cq_coalesce: 0,
            trace: false,
            execution_model: ExecutionModel::Serial,
        }
    }
}

impl DeviceBuilder {
    /// Starts from defaults (Gen2 ×8, NAND on, one 1024-deep queue pair).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the PCIe link configuration.
    ///
    /// [`DeviceBuilder::try_build`] validates it: a structurally invalid
    /// link — zero or non-power-of-two MPS/MRRS, bogus lane count — is a
    /// hard error, not something the TLP segmenters quietly clamp.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Enables or disables NAND I/O (the paper's two measurement modes).
    pub fn nand_io(mut self, enabled: bool) -> Self {
        self.nand = if enabled {
            NandConfig::small()
        } else {
            NandConfig::disabled()
        };
        self
    }

    /// Uses a custom NAND configuration.
    pub fn nand_config(mut self, cfg: NandConfig) -> Self {
        self.nand = cfg;
        self
    }

    /// Sets queue depth (entries per SQ/CQ).
    pub fn queue_depth(mut self, depth: u16) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the number of I/O queue pairs, at least one;
    /// [`DeviceBuilder::try_build`] refuses zero.
    pub fn queue_count(mut self, count: usize) -> Self {
        self.queue_count = count;
        self
    }

    /// Selects the chunk-fetch policy (queue-local vs out-of-order
    /// reassembly); the driver reads its chunk framing from Identify.
    pub fn fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// Installs custom firmware (KV-SSD, CSD). Defaults to block firmware
    /// with NAND I/O matching [`DeviceBuilder::nand_io`].
    pub fn firmware(
        mut self,
        f: impl FnOnce(&mut DeviceDram) -> Box<dyn FirmwareHandler> + 'static,
    ) -> Self {
        self.firmware = Some(Box::new(f));
        self
    }

    /// Installs the driver's timeout policy: the completion deadline past
    /// which a command on a dark device is reaped. The wire traffic of a
    /// live run is byte-identical with or without one.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = Some(policy);
        self
    }

    /// Installs the driver's doorbell-coalescing flush policy: SQ tail
    /// doorbells are deferred and rung once per batch, bounded by the
    /// policy's max-batch count and max virtual-time delay. Without one,
    /// every submission rings its own doorbell. Synchronous `write`/`read`
    /// calls flush per command either way; the batching win shows through
    /// [`Device::write_batch`].
    pub fn flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.flush_policy = Some(policy);
        self
    }

    /// Sets the CQ head doorbell cadence: ring after every `n` consumed
    /// CQEs. `0` (default) rings once per poll sweep; `1` models a naive
    /// per-CQE driver — the baseline the completion-coalescing comparison
    /// in the `batch` bench uses.
    pub fn cq_coalesce(mut self, n: u16) -> Self {
        self.cq_coalesce = n;
        self
    }

    /// Selects the controller's execution model. The default,
    /// [`ExecutionModel::Serial`], advances the global clock through every
    /// command's full completion time at dispatch — fully-serialized
    /// accounting, bit-identical run to run.
    /// [`ExecutionModel::Pipelined`] decouples dispatch from completion via
    /// a deterministic event queue, so commands on different queues and
    /// NAND dies overlap in virtual time — the regime where queue-depth and
    /// multi-queue IOPS scaling become visible (`ablation` prints the sweep).
    pub fn execution_model(mut self, model: ExecutionModel) -> Self {
        self.execution_model = model;
        self
    }

    /// Turns on the cross-layer flight recorder: every layer (driver submit
    /// paths, PCIe TLPs, controller fetch/reassembly/completion, NAND, the
    /// timeout reaper) records virtual-time events into one shared sink,
    /// readable via [`Device::trace_events`]. Off by default; a traced run
    /// puts byte-identical traffic on the wire in identical virtual time
    /// (the sink only observes, never advances the clock).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Builds the device, performing the full NVMe bring-up: admin queue
    /// registers, controller enable, Identify, and admin-command queue
    /// creation.
    ///
    /// # Panics
    ///
    /// Panics where [`DeviceBuilder::try_build`] returns an error.
    #[expect(
        clippy::panic,
        reason = "the infallible convenience over try_build; a configuration that cannot be built is the caller's bug"
    )]
    pub fn build(self) -> Device {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Host memory the queues, PRP lists and data pages are carved from.
    const HOST_MEM_CAPACITY: usize = 256 << 20;

    /// [`DeviceBuilder::build`], with an invalid link, a NAND page that
    /// cannot hold a logical block, zero I/O queues, a failed bring-up or
    /// queues that do not fit host memory reported instead of panicking.
    ///
    /// ```
    /// use byteexpress::{Device, DeviceError, LinkConfig};
    ///
    /// let mut link = LinkConfig::gen2_x8();
    /// link.max_payload_size = 0;
    /// let built = Device::builder().link(link).try_build();
    /// assert!(matches!(built, Err(DeviceError::Link(_))));
    /// ```
    pub fn try_build(self) -> Result<Device, DeviceError> {
        self.link.validate().map_err(DeviceError::Link)?;
        if self.nand.page_size < PAGE_SIZE {
            return Err(DeviceError::NandPageSize(self.nand.page_size));
        }
        if self.queue_count == 0 {
            return Err(DeviceError::Driver(DriverError::Unsupported(
                "a device with zero I/O queues",
            )));
        }
        // One doorbell pair per I/O queue plus the admin queue.
        let mut bus = SystemBus::new(self.link, Self::HOST_MEM_CAPACITY, self.queue_count + 1);
        if self.trace {
            // Must precede controller/driver construction: they copy the
            // sink handle from the bus.
            bus.enable_trace();
        }
        let nand_enabled = self.nand.enabled;
        let cfg = ControllerConfig {
            nand: self.nand,
            fetch_policy: self.fetch_policy,
            execution_model: self.execution_model,
            ..Default::default()
        };
        let firmware = self.firmware.unwrap_or_else(|| {
            Box::new(move |dram: &mut DeviceDram| {
                Box::new(BlockFirmware::new(dram, nand_enabled)) as Box<dyn FirmwareHandler>
            })
        });
        let mut ctrl = Controller::new(bus.clone(), cfg, firmware);
        let mut driver = NvmeDriver::new(bus.clone());
        driver.set_retry_policy(self.retry_policy);
        driver.set_flush_policy(self.flush_policy);
        driver.set_cq_coalesce(self.cq_coalesce);
        let queue_depths = vec![self.queue_depth; self.queue_count];
        let qids = driver.initialize(&mut ctrl, &queue_depths)?;
        Ok(Device {
            bus,
            driver,
            ctrl,
            qids,
            queue_depths,
            write_cmd: PassthruCmd::to_device(IoOpcode::Write, 1, Vec::new()),
            polled: Vec::new(),
        })
    }
}

/// Makes `cmd` the block write of `data` at `lba`, reusing its payload
/// buffer.
fn set_block_write(cmd: &mut PassthruCmd, lba: u64, data: &[u8]) {
    cmd.cdw10_15[0] = lba as u32;
    cmd.cdw10_15[1] = (lba >> 32) as u32;
    cmd.set_data(data);
}

/// A flush policy whose bounds never fire: under it a batch rings only at
/// the `flush_sq` that ends it.
const NEVER_FLUSHES: FlushPolicy = FlushPolicy {
    max_batch: u16::MAX,
    max_delay: Nanos::from_ns(u64::MAX),
};

/// Submit, ring, wait: one attempt at `cmd` on `qid`, polling into
/// `polled`. A command the device never completes — one cut down in flight
/// by a power cut — is [`DriverError::Timeout`], reaped at its
/// [`RetryPolicy`] deadline when one is installed, given up on at once
/// otherwise.
fn execute(
    driver: &mut NvmeDriver,
    ctrl: &mut Controller,
    polled: &mut Vec<Completion>,
    qid: QueueId,
    cmd: &PassthruCmd,
    method: TransferMethod,
) -> Result<Completion, DriverError> {
    polled.clear();
    let submitted = driver.submit(qid, cmd, method)?;
    // Synchronous callers see one doorbell per command regardless of any
    // installed flush policy.
    driver.flush_sq(qid)?;
    // Returns once our cid has been polled — a real completion, or the
    // synthetic CommandAborted the reaper posts past the deadline.
    driver.wait_for(qid, ctrl, &[submitted], polled)?;
    let idx = polled.iter().position(|c| c.cid == submitted.cid);
    match idx.map(|i| polled.swap_remove(i)) {
        Some(done) if done.status != Status::CommandAborted => Ok(done),
        aborted => Err(DriverError::Timeout {
            ctx: CmdContext {
                qid,
                cid: submitted.cid,
                opcode: cmd.opcode,
            },
            waited: aborted.map_or(Nanos::ZERO, |c| c.latency()),
        }),
    }
}

/// A ready-to-use simulated NVMe device with its host driver.
///
/// `Device` is the entry point for everything downstream: block I/O here,
/// key-value and SQL-pushdown sessions in `bx-kvssd`/`bx-csd` (which wrap a
/// `Device` built with their firmware).
pub struct Device {
    bus: SystemBus,
    driver: NvmeDriver,
    ctrl: Controller,
    qids: Vec<QueueId>,
    /// Depth of each queue in `qids`, kept in lockstep so a power cycle can
    /// re-create the same topology.
    queue_depths: Vec<u16>,
    /// The block write of [`Device::write`] and [`Device::write_batch`],
    /// refilled per command so its payload buffer is reused.
    write_cmd: PassthruCmd,
    /// The poll buffer of every submit-and-wait.
    polled: Vec<Completion>,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("queues", &self.qids.len())
            .field("driver", &self.driver)
            .finish_non_exhaustive()
    }
}

/// One queue's worth of `(lba, payload)` writes, as consumed by
/// [`Device::write_batch`].
pub type QueueBatch = (QueueId, Vec<(u64, Vec<u8>)>);

impl Device {
    /// Starts building a device.
    pub fn builder() -> DeviceBuilder {
        DeviceBuilder::new()
    }

    /// A device with all defaults.
    pub(crate) fn new() -> Self {
        Self::builder().build()
    }

    /// The shared bus (traffic counters, clock, memory).
    pub fn bus(&self) -> &SystemBus {
        &self.bus
    }

    /// The I/O queue ids, in creation order.
    pub fn queues(&self) -> &[QueueId] {
        &self.qids
    }

    /// Mutable access to the driver (threshold/mode reconfiguration).
    pub fn driver_mut(&mut self) -> &mut NvmeDriver {
        &mut self.driver
    }

    /// The controller (stats inspection).
    pub fn controller(&self) -> &Controller {
        &self.ctrl
    }

    /// Mutable access to the controller, for callers that pump the
    /// submit→complete loop by hand (e.g. the allocation-counting test,
    /// which cannot afford the per-call `Vec`s the convenience batch APIs
    /// return).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.ctrl
    }

    /// Driver + controller + link counters in one snapshot.
    pub fn traffic(&self) -> TrafficCounters {
        self.bus.traffic()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.bus.clock.now()
    }

    /// Resets traffic counters and the clock between measurement runs.
    pub fn reset_measurements(&mut self) {
        self.bus.reset_measurements();
    }

    /// Arms a power cut `cfg.power_cut_after_events` controller scheduling
    /// events from now, replacing any armed one.
    pub fn install_faults(&self, cfg: FaultConfig) {
        self.bus.install_faults(cfg);
    }

    /// Disarms the power cut, if one is still armed.
    pub fn disable_faults(&self) {
        self.bus.install_faults(FaultConfig::disabled());
    }

    /// How many power cuts have fired so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.bus.fault_counters()
    }

    /// The driver's recovery counters (timeouts).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.driver.recovery_stats()
    }

    /// Cuts power *right now*, regardless of any armed countdown —
    /// the crash-schedule harness hook for externally chosen cut points.
    /// Everything volatile (rings, doorbells, DRAM, in-flight programs) is
    /// lost; see [`Device::power_cycle`] to bring the device back.
    pub fn force_power_cut(&mut self) {
        self.ctrl.force_power_cut();
    }

    /// Whether a power cut has fired and the device has not been cycled.
    pub fn is_powered_off(&self) -> bool {
        self.ctrl.is_powered_off()
    }

    /// Restores power after a cut (cutting first if the device is still
    /// live): the controller rebuilds the FTL from NAND and the mapping
    /// journal, firmware re-derives its volatile state, and the host side
    /// re-runs the full bring-up — admin registers, Identify, and
    /// re-creation of every I/O queue at its original depth. Queue ids are
    /// reassigned densely from 1, in the original creation order.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Driver`] if bring-up fails (it cannot, short of host
    /// memory exhaustion).
    pub fn power_cycle(&mut self) -> Result<RecoveryReport, DeviceError> {
        let report = self.ctrl.power_cycle();
        self.driver.reset_after_power_cycle()?;
        self.qids = self.driver.initialize(&mut self.ctrl, &self.queue_depths)?;
        Ok(report)
    }

    /// The flight-recorder sink (disabled unless the device was built with
    /// [`DeviceBuilder::trace`]).
    pub fn trace_sink(&self) -> &bx_trace::TraceSink {
        &self.bus.trace
    }

    /// Snapshot of every recorded trace event, in emission order. Empty
    /// when tracing is off.
    pub fn trace_events(&self) -> Vec<bx_trace::Event> {
        self.bus.trace.events()
    }

    /// Executes a passthrough command on queue 0.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Driver`] on submit failure; completions (including
    /// error statuses) are returned as `Ok`.
    pub fn passthru(
        &mut self,
        cmd: &PassthruCmd,
        method: TransferMethod,
    ) -> Result<Completion, DeviceError> {
        self.passthru_on(self.qids[0], cmd, method)
    }

    /// Executes a passthrough command on a specific queue.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Driver`] on submit failure.
    pub fn passthru_on(
        &mut self,
        qid: QueueId,
        cmd: &PassthruCmd,
        method: TransferMethod,
    ) -> Result<Completion, DeviceError> {
        let (driver, ctrl, polled) = (&mut self.driver, &mut self.ctrl, &mut self.polled);
        Ok(execute(driver, ctrl, polled, qid, cmd, method)?)
    }

    /// Writes `data` at logical block `lba` using `method`.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] on submit failure or device-reported error status.
    pub fn write(
        &mut self,
        lba: u64,
        data: &[u8],
        method: TransferMethod,
    ) -> Result<Completion, DeviceError> {
        set_block_write(&mut self.write_cmd, lba, data);
        let (driver, ctrl, polled) = (&mut self.driver, &mut self.ctrl, &mut self.polled);
        let completion = execute(driver, ctrl, polled, self.qids[0], &self.write_cmd, method)?;
        if !completion.status.is_success() {
            return Err(DeviceError::Command(completion.status));
        }
        Ok(completion)
    }

    /// Writes batches of `(lba, data)` pairs, one batch per queue. Each
    /// batch goes out with a single coalesced SQ doorbell (intermediate
    /// flushes only if an installed [`FlushPolicy`]'s bounds trigger; the
    /// driver's policy is left as found), and every batch is submitted
    /// before any completion is reaped, so all queues' commands are visible
    /// to the controller at once. Under [`ExecutionModel::Pipelined`] their
    /// media time overlaps — this is the entry point for multi-queue /
    /// queue-depth scaling measurements.
    /// Queues are then waited on in submission order; returns per-batch
    /// completions, each in submission order.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Driver`] if a submission is rejected or a completion
    /// is lost; [`DeviceError::Command`] on the first failed completion
    /// status. Either way every command already rung is waited for before
    /// the error returns, so nothing is left in flight behind it.
    pub fn write_batch(
        &mut self,
        batches: &[QueueBatch],
        method: TransferMethod,
    ) -> Result<Vec<Vec<Completion>>, DeviceError> {
        // Each batch stages under the installed flush policy or, with none,
        // under one that never fires; the `flush_sq` after it rings.
        let found = self.driver.set_flush_policy(None);
        self.driver.set_flush_policy(found.or(Some(NEVER_FLUSHES)));
        let mut error = None;
        let mut rung = Vec::with_capacity(batches.len());
        for (qid, items) in batches {
            let mut submitted = Vec::with_capacity(items.len());
            let refused = items.iter().find_map(|(lba, data)| {
                set_block_write(&mut self.write_cmd, *lba, data);
                let placed = self.driver.submit(*qid, &self.write_cmd, method);
                placed.map(|s| submitted.push(s)).err()
            });
            let flushed = self.driver.flush_sq(*qid);
            rung.push((*qid, submitted));
            if let Some(e) = refused.or(flushed.err()) {
                error = Some(DeviceError::Driver(e));
                break;
            }
        }
        self.driver.set_flush_policy(found);
        let mut out = Vec::with_capacity(rung.len());
        let polled = &mut self.polled;
        for (qid, submitted) in &rung {
            polled.clear();
            if let Err(e) = self
                .driver
                .wait_for(*qid, &mut self.ctrl, submitted, polled)
            {
                error.get_or_insert(DeviceError::Driver(e));
                continue;
            }
            // Completions may arrive out of submission order (Pipelined);
            // hand them back in the order the caller submitted them.
            let mut done = Vec::with_capacity(submitted.len());
            for cmd in submitted {
                if let Some(i) = polled.iter().position(|c| c.cid == cmd.cid) {
                    done.push(polled.swap_remove(i));
                }
            }
            if let Some(c) = done.iter().find(|c| !c.status.is_success()) {
                error.get_or_insert(DeviceError::Command(c.status));
            }
            out.push(done);
        }
        match error {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Reads `len` bytes from logical block `lba`.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] on submit failure or device-reported error status.
    pub fn read(&mut self, lba: u64, len: usize) -> Result<Vec<u8>, DeviceError> {
        let mut cmd = PassthruCmd::from_device(IoOpcode::Read, 1, len);
        cmd.cdw10_15[0] = lba as u32;
        cmd.cdw10_15[1] = (lba >> 32) as u32;
        let completion = self.passthru(&cmd, TransferMethod::Prp)?;
        if !completion.status.is_success() {
            return Err(DeviceError::Command(completion.status));
        }
        Ok(completion.data.unwrap_or_default())
    }

    /// Runs `n` writes of `size` bytes through `method` and summarizes
    /// latency + traffic — the measurement loop behind Fig 1(b), Fig 5 and
    /// the microbench examples.
    ///
    /// # Errors
    ///
    /// Propagates the first failed write.
    pub fn measure_writes(
        &mut self,
        n: usize,
        size: usize,
        method: TransferMethod,
    ) -> Result<RunReport, DeviceError> {
        let traffic_before = self.traffic();
        let recovery_before = self.recovery_stats();
        let faults_before = self.fault_counters();
        let t0 = self.now();
        let mut latencies = LatencySamples::with_capacity(n);
        let data = vec![0xA5u8; size];
        for i in 0..n {
            let completion = self.write((i % 1024) as u64 * 16, &data, method)?;
            latencies.record(completion.latency());
        }
        let traffic = self.traffic().since(&traffic_before);
        Ok(RunReport {
            ops: n,
            payload_bytes: (n * size) as u64,
            elapsed: self.now() - t0,
            latencies,
            traffic,
            recovery: self.recovery_stats().since(&recovery_before),
            faults: self.fault_counters().since(&faults_before),
        })
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::new()
    }
}

/// Summary of one measurement run.
///
/// Serializes to a machine-readable JSON object (latency samples digest to a
/// fixed `Summary`); every `bx-bench` binary can emit it via
/// `--json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunReport {
    /// Operations performed.
    pub ops: usize,
    /// Application payload bytes moved.
    pub payload_bytes: u64,
    /// Virtual time elapsed.
    pub elapsed: Nanos,
    /// Per-op latency samples.
    pub latencies: LatencySamples,
    /// PCIe traffic for the run.
    pub traffic: bx_pcie::TrafficCounters,
    /// Driver recovery activity during the run (all zero unless a power
    /// cut caught a command in flight).
    pub recovery: RecoveryStats,
    /// Power cuts fired during the run.
    pub faults: FaultCounters,
}

impl RunReport {
    /// The run as a JSON value, with derived ratios attached alongside the
    /// raw counters.
    pub fn to_value(&self) -> serde::Value {
        use serde::Serialize;
        let mut v = <Self as Serialize>::to_value(self);
        if let serde::Value::Object(fields) = &mut v {
            fields.push((
                "wire_bytes_per_op".to_string(),
                serde::Value::F64(self.wire_bytes_per_op()),
            ));
            fields.push((
                "amplification".to_string(),
                serde::Value::F64(self.amplification()),
            ));
            fields.push((
                "throughput_ops_per_sec".to_string(),
                serde::Value::F64(self.throughput_ops_per_sec()),
            ));
        }
        v
    }
    /// Average wire bytes per operation.
    pub fn wire_bytes_per_op(&self) -> f64 {
        self.traffic.total_bytes() as f64 / self.ops as f64
    }

    /// Traffic amplification: wire bytes / payload bytes (Fig 1c).
    pub fn amplification(&self) -> f64 {
        self.traffic.total_bytes() as f64 / self.payload_bytes as f64
    }

    /// Mean per-op latency.
    pub fn mean_latency(&self) -> Nanos {
        self.latencies.mean()
    }

    /// Ops per second over the serialized run.
    pub(crate) fn throughput_ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_write_read_round_trip() {
        let mut dev = Device::builder().build();
        let data: Vec<u8> = (0..300).map(|i| (i % 256) as u8).collect();
        dev.write(8, &data, TransferMethod::ByteExpress).unwrap();
        assert_eq!(dev.read(8, 300).unwrap(), data);
    }

    #[test]
    fn measure_writes_report_sane() {
        let mut dev = Device::builder().nand_io(false).build();
        let report = dev
            .measure_writes(100, 64, TransferMethod::ByteExpress)
            .unwrap();
        assert_eq!(report.ops, 100);
        assert_eq!(report.payload_bytes, 6400);
        assert!(report.amplification() > 1.0);
        assert!(report.throughput_ops_per_sec() > 0.0);
        assert!(report.mean_latency() > Nanos::ZERO);
        assert_eq!(report.latencies.summary().count, 100);
    }

    #[test]
    fn reset_between_runs_isolates_traffic() {
        let mut dev = Device::builder().nand_io(false).build();
        dev.measure_writes(10, 64, TransferMethod::Prp).unwrap();
        dev.reset_measurements();
        assert_eq!(dev.traffic().total_bytes(), 0);
        assert_eq!(dev.now(), Nanos::ZERO);
    }

    #[test]
    fn reassembly_device_round_trips() {
        let mut dev = Device::builder()
            .fetch_policy(FetchPolicy::Reassembly)
            .build();
        let data = vec![0x3C; 500];
        dev.write(0, &data, TransferMethod::ByteExpress).unwrap();
        assert_eq!(dev.read(0, 500).unwrap(), data);
        assert_eq!(dev.controller().reassembly().completed_count(), 1);
    }

    #[test]
    fn multi_queue_device() {
        let mut dev = Device::builder().queue_count(4).build();
        assert_eq!(dev.queues().len(), 4);
        let q3 = dev.queues()[3];
        let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, vec![1; 64]);
        cmd.cdw10_15[0] = 0;
        let c = dev
            .passthru_on(q3, &cmd, TransferMethod::ByteExpress)
            .unwrap();
        assert!(c.status.is_success());
    }

    #[test]
    fn failed_command_surfaces_status() {
        let mut dev = Device::builder().build();
        // Reading an unwritten LBA fails with LbaOutOfRange.
        let err = dev.read(999, 100).unwrap_err();
        assert_eq!(err, DeviceError::Command(Status::LbaOutOfRange));
    }

    #[test]
    #[should_panic(expected = "invalid LinkConfig")]
    fn builder_rejects_zero_mps_link() {
        let mut link = LinkConfig::gen2_x8();
        link.max_payload_size = 0;
        let _ = Device::builder().link(link).build();
    }

    #[test]
    fn try_build_rejects_zero_mps_link() {
        let mut link = LinkConfig::gen2_x8();
        link.max_payload_size = 0;
        let err = Device::builder().link(link).try_build().err();
        assert_eq!(
            err,
            Some(DeviceError::Link(LinkConfigError::BadMaxPayloadSize(0)))
        );
    }

    #[test]
    #[should_panic(expected = "invalid LinkConfig")]
    fn build_rejects_hand_mutated_bad_link() {
        let mut builder = Device::builder();
        builder.link.max_read_request_size = 300;
        let _ = builder.build();
    }

    #[test]
    fn try_build_rejects_zero_queues() {
        let err = Device::builder().queue_count(0).try_build().err();
        assert!(
            matches!(err, Some(DeviceError::Driver(DriverError::Unsupported(_)))),
            "{err:?}"
        );
    }

    #[test]
    fn try_build_rejects_hand_mutated_bad_link() {
        let mut builder = Device::builder();
        builder.link.max_read_request_size = 300;
        assert!(builder.try_build().is_err());
    }
}
