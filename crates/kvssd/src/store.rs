//! Host-side key-value store API over the passthrough path.

use crate::firmware::{
    key_into_cdws, pad_key, KvDeviceStats, KvFirmware, MAX_KEY_LEN, MAX_VALUE_LEN,
};
use crate::lsm::{LsmKvFirmware, LsmStats, KV_RANGE_SCAN_OPCODE};
use bx_ssd::NandConfig;

/// An owned key-value pair as returned by range scans.
pub type KvPair = (Vec<u8>, Vec<u8>);
use byteexpress::{
    Completion, Device, DeviceError, ExecutionModel, FaultConfig, FetchPolicy, IoOpcode, Nanos,
    PassthruCmd, RecoveryReport, RetryPolicy, Status, TransferMethod,
};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Errors from the key-value API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Key exceeds the 16-byte wire format.
    KeyTooLong {
        /// Offending key length.
        len: usize,
    },
    /// Value exceeds one log page.
    ValueTooLarge {
        /// Offending value length.
        len: usize,
    },
    /// The device failed the command.
    Device(DeviceError),
    /// The device returned a malformed iterator response.
    CorruptResponse,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::KeyTooLong { len } => {
                write!(f, "key of {len} bytes exceeds {MAX_KEY_LEN}")
            }
            KvError::ValueTooLarge { len } => {
                write!(f, "value of {len} bytes exceeds {MAX_VALUE_LEN}")
            }
            KvError::Device(e) => write!(f, "device error: {e}"),
            KvError::CorruptResponse => write!(f, "corrupt iterator response"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<DeviceError> for KvError {
    fn from(e: DeviceError) -> Self {
        KvError::Device(e)
    }
}

/// Which device-side storage engine backs the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvEngine {
    /// Hash-indexed append log with on-media headers and log-replay
    /// recovery ([`KvFirmware`]).
    #[default]
    HashLog,
    /// LSM tree with memtable, sorted runs, compaction and ordered range
    /// scans (`LsmKvFirmware`, the iLSM-style baseline).
    Lsm,
}

/// Configuration for opening a [`KvStore`].
#[derive(Debug, Clone)]
pub struct KvStoreConfig {
    /// Transfer method for PUT values (the Fig 6 variable).
    pub method: TransferMethod,
    /// NAND I/O on (Fig 6) or off (pure transfer measurement). Read only
    /// when `nand` is `None`.
    pub nand_io: bool,
    /// NAND array override (e.g. a larger one for million-PUT runs). When
    /// given, its `enabled` decides the mode and `nand_io` is ignored.
    pub nand: Option<NandConfig>,
    /// Queue depth.
    pub queue_depth: u16,
    /// Device-side engine.
    pub engine: KvEngine,
    /// Controller execution model (Serial or Pipelined).
    pub execution: ExecutionModel,
    /// Controller chunk-gathering policy; [`FetchPolicy::Reassembly`] also
    /// switches the driver into reassembly framing.
    pub fetch: FetchPolicy,
    /// Driver timeout/retry policy — required for crash runs, where lost
    /// completions are expected rather than a harness bug.
    pub retry: Option<RetryPolicy>,
    /// Fault schedule to arm at build time (e.g. a power-cut countdown).
    pub fault_config: Option<FaultConfig>,
    /// Write-through durable PUTs (hash-log engine, NAND on): the ack
    /// implies the value survives any power cut. See
    /// [`KvFirmware::set_durable_puts`].
    pub durable_puts: bool,
}

impl Default for KvStoreConfig {
    fn default() -> Self {
        KvStoreConfig {
            method: TransferMethod::ByteExpress,
            nand_io: true,
            nand: None,
            queue_depth: 1024,
            engine: KvEngine::HashLog,
            execution: ExecutionModel::Serial,
            fetch: FetchPolicy::QueueLocal,
            retry: None,
            fault_config: None,
            durable_puts: false,
        }
    }
}

/// A key-value store backed by a simulated KV-SSD.
pub struct KvStore {
    dev: Device,
    method: TransferMethod,
    stats: Rc<RefCell<KvDeviceStats>>,
    lsm_stats: Rc<RefCell<LsmStats>>,
    /// The one PUT command, refilled per call so its value buffer is reused.
    put_cmd: PassthruCmd,
}

impl fmt::Debug for KvStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvStore")
            .field("method", &self.method)
            .field("stats", &*self.stats.borrow())
            .finish_non_exhaustive()
    }
}

impl KvStore {
    /// Opens a store on a freshly built device with the configured engine's
    /// firmware.
    pub fn open(cfg: KvStoreConfig) -> Self {
        let stats = Rc::new(RefCell::new(KvDeviceStats::default()));
        let lsm_stats = Rc::new(RefCell::new(LsmStats::default()));
        // The array the device is built with decides the mode, so firmware
        // and NAND cannot disagree.
        let nand_io = cfg.nand.as_ref().map_or(cfg.nand_io, |n| n.enabled);
        let durable_puts = cfg.durable_puts;
        let mut builder = Device::builder()
            .nand_io(nand_io)
            .queue_depth(cfg.queue_depth)
            .execution_model(cfg.execution)
            .fetch_policy(cfg.fetch);
        if let Some(retry) = cfg.retry {
            builder = builder.retry_policy(retry);
        }
        if let Some(faults) = cfg.fault_config {
            builder = builder.fault_config(faults);
        }
        builder = match cfg.engine {
            KvEngine::HashLog => {
                let stats_for_fw = Rc::clone(&stats);
                builder.firmware(move |dram| {
                    let mut fw = KvFirmware::with_stats(dram, nand_io, stats_for_fw);
                    fw.set_durable_puts(durable_puts);
                    Box::new(fw)
                })
            }
            KvEngine::Lsm => {
                let stats_for_fw = Rc::clone(&lsm_stats);
                builder.firmware(move |dram| {
                    Box::new(LsmKvFirmware::with_stats(dram, nand_io, stats_for_fw))
                })
            }
        };
        if let Some(nand) = cfg.nand {
            builder = builder.nand_config(nand);
        }
        KvStore {
            dev: builder.build(),
            method: cfg.method,
            stats,
            lsm_stats,
            put_cmd: PassthruCmd::to_device(IoOpcode::KvPut, 1, Vec::new()),
        }
    }

    /// LSM-engine counters (all zero for the hash-log engine).
    pub fn lsm_stats(&self) -> LsmStats {
        *self.lsm_stats.borrow()
    }

    /// Ordered scan: up to `limit` key-value pairs starting at `start`
    /// (inclusive), in key order — the iterator extension of the LSM
    /// baseline. Only the [`KvEngine::Lsm`] engine supports it.
    ///
    /// # Errors
    ///
    /// [`KvError::Device`] with `InvalidOpcode` on the hash-log engine;
    /// [`KvError::CorruptResponse`] on malformed responses.
    pub fn range(&mut self, start: &[u8], limit: usize) -> Result<Vec<KvPair>, KvError> {
        const BUF: usize = 64 << 10;
        let mut cmd = PassthruCmd::from_device(IoOpcode::KvGet, 1, BUF);
        cmd.opcode = KV_RANGE_SCAN_OPCODE;
        cmd.cdw10_15 = Self::key_cmd(start)?;
        cmd.cdw10_15[4] = limit as u32; // CDW14
        let completion = self.dev.passthru(&cmd, TransferMethod::Prp)?;
        if !completion.status.is_success() {
            return Err(KvError::Device(DeviceError::Command(completion.status)));
        }
        let data = completion.data.ok_or(KvError::CorruptResponse)?;
        if data.len() < 4 {
            return Err(KvError::CorruptResponse);
        }
        let count = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
        let mut out = Vec::with_capacity(count);
        let mut off = 4usize;
        for _ in 0..count {
            if off + MAX_KEY_LEN + 2 > data.len() {
                return Err(KvError::CorruptResponse);
            }
            let raw_key = &data[off..off + MAX_KEY_LEN];
            let end = raw_key.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            let key = raw_key[..end].to_vec();
            let vlen =
                u16::from_le_bytes([data[off + MAX_KEY_LEN], data[off + MAX_KEY_LEN + 1]]) as usize;
            off += MAX_KEY_LEN + 2;
            if off + vlen > data.len() {
                return Err(KvError::CorruptResponse);
            }
            out.push((key, data[off..off + vlen].to_vec()));
            off += vlen;
        }
        Ok(out)
    }

    /// Changes the PUT transfer method.
    pub fn set_method(&mut self, method: TransferMethod) {
        self.method = method;
    }

    /// The underlying device (traffic counters, clock).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Mutable device access.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.dev
    }

    /// Device-side operation counters.
    pub fn device_stats(&self) -> KvDeviceStats {
        *self.stats.borrow()
    }

    fn key_cmd(key: &[u8]) -> Result<[u32; 6], KvError> {
        if key.len() > MAX_KEY_LEN {
            return Err(KvError::KeyTooLong { len: key.len() });
        }
        let mut cdws = [0u32; 6];
        key_into_cdws(&pad_key(key), &mut cdws);
        Ok(cdws)
    }

    /// Stores `value` under `key`, transferring the value with the store's
    /// method. Returns the completion (latency is the Fig 6 sample).
    ///
    /// # Errors
    ///
    /// [`KvError::KeyTooLong`] / [`KvError::ValueTooLarge`] for limit
    /// violations; [`KvError::Device`] for transport or device failures.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<Completion, KvError> {
        if value.len() > MAX_VALUE_LEN {
            return Err(KvError::ValueTooLarge { len: value.len() });
        }
        self.put_cmd.cdw10_15 = Self::key_cmd(key)?;
        self.put_cmd.set_data(value);
        let completion = self.dev.passthru(&self.put_cmd, self.method)?;
        if !completion.status.is_success() {
            return Err(KvError::Device(DeviceError::Command(completion.status)));
        }
        Ok(completion)
    }

    /// Fetches the value for `key`, or `None` if absent.
    ///
    /// # Errors
    ///
    /// [`KvError`] on limit violations or device failures.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let mut cmd = PassthruCmd::from_device(IoOpcode::KvGet, 1, MAX_VALUE_LEN);
        cmd.cdw10_15 = Self::key_cmd(key)?;
        let completion = self.dev.passthru(&cmd, TransferMethod::Prp)?;
        match completion.status {
            Status::Success => {
                let len = completion.result as usize;
                let mut data = completion.data.unwrap_or_default();
                data.truncate(len);
                Ok(Some(data))
            }
            Status::KvKeyNotFound => Ok(None),
            other => Err(KvError::Device(DeviceError::Command(other))),
        }
    }

    /// Deletes `key`; returns whether it existed.
    ///
    /// # Errors
    ///
    /// [`KvError`] on limit violations or device failures.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, KvError> {
        let mut cmd = PassthruCmd::no_data(IoOpcode::KvDelete, 1);
        cmd.cdw10_15 = Self::key_cmd(key)?;
        let completion = self.dev.passthru(&cmd, TransferMethod::Prp)?;
        match completion.status {
            Status::Success => Ok(true),
            Status::KvKeyNotFound => Ok(false),
            other => Err(KvError::Device(DeviceError::Command(other))),
        }
    }

    /// Lists all keys via the device iterator command (paged scans).
    ///
    /// # Errors
    ///
    /// [`KvError`] on device failures or malformed responses.
    pub fn keys(&mut self) -> Result<Vec<Vec<u8>>, KvError> {
        const PAGE: usize = 4096;
        let mut out = Vec::new();
        let mut cursor = 0u32;
        loop {
            let mut cmd = PassthruCmd::from_device(IoOpcode::KvIter, 1, PAGE);
            cmd.cdw10_15[4] = cursor; // CDW14
            let completion = self.dev.passthru(&cmd, TransferMethod::Prp)?;
            if !completion.status.is_success() {
                return Err(KvError::Device(DeviceError::Command(completion.status)));
            }
            let data = completion.data.ok_or(KvError::CorruptResponse)?;
            if data.len() < 8 {
                return Err(KvError::CorruptResponse);
            }
            let count = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
            let next = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
            if data.len() < 8 + count * MAX_KEY_LEN {
                return Err(KvError::CorruptResponse);
            }
            for i in 0..count {
                let raw = &data[8 + i * MAX_KEY_LEN..8 + (i + 1) * MAX_KEY_LEN];
                let end = raw.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
                out.push(raw[..end].to_vec());
            }
            if next == u32::MAX {
                return Ok(out);
            }
            cursor = next;
        }
    }

    /// Bulk PUT: stores many pairs with one command (the §2.2.1 batching
    /// alternative — fewer protocol round trips, but every pair in the batch
    /// shares one durability point, which is exactly why fine-grained
    /// workloads can't always use it).
    ///
    /// # Errors
    ///
    /// [`KvError`] on limit violations or device failures.
    pub fn put_batch(&mut self, pairs: &[(&[u8], &[u8])]) -> Result<Completion, KvError> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (key, value) in pairs {
            if key.len() > MAX_KEY_LEN {
                return Err(KvError::KeyTooLong { len: key.len() });
            }
            if value.len() > MAX_VALUE_LEN {
                return Err(KvError::ValueTooLarge { len: value.len() });
            }
            payload.extend_from_slice(&pad_key(key));
            payload.extend_from_slice(&(value.len() as u16).to_le_bytes());
            payload.extend_from_slice(value);
        }
        let cmd = PassthruCmd::to_device(IoOpcode::KvBatchPut, 1, payload);
        let completion = self.dev.passthru(&cmd, self.method)?;
        if !completion.status.is_success() {
            return Err(KvError::Device(DeviceError::Command(completion.status)));
        }
        Ok(completion)
    }

    /// A power cycle through the real power-fail path: cuts power (if a
    /// fault-injected cut has not already fired), rebuilds the FTL from
    /// NAND + journal, re-runs NVMe bring-up, and lets the firmware rebuild
    /// its index from the persisted log. Nothing volatile survives this.
    ///
    /// # Errors
    ///
    /// [`KvError::Device`] if bring-up after the cut fails.
    pub fn hard_power_cycle(&mut self) -> Result<RecoveryReport, KvError> {
        Ok(self.dev.power_cycle()?)
    }

    /// Current virtual time (for throughput computation).
    pub fn now(&self) -> Nanos {
        self.dev.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(method: TransferMethod) -> KvStore {
        KvStore::open(KvStoreConfig {
            method,
            ..Default::default()
        })
    }

    #[test]
    fn put_get_delete_cycle() {
        let mut s = store(TransferMethod::ByteExpress);
        assert_eq!(s.get(b"k").unwrap(), None);
        s.put(b"k", b"v1").unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap(), b"v1");
        s.put(b"k", b"v2-longer").unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap(), b"v2-longer");
        assert!(s.delete(b"k").unwrap());
        assert!(!s.delete(b"k").unwrap());
        assert_eq!(s.get(b"k").unwrap(), None);
    }

    #[test]
    fn all_methods_store_correctly() {
        for method in [
            TransferMethod::Prp,
            TransferMethod::BandSlim { embed_first: true },
            TransferMethod::ByteExpress,
            TransferMethod::hybrid_default(),
        ] {
            let mut s = store(method);
            for i in 0..50u32 {
                let key = format!("key-{i:03}");
                let value = vec![(i % 251) as u8; 20 + (i as usize * 7) % 200];
                s.put(key.as_bytes(), &value).unwrap();
            }
            for i in 0..50u32 {
                let key = format!("key-{i:03}");
                let expect = vec![(i % 251) as u8; 20 + (i as usize * 7) % 200];
                assert_eq!(
                    s.get(key.as_bytes()).unwrap().unwrap(),
                    expect,
                    "{method} key {key}"
                );
            }
        }
    }

    #[test]
    fn keys_iterator_lists_everything() {
        let mut s = store(TransferMethod::ByteExpress);
        let mut expect = Vec::new();
        for i in 0..300u32 {
            let key = format!("key-{i:05}");
            s.put(key.as_bytes(), b"x").unwrap();
            expect.push(key.into_bytes());
        }
        expect.sort();
        let keys = s.keys().unwrap();
        assert_eq!(keys, expect);
    }

    #[test]
    fn limits_enforced() {
        let mut s = store(TransferMethod::ByteExpress);
        assert_eq!(
            s.put(b"seventeen-bytes!!", b"v").unwrap_err(),
            KvError::KeyTooLong { len: 17 }
        );
        assert!(matches!(
            s.put(b"k", &vec![0; MAX_VALUE_LEN + 1]).unwrap_err(),
            KvError::ValueTooLarge { .. }
        ));
    }

    #[test]
    fn byteexpress_puts_generate_less_traffic_than_prp() {
        let run = |method| {
            let mut s = store(method);
            let before = s.device().traffic();
            for i in 0..100u32 {
                s.put(format!("k{i:04}").as_bytes(), &[7u8; 64]).unwrap();
            }
            s.device().traffic().since(&before).total_bytes()
        };
        let prp = run(TransferMethod::Prp);
        let bx = run(TransferMethod::ByteExpress);
        assert!(
            (1.0 - bx as f64 / prp as f64) > 0.85,
            "bx {bx} vs prp {prp}"
        );
    }

    #[test]
    fn device_stats_shared() {
        let mut s = store(TransferMethod::ByteExpress);
        s.put(b"a", b"1").unwrap();
        s.get(b"a").unwrap();
        s.get(b"missing").unwrap();
        let stats = s.device_stats();
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn nand_off_store_works() {
        let mut s = KvStore::open(KvStoreConfig {
            nand_io: false,
            ..Default::default()
        });
        for i in 0..100u32 {
            s.put(format!("k{i}").as_bytes(), format!("value {i}").as_bytes())
                .unwrap();
        }
        assert_eq!(s.get(b"k42").unwrap().unwrap(), b"value 42");
    }

    /// A `nand` override decides the mode whatever `nand_io` says, for both
    /// engines: every value reads back and the array is touched exactly when
    /// it is enabled.
    #[test]
    fn nand_override_decides_the_mode() {
        for engine in [KvEngine::HashLog, KvEngine::Lsm] {
            for (nand_io, nand) in [(true, NandConfig::disabled()), (false, NandConfig::small())] {
                let mut s = KvStore::open(KvStoreConfig {
                    nand_io,
                    nand: Some(nand.clone()),
                    engine,
                    ..Default::default()
                });
                let value = |i: u32| vec![(i % 251) as u8 + 1; 300];
                for i in 0..200u32 {
                    s.put(format!("k{i}").as_bytes(), &value(i)).unwrap();
                }
                for i in 0..200u32 {
                    let got = s.get(format!("k{i}").as_bytes()).unwrap();
                    assert_eq!(got, Some(value(i)), "{engine:?} nand_io {nand_io} key {i}");
                }
                let programs = s.device().controller().nand_stats().programs;
                assert_eq!(programs > 0, nand.enabled, "{engine:?} nand_io {nand_io}");
            }
        }
    }
}
