//! Host-side key-value store API over the passthrough path.

use crate::firmware::{
    key_into_cdws, pad_key, KvDeviceStats, KvFirmware, MAX_KEY_LEN, MAX_VALUE_LEN,
};
use byteexpress::{
    Completion, Device, DeviceError, ExecutionModel, FetchPolicy, IoOpcode, Nanos, PassthruCmd,
    RecoveryReport, RetryPolicy, Status, TransferMethod,
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
        }
    }
}

impl std::error::Error for KvError {}

impl From<DeviceError> for KvError {
    fn from(e: DeviceError) -> Self {
        KvError::Device(e)
    }
}

/// Configuration for opening a [`KvStore`].
#[derive(Debug, Clone)]
pub struct KvStoreConfig {
    /// Transfer method for PUT values (the Fig 6 variable).
    pub method: TransferMethod,
    /// NAND I/O on (Fig 6) or off (pure transfer measurement): decides the
    /// device's array and the firmware's page store alike.
    pub nand_io: bool,
    /// Controller execution model (Serial or Pipelined).
    pub execution: ExecutionModel,
    /// Controller chunk-gathering policy; [`FetchPolicy::Reassembly`] also
    /// switches the driver into reassembly framing.
    pub fetch: FetchPolicy,
    /// Driver timeout policy: the deadline after which a command cut down
    /// in flight by a power cut is given up on.
    pub retry: Option<RetryPolicy>,
    /// Write-through durable PUTs (NAND on): the ack
    /// implies the value survives any power cut. See
    /// [`KvFirmware::set_durable_puts`].
    pub durable_puts: bool,
}

impl Default for KvStoreConfig {
    fn default() -> Self {
        KvStoreConfig {
            method: TransferMethod::ByteExpress,
            nand_io: true,
            execution: ExecutionModel::Serial,
            fetch: FetchPolicy::QueueLocal,
            retry: None,
            durable_puts: false,
        }
    }
}

/// A key-value store backed by a simulated KV-SSD.
pub struct KvStore {
    dev: Device,
    method: TransferMethod,
    stats: Rc<RefCell<KvDeviceStats>>,
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
    /// Opens a store on a freshly built device running [`KvFirmware`].
    pub fn open(cfg: KvStoreConfig) -> Self {
        let stats = Rc::new(RefCell::new(KvDeviceStats::default()));
        let stats_for_fw = Rc::clone(&stats);
        // One flag builds the array and the firmware's page store, so they
        // cannot disagree.
        let (nand_io, durable_puts) = (cfg.nand_io, cfg.durable_puts);
        let mut builder = Device::builder()
            .nand_io(nand_io)
            .execution_model(cfg.execution)
            .fetch_policy(cfg.fetch)
            .firmware(move |dram| {
                let mut fw = KvFirmware::with_stats(dram, nand_io, stats_for_fw);
                fw.set_durable_puts(durable_puts);
                Box::new(fw)
            });
        if let Some(retry) = cfg.retry {
            builder = builder.retry_policy(retry);
        }
        KvStore {
            dev: builder.build(),
            method: cfg.method,
            stats,
            put_cmd: PassthruCmd::to_device(IoOpcode::KvPut, 1, Vec::new()),
        }
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
            Status::Success => Ok(Some(completion.data.unwrap_or_default())),
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

    /// Enough PUTs to flush log pages; every value reads back, and the
    /// array is programmed exactly when `nand_io` is on.
    fn nand_io_decides_the_mode(nand_io: bool) {
        let mut s = KvStore::open(KvStoreConfig {
            nand_io,
            ..Default::default()
        });
        let value = |i: u32| vec![(i % 251) as u8 + 1; 300];
        for i in 0..200u32 {
            s.put(format!("k{i}").as_bytes(), &value(i)).unwrap();
        }
        for i in 0..200u32 {
            let got = s.get(format!("k{i}").as_bytes()).unwrap();
            assert_eq!(got, Some(value(i)), "nand_io {nand_io} key {i}");
        }
        assert!(s.device_stats().flushes > 0, "nand_io {nand_io}");
        let programs = s.device().controller().nand_stats().programs;
        assert_eq!(programs > 0, nand_io, "nand_io {nand_io}");
    }

    #[test]
    fn nand_off_store_works() {
        nand_io_decides_the_mode(false);
    }

    #[test]
    fn nand_on_store_programs_the_array() {
        nand_io_decides_the_mode(true);
    }
}
