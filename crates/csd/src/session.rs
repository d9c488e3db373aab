//! Host-side CSD session: table management and pushdown execution.

use crate::firmware::{CsdDeviceStats, CsdFirmware, TASK_MODE_FULL_SQL, TASK_MODE_SEGMENT};
use crate::row::Row;
use crate::schema::Schema;
use byteexpress::{
    Completion, Device, DeviceError, IoOpcode, Nanos, PassthruCmd, Status, TransferMethod,
};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// How the pushdown task message is encoded (Fig 7 compares both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEncoding {
    /// The complete SQL string.
    FullSql,
    /// Only the table identifier + predicate segment (`table\0predicate`).
    Segment,
}

/// Errors from the CSD session API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsdError {
    /// The device failed the command.
    Device(DeviceError),
    /// Result bytes did not decode against the schema.
    CorruptResult,
    /// A loaded row did not match the table schema.
    RowSchemaMismatch,
}

impl fmt::Display for CsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsdError::Device(e) => write!(f, "device error: {e}"),
            CsdError::CorruptResult => write!(f, "corrupt result payload"),
            CsdError::RowSchemaMismatch => write!(f, "row does not match table schema"),
        }
    }
}

impl std::error::Error for CsdError {}

impl From<DeviceError> for CsdError {
    fn from(e: DeviceError) -> Self {
        CsdError::Device(e)
    }
}

/// Configuration for opening a [`CsdSession`].
#[derive(Debug, Clone)]
pub struct CsdConfig {
    /// NAND I/O on or off: decides the device's array and the firmware's
    /// page store alike.
    pub nand_io: bool,
}

impl Default for CsdConfig {
    fn default() -> Self {
        CsdConfig { nand_io: true }
    }
}

/// Outcome of one pushdown task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushdownReport {
    /// Rows the device matched.
    pub matches: u32,
    /// Bytes of task message transferred (the Fig 7 payload size).
    pub task_bytes: usize,
    /// End-to-end task latency.
    pub latency: Nanos,
}

/// A host session against a CSD device.
pub struct CsdSession {
    dev: Device,
    stats: Rc<RefCell<CsdDeviceStats>>,
}

impl fmt::Debug for CsdSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsdSession")
            .field("stats", &*self.stats.borrow())
            .finish_non_exhaustive()
    }
}

impl CsdSession {
    /// Opens a session on a freshly built CSD device.
    pub fn open(cfg: CsdConfig) -> Self {
        let stats = Rc::new(RefCell::new(CsdDeviceStats::default()));
        let stats_for_fw = Rc::clone(&stats);
        // One flag builds the array and the firmware's page store, so they
        // cannot disagree.
        let nand_io = cfg.nand_io;
        let dev = Device::builder()
            .nand_io(nand_io)
            .firmware(move |dram| Box::new(CsdFirmware::with_stats(dram, nand_io, stats_for_fw)))
            .build();
        CsdSession { dev, stats }
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Registers a table schema on the device (bulk setup → PRP).
    ///
    /// # Errors
    ///
    /// [`CsdError::Device`] on transport or device failure.
    pub fn create_table(&mut self, schema: &Schema) -> Result<(), CsdError> {
        let cmd = PassthruCmd::to_device(IoOpcode::CsdCreateTable, 1, schema.encode());
        let completion = self.dev.passthru(&cmd, TransferMethod::Prp)?;
        self.check(completion.status)
    }

    /// Loads rows into a table in page-sized batches (bulk setup → PRP).
    ///
    /// # Errors
    ///
    /// [`CsdError::RowSchemaMismatch`] if a row violates `schema`;
    /// [`CsdError::Device`] on transport/device failure.
    pub fn load_rows(&mut self, schema: &Schema, rows: &[Row]) -> Result<(), CsdError> {
        if rows.iter().any(|r| !r.matches_schema(schema)) {
            return Err(CsdError::RowSchemaMismatch);
        }
        // Batch to keep each command's payload a few pages.
        const BATCH: usize = 256;
        for chunk in rows.chunks(BATCH) {
            let mut payload = Vec::new();
            payload.extend_from_slice(&(schema.table.len() as u16).to_le_bytes());
            payload.extend_from_slice(schema.table.as_bytes());
            payload.extend_from_slice(&Row::encode_batch(chunk));
            let cmd = PassthruCmd::to_device(IoOpcode::CsdLoadRows, 1, payload);
            let completion = self.dev.passthru(&cmd, TransferMethod::Prp)?;
            self.check(completion.status)?;
        }
        Ok(())
    }

    /// Pushes a filter task down to the device. The task message is the full
    /// SQL string or the `table\0predicate` segment, moved by `method` — the
    /// Fig 7 experiment in one call.
    ///
    /// # Errors
    ///
    /// [`CsdError::Device`] on transport failure or a device-rejected task.
    pub fn pushdown(
        &mut self,
        full_sql: &str,
        table: &str,
        predicate: &str,
        encoding: TaskEncoding,
        method: TransferMethod,
    ) -> Result<PushdownReport, CsdError> {
        let (mode, payload) = match encoding {
            TaskEncoding::FullSql => (TASK_MODE_FULL_SQL, full_sql.as_bytes().to_vec()),
            TaskEncoding::Segment => (
                TASK_MODE_SEGMENT,
                format!("{table}\0{predicate}").into_bytes(),
            ),
        };
        let task_bytes = payload.len();
        let mut cmd = PassthruCmd::to_device(IoOpcode::CsdExec, 1, payload);
        cmd.cdw10_15[4] = mode; // CDW14
        let completion: Completion = self.dev.passthru(&cmd, method)?;
        self.check(completion.status)?;
        Ok(PushdownReport {
            matches: completion.result,
            task_bytes,
            latency: completion.latency(),
        })
    }

    /// Fetches the last task's matching rows.
    ///
    /// # Errors
    ///
    /// [`CsdError::CorruptResult`] if the payload fails to decode.
    pub fn fetch_results(&mut self, schema: &Schema) -> Result<Vec<Row>, CsdError> {
        const BUF: usize = 1 << 20;
        let cmd = PassthruCmd::from_device(IoOpcode::CsdReadResult, 1, BUF);
        let completion = self.dev.passthru(&cmd, TransferMethod::Prp)?;
        self.check(completion.status)?;
        let data = completion.data.ok_or(CsdError::CorruptResult)?;
        Row::decode_batch(&data, schema).ok_or(CsdError::CorruptResult)
    }

    fn check(&self, status: Status) -> Result<(), CsdError> {
        if status.is_success() {
            Ok(())
        } else {
            Err(CsdError::Device(DeviceError::Command(status)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Value;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(
            "particles",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("energy", ColumnType::Float),
            ],
        )
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64), Value::Float(i as f64 / 10.0)]))
            .collect()
    }

    fn session_with_data(n: usize) -> CsdSession {
        let mut s = CsdSession::open(CsdConfig::default());
        let schema = schema();
        s.create_table(&schema).unwrap();
        s.load_rows(&schema, &rows(n)).unwrap();
        s
    }

    #[test]
    fn end_to_end_pushdown_segment() {
        let mut s = session_with_data(1000);
        for method in [
            TransferMethod::Prp,
            TransferMethod::BandSlim { embed_first: false },
            TransferMethod::ByteExpress,
        ] {
            let report = s
                .pushdown(
                    "SELECT * FROM particles WHERE energy > 49.95",
                    "particles",
                    "energy > 49.95",
                    TaskEncoding::Segment,
                    method,
                )
                .unwrap();
            assert_eq!(report.matches, 500, "{method}");
            assert!(report.latency > Nanos::ZERO);
        }
    }

    #[test]
    fn end_to_end_pushdown_full_sql() {
        let mut s = session_with_data(100);
        let report = s
            .pushdown(
                "SELECT * FROM particles WHERE energy >= 5.0",
                "particles",
                "energy >= 5.0",
                TaskEncoding::FullSql,
                TransferMethod::ByteExpress,
            )
            .unwrap();
        assert_eq!(report.matches, 50);
    }

    #[test]
    fn fetch_results_returns_matching_rows() {
        let mut s = session_with_data(100);
        s.pushdown(
            "SELECT * FROM particles WHERE id >= 95",
            "particles",
            "id >= 95",
            TaskEncoding::Segment,
            TransferMethod::ByteExpress,
        )
        .unwrap();
        let got = s.fetch_results(&schema()).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].values[0], Value::Int(95));
        assert_eq!(got[4].values[0], Value::Int(99));
    }

    #[test]
    fn segment_payload_is_smaller_and_cheaper() {
        let mut s = session_with_data(10);
        let full = "SELECT id, energy, count(*) FROM particles WHERE energy > 0.5 GROUP BY id ORDER BY energy";
        let before = s.device().traffic();
        let r_full = s
            .pushdown(
                full,
                "particles",
                "energy > 0.5",
                TaskEncoding::FullSql,
                TransferMethod::ByteExpress,
            )
            .unwrap();
        let full_traffic = s.device().traffic().since(&before).total_bytes();

        let before = s.device().traffic();
        let r_seg = s
            .pushdown(
                full,
                "particles",
                "energy > 0.5",
                TaskEncoding::Segment,
                TransferMethod::ByteExpress,
            )
            .unwrap();
        let seg_traffic = s.device().traffic().since(&before).total_bytes();

        assert_eq!(r_full.matches, r_seg.matches);
        assert!(r_seg.task_bytes < r_full.task_bytes);
        assert!(seg_traffic <= full_traffic);
    }

    #[test]
    fn bad_task_is_reported() {
        let mut s = session_with_data(10);
        let err = s
            .pushdown(
                "SELECT * FROM ghost WHERE a > 1",
                "ghost",
                "a > 1",
                TaskEncoding::Segment,
                TransferMethod::ByteExpress,
            )
            .unwrap_err();
        assert_eq!(
            err,
            CsdError::Device(DeviceError::Command(Status::CsdBadTask))
        );
    }

    #[test]
    fn row_schema_mismatch_rejected_host_side() {
        let mut s = CsdSession::open(CsdConfig::default());
        let schema = schema();
        s.create_table(&schema).unwrap();
        let bad = vec![Row::new(vec![Value::Int(1)])];
        assert_eq!(
            s.load_rows(&schema, &bad).unwrap_err(),
            CsdError::RowSchemaMismatch
        );
    }

    /// `nand_io` alone decides the mode: every row scans back and the array
    /// is read exactly when it is on.
    #[test]
    fn nand_io_decides_the_mode() {
        for nand_io in [true, false] {
            let mut s = CsdSession::open(CsdConfig { nand_io });
            let schema = schema();
            s.create_table(&schema).unwrap();
            s.load_rows(&schema, &rows(2000)).unwrap();
            s.pushdown(
                "",
                "particles",
                "id >= 0",
                TaskEncoding::Segment,
                TransferMethod::ByteExpress,
            )
            .unwrap();
            let got = s.fetch_results(&schema).unwrap();
            assert!(got == rows(2000), "nand_io {nand_io}: rows differ");
            let reads = s.device().controller().nand_stats().reads;
            assert_eq!(reads > 0, nand_io, "nand_io {nand_io}");
        }
    }
}
