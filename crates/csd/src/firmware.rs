//! The CSD firmware personality: table catalog, row store over a
//! [`PageStore`], and the in-storage filter executor.
//!
//! Execution model (YourSQL-style, §2.2.2): the device already holds table
//! schemas and row pages; a pushdown task names a table and a predicate; the
//! firmware scans the table's pages (paying NAND read time when NAND I/O is
//! on), evaluates the predicate per row, and stages matching rows in a DRAM
//! result workspace that the host drains with a read-result command.

use crate::eval::{eval, UnknownColumn};
use crate::row::Row;
use crate::schema::{Cursor, Schema};
use crate::sql::{parse_predicate, parse_query};
use bx_hostsim::{Nanos, PAGE_SIZE};
use bx_nvme::{IoOpcode, Status, SubmissionEntry};
use bx_ssd::{CommandOutcome, DeviceDram, FirmwareCtx, FirmwareHandler, PageStore};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Task-encoding discriminator carried in CDW14 of `CsdExec`.
pub(crate) const TASK_MODE_FULL_SQL: u32 = 0;
/// Segment mode: payload is `table\0predicate`.
pub(crate) const TASK_MODE_SEGMENT: u32 = 1;

/// Device-side counters, shared with the host session handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CsdDeviceStats {
    /// Tables created.
    pub tables_created: u64,
    /// Rows loaded.
    pub rows_loaded: u64,
    /// Pushdown tasks executed.
    pub tasks_executed: u64,
    /// Rows scanned across all tasks.
    pub rows_scanned: u64,
    /// Rows matched across all tasks.
    pub rows_matched: u64,
    /// Task payload bytes received (the Fig 7 quantity).
    pub task_bytes_in: u64,
}

/// Firmware timing constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CsdTiming {
    /// SQL parse cost per task byte.
    pub parse_per_byte: Nanos,
    /// Predicate evaluation per row.
    pub row_eval: Nanos,
    /// Result-row staging per byte.
    pub result_per_byte: Nanos,
}

impl Default for CsdTiming {
    fn default() -> Self {
        CsdTiming {
            parse_per_byte: Nanos::from_ns(2),
            row_eval: Nanos::from_ns(50),
            result_per_byte: Nanos::from_ns(1),
        }
    }
}

#[derive(Debug)]
struct TableState {
    schema: Schema,
    /// Flushed row pages: (lpn, rows in page).
    pages: Vec<(u64, u32)>,
    /// Rows not yet filling a whole page (device-DRAM staging).
    staging: Vec<u8>,
    staging_rows: u32,
    row_count: u64,
}

/// Maximum result-workspace size.
const RESULT_CAPACITY: usize = 1 << 20;

/// The computational-storage firmware.
#[derive(Debug)]
pub(crate) struct CsdFirmware {
    /// Row pages; the scan pays NAND read time only, so the DRAM log is free.
    pages: PageStore,
    timing: CsdTiming,
    tables: BTreeMap<String, TableState>,
    next_lpn: u64,
    /// DRAM result workspace.
    result_off: usize,
    result_len: usize,
    result_matches: u32,
    stats: Rc<RefCell<CsdDeviceStats>>,
}

impl CsdFirmware {
    /// Creates the firmware, claiming its DRAM regions and sharing `stats`
    /// with the host session.
    pub(crate) fn with_stats(
        dram: &mut DeviceDram,
        nand_io: bool,
        stats: Rc<RefCell<CsdDeviceStats>>,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time sizing bug, not a runtime state; DRAM capacity is a build parameter"
        )]
        let result = dram
            .alloc_region("csd-result", RESULT_CAPACITY)
            .expect("device DRAM too small for CSD result workspace");
        CsdFirmware {
            pages: PageStore::new(dram, "csd-dram-log", nand_io, Nanos::ZERO, Nanos::ZERO),
            timing: CsdTiming::default(),
            tables: BTreeMap::new(),
            next_lpn: 0,
            result_off: result.offset,
            result_len: 0,
            result_matches: 0,
            stats,
        }
    }

    fn create_table(&mut self, ctx: &FirmwareCtx<'_>, payload: &[u8]) -> CommandOutcome {
        let now = ctx.now + self.timing.parse_per_byte * payload.len() as u64;
        let Some(schema) = Schema::decode(payload) else {
            return CommandOutcome::fail(Status::CsdBadTask, now);
        };
        self.stats.borrow_mut().tables_created += 1;
        self.tables.insert(
            schema.table.clone(),
            TableState {
                schema,
                pages: Vec::new(),
                staging: Vec::new(),
                staging_rows: 0,
                row_count: 0,
            },
        );
        CommandOutcome::ok(now)
    }

    /// Row-load payload: `[table_len u16][table][count u32][rows…]`.
    fn load_rows(&mut self, ctx: &mut FirmwareCtx<'_>, payload: &[u8]) -> CommandOutcome {
        let mut now = ctx.now;
        let mut cur = Cursor {
            bytes: payload,
            pos: 0,
        };
        let Some(table) = cur.take_string() else {
            return CommandOutcome::fail(Status::CsdBadTask, now);
        };
        let Some(count) = cur.take_u32() else {
            return CommandOutcome::fail(Status::CsdBadTask, now);
        };
        let Some(state) = self.tables.get_mut(&table) else {
            return CommandOutcome::fail(Status::CsdBadTask, now);
        };
        for _ in 0..count {
            let Some(row) = Row::decode_from(&mut cur, &state.schema) else {
                return CommandOutcome::fail(Status::CsdBadTask, now);
            };
            let mut encoded = Vec::with_capacity(row.encoded_len());
            row.encode_into(&mut encoded);
            if encoded.len() > PAGE_SIZE - 4 {
                return CommandOutcome::fail(Status::KvInvalidSize, now);
            }
            if 4 + state.staging.len() + encoded.len() > PAGE_SIZE {
                // Flush the staged page.
                match flush_table_page(state, &mut self.next_lpn, &self.pages, ctx, now) {
                    Ok(t) => now = t,
                    Err(s) => return CommandOutcome::fail(s, now),
                }
            }
            state.staging.extend_from_slice(&encoded);
            state.staging_rows += 1;
            state.row_count += 1;
        }
        self.stats.borrow_mut().rows_loaded += count as u64;
        CommandOutcome::ok(now)
    }

    /// Executes a pushdown task.
    fn exec_task(
        &mut self,
        ctx: &mut FirmwareCtx<'_>,
        mode: u32,
        payload: &[u8],
    ) -> CommandOutcome {
        let mut now = ctx.now + self.timing.parse_per_byte * payload.len() as u64;
        self.stats.borrow_mut().task_bytes_in += payload.len() as u64;

        let Ok(text) = std::str::from_utf8(payload) else {
            return CommandOutcome::fail(Status::CsdBadTask, now);
        };
        let (table_name, predicate, policy) = match mode {
            TASK_MODE_SEGMENT => {
                let Some((table, pred_text)) = text.split_once('\0') else {
                    return CommandOutcome::fail(Status::CsdBadTask, now);
                };
                let Ok(pred) = parse_predicate(pred_text) else {
                    return CommandOutcome::fail(Status::CsdBadTask, now);
                };
                (table.to_string(), Some(pred), UnknownColumn::Error)
            }
            TASK_MODE_FULL_SQL => {
                let Ok(query) = parse_query(text) else {
                    return CommandOutcome::fail(Status::CsdBadTask, now);
                };
                // Pick the FROM table we actually store whose columns the
                // predicate references the most — the paper's single-table
                // filter isolation for TPC-H.
                let best = query
                    .tables
                    .iter()
                    .filter_map(|t| self.tables.get(t).map(|s| (t, s)))
                    .max_by_key(|(_, s)| {
                        query
                            .predicate
                            .as_ref()
                            .map(|p| {
                                p.columns()
                                    .iter()
                                    .filter(|c| s.schema.has_column(c))
                                    .count()
                            })
                            .unwrap_or(0)
                    })
                    .map(|(t, _)| t.clone());
                let Some(table) = best else {
                    return CommandOutcome::fail(Status::CsdBadTask, now);
                };
                (table, query.predicate, UnknownColumn::Neutral)
            }
            _ => return CommandOutcome::fail(Status::InvalidField, now),
        };

        // Reset the result workspace before borrowing the table state.
        self.result_len = 0;
        self.result_matches = 0;

        let Some(state) = self.tables.get(&table_name) else {
            return CommandOutcome::fail(Status::CsdBadTask, now);
        };
        let mut scanned = 0u64;
        let mut result = Vec::new();
        let mut status = Status::Success;

        let mut scan_page = |page: &[u8],
                             rows: u32,
                             now: &mut Nanos,
                             result: &mut Vec<u8>,
                             matches: &mut u32|
         -> Status {
            let mut cur = Cursor {
                bytes: page,
                pos: 0,
            };
            for _ in 0..rows {
                let Some(row) = Row::decode_from(&mut cur, &state.schema) else {
                    return Status::InternalError;
                };
                *now += self.timing.row_eval;
                scanned += 1;
                match predicate
                    .as_ref()
                    .map(|p| eval(p, &state.schema, &row, policy))
                    .unwrap_or(Ok(true))
                {
                    Ok(true) => {
                        let before = result.len();
                        row.encode_into(result);
                        if 4 + result.len() > RESULT_CAPACITY {
                            result.truncate(before);
                            return Status::CapacityExceeded;
                        }
                        *now += self.timing.result_per_byte * (result.len() - before) as u64;
                        *matches += 1;
                    }
                    Ok(false) => {}
                    Err(_) => return Status::CsdBadTask,
                }
            }
            Status::Success
        };

        let mut matches = 0u32;
        let mut page = Vec::with_capacity(PAGE_SIZE);
        for &(lpn, rows) in &state.pages {
            page.clear();
            match self
                .pages
                .read_range(ctx, lpn, 0, PAGE_SIZE, now, &mut page)
            {
                Ok(t) => now = t,
                Err(_) => {
                    status = Status::InternalError;
                    break;
                }
            }
            // Skip the per-page row-count header.
            let s = scan_page(&page[4..], rows, &mut now, &mut result, &mut matches);
            if s != Status::Success {
                status = s;
                break;
            }
        }
        if status == Status::Success && state.staging_rows > 0 {
            let staging = state.staging.clone();
            status = scan_page(
                &staging,
                state.staging_rows,
                &mut now,
                &mut result,
                &mut matches,
            );
        }

        if status != Status::Success && status != Status::CapacityExceeded {
            return CommandOutcome::fail(status, now);
        }

        // Stage `[count u32][rows…]` in the result workspace.
        let mut workspace = Vec::with_capacity(4 + result.len());
        workspace.extend_from_slice(&matches.to_le_bytes());
        workspace.extend_from_slice(&result);
        if ctx.dram.write(self.result_off, &workspace).is_err() {
            return CommandOutcome::fail(Status::InternalError, now);
        }
        self.result_len = workspace.len();
        self.result_matches = matches;

        let mut stats = self.stats.borrow_mut();
        stats.tasks_executed += 1;
        stats.rows_scanned += scanned;
        stats.rows_matched += matches as u64;

        CommandOutcome {
            status,
            result: matches,
            response: None,
            complete_at: now,
        }
    }

    fn read_result(&mut self, ctx: &mut FirmwareCtx<'_>, buf_len: usize) -> CommandOutcome {
        let take = self.result_len.min(buf_len);
        let data = match ctx.dram.read(self.result_off, take) {
            Ok(d) => d.to_vec(),
            Err(_) => return CommandOutcome::fail(Status::InternalError, ctx.now),
        };
        CommandOutcome {
            status: Status::Success,
            result: self.result_len as u32,
            response: Some(data),
            complete_at: ctx.now + self.timing.result_per_byte * take as u64,
        }
    }
}

/// Flushes a table's staged rows as one page.
fn flush_table_page(
    state: &mut TableState,
    next_lpn: &mut u64,
    pages: &PageStore,
    ctx: &mut FirmwareCtx<'_>,
    now: Nanos,
) -> Result<Nanos, Status> {
    let lpn = *next_lpn;
    let mut page = vec![0u8; PAGE_SIZE];
    page[..4].copy_from_slice(&state.staging_rows.to_le_bytes());
    page[4..4 + state.staging.len()].copy_from_slice(&state.staging);
    let done = pages.write(ctx, lpn, &page, now)?;
    state.pages.push((lpn, state.staging_rows));
    state.staging.clear();
    state.staging_rows = 0;
    *next_lpn += 1;
    Ok(done)
}

impl FirmwareHandler for CsdFirmware {
    fn handle(
        &mut self,
        mut ctx: FirmwareCtx<'_>,
        sqe: &SubmissionEntry,
        payload: Option<&[u8]>,
    ) -> CommandOutcome {
        match sqe.io_opcode() {
            Some(IoOpcode::CsdCreateTable) => match payload {
                Some(p) => self.create_table(&ctx, p),
                None => CommandOutcome::fail(Status::InvalidField, ctx.now),
            },
            Some(IoOpcode::CsdLoadRows) => match payload {
                Some(p) => self.load_rows(&mut ctx, p),
                None => CommandOutcome::fail(Status::InvalidField, ctx.now),
            },
            Some(IoOpcode::CsdExec) => match payload {
                Some(p) => {
                    let mode = sqe.cdw(14);
                    self.exec_task(&mut ctx, mode, p)
                }
                None => CommandOutcome::fail(Status::InvalidField, ctx.now),
            },
            Some(IoOpcode::CsdReadResult) => {
                let buf_len = sqe.data_len() as usize;
                self.read_result(&mut ctx, buf_len)
            }
            _ => CommandOutcome::fail(Status::InvalidOpcode, ctx.now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Value;
    use crate::schema::{Column, ColumnType};
    use bx_ssd::{Ftl, NandArray, NandConfig};

    struct Rig {
        nand: NandArray,
        ftl: Ftl,
        dram: DeviceDram,
        fw: CsdFirmware,
    }

    fn rig(nand_io: bool) -> Rig {
        let nand = NandArray::new(NandConfig::small());
        let ftl = Ftl::new(&nand, 0.25);
        let mut dram = DeviceDram::new(8 << 20);
        let fw = CsdFirmware::with_stats(&mut dram, nand_io, Default::default());
        Rig {
            nand,
            ftl,
            dram,
            fw,
        }
    }

    fn call(r: &mut Rig, sqe: &SubmissionEntry, payload: Option<&[u8]>) -> CommandOutcome {
        r.fw.handle(
            FirmwareCtx {
                nand: &mut r.nand,
                ftl: &mut r.ftl,
                dram: &mut r.dram,
                now: Nanos::ZERO,
            },
            sqe,
            payload,
        )
    }

    fn particles_schema() -> Schema {
        Schema::new(
            "particles",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("energy", ColumnType::Float),
            ],
        )
    }

    fn setup_particles(r: &mut Rig, n: usize) {
        let schema = particles_schema();
        let sqe = SubmissionEntry::io(IoOpcode::CsdCreateTable, 1, 1);
        let out = call(r, &sqe, Some(&schema.encode()));
        assert!(out.status.is_success());

        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64), Value::Float(i as f64 / 10.0)]))
            .collect();
        let mut payload = Vec::new();
        payload.extend_from_slice(&(b"particles".len() as u16).to_le_bytes());
        payload.extend_from_slice(b"particles");
        payload.extend_from_slice(&Row::encode_batch(&rows));
        let sqe = SubmissionEntry::io(IoOpcode::CsdLoadRows, 1, 1);
        let out = call(r, &sqe, Some(&payload));
        assert!(out.status.is_success(), "{:?}", out.status);
    }

    fn exec(r: &mut Rig, mode: u32, task: &[u8]) -> CommandOutcome {
        let mut sqe = SubmissionEntry::io(IoOpcode::CsdExec, 1, 1);
        sqe.set_cdw(14, mode);
        call(r, &sqe, Some(task))
    }

    fn read_result(r: &mut Rig, len: usize) -> Vec<u8> {
        let mut sqe = SubmissionEntry::io(IoOpcode::CsdReadResult, 1, 1);
        sqe.set_data_len(len as u32);
        let out = call(r, &sqe, None);
        assert!(out.status.is_success());
        out.response.unwrap()
    }

    #[test]
    fn segment_task_filters_rows() {
        let mut r = rig(true);
        setup_particles(&mut r, 1000);
        let out = exec(&mut r, TASK_MODE_SEGMENT, b"particles\0energy > 49.95");
        assert!(out.status.is_success());
        // energy = i/10 > 49.95 → i in 500..1000.
        assert_eq!(out.result, 500);

        let data = read_result(&mut r, RESULT_CAPACITY);
        let rows = Row::decode_batch(&data, &particles_schema()).unwrap();
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0].values[0], Value::Int(500));
    }

    /// DW0 of a result read is the result's length, which is what the
    /// response carries when the buffer holds it.
    #[test]
    fn read_result_dw0_is_the_response_length() {
        let mut r = rig(true);
        setup_particles(&mut r, 100);
        assert!(exec(&mut r, TASK_MODE_SEGMENT, b"particles\0id < 3")
            .status
            .is_success());
        let mut sqe = SubmissionEntry::io(IoOpcode::CsdReadResult, 1, 1);
        sqe.set_data_len(RESULT_CAPACITY as u32);
        let out = call(&mut r, &sqe, None);
        let data = out.response.unwrap();
        assert_eq!(out.result as usize, data.len());
        assert_eq!(
            Row::decode_batch(&data, &particles_schema()).unwrap().len(),
            3
        );
    }

    #[test]
    fn full_sql_task_filters_rows() {
        let mut r = rig(true);
        setup_particles(&mut r, 100);
        let out = exec(
            &mut r,
            TASK_MODE_FULL_SQL,
            b"SELECT * FROM particles WHERE energy >= 5.0 AND id < 60",
        );
        assert!(out.status.is_success());
        // energy >= 5.0 → id >= 50; id < 60 → 50..60.
        assert_eq!(out.result, 10);
    }

    #[test]
    fn full_sql_ignores_foreign_join_conditions() {
        let mut r = rig(true);
        setup_particles(&mut r, 100);
        let out = exec(
            &mut r,
            TASK_MODE_FULL_SQL,
            b"SELECT * FROM particles, othertable WHERE p_key = o_key AND energy > 9.0",
        );
        assert!(out.status.is_success());
        // Only the local filter applies: energy > 9.0 → id 91..100.
        assert_eq!(out.result, 9);
    }

    #[test]
    fn unknown_table_rejected() {
        let mut r = rig(true);
        let out = exec(&mut r, TASK_MODE_SEGMENT, b"ghost\0a > 1");
        assert_eq!(out.status, Status::CsdBadTask);
    }

    #[test]
    fn malformed_predicate_rejected() {
        let mut r = rig(true);
        setup_particles(&mut r, 10);
        let out = exec(&mut r, TASK_MODE_SEGMENT, b"particles\0energy >");
        assert_eq!(out.status, Status::CsdBadTask);
    }

    #[test]
    fn segment_mode_strict_about_unknown_columns() {
        let mut r = rig(true);
        setup_particles(&mut r, 10);
        let out = exec(&mut r, TASK_MODE_SEGMENT, b"particles\0ghost > 1");
        assert_eq!(out.status, Status::CsdBadTask);
    }

    #[test]
    fn nand_off_mode_works() {
        let mut r = rig(false);
        setup_particles(&mut r, 500);
        let out = exec(&mut r, TASK_MODE_SEGMENT, b"particles\0id < 5");
        assert!(out.status.is_success());
        assert_eq!(out.result, 5);
        assert_eq!(r.nand.stats().reads, 0, "NAND untouched");
    }

    #[test]
    fn nand_scan_costs_time() {
        let mut r = rig(true);
        setup_particles(&mut r, 2000); // multiple pages
        let out = exec(&mut r, TASK_MODE_SEGMENT, b"particles\0id >= 0");
        assert!(out.status.is_success());
        assert_eq!(out.result, 2000);
        assert!(
            out.complete_at >= Nanos::from_us(50),
            "page reads should cost NAND time, got {}",
            out.complete_at
        );
        assert!(r.nand.stats().reads > 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = rig(true);
        setup_particles(&mut r, 100);
        exec(&mut r, TASK_MODE_SEGMENT, b"particles\0id < 10");
        let s = *r.fw.stats.borrow();
        assert_eq!(s.tables_created, 1);
        assert_eq!(s.rows_loaded, 100);
        assert_eq!(s.tasks_executed, 1);
        assert_eq!(s.rows_scanned, 100);
        assert_eq!(s.rows_matched, 10);
        assert!(s.task_bytes_in > 0);
    }
}
