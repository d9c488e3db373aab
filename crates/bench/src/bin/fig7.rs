//! Fig 7 — SQL predicate pushdown for CSD: (a) PCIe traffic and (b) average
//! throughput per query, transferring the full SQL string vs only the
//! table+predicate segment, across PRP / BandSlim / ByteExpress.
//!
//! `cargo run -p bx-bench --release --bin fig7 [-- tasks_per_config]`

use bx_bench::{bench_args, section, JsonReport};
use bx_csd::session::CsdConfig;
use bx_csd::{corpus, CorpusQuery, CsdSession, TaskEncoding};
use byteexpress::TransferMethod;
use serde::Value;

// Tables are small and DRAM-resident (NAND off) so per-task costs are
// transfer-visible, as in the paper's throughput comparison; fig7's traffic
// numbers are NAND-independent either way.
const ROWS_PER_TABLE: usize = 256;

/// CSD-style BandSlim: the task command's fields are spoken for, so payload
/// rides entirely in fragment commands (no head embedding).
fn methods() -> [TransferMethod; 3] {
    [
        TransferMethod::Prp,
        TransferMethod::BandSlim { embed_first: false },
        TransferMethod::ByteExpress,
    ]
}

struct Cell {
    traffic_per_task: u64,
    ktasks_per_sec: f64,
}

fn run(q: &CorpusQuery, encoding: TaskEncoding, method: TransferMethod, tasks: usize) -> Cell {
    let mut session = CsdSession::open(CsdConfig { nand_io: false });
    session.create_table(&q.schema).unwrap();
    session
        .load_rows(&q.schema, &q.generate_rows(ROWS_PER_TABLE, 42))
        .unwrap();

    let before = session.device().traffic();
    let t0 = session.device().now();
    for _ in 0..tasks {
        session
            .pushdown(&q.full_sql, q.table, &q.predicate, encoding, method)
            .unwrap();
    }
    let traffic = session.device().traffic().since(&before).total_bytes();
    let elapsed = session.device().now() - t0;
    Cell {
        traffic_per_task: traffic / tasks as u64,
        ktasks_per_sec: tasks as f64 / elapsed.as_secs_f64() / 1e3,
    }
}

fn main() {
    let args = bench_args();
    let tasks = args.ops.unwrap_or(500);
    let mut json = JsonReport::new("fig7");

    for (title, pick) in [
        ("Fig 7(a): PCIe traffic per pushdown task (bytes)", 0usize),
        ("Fig 7(b): average pushdown throughput (Ktasks/s, incl. DRAM-resident filter over 256 rows)", 1),
    ] {
        section(title);
        println!(
            "{:>10} | {:>9} {:>9} {:>12} | {:>9} {:>9} {:>12}",
            "query", "PRP", "BandSlim", "ByteExpress", "PRP", "BandSlim", "ByteExpress"
        );
        println!(
            "{:>10} | {:^33} | {:^33}",
            "", "---- full SQL string ----", "---- table+predicate ----"
        );
        for q in corpus() {
            let mut cells = Vec::new();
            for encoding in [TaskEncoding::FullSql, TaskEncoding::Segment] {
                for method in methods() {
                    let cell = run(&q, encoding, method, tasks);
                    if pick == 0 {
                        let enc = match encoding {
                            TaskEncoding::FullSql => "full_sql",
                            TaskEncoding::Segment => "segment",
                        };
                        json.push(
                            format!("{}_{enc}_{}", q.name, method.label()),
                            Value::object([
                                ("wire_bytes_per_task", Value::U64(cell.traffic_per_task)),
                                ("ktasks_per_sec", Value::F64(cell.ktasks_per_sec)),
                            ]),
                        );
                    }
                    cells.push(cell);
                }
            }
            let v = |c: &Cell| -> String {
                if pick == 0 {
                    c.traffic_per_task.to_string()
                } else {
                    format!("{:.1}", c.ktasks_per_sec)
                }
            };
            println!(
                "{:>10} | {:>9} {:>9} {:>12} | {:>9} {:>9} {:>12}",
                q.name,
                v(&cells[0]),
                v(&cells[1]),
                v(&cells[2]),
                v(&cells[3]),
                v(&cells[4]),
                v(&cells[5])
            );
        }
    }

    println!(
        "\nShape checks (paper §4.3): both inline methods cut ~98% of PRP's \
         task-transfer traffic;\nByteExpress posts the best throughput for \
         every query in segment mode and also wins in\nfull-string mode for \
         the sub-100-byte scientific queries; CSD-style BandSlim (no head\n\
         embedding, per-fragment commands) hovers at or below PRP throughput."
    );
    json.finish(args.json);
}
