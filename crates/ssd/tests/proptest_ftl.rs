//! Model-based property testing of the FTL: under arbitrary interleavings
//! of writes, overwrites, trims and the GC they trigger, reads always return
//! the most recent write and space accounting never lies.

use bx_hostsim::{Nanos, PAGE_SIZE};
use bx_ssd::{Ftl, FtlError, NandArray, NandConfig};
use proptest::prelude::*;
use std::collections::HashMap;

fn tiny_nand() -> NandArray {
    NandArray::new(NandConfig {
        channels: 2,
        dies_per_channel: 2,
        blocks_per_die: 8,
        pages_per_block: 8,
        ..NandConfig::small()
    })
}

fn page(tag: u64) -> Vec<u8> {
    let mut p = vec![0u8; PAGE_SIZE];
    p[..8].copy_from_slice(&tag.to_le_bytes());
    p[PAGE_SIZE - 8..].copy_from_slice(&tag.to_le_bytes());
    p
}

/// The whole page at `lpn`, through `read_range`.
fn read(
    ftl: &mut Ftl,
    lpn: u64,
    nand: &mut NandArray,
    now: Nanos,
) -> Result<(Vec<u8>, Nanos), FtlError> {
    let mut data = Vec::new();
    let done = ftl.read_range(lpn, 0, PAGE_SIZE, nand, now, &mut data)?;
    Ok((data, done))
}

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Trim(u64),
    Read(u64),
}

fn op_strategy(lpns: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..lpns).prop_map(Op::Write),
        1 => (0..lpns).prop_map(Op::Trim),
        2 => (0..lpns).prop_map(Op::Read),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FTL vs a HashMap reference model over arbitrary op sequences on a
    /// working set small enough that GC churns constantly.
    #[test]
    fn ftl_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(12), 1..400),
    ) {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut t = Nanos::ZERO;
        let mut seq = 0u64;

        for op in ops {
            match op {
                Op::Write(lpn) => {
                    seq += 1;
                    t = ftl.write(lpn, &page(seq), &mut nand, t).unwrap();
                    model.insert(lpn, seq);
                }
                Op::Trim(lpn) => {
                    ftl.trim(lpn, t).unwrap();
                    model.remove(&lpn);
                }
                Op::Read(lpn) => match (read(&mut ftl, lpn, &mut nand, t), model.get(&lpn)) {
                    (Ok((data, t2)), Some(&tag)) => {
                        t = t2;
                        prop_assert_eq!(&data[..8], &tag.to_le_bytes());
                        prop_assert_eq!(&data[PAGE_SIZE - 8..], &tag.to_le_bytes());
                    }
                    (Err(FtlError::Unmapped(_)), None) => {}
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "lpn {lpn}: ftl {:?} vs model {want:?}",
                            got.map(|(d, _)| u64::from_le_bytes(d[..8].try_into().unwrap()))
                        )));
                    }
                },
            }
        }
        // Final sweep: every model entry is readable and correct.
        for (lpn, tag) in model {
            let (data, t2) = read(&mut ftl, lpn, &mut nand, t).unwrap();
            t = t2;
            prop_assert_eq!(&data[..8], &tag.to_le_bytes());
        }
    }

    /// Write amplification is finite and bounded under pure overwrite churn,
    /// and GC keeps the device writable indefinitely.
    #[test]
    fn gc_sustains_overwrite_churn(seed_lpns in 2u64..10, rounds in 50usize..200) {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        for i in 0..rounds {
            let lpn = i as u64 % seed_lpns;
            t = ftl.write(lpn, &page(i as u64), &mut nand, t).unwrap();
        }
        let stats = ftl.stats();
        prop_assert_eq!(stats.host_writes, rounds as u64);
        // With a tiny hot set, WA stays modest (victims are mostly garbage).
        prop_assert!(
            stats.write_amplification() < 3.0,
            "write amplification {}",
            stats.write_amplification()
        );
        // Wear is tracked once GC has run.
        if stats.gc_erases > 0 {
            let (min, max, mean) = ftl.wear_spread();
            prop_assert!(min <= max);
            prop_assert!(mean >= min as f64 && mean <= max as f64);
        }
    }
}
