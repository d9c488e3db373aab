//! The paper's quantitative claims, asserted as tests (scaled-down op
//! counts; EXPERIMENTS.md records the full-scale numbers).
//!
//! Each test names the claim and the section it comes from. Bands are
//! deliberately loose — the simulation substitutes a modeled link for the
//! authors' testbed — but tight enough that a regression in any engine's
//! traffic or latency model trips them.

use byteexpress::{Device, Nanos, TransferMethod};

fn traffic_per_op(dev: &mut Device, size: usize, method: TransferMethod) -> f64 {
    dev.reset_measurements();
    let r = dev.measure_writes(200, size, method).unwrap();
    dev.reset_measurements();
    r.wire_bytes_per_op()
}

fn latency(dev: &mut Device, size: usize, method: TransferMethod) -> Nanos {
    dev.reset_measurements();
    let r = dev.measure_writes(200, size, method).unwrap();
    dev.reset_measurements();
    r.mean_latency()
}

/// §1/§4.2: "up to 98% reduction in PCIe traffic" / "reduced traffic by up
/// to 96.3% for the 64-byte case over PRP".
#[test]
fn claim_traffic_reduction_vs_prp_at_64_bytes() {
    let mut dev = Device::builder().nand_io(false).build();
    let prp = traffic_per_op(&mut dev, 64, TransferMethod::Prp);
    let bx = traffic_per_op(&mut dev, 64, TransferMethod::ByteExpress);
    let cut = 1.0 - bx / prp;
    assert!(
        cut > 0.90,
        "expected >90% traffic cut at 64 B (paper: 96.3%), got {:.1}%",
        cut * 100.0
    );
}

/// §2.3 / Fig 1(c): a 32-byte PRP request generates >130× its size in
/// traffic.
#[test]
fn claim_prp_amplification_at_32_bytes() {
    let mut dev = Device::builder().nand_io(false).build();
    let prp = traffic_per_op(&mut dev, 32, TransferMethod::Prp);
    let amp = prp / 32.0;
    assert!(amp > 130.0, "amplification {amp:.0}x (paper: >130x)");
}

/// Fig 1(b): PRP traffic and latency are stepwise at 4 KB boundaries.
#[test]
fn claim_prp_staircase() {
    let mut dev = Device::builder().nand_io(false).build();
    // Within one page: flat.
    let t1 = traffic_per_op(&mut dev, 1024, TransferMethod::Prp);
    let t2 = traffic_per_op(&mut dev, 4096, TransferMethod::Prp);
    assert_eq!(t1, t2, "within-page traffic must be flat");
    // Crossing a page boundary: a full step up.
    let t3 = traffic_per_op(&mut dev, 4097, TransferMethod::Prp);
    assert!(t3 - t2 > 4000.0, "page step missing: {t2} -> {t3}");
    let l2 = latency(&mut dev, 4096, TransferMethod::Prp);
    let l3 = latency(&mut dev, 4097, TransferMethod::Prp);
    assert!(
        l3 > l2 + Nanos::from_ns(1000),
        "latency staircase missing: {l2} -> {l3}"
    );
}

/// §4.2: "ByteExpress outperformed BandSlim by up to 39.8% in traffic
/// reduction" in the 64 B–4 KB range.
#[test]
fn claim_traffic_vs_bandslim_in_range() {
    let mut dev = Device::builder().nand_io(false).build();
    let mut best = 0.0f64;
    for size in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let bs = traffic_per_op(
            &mut dev,
            size,
            TransferMethod::BandSlim { embed_first: true },
        );
        let bx = traffic_per_op(&mut dev, size, TransferMethod::ByteExpress);
        assert!(bx < bs, "BX must undercut BandSlim at {size} B");
        best = best.max(1.0 - bx / bs);
    }
    assert!(
        (0.30..=0.60).contains(&best),
        "max BX-vs-BandSlim traffic cut {:.1}% out of band (paper: up to 39.8%)",
        best * 100.0
    );
}

/// §4.2: "reduced latency by up to 40.4% over PRP in the 32–128 byte range".
#[test]
fn claim_latency_reduction_small_payloads() {
    let mut dev = Device::builder().nand_io(false).build();
    let mut best = 0.0f64;
    for size in [32usize, 64, 128] {
        let prp = latency(&mut dev, size, TransferMethod::Prp).as_ns() as f64;
        let bx = latency(&mut dev, size, TransferMethod::ByteExpress).as_ns() as f64;
        best = best.max(1.0 - bx / prp);
    }
    assert!(
        (0.30..=0.50).contains(&best),
        "best latency cut {:.1}% out of band (paper: up to 40.4%)",
        best * 100.0
    );
}

/// §4.2: ByteExpress "outperformed BandSlim beyond 64 bytes, for instance,
/// achieving a 72% reduction at 128 bytes"; below 64 B single-command
/// BandSlim wins.
#[test]
fn claim_latency_vs_bandslim() {
    let mut dev = Device::builder().nand_io(false).build();
    let bs32 = latency(&mut dev, 32, TransferMethod::BandSlim { embed_first: true });
    let bx32 = latency(&mut dev, 32, TransferMethod::ByteExpress);
    assert!(bs32 < bx32, "single-CMD BandSlim should win at 32 B");

    for size in [128usize, 256, 1024] {
        let bs = latency(
            &mut dev,
            size,
            TransferMethod::BandSlim { embed_first: true },
        );
        let bx = latency(&mut dev, size, TransferMethod::ByteExpress);
        assert!(bx < bs, "BX must win beyond 64 B (size {size})");
    }
    let bs128 = latency(
        &mut dev,
        128,
        TransferMethod::BandSlim { embed_first: true },
    )
    .as_ns();
    let bx128 = latency(&mut dev, 128, TransferMethod::ByteExpress).as_ns();
    let cut = 1.0 - bx128 as f64 / bs128 as f64;
    assert!(
        cut > 0.40,
        "BX-vs-BandSlim latency cut at 128 B {:.1}% (paper: 72%)",
        cut * 100.0
    );
}

/// §4.2 overhead analysis: ByteExpress "become[s] slower than the PRP-based
/// transfer starting around the 256-byte" mark (our link model lands the
/// crossover between 256 B and 512 B).
#[test]
fn claim_latency_crossover_band() {
    let mut dev = Device::builder().nand_io(false).build();
    let prp = latency(&mut dev, 128, TransferMethod::Prp);
    let bx128 = latency(&mut dev, 128, TransferMethod::ByteExpress);
    assert!(bx128 < prp, "BX still ahead at 128 B");
    let bx512 = latency(&mut dev, 512, TransferMethod::ByteExpress);
    let prp512 = latency(&mut dev, 512, TransferMethod::Prp);
    assert!(
        bx512 > prp512,
        "PRP should win by 512 B: bx={bx512} prp={prp512}"
    );
}

/// Table 1: driver submit ≈60 ns (PRP) and ≈100/130/180 ns (ByteExpress at
/// 64/128/256 B); controller fetch ≈2400 ns base + ≈400 ns per chunk. The
/// composition is asserted end-to-end via marginal-latency slopes.
#[test]
fn claim_table1_marginal_costs() {
    let mut dev = Device::builder().nand_io(false).build();
    let l64 = latency(&mut dev, 64, TransferMethod::ByteExpress).as_ns();
    let l128 = latency(&mut dev, 128, TransferMethod::ByteExpress).as_ns();
    let l256 = latency(&mut dev, 256, TransferMethod::ByteExpress).as_ns();
    let slope1 = l128 - l64; // one extra chunk
    let slope2 = (l256 - l128) / 2; // two extra chunks
    assert_eq!(slope1, slope2, "per-chunk marginal cost must be constant");
    // Table 1: +400 ns controller + ~30 ns driver per chunk (+ our modeled
    // 40 ns DRAM landing).
    assert!(
        (400..550).contains(&slope1),
        "per-chunk marginal cost {slope1} ns outside Table 1 band"
    );
}

/// §5: SGL, byte-granular at every size, also avoids page-granular
/// traffic — but ByteExpress still wins on protocol overhead (no descriptor
/// fetch, no separate DMA setup).
#[test]
fn claim_sgl_comparison() {
    let mut dev = Device::builder().nand_io(false).build();
    let sgl = traffic_per_op(&mut dev, 64, TransferMethod::Sgl);
    let prp = traffic_per_op(&mut dev, 64, TransferMethod::Prp);
    let bx = traffic_per_op(&mut dev, 64, TransferMethod::ByteExpress);
    assert!(
        sgl < prp / 5.0,
        "fine-grained SGL avoids page amplification"
    );
    let bx_lat = latency(&mut dev, 64, TransferMethod::ByteExpress);
    let sgl_lat = latency(&mut dev, 64, TransferMethod::Sgl);
    assert!(
        bx_lat < sgl_lat,
        "BX should edge out SGL on latency at 64 B: {bx_lat} vs {sgl_lat}"
    );
    // Traffic-wise SGL and BX are both small; neither should be page-scale.
    assert!(bx < 1000.0 && sgl < 1500.0);
}
