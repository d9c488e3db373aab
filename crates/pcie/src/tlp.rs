//! Transaction-layer packet sizing.
//!
//! The unit of traffic accounting. Overheads follow the PCIe spec's framing
//! for 8b/10b-era links (the paper's Gen2 platform):
//!
//! * Memory write / read request with 64-bit addressing: 4-DW (16 B) TLP header.
//! * Completion-with-data: 3-DW (12 B) TLP header.
//! * Physical/data-link framing per TLP: STP (1 B) + sequence number (2 B) +
//!   LCRC (4 B) + END (1 B) = 8 B.
//!
//! These constants are exposed (not buried) because the benchmark suite's
//! traffic-amplification numbers (Fig 1(c), Fig 5) are direct functions of
//! them, and EXPERIMENTS.md documents the sensitivity.

/// TLP header bytes for requests with 64-bit addresses (4 DW).
pub(crate) const REQ_HEADER_BYTES: usize = 16;
/// TLP header bytes for completions (3 DW).
pub(crate) const CPL_HEADER_BYTES: usize = 12;
/// Physical/data-link layer framing bytes per TLP (STP + seq + LCRC + END).
pub(crate) const FRAMING_BYTES: usize = 8;

/// The kinds of TLP the simulation generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlpKind {
    /// Posted memory write carrying data (doorbell, CQE post, MSI, MMIO).
    MemWrite,
    /// Non-posted memory read request (no data payload).
    MemReadReq,
    /// Completion with data, answering a read request.
    CplData,
}

impl TlpKind {
    /// Header + framing overhead for this TLP kind, excluding data payload.
    pub(crate) fn overhead_bytes(self) -> usize {
        match self {
            TlpKind::MemWrite | TlpKind::MemReadReq => REQ_HEADER_BYTES + FRAMING_BYTES,
            TlpKind::CplData => CPL_HEADER_BYTES + FRAMING_BYTES,
        }
    }
}

/// A sequence of same-kind TLPs produced by segmenting one logical transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlpStream {
    /// Kind of every TLP in the stream.
    pub kind: TlpKind,
    /// Number of TLPs.
    pub count: usize,
    /// Total data payload bytes across the stream.
    pub payload_bytes: usize,
}

impl TlpStream {
    /// Total bytes on the wire: payload plus per-TLP overhead.
    pub fn wire_bytes(&self) -> usize {
        self.payload_bytes + self.count * self.kind.overhead_bytes()
    }
}

/// TLPs needed to move `len` bytes at most `limit` at a time:
/// `len.div_ceil(limit)`, without the division for the common transfer that
/// fits one TLP (a doorbell, an SQE, a CQE).
fn tlp_count(len: usize, limit: usize) -> usize {
    if len <= limit {
        usize::from(len > 0)
    } else {
        len.div_ceil(limit)
    }
}

/// Segments a posted write of `len` payload bytes into MWr TLPs bounded by
/// `mps`.
///
/// A zero-length write (pure doorbell with no data would not exist — doorbells
/// carry 4 bytes) yields an empty stream.
///
/// `mps` must be non-zero: clamping 0 to 1 would hide a misconfigured link
/// behind maximally fragmented traffic numbers, so a zero limit is an
/// API-contract violation, and [`crate::LinkConfig::validate`] rejects such
/// configs before they reach the segmenters.
pub fn segment_write(len: usize, mps: usize) -> TlpStream {
    assert!(mps > 0, "MPS of 0 cannot carry any payload");
    let count = tlp_count(len, mps);
    TlpStream {
        kind: TlpKind::MemWrite,
        count,
        payload_bytes: len,
    }
}

/// Segments a read of `len` bytes into request TLPs bounded by `mrrs`.
///
/// `mrrs` must be non-zero; see [`segment_write`].
pub fn segment_read_requests(len: usize, mrrs: usize) -> TlpStream {
    assert!(mrrs > 0, "MRRS of 0 cannot request any data");
    let count = tlp_count(len, mrrs);
    TlpStream {
        kind: TlpKind::MemReadReq,
        count,
        payload_bytes: 0,
    }
}

/// Segments the completion stream answering a read of `len` bytes into CplD
/// TLPs bounded by `mps`.
///
/// `mps` must be non-zero; see [`segment_write`].
pub fn segment_read_completions(len: usize, mps: usize) -> TlpStream {
    assert!(mps > 0, "MPS of 0 cannot carry any payload");
    let count = tlp_count(len, mps);
    TlpStream {
        kind: TlpKind::CplData,
        count,
        payload_bytes: len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads() {
        assert_eq!(TlpKind::MemWrite.overhead_bytes(), 24);
        assert_eq!(TlpKind::MemReadReq.overhead_bytes(), 24);
        assert_eq!(TlpKind::CplData.overhead_bytes(), 20);
    }

    #[test]
    fn write_segmentation() {
        let s = segment_write(4096, 256);
        assert_eq!(s.count, 16);
        assert_eq!(s.payload_bytes, 4096);
        assert_eq!(s.wire_bytes(), 4096 + 16 * 24);
    }

    #[test]
    fn small_write_single_tlp() {
        let s = segment_write(4, 256);
        assert_eq!(s.count, 1);
        assert_eq!(s.wire_bytes(), 4 + 24);
    }

    #[test]
    fn read_request_segmentation() {
        let s = segment_read_requests(4096, 512);
        assert_eq!(s.count, 8);
        assert_eq!(s.payload_bytes, 0);
        assert_eq!(s.wire_bytes(), 8 * 24);
    }

    #[test]
    fn completion_segmentation() {
        let s = segment_read_completions(4096, 256);
        assert_eq!(s.count, 16);
        assert_eq!(s.wire_bytes(), 4096 + 16 * 20);
    }

    #[test]
    fn sixty_four_byte_read_is_one_of_each() {
        // The SQE fetch: one request, one completion.
        assert_eq!(segment_read_requests(64, 512).count, 1);
        assert_eq!(segment_read_completions(64, 256).count, 1);
        let wire = segment_read_requests(64, 512).wire_bytes()
            + segment_read_completions(64, 256).wire_bytes();
        assert_eq!(wire, 24 + 64 + 20);
    }

    #[test]
    fn non_multiple_lengths_round_up() {
        assert_eq!(segment_write(257, 256).count, 2);
        assert_eq!(segment_read_completions(4097, 256).count, 17);
    }

    #[test]
    #[should_panic(expected = "MPS of 0")]
    fn zero_mps_write_is_rejected_not_clamped() {
        let _ = segment_write(64, 0);
    }

    #[test]
    #[should_panic(expected = "MRRS of 0")]
    fn zero_mrrs_read_is_rejected_not_clamped() {
        let _ = segment_read_requests(64, 0);
    }

    #[test]
    #[should_panic(expected = "MPS of 0")]
    fn zero_mps_completion_is_rejected_not_clamped() {
        let _ = segment_read_completions(64, 0);
    }

    #[test]
    fn mps_of_one_is_one_tlp_per_byte() {
        // Degenerate but legal at the segmenter level (LinkConfig::validate
        // rejects it for real links): each payload byte rides its own TLP.
        let s = segment_write(64, 1);
        assert_eq!(s.count, 64);
        assert_eq!(s.payload_bytes, 64);
        assert_eq!(segment_read_completions(7, 1).count, 7);
        assert_eq!(segment_read_requests(8, 1).count, 8);
    }

    #[test]
    fn segment_counts_equal_div_ceil() {
        // The single-TLP shortcut must agree with the division everywhere.
        for limit in [128usize, 256, 512, 4096] {
            for len in 0..=8192usize {
                let want = len.div_ceil(limit);
                assert_eq!(segment_write(len, limit).count, want, "write {len}/{limit}");
                assert_eq!(
                    segment_read_requests(len, limit).count,
                    want,
                    "req {len}/{limit}"
                );
                assert_eq!(
                    segment_read_completions(len, limit).count,
                    want,
                    "cpl {len}/{limit}"
                );
            }
        }
    }
}
