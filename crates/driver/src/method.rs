//! Transfer-method selection.

use std::fmt;

/// The data-transfer engine used for a host→device payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMethod {
    /// Conventional NVMe PRP: page-granular DMA (the paper's baseline).
    Prp,
    /// Scatter-Gather List: byte-granular DMA at every size. Linux's policy
    /// of PRP below a 32 KB threshold is not modelled; `Hybrid` expresses a
    /// size switch.
    Sgl,
    /// BandSlim (ICPP '24): payload embedded into command fields across a
    /// serialized train of commands. `embed_first` controls whether the head
    /// command itself carries payload (true for KV-style value transfer;
    /// false for CSD-style task commands whose fields are spoken for).
    BandSlim {
        /// Embed up to 32 payload bytes in the head command.
        embed_first: bool,
    },
    /// ByteExpress: inline 64-byte chunks in the submission queue.
    ByteExpress,
    /// PCIe-MMIO byte interface (§3.1's 2B-SSD/ByteFS approach): cacheline
    /// writes straight into a BAR-mapped device buffer, bypassing the NVMe
    /// queues entirely. Fast at every size, but requires the dedicated
    /// buffer, a new host API, and device-side transactional coordination —
    /// the compatibility costs the paper's §3.1 catalogues.
    MmioByte,
    /// Threshold switching: ByteExpress at or below `threshold` bytes, PRP
    /// above (§4.2's proposed hybrid).
    ///
    /// Boundary semantics are deliberately **inclusive**: `threshold` names
    /// the *largest payload still sent inline*, so a payload of exactly
    /// `threshold` bytes goes through ByteExpress. The paper's prose says
    /// "below the threshold", but its operating point (256 B) is itself a
    /// size the evaluation sends inline — an exclusive reading would demote
    /// the headline 256 B case to PRP. `Hybrid { threshold: 256 }` therefore
    /// means payloads 1..=256 B are inline and 257 B+ take the page path.
    /// See DESIGN.md ("Hybrid boundary semantics") for the full rationale;
    /// the exact-boundary behavior is pinned by a unit test.
    Hybrid {
        /// Largest payload still sent inline (inclusive bound).
        threshold: usize,
    },
}

impl TransferMethod {
    /// The paper's suggested hybrid operating point (256 B, §4.2).
    pub fn hybrid_default() -> Self {
        TransferMethod::Hybrid { threshold: 256 }
    }

    /// Short static label used to tag trace events and metrics
    /// (`{queue, method, opcode}` label sets want `&'static str`).
    pub fn label(self) -> &'static str {
        match self {
            TransferMethod::Prp => "prp",
            TransferMethod::Sgl => "sgl",
            TransferMethod::BandSlim { .. } => "bandslim",
            TransferMethod::ByteExpress => "byteexpress",
            TransferMethod::MmioByte => "mmio",
            TransferMethod::Hybrid { .. } => "hybrid",
        }
    }

    /// Resolves threshold switching for a payload of `len` bytes; other
    /// methods return themselves.
    pub fn resolve(self, len: usize) -> TransferMethod {
        match self {
            TransferMethod::Hybrid { threshold } => {
                if len <= threshold {
                    TransferMethod::ByteExpress
                } else {
                    TransferMethod::Prp
                }
            }
            other => other,
        }
    }
}

impl fmt::Display for TransferMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferMethod::Prp => write!(f, "PRP"),
            TransferMethod::Sgl => write!(f, "SGL"),
            TransferMethod::BandSlim { .. } => write!(f, "BandSlim"),
            TransferMethod::ByteExpress => write!(f, "ByteExpress"),
            TransferMethod::MmioByte => write!(f, "MMIO-byte"),
            TransferMethod::Hybrid { threshold } => write!(f, "Hybrid({threshold}B)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_resolution() {
        let h = TransferMethod::hybrid_default();
        assert_eq!(h.resolve(256), TransferMethod::ByteExpress);
        assert_eq!(h.resolve(257), TransferMethod::Prp);
        assert_eq!(h.resolve(1), TransferMethod::ByteExpress);
    }

    /// Pins the inclusive boundary contract: a payload of *exactly* the
    /// threshold size is inline, one byte more is PRP. If someone "fixes"
    /// `resolve` to the exclusive reading (`len < threshold`), this fails.
    #[test]
    fn hybrid_boundary_is_inclusive_at_exactly_256() {
        let h = TransferMethod::Hybrid { threshold: 256 };
        assert_eq!(
            h.resolve(255),
            TransferMethod::ByteExpress,
            "one byte under the threshold is inline"
        );
        assert_eq!(
            h.resolve(256),
            TransferMethod::ByteExpress,
            "the threshold itself is the largest inline payload"
        );
        assert_eq!(
            h.resolve(257),
            TransferMethod::Prp,
            "one byte over the threshold takes the page path"
        );
        // Degenerate thresholds keep the same contract.
        let h0 = TransferMethod::Hybrid { threshold: 0 };
        assert_eq!(h0.resolve(0), TransferMethod::ByteExpress);
        assert_eq!(h0.resolve(1), TransferMethod::Prp);
    }

    #[test]
    fn non_hybrid_resolve_is_identity() {
        assert_eq!(TransferMethod::Prp.resolve(10), TransferMethod::Prp);
        assert_eq!(
            TransferMethod::ByteExpress.resolve(1 << 20),
            TransferMethod::ByteExpress
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(TransferMethod::Prp.to_string(), "PRP");
        assert_eq!(
            TransferMethod::Hybrid { threshold: 256 }.to_string(),
            "Hybrid(256B)"
        );
    }

    #[test]
    fn trace_labels_are_lowercase_and_stable() {
        assert_eq!(TransferMethod::ByteExpress.label(), "byteexpress");
        assert_eq!(
            TransferMethod::BandSlim { embed_first: true }.label(),
            "bandslim"
        );
        assert_eq!(TransferMethod::hybrid_default().label(), "hybrid");
    }
}
