//! SQ arbitration: how the controller shares its SQE-fetch bandwidth
//! across submission queues.
//!
//! The NVMe spec's CC.AMS field selects between round-robin and weighted
//! round-robin command arbitration, with an arbitration burst bounding how
//! many commands a queue may surrender per turn. The simulated controller
//! honours the same shape: each pass over the queues grants every queue a
//! credit budget, and a queue consumes one credit per *scheduling unit* —
//! one fetched command (including a queue-local chunk train, which is
//! indivisible by design) or one reassembly-mode chunk fetch.
//!
//! `RoundRobin { burst: 1 }`, the default, is one unit per queue per pass,
//! which is what makes §3.3.2's cross-queue chunk interleaving visible in
//! the first place. Larger
//! bursts trade fairness granularity for fetch locality; weighted mode
//! lets a hot queue drain faster without starving the rest.

// Ring and bitmap arithmetic: a computed index aborts on the one input
// nobody tested, so every `x[i]` here is an `#[expect]` with its bound.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

/// SQ arbitration mode (the spec's CC.AMS plus arbitration burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitration {
    /// Every queue gets up to `burst` scheduling units per round.
    RoundRobin {
        /// Units granted per queue per round (clamped to at least 1).
        burst: u16,
    },
    /// A queue of weight `w` gets up to `w * burst` units per round.
    /// Weights default to 1 and are set per queue via
    /// [`crate::Controller::set_queue_weight`].
    WeightedRoundRobin {
        /// Units granted per weight unit per round (clamped to at least 1).
        burst: u16,
    },
}

impl Arbitration {
    /// The credit budget a queue of `weight` receives this round.
    pub(crate) fn credits(self, weight: u8) -> u32 {
        let credits = match self {
            Arbitration::RoundRobin { burst } => burst.max(1) as u32,
            Arbitration::WeightedRoundRobin { burst } => burst.max(1) as u32 * weight.max(1) as u32,
        };
        debug_assert!(credits > 0, "a zero grant would starve the queue forever");
        credits
    }
}

impl Default for Arbitration {
    fn default() -> Self {
        Arbitration::RoundRobin { burst: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_ignores_weight() {
        let a = Arbitration::RoundRobin { burst: 2 };
        assert_eq!(a.credits(1), 2);
        assert_eq!(a.credits(5), 2);
    }

    #[test]
    fn weighted_scales_by_weight() {
        let a = Arbitration::WeightedRoundRobin { burst: 2 };
        assert_eq!(a.credits(1), 2);
        assert_eq!(a.credits(3), 6);
    }

    #[test]
    fn zero_burst_and_weight_clamp_to_one() {
        assert_eq!(Arbitration::RoundRobin { burst: 0 }.credits(1), 1);
        assert_eq!(Arbitration::WeightedRoundRobin { burst: 0 }.credits(0), 1);
    }

    #[test]
    fn default_matches_pre_arbiter_controller() {
        assert_eq!(Arbitration::default(), Arbitration::RoundRobin { burst: 1 });
    }
}
