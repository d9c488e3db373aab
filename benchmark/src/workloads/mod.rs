//! The five workloads. Each module says what runs, which layers do most of
//! the work, which it bypasses, and therefore why it is here.

pub mod crash_rebuild;
pub mod fig5_qd1;
pub mod kv_mixed;
pub mod mq_reactor;
