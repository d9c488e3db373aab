//! The transfer methods, device side: one gather per method. A gather fetches
//! the command's payload the way its method carries it and hands the command
//! to firmware, or holds it until the rest arrives.

pub(crate) mod bandslim;
pub(crate) mod byteexpress;
pub(crate) mod dptr;
pub(crate) mod mmio;
