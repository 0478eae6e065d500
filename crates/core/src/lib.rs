//! # emm-core — Efficient Memory Modeling
//!
//! The primary contribution of *"Verification of Embedded Memory Systems
//! using Efficient Memory Modeling"* (Ganai, Gupta, Ashar — DATE 2005),
//! reproduced as a library:
//!
//! * [`emm::EmmEncoder`] — per-depth memory-modeling constraints for
//!   SAT-based BMC supporting **multiple memories with multiple read and
//!   write ports** (Section 4.1), **arbitrary initial memory state** with
//!   the eq. (6) consistency constraints needed for induction proofs
//!   (Section 4.2), and **abstraction selectors** that let proof-based
//!   abstraction drop whole memories/ports from the model (Section 4.3);
//! * [`explicit::explicit_model`] — the *Explicit Modeling* baseline that
//!   expands memories into `2^AW × DW` latches, used in the paper's
//!   comparisons (Tables 1–2);
//! * [`iface`] — the interface-literal types and the paper's closed-form
//!   constraint-size formulas (`((4m+2n+1)kW + 2n+1)R` clauses, `3kWR`
//!   gates), asserted exactly by this crate's tests.
//!
//! The encoder is written against [`emm_sat::CnfSink`], so it can target a
//! live solver, a counting sink, or a CNF dump. The BMC driver that invokes
//! it after every unrolling lives in the `emm-bmc` crate.
//!
//! The crate also hosts [`pool`] — the in-tree shared-queue thread pool
//! the parallel verification paths (batched fraig sweeps, parallel PBA
//! dispatch, the `emm-bmc` verification server) schedule their jobs on.

#![warn(missing_docs)]

pub mod emm;
pub mod explicit;
pub mod iface;
pub mod pool;
pub mod races;

pub use emm::{
    EmmEncoder, EmmOptions, EmmStats, ForwardingEncoding, InitRead, SelectorGranularity,
};
pub use explicit::{explicit_model, ExplicitMap};
pub use iface::{MemoryFrameLits, MemoryShape, PortLits};
pub use pool::{Job, JobResult, Pool};
pub use races::add_race_checkers;

/// Derives the [`MemoryShape`]s of a design's memories (in design order).
pub fn memory_shapes(design: &emm_aig::Design) -> Vec<MemoryShape> {
    design
        .memories()
        .iter()
        .map(|m| MemoryShape {
            addr_width: m.addr_width,
            data_width: m.data_width,
            read_ports: m.read_ports.len(),
            write_ports: m.write_ports.len(),
            arbitrary_init: matches!(m.init, emm_aig::MemInit::Arbitrary),
        })
        .collect()
}
