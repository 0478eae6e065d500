//! # emm-aig — word-level sequential netlists for the EMM verification stack
//!
//! This crate provides the design representation used throughout the
//! reproduction of *"Verification of Embedded Memory Systems using Efficient
//! Memory Modeling"* (Ganai, Gupta, Ashar — DATE 2005):
//!
//! * [`Aig`] — a structurally hashed And-Inverter Graph (the combinational
//!   core, counted in "2-input gates" as the paper reports);
//! * [`Word`] — little-endian bit vectors with arithmetic/comparison
//!   operators, the vocabulary the case-study designs are written in;
//! * [`Design`] — latches, free inputs, safety properties, environment
//!   constraints, and **embedded memory modules** with multiple read and
//!   write ports whose read-data buses are pseudo-inputs (see
//!   [`design`] for why);
//! * [`Simulator`] — a cycle-accurate interpreter implementing the memory
//!   forwarding semantics of Section 2.3, used as the ground truth oracle
//!   and for counterexample [`Trace`] validation;
//! * [`fraig`] — a functionally-reduced-AIG pass (simulate / prove /
//!   refine) that merges equivalent cones *before* Tseitin encoding: every
//!   node carries a multi-word random-simulation signature, signature
//!   classes are confirmed by bounded incremental SAT checks
//!   ([`emm_sat::EquivOracle`]), refutation models are appended to
//!   the signatures as guided patterns, and a final rewrite redirects
//!   fanouts to class representatives and dead-strips merged cones. Its
//!   caps are constants; the BMC engine runs it by default.
//! * [`rewrite`] — cut-based rewriting (with 4-feasible cut enumeration
//!   in [`cuts`] over `u16` truth tables): per-node cut functions are
//!   canonicalized by a memoized exact NPN form and
//!   re-synthesized from a recipe library wherever that strictly reduces
//!   the AND count; accepted rewrites are chosen by a global
//!   non-overlapping selection pass ([`select`]) so overlapping
//!   fanout-free cones are never double-counted — the restructuring pass
//!   for *inequivalent* logic that runs ahead of [`fraig`] in the BMC
//!   engine's default pipeline.
//!
//! How these passes slot into the whole verification stack is described
//! in `docs/ARCHITECTURE.md` at the repository root.
//!
//! ## Example: a memory-backed design
//!
//! ```
//! use emm_aig::{Design, LatchInit, MemInit, Simulator};
//!
//! let mut d = Design::new();
//! let mem = d.add_memory("buf", 4, 8, MemInit::Zero);
//! let ptr = d.new_latch_word("ptr", 4, LatchInit::Zero);
//! let next = d.aig.inc(&ptr);
//! d.set_next_word(&ptr, &next);
//! let data = d.new_input_word("data", 8);
//! let t = emm_aig::Aig::TRUE;
//! d.add_write_port(mem, ptr.clone(), t, data);
//! let rd = d.add_read_port(mem, ptr.clone(), t);
//! let bad = d.aig.eq_const(&rd, 0xFF);
//! d.add_property("never_ff", bad);
//! d.check().expect("well-formed design");
//!
//! let mut sim = Simulator::new(&d);
//! sim.step(&[false; 8]);
//! ```

#![warn(missing_docs)]

mod aig;
pub mod aiger;
pub mod btor2;
pub mod coi;
pub mod cuts;
pub mod design;
pub mod fraig;
pub mod report;
pub mod rewrite;
pub mod select;
pub mod sim;
mod word;

pub use aig::{Aig, Bit, Node, NodeId};
pub use design::{
    Design, DesignStats, InputKind, Latch, LatchId, LatchInit, MemInit, Memory, MemoryId, Property,
    PropertyId, ReadPort, WritePort,
};
pub use fraig::{
    fraig_aig, fraig_aig_governed, fraig_design, fraig_design_governed, ClassReport, FraigConfig,
    FraigResult, FraigStats, SequentialRunner, SweepOutcome, SweepRunner, SweepTask,
};
pub use rewrite::{
    rewrite_aig, rewrite_aig_governed, rewrite_design, rewrite_design_governed, RewriteConfig,
    RewriteResult, RewriteStats,
};
pub use sim::{LaneReport, LaneSimulator, SimConfig, Simulator, StepReport, Trace};
pub use word::Word;
