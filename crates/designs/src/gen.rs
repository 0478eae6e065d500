//! Seeded random [`Design`] generator for the frontend test layer.
//!
//! The round-trip proptests, the malformed-input fuzz sweep and the
//! parse-then-verify differential suite all need a stream of sequential
//! designs *nobody hand-wrote*: latch clouds with random next-state
//! logic, optional embedded memories with guarded ports, random
//! properties and constraints. [`random_design`] produces one per
//! `(GenConfig, seed)` pair, deterministically — the same pair always
//! yields the same design, so any failure reproduces from its seed
//! alone (see `tests/regression_seeds.rs` for the convention).
//!
//! Three stock shapes cover the frontends' envelopes:
//!
//! * [`GenConfig::aiger`] — memory-free (AIGER cannot express arrays),
//!   so the AIGER writers accept every generated design;
//! * [`GenConfig::btor2`] — embedded memories with constant-true read
//!   enables, the shape the BTOR2 writer round-trips byte-identically;
//! * [`GenConfig::btor2_guarded`] — memories with random read/write
//!   enables, exercising the oracle-input lowering.
//!
//! [`GenConfig::deep`] adds a free-running counter to the guarded shape
//! that gates every property, for the engine suites that need properties
//! still open several bounds deep.
//!
//! Sizes are intentionally small (a handful of latches, address widths
//! ≤ 2) so the differential suites can afford BDD-oracle cross-checks
//! on hundreds of seeds.

use emm_aig::{Aig, Bit, Design, LatchInit, MemInit, Word};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Shape envelope for [`random_design`]. Every field is an inclusive
/// upper bound; the generator draws actual counts uniformly.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum free primary inputs (at least 1 is always created).
    pub max_inputs: usize,
    /// Maximum latches (at least 1 is always created).
    pub max_latches: usize,
    /// Maximum random AND/OR/XOR/MUX gates layered over the pool.
    pub max_gates: usize,
    /// Maximum embedded memories (0 disables memories entirely).
    pub max_memories: usize,
    /// Maximum address width of a generated memory.
    pub max_addr_width: usize,
    /// Maximum data width of a generated memory.
    pub max_data_width: usize,
    /// Force every read-port enable to constant true (the shape the
    /// BTOR2 writer round-trips byte-identically; irrelevant when
    /// `max_memories == 0`).
    pub const_true_read_enables: bool,
    /// Maximum properties (at least 1 is always created).
    pub max_properties: usize,
    /// Probability of adding one environment constraint.
    pub constraint_probability: f64,
    /// Width of a free-running counter that gates every property: each
    /// `bad` also needs the counter at a value drawn from `4..2^width`.
    /// `0` adds no counter and draws nothing for it; other widths below 3
    /// count as 3.
    pub counter_width: usize,
}

impl GenConfig {
    /// Memory-free designs: everything the AIGER writers accept.
    pub fn aiger() -> GenConfig {
        GenConfig {
            max_inputs: 4,
            max_latches: 6,
            max_gates: 24,
            max_memories: 0,
            max_addr_width: 0,
            max_data_width: 0,
            const_true_read_enables: true,
            max_properties: 3,
            constraint_probability: 0.25,
            counter_width: 0,
        }
    }

    /// Memory-backed designs with constant-true read enables.
    pub fn btor2() -> GenConfig {
        GenConfig {
            max_inputs: 3,
            max_latches: 4,
            max_gates: 16,
            max_memories: 2,
            max_addr_width: 2,
            max_data_width: 3,
            const_true_read_enables: true,
            max_properties: 3,
            constraint_probability: 0.25,
            counter_width: 0,
        }
    }

    /// Memory-backed designs with random read/write enables
    /// (exercises the BTOR2 oracle-input lowering).
    pub fn btor2_guarded() -> GenConfig {
        GenConfig {
            const_true_read_enables: false,
            ..GenConfig::btor2()
        }
    }

    /// [`GenConfig::btor2_guarded`] designs whose properties stay open
    /// for several bounds: a 3-bit counter gates every property, so no
    /// counterexample exists before bound 4 and the forward check cannot
    /// close before the counter has taken all of its values. There is no
    /// environment constraint, which could rule out the initial state.
    pub fn deep() -> GenConfig {
        GenConfig {
            constraint_probability: 0.0,
            counter_width: 3,
            ..GenConfig::btor2_guarded()
        }
    }
}

/// Draws one random bit from the pool, inverted half the time.
fn pick(rng: &mut StdRng, pool: &[Bit]) -> Bit {
    let bit = pool[rng.random_range(0..pool.len())];
    if rng.random_bool(0.5) {
        !bit
    } else {
        bit
    }
}

/// Draws a `width`-wide word of random pool bits.
fn pick_word(rng: &mut StdRng, pool: &[Bit], width: usize) -> Word {
    Word((0..width).map(|_| pick(rng, pool)).collect())
}

/// Generates one random checked design for `(config, seed)`,
/// deterministically.
///
/// The construction: free inputs and latches first (random
/// [`LatchInit`]s), then the memories with their read ports (read data
/// joins the combinational pool), then a layer of random gates, then
/// write ports, latch next-state functions, properties and the optional
/// constraint — all drawn from the accumulated pool.
pub fn random_design(config: &GenConfig, seed: u64) -> Design {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Design::new();
    let mut pool: Vec<Bit> = vec![Aig::TRUE];

    let num_inputs = rng.random_range(1..=config.max_inputs.max(1));
    for i in 0..num_inputs {
        pool.push(d.new_input(&format!("in{i}")));
    }

    let num_latches = rng.random_range(1..=config.max_latches.max(1));
    let mut latch_outputs = Vec::with_capacity(num_latches);
    for i in 0..num_latches {
        let init = match rng.random_range(0..3u32) {
            0 => LatchInit::Zero,
            1 => LatchInit::One,
            _ => LatchInit::Free,
        };
        let (_, out) = d.new_latch(&format!("r{i}"), init);
        latch_outputs.push(out);
        pool.push(out);
    }

    // Memories: declared now so their read data feeds the gate layer;
    // write ports are wired after the gate layer so their address and
    // data cones can be arbitrary logic.
    let num_memories = if config.max_memories == 0 {
        0
    } else {
        rng.random_range(0..=config.max_memories)
    };
    let mut memories = Vec::with_capacity(num_memories);
    for m in 0..num_memories {
        let aw = rng.random_range(1..=config.max_addr_width.max(1));
        let dw = rng.random_range(1..=config.max_data_width.max(1));
        let init = if rng.random_bool(0.5) {
            MemInit::Zero
        } else {
            MemInit::Arbitrary
        };
        let mem = d.add_memory(&format!("m{m}"), aw, dw, init);
        let num_reads = rng.random_range(1..=2);
        for _ in 0..num_reads {
            let addr = pick_word(&mut rng, &pool, aw);
            let en = if config.const_true_read_enables {
                Aig::TRUE
            } else {
                pick(&mut rng, &pool)
            };
            let data = d.add_read_port(mem, addr, en);
            pool.extend_from_slice(data.bits());
        }
        memories.push((mem, aw, dw));
    }

    let num_gates = rng.random_range(0..=config.max_gates);
    for _ in 0..num_gates {
        let a = pick(&mut rng, &pool);
        let b = pick(&mut rng, &pool);
        let g = match rng.random_range(0..4u32) {
            0 => d.aig.and(a, b),
            1 => d.aig.or(a, b),
            2 => d.aig.xor(a, b),
            _ => {
                let c = pick(&mut rng, &pool);
                d.aig.mux(a, b, c)
            }
        };
        pool.push(g);
    }

    for &(mem, aw, dw) in &memories {
        let num_writes = rng.random_range(1..=2);
        for _ in 0..num_writes {
            let addr = pick_word(&mut rng, &pool, aw);
            let data = pick_word(&mut rng, &pool, dw);
            let en = if rng.random_bool(0.3) {
                Aig::TRUE
            } else {
                pick(&mut rng, &pool)
            };
            d.add_write_port(mem, addr, en, data);
        }
    }

    for &out in &latch_outputs {
        d.set_next(out, pick(&mut rng, &pool));
    }

    let counter = (config.counter_width > 0).then(|| {
        let counter = d.new_latch_word("ctr", config.counter_width.max(3), LatchInit::Zero);
        let next = d.aig.inc(&counter);
        d.set_next_word(&counter, &next);
        counter
    });
    let num_props = rng.random_range(1..=config.max_properties.max(1));
    for p in 0..num_props {
        let mut bad = pick(&mut rng, &pool);
        if let Some(counter) = &counter {
            let at = rng.random_range(4..1u64 << counter.width());
            let hit = d.aig.eq_const(counter, at);
            bad = d.aig.and(bad, hit);
        }
        d.add_property(&format!("p{p}"), bad);
    }
    if rng.random_bool(config.constraint_probability) {
        d.add_constraint(pick(&mut rng, &pool));
    }

    d.check().expect("generated design must be well-formed");
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            let a = random_design(&GenConfig::btor2_guarded(), seed);
            let b = random_design(&GenConfig::btor2_guarded(), seed);
            assert_eq!(a.stats(), b.stats(), "seed {seed}");
        }
    }

    #[test]
    fn aiger_shape_is_memory_free_and_checked() {
        for seed in 0..50 {
            let d = random_design(&GenConfig::aiger(), seed);
            assert!(d.memories().is_empty(), "seed {seed}");
            assert!(!d.properties().is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn btor2_shape_respects_the_enable_flag() {
        let mut saw_memory = false;
        for seed in 0..50 {
            let d = random_design(&GenConfig::btor2(), seed);
            for m in d.memories() {
                saw_memory = true;
                for rp in &m.read_ports {
                    assert_eq!(rp.en, Aig::TRUE, "seed {seed}");
                }
            }
        }
        assert!(saw_memory, "memory shape never generated a memory");
    }

    #[test]
    fn deep_shape_adds_only_the_counter() {
        for seed in 0..50 {
            let deep = random_design(&GenConfig::deep(), seed);
            let guarded = random_design(&GenConfig::btor2_guarded(), seed);
            assert_eq!(deep.num_latches(), guarded.num_latches() + 3, "seed {seed}");
            assert_eq!(
                deep.memories().len(),
                guarded.memories().len(),
                "seed {seed}"
            );
            assert_eq!(
                deep.properties().len(),
                guarded.properties().len(),
                "seed {seed}"
            );
        }
    }
}
