//! Property-based tests for the simple-path (LFP) constraint encoding.
//!
//! The contract under test: `LfpBuilder::solve`, which adds pair rows
//! on demand, answers UNSAT **iff** two frames are *provably* the
//! same system state — equal kept-latch valuations with no enabled
//! memory write in any frame between them. Frames forced equal by
//! simulation must violate the uniqueness clauses; pairwise-distinct
//! (or write-separated) frames must satisfy them. A query at a bound
//! counts only the frames up to it.

use emm_aig::{Design, LatchInit, MemInit, Simulator};
use emm_bmc::{LfpBuilder, UnrollConfig, Unroller};
use emm_sat::{Lit, SolveResult, Solver};
use proptest::prelude::*;

/// The conservative equality the encoding implements: frames `i < j`
/// collide iff their states match and no write fired in frames `i..j`.
fn expect_unsat(states: &[u64], writes: &[bool]) -> bool {
    for i in 0..states.len() {
        for j in i + 1..states.len() {
            if states[i] == states[j] && !writes[i..j].iter().any(|&w| w) {
                return true;
            }
        }
    }
    false
}

/// A 3-bit counter that increments only when its enable input is high,
/// writing its value to a memory when the write input is high. The
/// latch trajectory and the write-enable sequence are both fully
/// determined by the forced input sequence. Returns the design plus the
/// `en` and `we` input bits.
fn gated_design() -> (Design, emm_aig::Bit, emm_aig::Bit) {
    let mut d = Design::new();
    let mem = d.add_memory("m", 2, 2, MemInit::Zero);
    let count = d.new_latch_word("count", 3, LatchInit::Zero);
    let en = d.new_input("en");
    let we = d.new_input("we");
    let wd = d.new_input_word("wd", 2);
    let inc = d.aig.inc(&count);
    let next = d.aig.mux_word(en, &inc, &count);
    d.set_next_word(&count, &next);
    let wa = d.aig.resize(&count, 2);
    d.add_write_port(mem, wa, we, wd);
    let ra = d.new_input_word("ra", 2);
    let rd = d.add_read_port(mem, ra, emm_aig::Aig::TRUE);
    let bad = d.aig.eq_const(&rd, 3);
    d.add_property("p", bad);
    d.check().expect("valid");
    (d, en, we)
}

/// The latch state as a packed integer.
fn sim_state(sim: &Simulator, num_latches: usize) -> u64 {
    (0..num_latches).fold(0u64, |acc, i| acc | ((sim.latch(i) as u64) << i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encoding-level check against a reference model: force every frame
    /// literal to a chosen valuation and every write literal to a chosen
    /// flag; satisfiability must match the conservative-equality oracle.
    #[test]
    fn lfp_matches_conservative_state_equality(
        width in 1usize..=3,
        raw_states in proptest::collection::vec(0u64..8, 2..8usize),
        writes in proptest::collection::vec(any::<bool>(), 8usize),
    ) {
        let mask = (1u64 << width) - 1;
        let states: Vec<u64> = raw_states.iter().map(|s| s & mask).collect();
        let mut s = Solver::new();
        let mut lfp = LfpBuilder::new(&mut s, width, None);
        let mut assumptions = Vec::new();
        for (f, &st) in states.iter().enumerate() {
            let latch_lits: Vec<Lit> = (0..width).map(|_| s.new_var().positive()).collect();
            for (b, &l) in latch_lits.iter().enumerate() {
                assumptions.push(if (st >> b) & 1 == 1 { l } else { !l });
            }
            let w = s.new_var().positive();
            assumptions.push(if writes[f] { w } else { !w });
            lfp.add_frame(&latch_lits, &[w]);
        }
        // The deepest bound first, then every shallower one: a query at
        // `bound` enforces LFP over frames `0..=bound` only, whatever rows
        // the deeper queries left behind.
        for bound in (0..states.len()).rev() {
            let expected = if expect_unsat(&states[..=bound], &writes[..=bound]) {
                SolveResult::Unsat
            } else {
                SolveResult::Sat
            };
            let result = lfp.solve(&mut s, None, bound, &assumptions, &mut 0.0, &mut 0.0);
            prop_assert_eq!(result, expected, "bound {}", bound);
        }
    }

    /// Design-level check: unroll the gated counter floating (no initial
    /// state), force frame 0 and the input sequence to match a concrete
    /// simulation, and compare LFP satisfiability with the simulated
    /// trajectory. States forced equal by simulation with no intervening
    /// write must violate the uniqueness clauses; distinct or
    /// write-separated ones must satisfy them.
    #[test]
    fn simulated_paths_decide_lfp(
        steps in proptest::collection::vec((any::<bool>(), any::<bool>()), 2..9usize),
    ) {
        let (d, en_bit, we_bit) = gated_design();
        // Reference trajectory. Free inputs in order: en, we, wd[2], ra[2].
        let mut sim = Simulator::new(&d);
        let mut states = vec![sim_state(&sim, d.num_latches())];
        let mut writes = Vec::new();
        for &(en, we) in &steps[..steps.len() - 1] {
            writes.push(we);
            sim.step(&[en, we, false, false, false, false]);
            states.push(sim_state(&sim, d.num_latches()));
        }
        writes.push(steps[steps.len() - 1].1);

        // Floating unrolling with forced frame 0 and inputs.
        let mut s = Solver::new();
        let mut u = Unroller::new(&d, &mut s, UnrollConfig::default());
        let mut lfp = LfpBuilder::new(&mut s, d.num_latches(), None);
        let mut assumptions = Vec::new();
        for (f, &(en, we)) in steps.iter().enumerate() {
            u.extend(&d, &mut s);
            let latch_lits = u.latch_lits(&d, f);
            if f == 0 {
                // Frame 0 latches are free in a floating window; pin
                // them to the simulation's initial state (zero).
                for &l in &latch_lits {
                    assumptions.push(!l);
                }
            }
            for (bit, value) in [(en_bit, en), (we_bit, we)] {
                let lit = u.lit(f, bit);
                assumptions.push(if value { lit } else { !lit });
            }
            lfp.add_frame(&latch_lits, &[u.lit(f, we_bit)]);
        }
        let expected = if expect_unsat(&states, &writes) {
            SolveResult::Unsat
        } else {
            SolveResult::Sat
        };
        let bound = steps.len() - 1;
        prop_assert_eq!(lfp.solve(&mut s, None, bound, &assumptions, &mut 0.0, &mut 0.0), expected);
    }
}
