//! Property tests for cut enumeration and the cut-based rewriting pass:
//! on random graphs, rewriting must preserve combinational semantics
//! exactly (checked with the word-parallel simulator) and never grow the
//! graph, and 4-input cut truth tables must agree with word-parallel
//! simulation. The exact NPN form is checked exhaustively by the unit
//! tests in `rewrite.rs`.

use emm_aig::cuts::{enumerate_cuts, MAX_CUT_SIZE};
use emm_aig::rewrite::rewrite_aig;
use emm_aig::sim::eval_combinational_words;
use emm_aig::{Aig, Bit};
use proptest::collection::vec;
use proptest::prelude::*;

/// Deterministic pattern words (SplitMix64).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a random graph from an op tape: each op combines two existing
/// edges (with inversions) through AND, OR, XOR, or MUX. Returns the graph
/// and every edge created (inputs included).
fn build_graph(num_inputs: usize, ops: &[(u8, u16, u16)]) -> (Aig, Vec<Bit>) {
    let mut g = Aig::new();
    let mut edges: Vec<Bit> = (0..num_inputs).map(|_| g.new_input()).collect();
    for &(kind, a, b) in ops {
        let x = edges[a as usize % edges.len()];
        let x = if a & 0x8000 != 0 { !x } else { x };
        let y = edges[b as usize % edges.len()];
        let y = if b & 0x8000 != 0 { !y } else { y };
        let e = match kind % 4 {
            0 => g.and(x, y),
            1 => g.or(x, y),
            2 => g.xor(x, y),
            _ => {
                let s = edges[(kind as usize / 4) % edges.len()];
                g.mux(s, x, y)
            }
        };
        edges.push(e);
    }
    (g, edges)
}

/// The flat word-parallel input block for a graph, derived from `seed`.
fn input_words(g: &Aig, words: usize, seed: u64) -> Vec<u64> {
    (0..g.num_inputs() * words)
        .map(|i| mix(seed ^ mix(i as u64)))
        .collect()
}

/// Value of `bit` under pattern word `w` of a word-parallel evaluation.
fn word_of(values: &[u64], words: usize, bit: Bit, w: usize) -> u64 {
    let v = values[bit.node().index() * words + w];
    if bit.is_inverted() {
        !v
    } else {
        v
    }
}

/// Checks the rewriting pass against word-parallel simulation.
fn check_rewrite_preserves(g: &Aig, roots: &[Bit], seed: u64) {
    let r = rewrite_aig(g, roots);
    assert!(r.stats.ands_after <= r.stats.ands_before);
    let words = 2usize;
    let values_old = eval_combinational_words(g, &input_words(g, words, seed), words);
    let values_new = eval_combinational_words(&r.aig, &input_words(&r.aig, words, seed), words);
    assert_eq!(g.num_inputs(), r.aig.num_inputs(), "inputs preserved");
    for (i, &root) in roots.iter().enumerate() {
        let mapped = r.map_bit(root);
        for w in 0..words {
            assert_eq!(
                word_of(&values_old, words, root, w),
                word_of(&values_new, words, mapped, w),
                "root {} word {}",
                i,
                w
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rewriting preserves the function of every root on 128 patterns of
    /// word-parallel simulation, and never grows the graph.
    #[test]
    fn rewrite_preserves_combinational_semantics(
        num_inputs in 2usize..8,
        ops in vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..60),
        seed in any::<u64>(),
    ) {
        let (g, edges) = build_graph(num_inputs, &ops);
        // The last few edges are the roots whose functions must survive.
        let roots: Vec<Bit> = edges.iter().rev().take(4).copied().collect();
        check_rewrite_preserves(&g, &roots, seed);
    }

    /// Every enumerated cut's truth table — at most 4 leaves, `u16`
    /// tables — agrees with word-parallel simulation of the graph on
    /// every node.
    #[test]
    fn cut_truth_tables_agree_with_simulation(
        num_inputs in 2usize..8,
        ops in vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..30),
        seed in any::<u64>(),
    ) {
        let (g, _) = build_graph(num_inputs, &ops);
        let cuts = enumerate_cuts(&g);
        let words = 1usize;
        let values = eval_combinational_words(&g, &input_words(&g, words, seed), words);
        for (nid, node_cuts) in cuts.iter().enumerate() {
            for cut in node_cuts {
                prop_assert!(cut.leaves().len() <= MAX_CUT_SIZE);
                for p in 0..64usize {
                    // Pattern p of the single simulation word.
                    let mut q = 0usize;
                    for (i, l) in cut.leaves().iter().enumerate() {
                        q |= (((values[l.index()] >> p) & 1) as usize) << i;
                    }
                    prop_assert_eq!(
                        u64::from((cut.tt >> q) & 1),
                        (values[nid] >> p) & 1,
                        "node {} cut {:?} pattern {}", nid, cut.leaves(), p
                    );
                }
            }
        }
    }
}
