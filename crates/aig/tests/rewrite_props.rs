//! Property tests for cut enumeration, NPN semicanonicalization, and the
//! cut-based rewriting pass: on random graphs, rewriting must preserve
//! combinational semantics exactly (checked with the word-parallel
//! simulator) under both the default and the wide (k = 6, global
//! selection) configurations, never grow the graph, k = 6 cut truth
//! tables must agree with word-parallel simulation, and semicanonical
//! forms must be invariant under every NPN transform.

use emm_aig::cuts::{enumerate_cuts, CutConfig, MAX_CUT_SIZE};
use emm_aig::rewrite::{npn_semicanonical, rewrite_aig, NpnTransform, RewriteConfig};
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

/// A random permutation of `0..6` derived from a seed.
fn seeded_perm(seed: u64) -> [u8; MAX_CUT_SIZE] {
    let mut perm = [0u8, 1, 2, 3, 4, 5];
    for i in (1..MAX_CUT_SIZE).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Checks one rewriting configuration against word-parallel simulation.
fn check_rewrite_preserves(g: &Aig, roots: &[Bit], config: &RewriteConfig, seed: u64) {
    let r = rewrite_aig(g, roots, config);
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
                "k={} root {} word {}",
                config.cut_size,
                i,
                w
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rewriting preserves the function of every root on 128 patterns of
    /// word-parallel simulation, and never grows the graph — under both
    /// the default configuration and the wide k = 6 configuration.
    #[test]
    fn rewrite_preserves_combinational_semantics(
        num_inputs in 2usize..8,
        ops in vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..60),
        seed in any::<u64>(),
    ) {
        let (g, edges) = build_graph(num_inputs, &ops);
        // The last few edges are the roots whose functions must survive.
        let roots: Vec<Bit> = edges.iter().rev().take(4).copied().collect();
        check_rewrite_preserves(&g, &roots, &RewriteConfig::default(), seed);
        check_rewrite_preserves(&g, &roots, &RewriteConfig::wide(), seed);
    }

    /// Every enumerated cut's truth table — k = 6, `u64` tables — agrees
    /// with word-parallel simulation of the graph on every node.
    #[test]
    fn cut_truth_tables_agree_with_simulation(
        num_inputs in 2usize..8,
        ops in vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..30),
        seed in any::<u64>(),
    ) {
        let (g, _) = build_graph(num_inputs, &ops);
        let config = CutConfig { cut_size: MAX_CUT_SIZE, max_cuts: 8 };
        let cuts = enumerate_cuts(&g, &config);
        let words = 1usize;
        let values = eval_combinational_words(&g, &input_words(&g, words, seed), words);
        for (nid, node_cuts) in cuts.iter().enumerate() {
            for cut in node_cuts {
                prop_assert!(cut.leaves.len() <= MAX_CUT_SIZE);
                for p in 0..64usize {
                    // Pattern p of the single simulation word.
                    let mut q = 0usize;
                    for (i, l) in cut.leaves.iter().enumerate() {
                        q |= (((values[l.index()] >> p) & 1) as usize) << i;
                    }
                    prop_assert_eq!(
                        (cut.tt >> q) & 1,
                        (values[nid] >> p) & 1,
                        "node {} cut {:?} pattern {}", nid, &cut.leaves, p
                    );
                }
            }
        }
    }

    /// Semicanonical forms are invariant under arbitrary input/output
    /// negations and permutations, and the returned transform actually
    /// reaches the semicanonical table.
    #[test]
    fn semicanonical_is_transform_invariant(
        tt in any::<u64>(),
        perm_seed in any::<u64>(),
        input_neg in 0u8..64,
        output_neg in any::<bool>(),
    ) {
        let (canon, reached_by) = npn_semicanonical(tt);
        prop_assert_eq!(reached_by.apply(tt), canon);
        let t = NpnTransform {
            perm: seeded_perm(perm_seed),
            input_neg,
            output_neg,
        };
        let transformed = t.apply(tt);
        prop_assert_eq!(
            npn_semicanonical(transformed).0, canon,
            "tt {:#018x} transformed {:#018x}", tt, transformed
        );
    }

    /// Narrow-support functions hiding in wide tables: a table depending
    /// on few variables must canonicalize identically however the unused
    /// variables are permuted or negated — the shape every cut with fewer
    /// than six leaves produces.
    #[test]
    fn semicanonical_ignores_unused_variables(
        low_tt in any::<u16>(),
        perm_seed in any::<u64>(),
        input_neg in 0u8..64,
    ) {
        // Expand a 4-variable table to 6 variables (x4/x5 unused).
        let mut tt = 0u64;
        for p in 0..64usize {
            if (low_tt >> (p & 15)) & 1 == 1 {
                tt |= 1 << p;
            }
        }
        let (canon, _) = npn_semicanonical(tt);
        let t = NpnTransform {
            perm: seeded_perm(perm_seed),
            input_neg,
            output_neg: false,
        };
        prop_assert_eq!(npn_semicanonical(t.apply(tt)).0, canon);
    }
}
