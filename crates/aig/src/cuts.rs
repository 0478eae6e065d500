//! 4-feasible cut enumeration with truth tables.
//!
//! A *cut* of a node `n` is a set of nodes (the *leaves*) such that every
//! path from an input to `n` passes through a leaf; the logic between the
//! leaves and `n` — the cut's *cone* — computes `n` as a function of the
//! leaves alone. Enumerating all cuts with at most four leaves (the
//! *4-feasible* cuts) is the window-discovery step of cut-based rewriting
//! ([`crate::rewrite`]): each cut's function, captured as a truth table,
//! can be re-synthesized from scratch and compared against the cone it
//! would replace.
//!
//! Cuts are computed bottom-up in one topological pass, exactly as in
//! technology mappers: the cut set of an AND node is the pairwise merge of
//! its fanins' cut sets (unions of at most four leaves), plus the *trivial
//! cut* `{n}` that lets `n` itself serve as a leaf of its fanouts. Each
//! cut carries the truth table of the node over the cut leaves, maintained
//! during the merge, so no separate window simulation is needed.
//!
//! Truth tables are stored as full 4-variable tables (`u16`), with leaf
//! `i` bound to variable `i`; a cut with fewer than four leaves simply
//! does not depend on the higher variables.

use crate::aig::{Aig, Node, NodeId};

/// Cut width: at most four leaves per cut, so a `u16` table covers it.
pub const MAX_CUT_SIZE: usize = 4;

/// Non-trivial cuts kept per node (smallest leaf count first).
const MAX_CUTS: usize = 8;

/// Truth tables of the four cut variables (`x0` is bit 0 of the position
/// index). `VAR_TT[i]` is the table of the projection onto leaf `i`.
pub const VAR_TT: [u16; MAX_CUT_SIZE] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// One 4-feasible cut: sorted leaves plus the node's function over them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Leaf nodes, sorted ascending, at most [`MAX_CUT_SIZE`] of them.
    pub leaves: Vec<NodeId>,
    /// Truth table of the cut's root over the leaves (leaf `i` ↔ variable
    /// `i` of [`VAR_TT`]); independent of variables `>= leaves.len()`.
    pub tt: u16,
}

impl Cut {
    /// The trivial cut `{n}`: the node as a function of itself.
    fn trivial(n: NodeId) -> Cut {
        Cut {
            leaves: vec![n],
            tt: VAR_TT[0],
        }
    }

    /// `true` for a single-leaf cut of the node itself.
    pub fn is_trivial(&self, n: NodeId) -> bool {
        self.leaves.len() == 1 && self.leaves[0] == n
    }
}

/// Re-expresses `tt`, a table over a cut's sorted leaves, as a table over
/// a sorted union of `n` leaves in which leaf `i` sits at position
/// `pos[i]`.
fn expand(tt: u16, pos: &[usize], n: usize) -> u16 {
    if pos.len() == n {
        // Sorted leaves covering the whole union sit at their own index.
        return tt;
    }
    // Only the low 2^n positions carry information — this is the hottest
    // loop of the enumeration, so compute that block and fill the rest by
    // doubling (the table is constant in variables above the union).
    let mut out = 0u16;
    for p in 0..(1usize << n) {
        let mut q = 0usize;
        for (i, &src) in pos.iter().enumerate() {
            q |= ((p >> src) & 1) << i;
        }
        out |= ((tt >> q) & 1) << p;
    }
    for i in n..MAX_CUT_SIZE {
        out |= out << (1usize << i);
    }
    out
}

/// Merges two operand cuts into a cut of the AND above them, or `None` if
/// the union exceeds [`MAX_CUT_SIZE`] leaves.
fn merge(ca: &Cut, inv_a: bool, cb: &Cut, inv_b: bool) -> Option<Cut> {
    // Sorted union of the leaf sets, recording where each operand leaf
    // lands in it.
    let mut union: Vec<NodeId> = Vec::with_capacity(MAX_CUT_SIZE);
    let mut pos_a = [0usize; MAX_CUT_SIZE];
    let mut pos_b = [0usize; MAX_CUT_SIZE];
    let (mut i, mut j) = (0, 0);
    loop {
        let (next, from_a, from_b) = match (ca.leaves.get(i), cb.leaves.get(j)) {
            (None, None) => break,
            (Some(&a), Some(&b)) if a == b => (a, true, true),
            (Some(&a), Some(&b)) if a < b => (a, true, false),
            (Some(&a), None) => (a, true, false),
            (_, Some(&b)) => (b, false, true),
        };
        if union.len() == MAX_CUT_SIZE {
            return None;
        }
        if from_a {
            pos_a[i] = union.len();
            i += 1;
        }
        if from_b {
            pos_b[j] = union.len();
            j += 1;
        }
        union.push(next);
    }
    let n = union.len();
    let ta = expand(ca.tt, &pos_a[..i], n) ^ if inv_a { u16::MAX } else { 0 };
    let tb = expand(cb.tt, &pos_b[..j], n) ^ if inv_b { u16::MAX } else { 0 };
    Some(Cut {
        leaves: union,
        tt: ta & tb,
    })
}

/// Enumerates the 4-feasible cuts of every node, indexed by node id.
///
/// Each AND node's set contains its trivial cut plus at most eight merged
/// cuts, with dominated cuts (a superset of another cut's leaves) removed
/// and smaller cuts preferred. Inputs get only their trivial cut; the
/// constant node gets a single leafless cut with the all-false table.
pub fn enumerate_cuts(aig: &Aig) -> Vec<Vec<Cut>> {
    let mut all: Vec<Vec<Cut>> = Vec::with_capacity(aig.num_nodes());
    for (id, node) in aig.iter() {
        let cuts = match node {
            Node::Const => vec![Cut {
                leaves: Vec::new(),
                tt: 0,
            }],
            Node::Input(_) => vec![Cut::trivial(id)],
            Node::And(a, b) => {
                let mut cuts: Vec<Cut> = Vec::new();
                for ca in &all[a.node().index()] {
                    for cb in &all[b.node().index()] {
                        let Some(c) = merge(ca, a.is_inverted(), cb, b.is_inverted()) else {
                            continue;
                        };
                        if !cuts.contains(&c) {
                            cuts.push(c);
                        }
                    }
                }
                // Prefer small cuts, drop dominated ones (their cone is a
                // superset of a kept cut's cone and can only cost more).
                cuts.sort_by_key(|c| c.leaves.len());
                let mut kept: Vec<Cut> = Vec::new();
                for c in cuts {
                    let dominated = kept
                        .iter()
                        .any(|d| d.leaves.iter().all(|l| c.leaves.contains(l)));
                    if !dominated && kept.len() < MAX_CUTS {
                        kept.push(c);
                    }
                }
                kept.push(Cut::trivial(id));
                kept
            }
        };
        all.push(cuts);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::eval_combinational;

    /// Evaluates a cut's truth table under concrete leaf values.
    fn tt_eval(cut: &Cut, leaf_values: &[bool]) -> bool {
        let mut q = 0usize;
        for (i, &v) in leaf_values.iter().enumerate() {
            q |= (v as usize) << i;
        }
        (cut.tt >> q) & 1 == 1
    }

    #[test]
    fn expand_is_identity_on_equal_sets() {
        assert_eq!(expand(0x1234, &[0, 1, 2, 3], 4), 0x1234);
    }

    #[test]
    fn cuts_of_small_graph_match_simulation() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let c = g.new_input();
        let x = g.and(a, b);
        let y = g.and(!x, c);
        let z = g.and(x, !y);
        let cuts = enumerate_cuts(&g);
        // Every cut of every node must agree with concrete simulation on
        // all 8 input assignments.
        for p in 0..8u32 {
            let inputs: Vec<bool> = (0..3).map(|i| (p >> i) & 1 == 1).collect();
            let values = eval_combinational(&g, &inputs);
            for (nid, node_cuts) in cuts.iter().enumerate() {
                for cut in node_cuts {
                    let leaf_values: Vec<bool> =
                        cut.leaves.iter().map(|l| values[l.index()]).collect();
                    assert_eq!(
                        tt_eval(cut, &leaf_values),
                        values[nid],
                        "node {nid} cut {:?} pattern {p}",
                        cut.leaves
                    );
                }
            }
        }
        // z must have a cut over the primary inputs alone.
        let z_cuts = &cuts[z.node().index()];
        assert!(z_cuts
            .iter()
            .any(|cut| cut.leaves == vec![a.node(), b.node(), c.node()]));
    }

    #[test]
    fn trivial_cut_always_present() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let x = g.and(a, b);
        let cuts = enumerate_cuts(&g);
        assert!(cuts[x.node().index()]
            .iter()
            .any(|c| c.is_trivial(x.node())));
        assert!(cuts[a.node().index()][0].is_trivial(a.node()));
    }

    #[test]
    fn cut_width_is_bounded() {
        let mut g = Aig::new();
        let inputs: Vec<_> = (0..8).map(|_| g.new_input()).collect();
        let mut acc = Aig::TRUE;
        for &i in &inputs {
            acc = g.and(acc, i);
        }
        for cuts in enumerate_cuts(&g) {
            for c in &cuts {
                assert!(c.leaves.len() <= MAX_CUT_SIZE);
            }
        }
    }
}
