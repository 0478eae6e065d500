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
//! A [`Cut`] is `Copy`: its at most four leaves sit inline in a fixed
//! array, read through [`Cut::leaves`], so merging and filtering cuts
//! allocates nothing per cut — the enumeration allocates one cut set per
//! node and reuses a single scratch buffer for the merged candidates.
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
///
/// The leaves sit inline (a fixed array plus a length, read through
/// [`Cut::leaves`]), so a cut is `Copy` and merging two cuts allocates
/// nothing. Unused slots always hold [`NodeId::FALSE`], so equality of
/// two cuts is equality of their leaf lists and tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    leaves: [NodeId; MAX_CUT_SIZE],
    len: u8,
    /// Truth table of the cut's root over the leaves (leaf `i` ↔ variable
    /// `i` of [`VAR_TT`]); independent of variables `>= leaves().len()`.
    pub tt: u16,
}

impl Cut {
    /// The leafless cut of the constant node, with the all-false table.
    const CONST: Cut = Cut {
        leaves: [NodeId::FALSE; MAX_CUT_SIZE],
        len: 0,
        tt: 0,
    };

    /// The trivial cut `{n}`: the node as a function of itself.
    fn trivial(n: NodeId) -> Cut {
        let mut leaves = [NodeId::FALSE; MAX_CUT_SIZE];
        leaves[0] = n;
        Cut {
            leaves,
            len: 1,
            tt: VAR_TT[0],
        }
    }

    /// Leaf nodes, sorted ascending, at most [`MAX_CUT_SIZE`] of them.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// A 64-bit summary of the leaf set, one bit per leaf index modulo
    /// 64: distinct bits are distinct leaves.
    fn signature(&self) -> u64 {
        self.leaves()
            .iter()
            .fold(0, |s, l| s | 1u64 << (l.index() % 64))
    }

    /// `true` for a single-leaf cut of the node itself.
    pub fn is_trivial(&self, n: NodeId) -> bool {
        self.len == 1 && self.leaves[0] == n
    }
}

/// The table of `f` with the distinct variables `a` and `b` exchanged
/// (relabeled).
pub(crate) fn swap_vars(tt: u16, a: usize, b: usize) -> u16 {
    let (a, b) = (a.min(b), a.max(b));
    // Positions with x_a = 1, x_b = 0 trade places with x_a = 0, x_b = 1;
    // the value distance between the paired positions is 2^b - 2^a.
    let sh = (1u32 << b) - (1u32 << a);
    let ra = VAR_TT[a] & !VAR_TT[b];
    let rb = !VAR_TT[a] & VAR_TT[b];
    (tt & !(ra | rb)) | ((tt & ra) << sh) | ((tt & rb) >> sh)
}

/// Re-expresses `tt`, a table over a cut's sorted leaves, as a table over
/// a sorted union of leaves in which leaf `i` sits at position `pos[i]`.
///
/// The positions ascend with `pos[i] >= i`, so moving the leaves into
/// place from the highest down swaps each with a variable the table does
/// not depend on yet — one word-parallel swap per moved leaf.
fn expand(tt: u16, pos: &[usize]) -> u16 {
    let mut out = tt;
    for (i, &p) in pos.iter().enumerate().rev() {
        if p != i {
            out = swap_vars(out, i, p);
        }
    }
    out
}

/// Merges two operand cuts into a cut of the AND above them, or `None` if
/// the union exceeds [`MAX_CUT_SIZE`] leaves.
fn merge(ca: &Cut, inv_a: bool, cb: &Cut, inv_b: bool) -> Option<Cut> {
    // Sorted union of the leaf sets, recording where each operand leaf
    // lands in it.
    let (la, lb) = (ca.leaves(), cb.leaves());
    let mut union = [NodeId::FALSE; MAX_CUT_SIZE];
    let mut n = 0;
    let mut pos_a = [0usize; MAX_CUT_SIZE];
    let mut pos_b = [0usize; MAX_CUT_SIZE];
    let (mut i, mut j) = (0, 0);
    loop {
        let (next, from_a, from_b) = match (la.get(i), lb.get(j)) {
            (None, None) => break,
            (Some(&a), Some(&b)) if a == b => (a, true, true),
            (Some(&a), Some(&b)) if a < b => (a, true, false),
            (Some(&a), None) => (a, true, false),
            (_, Some(&b)) => (b, false, true),
        };
        if n == MAX_CUT_SIZE {
            return None;
        }
        if from_a {
            pos_a[i] = n;
            i += 1;
        }
        if from_b {
            pos_b[j] = n;
            j += 1;
        }
        union[n] = next;
        n += 1;
    }
    let ta = expand(ca.tt, &pos_a[..i]) ^ if inv_a { u16::MAX } else { 0 };
    let tb = expand(cb.tt, &pos_b[..j]) ^ if inv_b { u16::MAX } else { 0 };
    Some(Cut {
        leaves: union,
        len: n as u8,
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
    // The merged cuts of the current node, reused across nodes.
    let mut merged: Vec<Cut> = Vec::new();
    for (id, node) in aig.iter() {
        let cuts = match node {
            Node::Const => vec![Cut::CONST],
            Node::Input(_) => vec![Cut::trivial(id)],
            Node::And(a, b) => {
                merged.clear();
                for ca in &all[a.node().index()] {
                    for cb in &all[b.node().index()] {
                        // More than four distinct signature bits are more
                        // than four distinct leaves: skip the merge.
                        if (ca.signature() | cb.signature()).count_ones() as usize > MAX_CUT_SIZE {
                            continue;
                        }
                        let Some(c) = merge(ca, a.is_inverted(), cb, b.is_inverted()) else {
                            continue;
                        };
                        if !merged.contains(&c) {
                            merged.push(c);
                        }
                    }
                }
                // Prefer small cuts, drop dominated ones (their cone is a
                // superset of a kept cut's cone and can only cost more).
                merged.sort_by_key(|c| c.len);
                let mut kept: Vec<Cut> = Vec::with_capacity(MAX_CUTS + 1);
                for c in &merged {
                    if kept.len() == MAX_CUTS {
                        break;
                    }
                    let dominated = kept
                        .iter()
                        .any(|d| d.leaves().iter().all(|l| c.leaves().contains(l)));
                    if !dominated {
                        kept.push(*c);
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
        assert_eq!(expand(0x1234, &[0, 1, 2, 3]), 0x1234);
    }

    /// `expand` against the positional definition: union position `p`
    /// reads the source table at the cut's own variables.
    #[test]
    fn expand_matches_positional_definition() {
        let placements: [&[usize]; 6] = [&[1], &[3], &[0, 2], &[1, 3], &[0, 1, 3], &[1, 2, 3]];
        for pos in placements {
            // A table over `pos.len()` leaves, constant in the others.
            let width = 1usize << pos.len();
            for seed in [0x0000u16, 0x1234, 0xBEEF, 0x7A5C] {
                let mut tt = seed & ((1u32 << width) - 1) as u16;
                for i in pos.len()..MAX_CUT_SIZE {
                    tt |= tt << (1usize << i);
                }
                let mut want = 0u16;
                for p in 0..16usize {
                    let q: usize = pos
                        .iter()
                        .enumerate()
                        .map(|(i, &src)| ((p >> src) & 1) << i)
                        .sum();
                    want |= ((tt >> q) & 1) << p;
                }
                assert_eq!(expand(tt, pos), want, "{tt:#06x} at {pos:?}");
            }
        }
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
                        cut.leaves().iter().map(|l| values[l.index()]).collect();
                    assert_eq!(
                        tt_eval(cut, &leaf_values),
                        values[nid],
                        "node {nid} cut {:?} pattern {p}",
                        cut.leaves()
                    );
                }
            }
        }
        // z must have a cut over the primary inputs alone.
        let z_cuts = &cuts[z.node().index()];
        assert!(z_cuts
            .iter()
            .any(|cut| cut.leaves() == [a.node(), b.node(), c.node()]));
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
                assert!(c.leaves().len() <= MAX_CUT_SIZE);
            }
        }
    }
}
