//! Structurally hashed And-Inverter Graph.
//!
//! Every combinational function in a design is represented over two-input
//! AND nodes with optional inversion on edges — the representation the paper
//! reports gate counts in ("~9K 2-input gates"). Node ids are created in
//! topological order, so a single forward pass evaluates the whole graph.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::ops::Not;

/// A node index in an [`Aig`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant-false node present in every graph.
    pub const FALSE: NodeId = NodeId(0);

    /// Dense index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An edge: a node with an optional inversion, analogous to a SAT literal.
///
/// ```
/// use emm_aig::Aig;
/// let mut g = Aig::new();
/// let a = g.new_input();
/// assert_eq!(!(!a), a);
/// let t = g.and(a, !a);
/// assert_eq!(t, Aig::FALSE, "x & !x folds to false");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bit(u32);

impl Bit {
    /// Creates an edge to `node`, inverted when `invert` is true.
    #[inline]
    pub fn new(node: NodeId, invert: bool) -> Bit {
        Bit(node.0 << 1 | invert as u32)
    }

    /// The node this edge points to.
    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the edge is inverted.
    #[inline]
    pub fn is_inverted(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense code (usable as an array index over `2 * num_nodes`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Applies an external Boolean value through the edge inversion.
    #[inline]
    pub fn apply(self, node_value: bool) -> bool {
        node_value ^ self.is_inverted()
    }
}

impl Not for Bit {
    type Output = Bit;

    #[inline]
    fn not(self) -> Bit {
        Bit(self.0 ^ 1)
    }
}

impl fmt::Debug for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inverted() {
            write!(f, "!n{}", self.0 >> 1)
        } else {
            write!(f, "n{}", self.0 >> 1)
        }
    }
}

/// Node payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Node {
    /// The constant false node (id 0 only).
    Const,
    /// An external input; the payload is the dense input index.
    Input(u32),
    /// Two-input AND of the operand edges.
    And(Bit, Bit),
}

/// A structurally hashed And-Inverter Graph.
///
/// The graph interns AND nodes: building `and(a, b)` twice returns the same
/// edge, and trivial identities (`x & x`, `x & !x`, constants) fold away.
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<u64, NodeId, StrashHasher>,
    num_inputs: u32,
}

/// The structural-hash key of `x & y`: both operand codes packed into
/// one word (operands in canonical order).
#[inline]
fn strash_key(x: Bit, y: Bit) -> u64 {
    (u64::from(x.0) << 32) | u64::from(y.0)
}

/// Hashes the packed strash key with one folded multiply (the full
/// 128-bit product's halves XORed), which mixes every key bit into both
/// the low bits that pick a bucket and the high bits of the tag, where
/// the default keyed SipHash runs several mixing rounds per key. The
/// seed is drawn from [`RandomState`] once per table, so a parsed model
/// cannot choose keys that collide.
#[derive(Clone, Debug)]
struct StrashHasher(u64);

impl Default for StrashHasher {
    fn default() -> StrashHasher {
        StrashHasher(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for StrashHasher {
    type Hasher = StrashHash;

    #[inline]
    fn build_hasher(&self) -> StrashHash {
        StrashHash(self.0)
    }
}

/// The per-lookup state of [`StrashHasher`]: the seed, then the hash.
struct StrashHash(u64);

impl Hasher for StrashHash {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key ^ self.0) * u128::from(0x9E37_79B9_7F4A_7C15 ^ self.0);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("strash keys are hashed as one u64")
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Aig {
    /// Equivalent to [`Aig::new`]: the constant node is always present.
    fn default() -> Aig {
        Aig::new()
    }
}

impl Aig {
    /// Constant false edge.
    pub const FALSE: Bit = Bit(0);
    /// Constant true edge.
    pub const TRUE: Bit = Bit(1);

    /// Creates a graph containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![Node::Const],
            strash: HashMap::default(),
            num_inputs: 0,
        }
    }

    /// Number of nodes (constant and inputs included).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes (the paper's "2-input gates" metric).
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    /// Number of inputs created.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// Returns the payload of a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (NodeId(i as u32), n))
    }

    /// Creates a fresh input edge. The input's dense index is
    /// `self.num_inputs() - 1` afterwards.
    pub fn new_input(&mut self) -> Bit {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::Input(self.num_inputs));
        self.num_inputs += 1;
        Bit::new(id, false)
    }

    /// Returns the input index of an input edge's node, if it is an input.
    pub fn input_index(&self, bit: Bit) -> Option<usize> {
        match self.node(bit.node()) {
            Node::Input(i) => Some(i as usize),
            _ => None,
        }
    }

    /// Builds `a & b` with constant folding and structural hashing.
    pub fn and(&mut self, a: Bit, b: Bit) -> Bit {
        // Constant / trivial folding.
        if a == Self::FALSE || b == Self::FALSE || a == !b {
            return Self::FALSE;
        }
        if a == Self::TRUE || a == b {
            return b;
        }
        if b == Self::TRUE {
            return a;
        }
        // Canonical operand order for hashing.
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let key = strash_key(x, y);
        if let Some(&id) = self.strash.get(&key) {
            return Bit::new(id, false);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::And(x, y));
        self.strash.insert(key, id);
        Bit::new(id, false)
    }

    /// Builds `a | b`.
    pub fn or(&mut self, a: Bit, b: Bit) -> Bit {
        !self.and(!a, !b)
    }

    /// Builds `a ^ b`.
    pub fn xor(&mut self, a: Bit, b: Bit) -> Bit {
        let n1 = self.and(a, !b);
        let n2 = self.and(!a, b);
        self.or(n1, n2)
    }

    /// Builds `a == b` (XNOR).
    pub fn xnor(&mut self, a: Bit, b: Bit) -> Bit {
        !self.xor(a, b)
    }

    /// Builds `if sel { t } else { e }`.
    pub fn mux(&mut self, sel: Bit, t: Bit, e: Bit) -> Bit {
        if t == e {
            return t;
        }
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// Builds `a -> b`.
    pub fn implies(&mut self, a: Bit, b: Bit) -> Bit {
        self.or(!a, b)
    }

    /// Conjunction over many edges.
    pub fn and_many(&mut self, bits: &[Bit]) -> Bit {
        let mut acc = Self::TRUE;
        for &b in bits {
            acc = self.and(acc, b);
        }
        acc
    }

    /// Disjunction over many edges.
    pub fn or_many(&mut self, bits: &[Bit]) -> Bit {
        let mut acc = Self::FALSE;
        for &b in bits {
            acc = self.or(acc, b);
        }
        acc
    }

    /// Constant edge from a `bool`.
    pub fn constant(value: bool) -> Bit {
        if value {
            Self::TRUE
        } else {
            Self::FALSE
        }
    }

    /// Removes every node with index `>= len`, unwinding the structural
    /// hash table. Only AND nodes may be removed — the reduction passes
    /// use this to discard rejected rewrite candidates, which never
    /// create inputs.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a non-AND node would be removed.
    pub(crate) fn truncate(&mut self, len: usize) {
        while self.nodes.len() > len {
            match self.nodes.pop().expect("len checked") {
                Node::And(a, b) => {
                    self.strash.remove(&strash_key(a, b));
                }
                other => unreachable!("truncate may only remove AND nodes, found {other:?}"),
            }
        }
    }

    /// Dead-strips everything outside the cones of `roots` into a fresh
    /// graph, preserving inputs index-for-index and the relative order of
    /// surviving nodes. Returns the compacted graph and the node map
    /// (dead ANDs map to [`Aig::FALSE`]). Shared by the fraig and rewrite
    /// passes' final sweeps.
    pub(crate) fn compacted(&self, roots: &[NodeId]) -> (Aig, Vec<Bit>) {
        let mut live = vec![false; self.num_nodes()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(n) = stack.pop() {
            if live[n.index()] {
                continue;
            }
            live[n.index()] = true;
            if let Node::And(a, b) = self.node(n) {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        let mut out = Aig::new();
        let mut map: Vec<Bit> = vec![Aig::FALSE; self.num_nodes()];
        for (id, node) in self.iter() {
            match node {
                Node::Const => {}
                Node::Input(_) => map[id.index()] = out.new_input(),
                Node::And(a, b) => {
                    if live[id.index()] {
                        let x = map[a.node().index()];
                        let x = if a.is_inverted() { !x } else { x };
                        let y = map[b.node().index()];
                        let y = if b.is_inverted() { !y } else { y };
                        map[id.index()] = out.and(x, y);
                    }
                }
            }
        }
        (out, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.new_input();
        assert_eq!(g.and(a, Aig::FALSE), Aig::FALSE);
        assert_eq!(g.and(Aig::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Aig::FALSE);
        assert_eq!(g.or(a, Aig::TRUE), Aig::TRUE);
        assert_eq!(g.or(a, !a), Aig::TRUE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_interns() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let n1 = g.and(a, b);
        let n2 = g.and(b, a);
        assert_eq!(n1, n2);
        assert_eq!(g.num_ands(), 1);
        let o1 = g.or(a, b);
        let o2 = g.or(b, a);
        assert_eq!(o1, o2);
    }

    #[test]
    fn xor_and_mux_identities() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        assert_eq!(g.xor(a, a), Aig::FALSE);
        assert_eq!(g.xor(a, Aig::FALSE), a);
        assert_eq!(g.xnor(a, a), Aig::TRUE);
        assert_eq!(g.mux(b, a, a), a);
        assert_eq!(g.mux(Aig::TRUE, a, b), a);
        assert_eq!(g.mux(Aig::FALSE, a, b), b);
    }

    #[test]
    fn topological_ids() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let c = g.and(a, b);
        let d = g.and(c, a);
        assert!(c.node() > a.node() && c.node() > b.node());
        assert!(d.node() > c.node());
        match g.node(d.node()) {
            Node::And(x, y) => {
                assert!(x.node() < d.node() && y.node() < d.node());
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn input_indices_are_dense() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        assert_eq!(g.input_index(a), Some(0));
        assert_eq!(g.input_index(b), Some(1));
        let c = g.and(a, b);
        assert_eq!(g.input_index(c), None);
        assert_eq!(g.num_inputs(), 2);
    }
}
