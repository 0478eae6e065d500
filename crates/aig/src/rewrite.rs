//! Cut-based AIG rewriting (ABC-style) — restructuring *inequivalent*
//! logic into cheaper shapes before unrolling.
//!
//! The [`fraig`](crate::fraig) pass can only merge cones that compute the
//! *same* function; everything it leaves behind is structure the original
//! word-level construction happened to choose. This pass attacks that
//! structure directly: for every AND node it enumerates the 4-feasible
//! cuts ([`crate::cuts`]), takes each cut's truth table, and asks whether
//! the function has a cheaper implementation than the cone it currently
//! owns. Where the answer is yes — an XOR hiding in four ANDs, a mux built
//! the long way, a cone whose function collapses onto fewer leaves, a
//! sub-function another part of the graph already computes — the node is
//! re-expressed over the cut leaves and the old cone dies.
//!
//! The mechanics per node:
//!
//! 1. **Cut truth tables** come from the enumeration itself (maintained
//!    through the merges as 4-variable `u16` tables), so no window
//!    simulation is needed.
//! 2. Each table is canonicalized by [`npn_canonical`] — the exact NPN
//!    form, the minimum image over all 4!·2⁴·2 = 768 input permutations,
//!    input complementations and output complementations, which sorts the
//!    65,536 tables into 222 classes (the scheme of ABC's `rewrite`,
//!    Mishchenko, Chatterjee & Brayton, DAC 2006). The canonical class is
//!    looked up in a **recipe library**: a per-pass memo of synthesized
//!    implementations (AND/OR extraction, XOR and mux/Shannon
//!    decomposition, computed once per class by exhaustive-cost search and
//!    replayed for every later cone in the class).
//! 3. The candidate is instantiated over the cut leaves where structural
//!    hashing makes shared logic free, and its **measured** cost (nodes
//!    actually added) is compared against what the replacement frees: the
//!    node itself plus its maximal-fanout-free cone w.r.t. the cut. Only
//!    strictly positive gains survive — the **zero-gain guard** that keeps
//!    the fixpoint iteration from oscillating between equal-cost shapes.
//!
//! Measured-gain candidates are *accepted* by **global selection**:
//! candidates are collected for the whole graph first, each carrying the
//! node set it would free (root + MFFC) and the pre-existing nodes its
//! measured cost depends on. Overlapping free-sets mean overlapping
//! claims — accepting both would double-count the shared nodes — and a
//! dependency on another candidate's freed node is a conflict too, so a
//! maximum-weight conflict-free subset is chosen by the
//! greedy-with-exchange solver of [`crate::select`], and only the chosen
//! rewrites are committed in one topological rebuild. A freed node is
//! therefore never counted by two accepted rewrites, nor freed out from
//! under a rewrite whose measured cost depends on it (residual
//! commit-time drift from structural sharing is bounded by the
//! never-grows fixpoint guard).
//!
//! The pass repeats (at most four iterations) until an iteration stops
//! strictly reducing the AND count; a non-improving iteration is
//! discarded, so the result is never larger than the input. Inputs are
//! preserved index-for-index and everything outside the root cones is
//! dead-stripped, exactly like the fraig rewrite, so [`rewrite_design`]
//! can splice the result into a [`Design`] through the same
//! interface-preserving substitution.
//!
//! Soundness is purely local: a candidate implements the cut's truth
//! table over the mapped leaf edges, and by induction every mapped edge
//! computes the same function of the inputs as its source node, so the
//! replacement is functionally identical — no solver involved. The
//! property tests in `tests/rewrite_props.rs` check exactly this against
//! word-parallel simulation, and `emm-bmc`'s `rewrite_differential.rs`
//! checks verdict preservation through full BMC.

use std::collections::HashMap;

use emm_sat::{FaultSite, ResourceGovernor};

use crate::aig::{Aig, Bit, Node, NodeId};
use crate::cuts::{enumerate_cuts, swap_vars, Cut, MAX_CUT_SIZE, VAR_TT};
use crate::design::Design;
use crate::select::{select_nonoverlapping, Selectable};

/// Fixpoint cap: rewriting repeats until an iteration stops strictly
/// reducing the AND count, or this many iterations have run.
const MAX_ITERS: usize = 4;

/// Configuration of the rewriting pass: whether a pipeline runs it at
/// all. The pass itself has no knobs — 4-input cuts, eight per node, at
/// most four iterations — so [`rewrite_design`] always runs when called;
/// pipelines such as the BMC engine's check [`RewriteConfig::enabled`]
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RewriteConfig {
    /// Rewrite the design before unrolling.
    pub enabled: bool,
}

impl Default for RewriteConfig {
    fn default() -> RewriteConfig {
        RewriteConfig { enabled: true }
    }
}

impl RewriteConfig {
    /// A configuration that turns the pass off entirely.
    pub fn disabled() -> RewriteConfig {
        RewriteConfig { enabled: false }
    }
}

/// What the pass found and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// AND gates before the pass.
    pub ands_before: usize,
    /// AND gates in the rewritten graph.
    pub ands_after: usize,
    /// Committed fixpoint iterations (0 when nothing improved).
    pub iterations: usize,
    /// Accepted cone replacements.
    pub rewrites: u64,
    /// Of those, cones whose canonical class is a 2- or 3-input XOR.
    pub xor_rewrites: u64,
    /// Of those, cones whose canonical class is a 2:1 mux.
    pub mux_rewrites: u64,
    /// Cuts enumerated across all iterations.
    pub cuts_enumerated: u64,
    /// Cut candidates evaluated against the gain test.
    pub candidates_tried: u64,
    /// Candidates rejected by the zero-gain guard (measured gain ≤ 0, or
    /// provably unable to win on the support-size lower bound).
    pub zero_gain_skipped: u64,
    /// Positive-gain candidates offered to global selection (same-root
    /// alternatives included).
    pub candidates_collected: u64,
    /// Of those, candidates dropped because their freed nodes overlapped
    /// a selected candidate's.
    pub select_dropped: u64,
    /// Improving exchange moves applied by the selection solver.
    pub exchange_swaps: u64,
    /// Accepted candidates whose recipe instantiation reused pre-existing
    /// strash nodes (selection reads) — the cost model prefers these at
    /// equal gain, since their logic is already shared with the rest of
    /// the graph.
    pub reuse_preferred: u64,
    /// Distinct NPN classes synthesized into the recipe library.
    pub npn_classes: usize,
    /// The fixpoint was stopped early by its [`ResourceGovernor`]
    /// (deadline or cancellation). The result is the last committed
    /// iteration — a sound best-so-far reduction, never larger than the
    /// input.
    pub interrupted: bool,
}

impl RewriteStats {
    /// Gates removed by the whole pass.
    pub fn ands_removed(&self) -> usize {
        self.ands_before.saturating_sub(self.ands_after)
    }
}

/// Result of [`rewrite_aig`]: the rewritten graph plus the edge mapping.
#[derive(Clone, Debug)]
pub struct RewriteResult {
    /// The rewritten graph. Inputs appear in the same order as in the
    /// source graph (same dense indices).
    pub aig: Aig,
    /// Counters.
    pub stats: RewriteStats,
    /// Old node -> rewritten-graph edge.
    map: Vec<Bit>,
}

impl RewriteResult {
    /// Maps an edge of the source graph into the rewritten graph.
    pub fn map_bit(&self, old: Bit) -> Bit {
        apply(&self.map, old)
    }
}

// ---------------------------------------------------------------------------
// NPN canonicalization
// ---------------------------------------------------------------------------

/// An NPN transform: input negations, an input permutation, and an output
/// negation, acting on 4-variable truth tables.
///
/// Applied to a function `f`, the transform yields
/// `g(y0..y3) = output_neg ⊕ f(x0..x3)` with `x_j = y_{perm[j]} ⊕ neg_j`
/// (where `neg_j` is bit `j` of `input_neg`). The identity transform has
/// `perm = [0, 1, 2, 3]`, `input_neg = 0`, `output_neg = false`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// Where each original input reads from: `x_j` comes from `y_{perm[j]}`.
    pub perm: [u8; MAX_CUT_SIZE],
    /// Mask of complemented inputs (bit `j` complements `x_j`).
    pub input_neg: u8,
    /// Whether the output is complemented.
    pub output_neg: bool,
}

/// The 24 permutations of four inputs, in lexicographic order.
const PERMUTATIONS: [[u8; MAX_CUT_SIZE]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

impl NpnTransform {
    /// The identity transform.
    pub const IDENTITY: NpnTransform = NpnTransform {
        perm: PERMUTATIONS[0],
        input_neg: 0,
        output_neg: false,
    };

    /// Applies the transform to a truth table.
    ///
    /// Implemented with word-parallel table surgery — per-variable half
    /// swaps for the input negations, variable transpositions for the
    /// permutation — so one application costs a few word operations
    /// instead of a 16-position loop.
    pub fn apply(&self, tt: u16) -> u16 {
        // h(x) = f(x0 ⊕ n0, ..): flip each negated input's half-spaces.
        let mut out = tt;
        for j in 0..MAX_CUT_SIZE {
            if (self.input_neg >> j) & 1 == 1 {
                out = flip_var(out, j);
            }
        }
        out = permute(out, &self.perm);
        if self.output_neg {
            !out
        } else {
            out
        }
    }
}

/// The table of `g(y) = f(y_{perm[0]}, .., y_{perm[3]})`: relabels
/// variable `j` as `perm[j]` by transpositions, tracking where each
/// logical variable sits.
fn permute(tt: u16, perm: &[u8; MAX_CUT_SIZE]) -> u16 {
    let mut out = tt;
    let mut at = [0usize, 1, 2, 3];
    let mut place = [0usize, 1, 2, 3];
    for v in 0..MAX_CUT_SIZE {
        let target = perm[v] as usize;
        let p = place[v];
        if p != target {
            let w = at[target];
            out = swap_vars(out, p, target);
            at[p] = w;
            at[target] = v;
            place[v] = target;
            place[w] = p;
        }
    }
    out
}

/// The table of `f` with variable `i` complemented: swaps the `x_i = 0`
/// and `x_i = 1` half-spaces.
fn flip_var(tt: u16, i: usize) -> u16 {
    let s = 1u32 << i;
    ((tt & VAR_TT[i]) >> s) | ((tt & !VAR_TT[i]) << s)
}

/// The exact NPN canonical form of a 4-variable truth table: the minimum
/// image over all 768 transforms, together with the transform that
/// reaches it.
///
/// Two tables have equal forms iff they are NPN-equivalent, which the
/// recipe library depends on — a cross-class collision would replay a
/// recipe for the wrong function. The search order fixes which transform
/// is returned when several reach the minimum — and with it how the
/// pass wires a recipe to the cut leaves, so the rewritten graph depends
/// on it: output phase `false` before `true`, then permutations in
/// lexicographic order, then input negation masks ascending; the first
/// transform to reach the minimum wins. Per (phase, permutation) the 16 negation images are built from
/// one another, each by a single variable flip: complementing `x_j`
/// before the relabeling is complementing `y_{perm[j]}` after it.
///
/// # Examples
///
/// ```
/// use emm_aig::cuts::VAR_TT;
/// use emm_aig::rewrite::npn_canonical;
///
/// // x0 ∧ x1 and ¬x2 ∨ ¬x3 = ¬(x2 ∧ x3) are one class.
/// let (and2, t) = npn_canonical(VAR_TT[0] & VAR_TT[1]);
/// assert_eq!(npn_canonical(!(VAR_TT[2] & VAR_TT[3])).0, and2);
/// assert_eq!(t.apply(VAR_TT[0] & VAR_TT[1]), and2);
/// ```
pub fn npn_canonical(tt: u16) -> (u16, NpnTransform) {
    let mut best = (tt, NpnTransform::IDENTITY);
    for output_neg in [false, true] {
        let f = if output_neg { !tt } else { tt };
        for perm in PERMUTATIONS {
            let mut images = [permute(f, &perm); 1 << MAX_CUT_SIZE];
            for mask in 1..images.len() {
                let j = mask.trailing_zeros() as usize;
                images[mask] = flip_var(images[mask & (mask - 1)], perm[j] as usize);
            }
            for (mask, &image) in images.iter().enumerate() {
                if image < best.0 {
                    let t = NpnTransform {
                        perm,
                        input_neg: mask as u8,
                        output_neg,
                    };
                    best = (image, t);
                }
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Recipe synthesis (the per-class implementation library)
// ---------------------------------------------------------------------------

/// A recipe reference: `(index << 1) | inverted`. Index 0 is constant
/// false, 1..=4 are the canonical inputs, 5.. are recipe steps.
type Ref = u16;

const REF_FALSE: Ref = 0;

fn ref_var(i: usize) -> Ref {
    ((i + 1) << 1) as Ref
}

/// A synthesized implementation of one NPN class: a straight-line list of
/// AND steps over canonical inputs, replayable into any [`Aig`].
#[derive(Clone, Debug)]
struct Recipe {
    steps: Vec<(Ref, Ref)>,
    out: Ref,
}

/// Cofactor of `tt` with variable `i` fixed to 0 (result independent of `i`).
fn cof0(tt: u16, i: usize) -> u16 {
    let lo = tt & !VAR_TT[i];
    lo | (lo << (1 << i))
}

/// Cofactor of `tt` with variable `i` fixed to 1.
fn cof1(tt: u16, i: usize) -> u16 {
    let hi = tt & VAR_TT[i];
    hi | (hi >> (1 << i))
}

/// Number of variables `tt` actually depends on.
fn support_size(tt: u16) -> usize {
    (0..MAX_CUT_SIZE)
        .filter(|&i| cof0(tt, i) != cof1(tt, i))
        .count()
}

/// The decomposition chosen for a table (shared by cost and emission so
/// both follow the same argmin).
#[derive(Clone, Copy)]
enum Plan {
    /// `f = x_i & sub`
    AndPos(usize, u16),
    /// `f = !x_i & sub`
    AndNeg(usize, u16),
    /// `f = x_i | sub`
    OrPos(usize, u16),
    /// `f = !x_i | sub`
    OrNeg(usize, u16),
    /// `f = x_i ⊕ sub`
    Xor(usize, u16),
    /// `f = x_i ? hi : lo` (Shannon)
    Mux(usize, u16, u16),
}

/// Exhaustive-cost synthesizer over 4-variable truth tables, memoized.
#[derive(Default)]
struct Synth {
    cost_memo: HashMap<u16, u32>,
}

impl Synth {
    /// `Some(ref)` for the tables of single literals.
    fn literal_ref(tt: u16) -> Option<Ref> {
        for (i, &v) in VAR_TT.iter().enumerate() {
            if tt == v {
                return Some(ref_var(i));
            }
            if tt == !v {
                return Some(ref_var(i) ^ 1);
            }
        }
        None
    }

    /// Minimum AND count over the decompositions [`Plan`] explores
    /// (literals and constants are free).
    fn cost(&mut self, tt: u16) -> u32 {
        if Self::literal_ref(tt).is_some() {
            return 0;
        }
        if let Some(&c) = self.cost_memo.get(&tt) {
            return c;
        }
        let best = self.best_plan(tt).map_or(0, |(_, c)| c);
        self.cost_memo.insert(tt, best);
        best
    }

    fn plan_cost(&mut self, plan: Plan) -> u32 {
        match plan {
            Plan::AndPos(_, s) | Plan::AndNeg(_, s) | Plan::OrPos(_, s) | Plan::OrNeg(_, s) => {
                1 + self.cost(s)
            }
            Plan::Xor(_, s) => 3 + self.cost(s),
            Plan::Mux(_, hi, lo) => 3 + self.cost(hi) + self.cost(lo),
        }
    }

    /// The cheapest decomposition of `tt` and its cost, the first plan
    /// winning ties; `None` exactly when `tt` depends on no variable,
    /// i.e. is a constant.
    fn best_plan(&mut self, tt: u16) -> Option<(Plan, u32)> {
        let mut best: Option<(Plan, u32)> = None;
        for plan in Self::plans(tt) {
            let c = self.plan_cost(plan);
            if best.is_none_or(|(_, b)| c < b) {
                best = Some((plan, c));
            }
        }
        best
    }

    /// Candidate decompositions of `tt`, one or more per support variable.
    fn plans(tt: u16) -> Vec<Plan> {
        let mut plans = Vec::new();
        for i in 0..MAX_CUT_SIZE {
            let (c0, c1) = (cof0(tt, i), cof1(tt, i));
            if c0 == c1 {
                continue; // not in the support
            }
            if c0 == 0 {
                plans.push(Plan::AndPos(i, c1));
            } else if c0 == u16::MAX {
                plans.push(Plan::OrNeg(i, c1));
            }
            if c1 == 0 {
                plans.push(Plan::AndNeg(i, c0));
            } else if c1 == u16::MAX {
                plans.push(Plan::OrPos(i, c0));
            }
            if c0 == !c1 {
                plans.push(Plan::Xor(i, c0));
            }
            plans.push(Plan::Mux(i, c1, c0));
        }
        plans
    }

    /// Synthesizes a recipe for `tt` following the cost argmin, sharing
    /// sub-functions (and their complements) within the recipe.
    fn recipe(&mut self, tt: u16) -> Recipe {
        let mut steps = Vec::new();
        let mut built = HashMap::new();
        let out = self.emit(tt, &mut steps, &mut built);
        Recipe { steps, out }
    }

    fn emit(&mut self, tt: u16, steps: &mut Vec<(Ref, Ref)>, built: &mut HashMap<u16, Ref>) -> Ref {
        if let Some(r) = Self::literal_ref(tt) {
            return r;
        }
        if let Some(&r) = built.get(&tt) {
            return r;
        }
        if let Some(&r) = built.get(&!tt) {
            return r ^ 1;
        }
        let Some((plan, _)) = self.best_plan(tt) else {
            // No support: the constant `tt` names.
            return REF_FALSE ^ Ref::from(tt != 0);
        };
        let push = |steps: &mut Vec<(Ref, Ref)>, a: Ref, b: Ref| -> Ref {
            steps.push((a, b));
            ((steps.len() + MAX_CUT_SIZE) << 1) as Ref
        };
        let r = match plan {
            Plan::AndPos(i, s) => {
                let rs = self.emit(s, steps, built);
                push(steps, ref_var(i), rs)
            }
            Plan::AndNeg(i, s) => {
                let rs = self.emit(s, steps, built);
                push(steps, ref_var(i) ^ 1, rs)
            }
            Plan::OrPos(i, s) => {
                // x | s = !(!x & !s)
                let rs = self.emit(s, steps, built);
                push(steps, ref_var(i) ^ 1, rs ^ 1) ^ 1
            }
            Plan::OrNeg(i, s) => {
                // !x | s = !(x & !s)
                let rs = self.emit(s, steps, built);
                push(steps, ref_var(i), rs ^ 1) ^ 1
            }
            Plan::Xor(i, s) => {
                // x ⊕ s = !(!(x & !s) & !(!x & s))
                let rs = self.emit(s, steps, built);
                let x = ref_var(i);
                let s1 = push(steps, x, rs ^ 1);
                let s2 = push(steps, x ^ 1, rs);
                push(steps, s1 ^ 1, s2 ^ 1) ^ 1
            }
            Plan::Mux(i, hi, lo) => {
                // (x & hi) | (!x & lo)
                let rhi = self.emit(hi, steps, built);
                let rlo = self.emit(lo, steps, built);
                let x = ref_var(i);
                let s1 = push(steps, x, rhi);
                let s2 = push(steps, x ^ 1, rlo);
                push(steps, s1 ^ 1, s2 ^ 1) ^ 1
            }
        };
        built.insert(tt, r);
        r
    }
}

/// Replays a recipe into a graph over concrete canonical-input edges,
/// using `vals` (cleared first) for the edge of every recipe reference.
fn instantiate(g: &mut Aig, recipe: &Recipe, ys: [Bit; MAX_CUT_SIZE], vals: &mut Vec<Bit>) -> Bit {
    vals.clear();
    vals.push(Aig::FALSE);
    vals.extend_from_slice(&ys);
    let resolve = |vals: &[Bit], r: Ref| -> Bit {
        let b = vals[(r >> 1) as usize];
        if r & 1 == 1 {
            !b
        } else {
            b
        }
    };
    for &(a, b) in &recipe.steps {
        let x = resolve(vals, a);
        let y = resolve(vals, b);
        let r = g.and(x, y);
        vals.push(r);
    }
    resolve(vals, recipe.out)
}

/// The per-pass recipe library: canonicalization cache plus synthesized
/// implementations keyed by NPN-canonical table.
struct NpnLibrary {
    canon_cache: HashMap<u16, (u16, NpnTransform)>,
    recipes: HashMap<u16, Recipe>,
    synth: Synth,
    /// Canonical classes of XOR2/XOR3 and the 2:1 mux, for the stats.
    xor_classes: [u16; 2],
    mux_class: u16,
    /// Scratch of [`instantiate`], reused by every build.
    vals: Vec<Bit>,
}

impl NpnLibrary {
    fn new() -> NpnLibrary {
        let xor2 = VAR_TT[0] ^ VAR_TT[1];
        let xor3 = xor2 ^ VAR_TT[2];
        let mux = (VAR_TT[2] & VAR_TT[1]) | (!VAR_TT[2] & VAR_TT[0]);
        NpnLibrary {
            canon_cache: HashMap::new(),
            recipes: HashMap::new(),
            synth: Synth::default(),
            xor_classes: [npn_canonical(xor2).0, npn_canonical(xor3).0],
            mux_class: npn_canonical(mux).0,
            vals: Vec::new(),
        }
    }

    fn canonical(&mut self, tt: u16) -> (u16, NpnTransform) {
        *self
            .canon_cache
            .entry(tt)
            .or_insert_with(|| npn_canonical(tt))
    }

    /// The recipe of a canonical class, synthesized on first use, plus
    /// the scratch [`instantiate`] replays it with.
    fn recipe(&mut self, canon: u16) -> (&Recipe, &mut Vec<Bit>) {
        let synth = &mut self.synth;
        let recipe = self
            .recipes
            .entry(canon)
            .or_insert_with(|| synth.recipe(canon));
        (recipe, &mut self.vals)
    }

    /// Builds the canonical class's implementation over mapped cut leaves,
    /// undoing the NPN transform.
    fn build(
        &mut self,
        g: &mut Aig,
        canon: u16,
        t: &NpnTransform,
        leaves: &[Bit; MAX_CUT_SIZE],
    ) -> Bit {
        // g(y) = out_neg ⊕ f(x), x_j = y_{perm[j]} ⊕ neg_j, hence
        // f(leaves) = out_neg ⊕ g(y) with y_{perm[j]} = leaves[j] ⊕ neg_j.
        let mut ys = [Aig::FALSE; MAX_CUT_SIZE];
        for (j, &e) in leaves.iter().enumerate() {
            let e = if (t.input_neg >> j) & 1 == 1 { !e } else { e };
            ys[t.perm[j] as usize] = e;
        }
        let (recipe, vals) = self.recipe(canon);
        let r = instantiate(g, recipe, ys, vals);
        if t.output_neg {
            !r
        } else {
            r
        }
    }
}

// ---------------------------------------------------------------------------
// The rewriting pass
// ---------------------------------------------------------------------------

fn apply(map: &[Bit], bit: Bit) -> Bit {
    let base = map[bit.node().index()];
    if bit.is_inverted() {
        !base
    } else {
        base
    }
}

/// What the candidate edge still reaches, from a walk over graph `g`
/// starting at `cand`: the number of freed nodes (`walk.freed`) it keeps
/// alive, and the pre-existing non-freed nodes it depends on.
///
/// A structural-hash hit on a node the replacement was credited with
/// freeing (the root's default AND, its MFFC interior) means that node
/// stays referenced and will *not* die — its saving must be discounted
/// or the measured gain overstates. Hits on *other* pre-existing nodes
/// are the candidate's external dependencies: its measured cost assumed
/// they exist for free, so global selection must treat them as **reads**
/// that conflict with another candidate claiming to free them.
///
/// The walk descends only into the candidate's own new nodes (index `>=
/// new_from`) and into reached freed nodes (a kept-alive MFFC member
/// keeps its children alive, which may be freed members themselves).
/// Pre-existing nodes outside the freed set cannot lead to one: an MFFC
/// interior node's every fanout lies inside the cone by construction, so
/// no outside cone reaches it. Each reachable node counts once.
///
/// Returns the kept-alive count and leaves the reads in `walk.reads`.
fn cone_references(g: &Aig, cand: Bit, new_from: usize, walk: &mut Walk) -> i64 {
    let mut alive = 0i64;
    let Walk {
        freed,
        reads,
        seen,
        stack,
    } = walk;
    reads.clear();
    seen.clear();
    stack.clear();
    stack.push(cand.node());
    while let Some(m) = stack.pop() {
        if seen.contains(&m) {
            continue;
        }
        seen.push(m);
        let is_freed = freed.contains(&m);
        if is_freed {
            alive += 1;
        }
        if !is_freed && m.index() < new_from {
            reads.push(m);
            continue;
        }
        if let Node::And(a, b) = g.node(m) {
            stack.push(a.node());
            stack.push(b.node());
        }
    }
    alive
}

/// The maximal fanout-free cone of `n` w.r.t. `leaves`, excluding `n`
/// itself: the AND nodes strictly between the leaves and `n` whose every
/// fanout (parents and roots, per `refs`) stays inside the cone — the
/// nodes that die if `n` stops referencing them. Restores `refs`.
///
/// Leaves the cone in `walk.freed`, in discovery order.
fn mffc_interior(aig: &Aig, refs: &mut [u32], n: NodeId, leaves: &[NodeId], walk: &mut Walk) {
    let Walk {
        freed: interior,
        seen: undone,
        stack,
        ..
    } = walk;
    interior.clear();
    undone.clear();
    stack.clear();
    stack.push(n);
    while let Some(m) = stack.pop() {
        if let Node::And(a, b) = aig.node(m) {
            for c in [a.node(), b.node()] {
                if leaves.contains(&c) || !matches!(aig.node(c), Node::And(..)) {
                    continue;
                }
                refs[c.index()] -= 1;
                undone.push(c);
                if refs[c.index()] == 0 {
                    interior.push(c);
                    stack.push(c);
                }
            }
        }
    }
    for c in undone.iter() {
        refs[c.index()] += 1;
    }
}

/// Buffers the candidate loop reuses for every cut: the freed set and the
/// reads of the candidate under measurement, and the work lists of the
/// walks that compute them.
#[derive(Default)]
struct Walk {
    freed: Vec<NodeId>,
    reads: Vec<NodeId>,
    seen: Vec<NodeId>,
    stack: Vec<NodeId>,
}

/// Fanout reference counts on `src`, with `roots` counted as fanouts.
fn fanout_refs(src: &Aig, roots: &[Bit]) -> Vec<u32> {
    let mut refs = vec![0u32; src.num_nodes()];
    for (_, node) in src.iter() {
        if let Node::And(a, b) = node {
            refs[a.node().index()] += 1;
            refs[b.node().index()] += 1;
        }
    }
    for r in roots {
        refs[r.node().index()] += 1;
    }
    refs
}

/// The edges a replacement over `cut` is built on: `edge` of each leaf's
/// plain edge, with unused positions constant false.
fn leaf_edges(cut: &Cut, edge: impl Fn(Bit) -> Bit) -> [Bit; MAX_CUT_SIZE] {
    let mut edges = [Aig::FALSE; MAX_CUT_SIZE];
    for (e, &l) in edges.iter_mut().zip(cut.leaves()) {
        *e = edge(Bit::new(l, false));
    }
    edges
}

/// A positive-gain replacement candidate awaiting global selection.
struct Candidate {
    root: NodeId,
    /// The cut the replacement is built over (leaves inline).
    cut: Cut,
    canon: u16,
    t: NpnTransform,
    /// Nodes freed if the candidate is committed: root + MFFC interior.
    saved: Vec<NodeId>,
    /// Pre-existing non-freed nodes the measured implementation depends
    /// on (strash hits, used leaves) — selection reads.
    reads: Vec<NodeId>,
    gain: i64,
}

/// One global-selection round: measure all candidates against a scratch
/// copy of the source graph (order-independent gains), choose a
/// maximum-weight set with disjoint freed-node claims, then commit the
/// chosen rewrites in a single topological rebuild and dead-strip.
fn rewrite_pass_global(
    src: &Aig,
    roots: &[Bit],
    lib: &mut NpnLibrary,
    stats: &mut RewriteStats,
) -> (Aig, Vec<Bit>, u64) {
    let cuts = enumerate_cuts(src);
    stats.cuts_enumerated += cuts.iter().map(|c| c.len() as u64).sum::<u64>();
    let mut refs = fanout_refs(src, roots);

    // Phase 1 — collect: measure every cut candidate on a scratch clone of
    // the source graph, so each gain is what the rewrite would save if it
    // were the only one applied (truncation keeps measurements
    // independent). Every positive-gain candidate is offered to the
    // solver — same-root alternatives conflict through the shared root
    // claim, letting selection fall back to a narrower cut when a wide
    // cut's larger MFFC collides with a neighbor's. Measurement reuses
    // one set of walk buffers and replays the class recipe in place, so
    // only a collected candidate allocates (its freed set and reads).
    let mut trial = src.clone();
    let mut cands: Vec<Candidate> = Vec::new();
    let mut walk = Walk::default();
    for (id, node) in src.iter() {
        if !matches!(node, Node::And(..)) {
            continue;
        }
        for cut in &cuts[id.index()] {
            if cut.is_trivial(id) || cut.leaves().is_empty() {
                continue;
            }
            stats.candidates_tried += 1;
            mffc_interior(src, &mut refs, id, cut.leaves(), &mut walk);
            walk.freed.push(id);
            let saved = walk.freed.len() as i64;
            if support_size(cut.tt).saturating_sub(1) as i64 >= saved + 2 {
                stats.zero_gain_skipped += 1;
                continue;
            }
            let (canon, t) = lib.canonical(cut.tt);
            let nominal = lib.recipe(canon).0.steps.len();
            if nominal as i64 >= saved + 2 {
                stats.zero_gain_skipped += 1;
                continue;
            }
            let before = trial.num_nodes();
            let cand_bit = lib.build(&mut trial, canon, &t, &leaf_edges(cut, |l| l));
            let added = (trial.num_nodes() - before) as i64;
            // Freed nodes the candidate still references won't die (their
            // savings are discounted); other pre-existing nodes it
            // references become selection reads.
            let alive = cone_references(&trial, cand_bit, before, &mut walk);
            trial.truncate(before);
            let gain = saved - alive - added;
            if gain <= 0 || cand_bit.node() == id {
                stats.zero_gain_skipped += 1;
                continue;
            }
            cands.push(Candidate {
                root: id,
                cut: *cut,
                canon,
                t,
                saved: walk.freed.clone(),
                reads: walk.reads.clone(),
                gain,
            });
        }
    }
    stats.candidates_collected += cands.len() as u64;

    // Phase 2 — select: maximum-weight candidates whose freed-node claims
    // overlap neither each other nor another selected candidate's
    // dependencies, so accepted gains add up without double counting.
    //
    // Slot encoding, two slots per source node: an *interior* claim on
    // node n takes {2n, 2n+1}, a *root* claim takes {2n} only, and a
    // read of n takes {2n+1}. Claims always conflict with claims (two
    // candidates never free the same node twice, and same-root
    // alternatives exclude each other), and a read conflicts with an
    // interior claim (the dependency would keep the "freed" node alive)
    // but not with a root claim — a rewritten root survives as its
    // mapped image, which the reader's commit-time instantiation picks
    // up for free.
    let items: Vec<Selectable> = cands
        .iter()
        .map(|c| {
            let mut claims: Vec<usize> = Vec::with_capacity(2 * c.saved.len());
            for &n in &c.saved {
                claims.push(2 * n.index());
                if n != c.root {
                    claims.push(2 * n.index() + 1);
                }
            }
            // Weight = gain, scaled up so a bounded strash-reuse bonus
            // (one point per pre-existing node the recipe reads, capped
            // at 3) breaks ties toward candidates whose implementation
            // shares existing logic without ever outranking a full gate
            // of real gain.
            Selectable {
                claims,
                reads: c.reads.iter().map(|n| 2 * n.index() + 1).collect(),
                weight: c.gain * 4 + (c.reads.len() as i64).min(3),
            }
        })
        .collect();
    let (picked, sel) = select_nonoverlapping(&items, 2 * src.num_nodes());
    stats.select_dropped += sel.dropped_overlap as u64;
    stats.exchange_swaps += sel.exchange_swaps as u64;
    let mut chosen: Vec<Option<&Candidate>> = vec![None; src.num_nodes()];
    for c in cands
        .iter()
        .zip(&picked)
        .filter(|(_, &p)| p)
        .map(|(c, _)| c)
    {
        chosen[c.root.index()] = Some(c);
        stats.reuse_preferred += u64::from(!c.reads.is_empty());
    }

    // Phase 3 — commit: one topological rebuild applying exactly the
    // selected rewrites (instantiated over already-rebuilt leaves, where
    // structural hashing still makes shared logic free).
    let mut g2 = Aig::new();
    let mut map: Vec<Bit> = Vec::with_capacity(src.num_nodes());
    let mut accepted = 0u64;
    for (id, node) in src.iter() {
        let mapped = match node {
            Node::Const => Aig::FALSE,
            Node::Input(_) => g2.new_input(),
            Node::And(a, b) => {
                if let Some(c) = chosen[id.index()] {
                    accepted += 1;
                    stats.rewrites += 1;
                    if lib.xor_classes.contains(&c.canon) {
                        stats.xor_rewrites += 1;
                    } else if c.canon == lib.mux_class {
                        stats.mux_rewrites += 1;
                    }
                    let leaves = leaf_edges(&c.cut, |l| apply(&map, l));
                    lib.build(&mut g2, c.canon, &c.t, &leaves)
                } else {
                    let fa = apply(&map, a);
                    let fb = apply(&map, b);
                    g2.and(fa, fb)
                }
            }
        };
        map.push(mapped);
    }

    compact_from_roots(g2, map, roots, accepted)
}

/// Dead-strips `g2` from the mapped roots into a compacted graph,
/// preserving input order (the same phase-B sweep the fraig pass
/// performs), and rebases the source-node map onto it.
fn compact_from_roots(
    g2: Aig,
    map: Vec<Bit>,
    roots: &[Bit],
    accepted: u64,
) -> (Aig, Vec<Bit>, u64) {
    let root_nodes: Vec<NodeId> = roots.iter().map(|&r| apply(&map, r).node()).collect();
    let (g3, map2) = g2.compacted(&root_nodes);
    let final_map: Vec<Bit> = map.iter().map(|&b| apply(&map2, b)).collect();
    (g3, final_map, accepted)
}

/// Runs cut-based rewriting over a raw graph to a fixpoint.
///
/// `roots` are the edges whose functions must be preserved (for a design:
/// next-state functions, properties, constraints, and memory port buses);
/// everything outside their cones is dead-stripped. Inputs are always
/// preserved, in order, so dense input indices survive the rewrite. The
/// result never has more AND gates than the input graph.
///
/// # Examples
///
/// A disguised wire: `(a ∧ b) ∨ (a ∧ ¬b)` is just `a`, but no structural
/// hashing can see it. The 2-leaf cut's truth table can:
///
/// ```
/// use emm_aig::rewrite::rewrite_aig;
/// use emm_aig::Aig;
///
/// let mut g = Aig::new();
/// let a = g.new_input();
/// let b = g.new_input();
/// let t = g.and(a, b);
/// let e = g.and(a, !b);
/// let f = g.or(t, e); // ≡ a, built as three ANDs
/// let r = rewrite_aig(&g, &[f]);
/// assert_eq!(r.map_bit(f), r.map_bit(a));
/// assert_eq!(r.aig.num_ands(), 0);
/// assert_eq!(r.stats.rewrites, 1);
/// ```
pub fn rewrite_aig(aig: &Aig, roots: &[Bit]) -> RewriteResult {
    rewrite_aig_governed(aig, roots, &ResourceGovernor::unlimited())
}

/// [`rewrite_aig`] under a shared [`ResourceGovernor`].
///
/// The governor is polled at fixpoint-iteration granularity and each
/// iteration entry reports a [`FaultSite::RewriteIteration`] event to its
/// fault injector. On a trip the loop stops with the last *committed*
/// iteration's graph — a sound best-so-far reduction — and
/// [`RewriteStats::interrupted`] set.
pub fn rewrite_aig_governed(
    aig: &Aig,
    roots: &[Bit],
    governor: &ResourceGovernor,
) -> RewriteResult {
    let mut stats = RewriteStats {
        ands_before: aig.num_ands(),
        ..RewriteStats::default()
    };
    let mut lib = NpnLibrary::new();
    let mut result_aig = aig.clone();
    let mut result_map: Vec<Bit> = aig.iter().map(|(id, _)| Bit::new(id, false)).collect();
    for iter in 0..MAX_ITERS {
        if governor.poll().is_some() {
            stats.interrupted = true;
            break;
        }
        governor.note(FaultSite::RewriteIteration);
        let roots_cur: Vec<Bit> = roots.iter().map(|&r| apply(&result_map, r)).collect();
        let (g2, pmap, accepted) =
            rewrite_pass_global(&result_aig, &roots_cur, &mut lib, &mut stats);
        if g2.num_ands() >= result_aig.num_ands() {
            // A non-improving iteration is discarded: the pass never grows
            // the graph, and equal size means the fixpoint is reached.
            break;
        }
        result_map = result_map.iter().map(|&b| apply(&pmap, b)).collect();
        result_aig = g2;
        stats.iterations = iter + 1;
        if accepted == 0 {
            // The shrink came from dead-stripping alone; nothing further
            // to iterate on.
            break;
        }
    }
    stats.ands_after = result_aig.num_ands();
    stats.npn_classes = lib.recipes.len();
    RewriteResult {
        aig: result_aig,
        stats,
        map: result_map,
    }
}

/// Applies cut-based rewriting to a whole design in place, rewriting its
/// combinational core and every stored edge. Returns the pass counters.
///
/// The design's interface is untouched: latch order and initial values,
/// memory modules and port order, property and constraint lists, input
/// kinds, and dense input indices are all preserved — only the gate
/// structure between them changes. A design that fails [`Design::check`]
/// is returned unchanged (zeroed stats).
///
/// # Examples
///
/// ```
/// use emm_aig::rewrite::rewrite_design;
/// use emm_aig::{Design, LatchInit};
///
/// let mut d = Design::new();
/// let (_, x) = d.new_latch("x", LatchInit::Zero);
/// let a = d.new_input("a");
/// let t = d.aig.and(x, a);
/// let e = d.aig.and(x, !a);
/// let redundant = d.aig.or(t, e); // ≡ x
/// d.set_next(x, redundant);
/// let bad = d.aig.and(x, a);
/// d.add_property("p", bad);
/// d.check().expect("well-formed");
///
/// let stats = rewrite_design(&mut d);
/// assert!(stats.ands_after < stats.ands_before);
/// d.check().expect("still well-formed");
/// ```
pub fn rewrite_design(design: &mut Design) -> RewriteStats {
    rewrite_design_governed(design, &ResourceGovernor::unlimited())
}

/// [`rewrite_design`] under a shared [`ResourceGovernor`] — see
/// [`rewrite_aig_governed`] for the degradation contract.
pub fn rewrite_design_governed(design: &mut Design, governor: &ResourceGovernor) -> RewriteStats {
    if design.check().is_err() {
        return RewriteStats::default();
    }
    let roots = design.reduction_roots();
    let RewriteResult { aig, stats, map } = rewrite_aig_governed(&design.aig, &roots, governor);
    design.replace_aig(aig, &mut |b| apply(&map, b));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::LatchInit;
    use crate::sim::{eval_combinational, Simulator};

    /// Evaluates a tt at an assignment given as 4 bits.
    fn tt_at(tt: u16, p: usize) -> bool {
        (tt >> p) & 1 == 1
    }

    /// A random permutation of `0..4` drawn from an xorshift state.
    fn random_perm(next: &mut impl FnMut() -> u64) -> [u8; MAX_CUT_SIZE] {
        let mut perm = [0u8, 1, 2, 3];
        for i in (1..MAX_CUT_SIZE).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }

    /// Every transform, in the order [`npn_canonical`] searches them.
    fn all_transforms() -> Vec<NpnTransform> {
        let mut out = Vec::with_capacity(768);
        for output_neg in [false, true] {
            for perm in PERMUTATIONS {
                for input_neg in 0..16u8 {
                    out.push(NpnTransform {
                        perm,
                        input_neg,
                        output_neg,
                    });
                }
            }
        }
        out
    }

    /// A fixed sample of tables: the special classes plus pseudo-random
    /// ones.
    fn sample_tables() -> Vec<u16> {
        let xor2 = VAR_TT[0] ^ VAR_TT[1];
        let mux = (VAR_TT[2] & VAR_TT[1]) | (!VAR_TT[2] & VAR_TT[0]);
        let mut tables = vec![
            0,
            u16::MAX,
            xor2,
            xor2 ^ VAR_TT[2] ^ VAR_TT[3],
            mux,
            0x8000,
            1,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            tables.push((state >> 48) as u16);
        }
        tables
    }

    /// A cancelled governor stops the fixpoint before the first
    /// iteration: the graph comes back untouched, honestly flagged.
    #[test]
    fn cancelled_governor_skips_rewriting() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let t = g.and(a, b);
        let e = g.and(a, !b);
        let f = g.or(t, e); // ≡ a: rewritable, but the governor says no
        let governor = ResourceGovernor::unlimited();
        governor.cancel();
        let r = rewrite_aig_governed(&g, &[f], &governor);
        assert!(r.stats.interrupted);
        assert_eq!(r.stats.iterations, 0);
        assert_eq!(r.stats.rewrites, 0);
        assert_eq!(r.aig.num_ands(), g.num_ands());
        assert_ne!(r.map_bit(f), r.map_bit(a), "no rewrite committed");
    }

    /// The fault injector trips after the Nth fixpoint iteration: the
    /// last committed iteration's (sound, improved) graph is kept.
    #[test]
    fn fault_injection_stops_after_nth_iteration() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let t = g.and(a, b);
        let e = g.and(a, !b);
        let f = g.or(t, e); // ≡ a
        let governor = ResourceGovernor::unlimited().with_fault(FaultSite::RewriteIteration, 1);
        let r = rewrite_aig_governed(&g, &[f], &governor);
        assert!(r.stats.interrupted, "a second iteration was refused");
        assert_eq!(r.stats.iterations, 1, "the first iteration committed");
        assert_eq!(r.map_bit(f), r.map_bit(a), "its rewrite survives");
        assert_eq!(r.aig.num_ands(), 0);
    }

    #[test]
    fn cofactors_agree_with_semantics() {
        let tt = 0x9ABCu16;
        for i in 0..MAX_CUT_SIZE {
            for p in 0..16usize {
                let p0 = p & !(1 << i);
                let p1 = p | (1 << i);
                assert_eq!(tt_at(cof0(tt, i), p), tt_at(tt, p0));
                assert_eq!(tt_at(cof1(tt, i), p), tt_at(tt, p1));
            }
        }
    }

    #[test]
    fn support_size_counts_dependent_variables() {
        assert_eq!(support_size(0), 0);
        assert_eq!(support_size(u16::MAX), 0);
        assert_eq!(support_size(VAR_TT[3]), 1);
        assert_eq!(support_size(VAR_TT[0] & VAR_TT[3]), 2);
        let all = VAR_TT.iter().fold(u16::MAX, |a, &v| a & v);
        assert_eq!(support_size(all), 4);
    }

    #[test]
    fn npn_transform_identity() {
        assert_eq!(NpnTransform::IDENTITY.apply(0xBEEF), 0xBEEF);
    }

    #[test]
    fn fast_apply_matches_positional_reference() {
        // The word-parallel apply against the direct per-position
        // definition of the transform semantics.
        fn reference(t: &NpnTransform, tt: u16) -> u16 {
            let mut out = 0u16;
            for p in 0..16u32 {
                let mut q = 0u32;
                for j in 0..MAX_CUT_SIZE {
                    let bit = ((p >> t.perm[j]) & 1) ^ ((t.input_neg as u32 >> j) & 1);
                    q |= bit << j;
                }
                out |= (((tt >> q) & 1) ^ t.output_neg as u16) << p;
            }
            out
        }
        let mut state = 0xC0FF_EE11_D00D_F00Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let tt = next() as u16;
            let t = NpnTransform {
                perm: random_perm(&mut next),
                input_neg: (next() % 16) as u8,
                output_neg: next() % 2 == 1,
            };
            assert_eq!(t.apply(tt), reference(&t, tt), "{t:?} on {tt:#06x}");
        }
    }

    /// All 65,536 tables fall into exactly the 222 NPN classes of four
    /// variables, and each returned transform reaches its form.
    #[test]
    fn canonical_forms_are_the_222_npn_classes() {
        let mut forms = std::collections::HashSet::new();
        for tt in 0..=u16::MAX {
            let (canon, t) = npn_canonical(tt);
            assert_eq!(
                t.apply(tt),
                canon,
                "transform reaches the form of {tt:#06x}"
            );
            assert!(canon <= tt, "the form is the minimum image");
            forms.insert(canon);
        }
        assert_eq!(forms.len(), 222);
    }

    /// Every one of the 768 transforms of a table has the table's form.
    #[test]
    fn canonical_form_is_invariant_under_every_transform() {
        let transforms = all_transforms();
        for tt in sample_tables() {
            let canon = npn_canonical(tt).0;
            for t in &transforms {
                assert_eq!(npn_canonical(t.apply(tt)).0, canon, "{t:?} on {tt:#06x}");
            }
        }
    }

    /// The search returns the first transform, in the documented order,
    /// that reaches the minimum: the same answer as a plain scan of all
    /// 768 transforms with a strict comparison.
    #[test]
    fn canonical_search_follows_the_documented_order() {
        let transforms = all_transforms();
        for tt in sample_tables() {
            let mut best = (tt, transforms[0]);
            for t in &transforms {
                let image = t.apply(tt);
                if image < best.0 {
                    best = (image, *t);
                }
            }
            assert_eq!(npn_canonical(tt), best, "{tt:#06x}");
        }
        assert_eq!(npn_canonical(0), (0, NpnTransform::IDENTITY));
        let ones = NpnTransform {
            output_neg: true,
            ..NpnTransform::IDENTITY
        };
        assert_eq!(npn_canonical(u16::MAX), (0, ones));
    }

    #[test]
    fn recipes_implement_their_tables() {
        // Synthesize a spread of tables (constants included), instantiate
        // over fresh inputs, and check against direct evaluation.
        let mut synth = Synth::default();
        let and4 = VAR_TT.iter().fold(u16::MAX, |a, &v| a & v);
        let mut tables = sample_tables();
        tables.extend([and4, !and4, VAR_TT[2], !VAR_TT[1]]);
        for tt in tables {
            let recipe = synth.recipe(tt);
            // Sub-function sharing inside a recipe can beat the no-sharing
            // cost bound, never exceed it.
            assert!(recipe.steps.len() as u32 <= synth.cost(tt));
            let mut g = Aig::new();
            let mut ys = [Aig::FALSE; MAX_CUT_SIZE];
            for y in ys.iter_mut() {
                *y = g.new_input();
            }
            let out = instantiate(&mut g, &recipe, ys, &mut Vec::new());
            for p in 0..16usize {
                let inputs: Vec<bool> = (0..MAX_CUT_SIZE).map(|i| (p >> i) & 1 == 1).collect();
                let values = eval_combinational(&g, &inputs);
                assert_eq!(
                    out.apply(values[out.node().index()]),
                    tt_at(tt, p),
                    "tt {tt:#06x} at {p}"
                );
            }
        }
    }

    #[test]
    fn npn_build_undoes_the_transform() {
        let mut lib = NpnLibrary::new();
        for tt in sample_tables() {
            let (canon, t) = npn_canonical(tt);
            let mut g = Aig::new();
            let mut leaves = [Aig::FALSE; MAX_CUT_SIZE];
            for l in leaves.iter_mut() {
                *l = g.new_input();
            }
            let out = lib.build(&mut g, canon, &t, &leaves);
            for p in 0..16usize {
                let inputs: Vec<bool> = (0..MAX_CUT_SIZE).map(|i| (p >> i) & 1 == 1).collect();
                let values = eval_combinational(&g, &inputs);
                assert_eq!(
                    out.apply(values[out.node().index()]),
                    tt_at(tt, p),
                    "tt {tt:#06x} at {p}"
                );
            }
        }
    }

    #[test]
    fn synthesis_costs_match_known_classes() {
        let mut synth = Synth::default();
        let xor2 = VAR_TT[0] ^ VAR_TT[1];
        let mux = (VAR_TT[2] & VAR_TT[1]) | (!VAR_TT[2] & VAR_TT[0]);
        assert_eq!(synth.cost(xor2), 3, "2-input XOR");
        assert_eq!(synth.cost(mux), 3, "2:1 mux");
        assert_eq!(synth.cost(xor2 ^ VAR_TT[2]), 6, "3-input XOR");
        assert_eq!(synth.cost(VAR_TT[0] & VAR_TT[1]), 1, "2-input AND");
        let and4 = VAR_TT.iter().fold(u16::MAX, |a, &v| a & v);
        assert_eq!(synth.cost(and4), 3, "4-input AND");
        assert_eq!(synth.cost(0), 0, "constant");
    }

    #[test]
    fn rewrites_disguised_constant() {
        // (a ∧ b) ∧ (a ∧ ¬b) ≡ false over the cut {a, b}.
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let x = g.and(a, b);
        let y = g.and(a, !b);
        let z = g.and(x, y);
        let r = rewrite_aig(&g, &[z]);
        assert_eq!(r.map_bit(z), Aig::FALSE);
        assert_eq!(r.aig.num_ands(), 0);
    }

    #[test]
    fn preserves_semantics_on_a_design() {
        let mut d = Design::new();
        let s = d.new_latch_word("s", 4, LatchInit::Zero);
        let i = d.new_input_word("i", 4);
        let sum = d.aig.add(&s, &i);
        d.set_next_word(&s, &sum);
        let bad = d.aig.eq_const(&s, 11);
        d.add_property("p", bad);
        d.check().expect("valid");

        let mut rewritten = d.clone();
        let stats = rewrite_design(&mut rewritten);
        assert!(stats.ands_after <= stats.ands_before);
        rewritten.check().expect("still well-formed");

        let mut sim_a = Simulator::new(&d);
        let mut sim_b = Simulator::new(&rewritten);
        let mut state = 0x5DEECE66Du64;
        for cycle in 0..50 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let inputs: Vec<bool> = (0..4).map(|k| (state >> (16 + k)) & 1 == 1).collect();
            let ra = sim_a.step(&inputs);
            let rb = sim_b.step(&inputs);
            assert_eq!(ra.property_bad, rb.property_bad, "cycle {cycle}");
        }
    }

    #[test]
    fn malformed_design_is_left_alone() {
        let mut d = Design::new();
        d.new_latch("dangling", LatchInit::Zero);
        let stats = rewrite_design(&mut d);
        assert_eq!(stats, RewriteStats::default());
    }

    #[test]
    fn result_never_grows() {
        // A graph the pass cannot improve must come back unchanged in size.
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let c = g.new_input();
        let x = g.and(a, b);
        let y = g.and(x, c);
        let r = rewrite_aig(&g, &[y]);
        assert_eq!(r.aig.num_ands(), 2);
        assert_eq!(r.stats.iterations, 0);
    }
}
