//! Cut-based AIG rewriting (ABC-style) — restructuring *inequivalent*
//! logic into cheaper shapes before unrolling.
//!
//! The [`fraig`](crate::fraig) pass can only merge cones that compute the
//! *same* function; everything it leaves behind is structure the original
//! word-level construction happened to choose. This pass attacks that
//! structure directly: for every AND node it enumerates the k-feasible
//! cuts (k ≤ 6, [`crate::cuts`]), takes each cut's truth table, and asks
//! whether the function has a cheaper implementation than the cone it
//! currently owns. Where the answer is yes — an XOR hiding in four ANDs, a
//! mux built the long way, a cone whose function collapses onto fewer
//! leaves, a sub-function another part of the graph already computes — the
//! node is re-expressed over the cut leaves and the old cone dies.
//!
//! The mechanics per node:
//!
//! 1. **Cut truth tables** come from the enumeration itself (maintained
//!    through the merges as 6-variable `u64` tables), so no window
//!    simulation is needed.
//! 2. Each table is canonicalized by [`npn_semicanonical`] — a
//!    signature-guided search over input permutations, input
//!    complementations, and output complementation that enumerates only
//!    the transforms compatible with the table's cofactor signatures
//!    (exhausting all 720 × 64 × 2 six-variable transforms per lookup
//!    would be two orders of magnitude more work). The canonical class is
//!    looked up in a **recipe library**: a per-pass memo of synthesized
//!    implementations (AND/OR extraction, XOR and mux/Shannon
//!    decomposition over the widened tables, computed once per class by
//!    exhaustive-cost search and replayed for every later cone in the
//!    class).
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
//! The pass repeats ([`RewriteConfig::max_iters`]) until an iteration
//! stops strictly reducing the AND count; a non-improving iteration is
//! discarded, so the result is never larger than the input. Inputs are
//! preserved index-for-index and everything outside the root cones is
//! dead-stripped, exactly like the fraig rewrite, so
//! [`rewrite_design`] can splice the result into a [`Design`] through the
//! same interface-preserving substitution.
//!
//! Soundness is purely local: a candidate implements the cut's truth
//! table over the mapped leaf edges, and by induction every mapped edge
//! computes the same function of the inputs as its source node, so the
//! replacement is functionally identical — no solver involved. The
//! property tests in `tests/rewrite_props.rs` check exactly this against
//! word-parallel simulation, and `emm-bmc`'s `rewrite_differential.rs` /
//! `rewrite6_differential.rs` check verdict preservation through full BMC.

use std::collections::HashMap;

use emm_sat::{FaultSite, ResourceGovernor};

use crate::aig::{Aig, Bit, Node, NodeId};
use crate::cuts::{enumerate_cuts, CutConfig, MAX_CUT_SIZE, VAR_TT};
use crate::design::Design;
use crate::select::{select_nonoverlapping, Selectable};

/// Knobs of the rewriting pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RewriteConfig {
    /// Master switch (checked by [`rewrite_design`] callers such as the
    /// BMC engine; the pass itself always runs when invoked directly).
    pub enabled: bool,
    /// Cut width `k` (clamped to `2..=6`; a `u64` table covers 6 leaves).
    /// The default stays at 4 — the fast configuration; use
    /// [`RewriteConfig::wide`] for the full width.
    pub cut_size: usize,
    /// Non-trivial cuts kept per node during enumeration.
    pub max_cuts: usize,
    /// Fixpoint cap: rewriting repeats until an iteration stops strictly
    /// reducing the AND count, or this many iterations have run.
    pub max_iters: usize,
}

impl Default for RewriteConfig {
    fn default() -> RewriteConfig {
        RewriteConfig {
            enabled: true,
            cut_size: 4,
            max_cuts: 8,
            max_iters: 4,
        }
    }
}

impl RewriteConfig {
    /// A configuration that turns the pass off entirely.
    pub fn disabled() -> RewriteConfig {
        RewriteConfig {
            enabled: false,
            ..RewriteConfig::default()
        }
    }

    /// The widest configuration: 6-input cuts (with a deeper cut list per
    /// node, since wide cuts survive dominance pruning in greater
    /// numbers). Slower than the default but sees redundancy no 4-input
    /// window can expose; the bench harness measures it as the
    /// `rewrite6_fraig` mode.
    pub fn wide() -> RewriteConfig {
        RewriteConfig {
            cut_size: MAX_CUT_SIZE,
            max_cuts: 16,
            ..RewriteConfig::default()
        }
    }
}

/// What the pass found and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// AND gates before the pass.
    pub ands_before: usize,
    /// AND gates in the rewritten graph.
    pub ands_after: usize,
    /// The cut width the pass ran with (after clamping).
    pub cut_size: usize,
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
/// negation, acting on 6-variable truth tables.
///
/// Applied to a function `f`, the transform yields
/// `g(y0..y5) = output_neg ⊕ f(x0..x5)` with `x_j = y_{perm[j]} ⊕ neg_j`
/// (where `neg_j` is bit `j` of `input_neg`). The identity transform has
/// `perm = [0, 1, 2, 3, 4, 5]`, `input_neg = 0`, `output_neg = false`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// Where each original input reads from: `x_j` comes from `y_{perm[j]}`.
    pub perm: [u8; MAX_CUT_SIZE],
    /// Mask of complemented inputs (bit `j` complements `x_j`).
    pub input_neg: u8,
    /// Whether the output is complemented.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform.
    pub const IDENTITY: NpnTransform = NpnTransform {
        perm: [0, 1, 2, 3, 4, 5],
        input_neg: 0,
        output_neg: false,
    };

    /// Applies the transform to a truth table.
    ///
    /// Implemented with word-parallel table surgery — per-variable half
    /// swaps for the input negations, variable transpositions for the
    /// permutation — so one application costs a dozen word operations
    /// instead of a 64-position loop. Canonicalization applies transforms
    /// by the thousand on symmetric tables; this is its inner loop.
    pub fn apply(&self, tt: u64) -> u64 {
        // h(x) = f(x0 ⊕ n0, ..): flip each negated input's half-spaces.
        let mut out = tt;
        for j in 0..MAX_CUT_SIZE {
            if (self.input_neg >> j) & 1 == 1 {
                out = flip_var(out, j);
            }
        }
        // g(y) = h(y_{perm[0]}, ..): relabel variable j -> perm[j] by
        // transpositions, tracking where each logical variable sits.
        let mut at = [0usize, 1, 2, 3, 4, 5];
        let mut place = [0usize, 1, 2, 3, 4, 5];
        for v in 0..MAX_CUT_SIZE {
            let target = self.perm[v] as usize;
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
        if self.output_neg {
            !out
        } else {
            out
        }
    }
}

/// The table of `f` with variable `i` complemented: swaps the `x_i = 0`
/// and `x_i = 1` half-spaces.
fn flip_var(tt: u64, i: usize) -> u64 {
    let s = 1u32 << i;
    ((tt & VAR_TT[i]) >> s) | ((tt & !VAR_TT[i]) << s)
}

/// The table of `f` with variables `a` and `b` exchanged (relabeled).
fn swap_vars(tt: u64, a: usize, b: usize) -> u64 {
    if a == b {
        return tt;
    }
    let (a, b) = (a.min(b), a.max(b));
    // Positions with x_a = 1, x_b = 0 trade places with x_a = 0, x_b = 1;
    // the value distance between the paired positions is 2^b - 2^a.
    let sh = (1u32 << b) - (1u32 << a);
    let ra = VAR_TT[a] & !VAR_TT[b];
    let rb = !VAR_TT[a] & VAR_TT[b];
    (tt & !(ra | rb)) | ((tt & ra) << sh) | ((tt & rb) >> sh)
}

/// All permutations of `items` (recursive; at most 6! = 720 results).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let x = rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

/// Cartesian product of per-group orders, concatenated in group order:
/// every variable order that keeps the groups contiguous. A *collapsed*
/// group (all members pairwise swap-symmetric in the table) contributes
/// only its identity order — any other order's image is reproduced by a
/// phase-mask relabeling the enumeration covers anyway.
fn orders_of(groups: &[(Vec<usize>, bool)]) -> Vec<Vec<usize>> {
    let mut acc: Vec<Vec<usize>> = vec![Vec::new()];
    for (g, collapsed) in groups {
        let perms = if *collapsed {
            vec![g.clone()]
        } else {
            permutations(g)
        };
        let mut next = Vec::with_capacity(acc.len() * perms.len());
        for a in &acc {
            for p in &perms {
                let mut v = a.clone();
                v.extend_from_slice(p);
                next.push(v);
            }
        }
        acc = next;
    }
    acc
}

/// An order-invariant signature of the variable pair `(i, j)` in `g`: the
/// sorted multiset of the four quadrant onset counts, packed into a
/// `u32`. Invariant under complementing `i` or `j` (quadrants permute),
/// under swapping them, and under any transform of the other variables
/// (minterms move within quadrants).
fn pair_sig(g: u64, i: usize, j: usize) -> u32 {
    let mut q = [
        (g & !VAR_TT[i] & !VAR_TT[j]).count_ones(),
        (g & VAR_TT[i] & !VAR_TT[j]).count_ones(),
        (g & !VAR_TT[i] & VAR_TT[j]).count_ones(),
        (g & VAR_TT[i] & VAR_TT[j]).count_ones(),
    ];
    q.sort_unstable();
    (q[0] << 24) | (q[1] << 16) | (q[2] << 8) | q[3]
}

/// Semicanonicalizes a 6-variable truth table under the NPN group:
/// returns the minimum table over all transforms whose image satisfies
/// the cofactor-signature normal form, together with the transform that
/// reaches it.
///
/// The normal form constrains the *image*: its onset has at most 32
/// minterms (output phase), each variable's onset-within-`x_i=1` is no
/// larger than its onset-within-`x_i=0` (input phases), and variables are
/// ordered by ascending onset count. Because the constraints mention the
/// image alone, the constrained candidate set — and hence its minimum —
/// depends only on the NPN class: **two tables have equal forms iff they
/// are NPN-equivalent** (the form is itself a member of the input's
/// class, reached by the returned transform, so equal forms can only
/// come from one class), and the form is invariant under arbitrary
/// input/output negations and permutations of the input table. The name
/// follows the literature's signature-guided "semicanonical" technique;
/// the complete enumeration of signature ties here makes the form exact,
/// which the recipe library depends on — a cross-class cache collision
/// would replay a recipe for the wrong function.
///
/// Signatures prune the search: only genuine phase/permutation ties are
/// enumerated (first-order onset counts refined by pairwise quadrant
/// signatures), and ties caused by a *symmetry* of the table — a
/// variable whose complement fixes the table, a tie group every
/// transposition of which fixes it — are collapsed outright, since the
/// dropped transforms produce images another enumerated transform already
/// reaches. A typical lookup applies a handful of transforms instead of
/// all 92160; even XOR6, the maximally symmetric class, collapses to 128.
pub fn npn_semicanonical(tt: u64) -> (u64, NpnTransform) {
    if tt == 0 {
        return (0, NpnTransform::IDENTITY);
    }
    if tt == u64::MAX {
        return (
            0,
            NpnTransform {
                output_neg: true,
                ..NpnTransform::IDENTITY
            },
        );
    }
    let pc = tt.count_ones();
    let out_choices: &[bool] = if pc < 32 {
        &[false]
    } else if pc > 32 {
        &[true]
    } else {
        &[false, true]
    };
    let mut best: Option<(u64, NpnTransform)> = None;
    for &out_neg in out_choices {
        let g = if out_neg { !tt } else { tt };
        // Per-variable phase normalization: the image must satisfy
        // onset(x_i = 1) <= onset(x_i = 0); a tie leaves both phases open
        // unless complementing the variable fixes the table, in which
        // case the two phases yield identical images and one suffices.
        // Input negation permutes minterms within the other variables'
        // half-spaces, so these signatures are independent per variable.
        let mut forced_neg = 0u8;
        let mut tied_phase: Vec<usize> = Vec::new();
        let mut key = [(0u32, [0u32; MAX_CUT_SIZE - 1]); MAX_CUT_SIZE];
        for (i, &v) in VAR_TT.iter().enumerate() {
            let c1 = (g & v).count_ones();
            let c0 = (g & !v).count_ones();
            key[i].0 = c0.min(c1);
            if c1 > c0 {
                forced_neg |= 1 << i;
            } else if c1 == c0 && flip_var(g, i) != g {
                tied_phase.push(i);
            }
        }
        // Second-order refinement: the sorted pairwise quadrant
        // signatures split variables first-order counts cannot (e.g. the
        // two live inputs of an XOR buried in a wider table vs. the
        // unused ones — all share onset 16).
        for (i, k) in key.iter_mut().enumerate() {
            let mut s2: Vec<u32> = (0..MAX_CUT_SIZE)
                .filter(|&j| j != i)
                .map(|j| pair_sig(g, i, j))
                .collect();
            s2.sort_unstable();
            k.1.copy_from_slice(&s2);
        }
        // Variable order: ascending key. Equal keys form tie groups whose
        // internal orders must all be tried for the minimum to be exact —
        // except when the group is fully swap-symmetric in `g`, where a
        // single representative order covers the whole orbit.
        let mut by_key: Vec<usize> = (0..MAX_CUT_SIZE).collect();
        by_key.sort_by_key(|&i| (key[i], i));
        let mut groups: Vec<(Vec<usize>, bool)> = Vec::new();
        for &i in &by_key {
            match groups.last_mut() {
                Some((grp, _)) if key[grp[0]] == key[i] => grp.push(i),
                _ => groups.push((vec![i], false)),
            }
        }
        for (grp, collapsed) in &mut groups {
            // Adjacent transpositions generate the full symmetric group,
            // so checking consecutive pairs suffices.
            *collapsed = grp.windows(2).all(|w| swap_vars(g, w[0], w[1]) == g);
        }
        for order in orders_of(&groups) {
            let mut perm = [0u8; MAX_CUT_SIZE];
            for (slot, &v) in order.iter().enumerate() {
                perm[v] = slot as u8;
            }
            for mask in 0..(1u32 << tied_phase.len()) {
                let mut input_neg = forced_neg;
                for (b, &v) in tied_phase.iter().enumerate() {
                    if (mask >> b) & 1 == 1 {
                        input_neg |= 1 << v;
                    }
                }
                let t = NpnTransform {
                    perm,
                    input_neg,
                    output_neg: out_neg,
                };
                let cand = t.apply(tt);
                if best.is_none_or(|(b, _)| cand < b) {
                    best = Some((cand, t));
                }
            }
        }
    }
    best.expect("every class has a signature-normal candidate")
}

// ---------------------------------------------------------------------------
// Recipe synthesis (the per-class implementation library)
// ---------------------------------------------------------------------------

/// A recipe reference: `(index << 1) | inverted`. Index 0 is constant
/// false, 1..=6 are the canonical inputs, 7.. are recipe steps.
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
fn cof0(tt: u64, i: usize) -> u64 {
    let lo = tt & !VAR_TT[i];
    lo | (lo << (1 << i))
}

/// Cofactor of `tt` with variable `i` fixed to 1.
fn cof1(tt: u64, i: usize) -> u64 {
    let hi = tt & VAR_TT[i];
    hi | (hi >> (1 << i))
}

/// Number of variables `tt` actually depends on.
fn support_size(tt: u64) -> usize {
    (0..MAX_CUT_SIZE)
        .filter(|&i| cof0(tt, i) != cof1(tt, i))
        .count()
}

/// The decomposition chosen for a table (shared by cost and emission so
/// both follow the same argmin).
#[derive(Clone, Copy)]
enum Plan {
    /// `f = x_i & sub`
    AndPos(usize, u64),
    /// `f = !x_i & sub`
    AndNeg(usize, u64),
    /// `f = x_i | sub`
    OrPos(usize, u64),
    /// `f = !x_i | sub`
    OrNeg(usize, u64),
    /// `f = x_i ⊕ sub`
    Xor(usize, u64),
    /// `f = x_i ? hi : lo` (Shannon)
    Mux(usize, u64, u64),
}

/// Exhaustive-cost synthesizer over 6-variable truth tables, memoized.
#[derive(Default)]
struct Synth {
    cost_memo: HashMap<u64, u32>,
}

impl Synth {
    /// `Some(ref)` for tables free to implement (constants and literals).
    fn free_ref(tt: u64) -> Option<Ref> {
        if tt == 0 {
            return Some(REF_FALSE);
        }
        if tt == u64::MAX {
            return Some(REF_FALSE ^ 1);
        }
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

    /// Minimum AND count over the decompositions [`Plan`] explores.
    fn cost(&mut self, tt: u64) -> u32 {
        if Self::free_ref(tt).is_some() {
            return 0;
        }
        if let Some(&c) = self.cost_memo.get(&tt) {
            return c;
        }
        let best = self
            .plans(tt)
            .into_iter()
            .map(|p| self.plan_cost(p))
            .min()
            .expect("non-free table has support");
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

    /// Candidate decompositions of a non-free table.
    fn plans(&self, tt: u64) -> Vec<Plan> {
        let mut plans = Vec::new();
        for i in 0..MAX_CUT_SIZE {
            let (c0, c1) = (cof0(tt, i), cof1(tt, i));
            if c0 == c1 {
                continue; // not in the support
            }
            if c0 == 0 {
                plans.push(Plan::AndPos(i, c1));
            } else if c0 == u64::MAX {
                plans.push(Plan::OrNeg(i, c1));
            }
            if c1 == 0 {
                plans.push(Plan::AndNeg(i, c0));
            } else if c1 == u64::MAX {
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
    fn recipe(&mut self, tt: u64) -> Recipe {
        let mut steps = Vec::new();
        let mut built = HashMap::new();
        let out = self.emit(tt, &mut steps, &mut built);
        Recipe { steps, out }
    }

    fn emit(&mut self, tt: u64, steps: &mut Vec<(Ref, Ref)>, built: &mut HashMap<u64, Ref>) -> Ref {
        if let Some(r) = Self::free_ref(tt) {
            return r;
        }
        if let Some(&r) = built.get(&tt) {
            return r;
        }
        if let Some(&r) = built.get(&!tt) {
            return r ^ 1;
        }
        let plan = self
            .plans(tt)
            .into_iter()
            .min_by_key(|&p| self.plan_cost(p))
            .expect("non-free table has support");
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

/// Replays a recipe into a graph over concrete canonical-input edges.
fn instantiate(g: &mut Aig, recipe: &Recipe, ys: [Bit; MAX_CUT_SIZE]) -> Bit {
    let mut vals: Vec<Bit> = Vec::with_capacity(1 + MAX_CUT_SIZE + recipe.steps.len());
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
        let x = resolve(&vals, a);
        let y = resolve(&vals, b);
        let r = g.and(x, y);
        vals.push(r);
    }
    resolve(&vals, recipe.out)
}

/// The per-pass recipe library: canonicalization cache plus synthesized
/// implementations keyed by NPN-semicanonical table.
struct NpnLibrary {
    canon_cache: HashMap<u64, (u64, NpnTransform)>,
    recipes: HashMap<u64, Recipe>,
    synth: Synth,
    /// Canonical classes of XOR2/XOR3 and the 2:1 mux, for the stats.
    xor_classes: [u64; 2],
    mux_class: u64,
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
            xor_classes: [npn_semicanonical(xor2).0, npn_semicanonical(xor3).0],
            mux_class: npn_semicanonical(mux).0,
        }
    }

    fn canonical(&mut self, tt: u64) -> (u64, NpnTransform) {
        *self
            .canon_cache
            .entry(tt)
            .or_insert_with(|| npn_semicanonical(tt))
    }

    /// Recipe plus nominal AND cost for a canonical class.
    fn recipe(&mut self, canon: u64) -> (Recipe, usize) {
        let synth = &mut self.synth;
        let r = self
            .recipes
            .entry(canon)
            .or_insert_with(|| synth.recipe(canon));
        (r.clone(), r.steps.len())
    }

    /// Builds the canonical class's implementation over mapped cut leaves,
    /// undoing the NPN transform.
    fn build(
        &mut self,
        g: &mut Aig,
        canon: u64,
        t: &NpnTransform,
        leaves: &[Bit; MAX_CUT_SIZE],
    ) -> Bit {
        let (recipe, _) = self.recipe(canon);
        // g(y) = out_neg ⊕ f(x), x_j = y_{perm[j]} ⊕ neg_j, hence
        // f(leaves) = out_neg ⊕ g(y) with y_{perm[j]} = leaves[j] ⊕ neg_j.
        let mut ys = [Aig::FALSE; MAX_CUT_SIZE];
        for (j, &e) in leaves.iter().enumerate() {
            let e = if (t.input_neg >> j) & 1 == 1 { !e } else { e };
            ys[t.perm[j] as usize] = e;
        }
        let r = instantiate(g, &recipe, ys);
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
/// starting at `cand`: the number of `freed` nodes it keeps alive, and
/// the pre-existing non-freed nodes it depends on.
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
fn cone_references(g: &Aig, cand: Bit, new_from: usize, freed: &[NodeId]) -> (i64, Vec<NodeId>) {
    let mut alive = 0i64;
    let mut reads: Vec<NodeId> = Vec::new();
    let mut seen: Vec<NodeId> = Vec::new();
    let mut stack = vec![cand.node()];
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
    (alive, reads)
}

/// The maximal fanout-free cone of `n` w.r.t. `leaves`, excluding `n`
/// itself: the AND nodes strictly between the leaves and `n` whose every
/// fanout (parents and roots, per `refs`) stays inside the cone — the
/// nodes that die if `n` stops referencing them. Restores `refs`.
fn mffc_interior(aig: &Aig, refs: &mut [u32], n: NodeId, leaves: &[NodeId]) -> Vec<NodeId> {
    let mut interior: Vec<NodeId> = Vec::new();
    let mut undone: Vec<NodeId> = Vec::new();
    let mut stack = vec![n];
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
    for c in undone {
        refs[c.index()] += 1;
    }
    interior
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

/// A positive-gain replacement candidate awaiting global selection.
struct Candidate {
    root: NodeId,
    leaves: Vec<NodeId>,
    canon: u64,
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
    config: &RewriteConfig,
    lib: &mut NpnLibrary,
    stats: &mut RewriteStats,
) -> (Aig, Vec<Bit>, u64) {
    let cuts = enumerate_cuts(
        src,
        &CutConfig {
            cut_size: config.cut_size,
            max_cuts: config.max_cuts,
        },
    );
    stats.cuts_enumerated += cuts.iter().map(|c| c.len() as u64).sum::<u64>();
    let mut refs = fanout_refs(src, roots);

    // Phase 1 — collect: measure every cut candidate on a scratch clone of
    // the source graph, so each gain is what the rewrite would save if it
    // were the only one applied (truncation keeps measurements
    // independent). Every positive-gain candidate is offered to the
    // solver — same-root alternatives conflict through the shared root
    // claim, letting selection fall back to a narrower cut when a wide
    // cut's larger MFFC collides with a neighbor's.
    let mut trial = src.clone();
    let mut cands: Vec<Candidate> = Vec::new();
    for (id, node) in src.iter() {
        if !matches!(node, Node::And(..)) {
            continue;
        }
        for cut in &cuts[id.index()] {
            if cut.is_trivial(id) || cut.leaves.is_empty() {
                continue;
            }
            stats.candidates_tried += 1;
            let mut freed = mffc_interior(src, &mut refs, id, &cut.leaves);
            freed.push(id);
            let saved = freed.len() as i64;
            if support_size(cut.tt).saturating_sub(1) as i64 >= saved + 2 {
                stats.zero_gain_skipped += 1;
                continue;
            }
            let (canon, t) = lib.canonical(cut.tt);
            let (_, nominal) = lib.recipe(canon);
            if nominal as i64 >= saved + 2 {
                stats.zero_gain_skipped += 1;
                continue;
            }
            let mut leaf_edges = [Aig::FALSE; MAX_CUT_SIZE];
            for (i, l) in cut.leaves.iter().enumerate() {
                leaf_edges[i] = Bit::new(*l, false);
            }
            let before = trial.num_nodes();
            let cand_bit = lib.build(&mut trial, canon, &t, &leaf_edges);
            let added = (trial.num_nodes() - before) as i64;
            // Freed nodes the candidate still references won't die (their
            // savings are discounted); other pre-existing nodes it
            // references become selection reads.
            let (alive, reads) = cone_references(&trial, cand_bit, before, &freed);
            trial.truncate(before);
            let gain = saved - alive - added;
            if gain <= 0 || cand_bit.node() == id {
                stats.zero_gain_skipped += 1;
                continue;
            }
            cands.push(Candidate {
                root: id,
                leaves: cut.leaves.clone(),
                canon,
                t,
                saved: freed,
                reads,
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
    let chosen: HashMap<NodeId, &Candidate> = cands
        .iter()
        .zip(&picked)
        .filter(|(_, &p)| p)
        .map(|(c, _)| (c.root, c))
        .collect();
    stats.reuse_preferred += chosen.values().filter(|c| !c.reads.is_empty()).count() as u64;

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
                if let Some(c) = chosen.get(&id) {
                    let mut leaf_edges = [Aig::FALSE; MAX_CUT_SIZE];
                    for (i, l) in c.leaves.iter().enumerate() {
                        leaf_edges[i] = apply(&map, Bit::new(*l, false));
                    }
                    accepted += 1;
                    stats.rewrites += 1;
                    if lib.xor_classes.contains(&c.canon) {
                        stats.xor_rewrites += 1;
                    } else if c.canon == lib.mux_class {
                        stats.mux_rewrites += 1;
                    }
                    lib.build(&mut g2, c.canon, &c.t, &leaf_edges)
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
/// use emm_aig::rewrite::{rewrite_aig, RewriteConfig};
/// use emm_aig::Aig;
///
/// let mut g = Aig::new();
/// let a = g.new_input();
/// let b = g.new_input();
/// let t = g.and(a, b);
/// let e = g.and(a, !b);
/// let f = g.or(t, e); // ≡ a, built as three ANDs
/// let r = rewrite_aig(&g, &[f], &RewriteConfig::default());
/// assert_eq!(r.map_bit(f), r.map_bit(a));
/// assert_eq!(r.aig.num_ands(), 0);
/// assert_eq!(r.stats.rewrites, 1);
/// ```
pub fn rewrite_aig(aig: &Aig, roots: &[Bit], config: &RewriteConfig) -> RewriteResult {
    rewrite_aig_governed(aig, roots, config, &ResourceGovernor::unlimited())
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
    config: &RewriteConfig,
    governor: &ResourceGovernor,
) -> RewriteResult {
    let mut stats = RewriteStats {
        ands_before: aig.num_ands(),
        cut_size: config.cut_size.clamp(2, MAX_CUT_SIZE),
        ..RewriteStats::default()
    };
    let mut lib = NpnLibrary::new();
    let mut result_aig = aig.clone();
    let mut result_map: Vec<Bit> = aig.iter().map(|(id, _)| Bit::new(id, false)).collect();
    for iter in 0..config.max_iters.max(1) {
        if governor.poll().is_some() {
            stats.interrupted = true;
            break;
        }
        governor.note(FaultSite::RewriteIteration);
        let roots_cur: Vec<Bit> = roots.iter().map(|&r| apply(&result_map, r)).collect();
        let (g2, pmap, accepted) =
            rewrite_pass_global(&result_aig, &roots_cur, config, &mut lib, &mut stats);
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
/// use emm_aig::rewrite::{rewrite_design, RewriteConfig};
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
/// let stats = rewrite_design(&mut d, &RewriteConfig::default());
/// assert!(stats.ands_after < stats.ands_before);
/// d.check().expect("still well-formed");
/// ```
pub fn rewrite_design(design: &mut Design, config: &RewriteConfig) -> RewriteStats {
    rewrite_design_governed(design, config, &ResourceGovernor::unlimited())
}

/// [`rewrite_design`] under a shared [`ResourceGovernor`] — see
/// [`rewrite_aig_governed`] for the degradation contract.
pub fn rewrite_design_governed(
    design: &mut Design,
    config: &RewriteConfig,
    governor: &ResourceGovernor,
) -> RewriteStats {
    if design.check().is_err() {
        return RewriteStats::default();
    }
    let roots = design.reduction_roots();
    let RewriteResult { aig, stats, map } =
        rewrite_aig_governed(&design.aig, &roots, config, governor);
    design.replace_aig(aig, &mut |b| apply(&map, b));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::LatchInit;
    use crate::sim::{eval_combinational, Simulator};

    /// Evaluates a tt at an assignment given as 6 bits.
    fn tt_at(tt: u64, p: usize) -> bool {
        (tt >> p) & 1 == 1
    }

    /// A random permutation of `0..6` drawn from an xorshift state.
    fn random_perm(next: &mut impl FnMut() -> u64) -> [u8; MAX_CUT_SIZE] {
        let mut perm = [0u8, 1, 2, 3, 4, 5];
        for i in (1..MAX_CUT_SIZE).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
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
        let r = rewrite_aig_governed(&g, &[f], &RewriteConfig::default(), &governor);
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
        let r = rewrite_aig_governed(&g, &[f], &RewriteConfig::default(), &governor);
        assert!(r.stats.interrupted, "a second iteration was refused");
        assert_eq!(r.stats.iterations, 1, "the first iteration committed");
        assert_eq!(r.map_bit(f), r.map_bit(a), "its rewrite survives");
        assert_eq!(r.aig.num_ands(), 0);
    }

    #[test]
    fn cofactors_agree_with_semantics() {
        let tt = 0x1234_5678_9ABC_DEF0u64;
        for i in 0..MAX_CUT_SIZE {
            for p in 0..64usize {
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
        assert_eq!(support_size(u64::MAX), 0);
        assert_eq!(support_size(VAR_TT[3]), 1);
        assert_eq!(support_size(VAR_TT[0] & VAR_TT[5]), 2);
        let all = VAR_TT.iter().fold(u64::MAX, |a, &v| a & v);
        assert_eq!(support_size(all), 6);
    }

    #[test]
    fn npn_transform_identity() {
        assert_eq!(
            NpnTransform::IDENTITY.apply(0xBEEF_FACE_0123_4567),
            0xBEEF_FACE_0123_4567
        );
    }

    #[test]
    fn fast_apply_matches_positional_reference() {
        // The word-parallel apply against the direct per-position
        // definition of the transform semantics.
        fn reference(t: &NpnTransform, tt: u64) -> u64 {
            let mut out = 0u64;
            for p in 0..64u32 {
                let mut q = 0u32;
                for j in 0..MAX_CUT_SIZE {
                    let bit = ((p >> t.perm[j]) & 1) ^ ((t.input_neg as u32 >> j) & 1);
                    q |= bit << j;
                }
                out |= (((tt >> q) & 1) ^ t.output_neg as u64) << p;
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
            let tt = next();
            let t = NpnTransform {
                perm: random_perm(&mut next),
                input_neg: (next() % 64) as u8,
                output_neg: next() % 2 == 1,
            };
            assert_eq!(t.apply(tt), reference(&t, tt), "{t:?} on {tt:#018x}");
        }
    }

    #[test]
    fn semicanonical_is_invariant_under_transforms() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let tt = next();
            let (canon, t) = npn_semicanonical(tt);
            assert_eq!(t.apply(tt), canon, "transform reaches the canonical");
            // Any random transform of tt must canonicalize identically.
            let rt = NpnTransform {
                perm: random_perm(&mut next),
                input_neg: (next() % 64) as u8,
                output_neg: next() % 2 == 1,
            };
            assert_eq!(npn_semicanonical(rt.apply(tt)).0, canon);
        }
    }

    #[test]
    fn semicanonical_handles_symmetric_tables() {
        // Fully symmetric classes hit the worst-case tie enumeration;
        // invariance must still hold. XOR6 is the canonical stress case.
        let xor6 = VAR_TT.iter().fold(0u64, |a, &v| a ^ v);
        let (canon, t) = npn_semicanonical(xor6);
        assert_eq!(t.apply(xor6), canon);
        assert_eq!(npn_semicanonical(!xor6).0, canon, "phase-flipped XOR6");
        let and6 = VAR_TT.iter().fold(u64::MAX, |a, &v| a & v);
        let (canon_and, t_and) = npn_semicanonical(and6);
        assert_eq!(t_and.apply(and6), canon_and);
        // OR6 = !AND6 over complemented inputs: same class.
        let or6 = VAR_TT.iter().fold(0u64, |a, &v| a | v);
        assert_eq!(npn_semicanonical(or6).0, canon_and);
        // Constants take the fast path.
        assert_eq!(npn_semicanonical(0).0, 0);
        assert_eq!(npn_semicanonical(u64::MAX).0, 0);
    }

    #[test]
    fn recipes_implement_their_tables() {
        // Synthesize a spread of tables, instantiate over fresh inputs,
        // and check against direct evaluation.
        let mut synth = Synth::default();
        let mut state = 0xD1B54A32D192ED03u64;
        let mut tables: Vec<u64> = (0..40)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            })
            .collect();
        let xor2 = VAR_TT[0] ^ VAR_TT[1];
        let xor6 = VAR_TT.iter().fold(0u64, |a, &v| a ^ v);
        let mux = (VAR_TT[2] & VAR_TT[1]) | (!VAR_TT[2] & VAR_TT[0]);
        tables.extend([xor2, xor6, mux, 0x8000_0000_0000_0000, u64::MAX - 1, 1]);
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
            let out = instantiate(&mut g, &recipe, ys);
            for p in 0..64usize {
                let inputs: Vec<bool> = (0..MAX_CUT_SIZE).map(|i| (p >> i) & 1 == 1).collect();
                let values = eval_combinational(&g, &inputs);
                assert_eq!(
                    out.apply(values[out.node().index()]),
                    tt_at(tt, p),
                    "tt {tt:#018x} at {p}"
                );
            }
        }
    }

    #[test]
    fn npn_build_undoes_the_transform() {
        let mut lib = NpnLibrary::new();
        let mut state = 0xA076_1D64_78BD_642Fu64;
        for _ in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let tt = state;
            let (canon, t) = npn_semicanonical(tt);
            let mut g = Aig::new();
            let mut leaves = [Aig::FALSE; MAX_CUT_SIZE];
            for l in leaves.iter_mut() {
                *l = g.new_input();
            }
            let out = lib.build(&mut g, canon, &t, &leaves);
            for p in 0..64usize {
                let inputs: Vec<bool> = (0..MAX_CUT_SIZE).map(|i| (p >> i) & 1 == 1).collect();
                let values = eval_combinational(&g, &inputs);
                assert_eq!(
                    out.apply(values[out.node().index()]),
                    tt_at(tt, p),
                    "tt {tt:#018x} at {p}"
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
        let and6 = VAR_TT.iter().fold(u64::MAX, |a, &v| a & v);
        assert_eq!(synth.cost(and6), 5, "6-input AND");
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
        let r = rewrite_aig(&g, &[z], &RewriteConfig::default());
        assert_eq!(r.map_bit(z), Aig::FALSE);
        assert_eq!(r.aig.num_ands(), 0);
    }

    #[test]
    fn wide_cuts_collapse_shannon_bloat() {
        // f = mux(a, g1, g2) where g1 and g2 are the *same* 4-input AND
        // built with different association, so strash cannot share them:
        // the true function is b∧c∧d∧e (3 ANDs), but every window of at
        // most 4 leaves sees only irreducible structure — a path through
        // `a` escapes any 4-cut that could expose the redundancy. Only a
        // 5-input cut {a,b,c,d,e} reveals that the mux arms are equal.
        let build = |g: &mut Aig| {
            let a = g.new_input();
            let b = g.new_input();
            let c = g.new_input();
            let d = g.new_input();
            let e = g.new_input();
            let de = g.and(d, e);
            let cde = g.and(c, de);
            let g1 = g.and(b, cde);
            let bc = g.and(b, c);
            let bcd = g.and(bc, d);
            let g2 = g.and(bcd, e);
            g.mux(a, g1, g2)
        };
        let mut g = Aig::new();
        let f = build(&mut g);
        assert_eq!(g.num_ands(), 9);

        // Narrow cuts may chip away at the associations but cannot beat
        // the full collapse the 5-leaf window performs in one step.
        let narrow = rewrite_aig(&g, &[f], &RewriteConfig::default());
        let wide = rewrite_aig(&g, &[f], &RewriteConfig::wide());
        assert!(narrow.aig.num_ands() >= wide.aig.num_ands());
        assert_eq!(wide.aig.num_ands(), 3, "b∧c∧d∧e");
        assert!(wide.stats.rewrites >= 1);
        // Semantics: f == b∧c∧d∧e on all 32 assignments.
        for p in 0..32usize {
            let inputs: Vec<bool> = (0..5).map(|i| (p >> i) & 1 == 1).collect();
            let values = eval_combinational(&wide.aig, &inputs);
            let mapped = wide.map_bit(f);
            let expect = inputs[1] && inputs[2] && inputs[3] && inputs[4];
            assert_eq!(mapped.apply(values[mapped.node().index()]), expect, "{p}");
        }
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

        for config in [RewriteConfig::default(), RewriteConfig::wide()] {
            let mut rewritten = d.clone();
            let stats = rewrite_design(&mut rewritten, &config);
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
    }

    #[test]
    fn malformed_design_is_left_alone() {
        let mut d = Design::new();
        d.new_latch("dangling", LatchInit::Zero);
        let stats = rewrite_design(&mut d, &RewriteConfig::default());
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
        let r = rewrite_aig(&g, &[y], &RewriteConfig::default());
        assert_eq!(r.aig.num_ands(), 2);
        assert_eq!(r.stats.iterations, 0);
    }
}
