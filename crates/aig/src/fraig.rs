//! FRAIG — functionally reduced AIGs by simulate / refine / prove.
//!
//! The simplifying CNF sink (`emm-sat`) only interns structurally
//! identical gates. This pass merges functionally equivalent cones where
//! it is cheap and pays everywhere: the design's AIG, **once, before
//! unrolling**, so a merged cone disappears from every time frame of every
//! BMC context.
//!
//! The pass rebuilds the graph structurally, then runs the classic
//! fraiging recipe in **rounds**:
//!
//! 1. **Simulate** — every node carries a multi-word signature
//!    (256 pseudorandom input patterns, deterministic in a fixed seed),
//!    computed incrementally as
//!    the graph is rebuilt. Equal (or complementary) signatures are the
//!    only evidence considered, so candidate classes are found without
//!    any solver work. The constant node seeds the all-zero class, which
//!    is how constant cones are detected.
//! 2. **Prove** — each candidate class becomes one job for a
//!    [`SweepRunner`]: its members are checked against the class leader
//!    (the oldest node) by a private incremental [`emm_sat::EquivOracle`]
//!    that encodes only the two cones' Tseitin clauses, each query
//!    bounded by 48 conflicts per direction. Jobs are pure functions
//!    of the round's snapshot, and their merges commit at a barrier in
//!    canonical class order.
//! 3. **Refine** — a refuted pair yields a distinguishing model, which is
//!    a *real* simulation pattern. The round's patterns are appended to
//!    every signature as fresh words, so no pattern is ever dropped: a
//!    pair a counterexample has separated never shares a class again,
//!    and the next round re-buckets the graph under the sharper
//!    signatures.
//!
//! Rounds stop when one neither merges nor refutes anything, or when
//! [`MAX_CHECKS`] checks are spent. The pass finishes with a
//! rewrite: a fresh graph is rebuilt in the old topological order with
//! every fanout redirected to class representatives, inputs preserved
//! index-for-index, and merged or unreferenced cones dead-stripped.
//! [`fraig_design`] applies that rewrite to a whole [`Design`] (ports,
//! properties, constraints, name table) through `Design::replace_aig`.
//!
//! Because the commit order is fixed, the result — graph, map, and
//! stats — is identical for every runner and worker count:
//! [`SequentialRunner`] and a one-worker pool both run the jobs inline,
//! and a wider pool only changes which thread runs which class.
//!
//! Soundness: a merge is performed only after the oracle *proves* the two
//! cones equal as functions of all AIG inputs (latch outputs and read-data
//! pseudo-inputs included, treated as free). Functional equivalence over
//! free inputs is preserved under any environment, so the rewritten design
//! is cycle-for-cycle indistinguishable — the differential tests in
//! `emm-bmc` (`fraig_differential.rs`) check verdict equality over random
//! designs, and [`Trace`](crate::Trace) replay keeps validating
//! counterexamples against the *original* design.
//!
//! ```
//! use emm_aig::{Aig, fraig::fraig_aig};
//!
//! let mut g = Aig::new();
//! let a = g.new_input();
//! let b = g.new_input();
//! let x = g.and(a, b);
//! let y = g.and(a, x); // absorbed: a ∧ (a ∧ b) ≡ x, structurally distinct
//! let r = fraig_aig(&g, &[x, y]);
//! assert_eq!(r.map_bit(x), r.map_bit(y));
//! assert_eq!(r.stats.merges, 1);
//! assert_eq!(r.aig.num_ands(), 1);
//! ```

use std::collections::HashMap;

use emm_sat::{EquivOracle, FaultSite, Lit, ResourceGovernor};

use crate::aig::{Aig, Bit, Node, NodeId};
use crate::design::Design;
use crate::sim::eval_combinational_words;

/// Total SAT equivalence checks across the pass (hard cap; the pass
/// degrades to pure structural reduction once exhausted).
pub const MAX_CHECKS: u64 = 4096;

/// Conflict budget per equivalence-check direction.
const SAT_CONFLICTS: u64 = 48;

/// Seed of the deterministic input patterns.
const SEED: u64 = 0x00E5_AD8F_F12A_9001;

/// The sweep's size caps; the pass runs under [`CAPS`].
#[derive(Clone, Copy, Debug)]
struct Caps {
    /// Signature width in 64-bit words: `64 * sim_words` random patterns.
    sim_words: usize,
    /// Total SAT equivalence checks across the pass.
    max_checks: u64,
    /// Candidate-class size cap (bounds memory and worst-case checks).
    max_bucket: usize,
}

const CAPS: Caps = Caps {
    sim_words: 4,
    max_checks: MAX_CHECKS,
    max_bucket: 8,
};

/// Configuration of the fraig pass: whether a pipeline runs it at all.
/// The pass itself has fixed caps (at most [`MAX_CHECKS`] checks of 48
/// conflicts per direction, 256 random patterns, classes of at most 8),
/// so [`fraig_design`] always runs when called; pipelines such as the BMC
/// engine's check [`FraigConfig::enabled`] first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FraigConfig {
    /// Fraig the design before unrolling.
    pub enabled: bool,
}

impl Default for FraigConfig {
    fn default() -> FraigConfig {
        FraigConfig { enabled: true }
    }
}

impl FraigConfig {
    /// A configuration that turns the pass off entirely.
    pub fn disabled() -> FraigConfig {
        FraigConfig { enabled: false }
    }
}

/// What the pass found and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FraigStats {
    /// AND gates before the pass.
    pub ands_before: usize,
    /// AND gates in the rewritten graph (merges and dead cones removed).
    pub ands_after: usize,
    /// Old gates answered by folding/structural hashing during rebuild
    /// (redundancy the representative substitution exposed).
    pub structural_merges: u64,
    /// Nodes merged into an equivalence-class representative by a proof.
    pub merges: u64,
    /// Of those, nodes proved equal to a constant.
    pub const_merges: u64,
    /// SAT equivalence checks issued.
    pub sat_checks: u64,
    /// Checks refuted by a distinguishing model.
    pub refuted: u64,
    /// Checks abandoned on the conflict budget.
    pub unknown: u64,
    /// Counterexample patterns folded back into the signatures.
    pub cex_patterns: u64,
    /// Simulation patterns used (initial random plus counterexamples).
    pub sim_patterns: u64,
    /// Nodes a candidate class refused because it was already at its
    /// size cap, counted once per round. A refused cone stays a live
    /// representative and is re-offered next round, once merges or
    /// refinement have shrunk its class; a non-zero count at the end
    /// means larger classes or more checks could find more merges.
    pub buckets_truncated: u64,
    /// The pass was interrupted by its [`ResourceGovernor`] (deadline or
    /// cancellation) and degraded to structural reduction for the
    /// remainder of the graph. The result is still a sound best-so-far
    /// reduction; only further SAT-proved merges were skipped.
    pub interrupted: bool,
}

impl FraigStats {
    /// Gates removed by the whole pass (merges plus dead-stripping).
    pub fn ands_removed(&self) -> usize {
        self.ands_before.saturating_sub(self.ands_after)
    }
}

/// Result of [`fraig_aig`]: the reduced graph plus the edge mapping.
#[derive(Clone, Debug)]
pub struct FraigResult {
    /// The functionally reduced graph. Inputs appear in the same order as
    /// in the source graph (same dense indices).
    pub aig: Aig,
    /// Counters.
    pub stats: FraigStats,
    /// Old node -> reduced-graph edge, through class representatives.
    map: Vec<Bit>,
}

impl FraigResult {
    /// Maps an edge of the source graph into the reduced graph.
    pub fn map_bit(&self, old: Bit) -> Bit {
        apply(&self.map, old)
    }
}

/// SplitMix64: deterministic pseudorandom pattern words.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SAT equivalence check's outcome inside a [`ClassReport`], in the
/// order the job issued them.
#[derive(Clone, Debug)]
pub enum SweepOutcome {
    /// `member ≡ leader` was proved; the barrier merges `member`'s node
    /// into the leader edge.
    Proved {
        /// The canonical member edge that was checked.
        member: Bit,
        /// The class leader edge it proved equal to.
        leader: Bit,
    },
    /// The pair was refuted; `pattern` is the distinguishing input
    /// assignment (model values where the cone was encoded,
    /// deterministic pseudorandom fill elsewhere), appended to every
    /// signature after the barrier.
    Refuted {
        /// One value per graph input, dense input order.
        pattern: Vec<bool>,
    },
    /// The conflict budget ran out before an answer.
    Unknown,
}

/// What one candidate-class job of the sweep found. Reports are
/// committed at the round barrier in canonical class order, so the
/// result is identical at every worker count.
#[derive(Clone, Debug, Default)]
pub struct ClassReport {
    /// Check outcomes in issue order.
    pub checks: Vec<SweepOutcome>,
    /// The job's governor tripped mid-class (deadline or upstream
    /// cancellation); outcomes up to the trip are still valid.
    pub interrupted: bool,
}

/// A boxed candidate-class job for a [`SweepRunner`]: borrows the
/// in-progress graph (`'a`), runs one class's SAT checks against its
/// own oracle, and returns the outcomes for barrier commit.
pub type SweepTask<'a> = Box<dyn FnOnce() -> ClassReport + Send + 'a>;

/// Executes a batch of independent candidate-class jobs. The pipeline's
/// shared-queue pool (`emm_core::pool::Pool`) implements this; this
/// crate ships [`SequentialRunner`] so the pass is usable (and
/// testable) without the pool crate, which sits above `emm-aig` in the
/// dependency graph.
///
/// `None` entries in the returned vector mark jobs the runner skipped
/// (cooperative shutdown); the sweep treats the first skip as an
/// interruption and commits nothing from that job onward, keeping the
/// committed prefix deterministic.
pub trait SweepRunner {
    /// Runs every task, returning results in task order (`None` for
    /// tasks skipped by a cancellation).
    fn run_sweep<'a>(&self, tasks: Vec<SweepTask<'a>>) -> Vec<Option<ClassReport>>;

    /// Worker count, for stats/telemetry only.
    fn workers(&self) -> usize {
        1
    }
}

/// A [`SweepRunner`] that executes jobs inline, in order — the
/// reference implementation the parallel pool must be bit-identical to.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialRunner;

impl SweepRunner for SequentialRunner {
    fn run_sweep<'a>(&self, tasks: Vec<SweepTask<'a>>) -> Vec<Option<ClassReport>> {
        tasks.into_iter().map(|t| Some(t())).collect()
    }
}

/// Runs the fraig pass over a raw graph, unlimited and inline: the
/// [`fraig_aig_governed`] shorthand with an unlimited governor and the
/// [`SequentialRunner`].
///
/// `roots` are the edges whose functions must be preserved (for a design:
/// next-state functions, properties, constraints, and memory port buses);
/// everything outside their cones — including cones orphaned by merges —
/// is dead-stripped from the result. Inputs are always preserved, in
/// order, so dense input indices survive the rewrite.
///
/// # Examples
///
/// Absorption (`a ∧ (a ∧ b) ≡ a ∧ b`) creates two structurally distinct
/// nodes with one function; the pass proves and merges them:
///
/// ```
/// use emm_aig::fraig::fraig_aig;
/// use emm_aig::Aig;
///
/// let mut g = Aig::new();
/// let a = g.new_input();
/// let b = g.new_input();
/// let x = g.and(a, b);
/// let y = g.and(a, x);
/// let r = fraig_aig(&g, &[x, y]);
/// assert_eq!(r.map_bit(x), r.map_bit(y));
/// assert_eq!(r.aig.num_ands(), 1);
/// ```
pub fn fraig_aig(aig: &Aig, roots: &[Bit]) -> FraigResult {
    fraig_aig_governed(
        aig,
        roots,
        &ResourceGovernor::unlimited(),
        &SequentialRunner,
    )
}

/// The fraig pass under a shared [`ResourceGovernor`], with candidate
/// classes dispatched to `runner`.
///
/// Each round buckets the live nodes into candidate classes by signature
/// and hands one job per class to `runner`; each job has its own
/// [`EquivOracle`] and a [forked](ResourceGovernor::fork), fault-disarmed
/// governor. Merges, counterexample patterns, and the
/// [`FaultSite::FraigCheck`] / [`FaultSite::FraigMerge`] events are then
/// committed at a barrier in canonical class order, so **the result —
/// graph, map, and stats — is identical for every runner**, fault
/// injection included: armed faults trip on the parent governor at the
/// same committed check at every worker count.
///
/// The governor's deadline and cancellation token are polled once per
/// round, once per check inside every job, and inside every oracle call.
/// When it trips, SAT work stops but the rebuild finishes structurally:
/// the result is the sound best-so-far reduction with
/// [`FraigStats::interrupted`] set.
pub fn fraig_aig_governed(
    aig: &Aig,
    roots: &[Bit],
    governor: &ResourceGovernor,
    runner: &dyn SweepRunner,
) -> FraigResult {
    sweep(aig, roots, CAPS, governor, runner)
}

/// [`fraig_aig_governed`] under `caps`.
fn sweep(
    aig: &Aig,
    roots: &[Bit],
    caps: Caps,
    governor: &ResourceGovernor,
    runner: &dyn SweepRunner,
) -> FraigResult {
    let mut w = caps.sim_words.max(1);
    let mut stats = FraigStats {
        sim_patterns: 64 * w as u64,
        ands_before: aig.num_ands(),
        ..FraigStats::default()
    };

    // Structural rebuild with incremental signatures, no SAT. Node `n`
    // owns `sig[n*w .. (n+1)*w]`.
    let mut g1 = Aig::new();
    let mut sig: Vec<u64> = vec![0; w];
    let mut map1: Vec<Bit> = Vec::with_capacity(aig.num_nodes());
    for (_, node) in aig.iter() {
        let mapped = match node {
            Node::Const => Aig::FALSE,
            Node::Input(i) => {
                let b = g1.new_input();
                for k in 0..w {
                    sig.push(mix(SEED ^ mix((i as u64) << 8 | k as u64)));
                }
                b
            }
            Node::And(a, b) => {
                let fa = apply(&map1, a);
                let fb = apply(&map1, b);
                let before = g1.num_nodes();
                let out = g1.and(fa, fb);
                if g1.num_nodes() == before {
                    stats.structural_merges += 1;
                } else {
                    for k in 0..w {
                        sig.push(sig_word_of(&sig, w, fa, k) & sig_word_of(&sig, w, fb, k));
                    }
                }
                out
            }
        };
        map1.push(mapped);
    }
    let mut repr: Vec<Bit> = g1.iter().map(|(id, _)| Bit::new(id, false)).collect();

    // Rounds: bucket → dispatch → barrier commit → refine.
    let mut halted = false;
    loop {
        if halted {
            break;
        }
        if governor.poll().is_some() {
            stats.interrupted = true;
            break;
        }
        let budget_left = caps.max_checks.saturating_sub(stats.sat_checks);
        if budget_left == 0 {
            break;
        }
        // Candidate classes over live representatives, ascending node
        // order, capped at `max_bucket` (overflow counted as truncated —
        // a shrunk class re-offers them next round).
        let mut buckets: HashMap<Vec<u64>, Vec<Bit>> = HashMap::new();
        let mut class_order: Vec<Vec<u64>> = Vec::new();
        for (node, _) in g1.iter() {
            if chase(&repr, Bit::new(node, false)).node() != node {
                continue;
            }
            let (lit, key) = canonical_of(&sig, w, node);
            let class = buckets.entry(key.clone()).or_insert_with(|| {
                class_order.push(key);
                Vec::new()
            });
            if class.len() < caps.max_bucket {
                class.push(lit);
            } else {
                stats.buckets_truncated += 1;
            }
        }
        let mut classes: Vec<Vec<Bit>> = class_order
            .into_iter()
            .filter_map(|key| {
                let class = buckets.remove(&key)?;
                (class.len() >= 2).then_some(class)
            })
            .collect();
        // Canonical dispatch/commit order: by class leader.
        classes.sort_by_key(|c| c[0].node().index());
        if classes.is_empty() {
            break;
        }
        // Deterministic per-class budgets, allocated in canonical order.
        let mut left = budget_left;
        let budgets: Vec<u64> = classes
            .iter()
            .map(|c| {
                let want = (c.len() - 1) as u64;
                let got = want.min(left);
                left -= got;
                got
            })
            .collect();

        let g1_ref = &g1;
        let tasks: Vec<SweepTask<'_>> = classes
            .iter()
            .zip(&budgets)
            .map(|(class, &budget)| {
                let class = class.clone();
                let job_gov = governor.fork().disarmed();
                Box::new(move || sweep_class(g1_ref, &class, budget, &job_gov)) as SweepTask<'_>
            })
            .collect();
        let reports = runner.run_sweep(tasks);

        // Barrier: commit in canonical order. Fault events are replayed
        // on the parent governor here, so an armed fault trips at the
        // same committed check count at every worker count.
        let mut patterns: Vec<Vec<bool>> = Vec::new();
        let mut progressed = false;
        for (report, class) in reports.into_iter().zip(&classes) {
            let Some(report) = report else {
                // The runner skipped the job (cooperative shutdown):
                // nothing from it or any later class commits.
                halted = true;
                stats.interrupted = true;
                break;
            };
            let leader = class[0];
            debug_assert!(chase(&repr, leader) == leader);
            for outcome in report.checks {
                stats.sat_checks += 1;
                governor.note(FaultSite::FraigCheck);
                match outcome {
                    SweepOutcome::Proved { member, leader: l } => {
                        debug_assert_eq!(l, leader);
                        stats.merges += 1;
                        if leader.node() == NodeId::FALSE {
                            stats.const_merges += 1;
                        }
                        // member ≡ leader as functions, and the leader
                        // is the oldest class node, so chains keep
                        // descending topologically.
                        repr[member.node().index()] = if member.is_inverted() {
                            !leader
                        } else {
                            leader
                        };
                        progressed = true;
                        governor.note(FaultSite::FraigMerge);
                    }
                    SweepOutcome::Refuted { pattern } => {
                        stats.refuted += 1;
                        patterns.push(pattern);
                        progressed = true;
                    }
                    SweepOutcome::Unknown => {
                        stats.unknown += 1;
                    }
                }
                if governor.is_cancelled() {
                    halted = true;
                    stats.interrupted = true;
                    break;
                }
            }
            if report.interrupted && !halted {
                halted = true;
                stats.interrupted = true;
            }
            if halted {
                break;
            }
        }

        // Refine: append the committed counterexample patterns to every
        // signature.
        if !patterns.is_empty() {
            stats.cex_patterns += patterns.len() as u64;
            stats.sim_patterns += patterns.len() as u64;
            (sig, w) = append_patterns(&g1, &sig, w, &patterns);
        }
        if !progressed {
            break;
        }
    }

    // Substitution rebuild (merges landed after fanouts were built),
    // then dead-strip into a compacted graph, preserving input order and
    // the relative order of surviving nodes (so downstream consumers
    // that rely on "address cones precede their read port" still hold).
    let resolved: Vec<Bit> = map1.iter().map(|&b| chase(&repr, b)).collect();
    let (live, pre) = if stats.merges > 0 {
        let mut g3 = Aig::new();
        let mut map3: Vec<Bit> = Vec::with_capacity(g1.num_nodes());
        for (id, node) in g1.iter() {
            let rep = chase(&repr, Bit::new(id, false));
            let mapped = if rep.node() != id {
                // Merged: representative chains descend, so it is built.
                apply(&map3, rep)
            } else {
                match node {
                    Node::Const => Aig::FALSE,
                    Node::Input(_) => g3.new_input(),
                    Node::And(a, b) => {
                        let ra = apply(&map3, chase(&repr, a));
                        let rb = apply(&map3, chase(&repr, b));
                        g3.and(ra, rb)
                    }
                }
            };
            map3.push(mapped);
        }
        let pre: Vec<Bit> = resolved.iter().map(|&b| apply(&map3, b)).collect();
        (g3, pre)
    } else {
        (g1, resolved)
    };
    let root_nodes: Vec<NodeId> = roots.iter().map(|&r| apply(&pre, r).node()).collect();
    let (g2, map2) = live.compacted(&root_nodes);
    // Final edge map: old -> representative -> compacted graph.
    let map: Vec<Bit> = pre.iter().map(|&b| apply(&map2, b)).collect();
    stats.ands_after = g2.num_ands();
    FraigResult {
        aig: g2,
        stats,
        map,
    }
}

/// Applies the fraig pass to a whole design in place, unlimited and
/// inline (the [`fraig_design_governed`] shorthand), rewriting its
/// combinational core and every stored edge. Returns the pass counters.
///
/// The design's interface is untouched: latch order and initial values,
/// memory modules and port order, property and constraint lists, input
/// kinds, and dense input indices are all preserved — only the gate
/// structure between them shrinks. A design that fails
/// [`Design::check`] is returned unchanged (zeroed stats), since
/// next-state functions must exist to be preserved.
pub fn fraig_design(design: &mut Design) -> FraigStats {
    fraig_design_governed(design, &ResourceGovernor::unlimited(), &SequentialRunner)
}

/// [`fraig_design`] under a shared [`ResourceGovernor`] and a
/// [`SweepRunner`] — see [`fraig_aig_governed`] for the degradation and
/// determinism contracts.
pub fn fraig_design_governed(
    design: &mut Design,
    governor: &ResourceGovernor,
    runner: &dyn SweepRunner,
) -> FraigStats {
    if design.check().is_err() {
        return FraigStats::default();
    }
    let roots = design.reduction_roots();
    let FraigResult { aig, stats, map } = fraig_aig_governed(&design.aig, &roots, governor, runner);
    design.replace_aig(aig, &mut |b| apply(&map, b));
    stats
}

fn apply(map: &[Bit], bit: Bit) -> Bit {
    let base = map[bit.node().index()];
    if bit.is_inverted() {
        !base
    } else {
        base
    }
}

/// Follows representative chains (with phase) to the class leader.
fn chase(repr: &[Bit], mut bit: Bit) -> Bit {
    loop {
        let r = repr[bit.node().index()];
        if r.node() == bit.node() {
            return if bit.is_inverted() { !r } else { r };
        }
        bit = if bit.is_inverted() { !r } else { r };
    }
}

/// Signature word of an edge (node signature, phase-adjusted).
fn sig_word_of(sig: &[u64], w: usize, bit: Bit, k: usize) -> u64 {
    let s = sig[bit.node().index() * w + k];
    if bit.is_inverted() {
        !s
    } else {
        s
    }
}

/// Canonicalizes a node's signature: flips the phase so pattern 0 (bit 0
/// of word 0, which refinement never rewrites) evaluates to false. Equal
/// functions — up to complement — then share one key.
fn canonical_of(sig: &[u64], w: usize, node: NodeId) -> (Bit, Vec<u64>) {
    let bit = Bit::new(node, sig[node.index() * w] & 1 == 1);
    let key = (0..w).map(|k| sig_word_of(sig, w, bit, k)).collect();
    (bit, key)
}

/// Simulates `patterns` on `g` and appends the values to every node's
/// signature as fresh words, returning the widened signatures and width.
///
/// Bit `j` of the new words holds pattern `j % patterns.len()`, so the
/// tail of the last word repeats real patterns rather than a padding
/// constant: a constant would read inverted on a complemented edge and
/// split a node from its complement's class.
fn append_patterns(g: &Aig, sig: &[u64], w: usize, patterns: &[Vec<bool>]) -> (Vec<u64>, usize) {
    let extra = patterns.len().div_ceil(64);
    let mut inputs = vec![0u64; g.num_inputs() * extra];
    for bit in 0..64 * extra {
        let pattern = &patterns[bit % patterns.len()];
        for (i, &value) in pattern.iter().enumerate() {
            inputs[i * extra + bit / 64] |= (value as u64) << (bit % 64);
        }
    }
    let values = eval_combinational_words(g, &inputs, extra);
    let mut widened = Vec::with_capacity(g.num_nodes() * (w + extra));
    for n in 0..g.num_nodes() {
        widened.extend_from_slice(&sig[n * w..(n + 1) * w]);
        widened.extend_from_slice(&values[n * extra..(n + 1) * extra]);
    }
    (widened, w + extra)
}

/// Encodes the cone of an edge of `g` into `oracle` (memoized, iterative
/// DFS) and returns its solver literal.
fn encode_cone(g: &Aig, oracle: &mut EquivOracle, bit: Bit) -> Lit {
    let mut stack = vec![bit.node()];
    while let Some(&n) = stack.last() {
        if oracle.lit(n.index()).is_some() {
            stack.pop();
            continue;
        }
        match g.node(n) {
            Node::Const => {
                oracle.define_const(n.index());
                stack.pop();
            }
            Node::Input(_) => {
                oracle.define_input(n.index());
                stack.pop();
            }
            Node::And(a, b) => {
                let (la, lb) = (oracle.lit(a.node().index()), oracle.lit(b.node().index()));
                match (la, lb) {
                    (Some(la), Some(lb)) => {
                        let la = if a.is_inverted() { !la } else { la };
                        let lb = if b.is_inverted() { !lb } else { lb };
                        oracle.define_and(n.index(), la, lb);
                        stack.pop();
                    }
                    _ => {
                        if la.is_none() {
                            stack.push(a.node());
                        }
                        if lb.is_none() {
                            stack.push(b.node());
                        }
                    }
                }
            }
        }
    }
    let l = oracle.lit(bit.node().index()).expect("just encoded");
    if bit.is_inverted() {
        !l
    } else {
        l
    }
}

/// One candidate-class job: checks each member against the class leader
/// with a private oracle, up to `budget` checks. Pure function of its
/// arguments — no shared mutable state — which is what makes the
/// barrier commit order the only thing that matters for determinism.
fn sweep_class(g: &Aig, class: &[Bit], budget: u64, job_gov: &ResourceGovernor) -> ClassReport {
    let mut oracle = EquivOracle::new();
    oracle.set_governor(job_gov.clone());
    let mut report = ClassReport::default();
    let leader = class[0];
    let mut cex_local = 0u64;
    for (checks, &member) in class[1..].iter().enumerate() {
        if checks as u64 >= budget {
            break;
        }
        if job_gov.poll().is_some() {
            report.interrupted = true;
            break;
        }
        let la = encode_cone(g, &mut oracle, member);
        let lb = encode_cone(g, &mut oracle, leader);
        match oracle.prove_equiv(la, lb, SAT_CONFLICTS) {
            Some(true) => report.checks.push(SweepOutcome::Proved { member, leader }),
            Some(false) => {
                // Distinguishing pattern: model values where encoded,
                // deterministic fill elsewhere — salted by the class
                // leader and the local counterexample index so the
                // pattern is a pure function of the job, not of any
                // global counter a sibling job could race on.
                let salt = (leader.node().index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ cex_local.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                cex_local += 1;
                let mut pattern = vec![false; g.num_inputs()];
                for (id, node) in g.iter() {
                    if let Node::Input(i) = node {
                        let modeled = oracle.lit(id.index()).and_then(|l| oracle.model_lit(l));
                        pattern[i as usize] = modeled
                            .unwrap_or_else(|| mix(SEED ^ salt ^ id.index() as u64) & 1 == 1);
                    }
                }
                report.checks.push(SweepOutcome::Refuted { pattern });
            }
            None => report.checks.push(SweepOutcome::Unknown),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::design::{LatchInit, MemInit};
    use crate::sim::{eval_combinational, Simulator};
    use crate::word::Word;

    #[test]
    fn merges_absorbed_variants() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let x = g.and(a, b);
        // Two absorbed rebuilds of x, structurally distinct from it and
        // from each other.
        let left = g.and(a, x);
        let right = g.and(x, b);
        let r = fraig_aig(&g, &[x, left, right]);
        assert_eq!(r.map_bit(x), r.map_bit(left));
        assert_eq!(r.map_bit(x), r.map_bit(right));
        assert_eq!(r.aig.num_ands(), 1);
        assert_eq!(r.stats.merges, 2);
    }

    #[test]
    fn detects_constant_cones() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        // (a ∧ b) ∧ (a ∧ ¬b) ≡ false, structurally non-obvious.
        let x = g.and(a, b);
        let y = g.and(a, !b);
        let z = g.and(x, y);
        let r = fraig_aig(&g, &[z]);
        assert_eq!(r.map_bit(z), Aig::FALSE);
        assert_eq!(r.stats.const_merges, 1);
        assert_eq!(r.aig.num_ands(), 0, "the whole cone dead-strips");
    }

    /// A real counterexample must block the merge: a deep AND chain's
    /// signature goes all-zero under random patterns (a depth-`k` node is
    /// one with probability `2^-k` per pattern), putting its tail in the
    /// constant class — but no node of the chain is constant, so every
    /// candidate must be SAT-refuted and the distinguishing pattern folded
    /// back into the signatures, never merged.
    #[test]
    fn never_merges_across_a_real_counterexample() {
        let mut g = Aig::new();
        let inputs: Vec<Bit> = (0..16).map(|_| g.new_input()).collect();
        let mut acc = Aig::TRUE;
        for &i in &inputs {
            acc = g.and(acc, i);
        }
        let r = fraig_aig(&g, &[acc]);
        assert_ne!(r.map_bit(acc), Aig::FALSE, "not constant");
        assert_eq!(r.aig.num_ands(), 15, "chain preserved");
        assert!(r.stats.refuted >= 1, "candidates were SAT-refuted");
        assert!(r.stats.cex_patterns >= 1, "the models refined signatures");
        assert_eq!(r.stats.merges, 0);
    }

    /// Two structurally distinct all-ones detectors (opposite
    /// association orders) are proved equal and merged.
    #[test]
    fn cex_patterns_refine_future_classes() {
        let mut g = Aig::new();
        let inputs: Vec<Bit> = (0..6).map(|_| g.new_input()).collect();
        let mut left = Aig::TRUE;
        for &i in &inputs {
            left = g.and(left, i);
        }
        // Same function, opposite association order.
        let mut right = Aig::TRUE;
        for &i in inputs.iter().rev() {
            right = g.and(right, i);
        }
        let r = fraig_aig(&g, &[left, right]);
        assert_eq!(
            r.map_bit(left),
            r.map_bit(right),
            "equivalent chains must merge"
        );
        assert!(r.stats.merges >= 1);
    }

    /// Records every committed round's counterexample patterns while
    /// running the jobs inline.
    #[derive(Default)]
    struct RecordingRunner(RefCell<Vec<Vec<Vec<bool>>>>);

    impl SweepRunner for RecordingRunner {
        fn run_sweep<'a>(&self, tasks: Vec<SweepTask<'a>>) -> Vec<Option<ClassReport>> {
            let reports = SequentialRunner.run_sweep(tasks);
            let patterns = reports
                .iter()
                .flatten()
                .flat_map(|r| &r.checks)
                .filter_map(|c| match c {
                    SweepOutcome::Refuted { pattern } => Some(pattern.clone()),
                    _ => None,
                })
                .collect();
            self.0.borrow_mut().push(patterns);
            reports
        }
    }

    /// Refinement keeps every counterexample pattern, even when one round
    /// commits more than 64 of them. Each `(x_i, y_i)` pair below differs
    /// only where `x_i` and all fourteen of its private inputs are one —
    /// too rare for random simulation, so every pair is a candidate class
    /// — and no node of `y_i`'s cone is rare itself, so the pairs are the
    /// only classes. A pattern that refutes pair `i` therefore separates
    /// pair `i` alone; if refinement dropped it, the pair would re-form
    /// and be refuted again in a later round.
    #[test]
    fn refinement_keeps_every_pattern_of_a_wide_round() {
        const PAIRS: usize = 96;
        let mut g = Aig::new();
        let mut pairs = Vec::new();
        for _ in 0..PAIRS {
            let x = g.new_input();
            let mut halves = [Aig::FALSE; 2];
            for half in &mut halves {
                let mut all = Aig::TRUE;
                for _ in 0..7 {
                    let a = g.new_input();
                    all = g.and(all, a);
                }
                // x ∧ ¬all: differs from x on one pattern in 256.
                *half = g.and(x, !all);
            }
            // y = (x ∧ ¬X) ∨ (x ∧ ¬Y) = x ∧ ¬(X ∧ Y), with no rare node.
            let y = !g.and(!halves[0], !halves[1]);
            pairs.push((x, y));
        }
        let roots: Vec<Bit> = pairs.iter().flat_map(|&(x, y)| [x, y]).collect();
        let caps = Caps {
            sim_words: 64,
            ..CAPS
        };
        let runner = RecordingRunner::default();
        let r = sweep(&g, &roots, caps, &ResourceGovernor::unlimited(), &runner);
        let rounds = runner.0.into_inner();
        assert!(
            rounds[0].len() > 64,
            "round 1 committed {} refutations",
            rounds[0].len()
        );
        let mut refuted = vec![0usize; PAIRS];
        for pattern in rounds.iter().flatten() {
            let values = eval_combinational(&g, pattern);
            let value = |b: Bit| b.apply(values[b.node().index()]);
            for (i, &(x, y)) in pairs.iter().enumerate() {
                refuted[i] += usize::from(value(x) != value(y));
            }
        }
        assert!(
            refuted.iter().all(|&n| n <= 1),
            "a pair was refuted twice: {refuted:?}"
        );
        assert_eq!(r.stats.refuted, refuted.iter().sum::<usize>() as u64);
        assert_eq!(r.stats.merges, 0);
    }

    /// Refinement appends real simulation: every appended word, padding
    /// included, equals a from-scratch evaluation of the graph, so a node
    /// and a structurally distinct complement of it keep one canonical
    /// key (constant padding would read inverted on one of them).
    #[test]
    fn signatures_match_bit_parallel_simulation() {
        let mut g = Aig::new();
        let inputs: Vec<Bit> = (0..13).map(|_| g.new_input()).collect();
        let mut n = Aig::TRUE;
        for &i in &inputs[..12] {
            n = g.and(n, i);
        }
        let nc = g.and(n, inputs[12]);
        let p = g.and(!n, !nc); // ¬n ∧ ¬(n ∧ c) ≡ ¬n
        let w = 2;
        let random: Vec<u64> = (0..13 * w as u64).map(mix).collect();
        let sig = eval_combinational_words(&g, &random, w);
        let patterns: Vec<Vec<bool>> = (0..70u64)
            .map(|k| (0..13).map(|i| mix(k << 8 | i) & 1 == 1).collect())
            .collect();
        let (sig, wide) = append_patterns(&g, &sig, w, &patterns);
        assert_eq!(wide, w + 2, "70 patterns take two words");
        for bit in 0..128 {
            let values = eval_combinational(&g, &patterns[bit % 70]);
            for (id, _) in g.iter() {
                let word = sig[id.index() * wide + w + bit / 64];
                assert_eq!(
                    word >> (bit % 64) & 1 == 1,
                    values[id.index()],
                    "node {id:?}, appended bit {bit}"
                );
            }
        }
        assert_eq!(
            canonical_of(&sig, wide, n.node()).1,
            canonical_of(&sig, wide, p.node()).1
        );
    }

    #[test]
    fn check_cap_degrades_to_structural_reduction() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let x = g.and(a, b);
        let y = g.and(a, x);
        let caps = Caps {
            max_checks: 0,
            ..CAPS
        };
        let r = sweep(
            &g,
            &[x, y],
            caps,
            &ResourceGovernor::unlimited(),
            &SequentialRunner,
        );
        assert_eq!(r.stats.sat_checks, 0);
        assert_ne!(r.map_bit(x), r.map_bit(y), "no proof, no merge");
        assert_eq!(r.aig.num_ands(), 2);
    }

    /// Pin the bucket-cap counter: with a class size cap of 1 every class is a
    /// singleton, so no check runs, and every signature-equal node after
    /// the first is refused by its class and must be counted, not
    /// silently skipped.
    #[test]
    fn bucket_cap_truncations_are_counted() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let x = g.and(a, b);
        // Two absorbed rebuilds of x: same function, same signature.
        let left = g.and(a, x);
        let right = g.and(x, b);
        let caps = Caps {
            max_bucket: 1,
            ..CAPS
        };
        let governor = ResourceGovernor::unlimited();
        let r = sweep(&g, &[x, left, right], caps, &governor, &SequentialRunner);
        assert_eq!(r.stats.sat_checks, 0, "singleton classes need no check");
        assert_eq!(r.stats.merges, 0);
        assert_eq!(
            r.stats.buckets_truncated, 2,
            "left and right both hit the full class"
        );
        // An uncapped run of the same graph records no truncation.
        let r = fraig_aig(&g, &[x, left, right]);
        assert_eq!(r.stats.buckets_truncated, 0);
    }

    /// A cone refused by a full class stays a live representative and is
    /// re-bucketed next round, once the merges just committed have
    /// shrunk its class — and the late merge propagates through fanouts
    /// already built on the refused cone via the substitution rebuild.
    #[test]
    fn truncated_cones_merge_in_a_later_round() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let c = g.new_input();
        let d = g.new_input();
        let e = g.new_input();
        let x = g.and(a, b);
        let y = g.and(a, x); // ≡ x, fills x's class
        let z = g.and(x, b); // ≡ x, refused by the capped class
        let u = g.and(c, d);
        let v = g.and(c, u); // ≡ u
        let t = g.and(z, e); // fanout of the refused cone
        let caps = Caps {
            max_bucket: 2,
            ..CAPS
        };
        let governor = ResourceGovernor::unlimited();
        let r = sweep(&g, &[x, y, z, u, v, t], caps, &governor, &SequentialRunner);
        assert_eq!(r.stats.buckets_truncated, 1, "round 1 refused z");
        assert_eq!(r.stats.merges, 3, "z merged in round 2");
        assert_eq!(r.map_bit(y), r.map_bit(x));
        assert_eq!(r.map_bit(z), r.map_bit(x));
        assert_eq!(r.map_bit(v), r.map_bit(u));
        // t's fanin is redirected to x and z's cone dead-strips: exactly
        // x, u, t survive.
        assert_eq!(r.aig.num_ands(), 3);
    }

    /// A cancelled governor degrades the pass to pure structural
    /// reduction: no SAT work at all, but a sound, well-formed result.
    #[test]
    fn cancelled_governor_degrades_to_structural_reduction() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let x = g.and(a, b);
        let y = g.and(a, x);
        let governor = ResourceGovernor::unlimited();
        governor.cancel();
        let r = fraig_aig_governed(&g, &[x, y], &governor, &SequentialRunner);
        assert!(r.stats.interrupted);
        assert_eq!(r.stats.sat_checks, 0, "no SAT work under cancellation");
        assert_eq!(r.stats.merges, 0);
        assert_ne!(r.map_bit(x), r.map_bit(y), "no proof, no merge");
        assert_eq!(r.aig.num_ands(), 2);
    }

    /// The deterministic fault injector stops the pass right after the
    /// Nth committed equivalence check: everything proved up to the trip
    /// stays merged, every later class degrades structurally, and a
    /// rerun trips at the same place.
    #[test]
    fn fault_injection_halts_after_nth_fraig_check() {
        let mut g = Aig::new();
        let a = g.new_input();
        let b = g.new_input();
        let c = g.new_input();
        let d = g.new_input();
        let x = g.and(a, b);
        let y = g.and(a, x); // x's class, check 1: proves and merges
        let u = g.and(c, d);
        let v = g.and(c, u); // u's class: committed after the trip
        let w = g.and(x, b); // x's class, check 2: proves, then the fault trips
        let roots = [x, y, u, v, w];
        let run = || {
            let governor = ResourceGovernor::unlimited().with_fault(FaultSite::FraigCheck, 2);
            fraig_aig_governed(&g, &roots, &governor, &SequentialRunner)
        };
        let r = run();
        assert_eq!(r.stats.sat_checks, 2, "halted right after the 2nd check");
        assert_eq!(r.stats.merges, 2, "both committed checks proved");
        assert!(r.stats.interrupted);
        assert_eq!(r.map_bit(x), r.map_bit(y));
        assert_eq!(r.map_bit(x), r.map_bit(w));
        assert_ne!(r.map_bit(u), r.map_bit(v), "post-trip class left unmerged");
        assert_eq!(r.stats, run().stats, "the trip point is deterministic");
    }

    #[test]
    fn design_rewrite_preserves_cycle_semantics() {
        // A memory-backed design: fraig it and co-simulate against the
        // original for many cycles.
        let mut d = Design::new();
        let mem = d.add_memory("m", 3, 4, MemInit::Zero);
        let ptr = d.new_latch_word("ptr", 3, LatchInit::Zero);
        let next = d.aig.inc(&ptr);
        d.set_next_word(&ptr, &next);
        let wd = d.new_input_word("wd", 4);
        let we = d.new_input("we");
        d.add_write_port(mem, ptr.clone(), we, wd.clone());
        let rd = d.add_read_port(mem, ptr.clone(), Aig::TRUE);
        // Redundant logic: the comparator built two structurally distinct
        // ways (XNOR-tree vs negated XOR-reduction).
        let hit1 = d.aig.eq_word(&rd, &wd);
        let diff = d.aig.word_xor(&rd, &wd);
        let any_diff = d.aig.redor(&diff);
        let both = d.aig.and(hit1, !any_diff);
        d.add_property("p", both);
        d.check().expect("valid");

        let mut fraiged = d.clone();
        let stats = fraig_design(&mut fraiged);
        assert!(stats.ands_after <= stats.ands_before);
        fraiged.check().expect("still well-formed");
        assert_eq!(fraiged.num_latches(), d.num_latches());
        assert_eq!(fraiged.free_inputs().len(), d.free_inputs().len());

        let mut sim_a = Simulator::new(&d);
        let mut sim_b = Simulator::new(&fraiged);
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for cycle in 0..40 {
            state = mix(state);
            let inputs: Vec<bool> = (0..d.free_inputs().len())
                .map(|i| (state >> i) & 1 == 1)
                .collect();
            let ra = sim_a.step(&inputs);
            let rb = sim_b.step(&inputs);
            assert_eq!(ra.property_bad, rb.property_bad, "cycle {cycle}");
            let pa = Word(d.latches().iter().map(|l| l.output).collect());
            let pb = Word(fraiged.latches().iter().map(|l| l.output).collect());
            assert_eq!(sim_a.state_value(&pa), sim_b.state_value(&pb));
        }
    }

    #[test]
    fn malformed_design_is_left_alone() {
        let mut d = Design::new();
        d.new_latch("dangling", LatchInit::Zero);
        let gates = d.num_gates();
        let stats = fraig_design(&mut d);
        assert_eq!(stats, FraigStats::default());
        assert_eq!(d.num_gates(), gates);
    }
}
