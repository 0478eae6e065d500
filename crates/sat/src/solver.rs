//! The CDCL SAT solver.
//!
//! A conflict-driven clause-learning solver in the MiniSat lineage:
//! two-watched-literal propagation with **blocker literals** (each watcher
//! caches one other literal of its clause; when the blocker is already true
//! the clause is satisfied and propagation skips dereferencing it — the
//! standard MiniSat-lineage cache-miss avoidance), first-UIP conflict
//! analysis with recursive clause minimization, VSIDS branching with phase
//! saving, Luby restarts, and activity/LBD-driven learned-clause reduction.
//!
//! Two features are specifically in service of the EMM/BMC stack built
//! on top (see the `emm-bmc` crate):
//!
//! * **Incremental solving under assumptions**
//!   ([`Solver::solve_with`]) with
//!   [`Solver::failed_assumptions`] — the mechanism behind *group unsat
//!   cores*, which proof-based abstraction uses to compute latch reasons.
//! * **Clause retirement** ([`Solver::retire_clause`]) and **activation
//!   groups** ([`Solver::new_activation_group`] /
//!   [`Solver::retire_group`]) — physical deletion of redundant original
//!   clauses (watchers detached, level-0 reasons cleared, arena space
//!   reclaimed by the mark-and-compact GC), which is how the incremental
//!   BMC bound loop sheds refuted bounds' property clauses and how the
//!   sweeping sink deletes the Tseitin triples of merged-away gates.

use std::collections::HashMap;
use std::time::Instant;

use crate::clause::{ClauseDb, ClauseId, ClauseRef};
use crate::govern::{ExhaustionReason, FaultSite, ResourceGovernor};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};

/// Tunable solver parameters.
///
/// Every field is public, so struct-literal construction with
/// `..SolverConfig::default()` works as well as the chainable builder
/// methods:
///
/// ```
/// use emm_sat::SolverConfig;
///
/// let literal = SolverConfig { restart_base: 50, ..SolverConfig::default() };
/// let built = SolverConfig::default().restart_base(50);
/// assert_eq!(literal.restart_base, built.restart_base);
/// ```
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Multiplicative VSIDS decay applied per conflict (0 < d < 1).
    pub var_decay: f64,
    /// Multiplicative clause-activity decay applied per conflict.
    pub clause_decay: f64,
    /// Conflicts in the first Luby restart interval.
    pub restart_base: u64,
    /// Learned clauses kept before the first database reduction.
    pub first_reduce: u64,
    /// Additional learned clauses allowed after each reduction.
    pub reduce_increment: u64,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            first_reduce: 4000,
            reduce_increment: 1500,
        }
    }
}

impl SolverConfig {
    /// Sets the multiplicative VSIDS decay applied per conflict.
    pub fn var_decay(mut self, d: f64) -> SolverConfig {
        self.var_decay = d;
        self
    }

    /// Sets the multiplicative clause-activity decay per conflict.
    pub fn clause_decay(mut self, d: f64) -> SolverConfig {
        self.clause_decay = d;
        self
    }

    /// Sets the conflict count of the first Luby restart interval.
    pub fn restart_base(mut self, n: u64) -> SolverConfig {
        self.restart_base = n;
        self
    }

    /// Sets the learned-clause count before the first DB reduction.
    pub fn first_reduce(mut self, n: u64) -> SolverConfig {
        self.first_reduce = n;
        self
    }

    /// Sets the learned-clause allowance added after each reduction.
    pub fn reduce_increment(mut self, n: u64) -> SolverConfig {
        self.reduce_increment = n;
        self
    }
}

/// Resource limits for a single [`Solver::solve_with`] call.
///
/// When a limit is exceeded the solver returns [`SolveResult::Unknown`],
/// mirroring the paper's time-limited experimental methodology (Table 1
/// reports `>3hr` timeouts for explicit memory modeling).
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum conflicts for this call, counted from the start of the
    /// call (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Wall-clock deadline for this call.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget limited to `n` conflicts (deterministic across runs).
    pub fn conflicts(n: u64) -> Budget {
        Budget {
            max_conflicts: Some(n),
            deadline: None,
        }
    }

    /// A wall-clock budget of `d` from now.
    pub fn wall_clock(d: std::time::Duration) -> Budget {
        Budget {
            max_conflicts: None,
            deadline: Some(Instant::now() + d),
        }
    }

    /// Returns this budget with its deadline tightened to the earlier of
    /// the current one and `deadline` — the combine rule the BMC engine
    /// uses to merge a caller-supplied `solve_budget.deadline` with a
    /// per-check wall-clock deadline: the earlier of the two always wins,
    /// and a `None` on either side defers to the other.
    ///
    /// ```
    /// use emm_sat::Budget;
    /// use std::time::{Duration, Instant};
    /// let near = Instant::now() + Duration::from_secs(1);
    /// let far = near + Duration::from_secs(100);
    /// let b = Budget::conflicts(10).with_earlier_deadline(Some(far));
    /// assert_eq!(b.deadline, Some(far));
    /// let b = b.with_earlier_deadline(Some(near));
    /// assert_eq!(b.deadline, Some(near), "earlier deadline wins");
    /// let b = b.with_earlier_deadline(Some(far));
    /// assert_eq!(b.deadline, Some(near), "later deadline never loosens");
    /// let b = b.with_earlier_deadline(None);
    /// assert_eq!(b.deadline, Some(near));
    /// assert_eq!(b.max_conflicts, Some(10), "conflict cap untouched");
    /// ```
    pub fn with_earlier_deadline(mut self, deadline: Option<Instant>) -> Budget {
        self.deadline = match (self.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }
}

/// Outcome of a solve call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The budget was exhausted before an answer was reached.
    Unknown,
}

/// Aggregate search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learned clauses currently retained.
    pub learned_clauses: u64,
    /// Learned clauses deleted by database reductions.
    pub deleted_clauses: u64,
    /// Garbage collections of the clause arena.
    pub gc_runs: u64,
    /// Clauses added by the user.
    pub original_clauses: u64,
    /// Original clauses retired by [`Solver::retire_clause`] /
    /// [`Solver::retire_group`].
    pub retired_clauses: u64,
    /// Always 0: the solver has no inprocessing pass. Kept only because
    /// the repository benchmark (`benchmark/`) reads it; dropped with
    /// the next change to the benchmark.
    pub vivified_literals: u64,
    /// Always 0; kept only for the benchmark, like `vivified_literals`.
    pub subsumed_literals: u64,
    /// Always 0; kept only for the benchmark, like `vivified_literals`.
    pub inprocess_rounds: u64,
}

/// One entry of a watch list. `blocker` is a cached literal of the clause
/// (distinct from the watched one): if it is already true the clause is
/// satisfied and [`Solver::propagate`] skips loading the clause from the
/// arena entirely. Blockers may go stale across backtracking — that is
/// sound, it only costs the shortcut — but must always be a literal of the
/// clause (`watcher_blockers_stay_within_their_clause` checks this).
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// The CDCL solver. See the crate docs for an overview.
///
/// ```
/// use emm_sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.model_value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    db: ClauseDb,
    /// `watches[p.code()]`: clauses that must be inspected when `p` becomes true
    /// (i.e. clauses in which `!p` is one of the two watched literals).
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    polarity: Vec<bool>,
    learnts: Vec<ClauseRef>,
    /// Permanently unsatisfiable (an empty clause was derived at level 0).
    ok: bool,
    /// Analysis scratch.
    seen: Vec<u8>,
    analyze_stack: Vec<Lit>,
    analyze_clear: Vec<Var>,
    /// Model snapshot from the last SAT answer.
    model: Vec<LBool>,
    /// Failed assumptions from the last UNSAT-under-assumptions answer.
    conflict_set: Vec<Lit>,
    stats: SolverStats,
    next_clause_id: u32,
    budget: Budget,
    governor: ResourceGovernor,
    /// Why the last solve call answered `Unknown` (cleared per call).
    exhaustion: Option<ExhaustionReason>,
    reduce_limit: u64,
    /// `id_refs[id]` = arena ref of the original clause with that id
    /// (INVALID for clauses never allocated or already retired). This is what makes [`Solver::retire_clause`] O(1):
    /// ids are stable across garbage collection, arena offsets are not.
    id_refs: Vec<ClauseRef>,
    /// Activation groups: group variable -> ids of the clauses guarded by
    /// it (see [`Solver::new_activation_group`]).
    groups: HashMap<Var, Vec<ClauseId>>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        let first_reduce = config.first_reduce;
        Solver {
            config,
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::new(),
            polarity: Vec::new(),
            learnts: Vec::new(),
            ok: true,
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_clear: Vec::new(),
            model: Vec::new(),
            conflict_set: Vec::new(),
            stats: SolverStats::default(),
            next_clause_id: 1,
            budget: Budget::unlimited(),
            governor: ResourceGovernor::unlimited(),
            exhaustion: None,
            reduce_limit: first_reduce,
            id_refs: Vec::new(),
            groups: HashMap::new(),
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::UNDEF);
        self.level.push(0);
        self.reason.push(ClauseRef::INVALID);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(var, &self.activity);
        var
    }

    /// Current decision level.
    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Current value of a literal.
    #[inline]
    fn lit_value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].xor_sign(lit.is_negative())
    }

    /// Adds a clause; returns its tracking id, or `None` if the clause was a
    /// tautology (and therefore dropped).
    ///
    /// Duplicate literals are removed. If the clause is falsified outright at
    /// decision level zero the solver becomes permanently UNSAT and
    /// subsequent `solve` calls return [`SolveResult::Unsat`] immediately.
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level zero (the
    /// solver always returns to level zero after `solve`).
    pub fn add_clause(&mut self, lits: &[Lit]) -> Option<ClauseId> {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            // Already UNSAT; accept and ignore.
            return None;
        }
        let mut sorted: Vec<Lit> = lits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // Tautology check: p and !p adjacent after sort.
        for w in sorted.windows(2) {
            if w[0].var() == w[1].var() {
                return None;
            }
        }
        let id = ClauseId(self.next_clause_id);
        self.next_clause_id += 1;
        self.stats.original_clauses += 1;
        if sorted.is_empty() {
            self.ok = false;
            return Some(id);
        }
        // Reorder so the first two literals are the "best" watches:
        // true/unassigned literals first, then the highest-level false ones.
        let rank = |s: &Solver, l: Lit| -> u64 {
            match s.lit_value(l) {
                v if v.is_undef() => u64::MAX,
                v if v.is_true() => u64::MAX - 1,
                _ => s.level[l.var().index()] as u64,
            }
        };
        sorted.sort_by_key(|&l| std::cmp::Reverse(rank(self, l)));
        let v0 = self.lit_value(sorted[0]);
        if sorted.len() == 1
            || (v0.is_false())
            || (self.lit_value(sorted[1]).is_false() && !v0.is_true())
        {
            // Zero or one watchable literal: the clause is conflicting or unit
            // at level 0 (all assignments here are level-0 assignments).
            if v0.is_false() {
                self.ok = false;
                return Some(id);
            }
            if v0.is_true() {
                // Satisfied at level 0 for good: nothing to store.
                return Some(id);
            }
            // Unit under level-0 assignment.
            let cref = self.db.alloc(&sorted, false);
            self.register_ref(id, cref);
            if sorted.len() >= 2 {
                self.attach(cref);
            }
            self.enqueue(sorted[0], cref);
            if self.propagate().is_some() {
                self.ok = false;
            }
            return Some(id);
        }
        let cref = self.db.alloc(&sorted, false);
        self.register_ref(id, cref);
        self.attach(cref);
        Some(id)
    }

    /// Records the arena location of an original clause so it can later be
    /// retired by id.
    fn register_ref(&mut self, id: ClauseId, cref: ClauseRef) {
        let idx = id.0 as usize;
        if self.id_refs.len() <= idx {
            self.id_refs.resize(idx + 1, ClauseRef::INVALID);
        }
        self.id_refs[idx] = cref;
    }

    /// Sets the resource budget for subsequent solve calls.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Installs the pipeline-wide [`ResourceGovernor`]. Its deadline,
    /// lifetime conflict/propagation caps, memory ceiling, and shared
    /// cancellation token are enforced in addition to the per-call
    /// [`Budget`]; any trip makes solve calls answer
    /// [`SolveResult::Unknown`] with the trail back at level 0 and the
    /// reason readable via [`Solver::exhaustion_reason`].
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.governor = governor;
    }

    /// The installed governor (unlimited by default).
    pub fn governor(&self) -> &ResourceGovernor {
        &self.governor
    }

    /// Why the most recent solve call returned
    /// [`SolveResult::Unknown`], or `None` if it did not.
    pub fn exhaustion_reason(&self) -> Option<ExhaustionReason> {
        self.exhaustion
    }

    /// Accounted memory in bytes: live clause-arena words plus
    /// watcher-list entries — the two structures that grow with learned
    /// clauses. This is what the governor's memory ceiling is compared
    /// against, at GC points and periodically during search.
    pub fn memory_bytes(&self) -> usize {
        let arena = self.db.capacity_words() * std::mem::size_of::<u32>();
        let watchers: usize = self
            .watches
            .iter()
            .map(|w| w.len() * std::mem::size_of::<Watcher>())
            .sum();
        arena + watchers
    }

    /// The memory ceiling, checked only when one is set (the accounting
    /// walk is O(vars)).
    fn memory_tripped(&self) -> Option<ExhaustionReason> {
        if self.governor.memory_limit().is_some() {
            self.governor.check_memory(self.memory_bytes())
        } else {
            None
        }
    }

    /// Full governor check — cancellation, deadline, lifetime caps,
    /// memory ceiling — used at solve entry so an already-tripped
    /// governor refuses new work immediately.
    fn governor_exhausted(&self) -> Option<ExhaustionReason> {
        self.governor
            .poll()
            .or_else(|| {
                self.governor
                    .check_counters(self.stats.conflicts, self.stats.propagations)
            })
            .or_else(|| self.memory_tripped())
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Solves without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals — the incremental-BMC
    /// entry point.
    ///
    /// Assumptions are temporary unit constraints: they hold for this call
    /// only and leave the clause database untouched, so one long-lived
    /// solver can answer a different query at every BMC bound while keeping
    /// all learned clauses. On [`SolveResult::Unsat`],
    /// [`Solver::failed_assumptions`] names the subset of assumptions the
    /// refutation needed.
    ///
    /// # Examples
    ///
    /// ```
    /// use emm_sat::{SolveResult, Solver};
    /// let mut s = Solver::new();
    /// let a = s.new_var().positive();
    /// let b = s.new_var().positive();
    /// s.add_clause(&[!a, b]);
    /// // Query 1: under `a`, propagation forces `b`.
    /// assert_eq!(s.solve_with(&[a]), SolveResult::Sat);
    /// assert_eq!(s.model_value(b), Some(true));
    /// // Query 2: the same solver, incompatible assumptions.
    /// assert_eq!(s.solve_with(&[a, !b]), SolveResult::Unsat);
    /// assert!(!s.failed_assumptions().is_empty());
    /// // The formula itself is untouched.
    /// assert_eq!(s.solve(), SolveResult::Sat);
    /// ```
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.model.clear();
        self.conflict_set.clear();
        self.exhaustion = None;
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        if let Some(reason) = self.governor_exhausted() {
            self.exhaustion = Some(reason);
            self.cancel_until(0);
            return SolveResult::Unknown;
        }

        let conflicts_at_start = self.stats.conflicts;
        let mut restart_count = 0u64;
        let result = loop {
            let max_conflicts = luby(restart_count) * self.config.restart_base;
            restart_count += 1;
            match self.search(max_conflicts, assumptions, conflicts_at_start) {
                SearchOutcome::Sat => break SolveResult::Sat,
                SearchOutcome::Unsat => break SolveResult::Unsat,
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
                SearchOutcome::BudgetExhausted => break SolveResult::Unknown,
            }
        };
        if result == SolveResult::Sat {
            self.model = self.assigns.clone();
        }
        self.cancel_until(0);
        result
    }

    /// Retires (physically deletes) an original clause: its watchers are
    /// removed, its arena space is reclaimed by the next garbage
    /// collection, and propagation never sees it again. Returns `true` if
    /// the clause was live and is now gone.
    ///
    /// # Soundness contract
    ///
    /// Learned clauses derived from the retired clause are **kept**, so the
    /// caller must only retire clauses that are *redundant* — entailed by
    /// the clauses that remain. The two patterns the BMC stack uses:
    ///
    /// * the Tseitin definition of a variable no remaining clause
    ///   references (a gate output substituted away by SAT sweeping) —
    ///   definitional extensions can be removed because any model of the
    ///   rest extends to the defined variable, which also repairs every
    ///   learned clause over it;
    /// * a clause satisfied by a level-0 unit (an activation-group clause
    ///   after [`Solver::retire_group`] asserted the group literal false).
    ///
    /// Retiring a clause that is *not* redundant weakens the formula and
    /// can change answers.
    ///
    /// # Examples
    ///
    /// ```
    /// use emm_sat::{SolveResult, Solver};
    /// let mut s = Solver::new();
    /// let a = s.new_var().positive();
    /// let out = s.new_var().positive();
    /// // out = a & a, Tseitin-style; nothing else references `out`.
    /// let c1 = s.add_clause(&[!out, a]).unwrap();
    /// let c2 = s.add_clause(&[out, !a]).unwrap();
    /// assert!(s.retire_clause(c1));
    /// assert!(s.retire_clause(c2));
    /// assert!(!s.retire_clause(c1), "already retired");
    /// assert_eq!(s.stats().retired_clauses, 2);
    /// assert_eq!(s.solve(), SolveResult::Sat);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level zero.
    pub fn retire_clause(&mut self, id: ClauseId) -> bool {
        assert_eq!(self.decision_level(), 0, "retire at level 0 only");
        let Some(&cref) = self.id_refs.get(id.0 as usize) else {
            return false;
        };
        if !cref.is_valid() {
            return false;
        }
        debug_assert!(!self.db.is_learnt(cref), "only original clauses retire");
        self.id_refs[id.0 as usize] = ClauseRef::INVALID;
        if self.db.len(cref) >= 2 {
            self.detach(cref);
        }
        // If the clause is the recorded reason of a level-0 assignment it
        // would dangle after deletion; the assignment itself is permanent,
        // so it degrades to a reason-less (root) assignment.
        let lits: Vec<Lit> = self.db.lits(cref).to_vec();
        for l in lits {
            let v = l.var().index();
            if self.reason[v] == cref {
                self.reason[v] = ClauseRef::INVALID;
            }
        }
        self.db.delete(cref);
        self.stats.retired_clauses += 1;
        self.governor.note(FaultSite::RetiredClause);
        if self.db.wasted() * 3 > self.db.capacity_words() {
            self.collect_garbage();
        }
        true
    }

    /// Creates an **activation group**: a fresh literal `g` guarding every
    /// clause later added through [`Solver::add_clause_in_group`]. Such
    /// clauses are enforced only while `g` is passed as an assumption, and
    /// the whole group can later be permanently removed with
    /// [`Solver::retire_group`] — the mechanism behind per-bound property
    /// clauses in the incremental BMC loop.
    pub fn new_activation_group(&mut self) -> Lit {
        let g = self.new_var().positive();
        self.groups.insert(g.var(), Vec::new());
        g
    }

    /// Adds `lits` as a clause of activation group `group`: the stored
    /// clause is `¬group ∨ lits…`, inert unless `group` is assumed.
    ///
    /// # Examples
    ///
    /// ```
    /// use emm_sat::{SolveResult, Solver};
    /// let mut s = Solver::new();
    /// let x = s.new_var().positive();
    /// let g = s.new_activation_group();
    /// s.add_clause_in_group(g, &[x]);
    /// // Active only under the group assumption.
    /// assert_eq!(s.solve_with(&[g, !x]), SolveResult::Unsat);
    /// assert_eq!(s.solve_with(&[!x]), SolveResult::Sat);
    /// // Retiring deletes the group's clauses for good.
    /// assert_eq!(s.retire_group(g), 1);
    /// assert_eq!(s.solve_with(&[!x]), SolveResult::Sat);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `group` was not created by [`Solver::new_activation_group`]
    /// or has already been retired.
    pub fn add_clause_in_group(&mut self, group: Lit, lits: &[Lit]) -> Option<ClauseId> {
        assert!(
            self.groups.contains_key(&group.var()),
            "unknown or retired activation group"
        );
        let mut guarded = Vec::with_capacity(lits.len() + 1);
        guarded.push(!group);
        guarded.extend_from_slice(lits);
        let id = self.add_clause(&guarded);
        if let Some(id) = id {
            self.groups.get_mut(&group.var()).expect("checked").push(id);
        }
        id
    }

    /// Permanently dissolves an activation group: asserts `¬group` as a
    /// unit (so the group's clauses become level-0 satisfied, which makes
    /// their physical removal sound) and retires every clause added under
    /// it. Returns the number of clauses physically retired.
    ///
    /// Calling it on an unknown or already-retired group returns 0.
    pub fn retire_group(&mut self, group: Lit) -> usize {
        let Some(ids) = self.groups.remove(&group.var()) else {
            return 0;
        };
        self.add_clause(&[!group]);
        let mut retired = 0usize;
        for id in ids {
            if self.retire_clause(id) {
                retired += 1;
            }
        }
        retired
    }

    /// Value of `lit` in the model of the last [`SolveResult::Sat`] answer.
    ///
    /// Returns `None` if no model is available or the variable was created
    /// after the last solve.
    pub fn model_value(&self, lit: Lit) -> Option<bool> {
        self.model
            .get(lit.var().index())
            .and_then(|v| v.xor_sign(lit.is_negative()).to_option())
    }

    /// The subset of assumptions responsible for the last UNSAT answer.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_set
    }

    /// Attempts to prove that the clauses added so far entail `a ≡ b`,
    /// spending at most `max_conflicts` conflicts per implication direction.
    ///
    /// Returns `Some(true)` when both `a → b` and `b → a` are entailed,
    /// `Some(false)` when a model separates the two literals, and `None`
    /// when the conflict budget ran out before an answer. The caller's
    /// [`Budget`] is saved and restored around the check, and the model /
    /// failed-assumption state of a previous solve is clobbered like any
    /// other `solve_with` call — callers (SAT sweeping) run between
    /// encoding and solving, where that state is dead.
    pub fn prove_equiv(&mut self, a: Lit, b: Lit, max_conflicts: u64) -> Option<bool> {
        if a == b {
            return Some(true);
        }
        let saved = self.budget.clone();
        self.set_budget(Budget::conflicts(max_conflicts));
        let forward = self.solve_with(&[a, !b]);
        let result = match forward {
            SolveResult::Sat => Some(false),
            SolveResult::Unknown => None,
            SolveResult::Unsat => match self.solve_with(&[!a, b]) {
                SolveResult::Sat => Some(false),
                SolveResult::Unknown => None,
                SolveResult::Unsat => Some(true),
            },
        };
        self.set_budget(saved);
        result
    }

    /// Suggested initial phase for `var` when it is next decided.
    pub fn set_polarity(&mut self, var: Var, positive: bool) {
        self.polarity[var.index()] = positive;
    }

    /// Returns `true` if an empty clause has been derived (formula UNSAT
    /// regardless of assumptions).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    // ------------------------------------------------------------------
    // Search internals
    // ------------------------------------------------------------------

    fn search(
        &mut self,
        max_restart_conflicts: u64,
        assumptions: &[Lit],
        conflicts_at_start: u64,
    ) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            // Cooperative cancellation: one atomic load per propagation
            // round bounds the latency from token-set to return by a
            // single propagate/analyze cycle.
            if self.governor.is_cancelled() {
                self.exhaustion = Some(ExhaustionReason::Cancelled);
                return SearchOutcome::BudgetExhausted;
            }
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                conflicts_here += 1;
                self.governor.note(FaultSite::Conflict);
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict among assumption levels: compute failed set.
                    self.analyze_final_conflict(confl);
                    return SearchOutcome::Unsat;
                }
                let (learnt, backtrack) = self.analyze(confl);
                self.cancel_until(backtrack);
                self.learn(learnt);
                self.decay_activities();
                if self.stats.learned_clauses > self.reduce_limit {
                    self.reduce_db();
                    self.reduce_limit += self.config.reduce_increment;
                    // A GC point: the arena was just compacted, so the
                    // accounted bytes reflect live clauses only.
                    if let Some(reason) = self.memory_tripped() {
                        self.exhaustion = Some(reason);
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                if let Some(max) = self.budget.max_conflicts {
                    if self.stats.conflicts - conflicts_at_start >= max {
                        self.exhaustion = Some(ExhaustionReason::ConflictLimit);
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                if let Some(reason) = self
                    .governor
                    .check_counters(self.stats.conflicts, self.stats.propagations)
                {
                    self.exhaustion = Some(reason);
                    return SearchOutcome::BudgetExhausted;
                }
                if self.stats.conflicts.is_multiple_of(1024) {
                    let deadline = match (self.budget.deadline, self.governor.deadline()) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    if let Some(deadline) = deadline {
                        if Instant::now() >= deadline {
                            self.exhaustion = Some(ExhaustionReason::Deadline);
                            return SearchOutcome::BudgetExhausted;
                        }
                    }
                    if let Some(reason) = self.memory_tripped() {
                        self.exhaustion = Some(reason);
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                if conflicts_here >= max_restart_conflicts
                    && self.decision_level() > assumptions.len() as u32
                {
                    return SearchOutcome::Restart;
                }
            } else {
                // No conflict: establish assumptions, then decide.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        v if v.is_true() => {
                            // Already satisfied: dummy level keeps indices aligned.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        v if v.is_false() => {
                            self.analyze_final_assumption(p);
                            return SearchOutcome::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, ClauseRef::INVALID);
                            continue;
                        }
                    }
                }
                // Decide.
                let next = loop {
                    match self.order.pop_max(&self.activity) {
                        Some(v) if self.assigns[v.index()].is_undef() => break Some(v),
                        Some(_) => continue,
                        None => break None,
                    }
                };
                match next {
                    None => return SearchOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(v, self.polarity[v.index()]);
                        self.enqueue(lit, ClauseRef::INVALID);
                    }
                }
            }
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        debug_assert!(lits.len() >= 2);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        debug_assert!(self.lit_value(lit).is_undef());
        let v = lit.var().index();
        self.assigns[v] = LBool::from_bool(lit.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut i = 0usize;
            let mut j = 0usize;
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict = None;
            'watchers: while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                if self.lit_value(w.blocker).is_true() {
                    watchers[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is position 1.
                let false_lit = !p;
                {
                    let lits = self.db.lits_mut(cref);
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.db.lits(cref)[0];
                if first != w.blocker && self.lit_value(first).is_true() {
                    watchers[j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.len(cref);
                for k in 2..len {
                    let lk = self.db.lits(cref)[k];
                    if !self.lit_value(lk).is_false() {
                        self.db.lits_mut(cref).swap(1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                watchers[j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first).is_false() {
                    // Conflict: copy remaining watchers and bail.
                    while i < watchers.len() {
                        watchers[j] = watchers[i];
                        i += 1;
                        j += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, cref);
                }
            }
            watchers.truncate(j);
            self.watches[p.code()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis; returns the learnt clause (UIP first) and
    /// the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for UIP
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        loop {
            self.bump_clause(confl);
            let lits: Vec<Lit> = self.db.lits(confl).to_vec();
            let start = if p.is_some() { 1 } else { 0 };
            for &q in &lits[start..] {
                let v = q.var();
                if self.seen[v.index()] == 0 {
                    let lvl = self.level[v.index()];
                    if lvl == 0 {
                        // Resolved away by a level-0 unit.
                        continue;
                    }
                    self.seen[v.index()] = 1;
                    self.bump_var(v);
                    if lvl >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] != 0 {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = 0;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            confl = self.reason[lit.var().index()];
            debug_assert!(confl.is_valid(), "non-UIP literal must have a reason");
        }
        learnt[0] = !p.expect("UIP literal");

        // Mark remaining seen vars for minimization cleanup.
        self.analyze_clear.clear();
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = 1;
            self.analyze_clear.push(l.var());
        }
        // Recursive minimization: drop literals implied by the rest.
        let mut kept = vec![learnt[0]];
        for &l in &learnt[1..] {
            if !self.reason[l.var().index()].is_valid() || !self.lit_redundant(l) {
                kept.push(l);
            }
        }
        for v in self.analyze_clear.drain(..) {
            self.seen[v.index()] = 0;
        }
        let mut learnt = kept;

        // Compute backtrack level: second-highest level in the clause.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, backtrack)
    }

    /// Returns `true` if `lit` is implied by the other literals of the
    /// learnt clause (its reason tree bottoms out in seen literals).
    fn lit_redundant(&mut self, lit: Lit) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(lit);
        let top = self.analyze_clear.len();
        while let Some(l) = self.analyze_stack.pop() {
            let cref = self.reason[l.var().index()];
            debug_assert!(cref.is_valid());
            let lits: Vec<Lit> = self.db.lits(cref).to_vec();
            for &q in &lits[1..] {
                let v = q.var();
                if self.seen[v.index()] == 0 {
                    let lvl = self.level[v.index()];
                    if lvl == 0 {
                        continue;
                    }
                    if self.reason[v.index()].is_valid() {
                        self.seen[v.index()] = 1;
                        self.analyze_clear.push(v);
                        self.analyze_stack.push(q);
                    } else {
                        // Hit a decision not in the clause: not redundant.
                        for v in self.analyze_clear.drain(top..) {
                            self.seen[v.index()] = 0;
                        }
                        return false;
                    }
                }
            }
        }
        true
    }

    fn learn(&mut self, learnt: Vec<Lit>) {
        let cref = self.db.alloc(&learnt, true);
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            self.enqueue(learnt[0], cref);
            return;
        }
        let lbd = self.compute_lbd(&learnt);
        self.db.set_lbd(cref, lbd);
        self.bump_clause(cref);
        self.attach(cref);
        self.learnts.push(cref);
        self.stats.learned_clauses += 1;
        self.enqueue(learnt[0], cref);
    }

    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for idx in (bound..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = lit.var();
            self.polarity[v.index()] = lit.is_positive();
            self.assigns[v.index()] = LBool::UNDEF;
            self.reason[v.index()] = ClauseRef::INVALID;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(var, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let act = self.db.activity(cref) + self.cla_inc as f32;
        self.db.set_activity(cref, act);
        if act > 1e20 {
            for &c in &self.learnts {
                let a = self.db.activity(c);
                self.db.set_activity(c, a * 1e-20);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay;
    }

    /// Removes roughly half of the learned clauses (worst LBD/activity
    /// first), then compacts the arena when enough space is wasted.
    fn reduce_db(&mut self) {
        let mut candidates = std::mem::take(&mut self.learnts);
        // Worst clauses first: high LBD, then low activity.
        candidates.sort_by(|&a, &b| {
            let key = |c: ClauseRef| {
                (
                    std::cmp::Reverse(self.db.lbd(c)),
                    self.db.activity(c).to_bits(),
                )
            };
            key(a).cmp(&key(b))
        });
        let keep_from = candidates.len() / 2;
        let mut kept = Vec::with_capacity(candidates.len() - keep_from + 16);
        for (i, &cref) in candidates.iter().enumerate() {
            let locked = self.is_locked(cref);
            let core_quality = self.db.lbd(cref) <= 3;
            if i >= keep_from || locked || core_quality {
                kept.push(cref);
            } else {
                self.detach(cref);
                self.db.delete(cref);
                self.stats.learned_clauses -= 1;
                self.stats.deleted_clauses += 1;
            }
        }
        self.learnts = kept;
        if self.db.wasted() * 3 > self.db.capacity_words() {
            self.collect_garbage();
        }
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lits(cref)[0];
        self.lit_value(first).is_true() && self.reason[first.var().index()] == cref
    }

    fn detach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[(!l0).code()].retain(|w| w.cref != cref);
        self.watches[(!l1).code()].retain(|w| w.cref != cref);
    }

    fn collect_garbage(&mut self) {
        self.stats.gc_runs += 1;
        let mut map: HashMap<ClauseRef, ClauseRef> = HashMap::new();
        self.db.collect_garbage(|old, new| {
            map.insert(old, new);
        });
        let fix = |map: &HashMap<ClauseRef, ClauseRef>, c: &mut ClauseRef| {
            if c.is_valid() {
                *c = *map.get(c).copied().as_ref().unwrap_or(&ClauseRef::INVALID);
            }
        };
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                if let Some(&new) = map.get(&w.cref) {
                    w.cref = new;
                    true
                } else {
                    false
                }
            });
        }
        for r in &mut self.reason {
            fix(&map, r);
        }
        self.learnts.retain_mut(|c| {
            if let Some(&new) = map.get(c) {
                *c = new;
                true
            } else {
                false
            }
        });
        for r in &mut self.id_refs {
            if r.is_valid() {
                *r = map.get(r).copied().unwrap_or(ClauseRef::INVALID);
            }
        }
    }

    // ------------------------------------------------------------------
    // Final conflict analysis (failed assumptions)
    // ------------------------------------------------------------------

    /// Assumption literal `p` is already false: walk its reason chain.
    fn analyze_final_assumption(&mut self, p: Lit) {
        self.conflict_set.clear();
        self.conflict_set.push(p);
        if self.level[p.var().index()] == 0 {
            // !p holds at level 0: p alone is the failed assumption.
            return;
        }
        // Walk backwards from !p through reasons.
        self.analyze_final_walk(vec![!p]);
    }

    /// Conflict while all decisions are assumptions: failed set from the
    /// conflicting clause.
    fn analyze_final_conflict(&mut self, confl: ClauseRef) {
        self.conflict_set.clear();
        let seeds: Vec<Lit> = self.db.lits(confl).to_vec();
        self.analyze_final_walk(seeds);
    }

    /// Shared reason-graph walk for final conflicts. `seeds` are false
    /// literals; assumption decisions reached are added to the conflict
    /// set.
    fn analyze_final_walk(&mut self, seeds: Vec<Lit>) {
        let mut stack: Vec<Var> = Vec::new();
        for l in &seeds {
            let v = l.var();
            if self.level[v.index()] > 0 && self.seen[v.index()] == 0 {
                self.seen[v.index()] = 1;
                stack.push(v);
            }
        }
        let mut cleanup = stack.clone();
        while let Some(v) = stack.pop() {
            let r = self.reason[v.index()];
            if !r.is_valid() {
                // A decision: under assumption solving all decisions at these
                // levels are assumptions.
                let val = self.assigns[v.index()];
                let lit = Lit::new(v, val.is_true());
                self.conflict_set.push(lit);
                continue;
            }
            let lits: Vec<Lit> = self.db.lits(r).to_vec();
            for q in lits {
                let qv = q.var();
                if qv == v {
                    continue;
                }
                if self.level[qv.index()] > 0 && self.seen[qv.index()] == 0 {
                    self.seen[qv.index()] = 1;
                    cleanup.push(qv);
                    stack.push(qv);
                }
            }
        }
        for v in cleanup {
            self.seen[v.index()] = 0;
        }
        self.conflict_set.sort_unstable_by_key(|l| l.code());
        self.conflict_set.dedup();
    }
}

#[derive(Debug, PartialEq, Eq)]
enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[!v[0]]);
        s.add_clause(&[!v[1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(!s.is_ok());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 5);
        for i in 0..4 {
            s.add_clause(&[!v[i], v[i + 1]]);
        }
        s.add_clause(&[v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for (i, &l) in v.iter().enumerate() {
            assert_eq!(s.model_value(l), Some(true), "v{i}");
        }
    }

    #[test]
    fn model_respects_all_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![v[0], v[1], v[2]],
            vec![!v[0], v[3]],
            vec![!v[1], !v[3]],
            vec![!v[2], v[1]],
            vec![v[2], v[3]],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&l| s.model_value(l) == Some(true)),
                "clause {c:?} not satisfied"
            );
        }
    }

    /// Pigeonhole principle PHP(n+1, n) is unsatisfiable and requires real
    /// conflict-driven search.
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let mut p = vec![vec![]; pigeons];
        for row in p.iter_mut() {
            *row = (0..holes)
                .map(|_| s.new_var().positive())
                .collect::<Vec<_>>();
        }
        for row in &p {
            s.add_clause(row);
        }
        for h in 0..holes {
            for i in 0..pigeons {
                for j in i + 1..pigeons {
                    s.add_clause(&[!p[i][h], !p[j][h]]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=6 {
            let mut s = Solver::new();
            pigeonhole(&mut s, n + 1, n);
            assert_eq!(s.solve(), SolveResult::Unsat, "PHP({},{})", n + 1, n);
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 5);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumptions_and_failed_set() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // a & b -> false; c free.
        s.add_clause(&[!v[0], !v[1]]);
        assert_eq!(s.solve_with(&[v[0], v[1], v[2]]), SolveResult::Unsat);
        let failed = s.failed_assumptions().to_vec();
        assert!(failed.contains(&v[0]) || failed.contains(&v[1]));
        assert!(
            !failed.contains(&v[2]),
            "irrelevant assumption in failed set"
        );
        // Solver remains usable.
        assert_eq!(s.solve_with(&[v[0], v[2]]), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
        assert_eq!(s.model_value(v[1]), Some(false));
        let _ = v[3];
    }

    #[test]
    fn assumption_false_at_level0() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve_with(&[v[0]]), SolveResult::Unsat);
        assert_eq!(s.failed_assumptions(), &[v[0]]);
        assert_eq!(s.solve_with(&[v[1]]), SolveResult::Sat);
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[!v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[2]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_dropped() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[v[0], !v[0]]).is_none());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0], v[0], v[1]]);
        s.add_clause(&[!v[0]]);
        s.add_clause(&[!v[1], !v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9, 8);
        s.set_budget(Budget::conflicts(10));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Group cores in selector form: every clause sits in its own
    /// activation group, and the failed assumptions of the UNSAT answer
    /// name the relevant groups and never the irrelevant one.
    #[test]
    fn core_excludes_irrelevant_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let clauses = [vec![v[2], v[3]], vec![v[0]], vec![!v[0], v[1]], vec![!v[1]]];
        let groups: Vec<Lit> = clauses
            .iter()
            .map(|c| {
                let g = s.new_activation_group();
                s.add_clause_in_group(g, c);
                g
            })
            .collect();
        assert_eq!(s.solve_with(&groups), SolveResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        for &relevant in &groups[1..] {
            assert!(
                core.contains(&relevant),
                "{relevant:?} missing from {core:?}"
            );
        }
        assert!(!core.contains(&groups[0]), "irrelevant group in {core:?}");
        assert_eq!(s.solve_with(&[groups[0]]), SolveResult::Sat);
    }

    #[test]
    fn luby_sequence() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn phase_saving_keeps_model_stable() {
        let mut s = Solver::new();
        let v = vars(&mut s, 6);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[2], v[3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let before: Vec<_> = v.iter().map(|&l| s.model_value(l)).collect();
        assert_eq!(s.solve(), SolveResult::Sat);
        let after: Vec<_> = v.iter().map(|&l| s.model_value(l)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn solver_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Solver>();
    }

    /// Audits the two-watched-literal invariants after heavy search: every
    /// watcher references a live clause, watches one of its first two
    /// literals, and caches a blocker that is a *different* literal of the
    /// same clause. Learned-clause reduction and arena GC both rewrite the
    /// watch lists, so drive enough conflicts to trigger them first.
    #[test]
    fn watcher_blockers_stay_within_their_clause() {
        let mut s = Solver::with_config(SolverConfig {
            first_reduce: 50,
            reduce_increment: 50,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 8, 7);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats.deleted_clauses > 0, "reduction must have run");
        let mut checked = 0usize;
        for code in 0..s.watches.len() {
            let p = Lit::from_code(code);
            for w in &s.watches[code] {
                let lits = s.db.lits(w.cref);
                assert!(
                    lits[0] == !p || lits[1] == !p,
                    "watched literal {:?} not in the first two of {:?}",
                    !p,
                    lits
                );
                assert!(
                    lits.contains(&w.blocker),
                    "blocker {:?} is not a literal of {:?}",
                    w.blocker,
                    lits
                );
                assert_ne!(
                    w.blocker, !p,
                    "blocker must differ from the watched literal"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no watchers inspected");
    }

    /// Retiring the Tseitin definition of an otherwise-unreferenced output
    /// variable keeps answers over the remaining variables intact, even
    /// after search learned clauses from the definition.
    #[test]
    fn retire_definition_preserves_answers() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let out = s.new_var().positive();
        // out = v0 & v1.
        let ids: Vec<ClauseId> = [
            s.add_clause(&[!out, v[0]]),
            s.add_clause(&[!out, v[1]]),
            s.add_clause(&[out, !v[0], !v[1]]),
        ]
        .into_iter()
        .flatten()
        .collect();
        s.add_clause(&[v[0], v[2]]);
        assert_eq!(s.solve_with(&[out]), SolveResult::Sat);
        for id in ids {
            assert!(s.retire_clause(id));
        }
        assert_eq!(s.stats().retired_clauses, 3);
        // The rest of the formula is unchanged.
        assert_eq!(s.solve_with(&[!v[0], !v[2]]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[!v[0], v[2]]), SolveResult::Sat);
        // `out` itself is now unconstrained.
        assert_eq!(s.solve_with(&[out, !v[0]]), SolveResult::Sat);
    }

    /// A retired clause that was the level-0 reason of a propagated literal
    /// must not leave a dangling reason pointer behind.
    #[test]
    fn retire_level0_reason_clause() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        let id = s.add_clause(&[!v[0], v[1]]).expect("id");
        s.add_clause(&[v[0]]); // propagates v1 at level 0 with reason `id`
        assert!(s.retire_clause(id));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true), "assignment is permanent");
        // Heavy search afterwards must stay sound (reason walks, GC).
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Retired space is compacted: enough retirements trigger a GC, and
    /// ids keep resolving correctly across the relocation.
    #[test]
    fn retirement_triggers_gc_and_ids_survive() {
        let mut s = Solver::new();
        let v = vars(&mut s, 8);
        let mut ids = Vec::new();
        for i in 0..6 {
            for j in i + 1..7 {
                ids.push(s.add_clause(&[v[i], v[j], v[7]]).expect("id"));
            }
        }
        let keep = ids.split_off(ids.len() / 2);
        for id in ids {
            assert!(s.retire_clause(id));
        }
        assert!(s.stats().gc_runs > 0, "bulk retirement must compact");
        // Clauses kept across the GC still retire by their stable id.
        for id in keep {
            assert!(s.retire_clause(id));
        }
        assert_eq!(s.solve_with(&[!v[7]]), SolveResult::Sat);
    }

    #[test]
    fn activation_group_lifecycle() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        let g1 = s.new_activation_group();
        let g2 = s.new_activation_group();
        s.add_clause_in_group(g1, &[v[0]]);
        s.add_clause_in_group(g1, &[!v[0], v[1]]);
        s.add_clause_in_group(g2, &[!v[1]]);
        // Groups compose through assumptions.
        assert_eq!(s.solve_with(&[g1]), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
        assert_eq!(s.solve_with(&[g1, g2]), SolveResult::Unsat);
        // Retiring g1 deletes its two clauses and deactivates it for good.
        assert_eq!(s.retire_group(g1), 2);
        assert_eq!(s.retire_group(g1), 0, "second retire is a no-op");
        assert_eq!(s.solve_with(&[g2, !v[0]]), SolveResult::Sat);
        assert_eq!(s.stats().retired_clauses, 2);
    }

    /// Assuming a retired group is simply UNSAT-under-assumption (its
    /// literal is pinned false), not an error — callers holding a stale
    /// activation literal get a clean answer.
    #[test]
    fn retired_group_assumption_fails_cleanly() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        let g = s.new_activation_group();
        s.add_clause_in_group(g, &[v[0]]);
        s.retire_group(g);
        assert_eq!(s.solve_with(&[g]), SolveResult::Unsat);
        assert_eq!(s.failed_assumptions(), &[g]);
    }

    /// After a mid-search budget exhaustion the solver must be reusable:
    /// trail back at decision level 0, assumptions cleared (they were
    /// temporary), and subsequent solves — with or without assumptions —
    /// answer correctly on the same instance.
    #[test]
    fn state_clean_after_budget_exhaustion() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9, 8);
        let extra = s.new_var().positive();
        s.set_budget(Budget::conflicts(10));
        assert_eq!(s.solve_with(&[extra]), SolveResult::Unknown);
        assert_eq!(s.exhaustion_reason(), Some(ExhaustionReason::ConflictLimit));
        // Level-0 clean: no decisions or assumption levels left behind.
        assert_eq!(s.decision_level(), 0);
        assert!(s.trail.iter().all(|l| s.level[l.var().index()] == 0));
        assert!(
            s.assigns[extra.var().index()].is_undef(),
            "assumption must not outlive the exhausted call"
        );
        // The same solver answers correctly once the budget is raised,
        // both under the old assumption and its negation.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve_with(&[extra]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[!extra]), SolveResult::Unsat);
    }

    /// Cooperative cancellation: a pre-set token makes the solve answer
    /// `Unknown` immediately; clearing it restores full function.
    #[test]
    fn cancellation_token_stops_and_resumes() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 4);
        let gov = ResourceGovernor::unlimited();
        s.set_governor(gov.clone());
        gov.cancel();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.exhaustion_reason(), Some(ExhaustionReason::Cancelled));
        gov.reset_cancellation();
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.exhaustion_reason(), None);
    }

    /// The fault injector trips cancellation after exactly the Nth
    /// conflict, deterministically.
    #[test]
    fn fault_injection_trips_after_nth_conflict() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9, 8);
        s.set_governor(ResourceGovernor::unlimited().with_fault(FaultSite::Conflict, 7));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.exhaustion_reason(), Some(ExhaustionReason::Cancelled));
        assert_eq!(
            s.stats().conflicts,
            7,
            "stopped right after the 7th conflict"
        );
        s.set_governor(ResourceGovernor::unlimited());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Governor work caps are lifetime caps: once the solver's total
    /// conflicts pass the cap, every solve answers `Unknown` until the
    /// governor is replaced.
    #[test]
    fn governor_conflict_cap_is_lifetime() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9, 8);
        s.set_governor(ResourceGovernor::unlimited().with_max_conflicts(20));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.exhaustion_reason(), Some(ExhaustionReason::ConflictLimit));
        assert_eq!(s.solve(), SolveResult::Unknown, "still capped");
        s.set_governor(ResourceGovernor::unlimited());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn governor_propagation_cap_trips() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9, 8);
        s.set_governor(ResourceGovernor::unlimited().with_max_propagations(50));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(
            s.exhaustion_reason(),
            Some(ExhaustionReason::PropagationLimit)
        );
    }

    /// The memory ceiling is honest: a ceiling below the current
    /// accounted bytes refuses work, one above them lets learning run
    /// until growth trips it, and raising the ceiling resumes to the
    /// real answer on the same solver.
    #[test]
    fn memory_ceiling_degrades_and_resumes() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9, 8);
        assert!(s.memory_bytes() > 0);
        s.set_governor(ResourceGovernor::unlimited().with_memory_limit(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.exhaustion_reason(), Some(ExhaustionReason::MemoryLimit));
        let headroom = s.memory_bytes() + 2048;
        s.set_governor(ResourceGovernor::unlimited().with_memory_limit(headroom));
        assert_eq!(s.solve(), SolveResult::Unknown, "learning outgrows 2 KiB");
        assert_eq!(s.exhaustion_reason(), Some(ExhaustionReason::MemoryLimit));
        s.set_governor(ResourceGovernor::unlimited());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Pins the `Budget::with_earlier_deadline` min-combine rule the BMC
    /// engine relies on: the earlier deadline always wins, `None` defers.
    #[test]
    fn budget_deadline_min_combine() {
        let near = Instant::now() + std::time::Duration::from_secs(5);
        let far = near + std::time::Duration::from_secs(100);
        let cases = [
            (None, None, None),
            (Some(near), None, Some(near)),
            (None, Some(near), Some(near)),
            (Some(near), Some(far), Some(near)),
            (Some(far), Some(near), Some(near)),
        ];
        for (own, other, want) in cases {
            let b = Budget {
                max_conflicts: Some(3),
                deadline: own,
            };
            let combined = b.with_earlier_deadline(other);
            assert_eq!(combined.deadline, want, "own={own:?} other={other:?}");
            assert_eq!(combined.max_conflicts, Some(3));
        }
    }

    /// The blocker fast path must never change answers: solve the same
    /// instances with propagation exercised through repeated incremental
    /// calls under assumptions.
    #[test]
    fn propagation_answers_stable_across_incremental_calls() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 5);
        let extra: Vec<Lit> = (0..4).map(|_| s.new_var().positive()).collect();
        s.add_clause(&[extra[0], extra[1]]);
        s.add_clause(&[!extra[1], extra[2]]);
        for round in 0..20 {
            let a = extra[round % 4];
            let r1 = s.solve_with(&[a]);
            let r2 = s.solve_with(&[a]);
            assert_eq!(r1, r2, "round {round}: nondeterministic answer under {a:?}");
        }
    }
}
