//! Pipeline-wide resource governance: deadlines, work caps, a memory
//! ceiling, and cooperative cancellation.
//!
//! [`Budget`](crate::Budget) limits a *single solve call*; the
//! [`ResourceGovernor`] governs the *whole verification pipeline*. One
//! governor is threaded from `PipelineOptions` through the reduction passes
//! (rewrite, fraig), the EMM constraint encoder, and both incremental
//! solvers, so a job-level deadline or a dispatcher's cancellation request
//! reaches every loop that can run long. The contract at every poll point
//! is *graceful degradation*: a tripped governor makes the pass stop early
//! and return its best-so-far result with honest stats, and makes the
//! solver return `Unknown` with a level-0-clean trail — never a wrong
//! answer, never a corrupted state.
//!
//! Cloning a governor is cheap and shares the cancellation flag (and
//! the fault-injection counter): a dispatcher keeps one clone and calls
//! [`ResourceGovernor::cancel`]; every pipeline stage holding another
//! clone observes the flag at its next poll.
//!
//! For parallel dispatch, [`ResourceGovernor::fork`] derives a *child*
//! governor with the same limits but private cancellation and
//! fault-counter state: each concurrent job gets one fork, so a fault
//! armed with [`ResourceGovernor::with_fault`] trips at the same event
//! count inside every job regardless of worker count or scheduling
//! order — the determinism contract the shared-queue pool relies on.
//! A fork still *observes* its ancestors' cancellation (cancelling the
//! parent stops every job), but cancelling a fork never propagates
//! upward, so one exhausted job cannot take its siblings down.
//!
//! The module also hosts the deterministic **fault injector** used by
//! `crates/bmc/tests/fault_injection.rs`: a governor can be armed to
//! trip cancellation after the Nth occurrence of a named pipeline event
//! ([`FaultSite`]), which lets tests drive exhaustion into every poll
//! point at exact, reproducible moments.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a pipeline stage stopped without an answer.
///
/// Carried by `BmcVerdict::Unknown` (crate `emm-bmc`) and by
/// [`Solver::exhaustion_reason`](crate::Solver::exhaustion_reason)
/// after a [`SolveResult::Unknown`](crate::SolveResult::Unknown).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// A wall-clock deadline passed (per-call [`Budget`](crate::Budget)
    /// deadline or the governor's).
    Deadline,
    /// The conflict cap was reached (per-call or governor-wide).
    ConflictLimit,
    /// The governor's pipeline-wide propagation cap was reached.
    PropagationLimit,
    /// The solver's accounted bytes (clause arena + watcher lists)
    /// exceeded the governor's memory ceiling.
    MemoryLimit,
    /// The shared cancellation token was set.
    Cancelled,
}

impl ExhaustionReason {
    /// Stable lower-case name, used by the bench JSON rows.
    pub fn as_str(self) -> &'static str {
        match self {
            ExhaustionReason::Deadline => "deadline",
            ExhaustionReason::ConflictLimit => "conflict_limit",
            ExhaustionReason::PropagationLimit => "propagation_limit",
            ExhaustionReason::MemoryLimit => "memory_limit",
            ExhaustionReason::Cancelled => "cancelled",
        }
    }
}

/// A named pipeline event the fault injector can count. Each site is a
/// real poll/accounting point in the pipeline; arming a governor with
/// [`ResourceGovernor::with_fault`] trips cancellation when the Nth
/// occurrence is reported via [`ResourceGovernor::note`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A CDCL conflict (solver search loop).
    Conflict,
    /// An original clause physically retired (`Solver::retire_clause`).
    RetiredClause,
    /// A fraig SAT equivalence check issued.
    FraigCheck,
    /// A fraig merge committed.
    FraigMerge,
    /// An EMM address comparator encoded.
    EmmComparator,
    /// A rewrite fixpoint iteration completed.
    RewriteIteration,
    /// A BMC time frame unrolled.
    Frame,
}

/// State shared between every clone of a governor.
#[derive(Debug, Default)]
struct Shared {
    cancel: AtomicBool,
    fault_hits: AtomicU64,
}

/// Pipeline-wide resource limits plus a shared cooperative cancellation
/// token. See the [module docs](self) for how it is threaded through
/// the stack.
///
/// The caps are plain fields copied on clone; the cancellation flag and
/// the fault counter live behind an `Arc`, so all clones trip together.
///
/// # Examples
///
/// ```
/// use emm_sat::{ResourceGovernor, ExhaustionReason};
///
/// let gov = ResourceGovernor::unlimited();
/// let handle = gov.clone(); // a dispatcher keeps this
/// assert_eq!(gov.poll(), None);
/// handle.cancel();
/// assert_eq!(gov.poll(), Some(ExhaustionReason::Cancelled));
/// gov.reset_cancellation();
/// assert_eq!(gov.poll(), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ResourceGovernor {
    deadline: Option<Instant>,
    max_conflicts: Option<u64>,
    max_propagations: Option<u64>,
    memory_limit: Option<usize>,
    fault: Option<(FaultSite, u64)>,
    shared: Arc<Shared>,
    /// Ancestors' shared state, read-only: a fork observes their
    /// cancellation but never writes to it. Empty for root governors.
    upstream: Vec<Arc<Shared>>,
}

impl ResourceGovernor {
    /// A governor with no limits (the default): polls never trip unless
    /// [`ResourceGovernor::cancel`] is called.
    pub fn unlimited() -> ResourceGovernor {
        ResourceGovernor::default()
    }

    /// Returns a copy with the given wall-clock deadline. If a deadline
    /// is already set the earlier one wins.
    pub fn with_deadline(mut self, deadline: Instant) -> ResourceGovernor {
        self.deadline = Some(match self.deadline {
            None => deadline,
            Some(d) => d.min(deadline),
        });
        self
    }

    /// Returns a copy whose deadline is `d` from now (earlier-wins, as
    /// [`ResourceGovernor::with_deadline`]).
    pub fn with_wall_clock(self, d: Duration) -> ResourceGovernor {
        self.with_deadline(Instant::now() + d)
    }

    /// Returns a copy capping total solver conflicts (counted over the
    /// solver's lifetime, not per call).
    pub fn with_max_conflicts(mut self, n: u64) -> ResourceGovernor {
        self.max_conflicts = Some(n);
        self
    }

    /// Returns a copy capping total solver propagations (lifetime).
    pub fn with_max_propagations(mut self, n: u64) -> ResourceGovernor {
        self.max_propagations = Some(n);
        self
    }

    /// Returns a copy with a memory ceiling in bytes, compared against
    /// [`Solver::memory_bytes`](crate::Solver::memory_bytes) (clause
    /// arena + watcher lists) at GC points and periodically in search.
    pub fn with_memory_limit(mut self, bytes: usize) -> ResourceGovernor {
        self.memory_limit = Some(bytes);
        self
    }

    /// Arms the deterministic fault injector: the `n`-th report of
    /// `site` through [`ResourceGovernor::note`] sets the cancellation
    /// flag. `n` counts from 1; `n == 0` trips on the first report.
    pub fn with_fault(mut self, site: FaultSite, n: u64) -> ResourceGovernor {
        self.fault = Some((site, n.max(1)));
        self
    }

    /// The governor's wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The pipeline-wide conflict cap, if any.
    pub fn max_conflicts(&self) -> Option<u64> {
        self.max_conflicts
    }

    /// The pipeline-wide propagation cap, if any.
    pub fn max_propagations(&self) -> Option<u64> {
        self.max_propagations
    }

    /// The memory ceiling in bytes, if any.
    pub fn memory_limit(&self) -> Option<usize> {
        self.memory_limit
    }

    /// Whether the fault injector is armed ([`ResourceGovernor::with_fault`]).
    pub fn is_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Whether `other` sets the same limits and fault arming: the two
    /// differ at most in their cancellation and fault-counter state.
    pub fn same_limits(&self, other: &ResourceGovernor) -> bool {
        (
            self.deadline,
            self.max_conflicts,
            self.max_propagations,
            self.memory_limit,
            self.fault,
        ) == (
            other.deadline,
            other.max_conflicts,
            other.max_propagations,
            other.memory_limit,
            other.fault,
        )
    }

    /// Derives a child governor for one parallel job: same limits and
    /// fault arming, but a *fresh* cancellation flag and fault counter.
    ///
    /// Unlike [`Clone`], which shares state so all clones trip
    /// together, a fork trips independently — N forked jobs each see
    /// the armed fault at the same local event count, which keeps
    /// fault-injection runs bit-identical across worker counts. The
    /// fork still observes every ancestor's cancellation through its
    /// own [`ResourceGovernor::poll`] /
    /// [`ResourceGovernor::is_cancelled`], so cancelling the parent
    /// stops all jobs; cancelling the fork affects only the fork.
    pub fn fork(&self) -> ResourceGovernor {
        let mut upstream = self.upstream.clone();
        upstream.push(Arc::clone(&self.shared));
        ResourceGovernor {
            deadline: self.deadline,
            max_conflicts: self.max_conflicts,
            max_propagations: self.max_propagations,
            memory_limit: self.memory_limit,
            fault: self.fault,
            shared: Arc::new(Shared::default()),
            upstream,
        }
    }

    /// Returns a copy with the fault injector disarmed (limits and
    /// shared cancellation state are kept). Used where a parallel pass
    /// replays fault accounting centrally and must keep the per-job
    /// governors from double-counting the same events.
    pub fn disarmed(mut self) -> ResourceGovernor {
        self.fault = None;
        self
    }

    /// Sets the shared cancellation flag. Every clone of this governor
    /// observes it at its next poll; polling loops return best-so-far
    /// results and the solver returns `Unknown`.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// Whether the shared cancellation flag is set — the governor's own
    /// or, for a [`ResourceGovernor::fork`], any ancestor's.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancel.load(Ordering::Acquire)
            || self
                .upstream
                .iter()
                .any(|s| s.cancel.load(Ordering::Acquire))
    }

    /// Clears the shared cancellation flag (and the fault-injection hit
    /// counter), making the pipeline resumable after a cancellation.
    pub fn reset_cancellation(&self) {
        self.shared.cancel.store(false, Ordering::Release);
        self.shared.fault_hits.store(0, Ordering::Release);
    }

    /// Reports one occurrence of `site` to the fault injector. A no-op
    /// unless the governor was armed with a matching
    /// [`ResourceGovernor::with_fault`]; on the Nth matching report the
    /// cancellation flag is set.
    #[inline]
    pub fn note(&self, site: FaultSite) {
        if let Some((armed, n)) = self.fault {
            if armed == site && self.shared.fault_hits.fetch_add(1, Ordering::AcqRel) + 1 >= n {
                self.cancel();
            }
        }
    }

    /// The cheap poll: cancellation flag, then deadline. This is what
    /// the pass-level loops (fraig candidates, rewrite iterations,
    /// EMM comparators, frame unrolling) call.
    #[inline]
    pub fn poll(&self) -> Option<ExhaustionReason> {
        if self.is_cancelled() {
            return Some(ExhaustionReason::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(ExhaustionReason::Deadline);
            }
        }
        None
    }

    /// Checks the lifetime work caps against the solver's counters.
    #[inline]
    pub fn check_counters(&self, conflicts: u64, propagations: u64) -> Option<ExhaustionReason> {
        if let Some(max) = self.max_conflicts {
            if conflicts >= max {
                return Some(ExhaustionReason::ConflictLimit);
            }
        }
        if let Some(max) = self.max_propagations {
            if propagations >= max {
                return Some(ExhaustionReason::PropagationLimit);
            }
        }
        None
    }

    /// Checks the memory ceiling against the solver's accounted bytes.
    #[inline]
    pub fn check_memory(&self, bytes: usize) -> Option<ExhaustionReason> {
        match self.memory_limit {
            Some(limit) if bytes > limit => Some(ExhaustionReason::MemoryLimit),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancellation_is_shared_between_clones() {
        let gov = ResourceGovernor::unlimited();
        let clone = gov.clone();
        assert!(!clone.is_cancelled());
        gov.cancel();
        assert_eq!(clone.poll(), Some(ExhaustionReason::Cancelled));
        clone.reset_cancellation();
        assert_eq!(gov.poll(), None);
    }

    #[test]
    fn deadline_earlier_wins() {
        let near = Instant::now() + Duration::from_secs(1);
        let far = near + Duration::from_secs(100);
        assert_eq!(
            ResourceGovernor::unlimited()
                .with_deadline(far)
                .with_deadline(near)
                .deadline(),
            Some(near)
        );
        assert_eq!(
            ResourceGovernor::unlimited()
                .with_deadline(near)
                .with_deadline(far)
                .deadline(),
            Some(near)
        );
    }

    #[test]
    fn expired_deadline_trips_poll() {
        let gov = ResourceGovernor::unlimited().with_wall_clock(Duration::ZERO);
        assert_eq!(gov.poll(), Some(ExhaustionReason::Deadline));
    }

    #[test]
    fn counter_caps_trip_in_order() {
        let gov = ResourceGovernor::unlimited()
            .with_max_conflicts(10)
            .with_max_propagations(100);
        assert_eq!(gov.check_counters(9, 99), None);
        assert_eq!(
            gov.check_counters(10, 0),
            Some(ExhaustionReason::ConflictLimit)
        );
        assert_eq!(
            gov.check_counters(0, 100),
            Some(ExhaustionReason::PropagationLimit)
        );
    }

    #[test]
    fn memory_ceiling_trips_strictly_above() {
        let gov = ResourceGovernor::unlimited().with_memory_limit(1024);
        assert_eq!(gov.check_memory(1024), None);
        assert_eq!(gov.check_memory(1025), Some(ExhaustionReason::MemoryLimit));
    }

    #[test]
    fn fault_injector_trips_on_nth_event() {
        let gov = ResourceGovernor::unlimited().with_fault(FaultSite::Conflict, 3);
        gov.note(FaultSite::FraigMerge); // wrong site: ignored
        gov.note(FaultSite::Conflict);
        gov.note(FaultSite::Conflict);
        assert!(!gov.is_cancelled());
        gov.note(FaultSite::Conflict);
        assert!(gov.is_cancelled());
    }

    #[test]
    fn fault_counter_is_shared_between_clones() {
        let gov = ResourceGovernor::unlimited().with_fault(FaultSite::EmmComparator, 2);
        let clone = gov.clone();
        gov.note(FaultSite::EmmComparator);
        clone.note(FaultSite::EmmComparator);
        assert!(gov.is_cancelled());
    }

    #[test]
    fn fork_has_independent_fault_counter() {
        let parent = ResourceGovernor::unlimited().with_fault(FaultSite::FraigCheck, 2);
        let a = parent.fork();
        let b = parent.fork();
        a.note(FaultSite::FraigCheck);
        b.note(FaultSite::FraigCheck);
        // One hit each: neither fork reached its own threshold, and the
        // parent's counter never moved.
        assert!(!a.is_cancelled());
        assert!(!b.is_cancelled());
        assert!(!parent.is_cancelled());
        a.note(FaultSite::FraigCheck);
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn fork_observes_ancestor_cancellation() {
        let parent = ResourceGovernor::unlimited();
        let child = parent.fork();
        let grandchild = child.fork();
        assert!(!grandchild.is_cancelled());
        parent.cancel();
        assert_eq!(child.poll(), Some(ExhaustionReason::Cancelled));
        assert_eq!(grandchild.poll(), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn fork_cancellation_does_not_propagate_upward() {
        let parent = ResourceGovernor::unlimited();
        let a = parent.fork();
        let b = parent.fork();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!parent.is_cancelled());
        assert!(!b.is_cancelled());
    }

    #[test]
    fn disarmed_drops_fault_but_keeps_sharing() {
        let gov = ResourceGovernor::unlimited().with_fault(FaultSite::FraigCheck, 1);
        let quiet = gov.clone().disarmed();
        quiet.note(FaultSite::FraigCheck);
        assert!(!quiet.is_cancelled());
        // Shared state survives the disarm: parent cancellation reaches it.
        gov.cancel();
        assert!(quiet.is_cancelled());
    }
}
