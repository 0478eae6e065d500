//! Efficient Memory Modeling constraints (the paper's contribution).
//!
//! [`EmmEncoder`] implements Sections 3, 4.1 and 4.2 of the paper: at every
//! BMC unrolling depth it emits, per memory and per read port, the
//! constraints that preserve the data-forwarding semantics
//!
//! ```text
//! (E_{j,k,w,r} ∧ WE_{j,w} ∧ RE_{k,r} ∧ ∀p ∀ j<i<k (¬E_{i,k,p,r} ∨ ¬WE_{i,p}))
//!     → (RD_{k,r} = WD_{j,w})                                   — eq. (3)
//! ```
//!
//! using the *exclusive valid-read signals* of eq. (4):
//!
//! ```text
//! PS_{k,k,0,r} = RE_{k,r}
//! PS_{i,k,p,r} = ¬s_{i,k,p,r} ∧ PS_{i,k,p+1,r}    (PS_{i,k,W,r} = PS_{i+1,k,0,r})
//! S_{i,k,p,r}  =  s_{i,k,p,r} ∧ PS_{i,k,p+1,r}
//! ```
//!
//! where `s_{i,k,p,r} = E_{i,k,p,r} ∧ WE_{i,p}`. Once the SAT solver decides
//! some `S_{i,k,p,r} = 1`, every other matching pair is implied invalid
//! immediately — the property the paper credits for the speedup over a naive
//! encoding (provided here too, as [`ForwardingEncoding::Direct`], the
//! reference the exclusive chain is tested against).
//!
//! For memories with **arbitrary initial contents** (Section 4.2), each read
//! access gets a fresh symbolic word `V_{k,r}`; `PS_{0,k,0,r}` is exactly the
//! paper's `N` condition ("no write has occurred to this address"), and
//! eq. (6) consistency constraints tie equal-address initial reads together —
//! the ingredient that makes SAT-based induction proofs sound.
//!
//! Every read-data constraint can be guarded by a **selector literal**
//! (per memory or per read port): assuming the selector activates the
//! constraints, and a failed-assumption core names the memories/ports a
//! refutation actually used — how EMM combines with proof-based abstraction
//! (Section 4.3).

use std::collections::HashMap;

use emm_sat::{CnfSink, FaultSite, Lit, ResourceGovernor};

use crate::iface::{MemoryFrameLits, MemoryShape, PortLits};

/// Granularity of abstraction selectors.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SelectorGranularity {
    /// No selectors; constraints are unconditional.
    #[default]
    None,
    /// One selector per memory module.
    PerMemory,
    /// One selector per (memory, read port).
    PerReadPort,
}

/// Which forwarding encoding to emit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ForwardingEncoding {
    /// The paper's exclusive valid-read chain (eq. (4)) — default.
    #[default]
    Exclusive,
    /// A direct implication encoding of eq. (3) without the one-hot
    /// exclusivity signals (the naive side of the comparison in \[18\]).
    /// No pipeline selects it: it is the reference that
    /// `encodings_are_equivalent` (`crates/core/tests/emm_semantics.rs`)
    /// checks the exclusive chain against.
    Direct,
}

/// Encoder options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmmOptions {
    /// Abstraction selector granularity.
    pub selectors: SelectorGranularity,
    /// Forwarding encoding.
    pub encoding: ForwardingEncoding,
    /// Emit eq. (6) initial-state consistency constraints for arbitrary-init
    /// memories. Disabling reproduces the paper's remark that correctness of
    /// quicksort's P1/P2 "can not be shown without adding these constraints".
    pub skip_init_consistency: bool,
    /// Memoize address-equality comparators: when the same pair of address
    /// literal vectors is compared again (common once BMC unrolling makes
    /// address cones reuse earlier frames' literals), the cached equality
    /// literal is returned instead of re-encoding the `4m + 1` clauses of
    /// Section 3 — this covers both the forwarding comparisons and the
    /// eq. (6) pairs. On by default.
    pub comparator_cache: bool,
}

impl Default for EmmOptions {
    fn default() -> EmmOptions {
        EmmOptions {
            selectors: SelectorGranularity::default(),
            encoding: ForwardingEncoding::default(),
            skip_init_consistency: false,
            comparator_cache: true,
        }
    }
}

/// Size accounting in the paper's reporting categories.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmmStats {
    /// CNF clauses emitted (address comparison + read data + validity +
    /// eq. (6)).
    pub clauses: usize,
    /// 2-input gates emitted (the exclusivity chains of eq. (4)).
    pub gates: usize,
    /// Auxiliary variables created (comparison bits, chain signals, symbolic
    /// initial words).
    pub aux_vars: usize,
    /// eq. (6) read-pair constraints emitted.
    pub init_pairs: usize,
    /// Address comparators answered from the memo cache instead of being
    /// re-encoded (each hit saves `4m + 1` clauses and `m + 1` variables).
    pub cmp_cache_hits: usize,
}

impl EmmStats {
    fn add(&mut self, other: EmmStats) {
        self.clauses += other.clauses;
        self.gates += other.gates;
        self.aux_vars += other.aux_vars;
        self.init_pairs += other.init_pairs;
        self.cmp_cache_hits += other.cmp_cache_hits;
    }
}

/// One memoized comparator: the canonically ordered address pair and its
/// equality literal.
type CmpEntry = (Vec<Lit>, Vec<Lit>, Lit);

/// Pairwise memo of already-encoded address comparators, keyed by the
/// canonically ordered pair of address literal vectors (equality is
/// symmetric). Shared across memories and frames of one encoder — the
/// cross-frame reuse is what makes it effective: once unrolling feeds a
/// port the same address literals as an earlier frame (a stalled latch
/// word, a constant address, a shared cone), every comparison against it
/// is free.
#[derive(Debug, Default)]
struct CmpCache {
    enabled: bool,
    /// Buckets keyed by a hash of the canonically ordered pair; each entry
    /// stores the full pair for collision-safe comparison. Lookups hash
    /// and compare slices directly, so cache hits allocate nothing.
    map: HashMap<u64, Vec<CmpEntry>>,
}

impl CmpCache {
    /// Canonical operand order (equality is symmetric).
    fn ordered<'a>(a: &'a [Lit], b: &'a [Lit]) -> (&'a [Lit], &'a [Lit]) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn hash_pair(a: &[Lit], b: &[Lit]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        a.hash(&mut h);
        b.hash(&mut h);
        h.finish()
    }

    fn get(&self, a: &[Lit], b: &[Lit]) -> Option<Lit> {
        let (x, y) = Self::ordered(a, b);
        let bucket = self.map.get(&Self::hash_pair(x, y))?;
        bucket
            .iter()
            .find(|(ka, kb, _)| ka == x && kb == y)
            .map(|&(_, _, e)| e)
    }

    fn insert(&mut self, a: &[Lit], b: &[Lit], e: Lit) {
        let (x, y) = Self::ordered(a, b);
        self.map
            .entry(Self::hash_pair(x, y))
            .or_default()
            .push((x.to_vec(), y.to_vec(), e));
    }
}

/// A recorded initial-state read access (for eq. (6) and for extracting
/// initial memory contents from a counterexample model).
#[derive(Clone, Debug)]
pub struct InitRead {
    /// Read-address literals (LSB first) at the access frame.
    pub addr: Vec<Lit>,
    /// `N` — no write to this address before the access (`PS_{0,k,0,r}`).
    pub n: Lit,
    /// Fresh symbolic data word `V` (the initial contents read).
    pub v: Vec<Lit>,
    /// Read port index (for per-port selector guards).
    pub port: usize,
}

#[derive(Debug)]
struct MemState {
    shape: MemoryShape,
    /// Write-port literals of every frame seen so far.
    write_history: Vec<Vec<PortLits>>,
    /// Frames processed (equals `write_history.len()`).
    depth: usize,
    /// Selector literals: one (PerMemory) or one per read port (PerReadPort).
    selectors: Vec<Lit>,
    init_reads: Vec<InitRead>,
    stats: EmmStats,
    per_frame: Vec<EmmStats>,
}

/// The EMM constraint generator (`EMM_Constraints` in the paper's Fig. 2/3).
///
/// One encoder instance accompanies one BMC run; call
/// [`EmmEncoder::add_frame`] after each unrolling with the interface
/// literals of that frame.
#[derive(Debug)]
pub struct EmmEncoder {
    options: EmmOptions,
    mems: Vec<MemState>,
    /// Comparator memo shared by all memories (see [`CmpCache`]).
    cmp: CmpCache,
    /// Pipeline governor polled at comparator granularity during emission.
    governor: ResourceGovernor,
    /// Set once a governor trip aborted emission mid-frame.
    interrupted: bool,
}

impl EmmEncoder {
    /// Creates an encoder for memories of the given shapes.
    ///
    /// A zero width is well defined: empty addresses compare equal, so a
    /// memory of address width 0 holds one word, and an empty data word
    /// adds no forwarding clauses.
    pub fn new(shapes: &[MemoryShape], options: EmmOptions) -> EmmEncoder {
        EmmEncoder {
            options,
            mems: shapes
                .iter()
                .map(|&shape| MemState {
                    shape,
                    write_history: Vec::new(),
                    depth: 0,
                    selectors: Vec::new(),
                    init_reads: Vec::new(),
                    stats: EmmStats::default(),
                    per_frame: Vec::new(),
                })
                .collect(),
            cmp: CmpCache {
                enabled: options.comparator_cache,
                map: HashMap::new(),
            },
            governor: ResourceGovernor::unlimited(),
            interrupted: false,
        }
    }

    /// Installs a pipeline governor. [`EmmEncoder::add_frame`] polls it at
    /// comparator granularity (each `(write frame, write port)` pair of
    /// every read access) and aborts emission mid-frame when it trips,
    /// setting [`EmmEncoder::interrupted`]. Each encoded address
    /// comparator is also reported to the governor's fault injector as
    /// [`FaultSite::EmmComparator`].
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.governor = governor;
    }

    /// Whether a governor trip aborted constraint emission mid-frame.
    ///
    /// An interrupted encoder's most recent frame is **under-constrained**
    /// (its exclusivity chain and validity clause were not emitted), so
    /// satisfiable answers from the owning solver can no longer be
    /// trusted; the BMC engine treats such a context as poisoned and
    /// rebuilds it before the next query. Once set, the flag is sticky and
    /// later [`EmmEncoder::add_frame`] calls emit nothing.
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Number of memories.
    pub fn num_memories(&self) -> usize {
        self.mems.len()
    }

    /// Cumulative statistics across all memories.
    pub fn stats(&self) -> EmmStats {
        let mut total = EmmStats::default();
        for m in &self.mems {
            total.add(m.stats);
        }
        total
    }

    /// Statistics for one memory.
    pub fn memory_stats(&self, mem: usize) -> EmmStats {
        self.mems[mem].stats
    }

    /// Per-frame statistics increments for one memory (index = frame).
    pub fn per_frame_stats(&self, mem: usize) -> &[EmmStats] {
        &self.mems[mem].per_frame
    }

    /// Initial-state read accesses recorded for an arbitrary-init memory
    /// (empty for zero-init memories). A counterexample model assigns each
    /// access's `N`; when true, `(addr, v)` gives one word of the initial
    /// memory contents the trace relies on.
    pub fn init_reads(&self, mem: usize) -> &[InitRead] {
        &self.mems[mem].init_reads
    }

    /// All selector literals currently live, as `(memory, read port, lit)`;
    /// with [`SelectorGranularity::PerMemory`] the port is reported as 0.
    pub fn selectors(&self) -> Vec<(usize, usize, Lit)> {
        let mut out = Vec::new();
        for (mi, m) in self.mems.iter().enumerate() {
            for (pi, &l) in m.selectors.iter().enumerate() {
                out.push((mi, pi, l));
            }
        }
        out
    }

    /// Assumption literals that activate every memory's constraints.
    pub fn all_active_assumptions(&self) -> Vec<Lit> {
        self.selectors().into_iter().map(|(_, _, l)| l).collect()
    }

    /// Selector guarding `(mem, read port)` if selectors are enabled.
    pub fn selector_for(&self, mem: usize, port: usize) -> Option<Lit> {
        match self.options.selectors {
            SelectorGranularity::None => None,
            SelectorGranularity::PerMemory => self.mems[mem].selectors.first().copied(),
            SelectorGranularity::PerReadPort => self.mems[mem].selectors.get(port).copied(),
        }
    }

    /// Emits the constraints for frame `k` of every memory
    /// (`EMM_Constraints(k)` in Fig. 2); `frames[i]` must carry the
    /// interface literals of memory `i` at the new frame.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len()` differs from the number of memories or a
    /// port's literal widths disagree with the declared shape.
    pub fn add_frame(&mut self, sink: &mut dyn CnfSink, frames: &[MemoryFrameLits]) {
        assert_eq!(frames.len(), self.mems.len(), "one frame per memory");
        for (mi, frame) in frames.iter().enumerate() {
            self.add_memory_frame(sink, mi, frame);
        }
    }

    fn add_memory_frame(&mut self, sink: &mut dyn CnfSink, mi: usize, frame: &MemoryFrameLits) {
        let options = self.options;
        let governor = self.governor.clone();
        let mut interrupted = self.interrupted;
        let cmp = &mut self.cmp;
        let mem = &mut self.mems[mi];
        let shape = mem.shape;
        assert_eq!(frame.reads.len(), shape.read_ports, "read port count");
        assert_eq!(frame.writes.len(), shape.write_ports, "write port count");
        for p in &frame.reads {
            assert_eq!(p.addr.len(), shape.addr_width);
            assert_eq!(p.data.len(), shape.data_width);
        }
        for p in &frame.writes {
            assert_eq!(p.addr.len(), shape.addr_width);
            assert_eq!(p.data.len(), shape.data_width);
        }
        // Lazily create selectors.
        if mem.selectors.is_empty() {
            match options.selectors {
                SelectorGranularity::None => {}
                SelectorGranularity::PerMemory => {
                    mem.selectors.push(sink.new_var().positive());
                }
                SelectorGranularity::PerReadPort => {
                    for _ in 0..shape.read_ports {
                        mem.selectors.push(sink.new_var().positive());
                    }
                }
            }
        }

        let mut frame_stats = EmmStats::default();
        let k = mem.depth;
        for (r, rp) in frame.reads.iter().enumerate() {
            if interrupted {
                break;
            }
            let guard = match options.selectors {
                SelectorGranularity::None => None,
                SelectorGranularity::PerMemory => Some(!mem.selectors[0]),
                SelectorGranularity::PerReadPort => Some(!mem.selectors[r]),
            };
            match options.encoding {
                ForwardingEncoding::Exclusive => Self::encode_read_exclusive(
                    sink,
                    &options,
                    &shape,
                    &mem.write_history,
                    &mut mem.init_reads,
                    cmp,
                    &mut frame_stats,
                    k,
                    r,
                    rp,
                    guard,
                    &governor,
                    &mut interrupted,
                ),
                ForwardingEncoding::Direct => Self::encode_read_direct(
                    sink,
                    &options,
                    &shape,
                    &mem.write_history,
                    &mut mem.init_reads,
                    cmp,
                    &mut frame_stats,
                    k,
                    r,
                    rp,
                    guard,
                    &governor,
                    &mut interrupted,
                ),
            }
        }
        // The bookkeeping still advances on an interrupted frame: the
        // context is poisoned either way and the depth invariants (one
        // write-history entry per frame) must hold for the rebuild.
        mem.write_history.push(frame.writes.clone());
        mem.depth += 1;
        mem.stats.add(frame_stats);
        mem.per_frame.push(frame_stats);
        self.interrupted = interrupted;
    }

    /// The paper's encoding: exclusivity chain of eq. (4), read-data
    /// constraints of eq. (5), arbitrary-initial-state handling of eq. (6).
    #[allow(clippy::too_many_arguments)]
    fn encode_read_exclusive(
        sink: &mut dyn CnfSink,
        options: &EmmOptions,
        shape: &MemoryShape,
        write_history: &[Vec<PortLits>],
        init_reads: &mut Vec<InitRead>,
        cmp: &mut CmpCache,
        stats: &mut EmmStats,
        k: usize,
        r: usize,
        rp: &PortLits,
        guard: Option<Lit>,
        governor: &ResourceGovernor,
        interrupted: &mut bool,
    ) {
        let n = shape.data_width;
        // Build the chain from PS_{k,k,0,r} = RE downwards.
        let mut ps = rp.en;
        let mut matches: Vec<(usize, usize, Lit)> = Vec::new(); // (frame, port, S)
        'chain: for i in (0..k).rev() {
            for p in (0..shape.write_ports).rev() {
                if governor.poll().is_some() {
                    *interrupted = true;
                    break 'chain;
                }
                let wp = &write_history[i][p];
                let e = encode_addr_eq(sink, cmp, &wp.addr, &rp.addr, stats, governor);
                let s = sink.add_and_gate(e, wp.en); // s_{i,k,p,r}
                let s_excl = sink.add_and_gate(s, ps); // S_{i,k,p,r}
                ps = sink.add_and_gate(!s, ps); // PS_{i,k,p,r}
                stats.gates += 3;
                stats.aux_vars += 3;
                matches.push((i, p, s_excl));
            }
        }
        if *interrupted {
            // The chain is incomplete: `ps` is not the true N condition
            // and the validity clause would be missing match terms —
            // emitting either would wrongly *strengthen* the formula.
            // Stop here; the caller treats the whole context as poisoned.
            return;
        }
        let n_lit = ps; // PS_{0,k,0,r}: the paper's N condition.

        // eq. (5): RD equals the selected write's data.
        for &(i, p, s_excl) in &matches {
            let wd = &write_history[i][p].data;
            for (&rd, &w) in rp.data.iter().zip(wd) {
                emit(sink, stats, guard, &[!s_excl, !rd, w]);
                emit(sink, stats, guard, &[!s_excl, rd, !w]);
            }
        }
        // Initial-state term of eq. (5).
        if shape.arbitrary_init {
            let v: Vec<Lit> = (0..n).map(|_| sink.new_var().positive()).collect();
            stats.aux_vars += n;
            for (&rd, &vb) in rp.data.iter().zip(&v) {
                emit(sink, stats, guard, &[!n_lit, !rd, vb]);
                emit(sink, stats, guard, &[!n_lit, rd, !vb]);
            }
            let me = InitRead {
                addr: rp.addr.clone(),
                n: n_lit,
                v,
                port: r,
            };
            if !options.skip_init_consistency {
                for prev in init_reads.iter() {
                    if governor.poll().is_some() {
                        // eq. (6) pairs are pairwise-independent: a partial
                        // set only under-constrains (the context is poisoned
                        // anyway), so stopping mid-list is safe.
                        *interrupted = true;
                        break;
                    }
                    let _ = prev.port; // pairs span all ports, incl. same port
                    let ea = encode_addr_eq(sink, cmp, &prev.addr, &me.addr, stats, governor);
                    for b in 0..n {
                        emit(
                            sink,
                            stats,
                            guard,
                            &[!ea, !prev.n, !me.n, !prev.v[b], me.v[b]],
                        );
                        emit(
                            sink,
                            stats,
                            guard,
                            &[!ea, !prev.n, !me.n, prev.v[b], !me.v[b]],
                        );
                    }
                    stats.init_pairs += 1;
                }
            }
            init_reads.push(me);
        } else {
            // Zero-initialized memory: an un-written location reads 0.
            for b in 0..n {
                emit(sink, stats, guard, &[!n_lit, !rp.data[b]]);
            }
            // Keep clause accounting aligned with the paper's 2n formula by
            // emitting the complementary (trivially true under zero init)
            // direction as well: RD_b = 0 → both directions collapse to one
            // clause, so emit a redundant tautology-free strengthening:
            // (¬N ∨ RD_b ∨ ¬RD_b) would be a tautology; instead note the
            // deviation in stats (n clauses instead of 2n).
        }
        // Validity clause: RE implies some S or the initial term.
        let mut validity: Vec<Lit> = Vec::with_capacity(matches.len() + 2);
        validity.push(!rp.en);
        for &(_, _, s_excl) in &matches {
            validity.push(s_excl);
        }
        validity.push(n_lit);
        emit(sink, stats, guard, &validity);
    }

    /// Ablation encoding: eq. (3) as direct implications, no exclusivity.
    #[allow(clippy::too_many_arguments)]
    fn encode_read_direct(
        sink: &mut dyn CnfSink,
        options: &EmmOptions,
        shape: &MemoryShape,
        write_history: &[Vec<PortLits>],
        init_reads: &mut Vec<InitRead>,
        cmp: &mut CmpCache,
        stats: &mut EmmStats,
        k: usize,
        r: usize,
        rp: &PortLits,
        guard: Option<Lit>,
        governor: &ResourceGovernor,
        interrupted: &mut bool,
    ) {
        let n = shape.data_width;
        // later = "some write at a strictly later position matches".
        let mut later: Option<Lit> = None;
        let mut entries: Vec<(usize, usize, Lit, Option<Lit>)> = Vec::new();
        'scan: for i in (0..k).rev() {
            for p in (0..shape.write_ports).rev() {
                if governor.poll().is_some() {
                    *interrupted = true;
                    break 'scan;
                }
                let wp = &write_history[i][p];
                let e = encode_addr_eq(sink, cmp, &wp.addr, &rp.addr, stats, governor);
                let s = sink.add_and_gate(e, wp.en);
                stats.gates += 1;
                stats.aux_vars += 1;
                entries.push((i, p, s, later));
                later = Some(match later {
                    None => s,
                    Some(l) => {
                        stats.gates += 1;
                        stats.aux_vars += 1;
                        sink.add_or_gate(s, l)
                    }
                });
            }
        }
        if *interrupted {
            // `later` misses the unscanned writes, so both the forwarding
            // implications and the N condition built from it would be
            // wrong. Stop; the caller treats the context as poisoned.
            return;
        }
        // Forwarding implications: RE ∧ s ∧ ¬later → RD = WD.
        for &(i, p, s, later_here) in &entries {
            let wd = &write_history[i][p].data;
            for (&rd, &w) in rp.data.iter().zip(wd) {
                let mut c1 = vec![!rp.en, !s];
                let mut c2 = vec![!rp.en, !s];
                if let Some(l) = later_here {
                    c1.push(l);
                    c2.push(l);
                }
                c1.extend([!rd, w]);
                c2.extend([rd, !w]);
                emit(sink, stats, guard, &c1);
                emit(sink, stats, guard, &c2);
            }
        }
        // Initial term: N = RE ∧ no match anywhere.
        let n_lit = match later {
            None => rp.en,
            Some(l) => {
                stats.gates += 1;
                stats.aux_vars += 1;
                sink.add_and_gate(rp.en, !l)
            }
        };
        if shape.arbitrary_init {
            let v: Vec<Lit> = (0..n).map(|_| sink.new_var().positive()).collect();
            stats.aux_vars += n;
            for (&rd, &vb) in rp.data.iter().zip(&v) {
                emit(sink, stats, guard, &[!n_lit, !rd, vb]);
                emit(sink, stats, guard, &[!n_lit, rd, !vb]);
            }
            let me = InitRead {
                addr: rp.addr.clone(),
                n: n_lit,
                v,
                port: r,
            };
            if !options.skip_init_consistency {
                for prev in init_reads.iter() {
                    if governor.poll().is_some() {
                        *interrupted = true;
                        break;
                    }
                    let ea = encode_addr_eq(sink, cmp, &prev.addr, &me.addr, stats, governor);
                    for b in 0..n {
                        emit(
                            sink,
                            stats,
                            guard,
                            &[!ea, !prev.n, !me.n, !prev.v[b], me.v[b]],
                        );
                        emit(
                            sink,
                            stats,
                            guard,
                            &[!ea, !prev.n, !me.n, prev.v[b], !me.v[b]],
                        );
                    }
                    stats.init_pairs += 1;
                }
            }
            init_reads.push(me);
        } else {
            for b in 0..n {
                emit(sink, stats, guard, &[!n_lit, !rp.data[b]]);
            }
        }
    }
}

/// Emits one clause, appending the selector guard when present.
fn emit(sink: &mut dyn CnfSink, stats: &mut EmmStats, guard: Option<Lit>, lits: &[Lit]) {
    stats.clauses += 1;
    match guard {
        None => {
            sink.add_clause(lits);
        }
        Some(g) => {
            let mut with_guard = Vec::with_capacity(lits.len() + 1);
            with_guard.extend_from_slice(lits);
            with_guard.push(g);
            sink.add_clause(&with_guard);
        }
    }
}

/// Encodes the paper's address comparison (Section 3): `4m + 1` clauses over
/// `m + 1` fresh variables; returns the equality literal `E`. With the
/// comparator cache enabled, a pair already encoded (in either operand
/// order) returns its cached literal and emits nothing. Every call — cache
/// hit or not — counts as one [`FaultSite::EmmComparator`] event for the
/// governor's fault injector.
fn encode_addr_eq(
    sink: &mut dyn CnfSink,
    cmp: &mut CmpCache,
    a: &[Lit],
    b: &[Lit],
    stats: &mut EmmStats,
    governor: &ResourceGovernor,
) -> Lit {
    debug_assert_eq!(a.len(), b.len());
    governor.note(FaultSite::EmmComparator);
    if cmp.enabled {
        if let Some(e) = cmp.get(a, b) {
            stats.cmp_cache_hits += 1;
            return e;
        }
    }
    let m = a.len();
    let e_total = sink.new_var().positive();
    stats.aux_vars += 1;
    let mut final_clause: Vec<Lit> = Vec::with_capacity(m + 1);
    for i in 0..m {
        let ei = sink.new_var().positive();
        stats.aux_vars += 1;
        // E → (a_i ≡ b_i)
        emit(sink, stats, None, &[!e_total, !a[i], b[i]]);
        emit(sink, stats, None, &[!e_total, a[i], !b[i]]);
        // (a_i ≡ b_i) → e_i
        emit(sink, stats, None, &[!a[i], !b[i], ei]);
        emit(sink, stats, None, &[a[i], b[i], ei]);
        final_clause.push(!ei);
    }
    final_clause.push(e_total);
    emit(sink, stats, None, &final_clause);
    if cmp.enabled {
        cmp.insert(a, b, e_total);
    }
    e_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use emm_sat::{CountingSink, SolveResult, Solver, Var};

    fn fresh_port(sink: &mut dyn CnfSink, aw: usize, dw: usize) -> PortLits {
        PortLits {
            addr: (0..aw).map(|_| sink.new_var().positive()).collect(),
            en: sink.new_var().positive(),
            data: (0..dw).map(|_| sink.new_var().positive()).collect(),
        }
    }

    fn fresh_frame(sink: &mut dyn CnfSink, shape: &MemoryShape) -> MemoryFrameLits {
        MemoryFrameLits {
            reads: (0..shape.read_ports)
                .map(|_| fresh_port(sink, shape.addr_width, shape.data_width))
                .collect(),
            writes: (0..shape.write_ports)
                .map(|_| fresh_port(sink, shape.addr_width, shape.data_width))
                .collect(),
        }
    }

    /// The per-frame clause/gate increments must match the paper's closed
    /// forms exactly for arbitrary-init memories.
    #[test]
    fn per_frame_counts_match_paper_formulas() {
        for (m, n, r_ports, w_ports) in [
            (10, 32, 1, 1),
            (10, 24, 1, 1),
            (12, 32, 3, 1),
            (4, 8, 2, 2),
            (3, 5, 2, 3),
        ] {
            let shape = MemoryShape {
                addr_width: m,
                data_width: n,
                read_ports: r_ports,
                write_ports: w_ports,
                arbitrary_init: true,
            };
            let mut enc = EmmEncoder::new(
                &[shape],
                EmmOptions {
                    // eq. (6) constraints are counted separately; disable to
                    // isolate the Section 4.1 formulas.
                    skip_init_consistency: true,
                    ..EmmOptions::default()
                },
            );
            let mut sink = CountingSink::new();
            for k in 0..8usize {
                let frame = fresh_frame(&mut sink, &shape);
                enc.add_frame(&mut sink, &[frame]);
                let inc = enc.per_frame_stats(0)[k];
                assert_eq!(
                    inc.clauses,
                    shape.clauses_at_depth(k),
                    "clauses at depth {k} for m={m},n={n},R={r_ports},W={w_ports}"
                );
                assert_eq!(
                    inc.gates,
                    shape.gates_at_depth(k),
                    "gates at depth {k} for m={m},n={n},R={r_ports},W={w_ports}"
                );
            }
        }
    }

    /// Accumulated constraints grow quadratically with depth (Section 3).
    #[test]
    fn accumulated_growth_is_quadratic() {
        let shape = MemoryShape {
            addr_width: 6,
            data_width: 8,
            read_ports: 1,
            write_ports: 1,
            arbitrary_init: true,
        };
        let mut enc = EmmEncoder::new(
            &[shape],
            EmmOptions {
                skip_init_consistency: true,
                ..EmmOptions::default()
            },
        );
        let mut sink = CountingSink::new();
        let mut totals = Vec::new();
        for _ in 0..12usize {
            let frame = fresh_frame(&mut sink, &shape);
            enc.add_frame(&mut sink, &[frame]);
            totals.push(enc.stats().clauses);
        }
        // Sum_{j<=k} (a*j + b) = a*k(k+1)/2 + b*(k+1): check the second
        // difference is the constant per-pair cost.
        let a = (4 * 6 + 2 * 8 + 1) as i64;
        for k in 2..totals.len() {
            let d2 = totals[k] as i64 - 2 * totals[k - 1] as i64 + totals[k - 2] as i64;
            assert_eq!(d2, a, "second difference at {k}");
        }
    }

    /// Helper: assign a literal a concrete value via a unit clause.
    fn fix(s: &mut Solver, l: Lit, v: bool) {
        s.add_clause(&[if v { l } else { !l }]);
    }

    fn fix_word(s: &mut Solver, lits: &[Lit], value: u64) {
        for (i, &l) in lits.iter().enumerate() {
            fix(s, l, (value >> i) & 1 == 1);
        }
    }

    fn read_word(s: &Solver, lits: &[Lit]) -> u64 {
        lits.iter()
            .enumerate()
            .map(|(i, &l)| (s.model_value(l).expect("model") as u64) << i)
            .sum()
    }

    /// Concrete forwarding scenario: write 0xA5 at frame 0, read it back at
    /// frame 2; an unrelated write at frame 1 must not interfere.
    fn forwarding_scenario(encoding: ForwardingEncoding) {
        let shape = MemoryShape {
            addr_width: 4,
            data_width: 8,
            read_ports: 1,
            write_ports: 1,
            arbitrary_init: false,
        };
        let mut enc = EmmEncoder::new(
            &[shape],
            EmmOptions {
                encoding,
                ..EmmOptions::default()
            },
        );
        let mut s = Solver::new();
        let mut frames = Vec::new();
        for _ in 0..3 {
            let f = fresh_frame(&mut s, &shape);
            enc.add_frame(&mut s, std::slice::from_ref(&f));
            frames.push(f);
        }
        // Frame 0: write 0xA5 to address 7.
        fix_word(&mut s, &frames[0].writes[0].addr, 7);
        fix_word(&mut s, &frames[0].writes[0].data, 0xA5);
        fix(&mut s, frames[0].writes[0].en, true);
        fix(&mut s, frames[0].reads[0].en, false);
        // Frame 1: write 0x3C to address 9.
        fix_word(&mut s, &frames[1].writes[0].addr, 9);
        fix_word(&mut s, &frames[1].writes[0].data, 0x3C);
        fix(&mut s, frames[1].writes[0].en, true);
        fix(&mut s, frames[1].reads[0].en, false);
        // Frame 2: read address 7.
        fix(&mut s, frames[2].writes[0].en, false);
        fix_word(&mut s, &frames[2].writes[0].addr, 0);
        fix_word(&mut s, &frames[2].writes[0].data, 0);
        fix_word(&mut s, &frames[2].reads[0].addr, 7);
        fix(&mut s, frames[2].reads[0].en, true);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(
            read_word(&s, &frames[2].reads[0].data),
            0xA5,
            "{encoding:?}"
        );
    }

    #[test]
    fn forwarding_exclusive() {
        forwarding_scenario(ForwardingEncoding::Exclusive);
    }

    #[test]
    fn forwarding_direct() {
        forwarding_scenario(ForwardingEncoding::Direct);
    }

    /// Most recent write wins: two writes to the same address.
    #[test]
    fn latest_write_wins() {
        let shape = MemoryShape {
            addr_width: 3,
            data_width: 4,
            read_ports: 1,
            write_ports: 1,
            arbitrary_init: false,
        };
        let mut enc = EmmEncoder::new(&[shape], EmmOptions::default());
        let mut s = Solver::new();
        let mut frames = Vec::new();
        for _ in 0..3 {
            let f = fresh_frame(&mut s, &shape);
            enc.add_frame(&mut s, std::slice::from_ref(&f));
            frames.push(f);
        }
        for (k, val) in [(0usize, 0x3u64), (1, 0x9)] {
            fix_word(&mut s, &frames[k].writes[0].addr, 5);
            fix_word(&mut s, &frames[k].writes[0].data, val);
            fix(&mut s, frames[k].writes[0].en, true);
            fix(&mut s, frames[k].reads[0].en, false);
        }
        fix(&mut s, frames[2].writes[0].en, false);
        fix_word(&mut s, &frames[2].reads[0].addr, 5);
        fix(&mut s, frames[2].reads[0].en, true);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(read_word(&s, &frames[2].reads[0].data), 0x9);
    }

    /// Zero-initialized memory: reading an unwritten address returns 0 and
    /// nothing else is satisfiable.
    #[test]
    fn zero_init_unwritten_reads_zero() {
        let shape = MemoryShape {
            addr_width: 3,
            data_width: 4,
            read_ports: 1,
            write_ports: 1,
            arbitrary_init: false,
        };
        let mut enc = EmmEncoder::new(&[shape], EmmOptions::default());
        let mut s = Solver::new();
        let f = fresh_frame(&mut s, &shape);
        enc.add_frame(&mut s, std::slice::from_ref(&f));
        fix(&mut s, f.writes[0].en, false);
        fix_word(&mut s, &f.reads[0].addr, 2);
        fix(&mut s, f.reads[0].en, true);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(read_word(&s, &f.reads[0].data), 0);
        // Forcing a nonzero read must be UNSAT.
        fix(&mut s, f.reads[0].data[1], true);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// eq. (6): two reads of the same never-written address must agree; with
    /// `skip_init_consistency` they may differ (the extra behavior the paper
    /// warns about).
    #[test]
    fn init_consistency_forces_equal_reads() {
        for (skip, expect_equal) in [(false, true), (true, false)] {
            let shape = MemoryShape {
                addr_width: 3,
                data_width: 4,
                read_ports: 1,
                write_ports: 1,
                arbitrary_init: true,
            };
            let mut enc = EmmEncoder::new(
                &[shape],
                EmmOptions {
                    skip_init_consistency: skip,
                    ..EmmOptions::default()
                },
            );
            let mut s = Solver::new();
            let mut frames = Vec::new();
            for _ in 0..2 {
                let f = fresh_frame(&mut s, &shape);
                enc.add_frame(&mut s, std::slice::from_ref(&f));
                frames.push(f);
            }
            for f in &frames {
                fix(&mut s, f.writes[0].en, false);
                fix_word(&mut s, &f.writes[0].addr, 0);
                fix_word(&mut s, &f.writes[0].data, 0);
                fix_word(&mut s, &f.reads[0].addr, 6);
                fix(&mut s, f.reads[0].en, true);
            }
            // Ask for differing read data at the two frames.
            fix(&mut s, frames[0].reads[0].data[2], true);
            fix(&mut s, frames[1].reads[0].data[2], false);
            let result = s.solve();
            if expect_equal {
                assert_eq!(result, SolveResult::Unsat, "eq. (6) must force equality");
            } else {
                assert_eq!(result, SolveResult::Sat, "without eq. (6) reads are free");
            }
        }
    }

    /// Arbitrary-init read is overridden by a prior write.
    #[test]
    fn write_overrides_arbitrary_init() {
        let shape = MemoryShape {
            addr_width: 3,
            data_width: 4,
            read_ports: 1,
            write_ports: 1,
            arbitrary_init: true,
        };
        let mut enc = EmmEncoder::new(&[shape], EmmOptions::default());
        let mut s = Solver::new();
        let mut frames = Vec::new();
        for _ in 0..2 {
            let f = fresh_frame(&mut s, &shape);
            enc.add_frame(&mut s, std::slice::from_ref(&f));
            frames.push(f);
        }
        fix_word(&mut s, &frames[0].writes[0].addr, 3);
        fix_word(&mut s, &frames[0].writes[0].data, 0xB);
        fix(&mut s, frames[0].writes[0].en, true);
        fix(&mut s, frames[0].reads[0].en, false);
        fix(&mut s, frames[1].writes[0].en, false);
        fix_word(&mut s, &frames[1].reads[0].addr, 3);
        fix(&mut s, frames[1].reads[0].en, true);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(read_word(&s, &frames[1].reads[0].data), 0xB);
    }

    /// Multi-port forwarding: a read port must see the value written through
    /// any write port; within-frame priority goes to the higher port.
    #[test]
    fn multiport_forwarding_and_priority() {
        let shape = MemoryShape {
            addr_width: 3,
            data_width: 4,
            read_ports: 2,
            write_ports: 2,
            arbitrary_init: false,
        };
        let mut enc = EmmEncoder::new(&[shape], EmmOptions::default());
        let mut s = Solver::new();
        let mut frames = Vec::new();
        for _ in 0..2 {
            let f = fresh_frame(&mut s, &shape);
            enc.add_frame(&mut s, std::slice::from_ref(&f));
            frames.push(f);
        }
        // Frame 0: port 0 writes 0x1 to addr 2; port 1 writes 0x7 to addr 4.
        fix_word(&mut s, &frames[0].writes[0].addr, 2);
        fix_word(&mut s, &frames[0].writes[0].data, 0x1);
        fix(&mut s, frames[0].writes[0].en, true);
        fix_word(&mut s, &frames[0].writes[1].addr, 4);
        fix_word(&mut s, &frames[0].writes[1].data, 0x7);
        fix(&mut s, frames[0].writes[1].en, true);
        for r in 0..2 {
            fix(&mut s, frames[0].reads[r].en, false);
        }
        // Frame 1: read port 0 reads addr 4, read port 1 reads addr 2.
        for w in 0..2 {
            fix(&mut s, frames[1].writes[w].en, false);
            fix_word(&mut s, &frames[1].writes[w].addr, 0);
            fix_word(&mut s, &frames[1].writes[w].data, 0);
        }
        fix_word(&mut s, &frames[1].reads[0].addr, 4);
        fix(&mut s, frames[1].reads[0].en, true);
        fix_word(&mut s, &frames[1].reads[1].addr, 2);
        fix(&mut s, frames[1].reads[1].en, true);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(read_word(&s, &frames[1].reads[0].data), 0x7);
        assert_eq!(read_word(&s, &frames[1].reads[1].data), 0x1);
    }

    /// Selector guards: with the selector unasserted the read data is free;
    /// asserting it restores forwarding.
    #[test]
    fn selectors_gate_the_constraints() {
        let shape = MemoryShape {
            addr_width: 3,
            data_width: 4,
            read_ports: 1,
            write_ports: 1,
            arbitrary_init: false,
        };
        let mut enc = EmmEncoder::new(
            &[shape],
            EmmOptions {
                selectors: SelectorGranularity::PerMemory,
                ..EmmOptions::default()
            },
        );
        let mut s = Solver::new();
        let f = fresh_frame(&mut s, &shape);
        enc.add_frame(&mut s, std::slice::from_ref(&f));
        fix(&mut s, f.writes[0].en, false);
        fix_word(&mut s, &f.reads[0].addr, 1);
        fix(&mut s, f.reads[0].en, true);
        // Demand a nonzero read from a zero-init memory.
        fix(&mut s, f.reads[0].data[0], true);
        // Without assuming the selector: free RD, so SAT.
        assert_eq!(s.solve(), SolveResult::Sat);
        // Assuming the selector: constraints active, so UNSAT, and the
        // failed assumptions name the selector.
        let sel = enc.all_active_assumptions();
        assert_eq!(sel.len(), 1);
        assert_eq!(s.solve_with(&sel), SolveResult::Unsat);
        assert_eq!(s.failed_assumptions(), &sel[..]);
    }

    #[test]
    fn per_read_port_selectors_identify_needed_port() {
        let shape = MemoryShape {
            addr_width: 3,
            data_width: 2,
            read_ports: 2,
            write_ports: 1,
            arbitrary_init: false,
        };
        let mut enc = EmmEncoder::new(
            &[shape],
            EmmOptions {
                selectors: SelectorGranularity::PerReadPort,
                ..EmmOptions::default()
            },
        );
        let mut s = Solver::new();
        let f = fresh_frame(&mut s, &shape);
        enc.add_frame(&mut s, std::slice::from_ref(&f));
        fix(&mut s, f.writes[0].en, false);
        // Only read port 1 is forced inconsistent.
        fix_word(&mut s, &f.reads[1].addr, 3);
        fix(&mut s, f.reads[1].en, true);
        fix(&mut s, f.reads[1].data[0], true);
        fix(&mut s, f.reads[0].en, false);
        fix_word(&mut s, &f.reads[0].addr, 0);
        let all = enc.all_active_assumptions();
        assert_eq!(all.len(), 2);
        assert_eq!(s.solve_with(&all), SolveResult::Unsat);
        let failed = s.failed_assumptions().to_vec();
        let port1_sel = enc.selector_for(0, 1).expect("selector");
        assert_eq!(
            failed,
            vec![port1_sel],
            "only port 1's selector should fail"
        );
    }

    #[test]
    fn addr_eq_encoding_is_equality() {
        // Exhaustive check of the 4m+1 clause encoding on 2-bit addresses.
        for av in 0..4u64 {
            for bv in 0..4u64 {
                let mut s = Solver::new();
                let a: Vec<Lit> = (0..2).map(|_| Var::positive(s.new_var())).collect();
                let b: Vec<Lit> = (0..2).map(|_| Var::positive(s.new_var())).collect();
                let mut stats = EmmStats::default();
                let mut cmp = CmpCache {
                    enabled: true,
                    map: HashMap::new(),
                };
                let e = encode_addr_eq(
                    &mut s,
                    &mut cmp,
                    &a,
                    &b,
                    &mut stats,
                    &ResourceGovernor::unlimited(),
                );
                assert_eq!(stats.clauses, 4 * 2 + 1);
                fix_word(&mut s, &a, av);
                fix_word(&mut s, &b, bv);
                assert_eq!(s.solve(), SolveResult::Sat);
                assert_eq!(s.model_value(e), Some(av == bv), "{av} vs {bv}");
            }
        }
    }

    /// A cancelled governor aborts frame emission at the first comparator
    /// poll and the encoder reports itself interrupted. Frame 0 has no
    /// write history (no comparators, no polls), so it still emits; the
    /// first frame with a pending write aborts.
    #[test]
    fn cancelled_governor_poisons_frame_emission() {
        let shape = MemoryShape {
            addr_width: 3,
            data_width: 4,
            read_ports: 1,
            write_ports: 1,
            arbitrary_init: false,
        };
        let mut enc = EmmEncoder::new(&[shape], EmmOptions::default());
        let gov = emm_sat::ResourceGovernor::unlimited();
        gov.cancel();
        enc.set_governor(gov);
        let mut sink = CountingSink::new();
        for _ in 0..2 {
            let frame = fresh_frame(&mut sink, &shape);
            enc.add_frame(&mut sink, &[frame]);
        }
        assert!(enc.interrupted(), "cancellation must poison the encoder");
        assert!(
            enc.per_frame_stats(0)[0].clauses > 0,
            "frame 0 has no comparators and emits fully"
        );
        assert_eq!(
            enc.per_frame_stats(0)[1].clauses,
            0,
            "frame 1 aborts before its first comparator"
        );
    }

    /// The fault injector trips emission deterministically after the Nth
    /// encoded comparator, and the interrupted flag is sticky: later
    /// frames emit nothing.
    #[test]
    fn fault_injection_interrupts_after_nth_comparator() {
        let shape = MemoryShape {
            addr_width: 3,
            data_width: 2,
            read_ports: 1,
            write_ports: 1,
            arbitrary_init: true,
        };
        let mut enc = EmmEncoder::new(
            &[shape],
            EmmOptions {
                // The closed-form per-frame clause count assumed below
                // excludes the eq. (6) pairs.
                skip_init_consistency: true,
                ..EmmOptions::default()
            },
        );
        // Frame k encodes k comparators (one per pending write frame):
        // cumulative 0, 1, 3, 6, ... The 3rd comparator completes during
        // frame 2, so frame 2 still emits fully and frame 3 aborts at its
        // first poll.
        enc.set_governor(
            emm_sat::ResourceGovernor::unlimited().with_fault(emm_sat::FaultSite::EmmComparator, 3),
        );
        let mut sink = CountingSink::new();
        for _ in 0..4 {
            let frame = fresh_frame(&mut sink, &shape);
            enc.add_frame(&mut sink, &[frame]);
        }
        assert!(enc.interrupted());
        assert_eq!(enc.per_frame_stats(0)[2].clauses, shape.clauses_at_depth(2));
        assert_eq!(enc.per_frame_stats(0)[3].clauses, 0);
    }
}
