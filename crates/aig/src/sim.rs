//! Cycle-accurate simulation of designs, including memory semantics.
//!
//! The simulator is the semantic ground truth of the whole stack: the EMM
//! constraints, the explicit memory expansion, and the BMC unroller are all
//! tested against it. It implements Section 2.3 of the paper exactly:
//!
//! * reads are combinational — `RD` is assigned in the same cycle the
//!   address is valid and `RE` is active;
//! * writes commit at the end of the cycle — newly written data is readable
//!   only from the next cycle on;
//! * when `RE` is inactive the read data is unconstrained (the simulator
//!   lets the caller choose via [`SimConfig::disabled_read_value`]);
//! * at most one write port may update a location per cycle (the paper's
//!   no-data-race assumption); violations are reported.
//!
//! [`LaneSimulator`] runs 64 random floating runs at once on the same
//! semantics, for the BMC engine's simulated step answers; its lanes
//! replay on [`Simulator`] through [`LaneSimulator::trace`].

use std::collections::HashMap;

use crate::aig::{Aig, Bit, Node};
use crate::design::{Design, InputKind, MemInit, MemoryId};
use crate::word::Word;

/// Evaluates the combinational core of a raw [`Aig`] whose inputs are all
/// externally driven; `inputs[i]` drives input index `i`.
///
/// Returns a value for every node, indexed by node id. Used by tests and by
/// word-level helpers; full designs should use [`Simulator`].
///
/// # Panics
///
/// Panics if `inputs` is shorter than the number of AIG inputs.
pub fn eval_combinational(aig: &Aig, inputs: &[bool]) -> Vec<bool> {
    let mut values = vec![false; aig.num_nodes()];
    for (id, node) in aig.iter() {
        values[id.index()] = match node {
            Node::Const => false,
            Node::Input(i) => inputs[i as usize],
            Node::And(a, b) => {
                a.apply(values[a.node().index()]) && b.apply(values[b.node().index()])
            }
        };
    }
    values
}

/// Evaluates the combinational core under `words` parallel 64-bit input
/// patterns per input: bit `p` of word `w` of every value is one coherent
/// assignment, so a single pass simulates `64 * words` patterns at once.
///
/// `inputs` is laid out flat: input `i` owns
/// `inputs[i * words .. (i + 1) * words]`. The result uses the same layout
/// over node ids. This is the bit-parallel workhorse behind the
/// [`fraig`](crate::fraig) pass's simulation signatures.
///
/// # Panics
///
/// Panics if `words` is zero or `inputs` is shorter than
/// `aig.num_inputs() * words`.
pub fn eval_combinational_words(aig: &Aig, inputs: &[u64], words: usize) -> Vec<u64> {
    assert!(words > 0, "at least one signature word");
    assert!(
        inputs.len() >= aig.num_inputs() * words,
        "need {} input words, got {}",
        aig.num_inputs() * words,
        inputs.len()
    );
    let mut values = vec![0u64; aig.num_nodes() * words];
    eval_words(aig, words, &mut values, |i, base, values| {
        let src = i as usize * words;
        values[base..base + words].copy_from_slice(&inputs[src..src + words]);
    });
    values
}

/// The one word-parallel evaluation kernel, behind
/// [`eval_combinational_words`] (and so fraig's signatures) and the
/// [`LaneSimulator`]: one pass over the nodes in id order, `words` words
/// per node in `values`. Input node `i` at `values[base..base + words]`
/// is filled by `input(i, base, values)`, which may read every node
/// evaluated before it.
fn eval_words(
    aig: &Aig,
    words: usize,
    values: &mut [u64],
    mut input: impl FnMut(u32, usize, &mut [u64]),
) {
    for (id, node) in aig.iter() {
        let base = id.index() * words;
        match node {
            Node::Const => values[base..base + words].fill(0),
            Node::Input(i) => input(i, base, values),
            Node::And(a, b) => {
                let (na, nb) = (a.node().index() * words, b.node().index() * words);
                let (ma, mb) = (invert_mask(a), invert_mask(b));
                for w in 0..words {
                    values[base + w] = (values[na + w] ^ ma) & (values[nb + w] ^ mb);
                }
            }
        }
    }
}

/// All ones for an inverted edge, else zero: XOR it into a node's word to
/// read the edge.
fn invert_mask(bit: Bit) -> u64 {
    if bit.is_inverted() {
        u64::MAX
    } else {
        0
    }
}

/// Configuration of a [`Simulator`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SimConfig {
    /// Value returned on a read with `RE` inactive (models "unconstrained").
    pub disabled_read_value: u64,
    /// Panic on a same-cycle write/write race to one location (otherwise the
    /// race is recorded in [`StepReport::write_races`] and the
    /// higher-numbered port wins).
    pub panic_on_race: bool,
}

/// What happened during one simulated cycle.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// `bad` value of every property this cycle.
    pub property_bad: Vec<bool>,
    /// Environment constraint violations (constraint index).
    pub violated_constraints: Vec<usize>,
    /// Same-cycle write/write races: `(memory, address)`.
    pub write_races: Vec<(MemoryId, u64)>,
}

/// A cycle-accurate interpreter for a [`Design`].
///
/// Memories are stored sparsely; a location that has never been written
/// reads as the memory's initial value ([`MemInit::Zero`]) or as a value
/// seeded by the caller ([`Simulator::seed_memory`]) for
/// [`MemInit::Arbitrary`] memories (unseeded arbitrary locations read 0).
#[derive(Clone, Debug)]
pub struct Simulator<'a> {
    design: &'a Design,
    config: SimConfig,
    /// Current latch values, indexed by latch id.
    latch_state: Vec<bool>,
    /// Sparse memory contents.
    mem_state: Vec<HashMap<u64, u64>>,
    /// Node values from the most recent step.
    node_values: Vec<bool>,
    /// Dense input index -> position among the free inputs (`usize::MAX`
    /// for latch and read-data inputs).
    free_pos: Vec<usize>,
    cycle: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator in the design's initial state; latches with
    /// [`LatchInit::Free`](crate::design::LatchInit::Free) start at 0 unless
    /// overridden by [`Simulator::set_latch`].
    pub fn new(design: &'a Design) -> Simulator<'a> {
        Simulator::with_config(design, SimConfig::default())
    }

    /// Creates a simulator with an explicit configuration.
    pub fn with_config(design: &'a Design, config: SimConfig) -> Simulator<'a> {
        let latch_state = design
            .latches()
            .iter()
            .map(|l| matches!(l.init, crate::design::LatchInit::One))
            .collect();
        let mut free_pos = vec![usize::MAX; design.num_inputs()];
        for (pos, &idx) in design.free_inputs().iter().enumerate() {
            free_pos[idx as usize] = pos;
        }
        Simulator {
            design,
            config,
            latch_state,
            mem_state: vec![HashMap::new(); design.memories().len()],
            node_values: vec![false; design.aig.num_nodes()],
            free_pos,
            cycle: 0,
        }
    }

    /// Cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Overrides the current value of a latch (used to install free initial
    /// values from a counterexample trace).
    pub fn set_latch(&mut self, latch: usize, value: bool) {
        self.latch_state[latch] = value;
    }

    /// Current value of a latch.
    pub fn latch(&self, latch: usize) -> bool {
        self.latch_state[latch]
    }

    /// Seeds a memory word (initial contents for arbitrary-init memories).
    pub fn seed_memory(&mut self, mem: MemoryId, addr: u64, value: u64) {
        let m = self.design.memory(mem);
        let mask = word_mask(m.data_width);
        self.mem_state[mem.0 as usize].insert(addr & word_mask(m.addr_width), value & mask);
    }

    /// Reads a memory word as the *next* cycle would see it.
    pub fn read_memory(&self, mem: MemoryId, addr: u64) -> u64 {
        let m = self.design.memory(mem);
        let addr = addr & word_mask(m.addr_width);
        match self.mem_state[mem.0 as usize].get(&addr) {
            Some(&v) => v,
            None => match m.init {
                MemInit::Zero => 0,
                MemInit::Arbitrary => 0,
            },
        }
    }

    /// Value of an arbitrary AIG edge after the most recent step.
    pub fn value(&self, bit: crate::aig::Bit) -> bool {
        bit.apply(self.node_values[bit.node().index()])
    }

    /// Value of a word after the most recent step.
    ///
    /// Latch-output bits evaluate to their **pre-step** values (the values
    /// the cycle computed with); for the post-step register state use
    /// [`Simulator::state_value`].
    pub fn word_value(&self, word: &Word) -> u64 {
        word.bits()
            .iter()
            .enumerate()
            .map(|(i, &b)| (self.value(b) as u64) << i)
            .sum()
    }

    /// Post-step value of a word of latch outputs (the current register
    /// state). Non-latch bits fall back to their most recent node values.
    pub fn state_value(&self, word: &Word) -> u64 {
        word.bits()
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let v = match self.design.input_kind_of(b) {
                    Some(InputKind::Latch(l)) => self.latch_state[l.0 as usize] ^ b.is_inverted(),
                    _ => self.value(b),
                };
                (v as u64) << i
            })
            .sum()
    }

    /// Executes one cycle with the given free-input values (indexed in
    /// free-input creation order).
    ///
    /// # Panics
    ///
    /// Panics if `free_inputs` is shorter than the design's free input
    /// count, or on a write race when [`SimConfig::panic_on_race`] is set.
    pub fn step(&mut self, free_inputs: &[bool]) -> StepReport {
        self.step_with_disabled_reads(free_inputs, &[])
    }

    /// Like [`Simulator::step`], but with explicit values for read ports
    /// whose enable is inactive this cycle: `disabled_reads[mem][port]`.
    ///
    /// In the paper's semantics a disabled read bus is *unconstrained*; a
    /// counterexample found by BMC may rely on a specific garbage value, and
    /// replaying it faithfully requires injecting that value here. An empty
    /// slice (or missing entry) falls back to
    /// [`SimConfig::disabled_read_value`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulator::step`].
    pub fn step_with_disabled_reads(
        &mut self,
        free_inputs: &[bool],
        disabled_reads: &[Vec<u64>],
    ) -> StepReport {
        let design = self.design;
        let aig = &design.aig;
        assert!(
            free_inputs.len() >= design.free_inputs().len(),
            "need {} free inputs, got {}",
            design.free_inputs().len(),
            free_inputs.len()
        );
        // Forward pass in topological (id) order. Read-data pseudo-inputs
        // are resolved on the fly: their address/enable cones were built
        // before the port, so those nodes are already evaluated.
        for (id, node) in aig.iter() {
            let v = match node {
                Node::Const => false,
                Node::Input(i) => match design.input_kind(i as usize) {
                    InputKind::Free => free_inputs[self.free_pos[i as usize]],
                    InputKind::Latch(l) => self.latch_state[l.0 as usize],
                    InputKind::ReadData(mem, port, bit) => {
                        let m = design.memory(mem);
                        let rp = &m.read_ports[port as usize];
                        let en = rp.en.apply(self.node_values[rp.en.node().index()]);
                        let word = if en {
                            let addr = self.eval_word_now(&rp.addr);
                            self.read_memory(mem, addr)
                        } else {
                            disabled_reads
                                .get(mem.0 as usize)
                                .and_then(|ports| ports.get(port as usize))
                                .copied()
                                .unwrap_or(self.config.disabled_read_value)
                        };
                        (word >> bit) & 1 == 1
                    }
                },
                Node::And(a, b) => {
                    a.apply(self.node_values[a.node().index()])
                        && b.apply(self.node_values[b.node().index()])
                }
            };
            self.node_values[id.index()] = v;
        }
        // Evaluate report before state updates.
        let mut report = StepReport::default();
        for p in design.properties() {
            report.property_bad.push(self.value(p.bad));
        }
        for (i, &c) in design.constraints().iter().enumerate() {
            if !self.value(c) {
                report.violated_constraints.push(i);
            }
        }
        // Commit memory writes (visible next cycle); detect races.
        for (mi, m) in design.memories().iter().enumerate() {
            let mem_id = MemoryId(mi as u32);
            let mut written_this_cycle: HashMap<u64, usize> = HashMap::new();
            for (pi, wp) in m.write_ports.iter().enumerate() {
                if self.value(wp.en) {
                    let addr = self.word_value(&wp.addr);
                    let data = self.word_value(&wp.data);
                    if let Some(_prev) = written_this_cycle.insert(addr, pi) {
                        if self.config.panic_on_race {
                            panic!(
                                "write race on memory {} address {addr} at cycle {}",
                                m.name, self.cycle
                            );
                        }
                        report.write_races.push((mem_id, addr));
                    }
                    self.mem_state[mi].insert(addr, data);
                }
            }
        }
        // Advance latches.
        let next: Vec<bool> = design
            .latches()
            .iter()
            .map(|l| self.value(l.next.expect("checked design")))
            .collect();
        self.latch_state = next;
        self.cycle += 1;
        report
    }

    /// Evaluates a word whose cone has already been computed this pass.
    fn eval_word_now(&self, word: &Word) -> u64 {
        word.bits()
            .iter()
            .enumerate()
            .map(|(i, &b)| (b.apply(self.node_values[b.node().index()]) as u64) << i)
            .sum()
    }
}

/// A counterexample/witness trace, replayable on the [`Simulator`].
///
/// Produced by the BMC engine from a SAT model; `validate` re-executes it on
/// the concrete semantics and confirms the property violation — the standard
/// sanity check that abstraction (EMM) did not manufacture a spurious trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Initial value of every latch (frame 0).
    pub initial_latches: Vec<bool>,
    /// Free-input values per frame, in free-input order.
    pub frames: Vec<Vec<bool>>,
    /// Initial memory contents implied by the trace: per memory, a list of
    /// `(address, word)` seeds.
    pub memory_seeds: Vec<Vec<(u64, u64)>>,
    /// Values observed on disabled read ports, `[frame][mem][port]`; empty
    /// when the trace never exercises a disabled read.
    pub disabled_reads: Vec<Vec<Vec<u64>>>,
    /// Index of the property this trace violates.
    pub property: usize,
}

impl Trace {
    /// Length of the trace in cycles.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// A simulator of `design` in the trace's initial state: its initial
    /// latch values and memory seeds installed, no cycle run yet.
    pub fn start<'a>(&self, design: &'a Design) -> Simulator<'a> {
        let mut sim = Simulator::new(design);
        for (l, &v) in self.initial_latches.iter().enumerate() {
            sim.set_latch(l, v);
        }
        for (mi, seeds) in self.memory_seeds.iter().enumerate() {
            for &(addr, word) in seeds {
                sim.seed_memory(MemoryId(mi as u32), addr, word);
            }
        }
        sim
    }

    /// Replays the trace; returns `Ok(())` if the property's `bad` condition
    /// holds in the final cycle and no environment constraint is violated.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence: a violated constraint
    /// mid-trace or the property not failing at the final frame.
    pub fn validate(&self, design: &Design) -> Result<(), String> {
        let mut sim = self.start(design);
        let empty: Vec<Vec<u64>> = Vec::new();
        let mut last: Option<StepReport> = None;
        for (k, frame) in self.frames.iter().enumerate() {
            let disabled = self.disabled_reads.get(k).unwrap_or(&empty);
            let report = sim.step_with_disabled_reads(frame, disabled);
            if !report.violated_constraints.is_empty() {
                return Err(format!(
                    "constraint {} violated at frame {k}",
                    report.violated_constraints[0]
                ));
            }
            last = Some(report);
        }
        match last {
            None => Err("empty trace".to_string()),
            Some(report) => {
                if report
                    .property_bad
                    .get(self.property)
                    .copied()
                    .unwrap_or(false)
                {
                    Ok(())
                } else {
                    Err(format!(
                        "property {} not violated at final frame {}",
                        self.property,
                        self.frames.len() - 1
                    ))
                }
            }
        }
    }
}

/// Runs a [`LaneSimulator`] carries at once, one per bit of a word.
pub const LANES: usize = 64;

/// Domains of the words a [`LaneSimulator`] draws (see [`draw`]).
const LATCH: u64 = 1;
const INPUT: u64 = 2;
const MEMORY: u64 = 3;
const DISABLED: u64 = 4;

/// A word drawn from `seed` at `coords`: splitmix64's finalizer folded
/// over the coordinates, so every coordinate tuple draws its own word and
/// nothing needs to be stored to draw it again.
pub fn draw(seed: u64, coords: &[u64]) -> u64 {
    coords.iter().fold(mix(seed), |h, &c| {
        mix(h ^ c.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

/// splitmix64's finalizer, a bijection on 64-bit words.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one [`LaneSimulator`] cycle did, one bit per lane. A dead lane's
/// bits read 0.
#[derive(Clone, Debug, Default)]
pub struct LaneReport {
    /// Per property, the lanes where `bad` holds.
    pub bad: Vec<u64>,
    /// The lanes that violate some environment constraint.
    pub violated: u64,
    /// The lanes where two write ports of one memory wrote one address.
    pub raced: u64,
    /// Per memory, the lanes where some write port fired.
    pub wrote: Vec<u64>,
}

/// [`LANES`] runs of a design at once, each from a random state with
/// arbitrary memory contents, whatever the declared inits: every latch
/// starts random, and every cycle draws random free inputs and random
/// values on disabled read ports. Every value is drawn from the seed by
/// [`draw`]. A memory word a lane has not written reads
/// `draw(seed, lane, memory, address)` on its first read and keeps it, so
/// a memory costs only the words the run touches, at any address width.
///
/// The combinational core runs through the same word kernel as
/// [`eval_combinational_words`], one word per node. Memory reads and
/// writes are per lane, on the same semantics as [`Simulator`]: reads see
/// the contents before the cycle's writes, and of two writes to one
/// address in one cycle the higher-numbered port wins and the race is
/// reported. [`LaneSimulator::trace`] turns a lane's run into a [`Trace`]
/// the scalar simulator replays. A [killed](LaneSimulator::kill) lane no
/// longer reads or writes its memories.
#[derive(Clone, Debug)]
pub struct LaneSimulator<'a> {
    design: &'a Design,
    seed: u64,
    /// Per latch, its value in every lane.
    latches: Vec<u64>,
    /// Per lane and memory (`lane * memories + memory`), every word the
    /// lane wrote or read.
    words: Vec<HashMap<u64, u64>>,
    /// Per lane and memory, the words read before any write to them: the
    /// lane's initial contents, as far as its run looked.
    seeds: Vec<Vec<(u64, u64)>>,
    /// Node values from the most recent step.
    values: Vec<u64>,
    /// Dense input index -> position among the free inputs.
    free_pos: Vec<usize>,
    /// Per memory, the flat index of its first read port.
    first_port: Vec<usize>,
    /// Per flat read port, the cycle its data was last fetched at and the
    /// data of every lane.
    fetched: Vec<(u64, [u64; LANES])>,
    dead: u64,
    cycle: u64,
}

impl<'a> LaneSimulator<'a> {
    /// Starts [`LANES`] runs of `design` drawn from `seed`, none killed.
    pub fn new(design: &'a Design, seed: u64) -> LaneSimulator<'a> {
        let mut free_pos = vec![usize::MAX; design.num_inputs()];
        for (pos, &idx) in design.free_inputs().iter().enumerate() {
            free_pos[idx as usize] = pos;
        }
        let mut first_port = Vec::with_capacity(design.memories().len());
        let mut ports = 0;
        for m in design.memories() {
            first_port.push(ports);
            ports += m.read_ports.len();
        }
        let slots = LANES * design.memories().len();
        LaneSimulator {
            design,
            seed,
            latches: (0..design.num_latches() as u64)
                .map(|l| draw(seed, &[LATCH, l]))
                .collect(),
            words: vec![HashMap::new(); slots],
            seeds: vec![Vec::new(); slots],
            values: vec![0; design.aig.num_nodes()],
            free_pos,
            first_port,
            fetched: vec![(u64::MAX, [0; LANES]); ports],
            dead: 0,
            cycle: 0,
        }
    }

    /// The lanes not killed.
    pub fn live(&self) -> u64 {
        !self.dead
    }

    /// Kills the lanes in `lanes`: from the next cycle on they touch no
    /// memory and report nothing.
    pub fn kill(&mut self, lanes: u64) {
        self.dead |= lanes;
    }

    /// The current value of a latch in every lane.
    pub fn latch(&self, latch: usize) -> u64 {
        self.latches[latch]
    }

    /// A memory word of `lane` as the next cycle would read it, or `None`
    /// while the lane has neither written nor read it.
    pub fn memory_word(&self, lane: usize, mem: MemoryId, addr: u64) -> Option<u64> {
        let slot = lane * self.design.memories().len() + mem.0 as usize;
        self.words[slot].get(&addr).copied()
    }

    /// Memory words held over every lane and memory: the words the runs
    /// touched, never a memory's whole address space.
    pub fn stored_words(&self) -> usize {
        self.words.iter().map(HashMap::len).sum()
    }

    /// Executes one cycle in every live lane.
    pub fn step(&mut self) -> LaneReport {
        let design = self.design;
        let memories = design.memories();
        let live = !self.dead;
        let (seed, cycle) = (self.seed, self.cycle);
        let LaneSimulator {
            latches,
            words,
            seeds,
            values,
            free_pos,
            first_port,
            fetched,
            ..
        } = self;
        eval_words(&design.aig, 1, values, |i, base, values| {
            values[base] = match design.input_kind(i as usize) {
                InputKind::Free => draw(seed, &[INPUT, cycle, free_pos[i as usize] as u64]),
                InputKind::Latch(l) => latches[l.0 as usize],
                InputKind::ReadData(mem, port, bit) => {
                    let flat = first_port[mem.0 as usize] + port as usize;
                    let (at, data) = &mut fetched[flat];
                    if *at != cycle {
                        *at = cycle;
                        let m = design.memory(mem);
                        let rp = &m.read_ports[port as usize];
                        let en = edge(values, rp.en) & live;
                        let mask = word_mask(m.data_width);
                        for (lane, word) in data.iter_mut().enumerate() {
                            *word = if en >> lane & 1 == 1 {
                                let addr = lane_word(values, &rp.addr, lane);
                                let slot = lane * memories.len() + mem.0 as usize;
                                *words[slot].entry(addr).or_insert_with(|| {
                                    let word =
                                        draw(seed, &[MEMORY, lane as u64, mem.0 as u64, addr])
                                            & mask;
                                    seeds[slot].push((addr, word));
                                    word
                                })
                            } else if live >> lane & 1 == 1 {
                                draw(seed, &[DISABLED, cycle, lane as u64, flat as u64]) & mask
                            } else {
                                0
                            };
                        }
                    }
                    (0..LANES).fold(0, |w, lane| w | (data[lane] >> bit & 1) << lane)
                }
            };
        });
        let values = &self.values;
        let mut report = LaneReport {
            bad: (design.properties().iter())
                .map(|p| edge(values, p.bad) & live)
                .collect(),
            violated: (design.constraints().iter()).fold(0, |v, &c| v | !edge(values, c)) & live,
            ..LaneReport::default()
        };
        // Commit memory writes (visible next cycle); detect races.
        let mut written = Vec::new();
        for (mi, m) in memories.iter().enumerate() {
            let enables: Vec<u64> = (m.write_ports.iter())
                .map(|wp| edge(values, wp.en) & live)
                .collect();
            let wrote = enables.iter().fold(0, |w, &en| w | en);
            for lane in (0..LANES).filter(|&lane| wrote >> lane & 1 == 1) {
                written.clear();
                for (wp, en) in m.write_ports.iter().zip(&enables) {
                    if en >> lane & 1 == 1 {
                        let addr = lane_word(values, &wp.addr, lane);
                        if written.contains(&addr) {
                            report.raced |= 1 << lane;
                        }
                        written.push(addr);
                        let data = lane_word(values, &wp.data, lane);
                        self.words[lane * memories.len() + mi].insert(addr, data);
                    }
                }
            }
            report.wrote.push(wrote);
        }
        self.latches = (design.latches().iter())
            .map(|l| edge(values, l.next.expect("checked design")))
            .collect();
        self.cycle += 1;
        report
    }

    /// The first `frames` cycles of `lane` as a [`Trace`] for `property`:
    /// its initial latches, the words its run read before writing them as
    /// memory seeds, and every cycle's free inputs and disabled-read
    /// values. [`Trace::start`] and [`Simulator::step_with_disabled_reads`]
    /// replay it.
    pub fn trace(&self, lane: usize, frames: usize, property: usize) -> Trace {
        let design = self.design;
        let bit = |word: u64| word >> lane & 1 == 1;
        let memories = design.memories();
        Trace {
            initial_latches: (0..design.num_latches() as u64)
                .map(|l| bit(draw(self.seed, &[LATCH, l])))
                .collect(),
            frames: (0..frames as u64)
                .map(|c| {
                    (0..design.free_inputs().len() as u64)
                        .map(|pos| bit(draw(self.seed, &[INPUT, c, pos])))
                        .collect()
                })
                .collect(),
            memory_seeds: (0..memories.len())
                .map(|mi| {
                    let mut seeds = self.seeds[lane * memories.len() + mi].clone();
                    seeds.sort_unstable();
                    seeds
                })
                .collect(),
            disabled_reads: (0..frames as u64)
                .map(|c| {
                    (memories.iter().zip(&self.first_port))
                        .map(|(m, &first)| {
                            (first..first + m.read_ports.len())
                                .map(|flat| {
                                    let coords = [DISABLED, c, lane as u64, flat as u64];
                                    draw(self.seed, &coords) & word_mask(m.data_width)
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            property,
        }
    }
}

/// The word of edge `bit` in `values`, one bit per lane.
fn edge(values: &[u64], bit: Bit) -> u64 {
    values[bit.node().index()] ^ invert_mask(bit)
}

/// The value of `word` in `lane`.
fn lane_word(values: &[u64], word: &Word, lane: usize) -> u64 {
    (word.bits().iter().enumerate()).fold(0, |w, (i, &b)| w | (edge(values, b) >> lane & 1) << i)
}

fn word_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{Design, LatchInit, MemInit};

    /// A 4-bit counter that wraps; property: counter != 9.
    fn counter_design() -> Design {
        let mut d = Design::new();
        let count = d.new_latch_word("count", 4, LatchInit::Zero);
        let next = d.aig.inc(&count);
        d.set_next_word(&count, &next);
        let bad = d.aig.eq_const(&count, 9);
        d.add_property("ne9", bad);
        d.check().expect("valid");
        d
    }

    #[test]
    fn counter_counts() {
        let d = counter_design();
        let mut sim = Simulator::new(&d);
        for expect in 0..20u64 {
            let report = sim.step(&[]);
            assert_eq!(report.property_bad[0], expect % 16 == 9, "cycle {expect}");
        }
    }

    /// Write then read the same address: data visible one cycle later.
    #[test]
    fn memory_write_read_latency() {
        let mut d = Design::new();
        let mem = d.add_memory("m", 4, 8, MemInit::Zero);
        let waddr = d.new_input_word("waddr", 4);
        let wdata = d.new_input_word("wdata", 8);
        let we = d.new_input("we");
        d.add_write_port(mem, waddr, we, wdata);
        let raddr = d.new_input_word("raddr", 4);
        let re = d.new_input("re");
        let rd = d.add_read_port(mem, raddr, re);
        d.check().expect("valid");

        let mut sim = Simulator::new(&d);
        // Cycle 0: write 0xAB to address 3, read address 3 (same cycle).
        let mut inputs = Vec::new();
        inputs.extend((0..4).map(|i| (3u64 >> i) & 1 == 1)); // waddr
        inputs.extend((0..8).map(|i| (0xABu64 >> i) & 1 == 1)); // wdata
        inputs.push(true); // we
        inputs.extend((0..4).map(|i| (3u64 >> i) & 1 == 1)); // raddr
        inputs.push(true); // re
        sim.step(&inputs);
        assert_eq!(sim.word_value(&rd), 0, "same-cycle read sees old contents");
        // Cycle 1: no write, read address 3.
        let mut inputs2 = vec![false; inputs.len()];
        for i in 0..4 {
            inputs2[13 + i] = (3u64 >> i) & 1 == 1;
        }
        inputs2[17] = true; // re
        sim.step(&inputs2);
        assert_eq!(sim.word_value(&rd), 0xAB, "next-cycle read sees the write");
        // Disabled read returns the configured value.
        inputs2[17] = false;
        sim.step(&inputs2);
        assert_eq!(sim.word_value(&rd), 0);
    }

    #[test]
    fn race_detection() {
        let mut d = Design::new();
        let mem = d.add_memory("m", 2, 4, MemInit::Zero);
        let addr = d.new_input_word("addr", 2);
        let data = d.new_input_word("data", 4);
        let we = d.new_input("we");
        d.add_write_port(mem, addr.clone(), we, data.clone());
        d.add_write_port(mem, addr, we, data);
        d.check().expect("valid");
        let mut sim = Simulator::new(&d);
        let mut inputs = vec![false; 7];
        inputs[6] = true; // we for both ports, same address -> race
        let report = sim.step(&inputs);
        assert_eq!(report.write_races.len(), 1);
    }

    #[test]
    fn arbitrary_memory_seeding() {
        let mut d = Design::new();
        let mem = d.add_memory("m", 4, 8, MemInit::Arbitrary);
        let raddr = d.new_input_word("raddr", 4);
        let re = d.new_input("re");
        let rd = d.add_read_port(mem, raddr, re);
        d.check().expect("valid");
        let mut sim = Simulator::new(&d);
        sim.seed_memory(mem, 5, 0x5A);
        let mut inputs: Vec<bool> = (0..4).map(|i| (5u64 >> i) & 1 == 1).collect();
        inputs.push(true);
        sim.step(&inputs);
        assert_eq!(sim.word_value(&rd), 0x5A);
    }

    #[test]
    fn trace_validation_detects_violation() {
        let d = counter_design();
        // A valid counterexample: 10 steps reach count == 9.
        let trace = Trace {
            initial_latches: vec![false; 4],
            frames: vec![vec![]; 10],
            memory_seeds: vec![],
            disabled_reads: vec![],
            property: 0,
        };
        assert!(trace.validate(&d).is_ok());
        // Too short: property not yet violated.
        let short = Trace {
            initial_latches: vec![false; 4],
            frames: vec![vec![]; 5],
            memory_seeds: vec![],
            disabled_reads: vec![],
            property: 0,
        };
        assert!(short.validate(&d).is_err());
    }

    #[test]
    fn free_init_latch_override() {
        let mut d = Design::new();
        let w = d.new_latch_word("x", 3, LatchInit::Free);
        let same = w.clone();
        d.set_next_word(&w, &same);
        let bad = d.aig.eq_const(&w, 6);
        d.add_property("x_ne_6", bad);
        let trace = Trace {
            initial_latches: vec![false, true, true], // 6 little-endian
            frames: vec![vec![]],
            memory_seeds: vec![],
            disabled_reads: vec![],
            property: 0,
        };
        assert!(trace.validate(&d).is_ok());
    }
}
