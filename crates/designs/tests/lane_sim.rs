//! The 64-lane floating simulator against the scalar one. Every lane of a
//! `LaneSimulator` run, replayed from its `trace` on a `Simulator`, must
//! show the same latches, `bad` values, constraint violations, write
//! races, write enables and written words at every cycle, on generated
//! multi-port designs up to 32-bit addresses and 32-bit words.

use emm_aig::sim::{draw, LANES};
use emm_aig::{Design, LaneReport, LaneSimulator, MemoryId};
use emm_designs::gen::{random_design, GenConfig};

/// Cycles each lane run takes.
const CYCLES: usize = 12;

/// Multi-port memory designs (1–2 read and 1–2 write ports per memory,
/// random enables) with up to 32-bit addresses and data.
fn wide() -> GenConfig {
    GenConfig {
        max_memories: 2,
        max_addr_width: 32,
        max_data_width: 32,
        ..GenConfig::btor2_guarded()
    }
}

/// Runs all lanes of `d` from `seed` for [`CYCLES`] cycles and replays
/// every lane on the scalar simulator, comparing each cycle. Returns the
/// memory words the lane simulator holds at the end.
fn lanes_match_scalar_replays(d: &Design, seed: u64, label: &str) -> usize {
    let mut lanes = LaneSimulator::new(d, seed);
    let mut latches: Vec<Vec<u64>> = Vec::new();
    let mut reports: Vec<LaneReport> = Vec::new();
    for _ in 0..CYCLES {
        latches.push((0..d.num_latches()).map(|l| lanes.latch(l)).collect());
        reports.push(lanes.step());
    }
    latches.push((0..d.num_latches()).map(|l| lanes.latch(l)).collect());
    for lane in 0..LANES {
        let bit = |word: u64| word >> lane & 1 == 1;
        let trace = lanes.trace(lane, CYCLES, 0);
        let mut sim = trace.start(d);
        let mut written: Vec<(MemoryId, u64)> = Vec::new();
        for (c, report) in reports.iter().enumerate() {
            let at = format!("{label}, lane {lane}, cycle {c}");
            for (l, &word) in latches[c].iter().enumerate() {
                assert_eq!(sim.latch(l), bit(word), "{at}: latch {l}");
            }
            let scalar = sim.step_with_disabled_reads(&trace.frames[c], &trace.disabled_reads[c]);
            for (p, &bad) in report.bad.iter().enumerate() {
                assert_eq!(scalar.property_bad[p], bit(bad), "{at}: bad {p}");
            }
            assert_eq!(
                !scalar.violated_constraints.is_empty(),
                bit(report.violated),
                "{at}: constraints"
            );
            assert_eq!(
                !scalar.write_races.is_empty(),
                bit(report.raced),
                "{at}: races"
            );
            for (m, memory) in d.memories().iter().enumerate() {
                let mem = MemoryId(m as u32);
                let mut wrote = false;
                for wp in memory.write_ports.iter().filter(|wp| sim.value(wp.en)) {
                    wrote = true;
                    written.push((mem, sim.word_value(&wp.addr)));
                }
                assert_eq!(wrote, bit(report.wrote[m]), "{at}: writes of memory {m}");
            }
        }
        for (l, &word) in latches[CYCLES].iter().enumerate() {
            assert_eq!(
                sim.latch(l),
                bit(word),
                "{label}, lane {lane}: final latch {l}"
            );
        }
        for (mem, addr) in written {
            assert_eq!(
                lanes.memory_word(lane, mem, addr),
                Some(sim.read_memory(mem, addr)),
                "{label}, lane {lane}: memory {} address {addr}",
                mem.0
            );
        }
    }
    lanes.stored_words()
}

#[test]
fn every_lane_replays_on_the_scalar_simulator() {
    for seed in 0..40 {
        let d = random_design(&GenConfig::btor2_guarded(), seed);
        lanes_match_scalar_replays(&d, draw(seed, &[1]), &format!("btor2 seed {seed}"));
    }
}

/// Wide memories draw a word on its first read and keep only the words a
/// run touched: at most one per read or write port, cycle and lane, never
/// a dense address space.
#[test]
fn wide_multiport_memories_replay_and_stay_sparse() {
    let mut wide_designs = 0;
    for seed in 0..40 {
        let d = random_design(&wide(), seed);
        let ports: usize = (d.memories().iter())
            .map(|m| m.read_ports.len() + m.write_ports.len())
            .sum();
        let words = lanes_match_scalar_replays(&d, draw(seed, &[2]), &format!("wide seed {seed}"));
        assert!(
            words <= ports * CYCLES * LANES,
            "wide seed {seed}: {words} words held for {ports} ports"
        );
        wide_designs += usize::from(d.memories().iter().any(|m| m.addr_width >= 16));
    }
    assert!(
        wide_designs >= 10,
        "only {wide_designs} designs with aw >= 16"
    );
}

/// A killed lane stops touching its memories and reports nothing, and
/// the live lanes run on exactly as before.
#[test]
fn killed_lanes_leave_the_live_ones_unchanged() {
    let even = 0x5555_5555_5555_5555;
    let (mut all_words, mut half_words) = (0, 0);
    for seed in 0..10 {
        let d = random_design(&wide(), seed);
        let mut all = LaneSimulator::new(&d, seed);
        let mut half = LaneSimulator::new(&d, seed);
        for c in 0..CYCLES {
            if c == 4 {
                half.kill(!even);
            }
            let (a, h) = (all.step(), half.step());
            let live = half.live();
            assert_eq!(live, if c < 4 { u64::MAX } else { even });
            let at = format!("seed {seed}, cycle {c}");
            for (x, y) in a.bad.iter().zip(&h.bad) {
                assert_eq!(x & live, *y, "{at}: bad");
            }
            assert_eq!(a.violated & live, h.violated, "{at}");
            assert_eq!(a.raced & live, h.raced, "{at}");
            for (x, y) in a.wrote.iter().zip(&h.wrote) {
                assert_eq!(x & live, *y, "{at}: writes");
            }
            for l in 0..d.num_latches() {
                assert_eq!(all.latch(l) & live, half.latch(l) & live, "{at}");
            }
        }
        all_words += all.stored_words();
        half_words += half.stored_words();
    }
    assert!(half_words < all_words, "{half_words} vs {all_words} words");
}
