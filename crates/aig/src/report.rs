//! Human-readable counterexample reports.
//!
//! [`format_trace`] replays a [`Trace`] on the [`Simulator`] and renders a
//! cycle-by-cycle account: register values (bit-latches regrouped into
//! words by their `name[i]` naming convention), memory port activity, and
//! property status — the "waveform" a verification engineer reads before
//! opening a real wave viewer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::design::{Design, MemoryId};
use crate::fraig::FraigStats;
use crate::rewrite::RewriteStats;
use crate::sim::{Simulator, Trace};

/// Renders fraig-pass counters as a one-line summary, in the style the
/// bench harness prints design statistics.
pub fn format_fraig_stats(stats: &FraigStats) -> String {
    let truncated = if stats.buckets_truncated > 0 {
        format!(
            ", {} cones refused by full buckets",
            stats.buckets_truncated
        )
    } else {
        String::new()
    };
    format!(
        "fraig: {} -> {} ANDs (-{}; {} proved merges, {} const, {} structural), \
         {} SAT checks ({} refuted, {} unknown), {} cex patterns over {} total{truncated}",
        stats.ands_before,
        stats.ands_after,
        stats.ands_removed(),
        stats.merges,
        stats.const_merges,
        stats.structural_merges,
        stats.sat_checks,
        stats.refuted,
        stats.unknown,
        stats.cex_patterns,
        stats.sim_patterns,
    )
}

/// Renders rewrite-pass counters as a one-line summary, the companion of
/// [`format_fraig_stats`] for the cut-based rewriting stage.
pub fn format_rewrite_stats(stats: &RewriteStats) -> String {
    format!(
        "rewrite: {} -> {} ANDs (-{}; {} rewrites, {} xor, {} mux) in {} iters, \
         {} cuts, {} candidates ({} zero-gain); select {} -> {} kept \
         ({} overlap-dropped, {} exchanges), {} NPN classes",
        stats.ands_before,
        stats.ands_after,
        stats.ands_removed(),
        stats.rewrites,
        stats.xor_rewrites,
        stats.mux_rewrites,
        stats.iterations,
        stats.cuts_enumerated,
        stats.candidates_tried,
        stats.zero_gain_skipped,
        stats.candidates_collected,
        stats.candidates_collected - stats.select_dropped,
        stats.select_dropped,
        stats.exchange_swaps,
        stats.npn_classes,
    )
}

/// Renders a trace as a per-cycle textual report.
///
/// The trace is replayed on the concrete simulator (seeds, disabled-read
/// values and free initial latches installed), so the report shows real
/// execution, not raw SAT assignments.
///
/// # Panics
///
/// Panics if the trace's input vectors do not match the design.
pub fn format_trace(design: &Design, trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} cycles, property #{} ({})",
        trace.frames.len(),
        trace.property,
        design
            .properties()
            .get(trace.property)
            .map(|p| p.name.as_str())
            .unwrap_or("?")
    );
    // Initial memory seeds.
    for (mi, seeds) in trace.memory_seeds.iter().enumerate() {
        if !seeds.is_empty() {
            let name = &design.memories()[mi].name;
            let cells: Vec<String> = seeds.iter().map(|(a, v)| format!("[{a}]={v:#x}")).collect();
            let _ = writeln!(out, "initial {name}: {}", cells.join(" "));
        }
    }

    // Group latches into words by "name[i]" convention.
    let groups = latch_groups(design);

    let mut sim = Simulator::new(design);
    for (l, &v) in trace.initial_latches.iter().enumerate() {
        sim.set_latch(l, v);
    }
    for (mi, seeds) in trace.memory_seeds.iter().enumerate() {
        for &(a, v) in seeds {
            sim.seed_memory(MemoryId(mi as u32), a, v);
        }
    }
    let empty: Vec<Vec<u64>> = Vec::new();
    for (k, inputs) in trace.frames.iter().enumerate() {
        let disabled = trace.disabled_reads.get(k).unwrap_or(&empty);
        // Render pre-step registers.
        let regs: Vec<String> = groups
            .iter()
            .map(|(name, bits)| {
                let value: u64 = bits
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| (sim.latch(l) as u64) << i)
                    .sum();
                format!("{name}={value:#x}")
            })
            .collect();
        let report = sim.step_with_disabled_reads(inputs, disabled);
        let _ = write!(out, "cycle {k:>3}: {}", regs.join(" "));
        // Memory activity (evaluated combinational values of this cycle).
        for (mi, m) in design.memories().iter().enumerate() {
            for (pi, rp) in m.read_ports.iter().enumerate() {
                if sim.value(rp.en) {
                    let addr = sim.word_value(&rp.addr);
                    let data = sim.word_value(&rp.data);
                    let _ = write!(out, "  R {}#{pi}[{addr}]→{data:#x}", m.name);
                }
            }
            for (pi, wp) in m.write_ports.iter().enumerate() {
                if sim.value(wp.en) {
                    let addr = sim.word_value(&wp.addr);
                    let data = sim.word_value(&wp.data);
                    let _ = write!(out, "  W {}#{pi}[{addr}]←{data:#x}", m.name);
                }
            }
            let _ = mi;
        }
        let fired: Vec<&str> = report
            .property_bad
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| design.properties()[i].name.as_str())
            .collect();
        if !fired.is_empty() {
            let _ = write!(out, "  !! {}", fired.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}

/// Groups latch indices into named words via the `name[i]` convention;
/// unindexed latches become single-bit entries.
fn latch_groups(design: &Design) -> Vec<(String, Vec<usize>)> {
    let mut map: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    for (idx, latch) in design.latches().iter().enumerate() {
        match split_indexed(&latch.name) {
            Some((base, bit)) => map.entry(base.to_string()).or_default().push((bit, idx)),
            None => map.entry(latch.name.clone()).or_default().push((0, idx)),
        }
    }
    map.into_iter()
        .map(|(name, mut bits)| {
            bits.sort_unstable();
            (name, bits.into_iter().map(|(_, idx)| idx).collect())
        })
        .collect()
}

fn split_indexed(name: &str) -> Option<(&str, usize)> {
    let open = name.rfind('[')?;
    let close = name.rfind(']')?;
    if close != name.len() - 1 || open + 1 >= close {
        return None;
    }
    let bit: usize = name[open + 1..close].parse().ok()?;
    Some((&name[..open], bit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{LatchInit, MemInit};

    #[test]
    fn split_indexed_parses_names() {
        assert_eq!(split_indexed("count[3]"), Some(("count", 3)));
        assert_eq!(split_indexed("x[0]"), Some(("x", 0)));
        assert_eq!(split_indexed("plain"), None);
        assert_eq!(split_indexed("odd[2"), None);
        assert_eq!(split_indexed("trail[2]x"), None);
    }

    #[test]
    fn report_shows_registers_memory_and_property() {
        let mut d = Design::new();
        let mem = d.add_memory("buf", 3, 4, MemInit::Arbitrary);
        let t = d.new_latch_word("t", 3, LatchInit::Zero);
        let nt = d.aig.inc(&t);
        d.set_next_word(&t, &nt);
        let raddr = d.aig.const_word(5, 3);
        let rd = d.add_read_port(mem, raddr, crate::Aig::TRUE);
        let bad = d.aig.eq_const(&rd, 0xC);
        d.add_property("sees_0xC", bad);
        d.check().expect("valid");

        let trace = Trace {
            initial_latches: vec![false; 3],
            frames: vec![vec![], vec![]],
            memory_seeds: vec![vec![(5, 0xC)]],
            disabled_reads: vec![],
            property: 0,
        };
        trace.validate(&d).expect("trace is real");
        let report = format_trace(&d, &trace);
        assert!(report.contains("property #0 (sees_0xC)"), "{report}");
        assert!(report.contains("initial buf: [5]=0xc"), "{report}");
        assert!(report.contains("t=0x0"), "{report}");
        assert!(report.contains("R buf#0[5]→0xc"), "{report}");
        assert!(report.contains("!! sees_0xC"), "{report}");
        assert!(report.contains("cycle   1: t=0x1"), "{report}");
    }
}
