//! Pinned counters of the cut-rewriting pass on the paper designs.
//!
//! Rewriting runs before every engine, so its output graph feeds every
//! clause count and verdict downstream. A change to cut enumeration,
//! canonicalization, candidate measurement or global selection that
//! moves any counter here — AND counts, candidates, exchanges, classes —
//! changes the graphs, and should fail here rather than only in the bench
//! gate. The values are those of the pass before its allocation-free
//! rewrite, which kept every graph node for node.

use emm_verif::aig::rewrite::{rewrite_design, RewriteStats};
use emm_verif::aig::Design;
use emm_verif::designs::image_filter::{ImageFilter, ImageFilterConfig};
use emm_verif::designs::quicksort::{QuickSort, QuickSortConfig};

/// A counter row in field order: ands before / after, iterations,
/// rewrites, XOR and mux rewrites, cuts enumerated, candidates tried,
/// zero-gain skipped, collected, selection-dropped, exchange swaps,
/// reuse-preferred, NPN classes.
fn pinned(row: [u64; 14]) -> RewriteStats {
    let [before, after, iterations, rewrites, xor, mux, cuts, tried, zero, collected, dropped, swaps, reuse, classes] =
        row;
    RewriteStats {
        ands_before: before as usize,
        ands_after: after as usize,
        iterations: iterations as usize,
        rewrites,
        xor_rewrites: xor,
        mux_rewrites: mux,
        cuts_enumerated: cuts,
        candidates_tried: tried,
        zero_gain_skipped: zero,
        candidates_collected: collected,
        select_dropped: dropped,
        exchange_swaps: swaps,
        reuse_preferred: reuse,
        npn_classes: classes as usize,
        interrupted: false,
    }
}

fn assert_counters(name: &str, design: &Design, row: [u64; 14]) {
    let mut d = design.clone();
    assert_eq!(rewrite_design(&mut d), pinned(row), "{name}");
    assert_eq!(d.aig.num_ands() as u64, row[1], "{name}: graph size");
}

/// Quicksort `paper(n)` rows for n = 3, 4, 5.
const QUICKSORT_PAPER: [[u64; 14]; 3] = [
    [
        2243, 1958, 3, 200, 28, 4, 51727, 42627, 41950, 677, 477, 6, 200, 37,
    ],
    [
        2241, 1960, 3, 198, 28, 4, 51738, 42640, 41980, 660, 462, 3, 198, 37,
    ],
    [
        2243, 1961, 3, 199, 28, 4, 51741, 42638, 41965, 673, 474, 3, 199, 37,
    ],
];

/// Quicksort `small(n)` rows for n = 3, 4, 5.
const QUICKSORT_SMALL: [[u64; 14]; 3] = [
    [
        570, 459, 3, 67, 7, 4, 12867, 10702, 10354, 348, 281, 4, 67, 38,
    ],
    [
        568, 458, 3, 67, 7, 4, 12866, 10706, 10365, 341, 274, 1, 67, 37,
    ],
    [
        570, 462, 3, 68, 7, 4, 12910, 10736, 10391, 345, 277, 1, 68, 38,
    ],
];

#[test]
fn quicksort_rewrite_counters_are_pinned() {
    for (n, (paper, small)) in (3..=5).zip(QUICKSORT_PAPER.into_iter().zip(QUICKSORT_SMALL)) {
        let design = QuickSort::new(QuickSortConfig::paper(n)).design;
        assert_counters(&format!("quicksort paper({n})"), &design, paper);
        let design = QuickSort::new(QuickSortConfig::small(n)).design;
        assert_counters(&format!("quicksort small({n})"), &design, small);
    }
}

#[test]
fn image_filter_rewrite_counters_are_pinned() {
    let paper = ImageFilter::new(ImageFilterConfig::paper());
    assert_counters(
        "image filter (paper)",
        &paper.design,
        [
            977, 862, 4, 115, 70, 0, 20002, 16076, 15809, 267, 152, 4, 115, 36,
        ],
    );
    let small = ImageFilter::new(ImageFilterConfig::small());
    assert_counters(
        "image filter (small)",
        &small.design,
        [406, 333, 2, 70, 32, 0, 5858, 4631, 4466, 165, 95, 4, 70, 36],
    );
}
