//! Parse-then-verify differentials for the AIGER and BTOR2 frontends.
//!
//! The round-trip suite (`emm-designs/tests/frontend_roundtrip.rs`)
//! proves the writers and parsers invert each other *syntactically*;
//! this suite proves the parsed designs mean the same thing to the
//! verification engines:
//!
//! * **Seeded sweep** — 200 generated designs per format are written,
//!   re-parsed, and bounded-checked on every property; the verdict
//!   (including counterexample and proof depths) must be identical to
//!   the in-memory original's. BTOR2's guarded-read lowering turns
//!   disabled reads into oracle inputs, which is exactly the
//!   nondeterminism the EMM encoder gives an unconstrained read — the
//!   sweep pins that equivalence.
//! * **Three-way subset** — a smaller seed family goes through bounded
//!   BMC, k-induction, *and* the BDD reachability oracle on both the
//!   original and the parsed design; all verdicts must agree
//!   pairwise and none of the three engines may contradict another.
//! * **Golden corpus** — every file under `corpus/` (the Table 1/2
//!   workloads plus the case studies, emitted by
//!   `cargo run -p emm-bench --bin corpus -- --emit`) is parsed with
//!   [`ModelSource`] and checked against a freshly constructed design
//!   of the identical configuration, bounded and k-induction, with
//!   [`dump_bmc_cnf`] instances cross-solved for the small entries.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use emm_aig::aiger::{read_aiger, write_aiger_ascii, write_aiger_binary};
use emm_aig::btor2::{read_btor2, write_btor2};
use emm_aig::Design;
use emm_bdd::{check_invariant, OracleVerdict, SymbolicOptions};
use emm_bmc::{dump_bmc_cnf, BmcEngine, BmcVerdict, ModelSource, ProofEngine, VerifyOptions};
use emm_core::explicit_model;
use emm_designs::fifo::{Fifo, FifoConfig};
use emm_designs::gen::{random_design, GenConfig};
use emm_designs::image_filter::{ImageFilter, ImageFilterConfig};
use emm_designs::lifo::{Lifo, LifoConfig};
use emm_designs::memcpy::{Memcpy, MemcpyConfig};
use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};
use emm_designs::regfile::{RegFile, RegFileConfig};
use proptest::prelude::*;

/// Comparable rendering of a verdict, depths included.
fn verdict_key(v: &BmcVerdict) -> String {
    match v {
        BmcVerdict::Proof { kind, depth } => format!("proof:{kind:?}@{depth}"),
        BmcVerdict::Counterexample(t) => format!("cex@{}", t.frames.len() - 1),
        BmcVerdict::Proved { k } => format!("proved@{k}"),
        BmcVerdict::BoundReached => "bound".to_string(),
        BmcVerdict::Unknown { reason, .. } => format!("unknown:{reason:?}"),
    }
}

/// Bounded verdict key of one property.
fn bounded_key(d: &Design, prop: usize, max_depth: usize) -> String {
    let run = BmcEngine::new(d, VerifyOptions::default())
        .check(prop, max_depth)
        .expect("bounded check");
    verdict_key(&run.verdict)
}

/// K-induction verdict key of one property.
fn induction_key(d: &Design, prop: usize, max_k: usize) -> String {
    let run = BmcEngine::new(
        d,
        VerifyOptions::default().proof_engine(ProofEngine::KInduction),
    )
    .check(prop, max_k)
    .expect("induction check");
    verdict_key(&run.verdict)
}

/// Asserts every property of `parsed` gets the same bounded verdict as
/// the matching property of `original`.
fn assert_bounded_agree(original: &Design, parsed: &Design, max_depth: usize, label: &str) {
    assert_eq!(
        parsed.properties().len(),
        original.properties().len(),
        "{label}: property count changed across the frontend"
    );
    for prop in 0..original.properties().len() {
        assert_eq!(
            bounded_key(original, prop, max_depth),
            bounded_key(parsed, prop, max_depth),
            "{label}: bounded verdict diverged on property {prop}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn aiger_parse_then_verify_agrees(seed in any::<u64>()) {
        let d = random_design(&GenConfig::aiger(), seed);
        let parsed = read_aiger(&write_aiger_binary(&d).unwrap())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_bounded_agree(&d, &parsed, 6, &format!("aiger seed {seed}"));
    }

    #[test]
    fn btor2_parse_then_verify_agrees(seed in any::<u64>()) {
        let d = random_design(&GenConfig::btor2(), seed);
        let parsed = read_btor2(&write_btor2(&d).unwrap())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_bounded_agree(&d, &parsed, 6, &format!("btor2 seed {seed}"));
    }

    #[test]
    fn btor2_guarded_parse_then_verify_agrees(seed in any::<u64>()) {
        // Guarded reads lower to oracle inputs; an unconstrained EMM read
        // and a free input are the same nondeterminism, so even cex
        // depths must survive the lowering.
        let d = random_design(&GenConfig::btor2_guarded(), seed);
        let parsed = read_btor2(&write_btor2(&d).unwrap())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_bounded_agree(&d, &parsed, 6, &format!("guarded seed {seed}"));
    }
}

/// Three-way check of one (original, parsed) pair on one property:
/// bounded, k-induction and BDD verdicts must agree across the frontend,
/// and within the parsed design no engine may contradict another.
fn three_way(original: &Design, parsed: &Design, prop: usize, max_k: usize, label: &str) {
    let bounded_orig = bounded_key(original, prop, max_k);
    let bounded_parsed = bounded_key(parsed, prop, max_k);
    assert_eq!(bounded_orig, bounded_parsed, "{label}: bounded diverged");

    let ki_orig = induction_key(original, prop, max_k);
    let ki_parsed = induction_key(parsed, prop, max_k);
    assert_eq!(ki_orig, ki_parsed, "{label}: k-induction diverged");

    // A node-limit abort while *building* the relation surfaces as `Err`;
    // for the differential it is the same "no oracle opinion" as an
    // in-check abort. The limit is far below the library default so that
    // the seeds whose expansions genuinely blow up give up in
    // milliseconds instead of minutes.
    let oracle = |d: &Design| {
        check_invariant(
            d,
            prop,
            SymbolicOptions {
                node_limit: 100_000,
            },
        )
        .unwrap_or(OracleVerdict::Inconclusive)
    };
    let oracle_orig = oracle(original);
    let oracle_parsed = oracle(parsed);
    match (&oracle_orig, &oracle_parsed) {
        (OracleVerdict::Holds { .. }, OracleVerdict::Holds { .. }) => {}
        (OracleVerdict::Violated { depth: a }, OracleVerdict::Violated { depth: b }) => {
            assert_eq!(a, b, "{label}: oracle violation depth diverged");
        }
        (OracleVerdict::Inconclusive, _) | (_, OracleVerdict::Inconclusive) => {}
        (a, b) => panic!("{label}: oracle diverged across the frontend: {a:?} vs {b:?}"),
    }

    // Internal consistency on the parsed design.
    if let OracleVerdict::Violated { depth } = oracle_parsed {
        if depth <= max_k {
            assert_eq!(
                bounded_parsed,
                format!("cex@{depth}"),
                "{label}: oracle violates at {depth} inside the bound"
            );
        }
        assert!(
            !ki_parsed.starts_with("proved"),
            "{label}: k-induction proved a violated property"
        );
    }
    if oracle_parsed.holds() {
        assert!(
            !bounded_parsed.starts_with("cex") && !ki_parsed.starts_with("cex"),
            "{label}: SAT engine cex on a property the oracle proves \
             (bounded {bounded_parsed}, induction {ki_parsed})"
        );
    }
}

#[test]
fn three_way_on_seeded_designs() {
    for seed in 0..8u64 {
        let d = random_design(&GenConfig::btor2_guarded(), seed);
        let parsed = read_btor2(&write_btor2(&d).unwrap()).expect("parse");
        for prop in 0..d.properties().len() {
            three_way(
                &d,
                &parsed,
                prop,
                8,
                &format!("guarded seed {seed} p{prop}"),
            );
        }
        let d = random_design(&GenConfig::aiger(), seed);
        let parsed = read_aiger(write_aiger_ascii(&d).unwrap().as_bytes()).expect("parse");
        for prop in 0..d.properties().len() {
            three_way(&d, &parsed, prop, 8, &format!("aiger seed {seed} p{prop}"));
        }
    }
}

/// `corpus/` relative to this crate's manifest.
fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// Loads one golden corpus file, panicking with a regeneration hint.
fn load_corpus(name: &str) -> Arc<Design> {
    let path = corpus_dir().join(name);
    ModelSource::from_path(&path).load().unwrap_or_else(|e| {
        panic!(
            "cannot load {}: {e}\n(regenerate with `cargo run -p emm-bench --bin corpus -- --emit`)",
            path.display()
        )
    })
}

/// The freshly constructed counterpart of each golden corpus file —
/// configurations must mirror `emm-bench/src/bin/corpus.rs` exactly.
fn constructed(name: &str) -> Design {
    let fifo = || {
        Fifo::new(FifoConfig {
            addr_width: 2,
            data_width: 2,
        })
        .design
    };
    let lifo = || {
        Lifo::new(LifoConfig {
            addr_width: 2,
            data_width: 2,
        })
        .design
    };
    match name {
        "quicksort_n3.btor2" | "quicksort_n4.btor2" => {
            let n = if name.contains("n3") { 3 } else { 4 };
            QuickSort::new(QuickSortConfig {
                n,
                addr_width: 4,
                data_width: 3,
                bug: Default::default(),
            })
            .design
        }
        "fifo_a2d2.btor2" => fifo(),
        "lifo_a2d2.btor2" => lifo(),
        "regfile_r2w1.btor2" => {
            RegFile::new(RegFileConfig {
                addr_width: 2,
                data_width: 2,
                read_ports: 2,
                write_ports: 1,
                watched: 1,
            })
            .design
        }
        "memcpy_l3.btor2" => {
            Memcpy::new(MemcpyConfig {
                len: 3,
                addr_width: 2,
                data_width: 2,
            })
            .design
        }
        "image_filter_l4.btor2" => {
            ImageFilter::new(ImageFilterConfig {
                line_length: 4,
                addr_width: 2,
                data_width: 2,
                reachable_properties: 4,
                unreachable_properties: 2,
                max_witness_depth: 8,
            })
            .design
        }
        "fifo_a2d2_explicit.aag" => explicit_model(&fifo()).0,
        "lifo_a2d2_explicit.aig" => explicit_model(&lifo()).0,
        "gen_s7.aag" => random_design(&GenConfig::aiger(), 7),
        "gen_s11.aig" => random_design(&GenConfig::aiger(), 11),
        other => panic!("no constructor known for corpus file {other}"),
    }
}

/// Every golden file this suite pins; `golden_corpus_is_complete` fails
/// when `corpus/` gains a file the list does not cover.
const GOLDEN: &[&str] = &[
    "quicksort_n3.btor2",
    "quicksort_n4.btor2",
    "fifo_a2d2.btor2",
    "lifo_a2d2.btor2",
    "regfile_r2w1.btor2",
    "memcpy_l3.btor2",
    "image_filter_l4.btor2",
    "fifo_a2d2_explicit.aag",
    "lifo_a2d2_explicit.aig",
    "gen_s7.aag",
    "gen_s11.aig",
];

#[test]
fn golden_corpus_is_complete() {
    let mut on_disk: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir exists (regenerate with the corpus bin's --emit)")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| !n.starts_with('.'))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = GOLDEN.iter().map(|s| s.to_string()).collect();
    expected.sort();
    assert_eq!(on_disk, expected, "corpus/ and the golden list diverged");
}

#[test]
fn golden_corpus_reserializes_from_construction() {
    // The on-disk bytes must be exactly what serializing today's
    // constructors produces — any semantic drift in a workload or a
    // writer shows up here before it can skew the differential below.
    for name in GOLDEN {
        let path = corpus_dir().join(name);
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let d = constructed(name);
        let fresh = if name.ends_with(".btor2") {
            write_btor2(&d).expect("btor2").into_bytes()
        } else if name.ends_with(".aag") {
            write_aiger_ascii(&d).expect("aiger").into_bytes()
        } else {
            write_aiger_binary(&d).expect("aiger")
        };
        assert_eq!(
            fresh, bytes,
            "{name}: corpus file no longer matches its constructor \
             (regenerate with `cargo run -p emm-bench --bin corpus -- --emit`)"
        );
    }
}

#[test]
fn golden_corpus_parse_matches_construction_bounded_and_induction() {
    // The acceptance differential: every Table 1/2 workload and case
    // study, parsed from its golden file, must verify identically to the
    // in-tree construction under both SAT engines.
    for name in GOLDEN {
        let parsed = load_corpus(name);
        let built = constructed(name);
        assert_eq!(
            parsed.properties().len(),
            built.properties().len(),
            "{name}: property count diverged"
        );
        for prop in 0..built.properties().len() {
            let label = format!("{name} p{prop}");
            assert_eq!(
                bounded_key(&built, prop, 10),
                bounded_key(&parsed, prop, 10),
                "{label}: bounded verdict diverged"
            );
            assert_eq!(
                induction_key(&built, prop, 10),
                induction_key(&parsed, prop, 10),
                "{label}: k-induction verdict diverged"
            );
        }
    }
}

#[test]
fn golden_corpus_small_entries_pass_the_bdd_oracle() {
    // Third leg of the three-way on the corpus entries small enough for
    // exhaustive reachability (quicksort's aw=4 memories are out of BDD
    // range by design — the paper's point).
    for name in [
        "fifo_a2d2.btor2",
        "lifo_a2d2.btor2",
        "memcpy_l3.btor2",
        "fifo_a2d2_explicit.aag",
        "lifo_a2d2_explicit.aig",
        "gen_s7.aag",
        "gen_s11.aig",
    ] {
        let parsed = load_corpus(name);
        let built = constructed(name);
        for prop in 0..built.properties().len() {
            three_way(&built, &parsed, prop, 10, &format!("{name} p{prop}"));
        }
    }
}

#[test]
fn buggy_quicksort_cex_survives_the_frontend() {
    // A definite Table 1 verdict (the golden files are all clean): the
    // seeded bug's counterexample must come back at the same depth after
    // a write→parse trip, under both engines.
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::InvertedComparison,
    });
    let parsed = read_btor2(&write_btor2(&qs.design).expect("btor2")).expect("parse");
    let prop = qs.p1.0 as usize;
    let bound = qs.cycle_bound();
    let direct = bounded_key(&qs.design, prop, bound);
    assert!(direct.starts_with("cex@"), "expected a cex, got {direct}");
    assert_eq!(
        direct,
        bounded_key(&parsed, prop, bound),
        "buggy quicksort: bounded cex diverged across the frontend"
    );
    assert_eq!(
        induction_key(&qs.design, prop, bound),
        induction_key(&parsed, prop, bound),
        "buggy quicksort: k-induction cex diverged across the frontend"
    );
}

#[test]
fn golden_corpus_dimacs_dumps_agree() {
    // The external-solver path: the parsed design's graph is renumbered,
    // so the dumps differ textually — but both must solve to the same
    // answer, and that answer must match the bounded verdict.
    for (name, depth) in [("fifo_a2d2.btor2", 4usize), ("gen_s7.aag", 4)] {
        let parsed = load_corpus(name);
        let built = constructed(name);
        for prop in 0..built.properties().len() {
            let a = dump_bmc_cnf(&built, prop, depth, VerifyOptions::default()).expect("dump");
            let b = dump_bmc_cnf(&parsed, prop, depth, VerifyOptions::default()).expect("dump");
            let sat_built = a.cnf.to_solver().solve();
            let sat_parsed = b.cnf.to_solver().solve();
            assert_eq!(
                sat_built, sat_parsed,
                "{name} p{prop}: dump satisfiability diverged across the frontend"
            );
            let bounded = bounded_key(&parsed, prop, depth);
            assert_eq!(
                bounded.starts_with("cex@"),
                sat_parsed == emm_sat::SolveResult::Sat,
                "{name} p{prop}: dump satisfiability ({sat_parsed:?}) contradicts \
                 the engine verdict ({bounded})"
            );
        }
    }
}
