//! The quicksort case study end to end (Tables 1 and 2 of the paper, at a
//! test-friendly scale).
//!
//! Proves P1 (sortedness) and P2 (stack discipline) by forward induction
//! with EMM, then uses proof-based abstraction on P2 to discover that the
//! array memory is irrelevant, and re-proves P2 on the reduced model.
//!
//! Run with: `cargo run --release --example quicksort [n] [addr_width] [data_width]`

use emm_verif::bmc::{pba, BmcEngine, BmcVerdict, VerifyOptions};
use emm_verif::designs::quicksort::{QuickSort, QuickSortConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let aw: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let dw: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(6);

    let qs = QuickSort::new(QuickSortConfig {
        n,
        addr_width: aw,
        data_width: dw,
        bug: Default::default(),
    });
    println!("quicksort n={n}: {}", qs.design.stats());
    println!(
        "array: AW={} DW={}  stack: AW={} DW={}",
        qs.design.memories()[0].addr_width,
        qs.design.memories()[0].data_width,
        qs.design.memories()[1].addr_width,
        qs.design.memories()[1].data_width,
    );

    // --- BMC-3 forward-induction proofs (Table 1's EMM columns) --------
    for (name, prop) in [("P1", qs.p1.0 as usize), ("P2", qs.p2.0 as usize)] {
        let mut engine = BmcEngine::new(&qs.design, VerifyOptions::default().proofs(true));
        let run = engine.check(prop, qs.cycle_bound())?;
        match run.verdict {
            BmcVerdict::Proof { kind, depth } => {
                println!(
                    "{name}: proved by {kind:?} at D={depth} in {:?}",
                    run.elapsed
                );
            }
            other => panic!("{name}: unexpected verdict {other:?}"),
        }
    }

    // --- PBA on P2 (Table 2): the array module should drop out ---------
    // Stability-based discovery is a heuristic: the stable reason set may
    // be insufficient for the full-depth proof, so use the refinement loop
    // (discover, prove, widen on a spurious counterexample) — the same
    // flow the `table2` harness runs.
    let config = pba::PbaConfig {
        stability_depth: 10,
        max_depth: qs.cycle_bound(),
        ..pba::PbaConfig::default()
    };
    let started = std::time::Instant::now();
    let result =
        pba::discover_and_prove(&qs.design, qs.p2.0 as usize, &config, qs.cycle_bound(), 4)?;
    println!(
        "PBA on P2: kept {} of {} latches, {} of 2 memories ({} refinement rounds, {:?})",
        result.abstraction.num_kept_latches(),
        qs.design.num_latches(),
        result.abstraction.num_kept_memories(),
        result.rounds,
        started.elapsed(),
    );
    let array_kept = result.abstraction.kept_memories[qs.array.0 as usize];
    assert!(!array_kept, "PBA must abstract the array away (Table 2)");
    println!("array memory abstracted away, as in Table 2");
    match result.verdict {
        BmcVerdict::Proof { kind, depth } => {
            println!("P2 on reduced model: proved by {kind:?} at D={depth}");
        }
        other => panic!("P2 on reduced model: unexpected verdict {other:?}"),
    }
    Ok(())
}
