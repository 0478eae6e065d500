//! Regenerates **Table 2** — "Performance summary on Quick Sort on P2":
//! proof-based abstraction on the stack-discipline property, EMM+PBA
//! versus Explicit+PBA.
//!
//! The paper's key observation: the reduced model for P2 contains no latch
//! from the array memory's control logic, so the array module is abstracted
//! away entirely; the EMM reduced model has ~91 of 167 latches, while the
//! explicit reduced model still carries thousands of memory latches.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p emm-bench --bin table2 -- [--aw A] [--dw D] [--timeout SECS] [--max-n N]
//! ```

use std::time::Duration;

use emm_bench::{secs, Table};
use emm_bmc::{pba, BmcEngine, BmcVerdict, PipelineOptions, VerifyOptions};
use emm_core::explicit_model;
use emm_designs::quicksort::{QuickSort, QuickSortConfig};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let aw: usize = arg_value("--aw").and_then(|v| v.parse().ok()).unwrap_or(6);
    let dw: usize = arg_value("--dw").and_then(|v| v.parse().ok()).unwrap_or(4);
    let timeout = Duration::from_secs(
        arg_value("--timeout")
            .and_then(|v| v.parse().ok())
            .unwrap_or(60),
    );
    let max_n: usize = arg_value("--max-n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    println!("Table 2 — Quick Sort on P2: EMM+PBA vs Explicit+PBA");
    println!(
        "array AW={aw} DW={dw}; stability depth 10; timeout {}s",
        timeout.as_secs()
    );
    println!("paper reference (AW=10, DW=32):");
    println!("  N=3: EMM 91(167) FF, PBA 10 s, proof 5 s / Explicit 293(37K) FF, proof 2K s");
    println!("  N=4: EMM 93(167) FF, PBA 38 s, proof 145 s / Explicit 2858(37K) FF, 10K s");
    println!("  N=5: EMM 91(167) FF, PBA 351 s, proof 2316 s / Explicit: no stable set in 3h");
    println!();

    let mut table = Table::new(&[
        "N",
        "EMM FF(orig)",
        "PBA sec",
        "proof sec",
        "array dropped",
        "Expl FF(orig)",
        "Expl PBA sec",
        "Expl proof sec",
    ]);
    for n in 3..=max_n {
        let qs = QuickSort::new(QuickSortConfig {
            n,
            addr_width: aw,
            data_width: dw,
            bug: Default::default(),
        });
        let prop = qs.p2.0 as usize;
        let config = pba::PbaConfig::default()
            .stability_depth(10)
            .max_depth(qs.cycle_bound())
            .pipeline(PipelineOptions {
                wall_limit: Some(timeout),
                ..Default::default()
            });

        // --- EMM + PBA (with the refinement loop: PBA only preserves
        // correctness up to the discovery depth, so proofs beyond it may
        // need another round) --------------------------------------------
        let started = std::time::Instant::now();
        let result = pba::discover_and_prove(&qs.design, prop, &config, qs.cycle_bound(), 4)
            .expect("discover and prove");
        let total = started.elapsed();
        let emm_ff = format!(
            "{}({})",
            result.abstraction.num_kept_latches(),
            qs.design.num_latches()
        );
        let pba_time = format!("{} ({}r)", secs(total), result.rounds);
        let array_dropped = !result.abstraction.kept_memories[qs.array.0 as usize];
        let proof_time = match result.verdict {
            BmcVerdict::Proof { .. } => {
                // Re-run just the proof on the final abstraction for a
                // clean proof-only time.
                let mut engine = BmcEngine::new(
                    &qs.design,
                    VerifyOptions::default()
                        .proofs(true)
                        .abstraction(Some(result.abstraction.clone()))
                        .validate_traces(false)
                        .wall_limit(Some(timeout)),
                );
                let run = engine.check(prop, qs.cycle_bound()).expect("proof rerun");
                match run.verdict {
                    BmcVerdict::Proof { .. } => secs(run.elapsed),
                    _ => format!("{:?}", run.verdict),
                }
            }
            BmcVerdict::Unknown { .. } => format!(">{}", timeout.as_secs()),
            ref other => format!("{other:?}"),
        };

        // --- Explicit + PBA ---------------------------------------------
        let (expl, _) = explicit_model(&qs.design);
        let expl_config = pba::PbaConfig::default()
            .stability_depth(10)
            .max_depth(qs.cycle_bound())
            .pipeline(PipelineOptions {
                wall_limit: Some(timeout),
                ..Default::default()
            });
        let expl_disc = pba::discover(&expl, prop, &expl_config).expect("explicit discovery");
        let stable = expl_disc.stable_at.is_some();
        let expl_ff = if stable {
            format!(
                "{}({})",
                expl_disc.abstraction.num_kept_latches(),
                expl.num_latches()
            )
        } else {
            format!("-({})", expl.num_latches())
        };
        let expl_pba_time = if stable {
            secs(expl_disc.elapsed)
        } else {
            format!(">{}", timeout.as_secs())
        };
        let expl_proof_time = if stable {
            let mut engine = BmcEngine::new(
                &expl,
                VerifyOptions::default()
                    .proofs(true)
                    .abstraction(Some(expl_disc.abstraction.clone()))
                    .validate_traces(false)
                    .wall_limit(Some(timeout)),
            );
            let run = engine
                .check(prop, qs.cycle_bound())
                .expect("explicit proof");
            match run.verdict {
                BmcVerdict::Proof { .. } => secs(run.elapsed),
                BmcVerdict::Unknown { .. } => format!(">{}", timeout.as_secs()),
                _ => "refine".to_string(),
            }
        } else {
            "NA".to_string()
        };

        table.row(&[
            n.to_string(),
            emm_ff,
            pba_time,
            proof_time,
            array_dropped.to_string(),
            expl_ff,
            expl_pba_time,
            expl_proof_time,
        ]);
        println!("{}", table.render());
    }
    println!("final:\n{}", table.render());
}
