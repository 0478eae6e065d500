//! Regenerates **Table 1** — "Performance summary on Quick Sort":
//! forward induction proofs of P1/P2 for array sizes N, EMM (BMC-3) versus
//! Explicit Modeling (BMC-1).
//!
//! The paper ran `AW=10, DW=32` on a 2.8 GHz Xeon with a 3-hour timeout and
//! saw EMM complete in 30–6376 s while Explicit always timed out. This
//! harness defaults to `AW=6, DW=4` and a 60-second timeout, which
//! reproduces the same *shape* (EMM seconds, Explicit timeout) in minutes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p emm-bench --bin table1 -- [--full] [--aw A] [--dw D] [--timeout SECS] [--max-n N]
//!     --full      paper widths (AW=10, DW=32) — slow
//! ```

use std::time::Duration;

use emm_bench::{resident_mib, secs, Table};
use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use emm_core::explicit_model;
use emm_designs::quicksort::{QuickSort, QuickSortConfig};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let aw: usize = arg_value("--aw")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full { 10 } else { 6 });
    let dw: usize = arg_value("--dw")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full { 32 } else { 4 });
    let timeout = Duration::from_secs(
        arg_value("--timeout")
            .and_then(|v| v.parse().ok())
            .unwrap_or(60),
    );
    let max_n: usize = arg_value("--max-n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    println!("Table 1 — Quick Sort: EMM (BMC-3) vs Explicit Modeling (BMC-1)");
    println!(
        "array AW={aw} DW={dw}; per-run timeout {}s",
        timeout.as_secs()
    );
    println!("paper reference (AW=10, DW=32, 3h timeout):");
    println!("  N=3: D=27, EMM 64/30 s, Explicit >3h");
    println!("  N=4: D=42, EMM 601/453 s, Explicit >3h");
    println!("  N=5: D=59, EMM 6376/4916 s, Explicit >3h");
    println!();

    let mut table = Table::new(&[
        "N",
        "Prop",
        "D",
        "EMM sec",
        "EMM MB",
        "Explicit sec",
        "Expl MB",
    ]);
    for n in 3..=max_n {
        let qs = QuickSort::new(QuickSortConfig {
            n,
            addr_width: aw,
            data_width: dw,
            bug: Default::default(),
        });
        let (expl, _) = explicit_model(&qs.design);
        for (label, prop) in [("P1", qs.p1.0 as usize), ("P2", qs.p2.0 as usize)] {
            // EMM: BMC-3 forward induction proof.
            let mut engine = BmcEngine::new(
                &qs.design,
                VerifyOptions::default()
                    .proofs(true)
                    .wall_limit(Some(timeout)),
            );
            let run = engine.check(prop, qs.cycle_bound()).expect("emm run");
            let (diameter, emm_time) = match run.verdict {
                BmcVerdict::Proof { depth, .. } => (depth.to_string(), secs(run.elapsed)),
                BmcVerdict::Unknown { .. } => ("-".to_string(), format!(">{}", timeout.as_secs())),
                other => (format!("{other:?}"), secs(run.elapsed)),
            };
            let emm_mb = resident_mib()
                .map(|m| format!("{m:.0}"))
                .unwrap_or_default();

            // Explicit: BMC-1 on the expanded model.
            let mut engine = BmcEngine::new(
                &expl,
                VerifyOptions::default()
                    .proofs(true)
                    .wall_limit(Some(timeout)),
            );
            let run = engine.check(prop, qs.cycle_bound()).expect("explicit run");
            let expl_time = match run.verdict {
                BmcVerdict::Proof { .. } => secs(run.elapsed),
                BmcVerdict::Unknown { .. } => format!(">{}", timeout.as_secs()),
                other => format!("{other:?}"),
            };
            let expl_mb = resident_mib()
                .map(|m| format!("{m:.0}"))
                .unwrap_or_default();
            table.row(&[
                n.to_string(),
                label.to_string(),
                diameter,
                emm_time,
                emm_mb,
                expl_time,
                expl_mb,
            ]);
            println!("{}", table.render());
        }
    }
    println!("final:\n{}", table.render());
}
