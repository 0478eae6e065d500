//! Regenerates the **Industry Design II** case study: the abstraction /
//! invariant-discovery workflow on the 1W/3R lookup engine.
//!
//! Paper reference: spurious witnesses at depth 7 with the memory fully
//! abstracted; no witnesses to depth 200 with EMM (10 s); the invariant
//! `G(WE=0 ∨ WD=0)` proved by backward induction at depth 2 in <1 s with
//! EMM versus 78 s with Explicit Modeling; the 8 properties then proved on
//! a 20–30-latch reduced model with the invariant as a read-data
//! constraint.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p emm-bench --bin industry2 -- [--paper] [--depth D]
//! ```

use std::time::Duration;

use emm_bench::{secs, Table};
use emm_bmc::{pba, AbstractionSpec, BmcEngine, BmcVerdict, ProofKind, VerifyOptions};
use emm_core::explicit_model;
use emm_designs::industry2::{Industry2, Industry2Config};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let depth: usize = arg_value("--depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let config = if paper {
        Industry2Config::paper()
    } else {
        Industry2Config {
            addr_width: 6,
            data_width: 8,
            properties: 8,
            pipeline_depth: 7,
            bulk_stages: 8,
            assume_rd_zero: false,
        }
    };
    let lookup = Industry2::new(config);
    let d = &lookup.design;
    println!("Industry Design II — lookup engine: {}", d.stats());
    println!();

    let mut table = Table::new(&["step", "result", "sec", "paper"]);

    // Step 1: memory fully abstracted — spurious witnesses.
    let no_memory = AbstractionSpec {
        kept_latches: vec![true; d.num_latches()],
        kept_memories: vec![false; d.memories().len()],
    };
    let mut engine = BmcEngine::new(
        d,
        VerifyOptions::default()
            .abstraction(Some(no_memory))
            .validate_traces(false),
    );
    let run = engine.check(lookup.lookups[0], 20).expect("run");
    let cell = match run.verdict {
        BmcVerdict::Counterexample(t) => format!("spurious CE at depth {}", t.depth() - 1),
        ref other => format!("{other:?}"),
    };
    table.row(&[
        "memory abstracted".into(),
        cell,
        secs(run.elapsed),
        "spurious CE at depth 7".into(),
    ]);

    // Step 2: EMM — no witnesses for any property.
    let started = std::time::Instant::now();
    let mut engine = BmcEngine::new(d, VerifyOptions::default());
    let mut clean = 0;
    for &p in &lookup.lookups {
        let run = engine.check(p, depth).expect("run");
        if matches!(run.verdict, BmcVerdict::BoundReached) {
            clean += 1;
        }
    }
    table.row(&[
        format!("EMM to depth {depth}"),
        format!("{clean}/{} no witness", lookup.lookups.len()),
        secs(started.elapsed()),
        "none up to 200 in 10 s".into(),
    ]);

    // Step 3: the invariant by backward induction — EMM vs Explicit.
    let mut engine = BmcEngine::new(d, VerifyOptions::default().proofs(true));
    let run = engine.check(lookup.invariant, 10).expect("run");
    let cell = match run.verdict {
        BmcVerdict::Proof {
            kind: ProofKind::BackwardInduction,
            depth,
        } => {
            format!("backward induction, depth {depth}")
        }
        ref other => format!("{other:?}"),
    };
    table.row(&[
        "G(WE=0 or WD=0), EMM".into(),
        cell,
        secs(run.elapsed),
        "depth 2, <1 s".into(),
    ]);

    let (expl, _) = explicit_model(d);
    let mut engine = BmcEngine::new(
        &expl,
        VerifyOptions::default()
            .proofs(true)
            .wall_limit(Some(Duration::from_secs(120))),
    );
    let run = engine.check(lookup.invariant, 10).expect("run");
    let cell = match run.verdict {
        BmcVerdict::Proof { kind, depth } => format!("{kind:?}, depth {depth}"),
        ref other => format!("{other:?}"),
    };
    table.row(&[
        "G(WE=0 or WD=0), Explicit".into(),
        cell,
        secs(run.elapsed),
        "78 s".into(),
    ]);

    // Step 4: invariant as RD constraint + abstracted memory + PBA.
    let constrained = Industry2::new(Industry2Config {
        assume_rd_zero: true,
        ..config
    });
    let cd = &constrained.design;
    let started = std::time::Instant::now();
    let pba_config = pba::PbaConfig {
        stability_depth: 6,
        max_depth: 30,
        ..pba::PbaConfig::default()
    };
    let mut proved = 0;
    let mut reduced_sizes = Vec::new();
    for &p in &constrained.lookups {
        let result = pba::discover_and_prove(cd, p, &pba_config, 30, 3).expect("dap");
        if matches!(result.verdict, BmcVerdict::Proof { .. }) {
            proved += 1;
        }
        reduced_sizes.push(result.abstraction.num_kept_latches());
    }
    let min_max = format!(
        "{proved}/{} proved, reduced to {}-{} FF (of {})",
        constrained.lookups.len(),
        reduced_sizes.iter().min().unwrap_or(&0),
        reduced_sizes.iter().max().unwrap_or(&0),
        cd.num_latches(),
    );
    table.row(&[
        "invariant applied + PBA".into(),
        min_max,
        secs(started.elapsed()),
        "8/8 on 20-30 FF models, <1 s each".into(),
    ]);

    println!("{}", table.render());
}
