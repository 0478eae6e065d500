//! Regenerates the **Industry Design I** case study: a memory-backed image
//! filter with a bank of reachability properties.
//!
//! Paper reference: 216 properties; EMM finds 206 witnesses (max depth 51)
//! in ~400 s / 50 MB and proves the remaining 10 by induction in <1 s;
//! Explicit Modeling needs 20540 s / 912 MB for the witnesses and 25 s for
//! the proofs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p emm-bench --bin industry1 -- [--paper] [--timeout SECS]
//!     --paper   full 216-property configuration (slow under Explicit)
//! ```

use std::time::{Duration, Instant};

use emm_bench::{secs, time_or_timeout, Table};
use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use emm_core::explicit_model;
use emm_designs::image_filter::{ImageFilter, ImageFilterConfig};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

struct Outcome {
    witnesses: usize,
    max_depth: usize,
    witness_time: Duration,
    witness_timed_out: bool,
    proofs: usize,
    proof_time: Duration,
}

fn run_bank(design: &emm_aig::Design, filter: &ImageFilter, budget: Duration) -> Outcome {
    let deadline = Instant::now() + budget;
    let started = Instant::now();
    let mut witnesses = 0;
    let mut max_depth = 0;
    let mut timed_out = false;
    let mut engine = BmcEngine::new(design, VerifyOptions::default());
    for &p in &filter.reachable {
        if Instant::now() >= deadline {
            timed_out = true;
            break;
        }
        let run = engine
            .check(p, filter.config.max_witness_depth + 4)
            .expect("run");
        if let BmcVerdict::Counterexample(t) = run.verdict {
            witnesses += 1;
            max_depth = max_depth.max(t.depth() - 1);
        }
    }
    let witness_time = started.elapsed();

    let started = Instant::now();
    let mut proofs = 0;
    let mut engine = BmcEngine::new(design, VerifyOptions::default().proofs(true));
    for &p in &filter.unreachable {
        let run = engine.check(p, 24).expect("run");
        if run.verdict.is_proof() {
            proofs += 1;
        }
    }
    Outcome {
        witnesses,
        max_depth,
        witness_time,
        witness_timed_out: timed_out,
        proofs,
        proof_time: started.elapsed(),
    }
}

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let timeout = Duration::from_secs(
        arg_value("--timeout")
            .and_then(|v| v.parse().ok())
            .unwrap_or(120),
    );
    let config = if paper {
        ImageFilterConfig::paper()
    } else {
        ImageFilterConfig {
            line_length: 16,
            addr_width: 4,
            data_width: 8,
            reachable_properties: 40,
            unreachable_properties: 10,
            max_witness_depth: 51,
        }
    };
    let filter = ImageFilter::new(config);
    println!(
        "Industry Design I — image filter: {}",
        filter.design.stats()
    );
    println!("paper reference: EMM 206/216 witnesses (max depth 51) in 400 s + 10 proofs <1 s;");
    println!("                 Explicit 20540 s for witnesses, 25 s for proofs");
    println!();

    let mut table = Table::new(&[
        "model",
        "witnesses",
        "max depth",
        "witness sec",
        "proofs",
        "proof sec",
    ]);

    let emm = run_bank(&filter.design, &filter, timeout);
    table.row(&[
        "EMM".into(),
        format!("{}/{}", emm.witnesses, filter.reachable.len()),
        emm.max_depth.to_string(),
        time_or_timeout(emm.witness_time, !emm.witness_timed_out, timeout),
        format!("{}/{}", emm.proofs, filter.unreachable.len()),
        secs(emm.proof_time),
    ]);
    println!("{}", table.render());

    let (expl, _) = explicit_model(&filter.design);
    println!("explicit model: {}", expl.stats());
    let exp = run_bank(&expl, &filter, timeout);
    table.row(&[
        "Explicit".into(),
        format!("{}/{}", exp.witnesses, filter.reachable.len()),
        exp.max_depth.to_string(),
        time_or_timeout(exp.witness_time, !exp.witness_timed_out, timeout),
        format!("{}/{}", exp.proofs, filter.unreachable.len()),
        secs(exp.proof_time),
    ]);
    println!("final:\n{}", table.render());
}
