//! The Industry Design II workflow (Section 5): the full abstraction /
//! invariant-discovery story on a 1-write/3-read lookup engine.
//!
//! 1. Abstract the memory completely → spurious witnesses at the pipeline
//!    depth.
//! 2. Model the memory with EMM → no witnesses.
//! 3. Prove the invariant `G(WE=0 ∨ WD=0)` by backward induction (the
//!    write path can never fire — "could potentially be a design bug").
//! 4. Apply the invariant as a constraint on read data, abstract the
//!    memory, and prove every lookup property on the reduced model.
//!
//! Run with: `cargo run --release --example lookup_engine`

use emm_verif::bmc::{AbstractionSpec, BmcEngine, BmcVerdict, ProofKind, VerifyOptions};
use emm_verif::designs::industry2::{Industry2, Industry2Config};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = Industry2Config::small();
    let engine_design = Industry2::new(config);
    let d = &engine_design.design;
    println!("lookup engine: {}", d.stats());

    // --- Step 1: memory fully abstracted -> spurious witnesses ---------
    let no_memory = AbstractionSpec {
        kept_latches: vec![true; d.num_latches()],
        kept_memories: vec![false; d.memories().len()],
    };
    let mut engine = BmcEngine::new(
        d,
        VerifyOptions::default()
            .abstraction(Some(no_memory))
            // spurious by construction
            .validate_traces(false),
    );
    let prop0 = engine_design.lookups[0];
    let run = engine.check(prop0, 20)?;
    match run.verdict {
        BmcVerdict::Counterexample(t) => println!(
            "memory abstracted: SPURIOUS witness at depth {} (paper: depth 7)",
            t.depth() - 1
        ),
        other => panic!("memory abstracted: unexpected {other:?}"),
    }

    // --- Step 2: EMM keeps the semantics -> no witnesses ---------------
    let mut engine = BmcEngine::new(d, VerifyOptions::default());
    let run = engine.check(prop0, 30)?;
    match run.verdict {
        BmcVerdict::BoundReached => {
            println!("with EMM: no witness up to depth 30 (paper: none up to 200)")
        }
        other => panic!("with EMM: unexpected {other:?}"),
    }

    // --- Step 3: the invariant proof by backward induction -------------
    let mut engine = BmcEngine::new(d, VerifyOptions::default().proofs(true));
    let run = engine.check(engine_design.invariant, 10)?;
    match run.verdict {
        BmcVerdict::Proof { kind, depth } => {
            println!("G(WE=0 or WD=0) proved by {kind:?} at depth {depth} (paper: depth 2)");
            assert_eq!(kind, ProofKind::BackwardInduction);
        }
        other => panic!("invariant: unexpected {other:?}"),
    }

    // --- Step 4: invariant as RD constraint + abstracted memory --------
    let constrained = Industry2::new(Industry2Config {
        assume_rd_zero: true,
        ..config
    });
    let cd = &constrained.design;
    let no_memory = AbstractionSpec {
        kept_latches: vec![true; cd.num_latches()],
        kept_memories: vec![false; cd.memories().len()],
    };
    let mut engine = BmcEngine::new(
        cd,
        VerifyOptions::default()
            .proofs(true)
            .abstraction(Some(no_memory))
            .validate_traces(false),
    );
    let mut proved = 0;
    for &p in &constrained.lookups {
        let run = engine.check(p, 25)?;
        if let BmcVerdict::Proof { .. } = run.verdict {
            proved += 1;
        }
    }
    println!(
        "reduced model with the invariant applied: {proved}/{} lookup properties proved",
        constrained.lookups.len()
    );
    assert_eq!(
        proved,
        constrained.lookups.len(),
        "every lookup property must close on the reduced model"
    );
    Ok(())
}
