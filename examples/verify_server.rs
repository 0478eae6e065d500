//! Batch verification with the `VerificationServer`.
//!
//! Builds one memory-backed design, queues every property of it (plus a
//! repeat with a different depth budget) on the server, and runs the
//! batch on the shared-queue pool. Requests sharing the design and
//! preprocessing configuration are reduced once; responses come back in
//! submission order, bit-identical at every worker count.
//!
//! Run with: `cargo run --release --example verify_server`

use std::sync::Arc;

use emm_verif::aig::{Design, LatchInit, MemInit};
use emm_verif::bmc::{VerificationServer, VerifyBudget, VerifyOptions, VerifyRequest};

fn build_design() -> Design {
    // A rolling buffer: a pointer walks an 8-entry memory, writing the
    // cycle count; a read port watches the previous entry.
    let mut d = Design::new();
    let buf = d.add_memory("buf", 3, 8, MemInit::Zero);
    let ptr = d.new_latch_word("ptr", 3, LatchInit::Zero);
    let tick = d.new_latch_word("tick", 8, LatchInit::Zero);
    let next_ptr = d.aig.inc(&ptr);
    let next_tick = d.aig.inc(&tick);
    d.set_next_word(&ptr, &next_ptr);
    d.set_next_word(&tick, &next_tick);
    let t = emm_verif::aig::Aig::TRUE;
    d.add_write_port(buf, ptr.clone(), t, tick.clone());
    let prev = d.aig.dec(&ptr);
    let entry = d.add_read_port(buf, prev, t);

    // Reachable: the watched entry eventually holds the value 5.
    let bad = d.aig.eq_const(&entry, 5);
    d.add_property("entry_reaches_5", bad);
    // Unreachable within the checked bound: the entry holds 200 while
    // the tick counter is still below 16.
    let big = d.aig.eq_const(&entry, 200);
    let early = d.aig.eq_const(&tick, 8);
    let never = d.aig.and(big, early);
    d.add_property("big_entry_early", never);
    d.check().expect("well-formed design");
    d
}

fn main() {
    let design = Arc::new(build_design());

    // Two pool workers. Responses are the same at every worker count;
    // only the wall clock changes.
    let mut server = VerificationServer::new(2);

    for p in 0..design.properties().len() {
        server.submit(VerifyRequest {
            design: Arc::clone(&design),
            property: p,
            budget: VerifyBudget {
                max_depth: 16,
                ..VerifyBudget::default()
            },
            options: VerifyOptions::default(),
        });
    }
    // The same property again under a tighter depth budget — an
    // independent job with its own engine and forked governor.
    server.submit(VerifyRequest {
        design: Arc::clone(&design),
        property: 0,
        budget: VerifyBudget {
            max_depth: 4,
            ..VerifyBudget::default()
        },
        options: VerifyOptions::default(),
    });

    println!(
        "running {} jobs on {} worker(s)...",
        server.pending(),
        server.workers()
    );
    let responses = server.run();
    for r in &responses {
        println!(
            "  job {}: {:?} (depth {}, {:.3}s)",
            r.id, r.verdict, r.depth_reached, r.elapsed_seconds
        );
    }
    let stats = server.stats();
    println!(
        "{} jobs in {:.3}s = {:.2} jobs/sec",
        stats.jobs, stats.elapsed_seconds, stats.jobs_per_sec
    );

    // The deep run finds the counterexample; the shallow repeat of the
    // same property stops clean at its bound.
    assert!(responses[0].verdict.is_counterexample());
    assert!(!responses[2].verdict.is_counterexample());
}
