//! Frontend smoke run over the golden corpus: parse every `corpus/`
//! file with [`ModelSource`] and verify all of its properties through
//! the [`VerificationServer`].
//!
//! This is the file-based twin of `verify_server.rs` — no design is
//! constructed in code; everything the engines see comes out of the
//! AIGER/BTOR2 parsers. The corpus is regenerated with
//! `cargo run -p emm-bench --bin corpus -- --emit`.
//!
//! Run with: `cargo run --release --example corpus_smoke`

use std::path::PathBuf;

use emm_verif::bmc::{ModelSource, ProofEngine, VerificationServer, VerifyBudget, VerifyOptions};

fn main() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("aag") | Some("aig") | Some("btor") | Some("btor2")
            )
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus — regenerate with --emit");

    // One-call path first: a single property of a single file.
    let (verdict, depth) = ModelSource::from_path(dir.join("image_filter_l4.btor2"))
        .verify(0, &VerifyBudget::default(), VerifyOptions::default())
        .expect("image filter parses and verifies");
    println!("image_filter_l4 p0: {verdict:?} at depth {depth}");
    assert!(verdict.is_counterexample(), "p0 is a reachable property");

    // Then the batch path: every property of every corpus file, plus
    // unbounded proofs of the FIFO/LIFO invariants by k-induction in the
    // same batch. Each file is loaded once, so a k-induction request
    // shares its design with the bounded request for the same property:
    // the server runs the two as one job, and the k-induction base case
    // reuses the bounded run's refuted bounds.
    let budget = VerifyBudget {
        max_depth: 10,
        ..VerifyBudget::default()
    };
    let inductive = VerifyOptions::default().proof_engine(ProofEngine::KInduction);
    let mut server = VerificationServer::new(2);
    let mut labels = Vec::new();
    let mut induction_ids = Vec::new();
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let design = ModelSource::from_path(path)
            .load()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let source = ModelSource::Design(design);
        let ids = server
            .submit_model(&source, &budget, &VerifyOptions::default())
            .expect("a loaded design always submits");
        labels.extend(
            ids.iter()
                .enumerate()
                .map(|(prop, &id)| (id, format!("{name}:p{prop}"))),
        );
        if matches!(name.as_str(), "fifo_a2d2.btor2" | "lifo_a2d2.btor2") {
            induction_ids.extend(
                server
                    .submit_model(&source, &budget, &inductive)
                    .expect("a loaded design always submits"),
            );
        }
    }
    let responses = server.run();
    let mut cex = 0;
    for (id, label) in &labels {
        let r = &responses[*id];
        assert!(r.error.is_none(), "{label}: job error {:?}", r.error);
        println!("  {label}: {:?} (depth {})", r.verdict, r.depth_reached);
        if r.verdict.is_counterexample() {
            cex += 1;
        }
    }
    let stats = server.stats();
    println!(
        "{} jobs from {} files in {:.3}s = {:.2} jobs/sec ({cex} witnesses)",
        stats.jobs,
        files.len(),
        stats.elapsed_seconds,
        stats.jobs_per_sec
    );
    // The image filter's reachable property bank guarantees witnesses.
    assert!(cex > 0, "corpus must contain reachable properties");

    let mut proved = 0;
    for &id in &induction_ids {
        let r = &responses[id];
        assert!(r.error.is_none(), "induction job {id}: error {:?}", r.error);
        println!("  induction job {id}: {:?}", r.verdict);
        assert!(
            !r.verdict.is_counterexample(),
            "job {id}: an invariant workload produced a counterexample"
        );
        if matches!(r.verdict, emm_verif::bmc::BmcVerdict::Proved { .. }) {
            proved += 1;
        }
    }
    // Not every invariant is inductive at this k (FIFO integrity needs a
    // deeper strengthening), but the overflow properties close at k=1.
    assert!(proved >= 2, "expected the inductive invariants to close");
    println!(
        "{proved}/{} invariants proved by k-induction",
        induction_ids.len()
    );
}
