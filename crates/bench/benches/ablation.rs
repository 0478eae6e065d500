//! Criterion benchmark: the exclusivity-constraint ablation.
//!
//! Section 3 item 3 of the paper: the explicit exclusivity constraints
//! (eq. (4)) are not needed for correctness but make the SAT solver faster
//! because deciding one matching read–write pair immediately implies all
//! others invalid. `ForwardingEncoding::Direct` drops them; this benchmark
//! measures what they buy on a read-heavy workload (the comparison
//! reported in the paper's ref. [18]).

use criterion::{criterion_group, criterion_main, Criterion};
use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use emm_core::{EmmOptions, ForwardingEncoding};
use emm_designs::memcpy::{Memcpy, MemcpyConfig};
use emm_designs::quicksort::{QuickSort, QuickSortConfig};

fn check(design: &emm_aig::Design, prop: usize, depth: usize, encoding: ForwardingEncoding) {
    let mut engine = BmcEngine::new(
        design,
        VerifyOptions::default().proofs(true).emm(EmmOptions {
            encoding,
            ..EmmOptions::default()
        }),
    );
    let run = engine.check(prop, depth).expect("run");
    assert!(
        matches!(run.verdict, BmcVerdict::Proof { .. }),
        "{:?}",
        run.verdict
    );
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("exclusivity_ablation");
    group.sample_size(10);

    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 3,
        data_width: 3,
        bug: Default::default(),
    });
    let bound = qs.cycle_bound();
    group.bench_function("quicksort_p1_exclusive", |b| {
        b.iter(|| check(&qs.design, 0, bound, ForwardingEncoding::Exclusive));
    });
    group.bench_function("quicksort_p1_direct", |b| {
        b.iter(|| check(&qs.design, 0, bound, ForwardingEncoding::Direct));
    });

    let engine = Memcpy::new(MemcpyConfig {
        len: 3,
        addr_width: 3,
        data_width: 4,
    });
    let bound = engine.cycle_bound();
    group.bench_function("memcpy_exclusive", |b| {
        b.iter(|| check(&engine.design, 0, bound, ForwardingEncoding::Exclusive));
    });
    group.bench_function("memcpy_direct", |b| {
        b.iter(|| check(&engine.design, 0, bound, ForwardingEncoding::Direct));
    });

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
