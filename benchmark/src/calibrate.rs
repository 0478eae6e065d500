//! Host-speed calibration.
//!
//! A shared host's speed drifts: on a 2-core VM, a fixed CPU loop timed
//! every 0.2 s for 20 s ranges over 1.7x, in slow phases that last from
//! seconds to minutes. No statistic over one run's samples removes a
//! drift that outlasts the run. So the benchmark times a fixed reference
//! kernel right before and after each timed stretch of work, and scales
//! the stretch's seconds by how much slower than nominal the kernel ran.
//! The kernel makes random read-modify-writes over a 4 MiB table: the
//! cache-missing, branchy access pattern of a SAT solver's watch lists.
//! It runs on as many threads as the workload uses. It is the
//! benchmark's own code, so it runs the same on every commit of the
//! program under test.

use std::hint::black_box;
use std::time::Instant;

/// 32-bit words in the reference table (4 MiB).
const TABLE_WORDS: usize = 1 << 20;
/// Table updates per reference chunk.
const CHUNK_ROUNDS: usize = 2_000_000;
/// Chunks per sample; one sample takes about 0.06 s.
const SAMPLE_CHUNKS: usize = 10;
/// Nominal seconds of one chunk: its typical time on a quiet 2.1 GHz
/// Xeon host. Scaled times are seconds at that host speed.
pub const NOMINAL_CHUNK_S: f64 = 0.006;

/// Mean seconds of one reference chunk, measured now on `threads`
/// threads at once.
pub fn sample(threads: usize) -> f64 {
    let run = || {
        let mut table: Vec<u32> = (0..TABLE_WORDS as u32).collect();
        let started = Instant::now();
        for _ in 0..SAMPLE_CHUNKS {
            black_box(kernel(black_box(&mut table), CHUNK_ROUNDS));
        }
        started.elapsed().as_secs_f64() / SAMPLE_CHUNKS as f64
    };
    if threads <= 1 {
        return run();
    }
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(run)).collect();
        let own = run();
        own + others
            .into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .sum::<f64>()
    });
    total / threads as f64
}

/// The factor that turns seconds measured between two samples into
/// seconds at nominal host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_CHUNK_S / ((before + after) / 2.0)
}

/// `rounds` xorshift-addressed read-modify-writes over `table`, whose
/// length must be a power of two.
fn kernel(table: &mut [u32], rounds: usize) -> u32 {
    let mask = table.len() - 1;
    let mut x: u32 = 0x9E37_79B9;
    let mut acc: u32 = 0;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let i = x as usize & mask;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ x;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_mean_sample() {
        assert_eq!(scale(NOMINAL_CHUNK_S, NOMINAL_CHUNK_S), 1.0);
        assert_eq!(scale(NOMINAL_CHUNK_S, 3.0 * NOMINAL_CHUNK_S), 0.5);
    }

    #[test]
    fn kernel_work_does_not_depend_on_the_clock() {
        let mut a: Vec<u32> = (0..64).collect();
        let mut b = a.clone();
        assert_eq!(kernel(&mut a, 1000), kernel(&mut b, 1000));
        assert_eq!(a, b);
        assert!(sample(1) > 0.0);
        assert!(sample(2) > 0.0);
    }
}
